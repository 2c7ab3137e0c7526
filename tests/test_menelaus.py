import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mongekit.kernel as kernel
import mongekit.menelaus as menelaus
import mongekit.noneuclid as noneuclid
from mongekit.errors import (
    BackendMixError,
    CoincidesWithVertex,
    DegenerateConfiguration,
    DimensionMismatch,
    EqualWeights,
    GeometryError,
    InvalidInput,
    NonCoplanar,
    NotOnLine,
    NotSpacelike,
)
from mongekit.generators import GenSpec, gen_menelaus_case, gen_rational_case
from mongekit.kernel import DEFAULT_TOLERANCE, Tolerance, fit_hyperplane, is_exact
from mongekit.menelaus import (
    EdgePointSet,
    Homothety,
    _cleared_ratio,
    _float_ratios,
    _menelaus_report,
    all_pairs,
    edge_points_from_weights,
    menelaus_products,
    monge_hyperplane_from_weights,
    signed_ratio,
)
from mongekit.noneuclid import HYPERBOLIC, SPHERICAL, verify_prop2
from mongekit.scenario import EUCLIDEAN

TRIANGLE = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def test_signed_ratio_examples():
    a, b = (0.0, 0.0), (1.0, 0.0)
    assert signed_ratio(a, b, (2.0, 0.0)) == pytest.approx(2.0)
    assert signed_ratio(a, b, (0.5, 0.0)) == pytest.approx(-1.0)
    assert signed_ratio(a, b, (-1.0, 0.0)) == pytest.approx(0.5)


def test_signed_ratio_errors():
    a, b = (0.0, 0.0), (1.0, 0.0)
    with pytest.raises(NotOnLine):
        signed_ratio(a, b, (0.5, 0.5))
    with pytest.raises(CoincidesWithVertex):
        signed_ratio(a, b, (1.0, 0.0))
    err = None
    try:
        signed_ratio(a, b, (0.5, 0.5), pair=(1, 2))
    except NotOnLine as e:
        err = e
    assert err is not None and err.pair == (1, 2)


def test_signed_ratio_exact():
    a, b = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    assert signed_ratio(a, b, (Fraction(-1), Fraction(0))) == Fraction(1, 2)
    with pytest.raises(NotOnLine):
        signed_ratio(a, b, (Fraction(1, 2), Fraction(1, 1000000)))


RATIONALS = st.fractions(min_value=-30, max_value=30, max_denominator=25)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(RATIONALS, min_size=n, max_size=n)] * 2)
    ),
    RATIONALS.filter(lambda lam: lam not in (0, 1)),
)
@settings(max_examples=60)
def test_signed_ratio_exact_recovers_ratio(points, lam):
    a_j, b = points
    if a_j == b:
        return
    a_i = [y + lam * (x - y) for x, y in zip(a_j, b)]
    assert signed_ratio(a_i, a_j, b) == lam
    if len(b) > 1:
        # a unit step along an axis other than the first the line moves along
        p = next(k for k, (x, y) in enumerate(zip(a_j, b)) if x != y)
        off = list(a_i)
        off[(p + 1) % len(b)] += 1
        with pytest.raises(NotOnLine):
            signed_ratio(off, a_j, b)
    with pytest.raises(CoincidesWithVertex):
        signed_ratio(a_i, a_j, a_j)


@given(st.integers(0, 100_000))
@settings(max_examples=60)
def test_signed_ratio_homothety_roundtrip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    a_j = tuple(rng.uniform(-10, 10, size=n))
    center = tuple(rng.uniform(-10, 10, size=n))
    lam = float(rng.uniform(0.2, 5.0))
    if abs(lam - 1.0) < 0.05:
        lam += 0.1
    h = Homothety(center=center, ratio=lam)
    a_i = h.apply(a_j)
    if math.dist(a_i, a_j) < 1e-6:
        return
    got = signed_ratio(a_i, a_j, center)
    assert got == pytest.approx(lam, rel=1e-9, abs=1e-9)


def _float_set(geometry, n):
    """A positive float edge-point set on n+1 vertices in E^n, S^n or H^n."""
    if geometry == EUCLIDEAN:
        vertices = ((0.0,) * n,) + tuple(
            tuple(float(k == m) for k in range(n)) for m in range(n)
        )
        return edge_points_from_weights(vertices, tuple(float(2 ** k) for k in range(n + 1)))
    return gen_menelaus_case(GenSpec(dimension=n, seed=n, kind="edge_points", geometry=geometry))


def test_each_ratio_computed_once(monkeypatch):
    # one batch per set, holding every pair once and in sorted order
    batches = []

    def counting(batch):
        def run(*args):
            batches.append(list(args[-1]))
            return batch(*args)
        return run

    monkeypatch.setattr(menelaus, "_float_ratios", counting(_float_ratios))
    monkeypatch.setattr(noneuclid, "_xn_ratios", counting(noneuclid._xn_ratios))
    for geometry in (EUCLIDEAN, SPHERICAL, HYPERBOLIC):
        verify = menelaus_products if geometry == EUCLIDEAN else verify_prop2
        for n in (2, 4):
            eps = _float_set(geometry, n)
            batches.clear()
            assert verify(eps).verdict
            assert batches == [all_pairs(n + 1)]


def test_each_exact_ratio_computed_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["pair"])
        return _cleared_ratio(*args, **kwargs)

    monkeypatch.setattr(menelaus, "_cleared_ratio", counting)
    monkeypatch.setattr(menelaus, "_float_ratios", None)
    for n in (2, 4):
        eps = gen_rational_case(GenSpec(dimension=n, seed=n, kind="edge_points"))
        calls.clear()
        assert menelaus_products(eps).verdict
        assert calls == all_pairs(n + 1)


def test_one_backend_check_before_the_fit(monkeypatch):
    eps = gen_rational_case(GenSpec(dimension=6, seed=1, kind="edge_points"))
    counted = []
    checked_before_fit = []

    def counting(values):
        counted.append(1)
        return is_exact(values)

    def fit(points, tol):
        checked_before_fit.append(len(counted))
        return fit_hyperplane(points, tol)

    monkeypatch.setattr(kernel, "is_exact", counting)
    monkeypatch.setattr(menelaus, "is_exact", counting)
    monkeypatch.setattr(menelaus, "fit_hyperplane", fit)
    assert menelaus_products(eps).verdict
    assert checked_before_fit == [1]


def test_backend_mix_raised_at_boundary(monkeypatch):
    calls = []
    monkeypatch.setattr(menelaus, "_cleared_ratio", lambda *a, **k: calls.append(1))
    monkeypatch.setattr(menelaus, "_float_ratios", lambda *a, **k: calls.append(1))
    vertices = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    eps = edge_points_from_weights(vertices, (Fraction(1), Fraction(2), Fraction(3)))
    points = dict(eps.edge_points)
    points[(2, 3)] = tuple(float(x) for x in points[(2, 3)])
    with pytest.raises(BackendMixError):
        menelaus_products(EdgePointSet(vertices=vertices, edge_points=points))
    assert calls == []  # decided once for the whole set, before any pair


def error_of(call):
    """(class, message, pair) of the error ``call()`` raises, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError) as err:
            call()
    return type(err.value), str(err.value), err.value.pair


def first_pair_error(eps):
    """The error signed_ratio raises first over the pairs in sorted order."""
    def each_pair():
        for (i, j), b in sorted(eps.edge_points.items()):
            signed_ratio(eps.vertices[i - 1], eps.vertices[j - 1], b, pair=(i, j))
    return error_of(each_pair)


TETRAHEDRON = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@pytest.mark.parametrize("faults,expected", [
    ({(1, 3): "off", (2, 4): "vertex"}, (NotOnLine, (1, 3))),
    ({(1, 3): "vertex", (2, 4): "off"}, (CoincidesWithVertex, (1, 3))),
    ({(1, 3): "off", (2, 4): "short"}, (NotOnLine, (1, 3))),
    ({(1, 4): "short", (2, 3): "off"}, (DimensionMismatch, (1, 4))),
])
def test_set_errors_match_first_pair_error(faults, expected):
    eps = edge_points_from_weights(TETRAHEDRON, (1.0, 2.0, 4.0, 8.0))
    points = dict(eps.edge_points)
    for (i, j), fault in faults.items():
        b = points[(i, j)]
        if fault == "off":
            points[(i, j)] = (b[0] + 0.25, b[1] - 0.5, b[2] + 1.0)
        elif fault == "vertex":
            points[(i, j)] = TETRAHEDRON[j - 1]  # b - a_j = 0: 0/0 for the ratio
        else:
            points[(i, j)] = b[:2]
    bad = EdgePointSet(vertices=TETRAHEDRON, edge_points=points)
    got = error_of(bad.validate)
    assert got == first_pair_error(bad)
    assert (got[0], got[2]) == expected
    assert error_of(lambda: menelaus_products(bad)) == got


def test_batch_errors_match_per_pair_calls():
    # coinciding vertices cannot pass validate, so the batch is driven directly
    a_i = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    a_j = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    b = np.array([[2.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    pairs = [(1, 2), (1, 3), (2, 3)]
    got = error_of(lambda: _float_ratios(a_i, a_j, b, DEFAULT_TOLERANCE, pairs))
    assert got[0] is DegenerateConfiguration and got[2] == (1, 3)
    assert got == error_of(lambda: [
        signed_ratio(tuple(x), tuple(y), tuple(z), pair=p)
        for x, y, z, p in zip(a_i, a_j, b, pairs)
    ])


SEEDS = st.integers(0, 2 ** 32 - 1)


@given(SEEDS, st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_batched_ratios_match_weight_ratios(seed, n):
    rng = np.random.default_rng(seed)
    vertices = tuple(tuple(rng.uniform(-10, 10, size=n)) for _ in range(n + 1))
    diffs = np.asarray(vertices[1:]) - np.asarray(vertices[0])
    assume(np.linalg.svd(diffs, compute_uv=False)[-1] > 1.0)
    weights = tuple(rng.permutation(np.cumprod(rng.uniform(1.2, 1.3, size=n + 1))))
    lambdas = edge_points_from_weights(vertices, weights).validate()
    for (i, j), lam in lambdas.items():
        assert lam == pytest.approx(weights[i - 1] / weights[j - 1], rel=1e-12)


def test_integer_vertices_with_float_edge_points_use_tolerance():
    # ints among floats select the float backend for the whole set, so the
    # verdict is taken with the tolerance, not with exact zero thresholds
    vertices = ((0, 0, 0), (3, 0, 0), (0, 5, 0), (0, 0, 7))
    weights = (1.0, 1.7, 2.9, 4.3)
    floats = tuple(tuple(float(x) for x in v) for v in vertices)
    eps = edge_points_from_weights(floats, weights)
    report = menelaus_products(EdgePointSet(vertices=vertices, edge_points=eps.edge_points))
    assert max(report.triple_residuals.values()) > 0
    assert report.verdict


@pytest.mark.parametrize("error,residual,verdict", [
    (DegenerateConfiguration, 0, True),  # spanning less than a hyperplane is coplanar
    (NonCoplanar, None, False),
    (NotSpacelike, None, False),
])
def test_fit_failure_policy(error, residual, verdict):
    def fit(points, tol):
        raise error("no hyperplane fitted")

    lambdas = {(1, 2): 2.0, (1, 3): 4.0, (2, 3): 2.0}
    report = _menelaus_report(lambdas, [], fit, Tolerance())
    assert report.triple_residuals == {(1, 2, 3): 0.0}
    assert report.hyperplane is None
    assert report.hyperplane_residual == residual
    assert report.verdict is verdict


NONZERO_RATIONALS = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6).filter(bool)


@given(NONZERO_RATIONALS, NONZERO_RATIONALS, NONZERO_RATIONALS, st.booleans())
@settings(max_examples=200)
def test_exact_triple_residual_is_cross_multiplied(a, b, c, holds):
    if holds:
        a = b * c

    def fit(points, tol):
        raise DegenerateConfiguration("no hyperplane fitted")

    lambdas = {(1, 2): b, (1, 3): a, (2, 3): c}
    report = _menelaus_report(lambdas, [], fit, Tolerance(), exact=True)
    got = report.triple_residuals[(1, 2, 3)]
    assert type(got) is Fraction
    assert got == abs((a / b) / c - 1)
    assert report.verdict is (got == 0)
    assert got == 0 or not holds


def test_weight_construction_small_triangle():
    eps = edge_points_from_weights(TRIANGLE, (1.0, 2.0, 4.0))
    assert eps.edge_points[(1, 2)] == pytest.approx((-1.0, 0.0))
    assert eps.edge_points[(1, 3)] == pytest.approx((0.0, -1.0 / 3.0))
    assert eps.edge_points[(2, 3)] == pytest.approx((2.0, -1.0))
    report = menelaus_products(eps)
    assert report.verdict
    assert report.lambdas[(1, 2)] == pytest.approx(0.5)
    assert report.lambdas[(1, 3)] == pytest.approx(0.25)
    assert report.lambdas[(2, 3)] == pytest.approx(0.5)
    assert max(report.triple_residuals.values()) <= 1e-12
    # functional 1 + x + 3y vanishes on all three edge points
    plane = monge_hyperplane_from_weights(TRIANGLE, (1.0, 2.0, 4.0))
    assert plane.normal == pytest.approx((1.0 / 3.0, 1.0))
    assert float(plane.offset) == pytest.approx(-1.0 / 3.0)
    for b in eps.edge_points.values():
        assert plane.distance(b) <= 1e-12


def test_weight_construction_matches_three_circle_centers():
    vertices = ((0.0, 0.0), (6.0, 0.0), (0.0, 6.0))
    eps = edge_points_from_weights(vertices, (3.0, 2.0, 1.0))
    assert eps.edge_points[(1, 2)] == pytest.approx((18.0, 0.0))
    assert eps.edge_points[(1, 3)] == pytest.approx((0.0, 9.0))
    assert eps.edge_points[(2, 3)] == pytest.approx((-6.0, 12.0))
    report = menelaus_products(eps)
    assert report.verdict
    assert report.lambdas[(1, 2)] == pytest.approx(1.5)
    assert report.lambdas[(1, 3)] == pytest.approx(3.0)
    assert report.lambdas[(2, 3)] == pytest.approx(2.0)
    # the fitted hyperplane is x + 2y = 18
    assert report.hyperplane.normal == pytest.approx((0.5, 1.0), abs=1e-10)
    assert float(report.hyperplane.offset) == pytest.approx(9.0, abs=1e-9)


def test_midpoints_fail_despite_unsigned_product_one():
    mids = {
        (1, 2): (0.5, 0.0),
        (1, 3): (0.0, 0.5),
        (2, 3): (0.5, 0.5),
    }
    eps = EdgePointSet(vertices=TRIANGLE, edge_points=mids)
    report = menelaus_products(eps)
    assert not report.verdict
    for lam in report.lambdas.values():
        assert lam == pytest.approx(-1.0)
    # signed triple product is -1, residual 2, even though |lambda| products are 1
    assert report.triple_residuals[(1, 2, 3)] == pytest.approx(2.0)
    assert report.hyperplane_residual > 1e-3


def test_exact_mode_verdicts():
    vertices = tuple(tuple(Fraction(x) for x in v) for v in ((0, 0), (1, 0), (0, 1)))
    eps = edge_points_from_weights(vertices, (Fraction(1), Fraction(2), Fraction(4)))
    report = menelaus_products(eps)
    assert report.verdict
    assert report.lambdas[(1, 2)] == Fraction(1, 2)
    assert report.hyperplane_residual == 0
    assert report.hyperplane.normal == (Fraction(1), Fraction(3))
    assert report.hyperplane.offset == Fraction(-1)
    # perturb one edge point along its line: exact verdict flips
    moved = dict(eps.edge_points)
    moved[(1, 2)] = (moved[(1, 2)][0] + Fraction(1, 100), Fraction(0))
    report2 = menelaus_products(EdgePointSet(vertices=vertices, edge_points=moved))
    assert not report2.verdict
    assert report2.hyperplane is None or report2.hyperplane_residual != 0


def test_weight_validation():
    with pytest.raises(EqualWeights):
        edge_points_from_weights(TRIANGLE, (1.0, 1.0, 2.0))
    with pytest.raises(EqualWeights):
        edge_points_from_weights(TRIANGLE, (1.0, -2.0, 3.0))
    with pytest.raises(DegenerateConfiguration):
        edge_points_from_weights(((0, 0), (1, 1), (2, 2)), (1, 2, 3))
    with pytest.raises(EqualWeights):
        monge_hyperplane_from_weights(TRIANGLE, (2.0, 2.0, 2.0))


def test_edge_point_set_validation():
    eps = EdgePointSet(vertices=TRIANGLE, edge_points={(1, 2): (0.5, 0.0)})
    with pytest.raises(InvalidInput):
        eps.validate()
    bad = EdgePointSet(
        vertices=TRIANGLE,
        edge_points={(1, 2): (2.0, 0.5), (1, 3): (0.0, 2.0), (2, 3): (2.0, -1.0)},
    )
    with pytest.raises(NotOnLine):
        bad.validate()


@given(st.integers(0, 100_000), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_weight_construction_verifies_and_perturbation_flips(seed, n):
    rng = np.random.default_rng(seed)
    while True:
        vertices = tuple(tuple(rng.uniform(-10, 10, size=n)) for _ in range(n + 1))
        diffs = np.asarray(vertices[1:]) - np.asarray(vertices[0])
        if np.linalg.svd(diffs, compute_uv=False)[-1] > 1.0:
            break
    w = [float(rng.uniform(1.0, 1.3))]
    for _ in range(n):
        w.append(w[-1] * float(rng.uniform(1.2, 1.3)))
    order = rng.permutation(n + 1)
    weights = tuple(w[i] for i in order)
    eps = edge_points_from_weights(vertices, weights)
    report = menelaus_products(eps)
    assert report.verdict
    for (i, j), lam in report.lambdas.items():
        assert lam == pytest.approx(weights[i - 1] / weights[j - 1], rel=1e-9)
    ref = monge_hyperplane_from_weights(vertices, weights)
    got = np.asarray(report.hyperplane.normal, dtype=float)
    want = np.asarray(ref.normal, dtype=float)
    want = want / want[np.argmax(np.abs(want))]
    assert np.allclose(got, want, atol=1e-8)
    # move one edge point along its line by 1e-3 of the edge length
    pairs = all_pairs(n + 1)
    i, j = pairs[int(rng.integers(0, len(pairs)))]
    ai = np.asarray(vertices[i - 1])
    aj = np.asarray(vertices[j - 1])
    moved = dict(eps.edge_points)
    moved[(i, j)] = tuple(np.asarray(moved[(i, j)]) + 1e-3 * (aj - ai))
    flipped = menelaus_products(EdgePointSet(vertices=vertices, edge_points=moved))
    assert not flipped.verdict


@given(st.integers(2, 6), SEEDS, st.floats(-3.0, 3.0), st.floats(0.0, 1e3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_similarity_invariance(n, seed, log_scale, shift, positive):
    # x -> s Q x + t keeps every signed ratio and scales every distance by s.
    # The moved coordinates carry rounding eps * (|t| + s R) against the
    # set's own size s R, so the bounds grow with cond = 1 + |t| / (s R).
    # The residual divides the largest deviation by the bounding-box
    # diameter, which a rotation changes, so the deviation is compared.
    rng = np.random.default_rng(seed)
    s = 10.0 ** log_scale
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    t = rng.normal(size=n)
    t *= shift / np.linalg.norm(t)
    spec = GenSpec(dimension=n, seed=seed, kind="edge_points",
                   perturb=None if positive else 1e-2)
    eps = gen_menelaus_case(spec, positive=positive)

    def move(p):
        return tuple((s * (q @ np.asarray(p)) + t).tolist())

    moved = EdgePointSet(vertices=tuple(move(v) for v in eps.vertices),
                         edge_points={k: move(b) for k, b in eps.edge_points.items()})
    before, after = menelaus_products(eps), menelaus_products(moved)
    assert before.verdict == after.verdict == positive
    cond = 1.0 + shift / (s * max(abs(x) for v in eps.vertices for x in v))
    for pair, lam in before.lambdas.items():
        assert after.lambdas[pair] == pytest.approx(lam, rel=1e-12 * cond)

    def deviation(config, report):
        pts = np.asarray([config.edge_points[k] for k in sorted(config.edge_points)])
        return report.hyperplane_residual * kernel._bbox_diameter(pts)

    unit = kernel._bbox_diameter(np.asarray(list(eps.edge_points.values())))
    assert deviation(moved, after) / s == pytest.approx(
        deviation(eps, before), rel=1e-6, abs=1e-12 * cond * unit)
