import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mongekit.errors import (
    AntipodalPoints,
    ArcOrderViolation,
    CoincidesWithVertex,
    DegenerateConfiguration,
    DimensionMismatch,
    EqualWeights,
    GeometryError,
    InvalidInput,
    NotOnLine,
    NotTimelike,
)
from mongekit.generators import GenSpec, gen_menelaus_case
from mongekit.kernel import DEFAULT_TOLERANCE
from mongekit.noneuclid import (
    HYPERBOLIC,
    SPHERICAL,
    XnConfig,
    _lorentz_dot,
    _surface_points,
    _two_column_lstsq,
    _xn_ratios,
    arc_contains,
    geodesic_distance,
    hyperboloid_point,
    sphere_point,
    verify_prop2,
    xn_edge_points_from_weights,
    xn_homothety_image,
    xn_hyperplane_fit,
    xn_independent,
    xn_lambda,
)

E1 = sphere_point((1.0, 0.0, 0.0))
E2 = sphere_point((0.0, 1.0, 0.0))
E3 = sphere_point((0.0, 0.0, 1.0))


def h2_point(t, axis=0):
    coords = [math.cosh(t), 0.0, 0.0]
    coords[1 + axis] = math.sinh(t)
    return hyperboloid_point(coords)


def random_unit(rng, dim=3):
    while True:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def sphere_triple(rng):
    """a_i, a_j and an edge point beyond a_j on one great circle."""
    a = random_unit(rng)
    w = random_unit(rng)
    u = w - (w @ a) * a
    while np.linalg.norm(u) < 1e-3:
        w = random_unit(rng)
        u = w - (w @ a) * a
    u = u / np.linalg.norm(u)
    d = rng.uniform(0.5, 1.8)
    t = d + rng.uniform(0.2, min(1.0, math.pi - d - 0.15))
    a_j = math.cos(d) * a + math.sin(d) * u
    b = math.cos(t) * a + math.sin(t) * u
    return sphere_point(a), sphere_point(a_j), sphere_point(b), d, t


def lorentz(u, v):
    return -u[0] * v[0] + u[1:] @ v[1:]


def hyperbolic_triple(rng):
    r = rng.uniform(0.0, 1.0)
    phi = rng.uniform(0.0, 2 * math.pi)
    p = np.array([math.cosh(r), math.sinh(r) * math.cos(phi), math.sinh(r) * math.sin(phi)])
    w = rng.normal(size=3)
    u = w + lorentz(w, p) * p
    u = u / math.sqrt(lorentz(u, u))
    d = rng.uniform(0.4, 1.5)
    t = d + rng.uniform(0.2, 1.2)
    a_j = math.cosh(d) * p + math.sinh(d) * u
    b = math.cosh(t) * p + math.sinh(t) * u
    return hyperboloid_point(p), hyperboloid_point(a_j), hyperboloid_point(b), d, t


def test_point_validation():
    p = sphere_point((1.0 + 1e-9, 0.0, 0.0))
    assert math.isclose(np.linalg.norm(p.as_array()), 1.0, abs_tol=1e-15)
    with pytest.raises(InvalidInput):
        sphere_point((1.0, 0.0, 0.5))
    q = hyperboloid_point((math.cosh(0.7), math.sinh(0.7), 0.0))
    assert math.isclose(lorentz(q.as_array(), q.as_array()), -1.0, abs_tol=1e-12)
    with pytest.raises(NotTimelike):
        hyperboloid_point((0.5, 2.0, 0.0))
    with pytest.raises(InvalidInput):
        hyperboloid_point((0.5, 0.1, 0.0))
    with pytest.raises(InvalidInput):
        hyperboloid_point((-math.cosh(0.7), math.sinh(0.7), 0.0))


def test_geodesic_distance():
    assert geodesic_distance(E1, E2) == pytest.approx(math.pi / 2)
    mid = sphere_point(((E1.as_array() + E2.as_array()) / math.sqrt(2)))
    assert geodesic_distance(E1, mid) == pytest.approx(math.pi / 4)
    assert geodesic_distance(h2_point(0.0), h2_point(1.3)) == pytest.approx(1.3, abs=1e-12)
    # mixing the two spaces is refused
    with pytest.raises(DimensionMismatch):
        geodesic_distance(E1, h2_point(0.0, axis=1))


def test_arc_contains():
    mid = sphere_point(((E1.as_array() + E2.as_array()) / math.sqrt(2)))
    far = sphere_point((-1.0, 1.0, 0.0) / np.sqrt(2))
    assert arc_contains(E1, E2, mid)
    assert arc_contains(E1, far, E2)
    assert not arc_contains(E1, mid, E2)
    antipode = sphere_point((-1.0, 0.0, 0.0))
    with pytest.raises(AntipodalPoints):
        arc_contains(E1, antipode, E2)
    assert arc_contains(h2_point(0.0), h2_point(2.0), h2_point(0.5))
    assert not arc_contains(h2_point(0.5), h2_point(2.0), h2_point(0.0))


def test_homothety_image_sphere():
    p = sphere_point(((E1.as_array() + E2.as_array()) / math.sqrt(2)))
    img = xn_homothety_image(E1, p, 2.0)
    np.testing.assert_allclose(img.as_array(), (0.0, 1.0, 0.0), atol=1e-12)
    with pytest.raises(AntipodalPoints):
        xn_homothety_image(E1, p, 4.2)
    with pytest.raises(CoincidesWithVertex):
        xn_homothety_image(E1, E1, 2.0)
    with pytest.raises(InvalidInput):
        xn_homothety_image(E1, p, -1.0)


def test_homothety_image_hyperbolic():
    img = xn_homothety_image(h2_point(0.0), h2_point(1.0), 3.0)
    np.testing.assert_allclose(
        img.as_array(), (math.cosh(3.0), math.sinh(3.0), 0.0), atol=1e-9
    )


def test_lambda_sphere_examples():
    far = sphere_point((-1.0, 1.0, 0.0) / np.sqrt(2))
    assert xn_lambda(E1, E2, far) == pytest.approx(1.0, abs=1e-12)
    b = sphere_point((-2.0, 1.0, 0.0) / np.sqrt(5))
    assert xn_lambda(E1, E2, b) == pytest.approx(0.5, abs=1e-12)


def test_lambda_hyperbolic_example():
    a_i, a_j = h2_point(0.0), h2_point(1.0)
    b = h2_point(2.0)
    lam = xn_lambda(a_i, a_j, b)
    assert lam == pytest.approx(math.sinh(2.0) / math.sinh(1.0), rel=1e-12)
    assert lam == pytest.approx(3.0861612696304874, rel=1e-10)


def test_lambda_errors():
    with pytest.raises(CoincidesWithVertex):
        xn_lambda(E1, E2, E2)
    off = sphere_point((0.0, 1.0, 1.0) / np.sqrt(2))
    with pytest.raises(NotOnLine):
        xn_lambda(E1, E2, off)
    between = sphere_point((1.0, 1.0, 0.0) / np.sqrt(2))
    with pytest.raises(ArcOrderViolation) as err:
        xn_lambda(E1, E2, between, pair=(1, 2))
    assert err.value.pair == (1, 2)
    antipode = sphere_point((-1.0, 0.0, 0.0))
    with pytest.raises(AntipodalPoints):
        xn_lambda(E1, antipode, E2)
    # b = -a_j has no a_i component
    with pytest.raises(NotOnLine):
        xn_lambda(E1, E2, sphere_point((0.0, -1.0, 0.0)))
    with pytest.raises(DimensionMismatch) as err:
        xn_lambda(E1, E2, sphere_point((0.0, 0.0, 0.0, 1.0)), pair=(1, 2))
    assert err.value.pair == (1, 2)


def test_weight_construction_sphere_golden():
    config = xn_edge_points_from_weights((E1, E2, E3), (1.0, 2.0, 4.0))
    np.testing.assert_allclose(
        config.edge_points[(1, 2)].as_array(), np.array([-2.0, 1.0, 0.0]) / np.sqrt(5), atol=1e-12
    )
    np.testing.assert_allclose(
        config.edge_points[(1, 3)].as_array(), np.array([-4.0, 0.0, 1.0]) / np.sqrt(17), atol=1e-12
    )
    np.testing.assert_allclose(
        config.edge_points[(2, 3)].as_array(), np.array([0.0, -2.0, 1.0]) / np.sqrt(5), atol=1e-12
    )
    report = verify_prop2(config)
    assert report.verdict
    assert report.lambdas[(1, 2)] == pytest.approx(0.5, abs=1e-12)
    assert report.lambdas[(1, 3)] == pytest.approx(0.25, abs=1e-12)
    assert report.lambdas[(2, 3)] == pytest.approx(0.5, abs=1e-12)
    assert max(report.triple_residuals.values()) <= 1e-12
    # the common section is B(w, x) = 0 with w proportional to the weights
    np.testing.assert_allclose(report.hyperplane.normal, (0.25, 0.5, 1.0), atol=1e-12)
    assert report.hyperplane_residual <= 1e-12


def test_perturbed_sphere_config_fails():
    config = xn_edge_points_from_weights((E1, E2, E3), (1.0, 2.0, 4.0))
    moved = xn_homothety_image(E1, config.edge_points[(1, 2)], 1.02)
    points = dict(config.edge_points)
    points[(1, 2)] = moved
    report = verify_prop2(XnConfig(vertices=config.vertices, edge_points=points))
    assert not report.verdict
    assert max(report.triple_residuals.values()) > 1e-3


def test_weight_construction_hyperbolic():
    vertices = (
        hyperboloid_point((1.0, 0.0, 0.0)),
        hyperboloid_point((math.cosh(0.5), math.sinh(0.5), 0.0)),
        hyperboloid_point((math.cosh(0.5), 0.0, math.sinh(0.5))),
    )
    weights = (1.0, math.exp(-1.0), math.exp(-2.0))
    config = xn_edge_points_from_weights(vertices, weights)
    report = verify_prop2(config)
    assert report.verdict
    assert report.lambdas[(1, 2)] == pytest.approx(math.e, rel=1e-9)
    assert report.lambdas[(1, 3)] == pytest.approx(math.e ** 2, rel=1e-9)
    assert report.lambdas[(2, 3)] == pytest.approx(math.e, rel=1e-9)
    assert report.hyperplane_residual <= 1e-9
    # the fitted section normal must be spacelike
    w = np.asarray(report.hyperplane.normal)
    assert lorentz(w, w) > 0


def test_weight_construction_not_timelike():
    vertices = (
        hyperboloid_point((1.0, 0.0, 0.0)),
        hyperboloid_point((math.cosh(1.0), math.sinh(1.0), 0.0)),
        hyperboloid_point((math.cosh(1.0), 0.0, math.sinh(1.0))),
    )
    # ln(2) < 1 so the (1, 2) combination is not timelike
    with pytest.raises(NotTimelike) as err:
        xn_edge_points_from_weights(vertices, (2.0, 1.0, 0.5))
    assert err.value.pair == (1, 2)


def test_weight_construction_errors():
    with pytest.raises(EqualWeights):
        xn_edge_points_from_weights((E1, E2, E3), (1.0, 1.0, 2.0))
    with pytest.raises(EqualWeights):
        xn_edge_points_from_weights((E1, E2, E3), (1.0, -2.0, 3.0))
    mid = sphere_point(((E1.as_array() + E2.as_array()) / math.sqrt(2)))
    with pytest.raises(DegenerateConfiguration):
        xn_edge_points_from_weights((E1, E2, mid), (1.0, 2.0, 4.0))


def test_hyperplane_fit_validation():
    assert xn_independent((E1, E2, E3))
    mid = sphere_point(((E1.as_array() + E2.as_array()) / math.sqrt(2)))
    assert not xn_independent((E1, E2, mid))
    with pytest.raises(DegenerateConfiguration):
        xn_hyperplane_fit([E1])
    plane, residual = xn_hyperplane_fit([E1, E2])
    assert residual <= 1e-12
    np.testing.assert_allclose(plane.normal, (0.0, 0.0, 1.0), atol=1e-12)


@pytest.mark.parametrize("geometry", [SPHERICAL, HYPERBOLIC])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_one_factorisation_per_section_fit(monkeypatch, geometry, n):
    config = gen_menelaus_case(GenSpec(dimension=n, seed=n, kind="edge_points", geometry=geometry))
    points = [config.edge_points[k] for k in sorted(config.edge_points)]
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    plane, residual = xn_hyperplane_fit(points)
    assert len(calls) == 1
    assert residual <= 1e-12
    assert max(abs(x) for x in plane.normal) == 1.0


def test_config_validation():
    config = xn_edge_points_from_weights((E1, E2, E3), (1.0, 2.0, 4.0))
    bad = XnConfig(vertices=config.vertices, edge_points={(1, 2): config.edge_points[(1, 2)]})
    with pytest.raises(InvalidInput):
        bad.validate()
    short = XnConfig(vertices=config.vertices[:2], edge_points=config.edge_points)
    with pytest.raises(DimensionMismatch):
        short.validate()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_span_and_distance_ratios_agree(seed):
    # the span-based xn_lambda agrees with the distance closed forms for
    # a_j at distance d and b at distance t > d from a_i along one geodesic
    rng = np.random.default_rng(seed)
    a_i, a_j, b, d, t = sphere_triple(rng)
    assert xn_lambda(a_i, a_j, b) == pytest.approx(math.sin(t) / math.sin(t - d), rel=1e-9)
    a_i, a_j, b, d, t = hyperbolic_triple(rng)
    assert xn_lambda(a_i, a_j, b) == pytest.approx(math.sinh(t) / math.sinh(t - d), rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_rotation_invariance(seed):
    rng = np.random.default_rng(seed)
    while True:
        pts = [random_unit(rng) for _ in range(3)]
        dists = [math.acos(np.clip(u @ v, -1, 1)) for u, v in
                 [(pts[0], pts[1]), (pts[0], pts[2]), (pts[1], pts[2])]]
        m = np.stack(pts)
        if min(dists) > 0.5 and max(dists) < 2.2 and np.linalg.svd(m, compute_uv=False)[-1] > 0.2:
            break
    vertices = tuple(sphere_point(p) for p in pts)
    weights = tuple(rng.permutation([1.0, 1.45, 2.0]))
    config = xn_edge_points_from_weights(vertices, weights)
    report = verify_prop2(config)
    assert report.verdict
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = XnConfig(
        vertices=tuple(sphere_point(q @ v.as_array()) for v in config.vertices),
        edge_points={k: sphere_point(q @ b.as_array()) for k, b in config.edge_points.items()},
    )
    rotated_report = verify_prop2(rotated)
    assert rotated_report.verdict
    for key, lam in report.lambdas.items():
        assert rotated_report.lambdas[key] == pytest.approx(lam, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_boost_invariance(seed):
    rng = np.random.default_rng(seed)
    vertices = (
        hyperboloid_point((1.0, 0.0, 0.0)),
        hyperboloid_point((math.cosh(0.5), math.sinh(0.5), 0.0)),
        hyperboloid_point((math.cosh(0.5), 0.0, math.sinh(0.5))),
    )
    weights = (1.0, math.exp(-1.0), math.exp(-2.0))
    config = xn_edge_points_from_weights(vertices, weights)
    report = verify_prop2(config)
    s = rng.uniform(-1.0, 1.0)
    theta = rng.uniform(0.0, 2 * math.pi)
    boost = np.array([
        [math.cosh(s), math.sinh(s), 0.0],
        [math.sinh(s), math.cosh(s), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rot = np.array([
        [1.0, 0.0, 0.0],
        [0.0, math.cos(theta), -math.sin(theta)],
        [0.0, math.sin(theta), math.cos(theta)],
    ])
    m = boost @ rot
    moved = XnConfig(
        vertices=tuple(hyperboloid_point(m @ v.as_array()) for v in config.vertices),
        edge_points={k: hyperboloid_point(m @ b.as_array()) for k, b in config.edge_points.items()},
    )
    moved_report = verify_prop2(moved)
    assert moved_report.verdict == report.verdict
    for key, lam in report.lambdas.items():
        assert moved_report.lambdas[key] == pytest.approx(lam, rel=1e-8)


def error_of(call):
    """(class, message, pair) of the error ``call()`` raises, warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GeometryError) as err:
            call()
    return type(err.value), str(err.value), err.value.pair


def first_pair_error(config):
    """The error xn_lambda raises first over the pairs in sorted order."""
    def each_pair():
        for (i, j), b in sorted(config.edge_points.items()):
            xn_lambda(config.vertices[i - 1], config.vertices[j - 1], b, pair=(i, j))
    return error_of(each_pair)


S3 = tuple(sphere_point(row) for row in np.eye(4))
H3 = tuple(hyperboloid_point(row) for row in (
    (1.0, 0.0, 0.0, 0.0),
    (math.cosh(0.5), math.sinh(0.5), 0.0, 0.0),
    (math.cosh(0.5), 0.0, math.sinh(0.5), 0.0),
    (math.cosh(0.5), 0.0, 0.0, math.sinh(0.5)),
))


def faulty_point(config, pair, fault):
    i, j = pair
    u, v = config.vertices[i - 1].as_array(), config.vertices[j - 1].as_array()
    b = config.edge_points[pair].as_array()
    make = sphere_point if config.geometry == SPHERICAL else hyperboloid_point
    if fault == "vertex":
        return config.vertices[j - 1]  # b = a_j: the ratio divides by |a_j ^ b| = 0
    if fault == "antipode":
        return sphere_point(-u)  # reaches the antipode of a_i and breaks arc order
    if fault == "direction":
        return sphere_point(-v)
    if fault == "between":
        w = u + v
    else:  # "off": lift b out of the plane of a_i and a_j
        w = b + 0.1 * np.linalg.svd(np.stack([u, v]))[2][-1]
    scale = np.linalg.norm(w) if config.geometry == SPHERICAL else math.sqrt(-lorentz(w, w))
    return make(w / scale)


@pytest.mark.parametrize("vertices,faults,expected", [
    (S3, {(1, 3): "antipode", (2, 4): "off"}, (AntipodalPoints, (1, 3), "arc endpoints")),
    (S3, {(1, 2): "between", (1, 3): "vertex"}, (ArcOrderViolation, (1, 2), "not on the arc")),
    (S3, {(1, 4): "direction", (3, 4): "vertex"}, (NotOnLine, (1, 4), "direction of a vertex")),
    (S3, {(2, 3): "off", (2, 4): "antipode"}, (NotOnLine, (2, 3), "off the vertex line")),
    (S3, {(1, 2): "vertex", (3, 4): "between"}, (CoincidesWithVertex, (1, 2), "coincides with a vertex")),
    (H3, {(1, 3): "between", (2, 3): "off"}, (ArcOrderViolation, (1, 3), "not on the arc")),
    (H3, {(1, 4): "off", (2, 4): "vertex"}, (NotOnLine, (1, 4), "off the vertex line")),
])
def test_set_errors_match_first_pair_error(vertices, faults, expected):
    weights = (1.0, 0.5, 0.25, 0.125) if vertices is S3 else tuple(math.exp(-k) for k in range(4))
    config = xn_edge_points_from_weights(vertices, weights)
    points = dict(config.edge_points)
    for pair, fault in faults.items():
        points[pair] = faulty_point(config, pair, fault)
    bad = XnConfig(vertices=vertices, edge_points=points)
    got = error_of(bad.validate)
    assert got == first_pair_error(bad)
    error, pair, words = expected
    assert (got[0], got[2]) == (error, pair) and words in got[1]
    assert error_of(lambda: verify_prop2(bad)) == got


def test_antipode_of_second_vertex_is_not_on_line():
    """b = -a_j is a vertex direction whatever the rounding of alpha."""
    message = "edge point is in the direction of a vertex"
    rng = np.random.default_rng(8)
    a_i, a_j, pairs = [], [], []
    for k in range(200):
        a_i.append(random_unit(rng, 9))
        a_j.append(random_unit(rng, 9))
        pairs.append((1, k + 2))
        got = error_of(lambda: xn_lambda(sphere_point(a_i[-1]), sphere_point(a_j[-1]),
                                         sphere_point(-a_j[-1]), pair=pairs[-1]))
        assert got == (NotOnLine, f"pair {pairs[-1]}: {message}", pairs[-1])
    u, v = np.asarray(a_i), np.asarray(a_j)
    for k in (0, 100, 199):
        got = error_of(lambda: _xn_ratios(SPHERICAL, u[k:], v[k:], -v[k:],
                                          DEFAULT_TOLERANCE, pairs[k:]))
        assert got == (NotOnLine, f"pair {pairs[k]}: {message}", pairs[k])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([SPHERICAL, HYPERBOLIC]), st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
def test_batched_ratios_match_distance_ratios(geometry, n, seed):
    # a_j lies on the arc from a_i to b, so with t = |a_i b| and d = |a_i a_j|
    # the ratio is sin t / sin(t - d) (sinh on H^n) and t - d = |a_j b|
    config = gen_menelaus_case(GenSpec(dimension=n, seed=seed, kind="edge_points", geometry=geometry))
    f = math.sin if geometry == SPHERICAL else math.sinh
    for (i, j), lam in config.validate().items():
        b = config.edge_points[(i, j)]
        t, rest = geodesic_distance(config.vertices[i - 1], b), geodesic_distance(config.vertices[j - 1], b)
        assert lam == pytest.approx(f(t) / f(rest), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_two_column_qr_matches_lstsq(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 10))
    u, v = rng.normal(size=(2, d))
    m = np.stack([u, v], axis=1)
    assume(np.linalg.svd(m, compute_uv=False)[-1] > 0.1)
    x = rng.normal() * u + rng.normal() * v + rng.normal(size=d) * 10.0 ** rng.uniform(-12, 0)
    alpha, beta, residual = _two_column_lstsq(u[None], v[None], x[None])
    sol = np.linalg.lstsq(m, x, rcond=None)[0]
    scale = 1e-12 * (1.0 + np.linalg.norm(sol))
    assert alpha[0] == pytest.approx(sol[0], abs=scale)
    assert beta[0] == pytest.approx(sol[1], abs=scale)
    assert residual[0] == pytest.approx(np.linalg.norm(m @ sol - x), abs=scale)


@pytest.mark.parametrize("second,expected", [
    ((E1, E2, sphere_point((0.0, 1.0, 1.0) / np.sqrt(2))), NotOnLine),
    ((E1, sphere_point((-1.0, 0.0, 0.0)), E2), AntipodalPoints),
])
def test_batch_errors_match_per_pair_calls(second, expected):
    # antipodal vertices cannot pass validate, so the batch is driven directly;
    # their row makes the decomposition divide by zero, which must not warn
    far = sphere_point((-1.0, 1.0, 0.0) / np.sqrt(2))
    rows = [(E1, E2, far), second, (E1, sphere_point((-1.0, 0.0, 0.0)), E3)]
    pairs = [(1, 2), (1, 3), (2, 3)]
    u, v, x = (np.stack([r[k].as_array() for r in rows]) for k in range(3))
    got = error_of(lambda: _xn_ratios(SPHERICAL, u, v, x, DEFAULT_TOLERANCE, pairs))
    assert (got[0], got[2]) == (expected, (1, 3))
    assert got == error_of(lambda: [xn_lambda(*r, pair=p) for r, p in zip(rows, pairs)])


def _surface_rows(geometry, count, seed):
    """Coordinate rows of S^2 or H^2 points, each off the surface by up to 1e-7."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(count):
        u = rng.normal(size=3 if geometry == SPHERICAL else 2)
        if geometry == SPHERICAL:
            v = u / np.linalg.norm(u)
        else:
            v = np.concatenate([[math.sqrt(1.0 + u @ u)], u])
        rows.append(tuple((v * (1.0 + 1e-7 * k / count)).tolist()))
    return rows


@pytest.mark.parametrize("geometry", [SPHERICAL, HYPERBOLIC])
def test_one_point_is_its_row_of_the_batch(geometry):
    rows = _surface_rows(geometry, 60, seed=4)
    batch = [p.coords for p in _surface_points(geometry, rows)]
    one = sphere_point if geometry == SPHERICAL else hyperboloid_point
    assert [one(r).coords for r in rows] == batch
    # and bit for bit the per-point formulas: np.linalg.norm, the Lorentz form
    for r, coords in zip(rows, batch):
        v = np.asarray(r)
        scale = np.linalg.norm(v) if geometry == SPHERICAL else math.sqrt(-_lorentz_dot(v, v))
        assert tuple((v / scale).tolist()) == coords


X0 = (math.cosh(0.7), math.sinh(0.7), 0.0)
SURFACE_FAULTS = [
    (SPHERICAL, (1.01, 0.0, 0.0), InvalidInput, "norm 1.010000000 is too far from 1 for a sphere point"),
    (HYPERBOLIC, (0.5, 2.0, 0.0), NotTimelike, "coordinates are not timelike"),
    (HYPERBOLIC, tuple(1.01 * x for x in X0), InvalidInput,
     "Lorentz norm -1.020100000 is too far from -1 for a hyperboloid point"),
    (HYPERBOLIC, (-X0[0], X0[1], 0.0), InvalidInput,
     "hyperboloid points must have positive first coordinate"),
]


@pytest.mark.parametrize("geometry,bad,error,message", SURFACE_FAULTS)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_batch_raises_for_its_bad_point(geometry, bad, error, message, where):
    rows = _surface_rows(geometry, 9, seed=5)
    rows[{"first": 0, "middle": 4, "last": 8}[where]] = bad
    with pytest.raises(error) as err:
        _surface_points(geometry, rows)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("order", ["x0 first", "timelike first"])
def test_batch_raises_for_the_first_bad_point_in_order(order):
    """Each row's checks run in order, and the first bad row decides: an
    earlier x_0 < 0 beats a later non-timelike row, and the reverse."""
    rows = _surface_rows(HYPERBOLIC, 9, seed=6)
    negative, spacelike = (-X0[0], X0[1], 0.0), (0.5, 2.0, 0.0)
    if order == "x0 first":
        rows[2], rows[6] = negative, spacelike
        error, message = InvalidInput, "hyperboloid points must have positive first coordinate"
    else:
        rows[2], rows[6] = spacelike, negative
        error, message = NotTimelike, "coordinates are not timelike"
    with pytest.raises(error, match=f"^{message}$"):
        _surface_points(HYPERBOLIC, rows)
