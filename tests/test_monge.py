import sys
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mongekit.errors import BackendMixError, NotHomothetic, RatioNotGreaterThanOne
from mongekit.kernel import rank
from mongekit.kernel import Tolerance
from mongekit.menelaus import (
    Homothety,
    edge_points_from_weights,
    monge_hyperplane_from_weights,
)
from mongekit import kernel, monge, shapes
from mongekit.monge import MongeConfig, run_monge
from mongekit.shapes import Ball, HalfspaceSet, VertexSet, apply_homothety, detect_homothety

from test_shapes import halfplane_family, halfplane_family_exact


THREE_CIRCLES = (
    Ball((0.0, 0.0), 3.0),
    Ball((6.0, 0.0), 2.0),
    Ball((0.0, 6.0), 1.0),
)


def test_three_circles_report():
    config = MongeConfig.build(THREE_CIRCLES)
    report = run_monge(config)
    assert report.verdict and not report.degenerate
    assert report.centers[(1, 2)] == pytest.approx((18.0, 0.0))
    assert report.centers[(1, 3)] == pytest.approx((0.0, 9.0))
    assert report.centers[(2, 3)] == pytest.approx((-6.0, 12.0))
    assert report.residual <= 1e-12
    # fitted line is x + 2y = 18
    assert report.hyperplane.normal == pytest.approx((0.5, 1.0), abs=1e-10)
    assert float(report.hyperplane.offset) == pytest.approx(9.0, abs=1e-9)
    # two-step ratio composition equals the direct one
    r = report.ratios
    assert r[(1, 2)] * r[(2, 3)] / r[(1, 3)] == pytest.approx(1.0, abs=1e-12)


def test_three_circles_exact():
    balls = tuple(
        Ball(tuple(Fraction(x) for x in b.center), Fraction(b.radius)) for b in THREE_CIRCLES
    )
    report = run_monge(MongeConfig.build(balls))
    assert report.verdict
    assert report.residual == 0
    assert report.centers[(1, 2)] == (Fraction(18), Fraction(0))
    assert report.hyperplane.normal == (Fraction(1), Fraction(2))
    assert report.hyperplane.offset == Fraction(18)


def test_build_sorts_and_rejects_ties():
    config = MongeConfig.build((THREE_CIRCLES[2], THREE_CIRCLES[0], THREE_CIRCLES[1]))
    assert [b.radius for b in config.shapes] == [3.0, 2.0, 1.0]
    with pytest.raises(RatioNotGreaterThanOne) as err:
        MongeConfig.build((Ball((0.0, 0.0), 1.0), Ball((4.0, 0.0), 1.0), Ball((0.0, 4.0), 2.0)))
    assert err.value.pair == (1, 2)
    # a tie between two shapes other than the first names their input positions
    with pytest.raises(RatioNotGreaterThanOne) as err:
        MongeConfig.build((Ball((0.0, 0.0), 2.0), Ball((4.0, 0.0), 1.0), Ball((0.0, 4.0), 1.0)))
    assert err.value.pair == (2, 3)


def test_run_monge_rejects_unordered_config():
    big, mid, small = THREE_CIRCLES
    with pytest.raises(RatioNotGreaterThanOne) as err:
        run_monge(MongeConfig(dimension=2, shapes=(big, small, mid)))
    assert err.value.pair == (2, 3)
    with pytest.raises(RatioNotGreaterThanOne) as err:
        run_monge(MongeConfig(dimension=2, shapes=(big, small, small)))
    assert err.value.pair == (2, 3)


def test_half_plane_family_every_order():
    # unbounded sets: the order comes from the detected ratios alone
    family = [halfplane_family_exact(i) for i in (1, 2, 3)]
    want = run_monge(MongeConfig.build(family))
    assert want.centers == {(1, 2): (0, -1), (1, 3): (0, 0), (2, 3): (0, Fraction(1, 5))}
    assert want.ratios == {(1, 2): Fraction(4, 3), (1, 3): 3, (2, 3): Fraction(9, 4)}
    for order in permutations(range(3)):
        for make in (halfplane_family_exact, halfplane_family):
            got = run_monge(MongeConfig.build([make(i + 1) for i in order]))
            assert got.verdict
            if make is halfplane_family_exact:
                assert got.centers == want.centers and got.ratios == want.ratios
                assert got.hyperplane == want.hyperplane
            else:
                for pair, center in want.centers.items():
                    assert got.centers[pair] == pytest.approx([float(x) for x in center],
                                                              abs=1e-12)
                    assert got.ratios[pair] == pytest.approx(float(want.ratios[pair]))


def _halfspace_family(rng, n):
    """n+1 exact homothets of a random polyhedron (bounded or not) whose
    constraints pin down a unique homothety."""
    while True:
        normals = [tuple(int(x) for x in rng.integers(-3, 4, size=n)) for _ in range(n + 1)]
        inside = [Fraction(int(x)) for x in rng.integers(-5, 6, size=n)]
        offsets = [sum(a * x for a, x in zip(nrm, inside)) - int(rng.integers(1, 4))
                   for nrm in normals]
        rows = [(d,) + nrm for nrm, d in zip(normals, offsets)]
        if (all(any(nrm) for nrm in normals) and len(set(normals)) == len(normals)
                and rank(rows) == n + 1):
            break
    base = HalfspaceSet(constraints=tuple(zip(normals, offsets)))
    return [base] + [
        apply_homothety(Homothety(center=tuple(Fraction(int(x)) for x in
                                               rng.integers(-9, 10, size=n)),
                                  ratio=Fraction(2 * k + 3, 2)), base)
        for k in range(n)
    ]


def _float_family(rng, n, kind):
    ratios = [1.0] + [1.3 * 1.4 ** k for k in range(n)]
    if kind == "balls":
        centers = rng.uniform(-10, 10, size=(n + 1, n))
        return [Ball(tuple(c), 2.0 * r) for c, r in zip(centers, ratios)]
    base = VertexSet(vertices=tuple(tuple(p) for p in rng.uniform(-5, 5, size=(n + 3, n))))
    return [base] + [
        apply_homothety(Homothety(center=tuple(rng.uniform(-8, 8, size=n)), ratio=r), base)
        for r in ratios[1:]
    ]


@given(st.sampled_from(["balls", "vertex_sets", "halfspaces"]), st.integers(2, 3),
       st.integers(0, 10_000), st.permutations(range(4)))
@settings(max_examples=40, deadline=None)
def test_shuffled_family_same_report(kind, n, seed, order):
    rng = np.random.default_rng(seed)
    if kind == "halfspaces":
        family = _halfspace_family(rng, n)
    else:
        family = _float_family(rng, n, kind)
    want = run_monge(MongeConfig.build(family))
    got = run_monge(MongeConfig.build([family[k] for k in order if k <= n]))
    assert want.verdict and got.verdict
    assert got.centers == want.centers
    assert got.ratios == want.ratios
    assert got.hyperplane == want.hyperplane


def test_run_monge_detects_once_per_shape(monkeypatch):
    # n detections order the family and n more map each shape onto the
    # largest; every other pair comes by composition
    calls = {"detect_homothety": 0, "_homothety": 0}

    def counting(name):
        real = getattr(monge, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(monge, name, counting(name))
    family = _float_family(np.random.default_rng(5), 10, "balls")
    report = run_monge(MongeConfig.build(family))
    assert report.verdict and len(report.centers) == 55
    assert calls == {"detect_homothety": 10, "_homothety": 10}


def _float_halfspaces(family):
    return [HalfspaceSet(constraints=tuple(
        (tuple(float(a) for a in c.normal), float(c.offset)) for c in s.constraints))
        for s in family]


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_feasibility_lp_per_family(monkeypatch, n, exact):
    # build pays the LP for input shape 1; each detection from it with a
    # positive ratio carries non-emptiness to its target, so run_monge pays none
    calls = []
    real = shapes.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(shapes, "linprog", counting)
    family = _halfspace_family(np.random.default_rng(n), n)
    if not exact:
        family = _float_halfspaces(family)
    orders = [list(range(n + 1)), list(range(n, -1, -1)),
              list(range(1, n + 1)) + [0], [n // 2] + [k for k in range(n + 1) if k != n // 2]]
    for order in orders:
        # unchecked copies, so that no earlier use has decided non-emptiness
        fresh = [HalfspaceSet(constraints=tuple(
            (c.normal, c.offset) for c in family[k].constraints)) for k in order]
        calls.clear()
        report = run_monge(MongeConfig.build(fresh))
        assert report.verdict
        assert len(calls) == 1, order


@given(st.sampled_from(["balls", "vertex_sets", "halfspaces", "exact_halfspaces"]),
       st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
# float half-space families on which composed and direct centers differed
# by up to 2e-12 relative (bound 1e-12) before the refinement step
@example(kind="halfspaces", n=4, seed=2203)
@example(kind="halfspaces", n=5, seed=24)
@example(kind="halfspaces", n=5, seed=4)
def test_composed_pairs_match_detection(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind.endswith("halfspaces"):
        family = _halfspace_family(rng, n)
        if kind == "halfspaces":
            family = _float_halfspaces(family)
    else:
        family = _float_family(rng, n, kind)
    config = MongeConfig.build(family)
    report = run_monge(config)
    for (i, j), center in report.centers.items():
        h = detect_homothety(config.shapes[j - 1], config.shapes[i - 1])
        if kind == "exact_halfspaces":
            assert center == h.center and report.ratios[(i, j)] == h.ratio
            continue
        want = np.asarray(h.center)
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(np.asarray(center) - want).max()) <= 1e-12 * scale
        assert report.ratios[(i, j)] == pytest.approx(h.ratio, rel=1e-12)


def test_halfplane_family_on_vertical_line():
    config = MongeConfig.build(tuple(halfplane_family(i) for i in (1, 2, 3)))
    report = run_monge(config)
    assert report.verdict and not report.degenerate
    for center in report.centers.values():
        assert center[0] == pytest.approx(0.0, abs=1e-12)
    assert report.ratios[(1, 2)] == pytest.approx(4.0 / 3.0)
    assert report.ratios[(1, 3)] == pytest.approx(3.0)
    assert report.ratios[(2, 3)] == pytest.approx(9.0 / 4.0)
    # the line x = 0: normalized normal (1, 0), offset 0
    assert report.hyperplane.normal == pytest.approx((1.0, 0.0), abs=1e-12)
    assert float(report.hyperplane.offset) == pytest.approx(0.0, abs=1e-12)


def test_halfplane_degenerate_variant_all_centers_coincide():
    def variant(i):
        return HalfspaceSet(constraints=(
            ((1.0, 0.0), 0.0),
            ((0.0, 1.0), 0.0),
            ((1.0, 1.0), 4.0 - i),
        ))

    report = run_monge(MongeConfig.build(tuple(variant(i) for i in (1, 2, 3))))
    assert report.degenerate
    assert report.span_dim == 0
    assert report.verdict
    assert report.residual == 0.0  # one point: its spread is rounding only
    for center in report.centers.values():
        assert center == pytest.approx((0.0, 0.0), abs=1e-12)
    assert report.hyperplane is not None


def test_degenerate_residual_does_not_depend_on_scale():
    # collinear ball centers put the homothety centers on one line in E^3,
    # and the residual of the plane through it is rounding
    direction = np.array([0.3, 0.7, 0.1])

    def report(scale):
        balls = [Ball(tuple(scale * (0.1 + t * direction)), scale * r)
                 for t, r in ((0.0, 3.0), (1.3, 2.0), (2.9, 1.1), (4.1, 0.7))]
        return run_monge(MongeConfig.build(balls))

    base = report(1.0)
    assert base.degenerate and base.span_dim == 1 and base.verdict
    assert 0.0 < base.residual < 1e-15
    for scale in (1e-3, 1e3):
        scaled = report(scale)
        assert (scaled.degenerate, scaled.span_dim, scaled.verdict) == (True, 1, True)
        assert scaled.residual == pytest.approx(base.residual, abs=1e-15)
    # a power of two scales every rounding exactly
    assert report(2.0 ** -10).residual == report(2.0 ** 10).residual == base.residual


@pytest.mark.parametrize("num", [float, Fraction])
def test_degenerate_family_one_backend_decision_one_factorisation(monkeypatch, num):
    # collinear ball centers in E^3: the homothety centers span a line, and
    # the fit that found that span also gives the plane through it
    balls = [Ball((num(t), num(2 * t), num(-t)), num(r))
             for t, r in ((0, 6), (1, 4), (3, 3), (4, 1))]
    config = MongeConfig.build(balls)
    calls = {"is_exact": 0, "svd": 0}
    real_is_exact, real_svd = kernel.is_exact, np.linalg.svd

    def counting_is_exact(values):
        calls["is_exact"] += 1
        return real_is_exact(values)

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return real_svd(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("mongekit") and \
                getattr(module, "is_exact", None) is real_is_exact:
            monkeypatch.setattr(module, "is_exact", counting_is_exact)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    report = run_monge(config)
    assert (report.verdict, report.degenerate, report.span_dim) == (True, True, 1)
    assert calls == {"is_exact": 0, "svd": 0 if num is Fraction else 1}
    if num is Fraction:
        assert all(report.hyperplane.evaluate(c) == 0 for c in report.centers.values())


def test_mixed_backend_family_rejected():
    # int data pair with either backend, so the maps onto an int shape carry a
    # Fraction ratio beside a float one
    family = [Ball((0, 0), 3), Ball((Fraction(6), Fraction(0)), Fraction(2)),
              Ball((0.0, 6.0), 1.0)]
    with pytest.raises(BackendMixError):
        run_monge(MongeConfig.build(family))


def test_halfplane_exact_pipeline():
    report = run_monge(MongeConfig.build(tuple(halfplane_family_exact(i) for i in (1, 2, 3))))
    assert report.verdict
    assert report.residual == 0
    assert report.centers[(1, 2)] == (Fraction(0), Fraction(-1))
    assert report.centers[(1, 3)] == (Fraction(0), Fraction(0))
    assert report.centers[(2, 3)] == (Fraction(0), Fraction(1, 5))
    assert report.ratios[(2, 3)] == Fraction(9, 4)
    # x = 0 in primitive integer form
    assert report.hyperplane.normal == (Fraction(1), Fraction(0))
    assert report.hyperplane.offset == Fraction(0)


def test_ball_hyperplane_matches_radius_weight_functional():
    rng = np.random.default_rng(42)
    for n in (2, 3, 4):
        centers = rng.uniform(-10, 10, size=(n + 1, n))
        while np.linalg.svd(centers[1:] - centers[0], compute_uv=False)[-1] < 1.0:
            centers = rng.uniform(-10, 10, size=(n + 1, n))
        radii = [4.0 * 1.5 ** (n - k) for k in range(n + 1)]
        balls = tuple(Ball(tuple(c), r) for c, r in zip(centers, radii))
        report = run_monge(MongeConfig.build(balls))
        assert report.verdict
        oracle = monge_hyperplane_from_weights([tuple(c) for c in centers], radii)
        assert np.asarray(report.hyperplane.normal) == pytest.approx(
            np.asarray(oracle.normal), abs=1e-8
        )
        assert float(report.hyperplane.offset) == pytest.approx(float(oracle.offset), abs=1e-7)
        # centers equal the weight-construction edge points
        eps = edge_points_from_weights([tuple(c) for c in centers], radii)
        for pair, b in eps.edge_points.items():
            assert report.centers[pair] == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_vertexset_family_pipeline():
    rng = np.random.default_rng(3)
    base = VertexSet(vertices=tuple(tuple(rng.uniform(-5, 5, size=3)) for _ in range(6)))
    shapes = [base]
    lam = 1.0
    for k in range(3):
        lam *= 1.6
        h = Homothety(center=tuple(rng.uniform(-8, 8, size=3)), ratio=lam)
        shapes.append(apply_homothety(h, base))
    report = run_monge(MongeConfig.build(tuple(shapes)))
    assert report.verdict
    r = report.ratios
    for i, j, k in combinations(range(1, 5), 3):
        assert r[(i, j)] * r[(j, k)] / r[(i, k)] == pytest.approx(1.0, abs=1e-9)


def test_non_homothetic_family_raises_with_pair():
    bad = (
        Ball((0.0, 0.0), 3.0),
        Ball((6.0, 0.0), 2.0),
        VertexSet(vertices=((0.0, 6.0), (1.0, 6.0))),
    )
    with pytest.raises(Exception):
        MongeConfig.build(bad)
    vs = [
        VertexSet(vertices=((0.0, 0.0), (4.0, 0.0), (0.0, 4.0))),
        VertexSet(vertices=((10.0, 0.0), (12.0, 0.0), (10.0, 2.0))),
        VertexSet(vertices=((0.0, 10.0), (1.0, 10.0), (0.0, 11.5))),
    ]
    with pytest.raises(NotHomothetic) as err:
        run_monge(MongeConfig.build(tuple(vs)))
    assert err.value.pair is not None


@pytest.fixture(scope="module")
def big_vertex_family():
    rng = np.random.default_rng(11)
    base = VertexSet(vertices=tuple(map(tuple, rng.uniform(-10, 10, size=(100_000, 2)).tolist())))
    return [
        base,
        apply_homothety(Homothety(center=(3.0, -2.0), ratio=1.7), base),
        apply_homothety(Homothety(center=(-5.0, 4.0), ratio=2.9), base),
    ]


def test_large_vertex_sets_verify(big_vertex_family):
    family = big_vertex_family
    report = run_monge(MongeConfig.build([family[1], family[2], family[0]]))
    assert report.verdict
    assert report.ratios[(1, 2)] == pytest.approx(2.9 / 1.7, rel=1e-12)
    assert report.centers[(2, 3)] == pytest.approx((3.0, -2.0), abs=1e-9)


def test_moved_vertex_is_not_homothetic(big_vertex_family):
    family = big_vertex_family
    moved = list(family[2].vertices)
    moved[17] = (moved[17][0] + 1e-3, moved[17][1])
    with pytest.raises(NotHomothetic) as err:
        MongeConfig.build([family[0], family[1], VertexSet(vertices=tuple(moved))])
    assert err.value.pair == (1, 3)
