import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mongekit.shapes as shapes
from mongekit.errors import (
    BackendMixError,
    DegenerateShape,
    InfeasibleRegion,
    InvalidInput,
    NonUniqueHomothety,
    NotHomothetic,
    RatioNotGreaterThanOne,
    UnboundedShape,
)
from mongekit.kernel import DEFAULT_TOLERANCE
from mongekit.menelaus import Homothety
from mongekit.monge import MongeConfig
from mongekit.shapes import (
    Ball,
    HalfspaceSet,
    VertexSet,
    _match_constraints,
    apply_homothety,
    detect_homothety,
    size_measure,
)


def halfplane_family(i):
    # {x >= 0, y >= 1/i, x + y >= 4 - i}
    return HalfspaceSet(constraints=(
        ((1.0, 0.0), 0.0),
        ((0.0, 1.0), 1.0 / i),
        ((1.0, 1.0), 4.0 - i),
    ))


def halfplane_family_exact(i):
    return HalfspaceSet(constraints=(
        ((Fraction(1), Fraction(0)), Fraction(0)),
        ((Fraction(0), Fraction(1)), Fraction(1, i)),
        ((Fraction(1), Fraction(1)), Fraction(4 - i)),
    ))


def test_ball_detection_three_circles():
    balls = [Ball((0.0, 0.0), 3.0), Ball((6.0, 0.0), 2.0), Ball((0.0, 6.0), 1.0)]
    h12 = detect_homothety(balls[1], balls[0])
    assert h12.ratio == pytest.approx(1.5)
    assert h12.center == pytest.approx((18.0, 0.0))
    h13 = detect_homothety(balls[2], balls[0])
    assert h13.ratio == pytest.approx(3.0)
    assert h13.center == pytest.approx((0.0, 9.0))
    h23 = detect_homothety(balls[2], balls[1])
    assert h23.ratio == pytest.approx(2.0)
    assert h23.center == pytest.approx((-6.0, 12.0))


def test_ball_detection_errors_and_exact():
    with pytest.raises(RatioNotGreaterThanOne):
        detect_homothety(Ball((0.0, 0.0), 1.0), Ball((5.0, 0.0), 1.0))
    with pytest.raises(RatioNotGreaterThanOne):
        detect_homothety(Ball((0.0, 0.0), 2.0), Ball((5.0, 0.0), 1.0))
    h = detect_homothety(Ball((Fraction(6), Fraction(0)), Fraction(2)),
                         Ball((Fraction(0), Fraction(0)), Fraction(3)))
    assert h.ratio == Fraction(3, 2)
    assert h.center == (Fraction(18), Fraction(0))


def test_ball_center_collinear_beyond_smaller():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        o1 = rng.uniform(-10, 10, size=n)
        o2 = rng.uniform(-10, 10, size=n)
        r1, r2 = 3.0, 1.2
        h = detect_homothety(Ball(tuple(o2), r2), Ball(tuple(o1), r1))
        c = np.asarray(h.center)
        # c = o1 + t (o2 - o1) with t = r1 / (r1 - r2) > 1
        t = r1 / (r1 - r2)
        assert c == pytest.approx(o1 + t * (o2 - o1), rel=1e-9, abs=1e-9)


def test_vertexset_detection_roundtrip():
    base = VertexSet(vertices=((0.0, 0.0), (4.0, 0.0), (1.0, 3.0), (0.5, 0.5)))
    h = Homothety(center=(2.0, -1.0), ratio=2.5)
    image = apply_homothety(h, base)
    got = detect_homothety(base, image)
    assert got.ratio == pytest.approx(2.5)
    assert got.center == pytest.approx((2.0, -1.0))
    with pytest.raises(RatioNotGreaterThanOne):
        detect_homothety(image, image)
    with pytest.raises(NotHomothetic):
        distorted = VertexSet(vertices=image.vertices[:-1] + ((99.0, 99.0),))
        detect_homothety(base, distorted)


def test_vertexset_detection_exact():
    base = VertexSet(vertices=tuple(
        tuple(Fraction(x) for x in v) for v in ((0, 0), (4, 0), (1, 3))
    ))
    h = Homothety(center=(Fraction(2), Fraction(-1)), ratio=Fraction(5, 2))
    image = apply_homothety(h, base)
    got = detect_homothety(base, image)
    assert got.ratio == Fraction(5, 2)
    assert got.center == (Fraction(2), Fraction(-1))
    # scaling mismatch: exact path reports no rational square
    squished = VertexSet(vertices=tuple(
        (x * Fraction(3, 2), y) for x, y in base.vertices
    ))
    with pytest.raises(NotHomothetic):
        detect_homothety(base, squished)


def test_vertexset_degenerate():
    single = VertexSet(vertices=((1.0, 1.0), (1.0, 1.0)))
    assert len(single.vertices) == 1
    with pytest.raises(DegenerateShape):
        size_measure(single)
    with pytest.raises(DegenerateShape):
        detect_homothety(single, VertexSet(vertices=((3.0, 3.0),)))


def test_halfplane_family_centers():
    c1, c2, c3 = (halfplane_family(i) for i in (1, 2, 3))
    h12 = detect_homothety(c2, c1)
    assert h12.ratio == pytest.approx(4.0 / 3.0)
    assert h12.center == pytest.approx((0.0, -1.0), abs=1e-12)
    h13 = detect_homothety(c3, c1)
    assert h13.ratio == pytest.approx(3.0)
    assert h13.center == pytest.approx((0.0, 0.0), abs=1e-12)
    h23 = detect_homothety(c3, c2)
    assert h23.ratio == pytest.approx(9.0 / 4.0)
    assert h23.center == pytest.approx((0.0, 0.2), abs=1e-12)


def test_halfplane_family_centers_exact():
    c1, c2, c3 = (halfplane_family_exact(i) for i in (1, 2, 3))
    h12 = detect_homothety(c2, c1)
    assert h12.ratio == Fraction(4, 3)
    assert h12.center == (Fraction(0), Fraction(-1))
    h13 = detect_homothety(c3, c1)
    assert h13.ratio == Fraction(3)
    assert h13.center == (Fraction(0), Fraction(0))
    h23 = detect_homothety(c3, c2)
    assert h23.ratio == Fraction(9, 4)
    assert h23.center == (Fraction(0), Fraction(1, 5))


def test_halfspace_nonunique_and_infeasible():
    a = HalfspaceSet(constraints=(((1.0, 0.0), 0.0),))
    b = HalfspaceSet(constraints=(((1.0, 0.0), 1.0),))
    with pytest.raises(NonUniqueHomothety):
        detect_homothety(a, b)
    # construction solves no LP: an empty set is caught on first use
    empty = HalfspaceSet(constraints=(((1.0, 0.0), 1.0), ((-1.0, 0.0), 0.0)))
    with pytest.raises(InfeasibleRegion):
        detect_homothety(empty, halfplane_family(1))
    with pytest.raises(InfeasibleRegion) as caught:
        MongeConfig.build((empty, halfplane_family(1), halfplane_family(2)))
    assert caught.value.pair == (1, 2)


@pytest.mark.parametrize("num", [float, Fraction])
def test_negative_halfspace_ratio_is_not_homothetic(num):
    def triangle(offset):
        # {x >= 0, y >= 0, -x - y >= offset}: empty for offset > 0
        return HalfspaceSet(constraints=tuple(
            (tuple(num(a) for a in normal), num(d))
            for normal, d in (((1, 0), 0), ((0, 1), 0), ((-1, -1), offset))))

    # the solved ratio onto the empty set is -1/3: no homothety, not a smaller target
    with pytest.raises(NotHomothetic, match="no homothety with a positive ratio"):
        detect_homothety(triangle(-3), triangle(1))
    # a ratio in (0, 1) is still a target smaller than the source
    with pytest.raises(RatioNotGreaterThanOne, match="target is smaller than source"):
        detect_homothety(triangle(-3), triangle(-1))


def test_halfspace_apply_roundtrip():
    c2 = halfplane_family(2)
    h = Homothety(center=(0.0, -1.0), ratio=4.0 / 3.0)
    image = apply_homothety(h, c2)
    c1 = halfplane_family(1)
    for got, want in zip(image.constraints, c1.constraints):
        assert got.normal == pytest.approx(want.normal)
        assert float(got.offset) == pytest.approx(float(want.offset))
    with pytest.raises(InvalidInput):
        apply_homothety(Homothety(center=(0.0, 0.0), ratio=-2.0), c2)


def test_size_measures():
    assert size_measure(Ball((0.0, 0.0), 2.5)) == 2.5
    vs = VertexSet(vertices=((0.0, 0.0), (3.0, 0.0), (0.0, 4.0)))
    assert size_measure(vs) == pytest.approx(5.0)
    square = HalfspaceSet(constraints=(
        ((1.0, 0.0), 0.0), ((0.0, 1.0), 0.0), ((-1.0, 0.0), -1.0), ((0.0, -1.0), -1.0),
    ))
    assert size_measure(square) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(UnboundedShape):
        size_measure(halfplane_family(1))


def test_size_measure_exact_vertexset():
    vs = VertexSet(vertices=((Fraction(0), Fraction(0)), (Fraction(3), Fraction(4))))
    assert size_measure(vs) == Fraction(5)


@given(st.integers(0, 100_000))
@settings(max_examples=50, deadline=None)
def test_detection_inverts_application(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    kind = int(rng.integers(0, 2))
    lam = float(rng.uniform(1.15, 4.0))
    center = tuple(rng.uniform(-8, 8, size=n))
    h = Homothety(center=center, ratio=lam)
    if kind == 0:
        src = Ball(tuple(rng.uniform(-10, 10, size=n)), float(rng.uniform(0.5, 3.0)))
    else:
        m = int(rng.integers(n + 1, 8))
        src = VertexSet(vertices=tuple(tuple(rng.uniform(-10, 10, size=n)) for _ in range(m)))
        if size_measure(src) < 0.5:
            return
    image = apply_homothety(h, src)
    got = detect_homothety(src, image)
    assert got.ratio == pytest.approx(lam, rel=1e-9)
    assert np.asarray(got.center) == pytest.approx(np.asarray(center), rel=1e-7, abs=1e-7)


def _greedy_reference(src, dst, tol):
    """Constraint matching one pair at a time: each source constraint takes
    the nearest unused target normal, the first on a tie."""
    used, matched = set(), []
    for h in src.constraints:
        gaps = [(float(np.linalg.norm(np.subtract(h.normal, g.normal))), k)
                for k, g in enumerate(dst.constraints) if k not in used]
        best, k = min(gaps)
        if best > math.sqrt(tol.scaled(1.0)):
            return None
        used.add(k)
        matched.append((h.normal, h.offset, dst.constraints[k].offset))
    return matched


@pytest.mark.parametrize("seed", range(12))
def test_constraint_matching_picks(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    normals = [rng.normal(size=n) for _ in range(6)]
    # near-parallel pairs: the greedy order decides which one each source takes
    normals += [v + rng.normal(scale=1e-11, size=n) for v in normals[:3]]
    src = HalfspaceSet(constraints=tuple((tuple(v), -float(rng.uniform(1, 3))) for v in normals))
    image = apply_homothety(Homothety(center=tuple(rng.uniform(-2, 2, size=n)), ratio=1.7), src)
    dst = HalfspaceSet(constraints=tuple(image.constraints[k]
                                         for k in rng.permutation(len(normals))))
    want = _greedy_reference(src, dst, DEFAULT_TOLERANCE)
    assert want is not None
    assert _match_constraints(src, dst, DEFAULT_TOLERANCE, False) == want


def test_constraint_matching_in_blocks_matches_reference():
    # 200 constraints in 2D take two row blocks.  Source v + d in the second
    # block is nearest to target v + 0.9 d, which v took in the first block,
    # so it must take v - d
    rng = np.random.default_rng(5)
    base = [rng.normal(size=2) for _ in range(100)]
    steps = [rng.normal(scale=1e-8, size=2) for _ in base]
    normals = base + [v + d for v, d in zip(base, steps)]
    targets = [v + 0.9 * d for v, d in zip(base, steps)] + [v - d for v, d in zip(base, steps)]
    src = HalfspaceSet(constraints=tuple((tuple(v), -1.0) for v in normals))
    dst = HalfspaceSet(constraints=tuple(
        (tuple(targets[k]), -float(rng.uniform(1, 3))) for k in rng.permutation(200)))
    assert shapes._MATCH_BLOCK // (200 * 2) < 200
    assert _match_constraints(src, dst, DEFAULT_TOLERANCE, False) == _greedy_reference(
        src, dst, DEFAULT_TOLERANCE)


def test_constraint_matching_memory_stays_small():
    # one m x m x n broadcast peaked near 190 MB at m = 2000; row blocks
    # keep the peak near the size of one block
    m = 2000
    angles = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
    src, dst = (HalfspaceSet(constraints=tuple(
        ((math.cos(t), math.sin(t)), d) for t in angles)) for d in (-1.0, -2.0))
    tracemalloc.start()
    try:
        matched = _match_constraints(src, dst, DEFAULT_TOLERANCE, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matched) == m
    assert peak < 16e6


def test_constraint_matching_tie_takes_first():
    # (1, 0) is equally near both tilted normals; it takes the first unused
    t = 1e-6
    src = HalfspaceSet(constraints=(((1.0, 0.0), 0.0), ((math.cos(t), math.sin(t)), -1.0),
                                    ((0.0, 1.0), -1.0)))
    dst = HalfspaceSet(constraints=(((math.cos(t), math.sin(t)), -2.0),
                                    ((math.cos(t), -math.sin(t)), -3.0), ((0.0, 1.0), -1.0)))
    assert _match_constraints(src, dst, DEFAULT_TOLERANCE, False) == _greedy_reference(
        src, dst, DEFAULT_TOLERANCE)
    offsets = [d_to for _, _, d_to in _match_constraints(src, dst, DEFAULT_TOLERANCE, False)]
    assert offsets == pytest.approx([-2.0, -3.0, -1.0])


def test_backend_flag_per_shape():
    exact = Ball((Fraction(1), 2), Fraction(1, 2))
    floats = Ball((1.0, 2.0), 3.0)
    ints = Ball((0, 0), 5)
    assert exact._exact and ints._exact and not floats._exact
    # flags that disagree fall back to one walk over both shapes
    with pytest.raises(BackendMixError):
        detect_homothety(floats, exact)
    h = detect_homothety(floats, ints)
    assert h.ratio == pytest.approx(5.0 / 3.0) and isinstance(h.ratio, float)
    # the flag is computed once, on first use, and never during construction
    vs = VertexSet(vertices=((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0)))
    assert "_exact" not in vars(vs)
    assert len(vs.vertices) == 3
    detect_homothety(vs, apply_homothety(Homothety(center=(1.0, 1.0), ratio=2.0), vs))
    assert vars(vs)["_exact"] is False


def test_integer_constraints_beside_float_ones_are_float_data():
    # is_exact reads ints among floats as floats, so the whole list is one
    # float set; canonicalising the integer constraints to Fraction would
    # mix backends at the first detection
    small = HalfspaceSet([((1, 0), 0), ((0, 1), 0), ((-1.0, -1.0), -1.0)])
    large = HalfspaceSet([((1, 0), 0), ((0, 1), 0), ((-1.0, -1.0), -2.0)])
    assert not small._exact and not large._exact
    assert all(type(x) is float for h in small.constraints for x in (*h.normal, h.offset))
    h = detect_homothety(small, large)
    assert h.ratio == pytest.approx(2.0)
    assert h.center == pytest.approx((0.0, 0.0), abs=1e-12)


def test_halfspace_set_classified_once(monkeypatch):
    calls = []
    real = shapes.is_exact

    def counting(values):
        calls.append(1)
        return real(values)

    monkeypatch.setattr(shapes, "is_exact", counting)
    hs = halfplane_family_exact(3)
    assert detect_homothety(hs, halfplane_family_exact(2)).ratio == Fraction(9, 4)
    assert len(calls) == 2  # one per set, none per constraint or per detection
    assert vars(hs)["_exact"] is True


def test_halfspace_feasibility_calls_module_linprog(monkeypatch):
    # the LP goes through the module attribute, which perfbench/tracing.py
    # wraps to count shapes.linprog_calls
    calls = []
    real = shapes.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(shapes, "linprog", counting)
    hs = halfplane_family(2)
    assert len(calls) == 0  # construction solves no LP
    for _ in range(2):
        detect_homothety(hs, halfplane_family(1))
    assert len(calls) == 1  # the source's check, once; the targets inherit it
