import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongekit.errors import (
    BackendMixError,
    DegenerateConfiguration,
    DimensionMismatch,
    InvalidInput,
    NonCoplanar,
)
from mongekit.kernel import (
    Hyperplane,
    Tolerance,
    _exact_solve,
    _integer_echelon,
    _null_vector,
    affine_span_dim,
    affinely_independent,
    fit_hyperplane,
    is_exact,
    rank,
)


def test_rank_examples():
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank(np.eye(3).tolist()) == 3
    # homogeneous rows of three collinear points
    assert rank([(18, 0, 1), (0, 9, 1), (-6, 12, 1)]) == 2
    assert rank([]) == 0
    # full rank, but sigma_1 overflows: not rank 0
    with pytest.raises(InvalidInput):
        rank([[1.5e308, 1.5e308], [1.5e308, -1.5e308]])


def test_rank_exact_backend():
    rows = [
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(4, 3)),
    ]
    assert rank(rows) == 1
    assert rank([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]) == 2


def test_backend_mix_rejected():
    with pytest.raises(BackendMixError):
        rank([(Fraction(1, 2), 0.5), (1.0, 2.0)])


def test_is_exact_classification():
    assert is_exact([(1, 2), (3, 4)])
    assert is_exact([(Fraction(1, 2),)])
    assert not is_exact([(0.5, 1)])
    with pytest.raises(InvalidInput):
        is_exact([(float("nan"),)])


@pytest.mark.parametrize("values, expected", [
    ([1.0, 2.5], False),
    ([1, 2], True),
    ([True, False], True),
    ([np.float64(1.5)], False),
    ([np.int64(3), 4], True),
    ([np.array([1, 2])], True),
    ([np.array([[1.0, 2.0], [3.0, 4.0]])], False),
    (np.array([1.0, 2.0]), False),
    ([], True),
    ([(0.5, 1), (2, 3.0)], False),                 # ints among floats
    ([[[[Fraction(1, 3)]], (2, [3, (Fraction(-1, 2),)])]], True),
    ([[[[0.25]], (2, [3, (1,)])]], False),
    ([(float("nan"),)], InvalidInput),
    ([Fraction(1, 2), float("inf")], InvalidInput),
    ([float("-inf"), Fraction(1, 2)], InvalidInput),
    ([np.float64("inf")], InvalidInput),
    ([Fraction(1, 2), 0.5], BackendMixError),
    ([[1, 2.0], [[Fraction(1, 2)]]], BackendMixError),
    ([(1.0, "2")], InvalidInput),
])
def test_is_exact_table(values, expected):
    if isinstance(expected, bool):
        assert is_exact(values) is expected
    else:
        with pytest.raises(expected):
            is_exact(values)


@given(
    st.lists(
        st.lists(st.integers(-50, 50), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    ),
    st.permutations(range(5)),
    st.integers(1, 7),
)
def test_rank_invariant_under_permutation_and_scaling(rows, perm, scale):
    base = rank(rows)
    order = [i for i in perm if i < len(rows)]
    shuffled = [rows[i] for i in order] + [rows[i] for i in range(len(rows)) if i not in order]
    assert rank(shuffled) == base
    scaled = [[scale * x for x in r] for r in rows]
    assert rank(scaled) == base


@given(
    st.lists(
        st.lists(
            st.fractions(min_value=-100, max_value=100, max_denominator=40),
            min_size=3,
            max_size=3,
        ),
        min_size=2,
        max_size=4,
    ),
    st.booleans(),
)
@settings(max_examples=60)
def test_rank_backends_agree_on_rationals(rows, make_dependent):
    if make_dependent and len(rows) >= 2:
        rows = rows[:-1] + [[2 * a - b for a, b in zip(rows[0], rows[1])]]
    exact = rank(rows)
    approx = rank([[float(x) for x in r] for r in rows])
    assert exact == approx


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def rank_r_matrices(draw):
    """(rows, r): an m x k rational matrix B @ C whose rank is exactly r.

    B = P [L; R] and C = [U | S] Q with L unit lower and U unit upper
    triangular (r x r), P and Q permutations: the r x r block L @ U is
    invertible, so the rank is r, and every entry is a dense rational.
    """
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(1, min(m, k)))

    def entries(count):
        return draw(st.lists(RATIONALS, min_size=count, max_size=count))

    def triangle(keep):
        """Unit-diagonal r x r matrix with drawn entries where keep(i, j)."""
        return [[v if keep(i, j) else Fraction(int(i == j)) for j, v in enumerate(entries(r))]
                for i in range(r)]

    low, up = triangle(lambda i, j: j < i), triangle(lambda i, j: j > i)
    b = draw(st.permutations(low + [entries(r) for _ in range(m - r)]))
    c_cols = draw(st.permutations(list(zip(*[u + entries(k - r) for u in up]))))
    c = [list(row) for row in zip(*c_cols)]
    rows = [[sum(bi[t] * c[t][j] for t in range(r)) for j in range(k)] for bi in b]
    return rows, r


def _times(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


@given(rank_r_matrices())
@settings(max_examples=50)
def test_exact_rank_of_product(case):
    rows, r = case
    assert rank(rows) == r


@given(rank_r_matrices())
@settings(max_examples=50)
def test_exact_nullspace_basis(case):
    rows, r = case
    ncols = len(rows[0])
    echelon, pivots = _integer_echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = [_null_vector(echelon, pivots, c) for c in free]
    assert len(basis) == ncols - r
    for x in basis:
        assert _times(rows, x) == [0] * len(rows)
    # as from the reduced echelon form: nonzero in its own free column, 0 in
    # the others, where column c is free when it adds nothing to the rank
    assert free == [c for c in range(ncols)
                    if rank([row[:c + 1] for row in rows]) == rank([row[:c] for row in rows])]
    assert [[x[c] != 0 for c in free] for x in basis] == [
        [i == j for j in range(len(free))] for i in range(len(free))
    ]


@given(rank_r_matrices(), st.data())
@settings(max_examples=50)
def test_exact_solve_consistent_and_inconsistent(case, data):
    rows, r = case
    ncols = len(rows[0])
    x0 = data.draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
    rhs = _times(rows, x0)
    if r < ncols:
        with pytest.raises(DegenerateConfiguration):
            _exact_solve(rows, rhs)
    else:
        assert _exact_solve(rows, rhs) == tuple(x0)
    # y @ rows = 0 for y in the left null space; adding y to rhs breaks consistency
    echelon, pivots = _integer_echelon([list(col) for col in zip(*rows)])
    free = [c for c in range(len(rows)) if c not in pivots]
    if free:
        left = _null_vector(echelon, pivots, free[0])
        assert _exact_solve(rows, [a + b for a, b in zip(rhs, left)]) is None


@given(st.integers(2, 5), st.data())
@settings(max_examples=60)
def test_exact_fit_is_permutation_invariant(n, data):
    normal = data.draw(st.lists(RATIONALS, min_size=n, max_size=n).filter(lambda v: v[0] != 0))
    offset = data.draw(RATIONALS)
    pts = []
    for _ in range(data.draw(st.integers(n, n + 3))):
        rest = data.draw(st.lists(RATIONALS, min_size=n - 1, max_size=n - 1))
        head = (offset - sum(a * x for a, x in zip(normal[1:], rest))) / normal[0]
        pts.append((head, *rest))
    shuffled = data.draw(st.permutations(pts))
    try:
        plane, res = fit_hyperplane(pts)
    except DegenerateConfiguration:
        with pytest.raises(DegenerateConfiguration):
            fit_hyperplane(shuffled)
        return
    assert res == 0
    assert plane == Hyperplane.build(normal, offset)
    assert fit_hyperplane(shuffled) == (plane, res)


def test_affine_independence():
    assert affinely_independent([(0, 0), (6, 0), (0, 6)])
    assert not affinely_independent([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DimensionMismatch):
        affinely_independent([(0, 0), (1, 0)])
    assert affine_span_dim([(1.0, 2.0)]) == 0


def test_fit_hyperplane_three_circle_centers():
    plane, res = fit_hyperplane([(18.0, 0.0), (0.0, 9.0), (-6.0, 12.0)])
    # x + 2y = 18, float canonical form scales the largest entry to 1
    assert plane.normal == pytest.approx((0.5, 1.0), abs=1e-12)
    assert float(plane.offset) == pytest.approx(9.0, abs=1e-11)
    assert res <= 1e-12


def test_fit_hyperplane_exact_backend():
    pts = [(Fraction(18), Fraction(0)), (Fraction(0), Fraction(9)), (Fraction(-6), Fraction(12))]
    plane, res = fit_hyperplane(pts)
    assert plane.normal == (Fraction(1), Fraction(2))
    assert plane.offset == Fraction(18)
    assert res == 0


def test_fit_hyperplane_interpolates_n_points():
    plane, res = fit_hyperplane([(0.0, 0.0), (2.0, 2.0)])
    assert res <= 1e-14
    assert plane.evaluate((1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("points", [
    [(0.0, 0.0), (2.0, 2.0)],                                   # m = n: interpolates
    [(18.0, 0.0), (0.0, 9.0), (-6.0, 12.0)],
    [tuple(p) for p in np.random.default_rng(0).normal(size=(10, 4))],  # off any plane
    [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)],                       # degenerate
])
def test_one_factorisation_per_float_fit(monkeypatch, points):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    try:
        fit_hyperplane(points)
    except DegenerateConfiguration:
        pass
    assert len(calls) == 1


def test_fit_hyperplane_degenerate_and_noncoplanar():
    with pytest.raises(DegenerateConfiguration) as err:
        fit_hyperplane([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
    assert err.value.span_dim == 0
    with pytest.raises(NonCoplanar):
        fit_hyperplane([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    with pytest.raises(DimensionMismatch):
        fit_hyperplane([(1.0, 2.0)])
    # these span the plane, but sigma_1 overflows: not a span of 0
    with pytest.raises(InvalidInput):
        fit_hyperplane([(1.5e308, 0.0), (-1.5e308, 0.0), (0.0, 1.5e308)])
    # sigma_1 is finite, but the bounding box is wider than the float range
    with pytest.raises(InvalidInput):
        fit_hyperplane([(1e308, 0.0), (-1e308, 0.0), (0.0, 1e308)])

    # exact: the first n points fix the plane and the rest are dot products,
    # unless the first n are dependent; either way the plane is the one a
    # single elimination of every row gives
    F = Fraction
    dependent_head = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (1, 0, 1), (F(1, 2), 3, 1)]
    spanning_head = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (F(1, 3), F(1, 3), F(1, 3)), (2, -1, 0)]
    exactly_n = [(1, 0, 0), (0, 2, 0), (0, 0, 3)]
    for pts, plane in [
        (dependent_head, Hyperplane((F(0), F(0), F(1)), F(1))),
        (spanning_head, Hyperplane((F(1), F(1), F(1)), F(1))),
        (exactly_n, Hyperplane((F(6), F(3), F(2)), F(6))),
    ]:
        assert fit_hyperplane(pts) == (plane, 0)
        assert _eliminated_plane(pts) == plane
    with pytest.raises(NonCoplanar):
        fit_hyperplane(spanning_head + [(1, 1, 1)])
    with pytest.raises(NonCoplanar):
        fit_hyperplane(dependent_head + [(0, 0, 2)])
    for pts, span in [
        ([(0, 0, 0), (1, 2, 3), (2, 4, 6), (F(-1, 2), -1, F(-3, 2))], 1),
        ([(F(1, 2), 1, 1)] * 4, 0),
    ]:
        with pytest.raises(DegenerateConfiguration) as err:
            fit_hyperplane(pts)
        assert err.value.span_dim == span


def _eliminated_plane(pts):
    """The plane of rational points from one elimination of every row (p, 1)."""
    n = len(pts[0])
    echelon, pivots = _integer_echelon([list(p) + [1] for p in pts])
    free = next(c for c in range(n + 1) if c not in pivots)
    u = _null_vector(echelon, pivots, free)
    return Hyperplane.build(u[:n], -u[n])


@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(0, 3))
@settings(max_examples=40)
def test_fit_recovers_random_planar_points(seed, n, extra):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    normal = q[:, -1]
    basis = q[:, :-1]
    anchor = rng.uniform(-5, 5, size=n)
    m = n + extra
    coeffs = rng.uniform(-8, 8, size=(m, n - 1))
    pts = anchor + coeffs @ basis.T
    plane, res = fit_hyperplane([tuple(p) for p in pts])
    assert res <= 1e-10
    # recovered normal is parallel to the constructed one
    ncanon = np.asarray(plane.normal, dtype=float)
    cos = abs(ncanon @ normal) / (np.linalg.norm(ncanon) * np.linalg.norm(normal))
    assert cos == pytest.approx(1.0, abs=1e-8)


def test_hyperplane_normalization_conventions():
    f = Hyperplane.build((2.0, 4.0), 36.0)
    assert f.normal == (0.5, 1.0)
    assert f.offset == 9.0
    e = Hyperplane.build((Fraction(-1, 2), Fraction(-1)), Fraction(-9))
    assert e.normal == (Fraction(1), Fraction(2))
    assert e.offset == Fraction(18)


def test_tolerance_validation():
    with pytest.raises(InvalidInput):
        Tolerance(abs=0.0, rel=0.0)
    with pytest.raises(InvalidInput):
        Tolerance(abs=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInput, match="finite"):
            Tolerance(abs=bad, rel=bad)
        with pytest.raises(InvalidInput, match="finite"):
            Tolerance(abs=1e-9, rel=bad)
        with pytest.raises(InvalidInput, match="finite"):
            Tolerance(abs=bad, rel=1e-9)
    assert Tolerance(1e-6, 1e-6).scaled(10.0) == pytest.approx(1.1e-5)
