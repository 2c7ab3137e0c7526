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


def test_fit_hyperplane_degenerate_and_noncoplanar():
    with pytest.raises(DegenerateConfiguration) as err:
        fit_hyperplane([(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
    assert err.value.span_dim == 0
    with pytest.raises(NonCoplanar):
        fit_hyperplane([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))])
    with pytest.raises(DimensionMismatch):
        fit_hyperplane([(1.0, 2.0)])


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
    assert Tolerance(1e-6, 1e-6).scaled(10.0) == pytest.approx(1.1e-5)
