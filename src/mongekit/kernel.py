"""Dimension-generic affine linear algebra over two scalar backends.

Every public operation accepts point rows whose entries are either all
floats (approximate backend, numpy based) or all ints/Fractions (exact
backend).  Mixing a Fraction with a float in one input is rejected rather
than silently coerced.  Tolerances only apply to the approximate backend;
the exact backend compares against zero.

Exact elimination runs on integers: each rational row is scaled by the
lcm of its denominators and reduced by fraction-free (Bareiss)
elimination, so rank, null space, solve and hyperplane fit never add or
multiply Fractions.  Fractions are built only for the values handed back.

Fits factorise once: one SVD of the centered rows (one echelon of the rows
(p, 1) when exact) gives the affine span dimension and the normal; m = n
points need no special case, and a lower span (one point apart) gets its
plane through the points from the same factorisation.  An exact fit
eliminates only the rows of the first n points when they fix a plane, and
checks each other point by one integer dot product.
Each backend has one canonical form for a normal, _normalize_float (largest
entry 1) and _normalize_exact (a primitive integer vector from _cleared and
one gcd); the other modules reuse these rather than keeping their own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BackendMixError,
    DegenerateConfiguration,
    DimensionMismatch,
    InvalidInput,
    NonCoplanar,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "Hyperplane",
    "is_exact",
    "rank",
    "affine_span_dim",
    "affinely_independent",
    "fit_hyperplane",
]


@dataclass(frozen=True)
class Tolerance:
    """Absolute plus relative tolerance pair for the approximate backend."""

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.abs) and math.isfinite(self.rel)):
            raise InvalidInput("tolerance components must be finite")
        if self.abs < 0 or self.rel < 0:
            raise InvalidInput("tolerance components must be non-negative")
        if self.abs == 0 and self.rel == 0:
            raise InvalidInput("at least one tolerance component must be positive")

    def scaled(self, scale):
        """Threshold for a quantity whose natural magnitude is ``scale``."""
        return self.abs + self.rel * float(scale)


DEFAULT_TOLERANCE = Tolerance()


def _scalars(values, out):
    """Append the scalars of nested lists, tuples and arrays to ``out``."""
    for v in values:
        t = type(v)
        if t is float or t is int or t is Fraction:
            out.append(v)
        elif isinstance(v, (list, tuple)):
            _scalars(v, out)
        elif isinstance(v, np.ndarray):
            _scalars(v.tolist(), out)
        else:
            out.append(v)
    return out


def is_exact(values) -> bool:
    """True when every scalar in ``values`` is an int or Fraction.

    Raises BackendMixError when Fraction and float scalars are mixed (ints
    among floats are fine) and InvalidInput for a non-finite or non-real
    scalar.
    """
    saw_float = saw_fraction = False
    for v in _scalars(values, []):
        t = type(v)
        if t is float:
            if not math.isfinite(v):
                raise InvalidInput("coordinates must be finite")
            saw_float = True
        elif t is int:
            continue
        elif t is Fraction or isinstance(v, Fraction):
            saw_fraction = True
        elif isinstance(v, numbers.Integral):
            continue
        elif isinstance(v, numbers.Real):
            if not math.isfinite(float(v)):
                raise InvalidInput("coordinates must be finite")
            saw_float = True
        else:
            raise InvalidInput(f"unsupported scalar type {type(v).__name__}")
    if saw_float and saw_fraction:
        raise BackendMixError("cannot mix Fraction and float scalars in one input")
    return not saw_float


def _as_float_rows(rows):
    a = np.asarray([[float(x) for x in r] for r in rows], dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("expected a rectangular table of rows")
    return a


def _check_rect(rows):
    lens = {len(r) for r in rows}
    if len(lens) > 1:
        raise DimensionMismatch("rows have inconsistent lengths")


# ----------------------------------------------------------------------
# exact elimination: fraction-free, on integer rows

def _cleared(row):
    """(ints, den): integers and the positive lcm den of the denominators of
    ``row``, so that row == ints / den entry by entry."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    den = math.lcm(*(f.denominator for f in fr))
    return [f.numerator * (den // f.denominator) for f in fr], den


def _integer_echelon(rows):
    """Fraction-free row echelon form of rational ``rows``: (echelon, pivot_cols).

    Each row is first scaled by the lcm of its denominators, which changes
    neither rank nor null space.  Bareiss elimination then keeps every
    entry an integer: after a pivot step each entry below the pivot row is
    a minor of the cleared matrix, so the division by the previous pivot is
    exact (Bareiss, Math. Comp. 22, 1968).
    """
    m = [_cleared(r)[0] for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(m)) if m[k][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        pv = top[c]
        tail = top[c + 1:]
        for k in range(r + 1, len(m)):
            row, f = m[k], m[k][c]
            m[k] = row[:c] + [0] + [
                (pv * a - f * b) // prev for a, b in zip(row[c + 1:], tail)
            ]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _null_vector(echelon, pivots, free):
    """Integer x with echelon @ x = 0, x[free] != 0 and x = 0 on every
    other non-pivot column (back-substitution, bottom row first)."""
    ncols = len(echelon[0])
    x = [0] * ncols
    x[free] = 1
    for r in reversed(range(len(pivots))):
        pc, row = pivots[r], echelon[r]
        t = -sum(row[j] * x[j] for j in range(pc + 1, ncols))
        g = math.gcd(t, row[pc])
        scale = row[pc] // g
        if scale != 1:
            x = [v * scale for v in x]
        x[pc] = t // g
    return x


def _exact_solve(a_rows, rhs):
    """Unique exact solution of ``a_rows @ x = rhs``.

    Returns None when the system is inconsistent; raises
    DegenerateConfiguration when the solution is not unique.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    echelon, pivots = _integer_echelon([list(r) + [b] for r, b in zip(a_rows, rhs)])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < ncols:
        raise DegenerateConfiguration(
            "linear system is underdetermined", span_dim=len(pivots)
        )
    # [a | rhs] @ (x, -1) = 0: the null vector of the rhs column, rescaled
    x = _null_vector(echelon, pivots, ncols)
    return tuple(Fraction(v, -x[ncols]) for v in x[:ncols])


def _homogeneous_echelon(points):
    """Echelon of the rows (p, 1): its rank is the affine span dimension + 1."""
    return _integer_echelon([list(p) + [1] for p in points])


# ----------------------------------------------------------------------
# rank and affine span

def _rank_from(s: np.ndarray, tol: Tolerance) -> int:
    """Numerical rank from descending singular values ``s``: the count
    above max(tol.abs, tol.rel * sigma_1).  InvalidInput when sigma_1 is
    not finite: the rows' norm has left the float range."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    if not math.isfinite(s[0]):
        raise InvalidInput("singular values overflow the float range")
    return int(np.sum(s > max(tol.abs, tol.rel * float(s[0]))))


def _float_rank(a: np.ndarray, tol: Tolerance) -> int:
    if a.size == 0:
        return 0
    return _rank_from(np.linalg.svd(a, compute_uv=False), tol)


def _null_direction(rows: np.ndarray, tol: Tolerance):
    """(rank, last right singular vector) of float ``rows``, from one SVD."""
    _, s, vt = np.linalg.svd(rows)
    return _rank_from(s, tol), vt[-1]


def rank(rows, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Numerical (or exact) rank of a table of row vectors.

    Approximate backend counts singular values above
    max(tol.abs, tol.rel * sigma_1); exact backend eliminates exactly.
    """
    rows = list(rows)
    if not rows:
        return 0
    _check_rect(rows)
    if is_exact(rows):
        return len(_integer_echelon(rows)[1])
    return _float_rank(_as_float_rows(rows), tol)


def affine_span_dim(points, tol: Tolerance = DEFAULT_TOLERANCE) -> int:
    """Dimension of the affine span of ``points`` (0 for a single point)."""
    pts = list(points)
    if not pts:
        raise InvalidInput("need at least one point")
    _check_rect(pts)
    return _affine_span_dim(pts, tol, is_exact(pts))


def _affine_span_dim(pts, tol: Tolerance, exact) -> int:
    """affine_span_dim of nonempty rectangular rows on the given backend."""
    if exact:
        return len(_homogeneous_echelon(pts)[1]) - 1
    a = _as_float_rows(pts)
    if a.shape[0] == 1:
        return 0
    return _float_rank(a[1:] - a[0], tol)


def affinely_independent(points, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when k+1 points span a k-dimensional affine subspace.

    Requires exactly n+1 points of dimension n.
    """
    pts = list(points)
    return _affinely_independent(pts, tol, is_exact(pts))


def _affinely_independent(pts, tol: Tolerance, exact) -> bool:
    """affinely_independent on a backend the caller already chose, so that
    a set classified once is not classified again."""
    if not pts:
        raise InvalidInput("need at least one point")
    _check_rect(pts)
    n = len(pts[0])
    if len(pts) != n + 1:
        raise DimensionMismatch(
            f"need exactly {n + 1} points in dimension {n}, got {len(pts)}"
        )
    return _affine_span_dim(pts, tol, exact) == n


# ----------------------------------------------------------------------
# hyperplanes

def _normalize_float(normal, offset):
    normal = [float(x) for x in normal]
    k = max(range(len(normal)), key=lambda i: abs(normal[i]))
    piv = normal[k]
    if piv == 0.0:
        raise InvalidInput("hyperplane normal must be nonzero")
    return tuple(x / piv for x in normal), offset / piv


def _normalize_exact(normal, offset):
    ints, _ = _cleared([*normal, offset])
    lead = next((v for v in ints[:-1] if v), 0)
    if not lead:
        raise InvalidInput("hyperplane normal must be nonzero")
    g = math.gcd(*ints) if lead > 0 else -math.gcd(*ints)
    return tuple(Fraction(v // g) for v in ints[:-1]), Fraction(ints[-1] // g)


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : normal . x = offset} in canonical form.

    Approximate backend: the largest-magnitude normal entry equals 1.
    Exact backend: normal and offset form a primitive integer vector whose
    first nonzero normal entry is positive.
    """

    normal: tuple
    offset: object

    @classmethod
    def build(cls, normal, offset):
        if is_exact(list(normal) + [offset]):
            n, d = _normalize_exact(normal, offset)
        else:
            n, d = _normalize_float(normal, offset)
        return cls(normal=n, offset=d)

    @property
    def dim(self):
        return len(self.normal)

    def evaluate(self, point):
        """Signed affine value normal . x - offset (not distance-scaled)."""
        acc = -self.offset
        for a, x in zip(self.normal, point):
            acc += a * x
        return acc

    def distance(self, point) -> float:
        nrm = math.sqrt(sum(float(a) * float(a) for a in self.normal))
        return abs(float(self.evaluate(point))) / nrm


def _bbox_diameter(a: np.ndarray) -> float:
    """Diagonal of the bounding box of float rows ``a``; InvalidInput when
    it exceeds the float range (a residual divided by inf would read 0)."""
    with np.errstate(over="ignore"):
        side = a.max(axis=0) - a.min(axis=0)
        diam = float(np.linalg.norm(side))
    if math.isinf(diam):
        # the squares overflowed, maybe not the diagonal: scale by the longest side
        top = float(side.max())
        if math.isfinite(top):
            diam = top * float(np.linalg.norm(side / top))
        if math.isinf(diam):
            raise InvalidInput("points overflow the float range of the hyperplane fit")
    return diam


def _fit_exact(pts):
    """(plane, 0, span), or NonCoplanar.

    When the rows (p, 1) of the first n points have rank n, their null
    vector is the only candidate plane, and each later point is one integer
    dot product against it.  Otherwise one elimination of every row decides.
    """
    n = len(pts[0])
    echelon, pivots = _homogeneous_echelon(pts[:n])
    rest = pts[n:]
    if len(pivots) < n:
        echelon, pivots = _homogeneous_echelon(pts)
        rest = ()
    span = len(pivots) - 1
    if span == n:
        raise NonCoplanar("points do not lie in a common hyperplane")
    if span == 0 < n - 1:
        # one point p: the plane x_1 = p_1
        return Hyperplane(*_normalize_exact([1] + [0] * (n - 1), pts[0][0])), Fraction(0), 0
    # (p, 1) @ (normal, -offset) = 0 for every point p
    free = next(c for c in range(n + 1) if c not in pivots)
    u = _null_vector(echelon, pivots, free)
    for p in rest:
        ints, den = _cleared(p)
        if sum(a * x for a, x in zip(u, ints)) + u[n] * den:
            raise NonCoplanar("points do not lie in a common hyperplane")
    return Hyperplane(*_normalize_exact(u[:n], -u[n])), Fraction(0), span


def _fit_float(a: np.ndarray, tol: Tolerance):
    """(plane, residual, span) of float rows ``a`` from one SVD."""
    n = a.shape[1]
    with np.errstate(all="ignore"):
        centroid = a.mean(axis=0)
        centered = a - centroid
    # nan or inf rows can make the SVD fail or return nan without error
    if not np.isfinite(centered).all():
        raise InvalidInput("points overflow the float range of the hyperplane fit")
    span, normal = _null_direction(centered, tol)
    if span == 0 < n - 1:
        # one point: x_1 = p_1, residual 0 (dev / diam would measure noise by noise)
        e1 = np.eye(n)[0]
        return Hyperplane(*_normalize_float(e1, float(e1 @ centroid))), 0.0, 0
    plane = Hyperplane(*_normalize_float(normal, float(normal @ centroid)))
    nrm = math.sqrt(sum(x ** 2 for x in plane.normal))
    dev = np.abs(a @ np.asarray(plane.normal) - plane.offset) / nrm
    maxdev = float(dev.max())
    if maxdev == 0.0:
        return plane, 0.0, span
    return plane, maxdev / _bbox_diameter(a), span


def _fit(pts, tol: Tolerance, exact):
    """(plane, residual, span) of rectangular ``pts``; a low span does not raise."""
    if exact:
        return _fit_exact(pts)
    return _fit_float(_as_float_rows(pts), tol)


def fit_hyperplane(points, tol: Tolerance = DEFAULT_TOLERANCE):
    """Best containing hyperplane of ``points`` plus a relative residual.

    On the float backend one SVD of the centered rows decides both: their
    rank is the affine span dimension, and their smallest singular
    direction is the orthogonal least-squares normal, which interpolates
    the points when there are only n of them (no special case).  The
    residual is the largest point deviation divided by the bounding-box
    diameter.  The exact backend returns residual 0 or raises NonCoplanar.
    Points spanning fewer than n - 1 dimensions raise DegenerateConfiguration.
    """
    pts = list(points)
    if not pts:
        raise InvalidInput("need at least one point")
    _check_rect(pts)
    n = len(pts[0])
    if n < 1:
        raise InvalidInput("points must have dimension >= 1")
    if len(pts) < n:
        raise DimensionMismatch(f"need at least {n} points in dimension {n}")
    plane, residual, span = _fit(pts, tol, is_exact(pts))
    if span < n - 1:
        raise DegenerateConfiguration(
            f"points span affine dimension {span} < {n - 1}", span_dim=span
        )
    return plane, residual
