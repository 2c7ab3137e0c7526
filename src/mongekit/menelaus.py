"""Signed division ratios on simplex edges and the hyperplane criterion.

For vertices a_1..a_{n+1} of a simplex in E^n and one point b_ij on each
edge line (off the vertices), the points lie in a common hyperplane
exactly when every triple product lambda_ij^-1 * lambda_ik * lambda_jk^-1
equals 1, where lambda_ij is the signed ratio of the homothety centered
at b_ij taking a_j to a_i.  The sign matters: unsigned length ratios also
give product 1 for edge midpoints, which are never coplanar with each
other in this sense, so an unsigned reading has no equivalence.

The backend is chosen once per edge-point set, and the set carries it
(parse_scenario sets it; a set built by hand classifies itself on first
use).  On the float backend the ratios of all n(n+1)/2 pairs are computed
in one batch, a fixed number of numpy operations on stacked (pairs,
dimension) arrays; signed_ratio is the same batch with one row, and the
triple residuals are one array expression.  On the exact backend each
vertex and edge point is cleared once per set, and the independence test,
the ratios and the fit share the cleared rows; each triple residual is a
quotient of integer cross-products of the ratios' numerators and
denominators, and the fit eliminates the rows of n edge points and checks
the others by integer dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    CoincidesWithVertex,
    DegenerateConfiguration,
    DimensionMismatch,
    EqualWeights,
    InvalidInput,
    NonCoplanar,
    NotOnLine,
    NotSpacelike,
)
from .kernel import (
    DEFAULT_TOLERANCE,
    Hyperplane,
    Tolerance,
    _affinely_independent,
    _cleared,
    _exact_solve,
    _fit_hyperplane,
    _normalize_exact,
    _normalize_float,
    affinely_independent,
    is_exact,
)

__all__ = [
    "Homothety",
    "EdgePointSet",
    "MenelausReport",
    "signed_ratio",
    "menelaus_products",
    "edge_points_from_weights",
    "monge_hyperplane_from_weights",
]


@dataclass(frozen=True)
class Homothety:
    """Map x -> center + ratio * (x - center) with ratio not in {0, 1}."""

    center: tuple
    ratio: object

    def __post_init__(self):
        if self.ratio == 0 or self.ratio == 1:
            raise InvalidInput("homothety ratio must differ from 0 and 1")

    def apply(self, point):
        if len(point) != len(self.center):
            raise DimensionMismatch("point and center dimensions differ")
        return tuple(c + self.ratio * (x - c) for c, x in zip(self.center, point))


def all_pairs(count):
    """1-based index pairs (i, j), i < j."""
    return list(combinations(range(1, count + 1), 2))


@dataclass(frozen=True)
class EdgePointSet:
    """Simplex vertices plus one marked point per edge line.

    ``edge_points`` maps the 1-based pair (i, j), i < j, to the point on
    the line through vertices i and j.
    """

    vertices: tuple
    edge_points: dict

    @property
    def dimension(self):
        return len(self.vertices[0])

    @cached_property
    def _exact(self):
        """True when every vertex and edge point coordinate is an int or
        Fraction: the set's one backend choice, made on first use
        (parse_scenario sets it; a Fraction among floats fails here)."""
        return is_exact([list(p) for p in
                         (*self.vertices, *(self.edge_points[k] for k in sorted(self.edge_points)))])

    def validate(self, tol: Tolerance = DEFAULT_TOLERANCE):
        """Check the structure and return the signed ratio of every pair."""
        return _edge_ratios(self, tol, self._exact)[0]


@dataclass(frozen=True)
class MenelausReport:
    """Verdict of the edge-point criterion in E^n, S^n or H^n.

    ``hyperplane`` is a Hyperplane (E^n) or an XnHyperplane section
    (S^n, H^n), or None when no plane could be fitted.
    """

    lambdas: dict
    triple_residuals: dict
    hyperplane: object
    hyperplane_residual: object
    verdict: bool


def _row_dots(p, q):
    """Row-wise dot products of two (P, d) arrays."""
    return np.einsum("pk,pk->p", p, q)


def _row_norms(p):
    return np.sqrt(_row_dots(p, p))


def _pair_rows(vertices, pairs):
    """Stacked float rows (a_i, a_j), one row per 1-based pair (i, j)."""
    v = np.asarray(vertices, dtype=float)
    idx = np.asarray(pairs, dtype=int).reshape(-1, 2) - 1
    return v[idx[:, 0]], v[idx[:, 1]]


def _raise_first(pairs, checks):
    """Raise for the first pair any check flags, with its first failing check.

    ``checks`` lists (flags, error class, message) in the order one pair is
    checked; each flags array holds one boolean per pair.
    """
    bad = np.logical_or.reduce([flags for flags, _, _ in checks])
    if bad.any():
        row = int(bad.argmax())
        error, message = next((e, m) for flags, e, m in checks if flags[row])
        raise error(message, pair=pairs[row])


def _float_ratios(a_i, a_j, b, tol: Tolerance, pairs):
    """signed_ratio of stacked (P, d) float rows a_i, a_j, b, one row per pair.

    Every row runs every check; the first flagged row in ``pairs`` order
    raises with the first check it fails, in the order listed below.  The
    inf and nan that later rows may compute raise no warning.
    """
    with np.errstate(all="ignore"):
        side = a_j - a_i
        edge = _row_norms(side)
        near = tol.abs + tol.rel * edge
        d1 = a_i - b
        d2 = a_j - b
        direction = side / edge[:, None]
        # the part of b - a_i across the edge line, negated: same norm
        rej = d1 - _row_dots(d1, direction)[:, None] * direction
        ratios = _row_dots(d1, d2) / _row_dots(d2, d2)
        _raise_first(pairs, [
            (edge == 0.0, DegenerateConfiguration, "vertices coincide"),
            ((_row_norms(d1) <= near) | (_row_norms(d2) <= near),
             CoincidesWithVertex, "edge point equals a vertex"),
            (_row_norms(rej) > near, NotOnLine, "point is off the vertex line"),
            (~np.isfinite(ratios), InvalidInput, "signed ratio overflows the float range"),
        ])
        return ratios


def _cleared_ratio(cleared_i, cleared_j, cleared_b, pair):
    """signed_ratio of rational points given as _cleared (ints, den) pairs."""
    # with a = A / L_a (integer A, L_a > 0): a_i - b = D1 / (L_i L_b) and
    # a_j - b = D2 / (L_j L_b), so lambda = (D1 . D2) L_j / ((D2 . D2) L_i)
    (ai, li), (aj, lj), (bb, lb) = cleared_i, cleared_j, cleared_b
    d1 = [x * lb - y * li for x, y in zip(ai, bb)]
    d2 = [x * lb - y * lj for x, y in zip(aj, bb)]
    if not any(d2) or not any(d1):
        raise CoincidesWithVertex("edge point equals a vertex", pair=pair)
    p = next(k for k, x in enumerate(d2) if x)
    if any(x * d2[p] != d1[p] * y for x, y in zip(d1, d2)):
        raise NotOnLine("point is off the vertex line", pair=pair)
    num = sum(x * y for x, y in zip(d1, d2))
    den = sum(x * x for x in d2)
    return Fraction(num * lj, den * li)


def _exact_ratio(a_i, a_j, b, pair):
    """signed_ratio of rational points, from their cleared integer vectors."""
    return _cleared_ratio(_cleared(a_i), _cleared(a_j), _cleared(b), pair)


def signed_ratio(a_i, a_j, b, tol: Tolerance = DEFAULT_TOLERANCE, pair=None):
    """The unique lambda with a_i = b + lambda * (a_j - b).

    ``b`` must lie on the line through a_i and a_j (within tolerance) and
    must not coincide with either vertex.  Positive lambda puts b outside
    the segment [a_i, a_j]; lambda = -1 is the midpoint.
    """
    if len(a_i) != len(a_j) or len(a_i) != len(b):
        raise DimensionMismatch("points must share one dimension", pair=pair)
    if is_exact([list(a_i), list(a_j), list(b)]):
        return _exact_ratio(a_i, a_j, b, pair)
    rows = np.asarray([a_i, a_j, b], dtype=float)
    return float(_float_ratios(rows[:1], rows[1:2], rows[2:], tol, [pair])[0])


def _edge_ratios(eps: EdgePointSet, tol: Tolerance, exact):
    """(ratios, rows): EdgePointSet.validate's ratios by pair, on the backend
    the caller chose for the set.

    On the exact backend each vertex and each edge point is cleared once
    for the whole set, and ``rows`` holds the edge points' _cleared pairs in
    pair order, for the fit; on the float backend ``rows`` is None.
    """
    n = eps.dimension
    if len(eps.vertices) != n + 1:
        raise DimensionMismatch(
            f"need {n + 1} vertices in dimension {n}, got {len(eps.vertices)}"
        )
    cleared = [_cleared(v) for v in eps.vertices] if exact else None
    if not _affinely_independent(list(eps.vertices), tol, exact, cleared):
        raise DegenerateConfiguration("simplex vertices are affinely dependent")
    pairs = all_pairs(n + 1)
    got = set(eps.edge_points)
    if got != set(pairs):
        raise InvalidInput(
            f"edge point pairs {sorted(got)} do not match expected {pairs}"
        )
    points = [eps.edge_points[p] for p in pairs]
    # the pairs before the first edge point of the wrong length are checked first
    good = next((k for k, b in enumerate(points) if len(b) != n), len(pairs))
    if exact:
        rows = [_cleared(b) for b in points]
        ratios = [
            _cleared_ratio(cleared[i - 1], cleared[j - 1], b, pair=(i, j))
            for (i, j), b in zip(pairs[:good], rows)
        ]
    else:
        rows = None
        a_i, a_j = _pair_rows(eps.vertices, pairs[:good])
        b = np.asarray(points[:good], dtype=float).reshape(good, n)
        ratios = _float_ratios(a_i, a_j, b, tol, pairs[:good]).tolist()
    if good < len(pairs):
        raise DimensionMismatch("points must share one dimension", pair=pairs[good])
    return dict(zip(pairs, ratios)), rows


@lru_cache(maxsize=16)
def _triple_index(count):
    """The triples i < j < k of 1..count, and for each the positions of its
    pairs (i, j), (i, k) and (j, k) in all_pairs(count), as three arrays."""
    position = {pair: q for q, pair in enumerate(all_pairs(count))}
    triples = list(combinations(range(1, count + 1), 3))
    index = np.array([(position[i, j], position[i, k], position[j, k]) for (i, j, k) in triples],
                     dtype=np.intp).reshape(-1, 3)
    return triples, index[:, 0], index[:, 1], index[:, 2]


def _menelaus_report(lambdas, points, fit, tol: Tolerance, exact=False) -> MenelausReport:
    """Triple products and hyperplane fit of edge points, in any geometry.

    The verdict is true only when every triple residual and the fit
    residual pass the tolerance (exact backend: both exactly 0).  Float
    triple products are evaluated as (lambda_ik / lambda_ij) / lambda_jk so
    that like magnitudes cancel before anything can overflow, all triples
    in one array expression; one that still overflows reads inf.  Exact ones
    are cross-multiplied: with lambda = p/q that product is N/D for
    N = p_ik q_ij q_jk and D = q_ik p_ij p_jk, so the residual is
    |N - D| / |D| from integer products alone.  ``lambdas`` holds the
    ratios in all_pairs order; ``fit`` returns (hyperplane, residual) for
    the points.
    """
    triples, ij, ik, jk = _triple_index(max(j for _, j in lambdas))
    thr = 0 if exact else tol.scaled(1.0)
    if exact:
        pq = {pair: (lam.numerator, lam.denominator) for pair, lam in lambdas.items()}
        triple_residuals = {}
        for (i, j, k) in triples:
            (p_ij, q_ij), (p_ik, q_ik), (p_jk, q_jk) = pq[(i, j)], pq[(i, k)], pq[(j, k)]
            den = q_ik * p_ij * p_jk
            triple_residuals[(i, j, k)] = Fraction(abs(p_ik * q_ij * q_jk - den), abs(den))
        products_ok = all(r <= thr for r in triple_residuals.values())
    else:
        lam = np.fromiter(lambdas.values(), dtype=float, count=len(lambdas))
        with np.errstate(over="ignore"):
            residuals = np.abs((lam[ik] / lam[ij]) / lam[jk] - 1)
        triple_residuals = dict(zip(triples, residuals.tolist()))
        products_ok = bool((residuals <= thr).all())
    try:
        plane, plane_res = fit(points, tol)
        plane_ok = plane_res <= thr
    except (NonCoplanar, NotSpacelike):
        plane, plane_res, plane_ok = None, None, False
    except DegenerateConfiguration:
        # edge points span less than a hyperplane, so they certainly lie in one
        plane, plane_res, plane_ok = None, 0, True
    return MenelausReport(
        lambdas=lambdas,
        triple_residuals=triple_residuals,
        hyperplane=plane,
        hyperplane_residual=plane_res,
        verdict=bool(products_ok and plane_ok),
    )


def menelaus_products(eps: EdgePointSet, tol: Tolerance = DEFAULT_TOLERANCE) -> MenelausReport:
    """Evaluate the signed triple products and the hyperplane fit in E^n."""
    exact = eps._exact
    lambdas, rows = _edge_ratios(eps, tol, exact)
    points = [eps.edge_points[p] for p in lambdas]

    def fit(points, tol):
        return _fit_hyperplane(points, tol, exact, rows)

    return _menelaus_report(lambdas, points, fit, tol, exact)


def _check_weights(vertices, weights):
    if len(weights) != len(vertices):
        raise DimensionMismatch("need one weight per vertex")
    for w in weights:
        if w <= 0:
            raise EqualWeights("weights must be positive")
    for a, b in combinations(weights, 2):
        if a == b:
            raise EqualWeights("weights must be pairwise distinct")


def edge_points_from_weights(vertices, weights, tol: Tolerance = DEFAULT_TOLERANCE) -> EdgePointSet:
    """Edge points b_ij = (w_j a_i - w_i a_j) / (w_j - w_i).

    By construction signed_ratio gives lambda_ij = w_i / w_j, so every
    triple product is 1 and the points share a hyperplane.
    """
    vertices = tuple(tuple(v) for v in vertices)
    if not affinely_independent(vertices, tol):
        raise DegenerateConfiguration("simplex vertices are affinely dependent")
    _check_weights(vertices, weights)
    pts = {}
    for (i, j) in all_pairs(len(vertices)):
        wi, wj = weights[i - 1], weights[j - 1]
        denom = wj - wi
        pts[(i, j)] = tuple(
            (wj * x - wi * y) / denom for x, y in zip(vertices[i - 1], vertices[j - 1])
        )
    return EdgePointSet(vertices=vertices, edge_points=pts)


def monge_hyperplane_from_weights(vertices, weights, tol: Tolerance = DEFAULT_TOLERANCE) -> Hyperplane:
    """Zero set of the affine functional g with g(a_k) = w_k.

    The edge points built from the same weights satisfy g(b_ij) = 0, so
    this hyperplane contains all of them.
    """
    vertices = tuple(tuple(v) for v in vertices)
    _check_weights(vertices, weights)
    n = len(vertices[0])
    if len(vertices) != n + 1:
        raise DimensionMismatch(f"need {n + 1} vertices in dimension {n}")
    exact = is_exact([list(v) for v in vertices] + [list(weights)])
    if exact:
        rows = [[Fraction(x) for x in v] + [Fraction(1)] for v in vertices]
        sol = _exact_solve(rows, [Fraction(w) for w in weights])
        if sol is None:
            raise DegenerateConfiguration("simplex vertices are affinely dependent")
        coeffs, const = sol[:n], sol[n]
        if all(c == 0 for c in coeffs):
            raise EqualWeights("weights admit no sloped functional")
        return Hyperplane(*_normalize_exact(coeffs, -const))
    a = np.asarray([[float(x) for x in v] for v in vertices])
    m = np.hstack([a, np.ones((n + 1, 1))])
    try:
        sol = np.linalg.solve(m, np.asarray([float(w) for w in weights]))
    except np.linalg.LinAlgError:
        raise DegenerateConfiguration("simplex vertices are affinely dependent") from None
    coeffs, const = sol[:n], float(sol[n])
    if float(np.linalg.norm(coeffs)) <= tol.scaled(abs(const)):
        raise EqualWeights("weights admit no sloped functional")
    return Hyperplane(*_normalize_float(coeffs, -const))
