"""Constant-curvature analogs: the unit sphere and the hyperboloid model.

Points of S^n live on the unit sphere of E^{n+1}; points of H^n live on
the upper sheet of <x, x>_L = -1 where <x, y>_L = -x_0 y_0 + sum x_k y_k.
Lines are intersections with two-dimensional linear subspaces.  The
edge-point ratio lambda_ij = |a_i ^ b| / |a_j ^ b| is the sin (sphere) or
sinh (hyperboloid) ratio of the two sub-arcs, but it is computed by
linear algebra alone: one least-squares decomposition b = alpha a_i +
beta a_j gives the line and arc-order tests, and each bivector norm comes
from a chord in the ambient bilinear form.  The ratios of all n(n+1)/2
pairs of a configuration are computed in one batch, a fixed number of
numpy operations on stacked (pairs, n+1) arrays; xn_lambda is the same
batch with one row.  Hyperplane sections are zero sets
{x : B(w, x) = 0} of that form; on the hyperboloid a valid w must be
spacelike.  Triple products, thresholds and the report are shared with
the Euclidean verifier in menelaus.

Points are normalised onto the surface one set at a time: one batch
checks and rescales every row of a set, and sphere_point and
hyperboloid_point are that batch with one row.  XnConfig.validate stacks
the set's coordinates once, for the independence test and the ratios.

Everything here runs on the float backend only.  Geodesic distances
(geodesic_distance, arc_contains, xn_homothety_image) serve the generators,
not the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntipodalPoints,
    ArcOrderViolation,
    CoincidesWithVertex,
    DegenerateConfiguration,
    DimensionMismatch,
    GeometryError,
    InvalidInput,
    NotOnLine,
    NotSpacelike,
    NotTimelike,
)
from .kernel import DEFAULT_TOLERANCE, Tolerance, _float_rank, _normalize_float, _null_direction
from .menelaus import (
    MenelausReport,
    _check_weights,
    _menelaus_report,
    _pair_rows,
    _raise_first,
    _row_dots,
    _row_norms,
    all_pairs,
)

__all__ = [
    "SPHERICAL",
    "HYPERBOLIC",
    "XnPoint",
    "XnHyperplane",
    "XnConfig",
    "sphere_point",
    "hyperboloid_point",
    "geodesic_distance",
    "arc_contains",
    "xn_homothety_image",
    "xn_lambda",
    "xn_independent",
    "xn_hyperplane_fit",
    "verify_prop2",
    "xn_edge_points_from_weights",
]

SPHERICAL = "spherical"
HYPERBOLIC = "hyperbolic"

ANTIPODAL_GUARD = 1e-9
SURFACE_SLACK = 1e-6  # how far off the model surface input coordinates may sit


def _lorentz_dot(u, v):
    return float(-u[0] * v[0] + u[1:] @ v[1:])


@dataclass(frozen=True)
class XnPoint:
    """A point of S^n or H^n, tagged with its geometry."""

    geometry: str
    coords: tuple

    @property
    def dimension(self):
        return len(self.coords) - 1

    def as_array(self):
        return np.asarray(self.coords, dtype=float)


def _surface_points(geometry, rows):
    """XnPoints of S^n or H^n from coordinate rows, every row in one batch.

    A row must lie within SURFACE_SLACK of the model surface (unit norm on
    S^n; Lorentz norm -1 and x_0 > 0 on H^n), and is rescaled onto it.  The
    first row that fails raises, with the first check it fails.  Norms and
    Lorentz forms are per-row matrix products, which round exactly as each
    row's own dot product does.
    """
    v = np.array(rows, dtype=float)
    if geometry == SPHERICAL:
        scale = np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0, 0]
        good = np.abs(scale - 1.0) <= SURFACE_SLACK
        if np.count_nonzero(good) < len(good):
            nrm = float(scale[good.argmin()])
            raise InvalidInput(f"norm {nrm:.9f} is too far from 1 for a sphere point")
    else:
        # q = -<v, v>_L, nan when the squares overflow; a row that passes has
        # q near 1, so x_0 / sqrt(q) has the sign of x_0
        q = v[:, 0] * v[:, 0] - (v[:, None, 1:] @ v[:, 1:, None])[:, 0, 0]
        good = (np.abs(q - 1.0) <= 2 * SURFACE_SLACK) & (v[:, 0] > 0)
        if np.count_nonzero(good) < len(good):
            qk = float(q[good.argmin()])
            if qk <= 0:
                raise NotTimelike("coordinates are not timelike")
            if not abs(qk - 1.0) <= 2 * SURFACE_SLACK:
                raise InvalidInput(
                    f"Lorentz norm {-qk:.9f} is too far from -1 for a hyperboloid point")
            raise InvalidInput("hyperboloid points must have positive first coordinate")
        scale = np.sqrt(q)
    return [XnPoint(geometry, tuple(c)) for c in (v / scale[:, None]).tolist()]


def sphere_point(coords) -> XnPoint:
    return _surface_points(SPHERICAL, [coords])[0]


def hyperboloid_point(coords) -> XnPoint:
    return _surface_points(HYPERBOLIC, [coords])[0]


def _make_point(geometry, vector) -> XnPoint:
    if geometry == SPHERICAL:
        return sphere_point(vector)
    return hyperboloid_point(vector)


def _same_space(*points):
    geos = {p.geometry for p in points}
    if len(geos) > 1:
        raise DimensionMismatch("points belong to different geometries")
    dims = {p.dimension for p in points}
    if len(dims) > 1:
        raise DimensionMismatch("points have different dimensions")
    g = next(iter(geos))
    if g not in (SPHERICAL, HYPERBOLIC):
        raise InvalidInput(f"unknown geometry {g!r}")
    return g


def geodesic_distance(x: XnPoint, y: XnPoint) -> float:
    """Geodesic distance, computed from chords for stability at small gaps.

    On the sphere |x - y| = 2 sin(d/2) (switching to |x + y| past a right
    angle); on the hyperboloid <x-y, x-y>_L = 4 sinh^2(d/2).  Both avoid
    the catastrophic cancellation the direct acos/acosh of the dot product
    suffers when d is small.
    """
    g = _same_space(x, y)
    u, v = x.as_array(), y.as_array()
    if g == SPHERICAL:
        if float(u @ v) >= 0.0:
            half = float(np.linalg.norm(u - v)) / 2.0
            return 2.0 * math.asin(min(1.0, half))
        half = float(np.linalg.norm(u + v)) / 2.0
        return math.pi - 2.0 * math.asin(min(1.0, half))
    diff = u - v
    chord_sq = max(0.0, _lorentz_dot(diff, diff))
    return 2.0 * math.asinh(math.sqrt(chord_sq) / 2.0)


def arc_contains(x: XnPoint, z: XnPoint, y: XnPoint, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when y lies on the geodesic arc from x to z.

    Tests the triangle equality |xy| + |yz| = |xz| within tolerance.  On
    the sphere the arc endpoints must stay short of antipodal.
    """
    g = _same_space(x, z, y)
    dxz = geodesic_distance(x, z)
    if g == SPHERICAL and dxz >= math.pi - ANTIPODAL_GUARD:
        raise AntipodalPoints("arc endpoints are (nearly) antipodal")
    gap = geodesic_distance(x, y) + geodesic_distance(y, z) - dxz
    return gap <= tol.scaled(1.0)


def _tangent_toward(center: XnPoint, target: XnPoint, dist):
    c, p = center.as_array(), target.as_array()
    if center.geometry == SPHERICAL:
        return (p - c * math.cos(dist)) / math.sin(dist)
    return (p - c * math.cosh(dist)) / math.sinh(dist)


def xn_homothety_image(center: XnPoint, p: XnPoint, lam, tol: Tolerance = DEFAULT_TOLERANCE) -> XnPoint:
    """Point at distance lam * |center p| from center along the ray to p."""
    g = _same_space(center, p)
    if lam <= 0:
        raise InvalidInput("ratio must be positive")
    d = geodesic_distance(center, p)
    if d <= tol.scaled(1.0):
        raise CoincidesWithVertex("homothety center coincides with the point")
    if g == SPHERICAL and d >= math.pi - ANTIPODAL_GUARD:
        raise AntipodalPoints("center and point are (nearly) antipodal")
    t = float(lam) * d
    if g == SPHERICAL:
        if t >= math.pi - ANTIPODAL_GUARD:
            raise AntipodalPoints("image distance reaches the antipode")
        u = _tangent_toward(center, p, d)
        vec = center.as_array() * math.cos(t) + u * math.sin(t)
    else:
        u = _tangent_toward(center, p, d)
        vec = center.as_array() * math.cosh(t) + u * math.sinh(t)
    return _make_point(g, vec)


def _form(g, u, v):
    """The model's bilinear form: Euclidean dot on S^n, Lorentz form on H^n."""
    if g == HYPERBOLIC:
        return _lorentz_dot(u, v)
    return float(u @ v)


def _row_forms(g, p, q):
    """Row-wise bilinear form of (P, n+1) arrays: _form for each row pair."""
    if g == HYPERBOLIC:
        return -p[:, 0] * q[:, 0] + _row_dots(p[:, 1:], q[:, 1:])
    return _row_dots(p, q)


def _chords(g, p, q):
    """Chord lengths |q - p| in the model's form, about the geodesic distances when small."""
    w = q - p
    return np.sqrt(np.abs(_row_forms(g, w, w)))


def _wedge_norms(g, a, b):
    """|a ^ b| in the model's form: sin (S^n) or sinh (H^n) of the distance |ab|.

    Taken from the chord w = b - a as the part of w orthogonal to a, which
    stays accurate when a and b are close.
    """
    w = b - a
    r = w - (_row_forms(g, w, a) / _row_forms(g, a, a))[:, None] * a
    return np.sqrt(np.abs(_row_forms(g, r, r)))


def _two_column_lstsq(u, v, x):
    """Least-squares x ~ alpha u + beta v for each row: (alpha, beta, residual norm).

    A closed-form QR of the two columns [u v]; the second column is
    orthogonalised against the first twice, which keeps q1 and q2
    orthogonal to rounding even when u and v are nearly parallel.
    """
    r11 = _row_norms(u)
    q1 = u / r11[:, None]
    r12 = _row_dots(q1, v)
    w = v - r12[:, None] * q1
    again = _row_dots(q1, w)
    r12 = r12 + again
    w = w - again[:, None] * q1
    r22 = _row_norms(w)
    q2 = w / r22[:, None]
    beta = _row_dots(q2, x) / r22
    alpha = (_row_dots(q1, x) - r12 * beta) / r11
    residual = _row_norms(alpha[:, None] * u + beta[:, None] * v - x)
    return alpha, beta, residual


def _xn_ratios(g, u, v, x, tol: Tolerance, pairs):
    """xn_lambda of stacked (P, n+1) ambient rows a_i, a_j, b, one row per pair.

    Every row runs every check; the first flagged row in ``pairs`` order
    raises with the first check it fails, in the order listed below.  The
    inf and nan that later rows may compute raise no warning.
    """
    near = tol.scaled(1.0)
    with np.errstate(all="ignore"):
        alpha, beta, residual = _two_column_lstsq(u, v, x)
        checks = [(_chords(g, u, v) <= near, CoincidesWithVertex, "vertices coincide")]
        if g == SPHERICAL:
            checks.append((_row_norms(u + v) <= ANTIPODAL_GUARD, AntipodalPoints,
                           "vertices are (nearly) antipodal"))
        checks += [
            ((_chords(g, x, u) <= near) | (_chords(g, x, v) <= near),
             CoincidesWithVertex, "edge point coincides with a vertex"),
            (residual > near, NotOnLine, "edge point is off the vertex line"),
        ]
        if g == SPHERICAL:
            # b = -a_j has alpha = 0 only up to rounding, so the chord
            # |b + a_j| decides it; on H^n no point is a negative multiple of another
            checks += [
                (_row_norms(v + x) <= ANTIPODAL_GUARD, NotOnLine,
                 "edge point is in the direction of a vertex"),
                (_row_norms(u + x) <= ANTIPODAL_GUARD, AntipodalPoints,
                 "arc endpoints are (nearly) antipodal"),
            ]
        checks.append((~((alpha < 0.0) & (0.0 < beta)), ArcOrderViolation,
                       "second vertex is not on the arc to the edge point"))
        _raise_first(pairs, checks)
        return _wedge_norms(g, u, x) / _wedge_norms(g, v, x)


def xn_lambda(a_i: XnPoint, a_j: XnPoint, b: XnPoint, tol: Tolerance = DEFAULT_TOLERANCE, pair=None):
    """Homothety-analog ratio of the edge point b on the line a_i a_j.

    One decomposition b = alpha a_i + beta a_j of the ambient vectors
    decides everything: its residual tests that b is on the line, and
    alpha < 0 < beta that a_j lies on the arc from a_i to b.  The ratio is
    |a_i ^ b| / |a_j ^ b|, the sin (sphere) or sinh (hyperboloid) ratio of
    the sub-arcs |a_i b| and |a_j b|.  This is the batch XnConfig.validate
    runs, with one row.
    """
    try:
        g = _same_space(a_i, a_j, b)
    except GeometryError as e:
        raise type(e)(e.args[0], pair=pair) from None
    rows = np.asarray([a_i.coords, a_j.coords, b.coords], dtype=float)
    return float(_xn_ratios(g, rows[:1], rows[1:2], rows[2:], tol, [pair])[0])


def xn_independent(points, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True when the ambient coordinate vectors are linearly independent."""
    if not points:
        raise InvalidInput("need at least one point")
    _same_space(*points)
    return _float_rank(np.asarray([p.coords for p in points], dtype=float), tol) == len(points)


@dataclass(frozen=True)
class XnHyperplane:
    """Section {x : B(w, x) = 0} with the largest normal entry scaled to 1."""

    geometry: str
    normal: tuple

    def evaluate(self, point: XnPoint):
        return _form(self.geometry, np.asarray(self.normal), point.as_array())


def xn_hyperplane_fit(points, tol: Tolerance = DEFAULT_TOLERANCE):
    """Least-squares hyperplane section through ambient points.

    One SVD of the rows (with the time coordinate negated on H^n, so that
    B(w, x) is a plain dot product) gives both their rank and the normal w,
    the last right singular vector.  Returns (hyperplane, residual) where
    residual is the largest |B(w, x)| over the points with w in canonical
    scaling.  Needs the points to span at least dimension n; the
    hyperboloid normal must come out spacelike.
    """
    if not points:
        raise InvalidInput("need at least one point")
    g = _same_space(*points)
    n = points[0].dimension
    rows = np.asarray([p.coords for p in points], dtype=float)
    if g == HYPERBOLIC:
        rows[:, 0] = -rows[:, 0]
    rk, w = _null_direction(rows, tol)
    if rk < n:
        raise DegenerateConfiguration(f"points span rank {rk} < {n}, section not determined")
    w = np.asarray(_normalize_float(w, 0.0)[0])
    if g == HYPERBOLIC and _lorentz_dot(w, w) <= 0:
        raise NotSpacelike("fitted section normal is not spacelike")
    residual = float(np.max(np.abs(rows @ w)))
    return XnHyperplane(geometry=g, normal=tuple(w)), residual


@dataclass(frozen=True)
class XnConfig:
    """Simplex-like vertex tuple on X^n plus one edge point per pair."""

    vertices: tuple
    edge_points: dict

    @property
    def geometry(self):
        return self.vertices[0].geometry

    @property
    def dimension(self):
        return self.vertices[0].dimension

    def validate(self, tol: Tolerance = DEFAULT_TOLERANCE):
        """Check the structure and return the ratio xn_lambda of every pair,
        all pairs in one batch on one array of the set's coordinates."""
        pts = list(self.vertices) + [self.edge_points[k] for k in sorted(self.edge_points)]
        _same_space(*pts)
        n = self.dimension
        if len(self.vertices) != n + 1:
            raise DimensionMismatch(
                f"need {n + 1} vertices on a {n}-dimensional space, got {len(self.vertices)}"
            )
        pairs = all_pairs(n + 1)
        if set(self.edge_points) != set(pairs):
            raise InvalidInput("edge point pairs do not cover all vertex pairs exactly once")
        # vertices, then the edge points in pair order
        rows = np.asarray([p.coords for p in pts], dtype=float)
        vertices = rows[:n + 1]
        if _float_rank(vertices, tol) != n + 1:
            raise DegenerateConfiguration("vertex vectors are linearly dependent")
        a_i, a_j = _pair_rows(vertices, pairs)
        ratios = _xn_ratios(self.geometry, a_i, a_j, rows[n + 1:], tol, pairs)
        return dict(zip(pairs, ratios.tolist()))


def verify_prop2(config: XnConfig, tol: Tolerance = DEFAULT_TOLERANCE) -> MenelausReport:
    """Test the triple products and common section of an X^n edge-point set.

    Same criterion as menelaus_products: every product lambda_ij^-1
    lambda_ik lambda_jk^-1 is 1 within tolerance and one hyperplane
    section carries all edge points within tolerance.
    """
    lambdas = config.validate(tol)
    points = [config.edge_points[p] for p in lambdas]
    return _menelaus_report(lambdas, points, xn_hyperplane_fit, tol)


def xn_edge_points_from_weights(vertices, weights, tol: Tolerance = DEFAULT_TOLERANCE) -> XnConfig:
    """Edge points b_ij ~ -w_j a_i + w_i a_j normalized back to the surface.

    Guarantees lambda_ij = w_i / w_j and puts every b_ij on the section
    {x : B(w, x) = 0} for the w interpolating B(w, a_k) = w_k.  On the
    hyperboloid the combination must be timelike and the arc condition
    satisfiable; pairs violating either are rejected.
    """
    vertices = tuple(vertices)
    g = _same_space(*vertices)
    if not xn_independent(vertices, tol):
        raise DegenerateConfiguration("vertex vectors are linearly dependent")
    _check_weights(vertices, weights)
    edge_points = {}
    for (i, j) in all_pairs(len(vertices)):
        wi, wj = float(weights[i - 1]), float(weights[j - 1])
        v = -wj * vertices[i - 1].as_array() + wi * vertices[j - 1].as_array()
        if g == SPHERICAL:
            nrm = float(np.linalg.norm(v))
            if nrm == 0.0:
                raise DegenerateConfiguration("weight combination vanished", pair=(i, j))
            candidates = [v / nrm, -v / nrm]
        else:
            s = _lorentz_dot(v, v)
            if s >= 0:
                raise NotTimelike(
                    "weight combination is not timelike; vertices too far apart "
                    "for this weight ratio", pair=(i, j),
                )
            w = v / math.sqrt(-s)
            candidates = [w if w[0] > 0 else -w]
        placed = None
        for cand in candidates:
            b = _make_point(g, cand)
            try:
                if arc_contains(vertices[i - 1], b, vertices[j - 1], tol):
                    placed = b
                    break
            except AntipodalPoints:
                continue
        if placed is None:
            raise ArcOrderViolation(
                "no sign choice puts the second vertex on the arc", pair=(i, j)
            )
        edge_points[(i, j)] = placed
    return XnConfig(vertices=vertices, edge_points=edge_points)
