"""Bounded and unbounded convex shapes plus pairwise homothety detection.

Three shape kinds are supported: Ball, VertexSet (a finite point cloud,
usually polytope vertices) and HalfspaceSet (intersection of closed half
spaces, possibly unbounded).  detect_homothety(src, dst) finds the unique
homothety with ratio above 1 mapping src onto dst, or explains why there
is none.  All shapes work on both scalar backends; each shape classifies
its data (exact or float) once: a half-space set while it canonicalises its
constraints, the others on first use.

Half-space non-emptiness is decided on first use, not at construction:
one LP on a float copy of the data, at most once per set.  A homothety
with a positive ratio maps a non-empty region onto a non-empty one, so a
detection from a non-empty set records its target as non-empty, and
apply_homothety its image, without an LP.  A family of n+1 half-space
sets therefore costs one LP: MongeConfig.build detects from input shape 1
to every other shape.  An empty set raises InfeasibleRegion where it is
first used: as the source of a detection, in apply_homothety, or in
size_measure.

scipy is imported on first use, not with this module: scipy.spatial when
a vertex set builds its KD-tree, scipy.optimize on the first half-space
LP; balls and edge-point scenarios never load it.

Every detection costs O(m) per pair beside the matching: a ball's ratio
is its radius ratio, a vertex set's is the square root of its second
moment ratio about the centroid, and a half-space set's comes from one
linear solve over matched constraints.  On floats that solve is refined
once against a residual computed without rounding error, so the result is
accurate to rounding, not to cond * eps, and run_monge's composed pairs
agree with direct detection.  MongeConfig.build orders a family
by these ratios, so no separate size is needed; size_measure is kept as a
public helper but is off the verify path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    DegenerateShape,
    DimensionMismatch,
    InfeasibleRegion,
    InvalidInput,
    NonUniqueHomothety,
    NotHomothetic,
    RatioNotGreaterThanOne,
    UnboundedShape,
)
from .kernel import (
    DEFAULT_TOLERANCE,
    Tolerance,
    _cleared,
    _exact_solve,
    _float_rank,
    _rank_from,
    is_exact,
)
from .menelaus import Homothety
from .errors import DegenerateConfiguration

__all__ = [
    "Ball",
    "VertexSet",
    "HalfspaceSet",
    "Halfspace",
    "detect_homothety",
    "size_measure",
    "apply_homothety",
]


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first LP."""
    from scipy import optimize

    return optimize.linprog(*args, **kwargs)


class _Shape:
    @cached_property
    def _exact(self):
        """True for int/Fraction data; classified once, on first use (a
        HalfspaceSet sets it while it canonicalises its constraints)."""
        return is_exact(self._data())


@dataclass(frozen=True)
class Ball(_Shape):
    center: tuple
    radius: object

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))
        if self.radius <= 0:
            raise InvalidInput("ball radius must be positive")

    @property
    def dimension(self):
        return len(self.center)

    def _data(self):
        return [self.center, self.radius]

    kind = "ball"


@dataclass(frozen=True)
class VertexSet(_Shape):
    """Finite set of points; duplicates are dropped on construction."""

    vertices: tuple

    def __post_init__(self):
        seen = list(dict.fromkeys(tuple(v) for v in self.vertices))
        if not seen:
            raise InvalidInput("vertex set must be non-empty")
        if len({len(v) for v in seen}) > 1:
            raise DimensionMismatch("vertices have inconsistent dimensions")
        object.__setattr__(self, "vertices", tuple(seen))

    @property
    def dimension(self):
        return len(self.vertices[0])

    def _data(self):
        return self.vertices

    @cached_property
    def _tree(self):
        """KD-tree over the vertices as floats (``.data``, in vertex order)."""
        from scipy.spatial import cKDTree

        return cKDTree(np.asarray(self.vertices, dtype=float))

    kind = "vertices"


def _unit_normal_float(normal, offset):
    normal = [float(x) for x in normal]
    try:
        sq = sum(x ** 2 for x in normal)
    except OverflowError:
        sq = math.inf
    # a sum of squares outside the normal float range has lost the norm;
    # math.hypot scales first, but only there: elsewhere its last bit can
    # differ from the plain sum's
    nrm = math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(*normal)
    if nrm == 0.0:
        raise InvalidInput("half-space normal must be nonzero")
    offset = float(offset) / nrm
    if not math.isfinite(offset):
        raise InvalidInput("half-space offset overflows the float range at unit normal")
    return tuple(x / nrm for x in normal), offset


def _primitive_normal_exact(normal, offset):
    ints, den = _cleared(normal)
    g = math.gcd(*ints)
    if not g:
        raise InvalidInput("half-space normal must be nonzero")
    # den / g > 0: orientation preserved
    return tuple(Fraction(v // g) for v in ints), Fraction(offset) * Fraction(den, g)


@dataclass(frozen=True)
class Halfspace:
    """Closed half-space {x : normal . x >= offset} in canonical scaling."""

    normal: tuple
    offset: object


@dataclass(frozen=True)
class HalfspaceSet(_Shape):
    """Intersection of closed half-spaces, canonically scaled.

    Construction canonicalises and validates the constraints but solves no
    LP: whether the intersection is empty is checked on first use (see the
    module docstring), so an empty set is built without error.
    """

    constraints: tuple

    def __post_init__(self):
        given = [(c.normal, c.offset) if isinstance(c, Halfspace) else c
                 for c in self.constraints]
        if not given:
            raise InvalidInput("half-space set must be non-empty")
        # one backend for the whole list: integer constraints beside float
        # ones are float data
        exact = is_exact([[list(n), d] for n, d in given])
        canonical = _primitive_normal_exact if exact else _unit_normal_float
        canon = [Halfspace(*canonical(n, d)) for n, d in given]
        object.__setattr__(self, "_exact", exact)
        if len({len(h.normal) for h in canon}) > 1:
            raise DimensionMismatch("constraint normals have inconsistent dimensions")
        if len({(h.normal, h.offset) for h in canon}) != len(canon):
            raise InvalidInput("duplicate half-space constraint")
        object.__setattr__(self, "constraints", tuple(canon))

    @cached_property
    def _nonempty(self):
        """True, or InfeasibleRegion when the constraints have an empty
        intersection: one float HiGHS LP, solved on first use.  A detection
        with a positive ratio onto this set sets it without an LP."""
        try:
            a = -np.asarray([[float(x) for x in h.normal] for h in self.constraints])
            b = -np.asarray([float(h.offset) for h in self.constraints])
        except OverflowError:  # exact data only: float data is finite already
            raise InvalidInput("half-space data exceed the float range of the "
                               "feasibility LP") from None
        res = linprog(np.zeros(self.dimension), A_ub=a, b_ub=b,
                      bounds=[(None, None)] * self.dimension, method="highs")
        if res.status != 0:
            raise InfeasibleRegion("half-space constraints have empty intersection")
        return True

    @property
    def dimension(self):
        return len(self.constraints[0].normal)

    def _data(self):
        return [(h.normal, h.offset) for h in self.constraints]

    kind = "halfspaces"


# ----------------------------------------------------------------------
# size

def _sq_dist_exact(u, v):
    return sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(u, v))


def _exact_sqrt(value: Fraction):
    if value < 0:
        return None
    p, q = value.numerator, value.denominator
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _vertexset_diameter(vs: VertexSet):
    if len(vs.vertices) == 1:
        return 0 if vs._exact else 0.0
    if vs._exact:
        best = max(_sq_dist_exact(u, v) for u, v in combinations(vs.vertices, 2))
        root = _exact_sqrt(best)
        return root if root is not None else math.sqrt(float(best))
    pts = np.asarray([[float(x) for x in v] for v in vs.vertices])
    best = 0.0
    for i in range(len(pts)):
        d = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        if d.size:
            best = max(best, float(d.max()))
    return best


def _halfspace_vertices(hs: HalfspaceSet, tol: Tolerance):
    n = hs.dimension
    normals = np.asarray([[float(x) for x in h.normal] for h in hs.constraints])
    offsets = np.asarray([float(h.offset) for h in hs.constraints])
    for sign in (1.0, -1.0):
        for axis in range(n):
            c = np.zeros(n)
            c[axis] = sign
            res = linprog(c, A_ub=-normals, b_ub=-offsets,
                          bounds=[(None, None)] * n, method="highs")
            if res.status == 3:
                raise UnboundedShape("half-space intersection is unbounded")
            if res.status != 0:
                raise InfeasibleRegion("half-space constraints have empty intersection")
    scale = max(1.0, float(np.abs(offsets).max()))
    slack = tol.scaled(scale)
    found = []
    for idx in combinations(range(len(hs.constraints)), n):
        a = normals[list(idx)]
        b = offsets[list(idx)]
        if _float_rank(a, tol) < n:
            continue
        x = np.linalg.lstsq(a, b, rcond=None)[0]
        if np.max(np.abs(a @ x - b)) > slack:
            continue
        if np.all(normals @ x >= offsets - slack):
            key = tuple(np.round(x, 9))
            if key not in {k for k, _ in found}:
                found.append((key, x))
    if not found:
        raise DegenerateShape("bounded half-space set has no vertices")
    return np.asarray([x for _, x in found])


def size_measure(shape, tol: Tolerance = DEFAULT_TOLERANCE):
    """Radius for balls, diameter for vertex sets and bounded polytopes.

    Raises UnboundedShape when the half-space intersection is unbounded
    and DegenerateShape when the extent is zero.  Verification does not
    call it: MongeConfig.build orders shapes by their detected homothety
    ratios.  On half-space sets it solves 2n LPs and enumerates C(m, n)
    vertex candidates; on vertex sets it takes an O(m^2) diameter.
    """
    if isinstance(shape, Ball):
        return shape.radius
    if isinstance(shape, VertexSet):
        d = _vertexset_diameter(shape)
        if d == 0:
            raise DegenerateShape("vertex set has zero diameter")
        return d
    if isinstance(shape, HalfspaceSet):
        verts = _halfspace_vertices(shape, tol)
        if len(verts) == 1:
            raise DegenerateShape("half-space set has zero diameter")
        best = 0.0
        for i in range(len(verts)):
            d = np.linalg.norm(verts[i + 1:] - verts[i], axis=1)
            if d.size:
                best = max(best, float(d.max()))
        return best
    raise InvalidInput(f"unsupported shape type {type(shape).__name__}")


# ----------------------------------------------------------------------
# homothety detection

def _exact_pair(src, dst):
    """Backend of a shape pair: the shapes' own flags when they agree,
    otherwise one walk over both (ints beside floats are float data, a
    Fraction beside a float is a BackendMixError)."""
    if src._exact == dst._exact:
        return src._exact
    return is_exact([src._data(), dst._data()])


def _center_from_ratio(lam, c_from, c_to):
    return tuple((lam * a - b) / (lam - 1) for a, b in zip(c_from, c_to))


def _ball_map(src: Ball, dst: Ball, tol: Tolerance, exact: bool) -> Homothety:
    num = Fraction if exact else float
    lam = num(dst.radius) / num(src.radius)
    if (lam == 1) if exact else (abs(lam - 1.0) <= tol.scaled(1.0)):
        raise RatioNotGreaterThanOne("equal radii give a translation, not a homothety")
    center = _center_from_ratio(lam, [num(x) for x in src.center], [num(x) for x in dst.center])
    return Homothety(center=center, ratio=lam)


def _moments_exact(vertices):
    """Centroid and second moment sum |v - g|^2 about it, in Fractions."""
    m = len(vertices)
    g = tuple(sum(Fraction(v[k]) for v in vertices) / m for k in range(len(vertices[0])))
    return g, sum(sum((Fraction(x) - c) ** 2 for x, c in zip(v, g)) for v in vertices)


def _vertexset_map(src: VertexSet, dst: VertexSet, tol: Tolerance, exact: bool) -> Homothety:
    # a homothety with ratio lam moves the centroid with the set and scales
    # the second moment about it by lam^2; the vertices must then map
    if len(src.vertices) != len(dst.vertices):
        raise NotHomothetic("vertex counts differ")
    if exact:
        g_from, m_from = _moments_exact(src.vertices)
        g_to, m_to = _moments_exact(dst.vertices)
        if m_from == 0 or m_to == 0:
            raise DegenerateShape("vertex set has zero diameter")
        lam = _exact_sqrt(m_to / m_from)
        if lam is None:
            raise NotHomothetic("second-moment ratio is not a rational square")
        if lam == 1:
            raise RatioNotGreaterThanOne("equal diameters give a translation")
        h = Homothety(center=_center_from_ratio(lam, g_from, g_to), ratio=lam)
        image = {h.apply(v) for v in src.vertices}
        target = {tuple(Fraction(x) for x in v) for v in dst.vertices}
        if image != target:
            raise NotHomothetic("centroid and second moment agree but vertices do not map")
        return h
    pts_from = src._tree.data
    pts_to = dst._tree.data
    # a moment beyond the float range ends in InvalidInput below: a ratio of
    # 0, or images the tree query refuses
    with np.errstate(all="ignore"):
        g_from = pts_from.mean(axis=0)
        g_to = pts_to.mean(axis=0)
        m_from = float(np.square(pts_from - g_from).sum())
        dev_to = np.square(pts_to - g_to).sum(axis=1)
        m_to = float(dev_to.sum())
    if m_from == 0.0 or m_to == 0.0:
        raise DegenerateShape("vertex set has zero diameter")
    lam = math.sqrt(m_to / m_from)
    if abs(lam - 1.0) <= tol.scaled(1.0):
        raise RatioNotGreaterThanOne("equal diameters give a translation")
    center = _center_from_ratio(lam, g_from.tolist(), g_to.tolist())
    h = Homothety(center=center, ratio=lam)
    # every image vertex must lie near a target vertex and every target
    # vertex near an image vertex; the largest distance from the centroid,
    # at most the diameter, scales the tolerance
    reach = tol.scaled(math.sqrt(float(dev_to.max())))
    c = np.asarray(center)
    try:
        near_target = dst._tree.query(c + lam * (pts_from - c), distance_upper_bound=reach)[0]
        # the target pulled back by h against the source: distances shrink by lam
        near_image = src._tree.query(c + (pts_to - c) / lam, distance_upper_bound=reach / lam)[0]
    except ValueError:  # the tree refuses non-finite points: the images overflowed
        raise InvalidInput("vertex images under the homothety overflow the float range") from None
    if np.isinf(near_target).any() or np.isinf(near_image).any():
        raise NotHomothetic("centroid and second moment agree but vertices do not map")
    return h


# float elements in one block of the difference _match_constraints broadcasts
_MATCH_BLOCK = 1 << 16


def _match_constraints(src: HalfspaceSet, dst: HalfspaceSet, tol: Tolerance, exact: bool):
    if len(src.constraints) != len(dst.constraints):
        raise NotHomothetic("constraint counts differ")
    if exact:
        groups_src = {}
        groups_dst = {}
        for h in src.constraints:
            groups_src.setdefault(h.normal, []).append(h.offset)
        for h in dst.constraints:
            groups_dst.setdefault(h.normal, []).append(h.offset)
        if set(groups_src) != set(groups_dst):
            raise NotHomothetic("constraint normals do not match")
        matched = []
        for normal in sorted(groups_src, key=str):
            a = sorted(groups_src[normal])
            b = sorted(groups_dst[normal])
            if len(a) != len(b):
                raise NotHomothetic("constraint normals do not match")
            matched.extend((normal, da, db) for da, db in zip(a, b))
        return matched
    # greedy: each source constraint in turn takes the nearest unused target
    # normal (the first one on a tie)
    a = np.asarray([h.normal for h in src.constraints], dtype=float)
    b = np.asarray([g.normal for g in dst.constraints], dtype=float)
    # unit normals: allow a generous but still tiny direction gap
    limit = math.sqrt(tol.scaled(1.0))
    taken = np.zeros(len(b), dtype=bool)
    matched = []
    # gaps for a block of source rows at a time: the whole m x m x n
    # difference would need gigabytes for m in the tens of thousands
    step = max(1, _MATCH_BLOCK // b.size)
    for start in range(0, len(a), step):
        gaps = np.linalg.norm(a[start:start + step, None, :] - b[None, :, :], axis=2)
        gaps[:, taken] = np.inf
        for h, row in zip(src.constraints[start:start + step], gaps):
            k = int(np.argmin(row))
            if row[k] > limit:
                raise NotHomothetic("constraint normals do not match")
            gaps[:, k] = np.inf
            taken[k] = True
            matched.append((h.normal, h.offset, dst.constraints[k].offset))
    return matched


def _split(a: np.ndarray):
    """Veltkamp split: a = hi + lo exactly, each half with 26 bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _exact_residual(rows: np.ndarray, sol: np.ndarray, rhs: np.ndarray):
    """rhs - rows @ sol with one rounding per entry: each product is split
    into two floats exactly (Dekker) and every row is summed by math.fsum.
    None when an entry is not below 2**500, where the split could overflow."""
    if not max(np.abs(rows).max(), np.abs(sol).max(), np.abs(rhs).max()) < 2.0 ** 500:
        return None
    p = rows * sol
    ah, al = _split(rows)
    bh, bl = _split(sol)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return np.asarray([math.fsum((b, *ps, *es))
                       for b, ps, es in zip(rhs.tolist(), (-p).tolist(), (-e).tolist())])


def _halfspaceset_map(src: HalfspaceSet, dst: HalfspaceSet, tol: Tolerance,
                      exact: bool) -> Homothety:
    matched = _match_constraints(src, dst, tol, exact)
    n = src.dimension
    # image of {x : a.x >= d} under (b, lam>0) is {x : a.x >= lam d + (1-lam) a.b};
    # with c = (1 - lam) b the unknowns (lam, c) satisfy d_from*lam + a.c = d_to
    if exact:
        rows = [[Fraction(d_from)] + [Fraction(x) for x in normal] for normal, d_from, _ in matched]
        rhs = [Fraction(d_to) for _, _, d_to in matched]
        try:
            sol = _exact_solve(rows, rhs)
        except DegenerateConfiguration:
            raise NonUniqueHomothety(
                "constraints do not pin down a unique homothety"
            ) from None
        if sol is None:
            raise NotHomothetic("no homothety maps the constraints onto each other")
        lam, c = sol[0], sol[1:]
        if lam == 1:
            raise RatioNotGreaterThanOne("shapes are translates")
        center = tuple(x / (1 - lam) for x in c)
        return Homothety(center=center, ratio=lam)
    rows = np.asarray(
        [[float(d_from)] + [float(x) for x in normal] for normal, d_from, _ in matched]
    )
    rhs = np.asarray([float(d_to) for _, _, d_to in matched])
    u, sing, vt = np.linalg.svd(rows, full_matrices=False)
    if _rank_from(sing, tol) < n + 1:
        raise NonUniqueHomothety("constraints do not pin down a unique homothety")
    sol = vt.T @ ((u.T @ rhs) / sing)
    # one refinement step against the exact residual, with the same SVD:
    # the float solve is only accurate to cond * eps, and composed pairs
    # (run_monge) must agree with a direct detection to rounding
    residual = _exact_residual(rows, sol, rhs)
    if residual is not None:
        sol = sol + vt.T @ ((u.T @ residual) / sing)
    scale = max(1.0, float(np.abs(rhs).max()))
    if float(np.max(np.abs(rows @ sol - rhs))) > tol.scaled(scale):
        raise NotHomothetic("no homothety maps the constraints onto each other")
    lam = float(sol[0])
    if abs(lam - 1.0) <= tol.scaled(1.0):
        raise RatioNotGreaterThanOne("shapes are translates")
    center = tuple(float(x) / (1.0 - lam) for x in sol[1:])
    return Homothety(center=center, ratio=lam)


# per kind: the detector and the message for a ratio below 1
_MAPS = {
    Ball: (_ball_map, "target ball is smaller than source"),
    VertexSet: (_vertexset_map, "target vertex set is smaller than source"),
    HalfspaceSet: (_halfspaceset_map, "target is smaller than source"),
}


def _homothety(src, dst, tol: Tolerance) -> Homothety:
    """The homothety h with h(src) = dst, whatever its ratio.

    Raises as detect_homothety does, except that a ratio below 1 is
    returned.  A ratio of 1 (a translation) still raises
    RatioNotGreaterThanOne: it has no center.  The ratio of half-space
    sets comes from a linear solve and may be negative.
    """
    if type(src) is not type(dst):
        raise NotHomothetic("shapes must have the same kind")
    if src.dimension != dst.dimension:
        raise DimensionMismatch("shapes must share a dimension")
    if type(src) not in _MAPS:
        raise InvalidInput(f"unsupported shape type {type(src).__name__}")
    halfspaces = type(src) is HalfspaceSet
    if halfspaces:
        src._nonempty  # raises InfeasibleRegion for an empty region
    exact = _exact_pair(src, dst)
    h = _MAPS[type(src)][0](src, dst, tol, exact)
    if not exact and not all(map(math.isfinite, (h.ratio, *h.center))):
        raise InvalidInput("homothety ratio or center overflows the float range")
    if halfspaces and h.ratio > 0:
        # h maps the non-empty src onto dst, so dst is non-empty: no LP for it
        object.__setattr__(dst, "_nonempty", True)
    return h


def detect_homothety(src, dst, tol: Tolerance = DEFAULT_TOLERANCE) -> Homothety:
    """Unique homothety h with h(src) = dst and ratio above 1.

    Shapes must share kind and dimension.  Equal sizes mean the map is a
    translation and raise RatioNotGreaterThanOne, as does a target smaller
    than the source; pairs that no homothety relates, or only a negative
    one, raise NotHomothetic; pairs related by infinitely many (parallel
    half-plane translates, say) raise NonUniqueHomothety.  A float ratio or
    center that overflows (sizes too far apart) raises InvalidInput.
    """
    h = _homothety(src, dst, tol)
    if h.ratio < 0:
        raise NotHomothetic("no homothety with a positive ratio relates the shapes")
    if h.ratio < 1:
        raise RatioNotGreaterThanOne(_MAPS[type(src)][1])
    return h


def apply_homothety(h: Homothety, shape):
    """Image shape under the homothety (exact when the data is exact)."""
    if isinstance(shape, Ball):
        r = h.ratio if h.ratio > 0 else -h.ratio
        return Ball(center=h.apply(shape.center), radius=r * shape.radius)
    if isinstance(shape, VertexSet):
        return VertexSet(vertices=tuple(h.apply(v) for v in shape.vertices))
    if isinstance(shape, HalfspaceSet):
        if h.ratio <= 0:
            raise InvalidInput("half-space homothety needs a positive ratio")
        out = []
        for c in shape.constraints:
            shifted = sum(a * b for a, b in zip(c.normal, h.center))
            out.append((c.normal, h.ratio * c.offset + (1 - h.ratio) * shifted))
        image = HalfspaceSet(constraints=tuple(out))
        # the image of a non-empty region is non-empty: no LP for it
        object.__setattr__(image, "_nonempty", shape._nonempty)
        return image
    raise InvalidInput(f"unsupported shape type {type(shape).__name__}")
