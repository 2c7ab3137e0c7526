"""Seeded random scenario generation for all three geometries.

The random source is a 64-bit splitmix stream implemented directly from
its output contract (documented on SplitMix64 below), so a seed and an
index fully determine each scenario independent of numpy or platform RNG
details.  Sampling and every accept/reject decision use plain arithmetic
on stream draws, never library factorizations, to keep regeneration
reproducible.

Positive cases come from the weight constructions, so they verify true by
construction.  Negative cases move one edge point along its own line by a
relative amount; the bands below keep that perturbation's effect on the
triple products and on the hyperplane fit well above the verifier's
tolerance (see the margin checks in the Euclidean branch).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import GenerationError, GeometryError, InvalidInput
from .kernel import DEFAULT_TOLERANCE, Tolerance
from .menelaus import EdgePointSet, Homothety, all_pairs, edge_points_from_weights
from .monge import MongeConfig
from .noneuclid import (
    HYPERBOLIC,
    SPHERICAL,
    XnConfig,
    _surface_points,
    geodesic_distance,
    xn_edge_points_from_weights,
    xn_homothety_image,
)
from .shapes import Ball, VertexSet, apply_homothety

__all__ = [
    "SplitMix64",
    "GenSpec",
    "gen_ball_config",
    "gen_vertex_config",
    "gen_menelaus_case",
    "gen_rational_case",
]

EUCLIDEAN = "euclidean"

MASK64 = (1 << 64) - 1
RETRY_CAP = 1000

EUCLID_BOX = 10.0
PIVOT_REL = 1e-2
WEIGHT_START = (1.0, 1.3)
WEIGHT_FACTOR = (1.2, 1.3)
SPHERE_DIST = (0.5, 2.2)
SPHERE_FACTOR = (1.25, 1.45)
HYPER_RADIUS = 0.45
HYPER_DIR_SEP = 0.7
HYPER_MIN_DIST = 0.2
HYPER_FACTOR = (1.2, 1.35)
# accept a Euclidean negative draw only when the moved point must sit at
# least this far (relative) off the witness plane; keeps criterion-level
# failure residuals comfortably above 1e-4 at the default 1e-2 perturbation
NEG_PLANE_MARGIN = 4e-4


class SplitMix64:
    """Seedable 64-bit stream with a fixed, portable output contract.

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64, then the output is
    state mixed by two xor-shift-multiply rounds:

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9  (mod 2^64)
        z ^= z >> 27;  z *= 0x94D049BB133111EB  (mod 2^64)
        z ^= z >> 31

    ``random()`` is the top 53 bits of an output scaled by 2^-53, the
    usual uniform-in-[0,1) construction.  Every other draw is defined in
    terms of these two, so any implementation of the contract reproduces
    whole scenarios from a seed.
    """

    GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed):
        self.state = int(seed) & MASK64

    def next_u64(self):
        self.state = (self.state + self.GAMMA) & MASK64
        return _mix(self.state)

    def random(self):
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random()

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi], inclusive, by rejection."""
        span = hi - lo + 1
        if span <= 0:
            raise InvalidInput("empty integer range")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def gauss(self):
        """One standard normal draw (Box-Muller, cosine branch only)."""
        u1 = self.random()
        while u1 == 0.0:
            u1 = self.random()
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _mix(z):
    """The two xor-shift-multiply rounds of SplitMix64's output function."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _child_rng(seed, index):
    """Stream for the index-th scenario of a batch rooted at seed.

    Its seed is draw index+1 of the root stream.  After k steps the root
    state is seed + k * GAMMA (mod 2^64), so that draw is computed directly,
    in O(1) rather than by walking the stream.
    """
    return SplitMix64(_mix((int(seed) + (index + 1) * SplitMix64.GAMMA) & MASK64))


@dataclass(frozen=True)
class GenSpec:
    """Parameters pinning down one generated batch."""

    dimension: int
    seed: int
    kind: str
    geometry: str = EUCLIDEAN
    count: int = 1
    ratio_gap: float = 1.5
    perturb: float | None = None

    def __post_init__(self):
        if self.geometry not in (EUCLIDEAN, SPHERICAL, HYPERBOLIC):
            raise InvalidInput(f"unknown geometry {self.geometry!r}")
        if self.kind not in ("balls", "vertex_sets", "edge_points"):
            raise InvalidInput(f"unknown kind {self.kind!r}")
        if self.geometry != EUCLIDEAN and self.kind != "edge_points":
            raise InvalidInput("spherical and hyperbolic generation is edge_points only")
        if self.dimension < 2:
            raise InvalidInput("dimension must be at least 2")
        if not 0 <= int(self.seed) <= MASK64:
            raise InvalidInput("seed must fit in 64 bits")
        if self.count < 0:
            raise InvalidInput("count must be non-negative")
        if self.kind in ("balls", "vertex_sets"):
            if not self.ratio_gap > 1:
                raise InvalidInput("ratio_gap must exceed 1 for shape generation")
            # the largest shape is about ratio_gap ** dimension times the smallest
            if self.dimension * math.log(self.ratio_gap) >= math.log(sys.float_info.max):
                raise InvalidInput("ratio_gap ** dimension overflows the float range")
        if self.perturb is not None and not 0 < self.perturb < 1:
            raise InvalidInput("perturb must be in (0, 1)")


def _min_pivot(rows):
    """Smallest pivot magnitude of a partial-pivot elimination, 0 if singular.

    Plain Python on purpose: accept/reject decisions must not depend on
    the installed BLAS.
    """
    work = [list(map(float, r)) for r in rows]
    m, c = len(work), len(work[0])
    smallest = math.inf
    row = 0
    for col in range(c):
        if row == m:
            break
        best = max(range(row, m), key=lambda i: abs(work[i][col]))
        p = work[best][col]
        if p == 0.0:
            return 0.0
        work[row], work[best] = work[best], work[row]
        smallest = min(smallest, abs(p))
        for i in range(row + 1, m):
            f = work[i][col] / p
            for jj in range(col, c):
                work[i][jj] -= f * work[row][jj]
        row += 1
    if row < m:
        return 0.0
    return smallest


def _solve_square(rows, rhs):
    """Partial-pivot solve of a small square system, again BLAS-free."""
    n = len(rows)
    work = [list(map(float, rows[i])) + [float(rhs[i])] for i in range(n)]
    for col in range(n):
        best = max(range(col, n), key=lambda i: abs(work[i][col]))
        if work[best][col] == 0.0:
            return None
        work[col], work[best] = work[best], work[col]
        p = work[col][col]
        for i in range(col + 1, n):
            f = work[i][col] / p
            for jj in range(col, n + 1):
                work[i][jj] -= f * work[col][jj]
    out = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = work[i][n] - sum(work[i][jj] * out[jj] for jj in range(i + 1, n))
        out[i] = acc / work[i][i]
    return out


def _affinely_spread(points, scale):
    rows = [[p[k] - points[0][k] for k in range(len(p))] for p in points[1:]]
    return _min_pivot(rows) >= PIVOT_REL * scale


def _draw_euclid_vertices(rng, n):
    for _ in range(RETRY_CAP):
        pts = [tuple(rng.uniform(-EUCLID_BOX, EUCLID_BOX) for _ in range(n))
               for _ in range(n + 1)]
        if _affinely_spread(pts, EUCLID_BOX):
            return pts
    raise GenerationError("could not draw a well-spread Euclidean simplex")


def _draw_euclid_weights(rng, n):
    weights = [rng.uniform(*WEIGHT_START)]
    for _ in range(n):
        weights.append(weights[-1] * rng.uniform(*WEIGHT_FACTOR))
    rng.shuffle(weights)
    return tuple(weights)


def gen_ball_config(spec: GenSpec, index=0, tol: Tolerance = DEFAULT_TOLERANCE) -> MongeConfig:
    """n+1 balls with centers an affinely independent random simplex."""
    if spec.kind != "balls":
        raise InvalidInput("spec kind must be 'balls'")
    rng = _child_rng(spec.seed, index)
    n = spec.dimension
    centers = _draw_euclid_vertices(rng, n)
    scale = rng.uniform(0.5, 2.0)
    shapes = [Ball(center=centers[k], radius=scale * spec.ratio_gap ** (n - k))
              for k in range(n + 1)]
    return MongeConfig.build(shapes, tol)


def gen_vertex_config(spec: GenSpec, index=0, tol: Tolerance = DEFAULT_TOLERANCE) -> MongeConfig:
    """A random base vertex set plus n homothets of it at growing ratios."""
    if spec.kind != "vertex_sets":
        raise InvalidInput("spec kind must be 'vertex_sets'")
    rng = _child_rng(spec.seed, index)
    n = spec.dimension
    m = rng.randint(n + 1, max(n + 1, 12))
    base = VertexSet(vertices=tuple(
        tuple(rng.uniform(-EUCLID_BOX, EUCLID_BOX) for _ in range(n)) for _ in range(m)
    ))
    shapes = [base]
    ratio = 1.0
    for _ in range(n):
        ratio *= spec.ratio_gap * (1.0 + 0.3 * rng.random())
        center = tuple(rng.uniform(-EUCLID_BOX, EUCLID_BOX) for _ in range(n))
        shapes.append(apply_homothety(Homothety(center=center, ratio=ratio), base))
    rng.shuffle(shapes)
    return MongeConfig.build(shapes, tol)


def _euclid_negative_margin(vertices, weights, edge_points, perturb):
    """Lower bound on the relative plane residual the perturbation causes.

    The witness plane has g(a_k) = w_k for an affine g, so the vertex with
    the largest weight sits farthest from it.  Moving an edge point along
    its line by the relative amount eps, anchored at that vertex, puts it
    at distance eps * dist(anchor, plane) off the plane.  Normalized by
    the edge-point spread this must clear the acceptance band with room
    for the refit tilting toward the outlier.
    """
    n = len(vertices[0])
    rows = [list(v) + [1.0] for v in vertices]
    # square system: n+1 vertices, n+1 unknowns (gradient and constant)
    sol = _solve_square(rows, list(weights))
    if sol is None:
        return 0.0
    grad = math.sqrt(sum(c * c for c in sol[:n]))
    if grad == 0.0:
        return 0.0
    pts = list(edge_points.values())
    spread = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            spread = max(spread, math.dist(pts[i], pts[j]))
    if spread == 0.0:
        return 0.0
    return perturb * (max(weights) / grad) / spread


def _anchored_pair(weights):
    """Edge whose perturbation moves farthest off the plane: heaviest vertex
    as anchor, lightest as partner (their ratio also maximizes the product
    violation)."""
    hi = max(range(len(weights)), key=lambda k: weights[k]) + 1
    lo = min(range(len(weights)), key=lambda k: weights[k]) + 1
    return (min(hi, lo), max(hi, lo)), hi


def _perturb_euclid(eps, weights, factor):
    """``eps`` with its anchored edge point moved ``factor`` times as far
    from the anchor vertex."""
    (i, j), hi = _anchored_pair(weights)
    anchor = eps.vertices[hi - 1]
    b = eps.edge_points[(i, j)]
    moved = tuple(a + factor * (x - a) for a, x in zip(anchor, b))
    points = dict(eps.edge_points)
    points[(i, j)] = moved
    return EdgePointSet(vertices=eps.vertices, edge_points=points)


def _gen_euclid_menelaus(rng, spec, positive, tol):
    for _ in range(RETRY_CAP):
        vertices = _draw_euclid_vertices(rng, spec.dimension)
        weights = _draw_euclid_weights(rng, spec.dimension)
        eps = edge_points_from_weights(vertices, weights, tol)
        if positive:
            return eps
        margin = _euclid_negative_margin(vertices, weights, eps.edge_points, spec.perturb)
        if margin >= NEG_PLANE_MARGIN:
            return _perturb_euclid(eps, weights, 1.0 + spec.perturb)
    raise GenerationError("could not draw a usable configuration")


def _draw_sphere_vertices(rng, n):
    lo, hi = SPHERE_DIST
    for _ in range(RETRY_CAP):
        pts = []
        for _ in range(n + 1):
            v = [rng.gauss() for _ in range(n + 1)]
            nrm = math.sqrt(sum(x * x for x in v))
            if nrm < 1e-6:
                break
            pts.append(tuple(x / nrm for x in v))
        if len(pts) < n + 1:
            continue
        dots = [sum(a * b for a, b in zip(pts[i], pts[j]))
                for i in range(n + 1) for j in range(i + 1, n + 1)]
        dists = [math.acos(min(1.0, max(-1.0, d))) for d in dots]
        if min(dists) < lo or max(dists) > hi:
            continue
        if _min_pivot(pts) >= PIVOT_REL:
            return _surface_points(SPHERICAL, pts)
    raise GenerationError("could not draw a spread spherical vertex tuple")


def _draw_hyperbolic_vertices(rng, n):
    """n+1 hyperboloid points at controlled mutual distances.

    Spatial parts sit on a sphere of radius HYPER_RADIUS in well-separated
    directions, which keeps every pairwise distance moderate.  Small
    distances matter: the weight chain divides by exp of them, and huge
    ratios would park edge points too close to a vertex for clean floats.
    """
    for _ in range(RETRY_CAP):
        dirs = []
        for _ in range(n + 1):
            w = [rng.gauss() for _ in range(n)]
            nrm = math.sqrt(sum(x * x for x in w))
            if nrm < 1e-6:
                break
            dirs.append([x / nrm for x in w])
        if len(dirs) < n + 1:
            continue
        sep = min(math.dist(dirs[i], dirs[j])
                  for i in range(n + 1) for j in range(i + 1, n + 1))
        if sep < HYPER_DIR_SEP:
            continue
        rows = []
        for w in dirs:
            u = [HYPER_RADIUS * x for x in w]
            rows.append([math.sqrt(1.0 + sum(x * x for x in u))] + u)
        pts = _surface_points(HYPERBOLIC, rows)
        dists = [geodesic_distance(pts[i], pts[j])
                 for i in range(n + 1) for j in range(i + 1, n + 1)]
        if min(dists) < HYPER_MIN_DIST:
            continue
        if _min_pivot([p.coords for p in pts]) >= PIVOT_REL:
            adjacent = [geodesic_distance(pts[k], pts[k + 1]) for k in range(n)]
            return pts, adjacent
    raise GenerationError("could not draw a spread hyperbolic vertex tuple")


def _perturb_xn(rng, config, perturb):
    pairs = all_pairs(len(config.vertices))
    i, j = pairs[rng.randint(0, len(pairs) - 1)]
    a_i, a_j = config.vertices[i - 1], config.vertices[j - 1]
    b = config.edge_points[(i, j)]
    d = geodesic_distance(a_i, a_j)
    t = geodesic_distance(a_i, b)
    t_new = d + (t - d) * (1.0 + perturb)
    if config.geometry == SPHERICAL and t_new >= math.pi - 1e-3:
        t_new = d + (t - d) * (1.0 - perturb)
    moved = xn_homothety_image(a_i, b, t_new / t)
    points = dict(config.edge_points)
    points[(i, j)] = moved
    return XnConfig(vertices=config.vertices, edge_points=points)


def _gen_xn_menelaus(rng, spec, positive, tol):
    n = spec.dimension
    for _ in range(RETRY_CAP):
        if spec.geometry == SPHERICAL:
            vertices = _draw_sphere_vertices(rng, n)
            weights = [rng.uniform(*WEIGHT_START)]
            for _ in range(n):
                weights.append(weights[-1] * rng.uniform(*SPHERE_FACTOR))
            rng.shuffle(weights)
        else:
            vertices, adjacent = _draw_hyperbolic_vertices(rng, n)
            # ratio ln(w_i/w_j) exceeds the path length from i to j, which by
            # the triangle inequality exceeds d_ij: every pair is feasible
            weights = [1.0]
            for step in adjacent:
                factor = math.exp(step) * rng.uniform(*HYPER_FACTOR)
                weights.append(weights[-1] / factor)
        try:
            config = xn_edge_points_from_weights(tuple(vertices), tuple(weights), tol)
        except GeometryError:
            continue
        if positive:
            return config
        return _perturb_xn(rng, config, spec.perturb)
    raise GenerationError(f"could not construct a {spec.geometry} configuration")


def gen_menelaus_case(spec: GenSpec, positive=True, index=0,
                      tol: Tolerance = DEFAULT_TOLERANCE):
    """One edge-point instance; true by construction, or false by perturbation."""
    if spec.kind != "edge_points":
        raise InvalidInput("spec kind must be 'edge_points'")
    if not positive and spec.perturb is None:
        raise InvalidInput("negative cases need a perturb magnitude")
    rng = _child_rng(spec.seed, index)
    if spec.geometry == EUCLIDEAN:
        return _gen_euclid_menelaus(rng, spec, positive, tol)
    return _gen_xn_menelaus(rng, spec, positive, tol)


def gen_rational_case(spec: GenSpec, positive=True, index=0) -> EdgePointSet:
    """Euclidean edge-point instance with exact rational coordinates."""
    if spec.kind != "edge_points":
        raise InvalidInput("spec kind must be 'edge_points'")
    if spec.geometry != EUCLIDEAN:
        raise InvalidInput("rational generation is Euclidean only")
    if not positive and spec.perturb is None:
        raise InvalidInput("negative cases need a perturb magnitude")
    rng = _child_rng(spec.seed, index)
    n = spec.dimension
    for _ in range(RETRY_CAP):
        vertices = [tuple(Fraction(rng.randint(-1000, 1000), 100) for _ in range(n))
                    for _ in range(n + 1)]
        if not _affinely_spread([[float(x) for x in v] for v in vertices], EUCLID_BOX):
            continue
        weights = [Fraction(rng.randint(100, 130), 100)]
        for _ in range(n):
            weights.append(weights[-1] * Fraction(rng.randint(120, 130), 100))
        rng.shuffle(weights)
        eps = edge_points_from_weights(tuple(vertices), tuple(weights))
        if positive:
            return eps
        return _perturb_euclid(eps, weights, 1 + Fraction(spec.perturb).limit_denominator(1000))
    raise GenerationError("could not draw a usable rational configuration")
