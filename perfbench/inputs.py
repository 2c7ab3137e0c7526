"""Seeded scenarios for the benchmark workloads.

Every scenario is built here from a known construction, with plain Python
arithmetic on a ``random.Random`` stream, so the same seed gives the same
files and the checkers know what the program must report.  Nothing in
this module imports mongekit.

Edge-point scenarios use the weight construction: with positive pairwise
distinct weights w, the point on line (a_i, a_j) with signed ratio
lambda_ij = w_i / w_j exists in E^n, S^n and H^n, and all such points lie
on one hyperplane (section).  A negative moves one edge point by 1e-2
along its own line, which breaks both the products and the coplanarity.

Shape scenarios are n+1 images of one base shape under homotheties
x -> r_k x + t_k, so every pairwise center and ratio has a closed form.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

EDGE_DIM = 8          # edge-float: E^8, S^8 and H^8
EXACT_DIM = 6         # edge-exact: rational E^6
PERTURB = 1e-2        # relative move of one edge point in a negative
EXACT_PERTURB = Fraction(1, 100)
HYPER_RADIUS = 0.25   # spatial radius of the hyperboloid vertices

# shapes: (dimension, size) per kind; chosen so the three kinds cost alike
BALL_DIM = 10
VERTEX_CASES = ((2, 75), (3, 38))        # (dimension, points per set), alike in cost
# 2D only: a 3D set needs 28 LPs per scenario against 15 in 2D, which
# would make it a kind of its own at twice the cost
HALFSPACE_CASE = (2, 10)                  # (dimension, constraints per set)

# generate: one dimension, a corpus sampled at a fixed stride
GEN_DIM = 3
GEN_STRIDE = 250
GEN_VARIANTS = ("balls", "vertex_sets", "euclidean", "rational", "spherical", "hyperbolic")

# operations in one round; at least 100 so that ten lie beyond the p90
OPS_PER_ROUND = 120
SHAPES_OPS = 102      # a shapes operation costs about four edge operations


def stream(workload, seed):
    return random.Random(f"perfbench/{workload}/{seed}")


# ----------------------------------------------------------------------
# small vector helpers (plain floats)

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lorentz(u, v):
    return -u[0] * v[0] + sum(a * b for a, b in zip(u[1:], v[1:]))


def _scale(s, u):
    return [s * x for x in u]


def _add(u, v):
    return [a + b for a, b in zip(u, v)]


def _sub(u, v):
    return [a - b for a, b in zip(u, v)]


def _unit(u):
    nrm = math.sqrt(_dot(u, u))
    return [x / nrm for x in u]


def encode(x):
    """JSON form of a coordinate: Fractions become ints or 'p/q' strings."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def pairs(count):
    return [(i, j) for i in range(1, count + 1) for j in range(i + 1, count + 1)]


def _edge_object(geometry, dim, vertices, points, expect):
    return {
        "geometry": geometry,
        "dimension": dim,
        "kind": "edge_points",
        "vertices": [[encode(x) for x in v] for v in vertices],
        "edge_points": [{"pair": [i, j], "point": [encode(x) for x in points[(i, j)]]}
                        for (i, j) in sorted(points)],
        "expect": expect,
    }


# ----------------------------------------------------------------------
# edge points

def _chain_weights(rng, count, lo, hi):
    weights = [rng.uniform(1.0, 1.3)]
    for _ in range(count - 1):
        weights.append(weights[-1] * rng.uniform(lo, hi))
    rng.shuffle(weights)
    return weights


def _jittered_simplex(rng, n, jitter, unit):
    """n+1 well-spread points: 0 and 10 e_k, jittered and translated."""
    shift = [unit(rng, -5, 5) for _ in range(n)]
    out = []
    for k in range(n + 1):
        base = [10 * int(c == k - 1) for c in range(n)]
        out.append([b + unit(rng, -jitter, jitter) + s for b, s in zip(base, shift)])
    return out


def euclid_edge_case(rng, n, positive):
    vertices = _jittered_simplex(rng, n, 1.0, lambda r, a, b: r.uniform(a, b))
    weights = _chain_weights(rng, n + 1, 1.2, 1.3)
    points = {}
    for (i, j) in pairs(n + 1):
        wi, wj = weights[i - 1], weights[j - 1]
        points[(i, j)] = [(wj * x - wi * y) / (wj - wi)
                          for x, y in zip(vertices[i - 1], vertices[j - 1])]
    if not positive:
        i, j = rng.choice(pairs(n + 1))
        a, b = vertices[i - 1], points[(i, j)]
        points[(i, j)] = [x + (1 + PERTURB) * (y - x) for x, y in zip(a, b)]
    return _edge_object("euclidean", n, vertices, points, positive)


def exact_edge_case(rng, n, positive):
    vertices = _jittered_simplex(rng, n, 1, lambda r, a, b: Fraction(r.randint(100 * a, 100 * b), 100))
    weights = [Fraction(rng.randint(100, 130), 100)]
    for _ in range(n):
        weights.append(weights[-1] * Fraction(rng.randint(120, 130), 100))
    rng.shuffle(weights)
    points = {}
    for (i, j) in pairs(n + 1):
        wi, wj = weights[i - 1], weights[j - 1]
        points[(i, j)] = [(wj * x - wi * y) / (wj - wi)
                          for x, y in zip(vertices[i - 1], vertices[j - 1])]
    if not positive:
        i, j = rng.choice(pairs(n + 1))
        a, b = vertices[i - 1], points[(i, j)]
        points[(i, j)] = [x + (1 + EXACT_PERTURB) * (y - x) for x, y in zip(a, b)]
    return _edge_object("euclidean", n, vertices, points, positive)


def _sphere_vertices(rng, n):
    return [_unit([int(c == k) + rng.uniform(-0.3, 0.3) for c in range(n + 1)])
            for k in range(n + 1)]


def _simplex_directions(n):
    """Unit vertex directions of a regular simplex in R^n (Helmert basis)."""
    dirs = []
    for i in range(n + 1):
        d = []
        for k in range(1, n + 1):
            if i < k:
                d.append(1.0 / math.sqrt(k * (k + 1)))
            elif i == k:
                d.append(-k / math.sqrt(k * (k + 1)))
            else:
                d.append(0.0)
        dirs.append(_unit(d))
    return dirs


def _hyperboloid_vertices(rng, n):
    out = []
    for d in _simplex_directions(n):
        u = _scale(HYPER_RADIUS, _unit([x + rng.uniform(-0.1, 0.1) for x in d]))
        out.append([math.sqrt(1.0 + _dot(u, u))] + u)
    return out


def geodesic(geometry, u, v):
    """Geodesic distance from chord lengths, accurate for close points."""
    d = _sub(u, v)
    if geometry == "spherical":
        s = _add(u, v)
        return 2.0 * math.atan2(math.sqrt(_dot(d, d)), math.sqrt(_dot(s, s)))
    return 2.0 * math.asinh(math.sqrt(max(0.0, _lorentz(d, d))) / 2.0)


def to_surface(geometry, v):
    """Ambient vector rescaled onto the unit sphere or the hyperboloid."""
    q = _dot(v, v) if geometry == "spherical" else -_lorentz(v, v)
    return _scale(1.0 / math.sqrt(q), v)


def move_along(geometry, a, b, t_new):
    """Point on the geodesic from a through b at distance t_new from a."""
    t = geodesic(geometry, a, b)
    if geometry == "spherical":
        u = _scale(1.0 / math.sin(t), _sub(b, _scale(math.cos(t), a)))
        return _add(_scale(math.cos(t_new), a), _scale(math.sin(t_new), u))
    u = _scale(1.0 / math.sinh(t), _sub(b, _scale(math.cosh(t), a)))
    return _add(_scale(math.cosh(t_new), a), _scale(math.sinh(t_new), u))


def curved_edge_case(rng, geometry, n, positive):
    if geometry == "spherical":
        vertices = _sphere_vertices(rng, n)
        weights = _chain_weights(rng, n + 1, 1.2, 1.3)
    else:
        vertices = _hyperboloid_vertices(rng, n)
        # log-weight gaps exceed every geodesic distance (triangle
        # inequality along the chain), so each combination is timelike
        weights = [1.0]
        for k in range(n):
            step = geodesic(geometry, vertices[k], vertices[k + 1])
            weights.append(weights[-1] / (math.exp(step) * rng.uniform(1.2, 1.35)))
    points = {}
    for (i, j) in pairs(n + 1):
        wi, wj = weights[i - 1], weights[j - 1]
        # b = alpha a_i + beta a_j with alpha < 0 < beta: a_j lies between
        points[(i, j)] = to_surface(
            geometry, _add(_scale(-wj, vertices[i - 1]), _scale(wi, vertices[j - 1])))
    if not positive:
        i, j = rng.choice(pairs(n + 1))
        a, b = vertices[i - 1], points[(i, j)]
        d, t = geodesic(geometry, a, vertices[j - 1]), geodesic(geometry, a, b)
        t_new = d + (t - d) * (1 + PERTURB)
        if geometry == "spherical" and t_new >= math.pi - 1e-3:
            t_new = d + (t - d) * (1 - PERTURB)
        points[(i, j)] = move_along(geometry, a, b, t_new)
    return _edge_object(geometry, n, vertices, points, positive)


# ----------------------------------------------------------------------
# shapes built from known homotheties

def _homotheties(rng, n, lo, hi, box=10.0):
    """Ratio r_k and translation t_k of x -> r_k x + t_k for n+1 shapes;
    shape 0 is the base itself (r = 1, t = 0)."""
    ratio = 1.0
    maps = [(1.0, [0.0] * n)]
    for _ in range(n):
        ratio *= rng.uniform(lo, hi)
        center = [rng.uniform(-box, box) for _ in range(n)]
        maps.append((ratio, [(1.0 - ratio) * c for c in center]))
    return maps


def _apply(m, x):
    r, t = m
    return [r * a + b for a, b in zip(x, t)]


def _ball_case(rng):
    n = BALL_DIM
    maps = _homotheties(rng, n, 1.15, 1.3)
    center = [rng.uniform(-10, 10) for _ in range(n)]
    radius = rng.uniform(0.5, 2.0)
    shapes = [{"type": "ball", "center": _apply(m, center), "radius": m[0] * radius}
              for m in maps]
    return n, maps, shapes


def _vertex_case(rng, n, m):
    maps = _homotheties(rng, n, 1.4, 1.8)
    base = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(m)]
    shapes = [{"type": "vertices", "points": [_apply(h, p) for p in base]} for h in maps]
    return n, maps, shapes


def _halfspace_case(rng, n, m):
    maps = _homotheties(rng, n, 1.4, 1.8)
    base = []
    for k in range(n):  # a box keeps every set bounded
        for sign in (1.0, -1.0):
            base.append(([sign * int(c == k) for c in range(n)], -rng.uniform(0.5, 1.5)))
    while len(base) < m:
        base.append((_unit([rng.gauss(0.0, 1.0) for _ in range(n)]), -rng.uniform(0.5, 1.5)))
    shapes = []
    for r, t in maps:
        # {x : a.x >= b} maps to {y : a.y >= r b + a.t} under y = r x + t
        shapes.append({"type": "halfspaces", "constraints": [
            {"normal": a, "offset": r * b + _dot(a, t)} for a, b in base]})
    return n, maps, shapes


def shapes_case(rng, kind, variant):
    if kind == "balls":
        n, maps, shapes = _ball_case(rng)
    elif kind == "vertices":
        n, maps, shapes = _vertex_case(rng, *VERTEX_CASES[variant])
    else:
        n, maps, shapes = _halfspace_case(rng, *HALFSPACE_CASE)
    order = list(range(n + 1))
    rng.shuffle(order)
    obj = {"geometry": "euclidean", "dimension": n, "kind": "shapes",
           "shapes": [shapes[k] for k in order], "expect": True}
    return obj, [maps[k] for k in order]


def expected_centers(maps):
    """Closed-form (center, ratio) per 1-based pair of the size-sorted shapes.

    Shapes sort largest first; the map from shape j onto shape i (i < j) is
    x -> rho x + (t_i - rho t_j) with rho = r_i / r_j > 1, whose fixed point
    is (t_i - rho t_j) / (1 - rho).
    """
    ordered = sorted(maps, key=lambda m: m[0], reverse=True)
    out = {}
    for (i, j) in pairs(len(ordered)):
        (ri, ti), (rj, tj) = ordered[i - 1], ordered[j - 1]
        rho = ri / rj
        out[(i, j)] = ([(a - rho * b) / (1.0 - rho) for a, b in zip(ti, tj)], rho)
    return out


# ----------------------------------------------------------------------
# workload plans

def build_edge_float(seed):
    """Equal thirds E^n / S^n / H^n, alternating positive and negative."""
    rng = stream("edge-float", seed)
    cases = []
    for k in range(OPS_PER_ROUND):
        geometry = ("euclidean", "spherical", "hyperbolic")[k % 3]
        positive = (k // 3) % 2 == 0
        if geometry == "euclidean":
            obj = euclid_edge_case(rng, EDGE_DIM, positive)
        else:
            obj = curved_edge_case(rng, geometry, EDGE_DIM, positive)
        cases.append({"scenario": obj, "exact": False})
    return cases


def build_edge_exact(seed):
    rng = stream("edge-exact", seed)
    return [{"scenario": exact_edge_case(rng, EXACT_DIM, k % 2 == 0), "exact": True}
            for k in range(OPS_PER_ROUND)]


def build_shapes(seed):
    """Equal thirds balls / vertex sets / half-space sets; 2D and 3D
    vertex sets alternate."""
    rng = stream("shapes", seed)
    cases = []
    for k in range(SHAPES_OPS):
        kind = ("balls", "vertices", "halfspaces")[k % 3]
        obj, maps = shapes_case(rng, kind, (k // 3) % 2)
        cases.append({"scenario": obj, "exact": False, "maps": maps})
    return cases


def build_generate(seed):
    """One file per operation, at indices 0, GEN_STRIDE, 2 GEN_STRIDE, ...
    of a corpus of OPS_PER_ROUND * GEN_STRIDE files; the variant cycles so
    every kind and geometry is sampled across the whole index range, and
    edge-point variants alternate positive and negative."""
    gen_seed = stream("generate", seed).getrandbits(32)
    ops = []
    for k in range(OPS_PER_ROUND):
        variant = GEN_VARIANTS[k % len(GEN_VARIANTS)]
        positive = variant in ("balls", "vertex_sets") or (k // len(GEN_VARIANTS)) % 2 == 0
        ops.append({"variant": variant, "index": k * GEN_STRIDE, "positive": positive})
    return {"seed": gen_seed, "dimension": GEN_DIM, "perturb": PERTURB, "ops": ops}
