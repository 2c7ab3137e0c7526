"""Output checks that do not trust the program.

Every value a report is compared with is recomputed here from the
scenario's own points or from the closed form of its construction, with
plain Python arithmetic (``Fraction`` on the exact backend).  Each check
returns a list of problems; an empty list means the output is accepted.
Nothing in this module imports mongekit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from inputs import expected_centers, geodesic, pairs, to_surface

THRESHOLD = 2e-9      # the program's default tolerance: 1e-9 absolute + 1e-9 relative
LAMBDA_REL = 1e-9     # float ratios must match to this relative gap
NEG_FLOOR = 1e-6      # a generated negative must miss the products by at least this


def number(x, exact):
    if exact:
        return Fraction(x)
    return float(Fraction(x)) if isinstance(x, str) else float(x)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _points(scenario, exact):
    geometry = scenario["geometry"]
    vertices = [[number(x, exact) for x in v] for v in scenario["vertices"]]
    points = {tuple(e["pair"]): [number(x, exact) for x in e["point"]]
              for e in scenario["edge_points"]}
    if geometry != "euclidean":
        vertices = [to_surface(geometry, v) for v in vertices]
        points = {p: to_surface(geometry, b) for p, b in points.items()}
    return vertices, points


def edge_ratio(geometry, a_i, a_j, b):
    """lambda with a_i - b = lambda (a_j - b) in E^n, read off the largest
    coordinate of a_j - b; the sin (S^n) or sinh (H^n) ratio of the two
    geodesic sub-arcs otherwise."""
    if geometry == "euclidean":
        d = [x - y for x, y in zip(a_j, b)]
        k = max(range(len(d)), key=lambda c: abs(d[c]))
        return (a_i[k] - b[k]) / d[k]
    f = math.sin if geometry == "spherical" else math.sinh
    return f(geodesic(geometry, a_i, b)) / f(geodesic(geometry, b, a_j))


def off_line(geometry, a_i, a_j, b, exact):
    """Distance of b from the line through a_i and a_j (0 on exact input)."""
    if geometry != "euclidean":
        return 0.0
    d = [x - y for x, y in zip(a_j, a_i)]
    e = [x - y for x, y in zip(b, a_i)]
    if exact:
        return max(abs(d[p] * e[q] - d[q] * e[p])
                   for p in range(len(d)) for q in range(p + 1, len(d)))
    t = _dot(e, d) / _dot(d, d)
    return math.sqrt(sum((x - t * y) ** 2 for x, y in zip(e, d))) / math.sqrt(_dot(d, d))


def triple_residuals(lambdas, count):
    return {(i, j, k): abs((lambdas[(i, k)] / lambdas[(i, j)]) / lambdas[(j, k)] - 1)
            for (i, j, k) in combinations(range(1, count + 1), 3)}


def _close(a, b, rel, floor=0.0):
    return abs(a - b) <= floor + rel * abs(b)


def _bbox_diameter(points):
    lo = [min(c) for c in zip(*points)]
    hi = [max(c) for c in zip(*points)]
    return math.sqrt(sum((float(b) - float(a)) ** 2 for a, b in zip(lo, hi)))


def _plane_misses(plane, points, geometry, exact, scale):
    """Points the reported hyperplane (or section) does not contain."""
    if plane is None:
        return list(points)
    normal = [number(x, exact) for x in plane["normal"]]
    if geometry == "euclidean":
        offset = number(plane["offset"], exact)
        value = lambda p: _dot(normal, p) - offset  # noqa: E731
    elif geometry == "spherical":
        value = lambda p: _dot(normal, p)  # noqa: E731
    else:
        value = lambda p: -normal[0] * p[0] + _dot(normal[1:], p[1:])  # noqa: E731
    if exact:
        return [k for k, p in points.items() if value(p) != 0]
    nrm = math.sqrt(_dot(normal, normal))
    return [k for k, p in points.items() if abs(value(p)) / nrm > THRESHOLD * scale]


def check_edge_report(scenario, report, exact):
    """A verify report on an edge-point scenario built by ``inputs``."""
    problems = []
    geometry = scenario["geometry"]
    expect = scenario["expect"]
    vertices, points = _points(scenario, exact)
    count = len(vertices)
    if report.get("verdict") is not expect:
        problems.append(f"verdict {report.get('verdict')!r}, construction says {expect!r}")
    mine = {(i, j): edge_ratio(geometry, vertices[i - 1], vertices[j - 1], points[(i, j)])
            for (i, j) in pairs(count)}
    got = {tuple(e["pair"]): number(e["value"], exact) for e in report.get("ratios", [])}
    if set(got) != set(mine):
        problems.append("reported ratio pairs differ from the scenario's pairs")
    for pair in sorted(set(got) & set(mine)):
        ok = got[pair] == mine[pair] if exact else _close(got[pair], mine[pair], LAMBDA_REL)
        if not ok:
            problems.append(f"ratio {pair}: reported {got[pair]}, expected {mine[pair]}")
    residuals = triple_residuals(mine, count)
    got_res = {tuple(e["triple"]): number(e["residual"], exact)
               for e in report.get("triple_products", [])}
    if set(got_res) != set(residuals):
        problems.append("reported triples differ from the scenario's triples")
    for t in sorted(set(got_res) & set(residuals)):
        ok = (got_res[t] == residuals[t] if exact
              else _close(got_res[t], residuals[t], LAMBDA_REL, 1e-12))
        if not ok:
            problems.append(f"triple {t}: reported {got_res[t]}, expected {residuals[t]}")
    worst = max(residuals.values())
    threshold = 0 if exact else THRESHOLD
    if expect:
        if worst > threshold:
            problems.append(f"positive construction has triple residual {worst}")
        scale = _bbox_diameter(list(points.values())) if geometry == "euclidean" else 1.0
        missing = _plane_misses(report.get("hyperplane"), points, geometry, exact, scale)
        if missing:
            problems.append(f"reported hyperplane misses edge points {missing[:3]}")
    elif not worst > threshold:
        problems.append(f"negative construction has triple residuals within {threshold}")
    echo = report.get("scenario", {})
    if not same_numbers(_echo_points(echo, exact), _points(scenario, exact), exact):
        problems.append("echoed scenario differs from the input")
    return problems


def _echo_points(echo, exact):
    try:
        return _points(echo, exact)
    except (KeyError, TypeError, ValueError):
        return None


def same_numbers(a, b, exact, rel=1e-12):
    """Structural equality of nested lists/dicts, numbers within rel."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_numbers(a[k], b[k], exact, rel) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_numbers(x, y, exact, rel) for x, y in zip(a, b))
    if isinstance(a, (int, float, Fraction)) and isinstance(b, (int, float, Fraction)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return a == b if exact else _close(float(a), float(b), rel, 1e-300)
    return a == b


def check_shapes_report(scenario, maps, report):
    """A verify report on a shapes scenario built from the homotheties ``maps``."""
    problems = []
    if report.get("verdict") is not True:
        problems.append(f"verdict {report.get('verdict')!r} on a homothetic family")
    want = expected_centers(maps)
    got = {tuple(e["pair"]): ([float(x) for x in e["point"]], float(e["ratio"]))
           for e in report.get("centers", [])}
    if set(got) != set(want):
        problems.append("reported center pairs differ from the family's pairs")
    centers = {p: c for p, (c, _) in want.items()}
    scale = max(1.0, max(abs(x) for c in centers.values() for x in c))
    for pair in sorted(set(got) & set(want)):
        (p_got, r_got), (p_want, r_want) = got[pair], want[pair]
        if not _close(r_got, r_want, LAMBDA_REL):
            problems.append(f"ratio {pair}: reported {r_got}, expected {r_want}")
        gap = max(abs(a - b) for a, b in zip(p_got, p_want))
        if gap > LAMBDA_REL * scale:
            problems.append(f"center {pair}: off the closed form by {gap}")
    missing = _plane_misses(report.get("hyperplane"), centers, "euclidean", False,
                            _bbox_diameter(list(centers.values())))
    if missing:
        problems.append(f"reported hyperplane misses centers {missing[:3]}")
    order = sorted(range(len(maps)), key=lambda k: maps[k][0], reverse=True)
    sorted_shapes = [scenario["shapes"][k] for k in order]
    echo = report.get("scenario", {}).get("shapes")
    if not same_numbers(echo, sorted_shapes, False):
        problems.append("echoed shapes are not the input sorted by size")
    return problems


# ----------------------------------------------------------------------
# generated corpus files

def _min_pivot(rows):
    """Smallest pivot of a partial-pivot elimination, relative to the largest entry."""
    work = [list(map(float, r)) for r in rows]
    top = max(abs(x) for r in work for x in r)
    smallest = math.inf
    for col in range(len(work)):
        best = max(range(col, len(work)), key=lambda i: abs(work[i][col]))
        work[col], work[best] = work[best], work[col]
        p = work[col][col]
        if p == 0.0:
            return 0.0
        smallest = min(smallest, abs(p))
        for i in range(col + 1, len(work)):
            f = work[i][col] / p
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return smallest / top


def _check_balls(obj, gap):
    shapes = obj["shapes"]
    n = obj["dimension"]
    problems = []
    if len(shapes) != n + 1 or any(s["type"] != "ball" for s in shapes):
        return [f"expected {n + 1} balls"]
    radii = [float(s["radius"]) for s in shapes]
    for a, b in zip(radii, radii[1:]):
        if not _close(a / b, gap, 1e-12):
            problems.append(f"consecutive radii ratio {a / b}, promised {gap}")
    centers = [[float(x) for x in s["center"]] for s in shapes]
    if _min_pivot([[x - y for x, y in zip(c, centers[0])] for c in centers[1:]]) < 1e-6:
        problems.append("ball centers are not affinely independent")
    return problems


def _check_vertex_sets(obj):
    shapes = obj["shapes"]
    n = obj["dimension"]
    if len(shapes) != n + 1 or any(s["type"] != "vertices" for s in shapes):
        return [f"expected {n + 1} vertex sets"]
    sets = [[[float(x) for x in p] for p in s["points"]] for s in shapes]
    if len({len(s) for s in sets}) != 1:
        return ["vertex sets differ in size"]

    def centred(s):
        g = [sum(c) / len(s) for c in zip(*s)]
        return [[x - y for x, y in zip(p, g)] for p in s]

    base = centred(sets[0])
    flat_base = [x for p in base for x in p]
    scale = max(abs(x) for x in flat_base)
    problems = []
    previous = 1.0
    for k, s in enumerate(sets[1:], start=2):
        flat = [x for p in centred(s) for x in p]
        rho = _dot(flat, flat_base) / _dot(flat_base, flat_base)
        if max(abs(x - rho * y) for x, y in zip(flat, flat_base)) > 1e-9 * scale:
            problems.append(f"vertex set {k} is not a homothet of set 1")
        if not 0 < rho < previous:
            problems.append(f"vertex set {k} is not smaller than set {k - 1}")
        previous = rho
    return problems


def _check_edge_file(obj, positive, exact):
    geometry = obj["geometry"]
    vertices, points = _points(obj, exact)
    count = len(vertices)
    problems = []
    if geometry != "euclidean":
        raw = [[float(x) for x in v] for v in obj["vertices"]] + \
              [[float(x) for x in e["point"]] for e in obj["edge_points"]]
        for v in raw:
            q = _dot(v, v) if geometry == "spherical" else v[0] ** 2 - _dot(v[1:], v[1:])
            if abs(q - 1.0) > 1e-9:
                problems.append(f"point off the {geometry} model surface by {abs(q - 1.0)}")
                break
    for (i, j) in pairs(count):
        if off_line(geometry, vertices[i - 1], vertices[j - 1], points[(i, j)], exact) > 1e-9:
            problems.append(f"edge point {(i, j)} is off its line")
    lambdas = {(i, j): edge_ratio(geometry, vertices[i - 1], vertices[j - 1], points[(i, j)])
               for (i, j) in pairs(count)}
    worst = max(triple_residuals(lambdas, count).values())
    if positive and worst > (0 if exact else THRESHOLD):
        problems.append(f"positive case has triple residual {worst}")
    if not positive and (worst == 0 if exact else worst < NEG_FLOOR):
        problems.append(f"negative case has triple residual only {worst}")
    return problems


def check_generated(op, obj, dimension, ratio_gap=1.5):
    """A corpus file against the property its generator promises."""
    variant, positive = op["variant"], op["positive"]
    geometry = variant if variant in ("spherical", "hyperbolic") else "euclidean"
    problems = []
    if obj.get("expect") is not positive:
        problems.append(f"expect {obj.get('expect')!r}, generated as {positive!r}")
    if obj.get("geometry") != geometry or obj.get("dimension") != dimension:
        problems.append("geometry or dimension differs from the request")
        return problems
    if variant == "balls":
        return problems + _check_balls(obj, ratio_gap)
    if variant == "vertex_sets":
        return problems + _check_vertex_sets(obj)
    return problems + _check_edge_file(obj, positive, variant == "rational")
