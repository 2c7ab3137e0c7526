"""Scenario and report JSON: parsing, validation, serialization.

A scenario file is one JSON object:

    {"geometry": "euclidean" | "spherical" | "hyperbolic",
     "dimension": n,
     "kind": "shapes" | "edge_points",
     "shapes": [...],                  for kind "shapes"
     "vertices": [...], "edge_points": [...],   for kind "edge_points"
     "expect": true | false}           optional

Shape entries are {"type": "ball", "center": [...], "radius": r},
{"type": "vertices", "points": [[...], ...]}, or {"type": "halfspaces",
"constraints": [{"normal": [...], "offset": d}, ...]}.  Edge point
entries are {"pair": [i, j], "point": [...]} with 1-based i < j.
Coordinates have length n (Euclidean) or n+1 (sphere / hyperboloid).

Numbers are JSON numbers, or strings "p/q" for exact rationals.  In
exact mode only integers and "p/q" strings are accepted; in float mode
everything is coerced to float.  Reports echo the scenario they scored,
so a report can be re-verified byte-for-byte.

Reports and scenario corpora are written as one line of compact JSON,
``json.dumps(obj)`` plus a newline (json_text), the form error objects
on stdout take.  CPython encodes it in C; with ``indent`` it would fall
back to its pure-Python encoder, at about three times the cost.  Key
order and float repr are fixed, so the bytes are deterministic;
pretty-print a file with ``python -m json.tool``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GeometryError, ScenarioError
from .kernel import DEFAULT_TOLERANCE, Hyperplane, Tolerance
from .menelaus import EdgePointSet, all_pairs, menelaus_products
from .monge import MongeConfig, run_monge
from .noneuclid import (
    HYPERBOLIC,
    SPHERICAL,
    XnConfig,
    hyperboloid_point,
    sphere_point,
    verify_prop2,
)
from .shapes import Ball, Halfspace, HalfspaceSet, VertexSet

EUCLIDEAN = "euclidean"
GEOMETRIES = (EUCLIDEAN, SPHERICAL, HYPERBOLIC)

__all__ = [
    "Scenario",
    "parse_scenario",
    "scenario_to_object",
    "verify_scenario",
    "encode_number",
    "edge_point_verifier",
    "json_text",
    "atomic_write_text",
    "atomic_write_json",
]


@dataclass(frozen=True)
class Scenario:
    geometry: str
    dimension: int
    kind: str
    payload: object  # list of shapes, EdgePointSet, or XnConfig
    expect: bool | None
    exact: bool


def _fail(message, where):
    raise ScenarioError(message, where=where)


def _number(value, exact, where):
    if isinstance(value, bool):
        _fail("expected a number", where)
    if isinstance(value, float) and not math.isfinite(value):
        _fail("numbers must be finite", where)
    if exact:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, float):
            if value.is_integer():
                return Fraction(int(value))
            _fail("exact mode needs integers or 'p/q' strings", where)
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                _fail(f"malformed rational {value!r}", where)
        _fail("expected a number", where)
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(f"malformed rational {value!r}", where)
    if isinstance(value, (int, float, Fraction)):
        try:
            return float(value)
        except OverflowError:
            _fail("number is too large for a float", where)
    _fail("expected a number", where)


def _float_scalar(x):
    """_number of a finite float or of an int within the float range, else None."""
    t = type(x)
    if t is float:
        return x if math.isfinite(x) else None
    if t is int:
        try:
            return float(x)
        except OverflowError:
            return None
    return None


def _exact_scalar(x):
    """_number of an int or an ASCII '-?digits/digits' string with a nonzero
    denominator, else None."""
    t = type(x)
    if t is int:
        return Fraction(x)
    if t is str and x.isascii():
        p, slash, q = x.partition("/")
        if slash and q.isdigit() and p.removeprefix("-").isdigit():
            try:
                den = int(q)
                return Fraction(int(p), den) if den else None
            except ValueError:  # beyond int()'s digit limit
                return None
    return None


def _point(value, length, exact, where):
    """One pass over the array for the common scalar forms; the rest, and
    every error with its JSON path, go through _number."""
    if not isinstance(value, list) or len(value) != length:
        _fail(f"expected a coordinate array of length {length}", where)
    scalar = _exact_scalar if exact else _float_scalar
    out = [scalar(x) for x in value]
    # not ``None in out``: that calls Fraction.__eq__ once per scalar
    if any(o is None for o in out):
        out = [_number(x, exact, f"{where}[{k}]") if o is None else o
               for k, (o, x) in enumerate(zip(out, value))]
    return tuple(out)


def encode_number(x):
    """JSON-ready form: Fractions become ints or 'p/q' strings."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    return float(x)


def _encode_point(p):
    return [encode_number(x) for x in p]


def _parse_shape(obj, n, exact, where, first=False):
    if not isinstance(obj, dict) or "type" not in obj:
        _fail("shape entries need a 'type' field", where)
    kind = obj["type"]
    try:
        if kind == "ball":
            center = _point(obj.get("center"), n, exact, f"{where}.center")
            radius = _number(obj.get("radius"), exact, f"{where}.radius")
            return Ball(center=center, radius=radius)
        if kind == "vertices":
            pts = obj.get("points")
            if not isinstance(pts, list) or not pts:
                _fail("vertex shapes need a non-empty 'points' array", f"{where}.points")
            return VertexSet(vertices=tuple(
                _point(p, n, exact, f"{where}.points[{k}]") for k, p in enumerate(pts)
            ))
        if kind == "halfspaces":
            cons = obj.get("constraints")
            if not isinstance(cons, list) or not cons:
                _fail("halfspace shapes need a non-empty 'constraints' array",
                      f"{where}.constraints")
            parsed = []
            for k, c in enumerate(cons):
                if not isinstance(c, dict):
                    _fail("constraints are objects with 'normal' and 'offset'",
                          f"{where}.constraints[{k}]")
                normal = _point(c.get("normal"), n, exact, f"{where}.constraints[{k}].normal")
                offset = _number(c.get("offset"), exact, f"{where}.constraints[{k}].offset")
                parsed.append((normal, offset))
            shape = HalfspaceSet(constraints=tuple(parsed))
            if first:
                # the family's one feasibility LP, so that an empty first set
                # is reported at its path; detection carries non-emptiness
                # on to every shape matched to it
                shape._nonempty
            return shape
    except GeometryError as e:
        if isinstance(e, ScenarioError):
            raise
        raise ScenarioError(str(e), where=where) from e
    _fail(f"unknown shape type {kind!r}", f"{where}.type")


def _parse_edge_points(obj, n_vertices, length, exact, where):
    entries = obj.get("edge_points")
    if not isinstance(entries, list):
        _fail("kind 'edge_points' needs an 'edge_points' array", where)
    expected = set(all_pairs(n_vertices))
    points = {}
    for k, e in enumerate(entries):
        here = f"{where}[{k}]"
        if not isinstance(e, dict):
            _fail("edge point entries are objects with 'pair' and 'point'", here)
        pair = e.get("pair")
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(i, int) and not isinstance(i, bool) for i in pair)):
            _fail("'pair' must be two 1-based integer indices", f"{here}.pair")
        pair = (pair[0], pair[1])
        if pair not in expected:
            _fail(f"pair {list(pair)} is not an (i, j) with 1 <= i < j <= {n_vertices}",
                  f"{here}.pair")
        if pair in points:
            _fail(f"duplicate pair {list(pair)}", f"{here}.pair")
        points[pair] = _point(e.get("point"), length, exact, f"{here}.point")
    if set(points) != expected:
        _fail(f"need exactly one edge point for each of the {len(expected)} pairs",
              where)
    return points


def parse_scenario(obj, exact=False) -> Scenario:
    if not isinstance(obj, dict):
        _fail("scenario must be a JSON object", "$")
    geometry = obj.get("geometry")
    if geometry not in GEOMETRIES:
        _fail(f"geometry must be one of {', '.join(GEOMETRIES)}", "$.geometry")
    n = obj.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        _fail("dimension must be a positive integer", "$.dimension")
    kind = obj.get("kind")
    if kind not in ("shapes", "edge_points"):
        _fail("kind must be 'shapes' or 'edge_points'", "$.kind")
    expect = obj.get("expect")
    if expect is not None and not isinstance(expect, bool):
        _fail("expect must be a boolean", "$.expect")
    if exact and geometry != EUCLIDEAN:
        _fail("exact mode supports euclidean scenarios only; spherical and "
              "hyperbolic points are normalized in floating point", "$.geometry")

    if kind == "shapes":
        if geometry != EUCLIDEAN:
            _fail("shape scenarios are euclidean only", "$.kind")
        shapes = obj.get("shapes")
        if not isinstance(shapes, list) or not shapes:
            _fail("kind 'shapes' needs a non-empty 'shapes' array", "$.shapes")
        payload = [
            _parse_shape(s, n, exact, f"$.shapes[{k}]", first=k == 0)
            for k, s in enumerate(shapes)
        ]
        return Scenario(geometry, n, kind, payload, expect, exact)

    vertices = obj.get("vertices")
    if not isinstance(vertices, list) or len(vertices) != n + 1:
        _fail(f"kind 'edge_points' needs exactly {n + 1} vertices", "$.vertices")
    length = n if geometry == EUCLIDEAN else n + 1
    parsed_vertices = tuple(
        _point(v, length, exact, f"$.vertices[{k}]") for k, v in enumerate(vertices)
    )
    points = _parse_edge_points(obj, n + 1, length, exact, "$.edge_points")
    try:
        if geometry == EUCLIDEAN:
            payload = EdgePointSet(vertices=parsed_vertices, edge_points=points)
        else:
            build = sphere_point if geometry == SPHERICAL else hyperboloid_point
            # a norm or Lorentz form beyond the float range fails the surface check
            with np.errstate(all="ignore"):
                payload = XnConfig(
                    vertices=tuple(build(v) for v in parsed_vertices),
                    edge_points={k: build(p) for k, p in points.items()},
                )
    except GeometryError as e:
        raise ScenarioError(str(e), where="$") from e
    return Scenario(geometry, n, kind, payload, expect, exact)


def _shape_to_object(shape):
    if isinstance(shape, Ball):
        return {"type": "ball", "center": _encode_point(shape.center),
                "radius": encode_number(shape.radius)}
    if isinstance(shape, VertexSet):
        return {"type": "vertices", "points": [_encode_point(p) for p in shape.vertices]}
    if isinstance(shape, HalfspaceSet):
        return {"type": "halfspaces", "constraints": [
            {"normal": _encode_point(c.normal), "offset": encode_number(c.offset)}
            for c in shape.constraints
        ]}
    raise ScenarioError(f"cannot serialize shape of type {type(shape).__name__}")


def scenario_to_object(payload, geometry=EUCLIDEAN, dimension=None, expect=None):
    """Scenario JSON object for shapes, an EdgePointSet, or an XnConfig."""
    out = {"geometry": geometry}
    if isinstance(payload, MongeConfig):
        payload = list(payload.shapes)
    if isinstance(payload, (list, tuple)):
        out["dimension"] = dimension if dimension is not None else payload[0].dimension
        out["kind"] = "shapes"
        out["shapes"] = [_shape_to_object(s) for s in payload]
    elif isinstance(payload, EdgePointSet):
        out["dimension"] = len(payload.vertices[0])
        out["kind"] = "edge_points"
        out["vertices"] = [_encode_point(v) for v in payload.vertices]
        out["edge_points"] = [
            {"pair": list(pair), "point": _encode_point(payload.edge_points[pair])}
            for pair in sorted(payload.edge_points)
        ]
    elif isinstance(payload, XnConfig):
        out["geometry"] = payload.geometry
        out["dimension"] = payload.dimension
        out["kind"] = "edge_points"
        out["vertices"] = [_encode_point(v.coords) for v in payload.vertices]
        out["edge_points"] = [
            {"pair": list(pair), "point": _encode_point(payload.edge_points[pair].coords)}
            for pair in sorted(payload.edge_points)
        ]
    else:
        raise ScenarioError(f"cannot serialize {type(payload).__name__}")
    if expect is not None:
        out["expect"] = bool(expect)
    return out


def _hyperplane_to_object(plane):
    if plane is None:
        return None
    if isinstance(plane, Hyperplane):
        return {"normal": _encode_point(plane.normal),
                "offset": encode_number(plane.offset)}
    return {"normal": _encode_point(plane.normal)}


def edge_point_verifier(geometry):
    """menelaus_products for E^n, verify_prop2 for S^n and H^n."""
    return menelaus_products if geometry == EUCLIDEAN else verify_prop2


def verify_scenario(scenario: Scenario, tol: Tolerance = DEFAULT_TOLERANCE):
    """Dispatch to the right verifier and assemble the report object."""
    start = time.perf_counter()
    report = {
        "geometry": scenario.geometry,
        "dimension": scenario.dimension,
        "kind": scenario.kind,
        "exact": scenario.exact,
    }
    if scenario.kind == "shapes":
        config = MongeConfig.build(scenario.payload, tol)
        res = run_monge(config, tol)
        report["verdict"] = res.verdict
        report["centers"] = [
            {"pair": list(pair), "point": _encode_point(res.centers[pair]),
             "ratio": encode_number(res.ratios[pair])}
            for pair in sorted(res.centers)
        ]
        report["hyperplane"] = _hyperplane_to_object(res.hyperplane)
        report["hyperplane_residual"] = encode_number(res.residual)
        report["degenerate"] = res.degenerate
        report["span_dim"] = res.span_dim
        echo = scenario_to_object(config, expect=scenario.expect)
    else:
        res = edge_point_verifier(scenario.geometry)(scenario.payload, tol)
        report["verdict"] = res.verdict
        report["ratios"] = [
            {"pair": list(pair), "value": encode_number(res.lambdas[pair])}
            for pair in sorted(res.lambdas)
        ]
        report["triple_products"] = [
            {"triple": list(t), "residual": encode_number(res.triple_residuals[t])}
            for t in sorted(res.triple_residuals)
        ]
        report["hyperplane"] = _hyperplane_to_object(res.hyperplane)
        report["hyperplane_residual"] = encode_number(res.hyperplane_residual)
        echo = scenario_to_object(scenario.payload, expect=scenario.expect)
    report["scenario"] = echo
    report["elapsed_seconds"] = time.perf_counter() - start
    return report


def atomic_write_text(path, text):
    """Write text via a temp file and rename, so no partial file survives."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_text(obj):
    """``obj`` as one line of compact JSON plus a newline."""
    return json.dumps(obj) + "\n"


def atomic_write_json(path, obj):
    """Write ``obj`` as json_text, one line of compact JSON, atomically.

    The whole document is encoded before the temp file is opened, so an
    object that cannot be encoded leaves no file behind.
    """
    atomic_write_text(path, json_text(obj))
