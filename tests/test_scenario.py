import json
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongekit.errors import ScenarioError
from mongekit.kernel import Hyperplane, is_exact
from mongekit.generators import (
    GenSpec,
    gen_ball_config,
    gen_menelaus_case,
    gen_rational_case,
    gen_vertex_config,
)
from mongekit.menelaus import EdgePointSet, edge_points_from_weights
from mongekit.noneuclid import sphere_point, xn_edge_points_from_weights
from mongekit.scenario import (
    EUCLIDEAN,
    GEOMETRIES,
    atomic_write_json,
    encode_number,
    json_text,
    parse_scenario,
    scenario_to_object,
    verify_scenario,
)
from mongekit.shapes import Ball, HalfspaceSet, VertexSet

from test_shapes import halfplane_family_exact


BALLS = {
    "geometry": "euclidean", "dimension": 2, "kind": "shapes",
    "shapes": [
        {"type": "ball", "center": [0, 0], "radius": 3},
        {"type": "ball", "center": [6, 0], "radius": 2},
        {"type": "ball", "center": [0, 6], "radius": 1},
    ],
}


def where_of(excinfo):
    return excinfo.value.as_object().get("where")


def test_float_mode_coerces_everything_to_float():
    obj = {**BALLS, "shapes": [
        {"type": "ball", "center": ["1/2", 0], "radius": 3},
        {"type": "ball", "center": [6, 0.5], "radius": "2"},
        {"type": "ball", "center": [0, 6], "radius": 1},
    ]}
    scenario = parse_scenario(obj)
    assert all(isinstance(x, float)
               for s in scenario.payload for x in (*s.center, s.radius))
    assert scenario.payload[0].center[0] == 0.5


def test_exact_mode_number_rules():
    obj = {**BALLS, "shapes": [
        {"type": "ball", "center": ["1/3", 2.0], "radius": 3},
        {"type": "ball", "center": [6, 0], "radius": 2},
        {"type": "ball", "center": [0, 6], "radius": 1},
    ]}
    scenario = parse_scenario(obj, exact=True)
    ball = scenario.payload[0]
    assert ball.center == (Fraction(1, 3), Fraction(2))
    assert all(isinstance(x, Fraction) for x in ball.center)

    bad = {**BALLS, "shapes": [
        {"type": "ball", "center": [0.25, 0], "radius": 3},
        *BALLS["shapes"][1:],
    ]}
    with pytest.raises(ScenarioError) as e:
        parse_scenario(bad, exact=True)
    assert where_of(e) == "$.shapes[0].center[0]"

    # every accepted scalar form, in both modes
    for value, as_float, as_exact in SCALAR_FORMS:
        if not isinstance(as_float, dict):
            assert repr(_parsed(value, False)) == repr(as_float), value
            assert repr(_parsed(value, True)) == repr(as_exact), value


def _rejected(message):
    return {"code": "ScenarioError", "message": message, "where": "$.shapes[0].center[0]"}


# (value, float mode, exact mode) at one coordinate: the number parsed, or
# the error object; the common forms take a fast path, the rest _number
SCALAR_FORMS = [
    ("1/0", _rejected("malformed rational '1/0'"), _rejected("malformed rational '1/0'")),
    ("a/b", _rejected("malformed rational 'a/b'"), _rejected("malformed rational 'a/b'")),
    ("", _rejected("malformed rational ''"), _rejected("malformed rational ''")),
    (True, _rejected("expected a number"), _rejected("expected a number")),
    (None, _rejected("expected a number"), _rejected("expected a number")),
    ([1], _rejected("expected a number"), _rejected("expected a number")),
    ("1/-2", _rejected("malformed rational '1/-2'"), _rejected("malformed rational '1/-2'")),
    ("--1/2", _rejected("malformed rational '--1/2'"), _rejected("malformed rational '--1/2'")),
    ("0/0", _rejected("malformed rational '0/0'"), _rejected("malformed rational '0/0'")),
    ("1/2/3", _rejected("malformed rational '1/2/3'"), _rejected("malformed rational '1/2/3'")),
    ("\u00b2/3", _rejected("malformed rational '\u00b2/3'"),
     _rejected("malformed rational '\u00b2/3'")),
    (10**400, _rejected("number is too large for a float"), Fraction(10**400)),
    ("+1/2", 0.5, Fraction(1, 2)),
    (" 1/2", 0.5, Fraction(1, 2)),
    ("007/010", 0.7, Fraction(7, 10)),
    ("-0/3", 0.0, Fraction(0)),
    ("1_0/3", 10 / 3, Fraction(10, 3)),
    ("\u0661/\u0662", 0.5, Fraction(1, 2)),  # Arabic-Indic digits
    ("1.5", 1.5, Fraction(3, 2)),
    ("1e3", 1000.0, Fraction(1000)),
    ("3", 3.0, Fraction(3)),
    (2**70, float(2**70), Fraction(2**70)),
    (2.0, 2.0, Fraction(2)),
    (2.5, 2.5, _rejected("exact mode needs integers or 'p/q' strings")),
]


def _parsed(value, exact):
    """The number parsed at $.shapes[0].center[0], or the error object."""
    obj = {**BALLS, "shapes": [
        {"type": "ball", "center": [value, 0], "radius": 3},
        *BALLS["shapes"][1:],
    ]}
    try:
        return parse_scenario(obj, exact=exact).payload[0].center[0]
    except ScenarioError as e:
        return e.as_object()


_EXPECTED = {repr(value): (as_float, as_exact) for value, as_float, as_exact in SCALAR_FORMS}


@pytest.mark.parametrize("value", [
    pytest.param(value, id="10**400") if value == 10**400 else value
    for value, as_float, _ in SCALAR_FORMS if isinstance(as_float, dict)
])
def test_malformed_numbers_rejected(value):
    as_float, as_exact = _EXPECTED[repr(value)]
    assert _parsed(value, False) == as_float
    assert repr(_parsed(value, True)) == repr(as_exact)


@pytest.mark.parametrize("patch,where", [
    ({"geometry": "flat"}, "$.geometry"),
    ({"dimension": 0}, "$.dimension"),
    ({"dimension": 2.5}, "$.dimension"),
    ({"kind": "mesh"}, "$.kind"),
    ({"expect": "yes"}, "$.expect"),
    ({"shapes": []}, "$.shapes"),
    ({"shapes": [{"center": [0, 0], "radius": 1}]}, "$.shapes[0]"),
    ({"shapes": [{"type": "cube"}]}, "$.shapes[0].type"),
])
def test_schema_violations_carry_paths(patch, where):
    with pytest.raises(ScenarioError) as e:
        parse_scenario({**BALLS, **patch})
    assert where_of(e) == where


def test_edge_point_schema_checks():
    base = {
        "geometry": "euclidean", "dimension": 2, "kind": "edge_points",
        "vertices": [[0, 0], [4, 0], [0, 4]],
        "edge_points": [
            {"pair": [1, 2], "point": [-4, 0]},
            {"pair": [1, 3], "point": [0, -1.25]},
            {"pair": [2, 3], "point": [8, -4]},
        ],
    }
    scenario = parse_scenario(base)
    assert isinstance(scenario.payload, EdgePointSet)

    for mangle, fragment in [
        (lambda o: o["edge_points"].pop(), "each of the 3 pairs"),
        (lambda o: o["edge_points"][0].update(pair=[2, 1]), r"not an \(i, j\)"),
        (lambda o: o["edge_points"][0].update(pair=[1, 3]), "duplicate"),
        (lambda o: o.update(vertices=o["vertices"][:2]), "exactly 3 vertices"),
        (lambda o: o["edge_points"][1].update(point=[1, 2, 3]), "length 2"),
    ]:
        obj = json.loads(json.dumps(base))
        mangle(obj)
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(obj)


def test_shapes_must_be_euclidean():
    with pytest.raises(ScenarioError) as e:
        parse_scenario({**BALLS, "geometry": "spherical"})
    assert where_of(e) == "$.kind"


def test_exact_refuses_curved_geometries():
    obj = {
        "geometry": "hyperbolic", "dimension": 2, "kind": "edge_points",
        "vertices": [], "edge_points": [],
    }
    with pytest.raises(ScenarioError, match="euclidean scenarios only"):
        parse_scenario(obj, exact=True)


def test_bad_surface_point_reported_as_scenario_error():
    obj = {
        "geometry": "spherical", "dimension": 2, "kind": "edge_points",
        "vertices": [[5, 0, 0], [0, 1, 0], [0, 0, 1]],
        "edge_points": [
            {"pair": [1, 2], "point": [1, 0, 0]},
            {"pair": [1, 3], "point": [1, 0, 0]},
            {"pair": [2, 3], "point": [1, 0, 0]},
        ],
    }
    with pytest.raises(ScenarioError):
        parse_scenario(obj)


def test_encode_number():
    assert encode_number(Fraction(3, 1)) == 3
    assert encode_number(Fraction(-2, 7)) == "-2/7"
    assert encode_number(1.5) == 1.5
    assert encode_number(None) is None


def test_scenario_round_trips_through_objects():
    vertices = ((Fraction(0), Fraction(0)), (Fraction(4), Fraction(0)),
                (Fraction(0), Fraction(4)))
    eps = edge_points_from_weights(vertices, (Fraction(1), Fraction(2), Fraction(4)))
    obj = scenario_to_object(eps, expect=True)
    assert obj["kind"] == "edge_points"
    assert obj["expect"] is True
    back = parse_scenario(obj, exact=True)
    assert back.payload.vertices == eps.vertices
    assert back.payload.edge_points == eps.edge_points

    shapes = [Ball((0.0, 0.0), 3.0), VertexSet(vertices=((1.0, 0.0), (0.0, 1.0))),
              HalfspaceSet(constraints=[((1.0, 0.0), 0.0)])]
    obj = scenario_to_object(shapes, dimension=2)
    assert [s["type"] for s in obj["shapes"]] == ["ball", "vertices", "halfspaces"]

    config = xn_edge_points_from_weights(
        [sphere_point(r) for r in ((1, 0, 0), (0, 1, 0), (0, 0, 1))],
        (1.0, 2.0, 4.0),
    )
    obj = scenario_to_object(config)
    assert obj["geometry"] == "spherical"
    back = parse_scenario(obj)
    assert back.payload.geometry == "spherical"
    assert len(back.payload.edge_points) == 3


def test_verify_scenario_report_fields():
    report = verify_scenario(parse_scenario(BALLS))
    assert report["verdict"] is True
    assert report["kind"] == "shapes"
    assert report["degenerate"] is False
    assert report["elapsed_seconds"] >= 0
    assert json.dumps(report)  # everything JSON-serializable

    echoed = verify_scenario(parse_scenario(report["scenario"]))
    assert echoed["centers"] == report["centers"]
    assert echoed["hyperplane"] == report["hyperplane"]


def _written_report(kind):
    """(report, exact) for one scenario of each geometry and shape kind."""
    if kind in ("euclidean", "spherical", "hyperbolic"):
        spec = GenSpec(dimension=3, seed=5, kind="edge_points", geometry=kind)
        return gen_menelaus_case(spec, positive=True, index=0), False
    if kind == "rational":
        spec = GenSpec(dimension=3, seed=5, kind="edge_points")
        return gen_rational_case(spec, positive=True, index=0), True
    if kind == "balls":
        return gen_ball_config(GenSpec(dimension=3, seed=5, kind=kind), index=0), False
    if kind == "vertex_sets":
        return gen_vertex_config(GenSpec(dimension=2, seed=5, kind=kind), index=0), False
    return [halfplane_family_exact(i) for i in (1, 2, 3)], True


def test_atomic_write_json(tmp_path):
    target = tmp_path / "out.json"
    for kind in ("euclidean", "rational", "spherical", "hyperbolic",
                 "balls", "vertex_sets", "halfspaces"):
        payload, exact = _written_report(kind)
        report = verify_scenario(parse_scenario(scenario_to_object(payload), exact=exact))
        assert report["verdict"] is True and report["exact"] is exact
        atomic_write_json(str(target), report)
        text = target.read_text()
        assert text == json.dumps(report) + "\n" and text.count("\n") == 1
        assert json.loads(text) == report
        assert bool(re.search(r'"-?\d+/\d+"', text)) is exact  # rationals stay "p/q"
    atomic_write_json(str(target), {"a": 2})
    assert target.read_text() == '{"a": 2}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_atomic_write_failure_leaves_no_partial(tmp_path):
    target = tmp_path / "out.json"
    with pytest.raises(TypeError):
        atomic_write_json(str(target), {"bad": object()})
    assert list(tmp_path.iterdir()) == []


@st.composite
def rational_ball_family(draw):
    """n+1 rational balls in E^n whose centers lie on an affine subspace of
    drawn dimension d <= n (d = 0: concentric balls)."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(0, n))
    small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
    anchor = draw(st.lists(small, min_size=n, max_size=n))
    directions = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=d, max_size=d))
    radii = draw(st.lists(st.fractions(min_value=1, max_value=20, max_denominator=3),
                          min_size=n + 1, max_size=n + 1, unique=True))
    shapes = []
    for r in radii:
        coeffs = draw(st.lists(small, min_size=d, max_size=d))
        center = [a + sum(c * v[k] for c, v in zip(coeffs, directions))
                  for k, a in enumerate(anchor)]
        shapes.append({"type": "ball", "center": [encode_number(x) for x in center],
                       "radius": encode_number(r)})
    return {"geometry": "euclidean", "dimension": n, "kind": "shapes", "shapes": shapes}


@given(rational_ball_family())
@settings(max_examples=60, deadline=None)
def test_shapes_float_and_exact_reports_agree(obj):
    floats = verify_scenario(parse_scenario(obj))
    exact = verify_scenario(parse_scenario(obj, exact=True))
    for key in ("verdict", "degenerate", "span_dim"):
        assert floats[key] == exact[key], key
    plane = exact["hyperplane"]
    plane = Hyperplane(tuple(Fraction(x) for x in plane["normal"]), Fraction(plane["offset"]))
    for got, want in zip(floats["centers"], exact["centers"]):
        assert got["pair"] == want["pair"]
        point = [Fraction(x) for x in want["point"]]
        scale = max(1, max(abs(x) for x in point))
        assert max(abs(g - float(w)) for g, w in zip(got["point"], point)) <= 1e-12 * scale
        # the exact plane holds every exact center, degenerate families too
        assert plane.evaluate(point) == 0


@given(st.integers(2, 6), st.integers(0, 2**32), st.booleans(), st.floats(1e-3, 0.1))
@settings(max_examples=300, deadline=None)
def test_edge_points_float_and_exact_verdicts_agree(n, seed, positive, perturb):
    spec = GenSpec(dimension=n, seed=seed, kind="edge_points",
                   perturb=None if positive else perturb)
    obj = scenario_to_object(gen_rational_case(spec, positive=positive))
    floats = verify_scenario(parse_scenario(obj))
    exact = verify_scenario(parse_scenario(obj, exact=True))
    assert floats["verdict"] == exact["verdict"] == positive
    if exact["verdict"]:
        residuals = [t["residual"] for t in floats["triple_products"]]
        assert max(residuals + [floats["hyperplane_residual"]]) <= 1e-10


@pytest.mark.parametrize("geometry,exact", [
    (EUCLIDEAN, False), (EUCLIDEAN, True), ("spherical", False), ("hyperbolic", False),
])
def test_parsed_edge_points_are_never_classified_again(monkeypatch, geometry, exact):
    """parse_scenario chooses the backend; verifying and reporting reuse it."""
    spec = GenSpec(dimension=4, seed=3, kind="edge_points", geometry=geometry)
    payload = gen_rational_case(spec) if exact else gen_menelaus_case(spec)
    obj = scenario_to_object(payload, geometry=geometry, expect=True)
    calls = []

    def counting(values):
        calls.append(1)
        return is_exact(values)

    for name, module in list(sys.modules.items()):
        if name.startswith("mongekit") and getattr(module, "is_exact", None) is is_exact:
            monkeypatch.setattr(module, "is_exact", counting)
    report = verify_scenario(parse_scenario(obj, exact=exact))
    assert report["verdict"] is True
    assert calls == []


def _report_text(report):
    return json_text({k: v for k, v in report.items() if k != "elapsed_seconds"})


@pytest.mark.parametrize("geometry", GEOMETRIES)
@pytest.mark.parametrize("positive", [True, False])
def test_echo_reverifies(geometry, positive):
    """Re-verifying a report's echo gives the same verdict.  E^n reports
    come back byte for byte; S^n and H^n ones need not, since normalising
    the echoed points again can move their last bits."""
    spec = GenSpec(dimension=6, seed=8, kind="edge_points", geometry=geometry,
                   perturb=None if positive else 0.01)
    for index in range(8):
        payload = gen_menelaus_case(spec, positive=positive, index=index)
        report = verify_scenario(parse_scenario(
            scenario_to_object(payload, geometry=geometry, expect=positive)))
        again = verify_scenario(parse_scenario(report["scenario"]))
        assert again["verdict"] is report["verdict"] is positive
        if geometry == EUCLIDEAN:
            assert _report_text(again) == _report_text(report)


def test_exact_echo_reverifies_byte_for_byte():
    for index, positive in enumerate([True, False] * 4):
        spec = GenSpec(dimension=5, seed=2, kind="edge_points",
                       perturb=None if positive else 0.01)
        obj = scenario_to_object(gen_rational_case(spec, positive=positive, index=index),
                                 expect=positive)
        report = verify_scenario(parse_scenario(obj, exact=True))
        again = verify_scenario(parse_scenario(report["scenario"], exact=True))
        assert again["verdict"] is report["verdict"] is positive
        assert _report_text(again) == _report_text(report)
