"""Tests of the benchmark's own checkers: real reports pass, corrupted ones fail.

    python3 -m pytest perfbench/test_checks.py

Reports come from ``mongekit verify`` run in process on scenarios the
benchmark builds; each corruption is one the checkers exist to catch.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from mongekit import scenario  # noqa: E402
from mongekit.cli import main as mongekit_main  # noqa: E402

SEED = 7


def verify(tmp_path, case):
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    src.write_text(json.dumps(case["scenario"]))
    argv = ["verify", "--input", str(src), "--output", str(out)]
    if case["exact"]:
        argv.append("--exact")
    assert mongekit_main(argv) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def edge_cases():
    # E+, S+, H+, E-, S-, H-
    return inputs.build_edge_float(SEED)[:6]


@pytest.fixture(scope="module")
def exact_cases():
    return inputs.build_edge_exact(SEED)[:2]


@pytest.fixture(scope="module")
def shape_cases():
    # balls, vertex sets, half-space sets
    return inputs.build_shapes(SEED)[:3]


def check(case, report):
    if "maps" in case:
        return checks.check_shapes_report(case["scenario"], case["maps"], report)
    return checks.check_edge_report(case["scenario"], report, case["exact"])


def test_true_reports_pass(tmp_path, edge_cases, exact_cases, shape_cases):
    for case in edge_cases + exact_cases + shape_cases:
        assert check(case, verify(tmp_path, case)) == []


def test_flipped_verdict_is_rejected(tmp_path, edge_cases, exact_cases, shape_cases):
    for case in edge_cases + exact_cases + shape_cases:
        report = verify(tmp_path, case)
        report["verdict"] = not report["verdict"]
        assert any("verdict" in p for p in check(case, report))


def test_moved_center_is_rejected(tmp_path, shape_cases):
    for case in shape_cases:
        report = verify(tmp_path, case)
        report["centers"][0]["point"][0] += 1e-3
        assert any("center" in p for p in check(case, report))


def test_exact_ratio_off_by_one_billionth_is_rejected(tmp_path, exact_cases):
    for case in exact_cases:
        report = verify(tmp_path, case)
        entry = report["ratios"][3]
        entry["value"] = scenario.encode_number(Fraction(entry["value"]) + Fraction(1, 10**9))
        assert any("ratio" in p for p in check(case, report))


def _tilt(plane, pivot, exact):
    """The hyperplane turned slightly about ``pivot``: other points fall off it."""
    normal = [Fraction(x) if exact else float(x) for x in plane["normal"]]
    k = min(range(len(normal)), key=lambda c: abs(normal[c]))
    normal[k] += Fraction(1, 10**6) if exact else 1e-6
    tilted = {"normal": [scenario.encode_number(x) for x in normal]}
    if "offset" in plane:
        tilted["offset"] = scenario.encode_number(sum(a * b for a, b in zip(normal, pivot)))
    return tilted


def test_edge_point_missing_from_hyperplane_is_rejected(tmp_path, edge_cases, exact_cases):
    for case in [c for c in edge_cases + exact_cases if c["scenario"]["expect"]]:
        report = verify(tmp_path, case)
        exact = case["exact"]
        pivot = [Fraction(x) if exact else float(x)
                 for x in case["scenario"]["edge_points"][0]["point"]]
        report["hyperplane"] = _tilt(report["hyperplane"], pivot, exact)
        assert any("misses edge points" in p for p in check(case, report))


def test_float_ratio_within_tolerance_only(tmp_path, edge_cases):
    case = edge_cases[0]
    report = verify(tmp_path, case)
    nudged = copy.deepcopy(report)
    nudged["ratios"][0]["value"] *= 1 + 1e-12
    assert check(case, nudged) == []
    report["ratios"][0]["value"] *= 1 + 1e-7
    assert any("ratio" in p for p in check(case, report))


def _generated(tmp_path, variant, positive, index=3):
    """A corpus file written by the benchmark's own generate operation."""
    gen = {"seed": 11, "dimension": inputs.GEN_DIM, "perturb": inputs.PERTURB,
           "ops": [{"variant": variant, "index": index, "positive": positive}]}
    worker._generate_op({"generate": gen})(0, str(tmp_path))
    return json.loads((tmp_path / f"scenario-11-{index}.json").read_text())


@pytest.mark.parametrize("variant", inputs.GEN_VARIANTS)
def test_generated_files_pass_and_corruptions_fail(tmp_path, variant):
    for positive in ((True,) if variant in ("balls", "vertex_sets") else (True, False)):
        op = {"variant": variant, "positive": positive}
        obj = _generated(tmp_path, variant, positive)
        assert checks.check_generated(op, obj, inputs.GEN_DIM) == []
        assert checks.check_generated({**op, "positive": not positive}, obj, inputs.GEN_DIM)
    bad = _generated(tmp_path, variant, True)
    if variant == "balls":
        bad["shapes"][1]["radius"] *= 1.001
    elif variant == "vertex_sets":
        bad["shapes"][1]["points"][0][0] += 1e-3
    else:
        # an edge point moved along its line: the products no longer hold
        bad["edge_points"][0]["point"] = _edge_point_moved(bad, variant == "rational")
    assert checks.check_generated({"variant": variant, "positive": True}, bad, inputs.GEN_DIM)


def _edge_point_moved(obj, exact):
    i, j = obj["edge_points"][0]["pair"]
    num = Fraction if exact else float
    a = [num(x) for x in obj["vertices"][i - 1]]
    b = [num(x) for x in obj["edge_points"][0]["point"]]
    if obj["geometry"] == "euclidean":
        step = Fraction(1, 100) if exact else 1e-2
        return [scenario.encode_number(x + (1 + step) * (y - x)) for x, y in zip(a, b)]
    return inputs.move_along(obj["geometry"], a, b, 1.01 * inputs.geodesic(obj["geometry"], a, b))


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYERS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, _, unit) in tracing.LAYERS.items()}
    assert [w["name"] for w in spec["workloads"]] == ["edge-float", "edge-exact", "shapes", "generate"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: sum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.totals()
    assert totals["calls"] == {"inner": 3, "outer": 1}
    assert 0 < totals["self_seconds"]["outer"] < totals["self_seconds"]["inner"]
