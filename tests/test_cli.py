import contextlib
import copy
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mongekit import cli
from mongekit.cli import main
from mongekit.generators import GenSpec, gen_menelaus_case
from mongekit.scenario import encode_number, scenario_to_object


THREE_CIRCLES = {
    "geometry": "euclidean",
    "dimension": 2,
    "kind": "shapes",
    "shapes": [
        {"type": "ball", "center": [0, 0], "radius": 3},
        {"type": "ball", "center": [6, 0], "radius": 2},
        {"type": "ball", "center": [0, 6], "radius": 1},
    ],
}

# criterion 2's family: {x >= 0, y >= 1/i, x + y >= 4 - i}, i = 1, 2, 3
HALF_PLANES = {
    "geometry": "euclidean",
    "dimension": 2,
    "kind": "shapes",
    "shapes": [
        {"type": "halfspaces", "constraints": [
            {"normal": [1, 0], "offset": 0},
            {"normal": [0, 1], "offset": 1.0 / i},
            {"normal": [1, 1], "offset": 4 - i},
        ]} for i in (1, 2, 3)
    ],
}


# criterion 2's y >= 0 variant: {x >= 0, y >= 0, x + y >= 4 - i}, i = 1, 2, 3,
# whose homothety centers all sit at the origin
ORIGIN_HALF_PLANES = {**HALF_PLANES, "shapes": [
    {"type": "halfspaces", "constraints": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0},
        {"normal": [1, 1], "offset": 4 - i},
    ]} for i in (1, 2, 3)
]}


def write_scenario(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def run_verify(tmp_path, obj, *extra):
    src = write_scenario(tmp_path / "scenario.json", obj)
    out = tmp_path / "report.json"
    code = main(["verify", "--input", src, "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def test_verify_exit_codes(tmp_path):
    code, report = run_verify(tmp_path, {**THREE_CIRCLES, "expect": True})
    assert code == 0
    assert report["verdict"] is True
    assert report["hyperplane"] == {"normal": [0.5, 1.0], "offset": 9.0}

    code, report = run_verify(tmp_path, {**THREE_CIRCLES, "expect": False})
    assert code == 1
    assert report["verdict"] is True

    code, _ = run_verify(tmp_path, {**THREE_CIRCLES, "geometry": "flat"})
    assert code == 2


def test_verify_error_object_on_stdout(tmp_path, capsys):
    src = write_scenario(tmp_path / "bad.json", {"geometry": "euclidean"})
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "ScenarioError"
    assert err["where"] == "$.dimension"


def test_non_homothetic_shapes_exit_2_with_pair(tmp_path, capsys):
    scenario = {
        "geometry": "euclidean",
        "dimension": 2,
        "kind": "shapes",
        "shapes": [
            {"type": "vertices", "points": [[0, 0], [4, 0], [0, 4]]},
            {"type": "vertices", "points": [[10, 0], [12, 0], [10, 2]]},
            {"type": "vertices", "points": [[0, 10], [1, 10], [0, 11.5]]},
        ],
    }
    src = write_scenario(tmp_path / "s.json", scenario)
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "NotHomothetic"
    # input positions: the third shape is no homothet of the first
    assert err["pair"] == [1, 3]


# {x >= 0, y >= 0, x + y <= 4 - i}; i = 5 is empty
def _triangle(i):
    return {"type": "halfspaces", "constraints": [
        {"normal": [1, 0], "offset": 0}, {"normal": [0, 1], "offset": 0},
        {"normal": [-1, -1], "offset": i - 4}]}


def test_empty_first_halfspace_set_reported_at_its_path(tmp_path, capsys):
    scenario = {"geometry": "euclidean", "dimension": 2, "kind": "shapes",
                "shapes": [_triangle(5), _triangle(1), _triangle(2)]}
    src = write_scenario(tmp_path / "s.json", scenario)
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "ScenarioError", "where": "$.shapes[0]",
                   "message": "half-space constraints have empty intersection"}


def test_empty_later_halfspace_set_exits_2_with_pair(tmp_path, capsys):
    # only input shape 1 is checked for emptiness; the third is caught by
    # its detection from shape 1
    scenario = {"geometry": "euclidean", "dimension": 2, "kind": "shapes",
                "shapes": [_triangle(1), _triangle(2), _triangle(5)]}
    src = write_scenario(tmp_path / "s.json", scenario)
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["pair"] == [1, 3]


def test_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    # a crash must not read as exit 1, which means "verdict mismatch"
    def broken(scenario, tol):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "verify_scenario", broken)
    src = write_scenario(tmp_path / "s.json", THREE_CIRCLES)
    assert main(["verify", "--input", src]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"code": "InternalError", "message": "RuntimeError: boom"}


def test_verify_missing_and_malformed_files(tmp_path, capsys):
    assert main(["verify", "--input", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["verify", "--input", str(bad)]) == 2
    errors = [json.loads(line)["error"] for line in capsys.readouterr().out.splitlines()]
    assert [e["code"] for e in errors] == ["ScenarioError", "ScenarioError"]


def test_verify_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"geometry": "é"}'.encode("latin-1"))
    assert main(["verify", "--input", str(bad)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "ScenarioError"
    assert err["where"] == str(bad)


def test_verify_deeply_nested_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", "--input", str(deep)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "ScenarioError"
    assert err["where"] == str(deep)


def test_verify_stdout_report(tmp_path, capsys):
    for obj, centers, span_dim in (
        (THREE_CIRCLES, [18.0, 0.0, 0.0, 9.0, -6.0, 12.0], None),
        # all three centers at the origin, up to rounding: a degenerate
        # family, still true
        (ORIGIN_HALF_PLANES, pytest.approx([0.0] * 6, abs=1e-15), 0),
    ):
        src = write_scenario(tmp_path / "s.json", obj)
        assert main(["verify", "--input", src]) == 0
        out = capsys.readouterr().out
        assert out.endswith("}\n") and out.count("\n") == 1
        report = json.loads(out)
        assert report["verdict"] is True
        assert [x for c in report["centers"] for x in c["point"]] == centers
        assert (report["degenerate"], report["span_dim"]) == (span_dim is not None, span_dim)
        # the same one-line document as --output writes, up to the timing
        code, written = run_verify(tmp_path, obj)
        assert code == 0
        del report["elapsed_seconds"], written["elapsed_seconds"]
        assert written == report


def test_report_roundtrip(tmp_path):
    code, report = run_verify(tmp_path, THREE_CIRCLES)
    assert code == 0
    code2, report2 = run_verify(tmp_path, report["scenario"])
    assert code2 == 0
    for key in ("verdict", "centers", "hyperplane", "hyperplane_residual"):
        assert report2[key] == report[key]


def test_exact_mode(tmp_path):
    code, report = run_verify(tmp_path, THREE_CIRCLES, "--exact")
    assert code == 0
    assert report["exact"] is True
    assert report["hyperplane_residual"] == 0
    assert [c["point"] for c in report["centers"]] == [[18, 0], [0, 9], [-6, 12]]


def test_exact_refuses_noneuclidean(tmp_path, capsys):
    obj = {
        "geometry": "spherical", "dimension": 2, "kind": "edge_points",
        "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "edge_points": [
            {"pair": [1, 2], "point": [-0.894427190999916, 0.447213595499958, 0]},
            {"pair": [1, 3], "point": [-0.970142500145332, 0, 0.242535625036333]},
            {"pair": [2, 3], "point": [0, -0.894427190999916, 0.447213595499958]},
        ],
    }
    src = write_scenario(tmp_path / "sphere.json", obj)
    assert main(["verify", "--input", src]) == 0
    assert main(["verify", "--input", src, "--exact"]) == 2
    out = capsys.readouterr().out
    assert "euclidean scenarios only" in out


def test_exact_rejects_non_integral_floats(tmp_path, capsys):
    obj = {**THREE_CIRCLES, "shapes": [
        {"type": "ball", "center": [0.25, 0], "radius": 3},
        *THREE_CIRCLES["shapes"][1:],
    ]}
    src = write_scenario(tmp_path / "s.json", obj)
    assert main(["verify", "--input", src, "--exact"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert "p/q" in err["message"]
    assert err["where"] == "$.shapes[0].center[0]"


def test_tolerance_env_override(tmp_path, monkeypatch, capsys):
    # weights (1, 2, 4) give edge points (-4, 0), (0, -4/3), (8, -4);
    # the first is nudged so residuals land near 5e-3
    obj = {
        "geometry": "euclidean", "dimension": 2, "kind": "edge_points",
        "vertices": [[0, 0], [4, 0], [0, 4]],
        "edge_points": [
            {"pair": [1, 2], "point": [-4.04, 0]},
            {"pair": [1, 3], "point": [0, -1.3333333333333333]},
            {"pair": [2, 3], "point": [8, -4]},
        ],
    }
    src = write_scenario(tmp_path / "p.json", obj)
    assert main(["verify", "--input", src]) == 1
    capsys.readouterr()
    monkeypatch.setenv("MONGE_TOLERANCE", "0.05")
    assert main(["verify", "--input", src]) == 0
    capsys.readouterr()
    monkeypatch.setenv("MONGE_TOLERANCE", "bogus")
    assert main(["verify", "--input", src]) == 2


@pytest.mark.parametrize("flag, env", [
    ("inf", None), ("nan", None), ("-inf", None), (None, "inf"), (None, "nan"),
])
def test_non_finite_tolerance_rejected(tmp_path, monkeypatch, capsys, flag, env):
    assert main(["generate", "--kind", "edge_points", "--dim", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("MONGE_TOLERANCE", env)
    extra = [f"--tolerance={flag}"] if flag is not None else []
    src = str(tmp_path / "scenario-0-0.json")
    assert main(["verify", "--input", src, *extra]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "ScenarioError"
    assert err["message"] == "tolerance must be finite and positive"
    assert main(["verify", "--input", src, "--tolerance", "1e-9"]) == 0


def test_generate_deterministic(tmp_path):
    # each corpus twice gives the same bytes, and the two copies of a file
    # give the same report up to the timing
    for corpus in (("euclidean", "edge_points", "3"), ("euclidean", "edge_points", "4"),
                   ("spherical", "edge_points", "3"), ("spherical", "edge_points", "4"),
                   ("euclidean", "balls", "4")):
        geometry, kind, dim = corpus
        out1, out2 = tmp_path / "-".join(corpus) / "a", tmp_path / "-".join(corpus) / "b"
        args = ["generate", "--geometry", geometry, "--kind", kind, "--dim", dim,
                "--count", "5", "--seed", "11"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == [f"scenario-11-{k}.json" for k in range(5)]
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (corpus, name)
            reports = []
            for out in (out1, out2):
                report = out / (name + ".report")
                assert main(["verify", "--input", str(out / name),
                             "--output", str(report)]) == 0
                reports.append(json.loads(report.read_text()))
                del reports[-1]["elapsed_seconds"]
            assert reports[0] == reports[1], (corpus, name)


def test_generate_negative_and_verify(tmp_path):
    for geometry, dim in (("euclidean", "2"), ("hyperbolic", "4")):
        out = tmp_path / geometry
        assert main(["generate", "--geometry", geometry, "--dim", dim,
                     "--kind", "edge_points", "--count", "3", "--seed", "4",
                     "--perturb", "0.01", "--out", str(out)]) == 0
        for k in range(3):
            src = out / f"scenario-4-{k}.json"
            assert json.loads(src.read_text())["expect"] is False
            report = tmp_path / "r.json"
            assert main(["verify", "--input", str(src), "--output", str(report)]) == 0
            assert json.loads(report.read_text())["verdict"] is False, (geometry, k)


def test_generate_shape_kinds_verify_clean(tmp_path):
    for kind in ("balls", "vertex_sets"):
        out = tmp_path / kind
        assert main(["generate", "--dim", "2", "--kind", kind, "--count", "2",
                     "--seed", "9", "--out", str(out)]) == 0
        for k in range(2):
            assert main(["verify", "--input", str(out / f"scenario-9-{k}.json"),
                         "--output", str(tmp_path / "r.json")]) == 0


def test_generate_rational_exact(tmp_path):
    for dim, perturb in (("2", []), ("6", []), ("6", ["--perturb", "0.01"])):
        out = tmp_path / f"rat-{dim}-{len(perturb)}"
        assert main(["generate", "--dim", dim, "--kind", "edge_points", "--rational",
                     "--count", "3", "--seed", "5", *perturb, "--out", str(out)]) == 0
        for k in range(3):
            report = tmp_path / "r.json"
            assert main(["verify", "--input", str(out / f"scenario-5-{k}.json"), "--exact",
                         "--output", str(report)]) == 0
            rep = json.loads(report.read_text())
            assert rep["exact"] is True
            if perturb:
                assert rep["verdict"] is False, (dim, k)
            else:
                assert rep["hyperplane_residual"] == 0
                assert all(t["residual"] == 0 for t in rep["triple_products"])


def test_parser_built_once_per_process(tmp_path):
    # the cached parser must not carry one call's options into the next
    cli._build_parser.cache_clear()
    out = tmp_path / "rat"
    assert main(["generate", "--dim", "2", "--kind", "edge_points", "--rational",
                 "--count", "1", "--seed", "5", "--out", str(out)]) == 0
    src = str(out / "scenario-5-0.json")
    exact, floats = tmp_path / "exact.json", tmp_path / "float.json"
    assert main(["verify", "--input", src, "--exact", "--output", str(exact)]) == 0
    assert main(["verify", "--input", src, "--output", str(floats)]) == 0
    assert json.loads(exact.read_text())["exact"] is True
    assert json.loads(floats.read_text())["exact"] is False
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_generate_invalid_spec(tmp_path, capsys):
    assert main(["generate", "--geometry", "spherical", "--dim", "2",
                 "--kind", "balls", "--out", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().out


def test_sweep_clean_and_zero(capsys):
    assert main(["sweep", "--dims", "2..3", "--per-cell", "3", "--seed", "2"]) == 0
    table = capsys.readouterr().out.strip().splitlines()
    assert len(table) == 3
    assert table[0].split() == ["dim", "pos", "pass", "pos", "fail", "neg", "pass",
                                "neg", "fail", "max", "residual", "neg", "floor"]
    assert table[1].split()[:5] == ["2", "3", "0", "3", "0"]

    assert main(["sweep", "--dims", "2..3", "--per-cell", "0"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_sweep_spherical(capsys):
    assert main(["sweep", "--geometry", "spherical", "--dims", "2..3",
                 "--per-cell", "2", "--seed", "1"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3


def test_sweep_bad_dims(capsys):
    assert main(["sweep", "--dims", "six"]) == 2
    assert "dimension range" in capsys.readouterr().out


def test_figure_deterministic_markers(tmp_path):
    src = write_scenario(tmp_path / "s.json", THREE_CIRCLES)
    fig1, fig2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["figure", "--input", src, "--output", str(fig1)]) == 0
    assert main(["figure", "--input", src, "--output", str(fig2)]) == 0
    svg = fig1.read_text()
    assert fig1.read_bytes() == fig2.read_bytes()
    assert svg.count('class="center"') == 3
    assert svg.count('class="monge-line"') == 1
    for cx, cy in (("18.0000", "0.0000"), ("0.0000", "9.0000"), ("-6.0000", "12.0000")):
        assert f'class="center" cx="{cx}" cy="{cy}"' in svg
    for label in ("(1,2)", "(1,3)", "(2,3)"):
        assert label in svg


def test_figure_halfplanes_on_axis(tmp_path):
    obj = {
        "geometry": "euclidean", "dimension": 2, "kind": "shapes",
        "shapes": [
            {"type": "halfspaces", "constraints": [
                {"normal": [1, 0], "offset": 0},
                {"normal": [0, 1], "offset": 1.0 / i},
                {"normal": [1, 1], "offset": 4.0 - i},
            ]} for i in (1, 2, 3)
        ],
    }
    src = write_scenario(tmp_path / "h.json", obj)
    fig = tmp_path / "h.svg"
    assert main(["figure", "--input", src, "--output", str(fig)]) == 0
    svg = fig.read_text()
    centers = [line for line in svg.splitlines() if 'class="center"' in line]
    assert len(centers) == 3
    assert all('cx="0.0000"' in line for line in centers)


def test_figure_rejects_bad_inputs(tmp_path, capsys):
    src = write_scenario(tmp_path / "empty.json", {**THREE_CIRCLES, "shapes": []})
    assert main(["figure", "--input", src, "--output", str(tmp_path / "x.svg")]) == 2

    obj3d = {
        "geometry": "euclidean", "dimension": 3, "kind": "shapes",
        "shapes": [{"type": "ball", "center": [0, 0, 0], "radius": r}
                   for r in (4, 3, 2, 1)],
    }
    src = write_scenario(tmp_path / "3d.json", obj3d)
    assert main(["figure", "--input", src, "--output", str(tmp_path / "y.svg")]) == 2
    assert not (tmp_path / "x.svg").exists()
    assert not (tmp_path / "y.svg").exists()
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    src = write_scenario(tmp_path / "s.json", THREE_CIRCLES)
    proc = subprocess.run(
        [sys.executable, "-m", "mongekit.cli", "verify", "--input", src],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True
    proc = subprocess.run(
        [sys.executable, "-m", "mongekit.cli", "verify", "--no-such-flag"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_generate_vertex_sets_dim_12(tmp_path):
    out = tmp_path / "v12"
    assert main(["generate", "--dim", "12", "--kind", "vertex_sets", "--count", "1",
                 "--seed", "0", "--out", str(out)]) == 0
    assert main(["verify", "--input", str(out / "scenario-0-0.json"),
                 "--output", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("obj,where", [
    ({**THREE_CIRCLES, "shapes": [
        {"type": "ball", "center": [0, 0], "radius": float("nan")},
        *THREE_CIRCLES["shapes"][1:],
    ]}, "$.shapes[0].radius"),
    ({"geometry": "euclidean", "dimension": 2, "kind": "edge_points",
      "vertices": [[0, 0], [4, 0], [0, 4]],
      "edge_points": [
          {"pair": [1, 2], "point": [-4, 0]},
          {"pair": [1, 3], "point": [0, float("inf")]},
          {"pair": [2, 3], "point": [8, -4]},
      ]}, "$.edge_points[1].point[1]"),
    ({**THREE_CIRCLES, "shapes": [
        *THREE_CIRCLES["shapes"][:2],
        {"type": "ball", "center": [0, 6], "radius": 10 ** 400},
    ]}, "$.shapes[2].radius"),
])
def test_unrepresentable_numbers_rejected_with_path(tmp_path, capsys, obj, where):
    src = write_scenario(tmp_path / "s.json", obj)
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "ScenarioError"
    assert err["where"] == where


@pytest.mark.parametrize("radii", [(1, 1e-320), (1e-320, 1)])
def test_float_overflow_in_detection_names_the_pair(tmp_path, capsys, radii):
    # the ratio 1 / 1e-320 overflows: in run_monge for the first order, in
    # MongeConfig.build for the second
    obj = {"geometry": "euclidean", "dimension": 1, "kind": "shapes",
           "shapes": [{"type": "ball", "center": [k], "radius": r}
                      for k, r in enumerate(radii)]}
    src = write_scenario(tmp_path / "s.json", obj)
    assert main(["verify", "--input", src]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["code"] == "InvalidInput"
    assert "overflows" in err["message"]
    assert err["pair"] == [1, 2]


def fresh_verify(paths):
    """Exit codes of ``verify`` on each path, and the scipy modules loaded,
    in a new interpreter that imports only mongekit.cli first."""
    script = (
        "import json, sys\n"
        "from mongekit.cli import main\n"
        "codes = [main(['verify', '--input', p, '--output', p + '.report'])\n"
        "         for p in sys.argv[1:]]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *paths],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_edge_points_and_balls_never_import_scipy(tmp_path):
    for geometry in ("euclidean", "spherical"):
        assert main(["generate", "--geometry", geometry, "--kind", "edge_points",
                     "--dim", "3", "--count", "1", "--seed", "2",
                     "--out", str(tmp_path / geometry)]) == 0
    paths = [str(tmp_path / g / "scenario-2-0.json") for g in ("euclidean", "spherical")]
    paths.append(write_scenario(tmp_path / "circles.json", THREE_CIRCLES))
    assert fresh_verify(paths) == [[0, 0, 0], []]


def test_half_planes_import_scipy_on_first_lp(tmp_path):
    codes, loaded = fresh_verify([write_scenario(tmp_path / "h.json", HALF_PLANES)])
    assert codes == [0]
    assert "scipy.optimize" in loaded


def _numbers(obj):
    """(container, key) of every coordinate, radius and offset of a scenario."""
    if isinstance(obj, dict):
        items = [(k, v) for k, v in obj.items() if k not in ("dimension", "pair")]
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return []
    out = []
    for k, v in items:
        if isinstance(v, (int, float, Fraction)) and not isinstance(v, bool):
            out.append((obj, k))
        else:
            out.extend(_numbers(v))
    return out


def _family(first, *rest):
    return {"geometry": "euclidean", "dimension": 2, "kind": "shapes",
            "shapes": [first, *(rest or (_triangle(1), _triangle(2)))]}


def _halfspaces(*constraints):
    return {"type": "halfspaces",
            "constraints": [{"normal": n, "offset": d} for n, d in constraints]}


# weights (1, 2, 4) on the triangle (0, 0), (4, 0), (0, 4)
EDGE_POINTS = {"geometry": "euclidean", "dimension": 2, "kind": "edge_points",
               "vertices": [[0, 0], [4, 0], [0, 4]],
               "edge_points": [{"pair": [1, 2], "point": [-4, 0]},
                               {"pair": [1, 3], "point": [0, Fraction(-4, 3)]},
                               {"pair": [2, 3], "point": [8, -4]}]}
CURVED = [
    scenario_to_object(gen_menelaus_case(
        GenSpec(dimension=2, seed=1, kind="edge_points", geometry=g)), geometry=g)
    for g in ("spherical", "hyperbolic")
]

# finite input whose arithmetic leaves the float range; each exited 3
# (InternalError), or printed NaN, before it was caught as bad input.
# Entries: scenario (None for a generate call), extra arguments, fields of
# the expected error.
OVERFLOW_REPROS = {
    # the squares of the normal overflow
    "normal-1e200": (_family(_halfspaces(([1, 0], 0), ([0, 1], 0), ([1e200, 1e200], 1e200))),
                     [], {"code": "NotHomothetic", "pair": [1, 2]}),
    # the offset at unit normal overflows
    "offset-1e300": (_family(_halfspaces(([1e-160, 0], 1e300), ([0, 1], 0), ([-1, -1], -3))),
                     [], {"code": "ScenarioError", "where": "$.shapes[0]"}),
    # the squares underflow: the normal is not zero, and the set is empty
    "normal-1e-170": (_family(_halfspaces(([1e-170, 0], 0), ([0, 1], 0), ([-1, -1], 1))),
                      [], {"code": "ScenarioError", "where": "$.shapes[0]",
                           "message": "half-space constraints have empty intersection"}),
    # the second moments overflow
    "vertices-1e200": (_family(*({"type": "vertices", "points": p} for p in (
        [[0, 0], [1, 0], [0, 1e200]], [[0, 0], [2, 0], [0, 2e200]],
        [[5, 5], [8, 5], [5, 3e200]]))), [], {"code": "InvalidInput", "pair": [1, 2]}),
    # the exact offset has no float copy for the feasibility LP
    "exact-offset-10**400": (_family(_halfspaces(([1, 0], 0), ([0, 1], 0),
                                                 ([-1, -1], -10 ** 400))),
                             ["--exact"], {"code": "ScenarioError", "where": "$.shapes[0]"}),
    # the centers are finite, but not their differences from their centroid
    "ball-center-1.8e308": (_family(*THREE_CIRCLES["shapes"][:2], {
        "type": "ball", "center": [sys.float_info.max, 6], "radius": 1e200}),
        [], {"code": "InvalidInput",
             "message": "points overflow the float range of the hyperplane fit"}),
    # the homothety solve of a half-space pair overflows
    "offset-solve-1.8e308": (_family(_halfspaces(([1, 0], 0), ([0, 1], 0), ([-1, -1], -3)),
                                     _halfspaces(([1, 0], 0), ([0, 1], -sys.float_info.max),
                                                 ([-1, -1], -2)),
                                     _halfspaces(([1, 0], 0), ([0, 1], 0), ([-1, -1], -1))),
                             [], {"code": "InvalidInput", "pair": [1, 3]}),
    # the signed ratio is inf / inf
    "edge-point-2e160": ({**EDGE_POINTS, "edge_points": [
        {"pair": [1, 2], "point": [2e160, 0]}, {"pair": [1, 3], "point": [0, "-4/3"]},
        {"pair": [2, 3], "point": [8, -4]}]}, [], {"code": "InvalidInput", "pair": [1, 2]}),
    # the Lorentz form of the vertices is inf - inf
    "hyperbolic-1e300": ({**CURVED[1], "vertices": [[1e300 * x for x in v]
                                                    for v in CURVED[1]["vertices"]]},
                         [], {"code": "ScenarioError", "where": "$"}),
    "ratio-gap-1e308": (None, ["generate", "--dim", "2", "--kind", "balls",
                               "--ratio-gap", "1e308"], {"code": "InvalidInput"}),
}


@pytest.mark.parametrize("name", list(OVERFLOW_REPROS))
def test_finite_input_outside_float_range_exits_2(tmp_path, capsys, name):
    obj, extra, expected = OVERFLOW_REPROS[name]
    if obj is None:
        argv = [*extra, "--out", str(tmp_path)]
    else:
        argv = ["verify", "--input", write_scenario(tmp_path / "s.json", obj), *extra]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert expected.items() <= err.items(), err


# magnitudes from the smallest subnormal to the largest finite float
MAGNITUDES = [5e-324, 1e-310, 1e-200, 1e-160, 1e-100, 1e-10, 1.0,
              1e10, 1e100, 1e154, 1e160, 1e200, 1e300, sys.float_info.max]
FLOAT_EXTREMES = st.builds(lambda m, sign: sign * m, st.sampled_from(MAGNITUDES),
                           st.sampled_from([1.0, -1.0]))
EXACT_EXTREMES = st.one_of(
    st.sampled_from([10 ** 400, -10 ** 400]),
    st.builds(lambda k, e: Fraction(k) * Fraction(10) ** e,
              st.sampled_from([1, -1, 3, -7]), st.integers(-400, 400)),
)
# homothetic families and true edge-point sets, for a scaling to carry to
# the end of the pipeline
TEMPLATES = [
    THREE_CIRCLES,
    _family(*({"type": "vertices", "points": [[0, 0], [k, 0], [0, k]]} for k in (1, 2, 3))),
    _family(_triangle(1), _triangle(2), _triangle(3)),
    EDGE_POINTS,
    *CURVED,
]


@st.composite
def extreme_scenarios(draw):
    """(scenario, exact): a template with every number scaled by one extreme
    factor, then up to two numbers replaced by extreme ones."""
    exact = draw(st.booleans())
    extremes = EXACT_EXTREMES if exact else FLOAT_EXTREMES
    obj = copy.deepcopy(draw(st.sampled_from(TEMPLATES)))
    slots = _numbers(obj)
    factor = draw(st.one_of(st.just(1), extremes.map(abs)))
    for container, key in slots:
        container[key] = Fraction(container[key]) * factor
    for container, key in draw(st.lists(st.sampled_from(slots), max_size=2)):
        container[key] = draw(extremes)
    for container, key in slots:
        value = container[key]
        container[key] = encode_number(Fraction(value)) if exact else float(value)
    return obj, exact


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    return tmp_path_factory.mktemp("extreme") / "scenario.json"


def _repro(name):
    obj, extra, _ = OVERFLOW_REPROS[name]
    return obj, "--exact" in extra


@settings(max_examples=400, deadline=None)
@given(case=extreme_scenarios())
@example(case=_repro("normal-1e200"))
@example(case=_repro("offset-1e300"))
@example(case=_repro("normal-1e-170"))
@example(case=_repro("vertices-1e200"))
@example(case=_repro("exact-offset-10**400"))
@example(case=_repro("ball-center-1.8e308"))
@example(case=_repro("offset-solve-1.8e308"))
@example(case=_repro("edge-point-2e160"))
@example(case=_repro("hyperbolic-1e300"))
def test_verify_exit_code_on_extreme_finite_input(scenario_file, case):
    # bad input exits 2, never 3 (InternalError), with one line of strict
    # JSON (no NaN or Infinity) either way
    obj, exact = case
    write_scenario(scenario_file, obj)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--input", str(scenario_file), *(["--exact"] if exact else [])])
    assert code in (0, 1, 2), out.getvalue()
    (line,) = out.getvalue().splitlines()
    json.loads(line, parse_constant=_not_json)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")
