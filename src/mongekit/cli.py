"""Command-line front end.

Four subcommands: ``verify`` scores a scenario file and writes a report,
``generate`` writes deterministic scenario corpora, ``sweep`` runs a
positive-plus-negative property sweep over a dimension range, and
``figure`` renders a 2D shapes scenario to SVG.

Exit codes: 0 success (verify: verdict matched the expectation, or was
true when the file carries none), 1 verdict mismatch, 2 bad input of any
kind, 3 internal error (an unexpected exception, that is a bug in
mongekit; its error code is "InternalError").  Errors are reported as one
JSON object on stdout so harnesses can parse them.  The default tolerance
is 1e-9, overridable per-call with --tolerance or globally with the
MONGE_TOLERANCE environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from .errors import GeometryError, ScenarioError
from .figure import render_figure
from .generators import (
    GenSpec,
    gen_ball_config,
    gen_menelaus_case,
    gen_rational_case,
    gen_vertex_config,
)
from .kernel import Tolerance
from .monge import MongeConfig, run_monge
from .scenario import (
    EUCLIDEAN,
    atomic_write_json,
    atomic_write_text,
    edge_point_verifier,
    json_text,
    parse_scenario,
    scenario_to_object,
    verify_scenario,
)

__all__ = ["main"]

DEFAULT_TOLERANCE_VALUE = 1e-9


def _emit_error(obj):
    sys.stdout.write(json_text({"error": obj}))


def _error_object(e):
    if isinstance(e, ScenarioError):
        return e.as_object()
    out = {"code": type(e).__name__, "message": str(e)}
    if getattr(e, "pair", None) is not None:
        out["pair"] = list(e.pair)
    return out


def _resolve_tolerance(value):
    if value is None:
        env = os.environ.get("MONGE_TOLERANCE")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise ScenarioError(
                    f"MONGE_TOLERANCE must be a number, got {env!r}"
                ) from None
        else:
            value = DEFAULT_TOLERANCE_VALUE
    if not 0 < value < float("inf"):
        raise ScenarioError("tolerance must be finite and positive")
    return Tolerance(abs=value, rel=value)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ScenarioError(f"not valid JSON: {e}", where=path) from e
    except OSError as e:
        raise ScenarioError(str(e), where=path) from e


def cmd_verify(args):
    tol = _resolve_tolerance(args.tolerance)
    scenario = parse_scenario(_load_json(args.input), exact=args.exact)
    report = verify_scenario(scenario, tol)
    if args.output:
        atomic_write_json(args.output, report)
    else:
        sys.stdout.write(json_text(report))
    verdict = report["verdict"]
    wanted = scenario.expect if scenario.expect is not None else True
    return 0 if verdict == wanted else 1


def cmd_generate(args):
    spec = GenSpec(
        dimension=args.dim,
        seed=args.seed,
        kind=args.kind,
        geometry=args.geometry,
        count=args.count,
        ratio_gap=args.ratio_gap,
        perturb=args.perturb,
    )
    positive = args.perturb is None
    os.makedirs(args.out, exist_ok=True)
    written = []
    for k in range(args.count):
        if args.kind == "balls":
            payload = gen_ball_config(spec, index=k)
        elif args.kind == "vertex_sets":
            payload = gen_vertex_config(spec, index=k)
        elif args.rational:
            payload = gen_rational_case(spec, positive=positive, index=k)
        else:
            payload = gen_menelaus_case(spec, positive=positive, index=k)
        obj = scenario_to_object(payload, geometry=args.geometry, expect=positive)
        path = os.path.join(args.out, f"scenario-{args.seed}-{k}.json")
        atomic_write_json(path, obj)
        written.append(path)
    for path in written:
        print(path)
    return 0


def _parse_dims(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            dims = list(range(int(lo), int(hi) + 1))
        else:
            dims = [int(text)]
    except ValueError:
        raise ScenarioError(f"bad dimension range {text!r}; use forms '3' or '2..6'") from None
    if not dims or dims[0] < 2:
        raise ScenarioError(f"bad dimension range {text!r}")
    return dims


def _case_violation(report):
    """Largest residual a negative case shows; None counts as unbounded."""
    worst = max(report.triple_residuals.values(), default=0.0)
    if report.hyperplane_residual is None:
        return float("inf")
    return max(worst, report.hyperplane_residual)


def cmd_sweep(args):
    tol = _resolve_tolerance(args.tolerance)
    dims = _parse_dims(args.dims)
    verify = edge_point_verifier(args.geometry)
    rows = []
    clean = True
    for dim in dims:
        if args.per_cell == 0:
            continue
        pos_spec = GenSpec(dimension=dim, seed=args.seed, kind="edge_points",
                           geometry=args.geometry, count=args.per_cell)
        neg_spec = GenSpec(dimension=dim, seed=args.seed, kind="edge_points",
                           geometry=args.geometry, count=args.per_cell,
                           perturb=args.perturb)
        pos_pass = neg_pass = 0
        max_residual = 0.0
        neg_floor = float("inf")
        for k in range(args.per_cell):
            rep = verify(gen_menelaus_case(pos_spec, positive=True, index=k), tol)
            if rep.verdict:
                pos_pass += 1
            max_residual = max(max_residual, _case_violation(rep))
            rep = verify(gen_menelaus_case(neg_spec, positive=False, index=k), tol)
            if not rep.verdict:
                neg_pass += 1
            neg_floor = min(neg_floor, _case_violation(rep))
        cell_clean = pos_pass == args.per_cell and neg_pass == args.per_cell
        clean = clean and cell_clean
        rows.append((dim, pos_pass, args.per_cell - pos_pass,
                     neg_pass, args.per_cell - neg_pass, max_residual, neg_floor))
    print(f"{'dim':>4} {'pos pass':>9} {'pos fail':>9} {'neg pass':>9} "
          f"{'neg fail':>9} {'max residual':>14} {'neg floor':>14}")
    for dim, pp, pf, np_, nf, mr, floor in rows:
        floor_s = f"{floor:.3e}" if floor != float("inf") else "inf"
        print(f"{dim:>4} {pp:>9} {pf:>9} {np_:>9} {nf:>9} {mr:>14.3e} {floor_s:>14}")
    return 0 if clean else 1


def cmd_figure(args):
    scenario = parse_scenario(_load_json(args.input))
    if scenario.kind != "shapes" or scenario.dimension != 2:
        raise ScenarioError("figures need a 2D euclidean scenario of kind 'shapes'")
    config = MongeConfig.build(scenario.payload, _resolve_tolerance(None))
    report = run_monge(config, _resolve_tolerance(None))
    svg = render_figure(config.shapes, report.centers, report.hyperplane)
    atomic_write_text(args.output, svg)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mongekit",
        description="Verify, generate, sweep, and draw homothety-center scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="score one scenario file")
    p.add_argument("--input", required=True)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write deterministic scenario files")
    p.add_argument("--geometry", default=EUCLIDEAN,
                   choices=["euclidean", "spherical", "hyperbolic"])
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", required=True,
                   choices=["balls", "vertex_sets", "edge_points"])
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ratio-gap", type=float, default=1.5)
    p.add_argument("--perturb", type=float, default=None,
                   help="emit negative cases with this relative perturbation")
    p.add_argument("--rational", action="store_true",
                   help="rational euclidean edge-point scenarios")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sweep", help="positive and negative property sweep")
    p.add_argument("--geometry", default=EUCLIDEAN,
                   choices=["euclidean", "spherical", "hyperbolic"])
    p.add_argument("--dims", default="2..4")
    p.add_argument("--per-cell", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=float, default=1e-2)
    p.add_argument("--tolerance", type=float, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="render a 2D shapes scenario to SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GeometryError as e:
        _emit_error(_error_object(e))
        return 2
    except OSError as e:
        _emit_error({"code": "IOError", "message": str(e)})
        return 2
    except Exception as e:  # a bug, not bad input: never exit 1 ("mismatch")
        traceback.print_exc()
        _emit_error({"code": "InternalError", "message": f"{type(e).__name__}: {e}"})
        return 3


if __name__ == "__main__":
    sys.exit(main())
