"""mongekit benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md): edge-float, edge-exact, shapes, generate.

This process writes the workload's inputs, then starts fresh interpreters
(worker.py) that import mongekit from ``src/`` next to this directory:
SETUP_PROBES starts that each time interpreter start, import and the
first operation, and the measured run, a closed loop of one client
repeating the workload's fixed list of operations in as many whole rounds
as fit in S seconds, and at least MIN_ROUNDS.  Nothing else runs
meanwhile.  Every output is then checked by checks.py, and the
last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with --trace 1 the per-layer metrics of a
run made with the tracing wrappers installed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("edge-float", "edge-exact", "shapes", "generate")
SETUP_PROBES = 3     # set-up starts besides the measured run's own
MIN_ROUNDS = 5       # timings per operation, of which the median counts
REGEN_SAMPLE = 12    # corpus files regenerated in another process and compared byte for byte


def _spawn(mode, plan_path, result_path, work, timeout):
    """Run worker.py in a fresh interpreter; returns (monotonic start, result)."""
    log = work / f"{result_path.stem}.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, str(plan_path), str(result_path)],
            stdout=fh, stderr=subprocess.STDOUT, timeout=timeout, cwd=ROOT,
        )
    if proc.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"worker {mode} exited with {proc.returncode}")
    if mode == "regen":
        return start, None
    return start, json.loads(result_path.read_text())


def _write_inputs(workload, seed, work):
    """Scenario files (verify workloads) or the corpus plan (generate)."""
    if workload == "generate":
        gen = inputs.build_generate(seed)
        return {"generate": gen, "ops": len(gen["ops"])}, gen["ops"]
    build = {"edge-float": inputs.build_edge_float, "edge-exact": inputs.build_edge_exact,
             "shapes": inputs.build_shapes}[workload]
    cases = build(seed)
    (work / "inputs").mkdir()
    plan_cases = []
    for k, case in enumerate(cases):
        path = work / "inputs" / f"{k:03d}.json"
        path.write_text(json.dumps(case["scenario"]))
        plan_cases.append({"input": str(path), "exact": case["exact"]})
    return {"cases": plan_cases, "ops": len(cases)}, cases


def _check_report(workload, case, report):
    if workload == "shapes":
        return checks.check_shapes_report(case["scenario"], case["maps"], report)
    return checks.check_edge_report(case["scenario"], report, case["exact"])


def _strip(report):
    return {k: v for k, v in report.items() if k != "elapsed_seconds"}


def check_verify(workload, cases, work, copies, first_copies):
    """Check round 0 against the construction; every other copy of a report
    (later rounds in ``copies``, warm-up and set-up probes of the first
    operation in ``first_copies``) must equal it apart from timing."""
    problems = []
    reports = work / "reports"
    for k, case in enumerate(cases):
        first = json.loads((reports / "r0" / f"{k:03d}.json").read_text())
        problems += [f"op {k}: {p}" for p in _check_report(workload, case, first)]
        for d in copies + (first_copies if k == 0 else []):
            if _strip(json.loads((reports / d / f"{k:03d}.json").read_text())) != _strip(first):
                problems.append(f"op {k}: {d} report differs from round 0")
    return problems


def check_generate(plan, work, copies, first_copies):
    """Check round 0's files against their generator's promise; every other
    copy, and a sample regenerated in another process, must be byte-identical."""
    problems = []
    gen = plan["generate"]
    corpus = work / "corpus"
    for k in plan["regen"]:
        name = f"scenario-{gen['seed']}-{gen['ops'][k]['index']}.json"
        if (corpus / "regen" / name).read_bytes() != (corpus / "r0" / name).read_bytes():
            problems.append(f"op {k}: regenerated {name} is not byte-identical")
    for k, op in enumerate(gen["ops"]):
        name = f"scenario-{gen['seed']}-{op['index']}.json"
        data = (corpus / "r0" / name).read_bytes()
        problems += [f"op {k}: {p}" for p in
                     checks.check_generated(op, json.loads(data), gen["dimension"])]
        for d in copies + (first_copies if k == 0 else []):
            if (corpus / d / name).read_bytes() != data:
                problems.append(f"op {k}: {d} copy of {name} differs from round 0")
    return problems


def timings(latencies, ops):
    """Throughput and p50/p90 latency (ms) of the fixed list of operations.

    Each operation's latency is the median of its timings, one per round:
    on a shared machine the speed of the processor swings by tens of
    percent over seconds, so a single timing, and even the least of a few,
    says more about the moment than about the operation.  The p50 and p90
    then describe how cost spreads over the list's operations, and
    throughput is the list's length over the sum of those latencies.
    """
    rounds = len(latencies) // ops
    per_op = [statistics.median(latencies[r * ops + k] for r in range(rounds)) * 1e3
              for k in range(ops)]
    return (ops / (sum(per_op) / 1e3), statistics.median(per_op),
            statistics.quantiles(per_op, n=10)[8])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mongekit" / "__init__.py").is_file():
        raise SystemExit(f"no mongekit sources under {src}")
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan, cases = _write_inputs(args.workload, args.seed, work)
    plan.update(src=str(src), work=str(work), seconds=args.seconds, min_rounds=MIN_ROUNDS)
    if args.workload == "generate":
        ops = len(cases)
        plan["regen"] = sorted(set(range(REGEN_SAMPLE // 2))
                               | set(range(ops - REGEN_SAMPLE // 2, ops)))
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    timeout = args.seconds + 150

    setups = []
    warm_ok = []
    first_copies = ["warmup"]
    # bytecode is cached before any start is timed, as an installed package's is
    compileall.compile_dir(str(src / "mongekit"), quiet=1)
    if not args.trace:
        for p in range(SETUP_PROBES):
            start, res = _spawn("setup", plan_path, work / f"setup-{p}.json", work, timeout)
            setups.append(res["ready"] - start)
            warm_ok.append(res["warm_ok"])
        first_copies.append("setup")
    mode = "trace" if args.trace else "run"
    start, res = _spawn(mode, plan_path, work / f"{mode}.json", work, timeout)
    setups.append(res["ready"] - start)
    warm_ok.append(res["warm_ok"])
    if args.workload == "generate":
        _spawn("regen", plan_path, work / "regen.json", work, timeout)

    rounds = res["rounds"]
    # the traced run's extra round that counts stream draws is one more copy
    copies = [f"r{r}" for r in range(1, rounds)] + (["draws"] if args.trace else [])
    if args.workload == "generate":
        problems = check_generate(plan, work, copies, first_copies)
    else:
        problems = check_verify(args.workload, cases, work, copies, first_copies)
    if not all(warm_ok):
        problems.append("a warm-up operation failed")
    for p in problems[:20] + res["errors"]:
        print(p, file=sys.stderr)

    attempted = len(res["latencies"])
    throughput, p50, p90 = timings(res["latencies"], plan["ops"])
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.LAYERS[name][2]}
                   for name, value in tracing.per_op(res["trace"], attempted).items()}
        traced_ms = sum(res["trace"]["self_seconds"].values()) * 1e3 / attempted
        print(f"traced run: {attempted} ops in {rounds} rounds, {throughput:.3f} ops/s, "
              f"p50 {p50:.3f} ms, mean {1e3 * res['wall'] / attempted:.3f} ms, "
              f"of which {traced_ms:.3f} ms inside traced spans")
    else:
        metrics = {
            "throughput_ops_s": {"value": throughput, "unit": "ops/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
            "latency_p90_ms": {"value": p90, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
        print(f"run: {attempted} ops in {rounds} rounds, setup samples "
              + ", ".join(f"{s:.3f}" for s in setups))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
