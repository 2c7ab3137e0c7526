"""The measured process: runs one workload's operations in a closed loop.

    python3 perfbench/worker.py {setup|run|trace|regen} PLAN RESULT

``setup`` imports mongekit, runs the warm-up operation and records when it
completed; ``run`` goes on to repeat the plan's whole list of operations
in as many whole rounds as fit in the plan's seconds (at least
``min_rounds``), timing each operation; ``trace`` does the
same with the per-layer wrappers installed, then counts stream draws in
one extra round; ``regen`` rewrites the plan's regeneration sample of
corpus files.  The result is a JSON file; the
orchestrator (run.py) checks outputs, so nothing here judges them.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _verify_op(plan):
    cli = sys.modules["mongekit.cli"]
    cases = plan["cases"]

    def op(k, out_dir):
        argv = ["verify", "--input", cases[k]["input"],
                "--output", os.path.join(out_dir, f"{k:03d}.json")]
        if cases[k]["exact"]:
            argv.append("--exact")
        return cli.main(argv) == 0

    return op


def _generate_op(plan):
    generators = sys.modules["mongekit.generators"]
    scenario = sys.modules["mongekit.scenario"]
    gen = plan["generate"]
    specs = {}
    for op in gen["ops"]:
        key = (op["variant"], op["positive"])
        if key not in specs:
            shape = op["variant"] in ("balls", "vertex_sets")
            specs[key] = generators.GenSpec(
                dimension=gen["dimension"], seed=gen["seed"],
                kind=op["variant"] if shape else "edge_points",
                geometry=op["variant"] if op["variant"] in ("spherical", "hyperbolic") else "euclidean",
                perturb=None if op["positive"] else gen["perturb"],
            )

    def op(k, out_dir):
        o = gen["ops"][k]
        spec = specs[(o["variant"], o["positive"])]
        variant, index = o["variant"], o["index"]
        # the per-file body of `mongekit generate`
        if variant == "balls":
            payload = generators.gen_ball_config(spec, index=index)
        elif variant == "vertex_sets":
            payload = generators.gen_vertex_config(spec, index=index)
        elif variant == "rational":
            payload = generators.gen_rational_case(spec, positive=o["positive"], index=index)
        else:
            payload = generators.gen_menelaus_case(spec, positive=o["positive"], index=index)
        obj = scenario.scenario_to_object(payload, geometry=spec.geometry, expect=o["positive"])
        scenario.atomic_write_json(os.path.join(out_dir, f"scenario-{spec.seed}-{index}.json"), obj)
        return True

    return op


def _out_dir(plan, tag):
    """Directory for one round's reports (verify) or corpus files (generate)."""
    path = os.path.join(plan["work"], "corpus" if "generate" in plan else "reports", tag)
    os.makedirs(path, exist_ok=True)
    return path


def _count_draws(op, count, plan):
    """Stream draws in one more round, made after the timed rounds: a counter
    on every draw would otherwise swamp the generators' self time."""
    from mongekit.generators import SplitMix64

    draws = 0
    original = SplitMix64.next_u64

    def counted(self):
        nonlocal draws
        draws += 1
        return original(self)

    SplitMix64.next_u64 = counted
    try:
        out = _out_dir(plan, "draws")
        for k in range(count):
            op(k, out)
    finally:
        SplitMix64.next_u64 = original
    return draws


def main(argv):
    mode, plan_path, result_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import mongekit.cli  # noqa: F401

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    op = _generate_op(plan) if "generate" in plan else _verify_op(plan)
    count = plan["ops"]

    if mode == "regen":
        out = _out_dir(plan, "regen")
        for k in plan["regen"]:
            op(k, out)
        return 0

    errors = []
    warm_ok = op(0, _out_dir(plan, "setup" if mode == "setup" else "warmup"))
    ready = time.monotonic()
    if mode == "setup":
        with open(result_path, "w") as fh:
            json.dump({"ready": ready, "warm_ok": warm_ok}, fh)
        return 0

    if tracer is not None:
        tracer.reset()
    latencies = []
    failed = 0
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while True:
        out = _out_dir(plan, f"r{rounds}")
        for k in range(count):
            t0 = clock()
            try:
                ok = op(k, out)
            except Exception as e:  # a crash is a failed operation, not a dead run
                ok = False
                errors.append(f"op {k}: {type(e).__name__}: {e}")
            latencies.append(clock() - t0)
            failed += not ok
        rounds += 1
        elapsed = clock() - start
        # stop before a round that would end past the run's seconds, but
        # never with fewer timings per operation than run.py asks for
        if rounds >= plan["min_rounds"] and elapsed * (rounds + 1) / rounds > plan["seconds"]:
            break
    wall = clock() - start
    result = {
        "ready": ready, "warm_ok": warm_ok, "rounds": rounds, "wall": wall,
        "latencies": latencies, "failed": failed, "errors": errors[:20],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.totals()
        result["trace"]["calls"]["generators.draws"] = rounds * _count_draws(op, count, plan)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
