"""Per-layer spans and counts, recorded from outside the program.

``install`` wraps the public functions of each mongekit layer.  A wrapper
replaces the module attribute in every mongekit module that holds the
original object, so calls through ``from .kernel import is_exact`` are
seen as well as calls inside the defining module.  Spans nest: a layer's
self time is its span minus the time of the spans it encloses.  Counts
are kept at the same boundaries.  Everything stays in memory until
``Tracer.totals`` is read at the end of the run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the span's self time is reported as
# ``<span>_ms`` per operation and, where LAYERS asks, its calls as ``<span>_calls``
FUNCTION_SPANS = (
    ("mongekit.cli", "main", "cli.self"),
    ("mongekit.scenario", "parse_scenario", "scenario.parse"),
    ("mongekit.scenario", "verify_scenario", "scenario.report"),
    ("mongekit.scenario", "atomic_write_json", "scenario.write"),
    ("mongekit.scenario", "scenario_to_object", "scenario.encode"),
    ("mongekit.kernel", "is_exact", "kernel.is_exact"),
    ("mongekit.kernel", "fit_hyperplane", "kernel.fit_hyperplane"),
    ("mongekit.kernel", "affinely_independent", "kernel.independence"),
    ("mongekit.menelaus", "signed_ratio", "menelaus.signed_ratio"),
    ("mongekit.menelaus", "menelaus_products", "menelaus.products"),
    ("mongekit.monge", "run_monge", "monge.run"),
    ("mongekit.shapes", "size_measure", "shapes.size_measure"),
    ("mongekit.shapes", "detect_homothety", "shapes.detect_homothety"),
    ("mongekit.noneuclid", "sphere_point", "noneuclid.point"),
    ("mongekit.noneuclid", "hyperboloid_point", "noneuclid.point"),
    ("mongekit.noneuclid", "xn_lambda", "noneuclid.xn_lambda"),
    ("mongekit.noneuclid", "geodesic_distance", "noneuclid.geodesic_distance"),
    ("mongekit.noneuclid", "xn_hyperplane_fit", "noneuclid.fit"),
    ("mongekit.noneuclid", "verify_prop2", "noneuclid.verify"),
    ("mongekit.generators", "gen_ball_config", "generators.gen"),
    ("mongekit.generators", "gen_vertex_config", "generators.gen"),
    ("mongekit.generators", "gen_menelaus_case", "generators.gen"),
    ("mongekit.generators", "gen_rational_case", "generators.gen"),
)

# reported metric -> (span or counter name, "ms" for self time or "calls", unit)
LAYERS = {
    "cli.self_ms": ("cli.self", "ms", "ms/op"),
    "scenario.parse_ms": ("scenario.parse", "ms", "ms/op"),
    "scenario.report_ms": ("scenario.report", "ms", "ms/op"),
    "scenario.write_ms": ("scenario.write", "ms", "ms/op"),
    "scenario.encode_ms": ("scenario.encode", "ms", "ms/op"),
    "kernel.is_exact_calls": ("kernel.is_exact", "calls", "calls/op"),
    "kernel.is_exact_ms": ("kernel.is_exact", "ms", "ms/op"),
    "kernel.fit_hyperplane_ms": ("kernel.fit_hyperplane", "ms", "ms/op"),
    "kernel.independence_ms": ("kernel.independence", "ms", "ms/op"),
    "menelaus.signed_ratio_calls": ("menelaus.signed_ratio", "calls", "calls/op"),
    "menelaus.signed_ratio_ms": ("menelaus.signed_ratio", "ms", "ms/op"),
    "menelaus.products_ms": ("menelaus.products", "ms", "ms/op"),
    "monge.build_ms": ("monge.build", "ms", "ms/op"),
    "monge.run_ms": ("monge.run", "ms", "ms/op"),
    "shapes.construct_ms": ("shapes.construct", "ms", "ms/op"),
    "shapes.size_measure_ms": ("shapes.size_measure", "ms", "ms/op"),
    "shapes.detect_homothety_ms": ("shapes.detect_homothety", "ms", "ms/op"),
    "shapes.linprog_calls": ("shapes.linprog", "calls", "calls/op"),
    "noneuclid.point_ms": ("noneuclid.point", "ms", "ms/op"),
    "noneuclid.xn_lambda_ms": ("noneuclid.xn_lambda", "ms", "ms/op"),
    "noneuclid.geodesic_distance_calls": ("noneuclid.geodesic_distance", "calls", "calls/op"),
    "noneuclid.geodesic_distance_ms": ("noneuclid.geodesic_distance", "ms", "ms/op"),
    "noneuclid.fit_ms": ("noneuclid.fit", "ms", "ms/op"),
    "noneuclid.verify_ms": ("noneuclid.verify", "ms", "ms/op"),
    # counted by worker.py in a round of its own, see _count_draws
    "generators.draws_per_file": ("generators.draws", "calls", "draws/op"),
    "generators.gen_ms": ("generators.gen", "ms", "ms/op"),
}


class Tracer:
    def __init__(self):
        self.self_seconds = defaultdict(float)
        self.calls = Counter()
        self._open = []  # child time accumulated by each open span

    def span(self, name, fn):
        clock = time.perf_counter
        open_spans = self._open

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self.self_seconds[name] += took - open_spans.pop()
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += took

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reset(self):
        self.self_seconds.clear()
        self.calls.clear()

    def totals(self):
        return {"self_seconds": dict(self.self_seconds), "calls": dict(self.calls)}


def _replace_everywhere(original, wrapped):
    for name, module in list(sys.modules.items()):
        if name != "mongekit" and not name.startswith("mongekit."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer):
    """Wrap every traced layer of the already importable mongekit package."""
    import mongekit.cli  # noqa: F401  (loads every layer module)
    from mongekit.monge import MongeConfig
    from mongekit.shapes import Ball, HalfspaceSet, VertexSet

    for module, attr, name in FUNCTION_SPANS:
        original = getattr(sys.modules[module], attr)
        _replace_everywhere(original, tracer.span(name, original))
    _replace_everywhere(sys.modules["mongekit.shapes"].linprog,
                        tracer.count("shapes.linprog", sys.modules["mongekit.shapes"].linprog))
    MongeConfig.build = classmethod(tracer.span("monge.build", MongeConfig.__dict__["build"].__func__))
    for cls in (Ball, VertexSet, HalfspaceSet):
        cls.__init__ = tracer.span("shapes.construct", cls.__init__)


def per_op(totals, ops):
    """Per-layer metrics per operation from ``Tracer.totals``."""
    out = {}
    for metric, (name, kind, _) in LAYERS.items():
        if kind == "ms":
            out[metric] = totals["self_seconds"].get(name, 0.0) * 1e3 / ops
        else:
            out[metric] = totals["calls"].get(name, 0) / ops
    return out
