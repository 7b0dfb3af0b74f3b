"""Per-layer tracing of shiftlab from outside the program.

`Tracer.install()` replaces each timed function by a wrapper in every shiftlab
module namespace, and every module-level dict, that holds it. `cli` and
`stability` import `build_cached`, `occurrences`, `factors`, the test
functions and so on by name, so patching only the defining module would miss
their calls. Each call appends a span (name, start, end, parent, attrs) to a
list kept in memory; attrs are counts computed from the call's arguments and
result, so they repeat exactly. `metrics()` turns the spans into per-layer
self times (span time minus child spans) and count totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

def _system_key(x) -> str:
    return json.dumps([x.generator_id, x.length, x.params], sort_keys=True, default=str)


def _occurrences(args, kwargs, r):
    return {
        "core.occurrences.calls": 1,
        "core.occurrences.probes": (r.limit - len(r.word) + 1) * len(r.word),
    }


def _diam_series(args, kwargs, r):
    x = args[0] if args else kwargs["x"]
    return {
        "stability.diam_series.calls": 1,
        "cylinder": [_system_key(x), str(r.word), r.horizon],
    }


def _diam_kernel(args, kwargs, r):
    return {
        "stability.diam_kernel.calls": 1,
        "stability.diam_kernel.samples": r.sample_count,
        "stability.diam_kernel.probes": r.sample_count * (r.horizon + r.depth_cap),
    }


def _sensitivity(args, kwargs, r):
    return {
        "stability.sensitivity.words": r.params["word_count"],
        "stability.sensitivity.evaluated": r.evidence.get("evaluated", 0),
    }


# (defining module, function, layer, counts from (args, kwargs, result)); the
# "cylinder" attr names the (system, word, horizon) a series was built for.
TIMED = (
    ("shiftlab.generate", "build_cached", "generate.build",
     lambda a, k, r: {"generate.symbols": r.length}),
    ("shiftlab.core", "occurrences", "core.occurrences", _occurrences),
    ("shiftlab.core", "factors", "core.factors",
     lambda a, k, r: {"core.factors.calls": 1, "core.factors.words": len(r)}),
    ("shiftlab.stability", "diam_series", "stability.diam_series", _diam_series),
    ("shiftlab.stability", "diam_series_from_positions", "stability.diam_kernel", _diam_kernel),
    ("shiftlab.stability", "diam_mean_avg_test", "stability.battery", None),
    ("shiftlab.stability", "diam_mean_density_test", "stability.battery", None),
    ("shiftlab.stability", "banach_diam_mean_test", "stability.battery", None),
    ("shiftlab.stability", "stable_in_mean_test", "stability.battery", None),
    ("shiftlab.stability", "frequent_stability_test", "stability.battery", None),
    ("shiftlab.stability", "classify_hierarchy", "stability.classify", None),
    ("shiftlab.stability", "diam_mean_sensitivity_test", "stability.sensitivity", _sensitivity),
    ("shiftlab.stability", "covering_words", "stability.covering_words", None),
    ("shiftlab.stability", "mean_eq_modulus", "stability.modulus",
     lambda a, k, r: {"stability.modulus.pairs": sum(r.pair_counts)}),
    ("shiftlab.stability", "nonzero_support_counts", "stability.support_counts",
     lambda a, k, r: {"stability.support_counts.probes": r.sample_count * r.horizons[-1]}),
    ("shiftlab.stability", "entropy_complexity", "stability.entropy", None),
    ("shiftlab.recurrence", "multi_recurrence_search", "recurrence.search",
     lambda a, k, r: {"recurrence.search.steps": r.horizon if r.found is None else r.found}),
    ("shiftlab.cli", "run_config", "cli.run_config", None),
)

# Count totals reported per layer, beside every layer's self_s.
COUNTS = (
    "generate.symbols",
    "core.occurrences.calls",
    "core.occurrences.probes",
    "core.factors.calls",
    "core.factors.words",
    "stability.diam_series.calls",
    "stability.diam_kernel.calls",
    "stability.diam_kernel.samples",
    "stability.diam_kernel.probes",
    "stability.sensitivity.words",
    "stability.modulus.pairs",
    "stability.support_counts.probes",
    "recurrence.search.steps",
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TIMED))


class Tracer:
    """Spans of one traced run, recorded by wrappers around the timed functions."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _wrap(self, fn, layer, attrs):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append({"name": layer, "start": time.perf_counter(), "end": None,
                          "parent": open_[-1] if open_ else None})
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx]["end"] = time.perf_counter()
                open_.pop()
            if attrs is not None:
                spans[idx]["attrs"] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every shiftlab namespace; raises if a timed function is gone."""
        wrappers = {}
        for modname, fname, layer, attrs in TIMED:
            fn = getattr(importlib.import_module(modname), fname)
            wrappers[id(fn)] = (fn, self._wrap(fn, layer, attrs))

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        shiftlab = [mod for name, mod in list(sys.modules.items())
                    if name == "shiftlab" or name.startswith("shiftlab.")]
        for mod in shiftlab:
            for name, value in list(vars(mod).items()):
                if (new := swap(value)) is not None:
                    setattr(mod, name, new)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if (new := swap(item)) is not None:
                            value[key] = new

    def metrics(self) -> dict[str, float]:
        """Per-layer self time, count totals and the two derived ratios."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        totals = Counter()
        cylinders = set()
        for span, children in zip(self.spans, child_time):
            out[f"{span['name']}.self_s"] += span["end"] - span["start"] - children
            for key, value in span.get("attrs", {}).items():
                if key == "cylinder":
                    cylinders.add(json.dumps(value))
                else:
                    totals[key] += value
        out.update({name: totals[name] for name in COUNTS})
        builds = totals["stability.diam_series.calls"]
        out["stability.series_builds_per_cylinder"] = builds / len(cylinders) if cylinders else 0.0
        words = totals["stability.sensitivity.words"]
        evaluated = totals["stability.sensitivity.evaluated"]
        out["stability.sensitivity.evaluated_ratio"] = evaluated / words if words else 0.0
        return out
