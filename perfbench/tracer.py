"""Span tracing for the traced benchmark run.

The tracer replaces module attributes at the call sites of each layer with
wrappers that record a span per call: its name, its parent span, its
duration and the part of that duration its child spans cover. Spans are
aggregated in memory by (name, parent) and handed to the caller at the end
of the repetition.

Wrapping fails soft. A target that no longer exists (a later change renamed
or removed the entry point) is skipped, and every layer metric that depends
on it is reported as missing instead of crashing the benchmark.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (span name, module, attribute). Each attribute is looked up at run time by
# its callers, so replacing it captures every call through that call site.
TARGETS = (
    ("af.extensions", "argbayes.af", "extensions"),
    ("af.extensions", "argbayes.af", "extensions_for_attacks"),
    ("model.theta", "argbayes.model", "theta_for_attacks"),
    ("inference.likelihood", "argbayes.inference", "acceptability_likelihood"),
    ("inference.likelihood", "argbayes.gibbs", "acceptability_likelihood"),
    ("inference.exact", "argbayes.inference", "exact_posterior"),
    ("inference.exact", "argbayes.inference", "map_estimate"),
    ("inference.exact", "argbayes.harness", "exact_posterior"),
    ("inference.exact", "argbayes.harness", "map_estimate"),
    ("inference.predictive", "argbayes.inference", "posterior_predictive"),
    ("inference.predictive", "argbayes.harness", "posterior_predictive"),
    ("inference.sequential", "argbayes.inference", "sequential_update"),
    ("gibbs.chain", "argbayes.gibbs", "_run_chain"),
    ("gibbs.conditional", "argbayes.gibbs", "gibbs_conditional"),
    ("harness.infer", "argbayes.harness", "_infer"),
    ("harness.score", "argbayes.harness", "predictive_score"),
    ("io.load", "argbayes.io", "load_votes"),
    ("io.load", "argbayes.io", "load_config"),
    ("io.save", "argbayes.io", "save_table"),
    ("io.save", "argbayes.io", "save_posterior"),
    ("cli.run", "argbayes.cli", "run"),
)

# lru_caches whose cache_info() deltas give the cache counters.
CACHES = {
    "af.kernel": ("argbayes.af", "_extensions_cached"),
    "model.agreement": ("argbayes.model", "_agreement_stats"),
}

# Layer metric -> (unit, wrap targets or caches it needs). A metric whose
# needs are not all present is reported as missing.
_GIBBS_LIKELIHOOD = ("argbayes.gibbs", "acceptability_likelihood")
LAYER_METRICS = {
    "af.extensions.calls": ("count", ("af.extensions",)),
    "af.extensions.busy_s": ("s", ("af.extensions",)),
    "af.kernel.lookups": ("count", ("af.kernel",)),
    "af.kernel.misses": ("count", ("af.kernel",)),
    "af.kernel.hit_ratio": ("ratio", ("af.kernel",)),
    "model.theta.calls": ("count", ("model.theta",)),
    "model.theta.busy_s": ("s", ("model.theta",)),
    "model.agreement.hit_ratio": ("ratio", ("model.agreement",)),
    "model.agreement.entries": ("count", ("model.agreement",)),
    "inference.likelihood.calls": ("count", ("inference.likelihood",)),
    "inference.likelihood.busy_s": ("s", ("inference.likelihood",)),
    "inference.exact.busy_s": ("s", ("inference.exact",)),
    "inference.predictive.busy_s": ("s", ("inference.predictive",)),
    "inference.sequential.busy_s": ("s", ("inference.sequential",)),
    "gibbs.chain.busy_s": ("s", ("gibbs.chain",)),
    "gibbs.conditional.calls": ("count", ("gibbs.conditional",)),
    "gibbs.conditional.self_s": ("s", ("gibbs.conditional",)),
    "gibbs.likelihood_calls_per_update": (
        "ratio", ("gibbs.conditional", _GIBBS_LIKELIHOOD)),
    "harness.infer.busy_s": ("s", ("harness.infer",)),
    "harness.score.busy_s": ("s", ("harness.score",)),
    "io.load.busy_s": ("s", ("io.load",)),
    "io.save.busy_s": ("s", ("io.save",)),
    "cli.run.busy_s": ("s", ("cli.run",)),
}


def _resolve(module: str, attr: str):
    try:
        return getattr(importlib.import_module(module), attr)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans around the wrapped call sites of one process."""

    def __init__(self):
        self._stack: list[list] = []   # [name, child seconds]
        self._active: dict[str, int] = {}
        # (name, parent) -> [count, total seconds, self seconds]
        self.spans: dict[tuple[str, str | None], list] = {}
        # name -> seconds inside the outermost span of that name
        self.busy: dict[str, float] = {}
        self.installed: set = set()
        self._cache_start: dict[str, tuple[int, int]] = {}

    def install(self) -> None:
        for name, module, attr in TARGETS:
            fn = _resolve(module, attr)
            if not callable(fn):
                continue
            setattr(importlib.import_module(module), attr, self._wrap(name, fn))
            self.installed.update((name, (module, attr)))
        for key, (module, attr) in CACHES.items():
            info = getattr(_resolve(module, attr), "cache_info", None)
            if info is not None:
                self.installed.add(key)
                self._cache_start[key] = (info().hits, info().misses)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [name, 0.0]
        stack.append(frame)
        self._active[name] = self._active.get(name, 0) + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            self._active[name] -= 1
            if not self._active[name]:
                self.busy[name] = self.busy.get(name, 0.0) + elapsed
            agg = self.spans.get((name, parent))
            if agg is None:
                agg = self.spans[(name, parent)] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[1]

    def _cache_delta(self, key: str):
        module, attr = CACHES[key]
        info = _resolve(module, attr).cache_info()
        hits0, misses0 = self._cache_start[key]
        return info.hits - hits0, info.misses - misses0, info.currsize

    def metrics(self) -> dict[str, float]:
        """Layer metrics of this process; missing ones are left out."""
        def count(name, parent=...):
            return sum(v[0] for (n, p), v in self.spans.items()
                       if n == name and (parent is ... or p == parent))

        def self_s(name):
            return sum(v[2] for (n, _), v in self.spans.items() if n == name)

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        if "af.kernel" in self.installed:
            hits, misses, _ = self._cache_delta("af.kernel")
            values["af.kernel.lookups"] = hits + misses
            values["af.kernel.misses"] = misses
            values["af.kernel.hit_ratio"] = ratio(hits, hits + misses)
        if "model.agreement" in self.installed:
            hits, misses, size = self._cache_delta("model.agreement")
            values["model.agreement.hit_ratio"] = ratio(hits, hits + misses)
            values["model.agreement.entries"] = size
        for metric in LAYER_METRICS:
            span, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = count(span)
            elif kind == "busy_s":
                values[metric] = self.busy.get(span, 0.0)
            elif kind == "self_s":
                values[metric] = self_s(span)
        values["gibbs.likelihood_calls_per_update"] = ratio(
            count("inference.likelihood", "gibbs.conditional"),
            count("gibbs.conditional"))
        return {m: values[m] for m, (_, needs) in LAYER_METRICS.items()
                if all(n in self.installed for n in needs)}

    def span_table(self) -> list[list]:
        """[name, parent, count, total_s, self_s] rows, heaviest first."""
        rows = [[n, p, *v] for (n, p), v in self.spans.items()]
        return sorted(rows, key=lambda r: -r[3])
