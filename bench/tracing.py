"""Spans around module-level names of the multiphoton package.

A :class:`Tracer` replaces each named attribute (``package.module.name``)
with a wrapper that records one span per call: name, start, end and the
index of the enclosing span.  Spans stay in memory until the run ends.
Wrapping a module attribute catches every caller that looks the name up in
that module at call time, which is how the package calls its own helpers;
the benchmark calls the package the same way (``sampling.scattershot_run``).

The wrapped names are only ever called from the benchmark's main thread
(``permanent_parallel`` runs private helpers in its workers), so one span
stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# Every name a workload passes through.  A name the package no longer
# defines is skipped, and the metrics built from it read 0.
TRACED_NAMES = (
    "multiphoton.sampling.scattershot_run",
    "multiphoton.sampling.exact_distribution",
    "multiphoton.sampling.enumerate_patterns",
    "multiphoton.sampling.derive_rng",
    "multiphoton.sampling.write_sample_log",
    "multiphoton.validation.exact_distribution",
    "multiphoton.validation.distinguishable_distribution",
    "multiphoton.validation.empirical_distribution",
    "multiphoton.validation.similarity",
    "multiphoton.validation.tv_distance",
    "multiphoton.validation.likelihood_ratio_test",
    "multiphoton.cli.main",
    "multiphoton.cli.read_sample_log",
    "multiphoton.cli.scattershot_aggregate_validation",
    "multiphoton.sources.tune_correlation_angle",
    "multiphoton.sources.schmidt_purity",
    "multiphoton.sources.svd_singular_values",
    "multiphoton.permanent.permanent_ryser",
    "multiphoton.permanent.permanent_parallel",
    "multiphoton.ghz.simulate_ghz_experiment",
    "multiphoton.ghz.estimate_population",
    "multiphoton.ghz.estimate_coherence",
    "multiphoton.ghz.fidelity_and_witness",
)

# Per-layer metrics and their units.  Shares are busy or self time over the
# traced timed phase (``trace.wall_s``), so a layer a workload never reaches
# reads 0 rather than a constant zero time.
LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_share": "share",
    "trace.spans": "count",
    "sampling.scattershot_share": "share",
    "sampling.scattershot_self_share": "share",
    "sampling.distributions_built": "count",
    "sampling.distribution_share": "share",
    "sampling.distribution_p50_ms": "ms",
    "sampling.distribution_tail_ms": "ms",
    "sampling.events_per_distribution": "ratio",
    "sampling.retained_events": "count",
    "sampling.predicted_rate_ratio": "ratio",
    "sampling.log_write_share": "share",
    "sampling.log_read_share": "share",
    "sampling.log_bytes": "bytes",
    "sources.fire_share": "share",
    "sources.fire_cells_per_s": "1/s",
    "sources.purity_evals": "count",
    "linalg.enumerate_calls": "count",
    "linalg.enumerate_share": "share",
    "linalg.svd_share": "share",
    "validation.aggregate_share": "share",
    "validation.models_built": "count",
    "validation.model_share": "share",
    "validation.empirical_share": "share",
    "validation.similarity_tv_share": "share",
    "validation.lr_self_share": "share",
    "validation.lr_samples_used": "count",
    "validation.group_count": "count",
    "cli.validate_self_share": "share",
    "cli.trajectory_bytes": "bytes",
    "permanent.ryser_share": "share",
    "permanent.parallel_share": "share",
    "permanent.parallel_speedup": "ratio",
    "permanent.subsets_per_s": "1/s",
    "ghz.simulate_share": "share",
    "ghz.estimate_share": "share",
    "rng.streams_derived": "count",
}

_P = "multiphoton."
# Both bindings of the distribution builders run the same function; the
# sampling layer owns its latency, the validation layer its model count.
_DISTRIBUTIONS = (
    _P + "sampling.exact_distribution",
    _P + "validation.exact_distribution",
    _P + "validation.distinguishable_distribution",
)
_MODELS = _DISTRIBUTIONS[1:]


class Tracer:
    """Context manager that records spans for :data:`TRACED_NAMES`.

    ``spans`` holds ``[name, start, end, parent]`` lists, ``parent`` being
    the index of the enclosing span or -1.  Entering wraps the names;
    leaving restores the originals.
    """

    def __init__(self, names=TRACED_NAMES):
        self.names = names
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        for dotted in self.names:
            module_name, attr = dotted.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(dotted, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False


def _tail(values):
    """Highest quantile with at least ten samples beyond it (max below 20)."""
    if len(values) < 20:
        return max(values)
    ordered = sorted(values)
    return ordered[len(ordered) - 11]


def span_metrics(spans, wall: float) -> dict:
    """Per-layer metrics derived from spans, as ``{name: value}``.

    ``wall`` is the traced timed phase the spans were recorded in; busy and
    self times are reported as shares of it.  A layer's self time is its
    span durations minus the durations of their direct children.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: dict = {}
    own: dict = {}
    calls: dict = {}
    durations: dict = {}
    for index, (name, start, end, _) in enumerate(spans):
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[index])
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(end - start)

    def share(table, *names):
        return sum(table.get(_P + n, 0.0) for n in names) / wall

    builds = [d for name in _DISTRIBUTIONS for d in durations.get(name, ())]
    return {
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "sampling.scattershot_share": share(busy, "sampling.scattershot_run"),
        "sampling.scattershot_self_share": share(own, "sampling.scattershot_run"),
        "sampling.distributions_built": len(builds),
        "sampling.distribution_share": sum(builds) / wall,
        "sampling.distribution_p50_ms": 1e3 * statistics.median(builds) if builds else 0.0,
        "sampling.distribution_tail_ms": 1e3 * _tail(builds) if builds else 0.0,
        "sampling.log_write_share": share(busy, "sampling.write_sample_log"),
        "sampling.log_read_share": share(busy, "cli.read_sample_log"),
        "sources.purity_evals": calls.get(_P + "sources.schmidt_purity", 0),
        "linalg.enumerate_calls": calls.get(_P + "sampling.enumerate_patterns", 0),
        "linalg.enumerate_share": share(busy, "sampling.enumerate_patterns"),
        "linalg.svd_share": share(busy, "sources.svd_singular_values"),
        "validation.aggregate_share": share(busy, "cli.scattershot_aggregate_validation"),
        "validation.models_built": sum(calls.get(name, 0) for name in _MODELS),
        "validation.model_share": sum(busy.get(name, 0.0) for name in _MODELS) / wall,
        "validation.empirical_share": share(busy, "validation.empirical_distribution"),
        "validation.similarity_tv_share": share(busy, "validation.similarity",
                                                "validation.tv_distance"),
        "validation.lr_self_share": share(own, "validation.likelihood_ratio_test"),
        "cli.validate_self_share": share(own, "cli.main"),
        "permanent.ryser_share": share(busy, "permanent.permanent_ryser"),
        "permanent.parallel_share": share(busy, "permanent.permanent_parallel"),
        "ghz.simulate_share": share(busy, "ghz.simulate_ghz_experiment"),
        "ghz.estimate_share": share(busy, "ghz.estimate_population", "ghz.estimate_coherence",
                                    "ghz.fidelity_and_witness"),
        "rng.streams_derived": calls.get(_P + "sampling.derive_rng", 0),
    }
