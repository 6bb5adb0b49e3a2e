"""Benchmark of the multiphoton pipeline, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, sets them up, warms up with one
untimed operation, then repeats the timed operation while another one
should end within S seconds (at least once), setting up again between
operations now and then, and checks every output.  Every figure is printed
as ``name value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``, the
median set-up time; ``wall_ref``, the median over operations of the
operation's time in units of a fixed reference computation timed right
before and after it, so that the shared host's speed swings cancel; and
``peak_rss_mb``.  The operation's median time in seconds (``wall_s``) and
the reference's (``reference_s``) are printed beside them.  With
``--trace 1`` the metrics are the per-layer ones, from traced operations
alternating with untraced ones.

An attempted operation is the set-up, the warm-up or one operation; it
fails when it raises or when its output fails a check.  The full result,
with provenance, goes to ``.bench_out/`` in the checkout, as do the spans
of a traced run.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLOCK = time.perf_counter

# Set-up is timed in batches of calls lasting at least SETUP_BATCH_SECONDS
# (a single call when it is that slow already).  One batch runs before the
# warm-up, and more run between timed operations, spread over the run,
# while set-up has taken less than SETUP_SHARE of the timed phase; setup_s
# is the median per-call time of the batches, so that it samples the host's
# speed over the whole run, as the operations do.
SETUP_BATCH_SECONDS = 0.05
SETUP_SHARE = 0.1

END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MiB"}


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload, seed, seconds, trace):
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
    }


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(problems)


def _reference():
    """Time a fixed piece of CPU work that depends on nothing in the package.

    It mixes interpreter work (tuples, a dict) with small numpy calls, like
    the package's own code.  Timed right before and after each
    operation, it measures the speed the shared host gives the process at
    that moment, which swings by up to about 2x within tens of seconds.
    """
    start = CLOCK()
    table = {}
    for i in range(100_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    x = numpy.arange(2048.0)
    for _ in range(1000):
        x = numpy.sqrt(x * x + 1.0)
    return CLOCK() - start


def _operation(workload, state, index, tally):
    try:
        return workload.iterate(state, index)
    except Exception:  # an operation that raised counts as failed
        tally.record([traceback.format_exc()])
        return None


def _set_up_batch(workload, seed, workdir, size):
    """Set up ``size`` times; return the last state and the time per call."""
    state = None
    start = CLOCK()
    for _ in range(size):
        state = None  # release the previous set-up before building the next
        state = workload.setup(seed, workdir)
    return state, (CLOCK() - start) / size


def _set_up(workload, seed, workdir, tally):
    """First set-up; return the state, its per-call time and the batch size."""
    size = 1
    state, per_call = _set_up_batch(workload, seed, workdir, size)
    while per_call * size < SETUP_BATCH_SECONDS:
        # Too short to time steadily: grow the batch (this one is warm-up).
        size = max(2 * size, int(1.2 * SETUP_BATCH_SECONDS / max(per_call, 1e-9)))
        state, per_call = _set_up_batch(workload, seed, workdir, size)
    # Set-up is deterministic, so the kept state stands for every repeat.
    tally.record(workload.check_setup(state))
    return state, per_call, size


def measure(workload, seed, seconds, trace, workdir):
    """Run one workload; return ``(correct, tally, metrics, details)``.

    ``metrics`` maps each reported name to ``(value, unit)``; ``details``
    holds the workload's own figures (also as ``(value, unit)``), the
    operation, set-up and reference times and, when traced, the spans.
    """
    tally = Tally()
    state, first_setup, setup_size = _set_up(workload, seed, workdir, tally)
    setup_times = [first_setup]
    setup_spent = 0.0
    plain, traced = [], []  # (seconds, output) and (seconds, elapsed, output, spans)
    # The first operation in a process pays one-time costs (allocator growth,
    # first-call set-up); keep it out of the timing.
    try:
        tally.record(workload.warm_up(state))
    except Exception:
        tally.record([traceback.format_exc()])
    done = _operation(workload, state, 0, tally)
    warm = [done[1]] if done else []
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Reference times, one before each operation and one after the last;
    # plain_at and traced_at give each kept operation's place among them.
    references, plain_at, traced_at = [], [], []
    index = 0
    begin = CLOCK()
    rounds = 0
    # Start another round only while it should end within the budget.
    while rounds == 0 or (CLOCK() - begin) * (rounds + 1) / rounds <= seconds:
        rounds += 1
        order = (False, True) if rounds % 2 else (True, False)
        for with_trace in order if trace else (False,):
            index += 1
            if not trace and setup_spent < SETUP_SHARE * (CLOCK() - begin):
                start = CLOCK()
                setup_times.append(_set_up_batch(workload, seed, workdir, setup_size)[1])
                setup_spent += CLOCK() - start
            position = len(references)
            references.append(_reference())
            if not with_trace:
                done = _operation(workload, state, index, tally)
                if done:
                    plain.append(done)
                    plain_at.append(position)
                continue
            tracer = tracing.Tracer()
            with tracer:
                start = CLOCK()
                done = _operation(workload, state, index, tally)
                elapsed = CLOCK() - start
            if done:
                traced.append((done[0], elapsed, done[1], tracer.spans))
                traced_at.append(position)
    references.append(_reference())
    outputs = warm + [out for _, out in plain] + [entry[2] for entry in traced]
    if not plain or (trace and not traced):
        raise RuntimeError("every timed operation raised:\n" + "\n".join(tally.messages))
    for out in outputs:
        tally.record(workload.check(state, out))

    def in_reference_units(seconds, at):
        # The operation's time over the mean of the reference times around it.
        return seconds / (0.5 * (references[at] + references[at + 1]))

    wall = statistics.median(t for t, _ in plain)
    wall_ref = statistics.median(map(in_reference_units, (t for t, _ in plain), plain_at))
    plain_outputs = [out for _, out in plain]
    figures = workload.report(state, plain_outputs, wall)
    figures["wall_s"] = (wall, "s")
    figures["reference_s"] = (statistics.median(references), "s")
    figures["failed_share"] = (tally.failed / tally.attempted, "share")
    details = {"figures": figures, "operation_s": [t for t, _ in plain],
               "setup_runs_s": setup_times, "reference_s": references}
    if not trace:
        metrics = {"setup_s": statistics.median(setup_times), "wall_ref": wall_ref,
                   "peak_rss_mb": peak_mib}
        units = END_TO_END_UNITS
    else:
        per_operation = [tracing.span_metrics(spans, elapsed) for _, elapsed, _, spans in traced]
        metrics = dict.fromkeys(tracing.LAYER_UNITS, 0)
        metrics.update({name: statistics.median(m[name] for m in per_operation)
                        for name in per_operation[0]})
        metrics.update(workload.layers(state, plain_outputs, wall))
        traced_ref = statistics.median(
            map(in_reference_units, (t for t, _, _, _ in traced), traced_at))
        metrics["trace.overhead_share"] = traced_ref / wall_ref - 1.0
        built = metrics["sampling.distributions_built"]
        metrics["sampling.events_per_distribution"] = (
            metrics["sampling.retained_events"] / built if built else 0.0)
        units = tracing.LAYER_UNITS
        details["traced_operation_s"] = [t for t, _, _, _ in traced]
        details["spans"] = [spans for _, _, _, spans in traced]
    unknown = set(metrics) - set(units)
    if unknown:
        raise RuntimeError(f"metrics without a declared unit: {sorted(unknown)}")
    reported = {name: (metrics[name], units[name]) for name in units}
    return tally.failed == 0, tally, reported, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "multiphoton" / "__init__.py").is_file():
        sys.stderr.write(f"error: package sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        correct, tally, metrics, details = measure(
            workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    spans = details.pop("spans", None)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    prov = provenance(workload, args.seed, args.seconds, args.trace)
    for name, (value, unit) in {**details["figures"], **metrics}.items():
        print(f"{name} {value!r} {unit}")
    for message in tally.messages:
        print(f"# check failed: {message}", file=sys.stderr)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    record = {"provenance": prov, "metrics": metrics, "details": details,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.messages}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "operations": spans}) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
