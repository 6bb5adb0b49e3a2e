"""Reduced-size smoke test of the benchmark.

    python3 -m pytest bench/test_smoke.py

Runs every workload at a small size, untraced and traced, and checks that
each metric ``BENCHMARK.json`` declares is emitted with its unit, that the
output checks fail when handed a perturbed expectation, and that the
benchmark refuses to run without the package sources.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "scattershot_bright": dict(modes=6, n=2, pulses=2_000, coverage_pulses=20_000),
    "scattershot_faint": dict(modes=6, n=2, pulses=200_000),
    "validate_roundtrip": dict(modes=6, n=2, pulses=20_000, keep=5_000),
    "kernels": dict(permanent_n=10, modes=6, photons=3, ghz_photons=4, shots=2_000,
                    grid_size=64),
}


# Figures each workload prints beside the gated metrics.
FIGURES = {
    "scattershot_bright": {"pulses_per_s", "retained_events", "predicted_rate_ratio",
                           "coverage_run_s"},
    "scattershot_faint": {"pulses_per_s", "retained_events", "predicted_rate_ratio"},
    "validate_roundtrip": {"events_per_s"},
    "kernels": {"permanent_s", "ryser_s", "distribution_s", "ghz_witness_s", "jsa_tune_s"},
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


def test_declared_workloads_are_the_benchmark_workloads():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == [
        (name, w.why) for name, w in WORKLOADS.items()]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    correct, tally, metrics, details = run.measure(small(name), seed=0, seconds=0, trace=trace,
                                                   workdir=tmp_path)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {metric: unit for metric, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in declared}
    assert set(details["figures"]) == FIGURES[name] | {"wall_s", "reference_s", "failed_share"}
    assert correct, tally.messages
    assert tally.attempted >= 2 and tally.failed == 0


def test_checks_fail_on_a_perturbed_expectation(tmp_path):
    bright = small("scattershot_bright")
    state = bright.setup(0, tmp_path)
    assert bright.warm_up(state) == []
    _, result = bright.iterate(state, 1)
    assert bright.check(state, result) == []
    assert bright.check(state, result, retention=1.2 * bright.retention(state))
    # Too few pulses to visit every trigger pattern.
    assert dataclasses.replace(bright, coverage_pulses=20).warm_up(state)

    roundtrip = small("validate_roundtrip")
    state = roundtrip.setup(0, tmp_path)
    _, out = roundtrip.iterate(state, 1)
    assert roundtrip.check(state, out) == []
    assert roundtrip.check(state, out, floor=1.5 * roundtrip.noise_floor(state))


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "kernels"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
