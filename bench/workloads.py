"""The benchmark's workloads.

Each workload derives its inputs from the benchmark seed, times its calls
into the package from outside it, and checks every output against an
expectation computed here.  A workload
provides:

* ``setup(seed, workdir) -> state``: inputs, files and records built before
  timing;
* ``check_setup(state) -> failures``;
* ``warm_up(state) -> failures``: untimed work before the first timed
  operation, with its own checks;
* ``iterate(state, index) -> (seconds, output)``: timed operation number
  ``index`` of the run; operations are short (about a second at most) so
  that a run holds many of them and their median is steady;
* ``check(state, output) -> failures``;
* ``report(state, outputs, seconds) -> {name: (value, unit)}``: the
  workload's own user-facing figures, ``seconds`` being the median
  operation;
* ``layers(state, outputs, seconds) -> {name: value}``: per-layer figures
  that do not come from spans (traced runs only).

ROADMAP baseline rows and the figure that replaces each:

* bright ``scattershot_run`` n=5, 2e5 pulses (42.9 s): no workload;
  ``scattershot_bright`` drives the same per-pattern builds.
* bright n=4, 1e5 pulses (7.7 s): no figure at that size;
  ``coverage_run_s`` of ``scattershot_bright`` (its untimed warm-up, one
  sample) times the same call at 6e4 pulses, and its timed operation makes
  it at 500 pulses.
* faint n=3, 1e7 pulses (3.9 s): ten times ``wall_s`` of
  ``scattershot_faint`` (1e6 pulses per operation).
* aggregate validation of 1e5 events (4.5 s): no figure at that size;
  ``validation.aggregate_share`` times ``trace.wall_s`` on
  ``validate_roundtrip`` gives it for 1e4 events at m=8.
* ``exact_distribution`` n=5, m=12 (52 ms): ``sampling.distribution_p50_ms``
  on ``scattershot_bright`` (n=4 builds; no n=5 figure is kept).
* ``exact_distribution`` n=6, m=12 (187 ms): ``distribution_s`` of
  ``kernels``.
* ``permanent_ryser`` n=20, ``permanent_parallel`` n=20: ``ryser_s`` and
  ``permanent_s`` of ``kernels``; no n=22 figure is kept.
* GHZ simulation (0.14 s): ``ghz_witness_s`` of ``kernels`` (with
  estimation).
* ``tune_correlation_angle`` (0.19 s): ``jsa_tune_s`` of ``kernels``.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from multiphoton import cli, ghz, linalg, permanent, sampling, sources

CLOCK = time.perf_counter
SIGMAS = 5.0


def within_sigmas(label, observed, expected, sigma):
    """Failure message when ``observed`` lies more than ``SIGMAS`` sigma from ``expected``."""
    if abs(observed - expected) <= SIGMAS * sigma:
        return []
    return [f"{label}: {observed!r} is more than {SIGMAS} sigma ({sigma:.4g}) "
            f"from {expected!r}"]


def within_relative(label, value, reference, tol):
    if abs(value - reference) <= tol * max(abs(reference), 1e-300):
        return []
    return [f"{label}: {value!r} differs from {reference!r} by more than {tol} relative"]


def retention_probability(source, k, n):
    """Per-pulse probability that exactly n heralds fire and all n photons are detected.

    Each of the n selected sources must create a pair, herald it and
    deliver a detected signal, ``eps * (eta_h * eta_d)^2``; each of the
    other k - n sources must not herald, ``1 - eps * eta_h * eta_d``.
    """
    herald = source.epsilon * source.eta_herald * source.eta_detect
    useful = source.epsilon * (source.eta_herald * source.eta_detect) ** 2
    return math.comb(k, n) * useful**n * (1.0 - herald) ** (k - n)


def check_retained(label, retained, pulses, probability):
    sigma = math.sqrt(pulses * probability * (1.0 - probability))
    return within_sigmas(label, retained, pulses * probability, sigma)


def check_records(records, k, n, pulses, all_triggers):
    """Post-selection invariants of retained records, plus trigger coverage."""
    failures = []
    last = -1
    for rec in records:
        if (sum(rec.trigger) != n or max(rec.trigger) != 1 or rec.input != rec.trigger
                or sum(rec.output) != n or not last < rec.pulse_index < pulses):
            failures.append(f"record at pulse {rec.pulse_index} breaks post-selection")
            break
        last = rec.pulse_index
    distinct = len({rec.trigger for rec in records})
    if all_triggers and distinct != math.comb(k, n):
        failures.append(f"{distinct} trigger patterns visited, expected all {math.comb(k, n)}")
    return failures


@dataclass(frozen=True)
class Scattershot:
    """``scattershot_run`` calls on a Haar interferometer with identical sources.

    Each timed operation is one call of ``pulses`` pulses with its own run
    seed.  When ``coverage_pulses`` is set, the warm-up makes one call of
    that many pulses and checks that it visits every trigger pattern.
    """

    name: str
    why: str
    epsilon: float
    eta: float
    n: int
    pulses: int
    run_seed: int
    coverage_pulses: int = 0
    modes: int = 12
    unitary_seed: int = 12
    # sources.fire_share replays fire_sources in calls of this many pulses,
    # the batch size scattershot_run fires in.
    fire_batch: int = 1 << 16

    def setup(self, seed, workdir):
        source = sources.SourceParams.from_lumped_efficiency(self.epsilon, self.eta)
        return SimpleNamespace(
            unitary=linalg.haar_random_unitary(self.modes, self.unitary_seed + seed),
            params=[source] * self.modes,
            seed=self.run_seed + seed,
            coverage_run_s=None,
        )

    def check_setup(self, state):
        return []

    def run_seed_of(self, state, index):
        return state.seed * 1_000_000 + index

    def warm_up(self, state):
        if not self.coverage_pulses:
            return []
        # Operations run with seeds state.seed * 1e6 + index, never state.seed.
        start = CLOCK()
        result = sampling.scattershot_run(state.unitary, state.params, self.coverage_pulses,
                                          self.n, state.seed)
        state.coverage_run_s = CLOCK() - start
        return (check_retained("coverage run retained events", len(result.records),
                               self.coverage_pulses, self.retention(state))
                + check_records(result.records, self.modes, self.n, self.coverage_pulses,
                                all_triggers=True))

    def iterate(self, state, index):
        seed = self.run_seed_of(state, index)
        start = CLOCK()
        result = sampling.scattershot_run(state.unitary, state.params, self.pulses, self.n,
                                          seed)
        return CLOCK() - start, result

    def retention(self, state):
        return retention_probability(state.params[0], self.modes, self.n)

    def check(self, state, result, retention=None):
        """``retention`` overrides the expected retention probability."""
        if retention is None:
            retention = self.retention(state)
        failures = check_retained("retained events", len(result.records), self.pulses,
                                  retention)
        failures += check_records(result.records, self.modes, self.n, self.pulses,
                                  all_triggers=False)
        if result.report.retained_events != len(result.records):
            failures.append("rate report disagrees with the record count")
        return failures

    def predicted_rate_ratio(self, state, result):
        # RateReport's prediction over the exact expectation; above 1 while
        # the report uses (1 - eps*eta) for idle sources instead of
        # (1 - eps*eta_h*eta_d).
        exact = state.params[0].rep_rate * self.retention(state)
        return result.report.predicted_rate_hz / exact

    def report(self, state, outputs, seconds):
        figures = {
            "pulses_per_s": (self.pulses / seconds, "1/s"),
            "retained_events": (statistics.median(len(out.records) for out in outputs),
                                "count"),
            "predicted_rate_ratio": (self.predicted_rate_ratio(state, outputs[-1]), "ratio"),
        }
        if state.coverage_run_s is not None:
            figures["coverage_run_s"] = (state.coverage_run_s, "s")
        return figures

    def layers(self, state, outputs, seconds):
        fire_s = 0.0
        for start in range(0, self.pulses, self.fire_batch):
            size = min(self.fire_batch, self.pulses - start)
            begin = CLOCK()
            sources.fire_sources(state.params, self.run_seed_of(state, 0), size)
            fire_s += CLOCK() - begin
        return {
            "sampling.retained_events": statistics.median(len(out.records) for out in outputs),
            "sampling.predicted_rate_ratio": self.predicted_rate_ratio(state, outputs[-1]),
            "sources.fire_share": fire_s / seconds,
            "sources.fire_cells_per_s": self.pulses * self.modes / fire_s,
        }


def _read_report(path):
    fields = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and ": " in line:
                key, value = line.rstrip("\n").split(": ", 1)
                fields[key] = value
    return fields


def _data_rows(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if not line.startswith("#")) - 1


@dataclass(frozen=True)
class ValidateRoundtrip:
    """Write a sample log, then validate it through the command line in-process."""

    name: str
    why: str
    # m=8 (56 trigger groups) rather than criterion 5's m=12 (220): at m=12
    # the per-group model builds alone take about 2 s, too long for one of
    # the short operations a steady median needs.
    modes: int = 8
    n: int = 3
    epsilon: float = 0.25
    pulses: int = 60_000
    keep: int = 10_000
    unitary_seed: int = 2
    run_seed: int = 5
    # Criterion 5: mean per-group distance within this share of the
    # multinomial noise floor.
    floor_tolerance: float = 0.2

    def setup(self, seed, workdir):
        unitary = linalg.haar_random_unitary(self.modes, self.unitary_seed + seed)
        params = [sources.SourceParams(epsilon=self.epsilon)] * self.modes
        run = sampling.scattershot_run(unitary, params, self.pulses, self.n,
                                       self.run_seed + seed)
        paths = SimpleNamespace(**{
            key: workdir / name for key, name in (
                ("unitary", "unitary.json"), ("log", "samples.csv"),
                ("report", "report.txt"), ("trajectory", "trajectory.csv"))
        })
        linalg.save_matrix(paths.unitary, unitary)
        return SimpleNamespace(unitary=unitary, params=params, run=run,
                               records=run.records[: self.keep], paths=paths, floor=None,
                               read_back=False)

    def warm_up(self, state):
        return []

    def check_setup(self, state):
        probability = retention_probability(state.params[0], self.modes, self.n)
        failures = check_retained("retained events", len(state.run.records), self.pulses,
                                  probability)
        if len(state.records) != self.keep:
            failures.append(f"only {len(state.records)} records retained, need {self.keep}")
        return failures + check_records(state.records, self.modes, self.n, self.pulses, True)

    def iterate(self, state, index):
        p = state.paths
        start = CLOCK()
        sampling.write_sample_log(p.log, state.records)
        code = cli.main(["validate", "--samples", str(p.log), "--unitary", str(p.unitary),
                         "--out", str(p.report), "--trajectory", str(p.trajectory)])
        elapsed = CLOCK() - start
        return elapsed, SimpleNamespace(
            code=code,
            fields=_read_report(p.report) if code == 0 else {},
            trajectory_rows=_data_rows(p.trajectory) if code == 0 else 0,
            log_bytes=p.log.stat().st_size,
            trajectory_bytes=p.trajectory.stat().st_size if code == 0 else 0,
        )

    def noise_floor(self, state):
        """Criterion 5's multinomial floor for the mean per-group TV distance."""
        if state.floor is None:
            floors = []
            for trigger, count in sorted(Counter(r.trigger for r in state.records).items()):
                p = sampling.exact_distribution(state.unitary, trigger).probabilities
                floors.append(0.5 * np.sum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * count))))
            state.floor = float(np.mean(floors))
        return state.floor

    def check(self, state, out, floor=None):
        """``floor`` overrides the expected noise floor."""
        if out.code != 0:
            return [f"validate exited with code {out.code}"]
        if floor is None:
            floor = self.noise_floor(state)
        f = out.fields
        failures = []
        groups = math.comb(self.modes, self.n)
        if int(f.get("groups", -1)) != groups:
            failures.append(f"{f.get('groups')} trigger groups, expected {groups}")
        if f.get("verdict") != "indistinguishable":
            failures.append(f"verdict {f.get('verdict')!r}, expected 'indistinguishable'")
        if int(f.get("samples_used", -1)) != self.keep or out.trajectory_rows != self.keep:
            failures.append(f"{f.get('samples_used')} samples used and {out.trajectory_rows} "
                            f"trajectory rows, expected {self.keep}")
        failures += within_relative("mean distance against the noise floor",
                                    float(f.get("mean_distance", "nan")), floor,
                                    self.floor_tolerance)
        if not state.read_back:
            if sampling.read_sample_log(state.paths.log) != state.records:
                failures.append("sample log read back differs from the records written")
            state.read_back = True
        return failures

    def report(self, state, outputs, seconds):
        return {"events_per_s": (self.keep / seconds, "1/s")}

    def layers(self, state, outputs, seconds):
        out = outputs[-1]
        return {
            "sampling.log_bytes": out.log_bytes,
            "cli.trajectory_bytes": out.trajectory_bytes,
            "validation.group_count": int(out.fields.get("groups", 0)),
            "validation.lr_samples_used": int(out.fields.get("samples_used", 0)),
        }


def _ghz_witness(model, shots, seed):
    hv, thetas = ghz.simulate_ghz_experiment(model, shots, seed)
    population = ghz.estimate_population(hv)
    coherence = ghz.estimate_coherence(thetas)
    return population, coherence, ghz.fidelity_and_witness(*population, *coherence)


def jsa_purity(sigma_pump, sigma_pm, angle, grid_size):
    """Purity of the Gaussian joint spectrum on its default grid, computed directly."""
    span = 4.0 * max(sigma_pump, sigma_pm)
    nu = np.linspace(-span, span, grid_size)
    s, i = nu[:, None], nu[None, :]
    grid = (np.exp(-((s + i) ** 2) / (4.0 * sigma_pump**2))
            * np.exp(-((s * math.cos(angle) + i * math.sin(angle)) ** 2) / (4.0 * sigma_pm**2)))
    weights = np.linalg.svd(grid, compute_uv=False) ** 2
    return float((weights**2).sum() / weights.sum() ** 2)


@dataclass(frozen=True)
class Kernels:
    """Single calls users make directly, none of which a scattershot run reaches.

    One operation makes each call once and takes the sum of their times;
    each call's own figure is its median over the run.
    """

    name: str
    why: str
    permanent_n: int = 20
    modes: int = 12
    photons: int = 6
    unitary_seed: int = 31
    ghz_photons: int = 12
    population: float = 0.732
    coherence: float = 0.419
    shots: int = 100_000
    sigma_pump: float = 1.0
    sigma_pm: float = 0.6
    target_purity: float = 0.99
    grid_size: int = 256
    checked_outcomes: int = 16

    def setup(self, seed, workdir):
        rng = np.random.default_rng([seed, self.permanent_n])
        n = self.permanent_n
        matrix = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        return SimpleNamespace(
            seed=seed,
            matrix=matrix,
            threads=len(os.sched_getaffinity(0)),
            unitary=linalg.haar_random_unitary(self.modes, self.unitary_seed + seed),
            occupation=(1,) * self.photons + (0,) * (self.modes - self.photons),
            model=ghz.GhzModel(self.ghz_photons, self.population, self.coherence),
        )

    def check_setup(self, state):
        return []

    def warm_up(self, state):
        return []

    def iterate(self, state, index):
        calls = {
            "permanent_s": lambda: permanent.permanent_parallel(state.matrix, state.threads),
            "ryser_s": lambda: permanent.permanent_ryser(state.matrix),
            "distribution_s": lambda: sampling.exact_distribution(state.unitary,
                                                                  state.occupation),
            "ghz_witness_s": lambda: _ghz_witness(state.model, self.shots, state.seed),
            "jsa_tune_s": lambda: sources.tune_correlation_angle(
                self.sigma_pump, self.sigma_pm, self.target_purity, grid_size=self.grid_size),
        }
        times, results = {}, {}
        for key, call in calls.items():
            start = CLOCK()
            results[key] = call()
            times[key] = CLOCK() - start
        parallel, ryser, dist, witness, angle = results.values()
        return sum(times.values()), SimpleNamespace(
            times=times, parallel=parallel, ryser=ryser, dist=dist, witness=witness, angle=angle)

    def check(self, state, out):
        failures = within_relative("permanent_parallel against permanent_ryser",
                                   out.parallel, out.ryser, 1e-9)
        rng = np.random.default_rng([state.seed, 8])
        small = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))) / math.sqrt(2)
        failures += within_relative("n=8 permanent_ryser against permanent_naive",
                                    permanent.permanent_ryser(small),
                                    permanent.permanent_naive(small), 1e-10)
        rng = np.random.default_rng([state.seed, self.photons])
        picks = rng.choice(len(out.dist.outcomes), self.checked_outcomes, replace=False)
        for i in picks:
            outcome = out.dist.outcomes[i]
            sub = linalg.transition_submatrix(state.unitary, state.occupation, outcome)
            amp = permanent.permanent_naive(sub)
            expected = abs(amp) ** 2 / math.prod(math.factorial(t) for t in outcome)
            if abs(out.dist.probabilities[i] - expected) > 1e-12:
                failures.append(f"P{outcome} = {out.dist.probabilities[i]!r}, "
                                f"permanent_naive gives {expected!r}")
        (p_hat, p_sigma), (c_hat, c_sigma), _ = out.witness
        failures += within_sigmas("GHZ population", p_hat, state.model.population, p_sigma)
        failures += within_sigmas("GHZ coherence", c_hat, state.model.coherence, c_sigma)
        purity = jsa_purity(self.sigma_pump, self.sigma_pm, out.angle, self.grid_size)
        if abs(purity - self.target_purity) > 1e-3:
            failures.append(f"tuned purity {purity!r}, target {self.target_purity}")
        return failures

    def _median_times(self, outputs):
        return {key: statistics.median(o.times[key] for o in outputs) for key in outputs[0].times}

    def report(self, state, outputs, seconds):
        return {key: (value, "s") for key, value in self._median_times(outputs).items()}

    def layers(self, state, outputs, seconds):
        times = self._median_times(outputs)
        return {
            # threads=1 runs the same single segment as permanent_ryser.
            "permanent.parallel_speedup": times["ryser_s"] / times["permanent_s"],
            "permanent.subsets_per_s": ((1 << self.permanent_n) - 1) / times["ryser_s"],
        }


WORKLOADS = {
    w.name: w for w in (
        Scattershot(
            name="scattershot_bright",
            why="bright sources at n=4 make nearly every event need a new exact distribution, "
                "so distribution builds dominate and source firing is negligible",
            epsilon=0.3, eta=0.81, n=4, pulses=500, run_seed=44, coverage_pulses=60_000),
        Scattershot(
            name="scattershot_faint",
            why="faint sources give few events and cheap three-photon builds, so firing "
                "the sources on every pulse dominates",
            epsilon=0.01, eta=0.5, n=3, pulses=1_000_000, run_seed=42),
        ValidateRoundtrip(
            name="validate_roundtrip",
            why="1e4 criterion-5-style events (m=8, n=3) are written as a sample log, then "
                "read back and validated by the CLI, so log I/O, grouping and the LR test "
                "dominate"),
        Kernels(
            name="kernels",
            why="direct calls no scattershot run reaches: n=20 permanents, an n=6 "
                "distribution, the GHZ witness and JSA tuning"),
    )
}
