"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance and wall-clock budget inline.  These run the
public API the way an experiment analysis would: no internals, no monkey
patching, fixed seeds everywhere.
"""

import math
import time

import numpy as np
import pytest

from multiphoton.ghz import (
    GhzModel,
    estimate_coherence,
    estimate_population,
    fidelity_and_witness,
    simulate_ghz_experiment,
)
from multiphoton.linalg import count_patterns, haar_random_unitary
from multiphoton.permanent import permanent_naive, permanent_parallel, permanent_ryser
from multiphoton.rng import derive_rng
from multiphoton.sampling import (
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    sample_outputs,
    scattershot_run,
)
from multiphoton.sources import SourceParams, gaussian_jsa, schmidt_purity, tune_correlation_angle
from multiphoton.validation import likelihood_ratio_test, scattershot_aggregate_validation

from properties import (
    check_ghz_properties,
    check_linalg_properties,
    check_permanent_properties,
    check_sampling_properties,
    check_sources_properties,
    check_validation_properties,
)
from test_sources import gaussian_purity_closed_form


def test_criterion_1_permanent_cross_validation():
    """200 seeded complex matrices, n in [1, 8]: three routes agree."""
    start = time.perf_counter()
    rng = derive_rng(0, "acceptance-permanent")
    for case in range(200):
        n = int(rng.integers(1, 9))
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
        ref = permanent_naive(m)
        ry = permanent_ryser(m)
        assert abs(ry - ref) <= 1e-10 * max(abs(ref), 1e-30), f"case {case}, n={n}"
        for threads in (1, 2, 8):
            par = permanent_parallel(m, threads)
            assert abs(par - ry) <= 1e-9 * max(abs(ry), 1e-30), f"case {case}, threads={threads}"
    assert time.perf_counter() - start < 10.0


def test_criterion_2_hom_interference():
    """Balanced beamsplitter with one photon per port: coincidences vanish."""
    start = time.perf_counter()
    bs = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    dist = exact_distribution(bs, (1, 1))
    assert dist.prob((1, 1)) < 1e-12
    assert abs(dist.prob((2, 0)) - 0.5) <= 1e-12
    assert abs(dist.prob((0, 2)) - 0.5) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_3_scattershot_combinatorics_and_rates():
    """Trigger-pattern counts 220/495/792 plus a Monte Carlo rate check."""
    start = time.perf_counter()
    eps, eta = 0.01, 0.5
    vacuum = 1.0 - eps * eta
    for n, want in ((3, 220), (4, 495), (5, 792)):
        assert count_patterns(12, n, collisions=False) == want
        scatter = expected_rate(12, n, eps, eta)
        per_pattern = expected_rate(12, n, eps, eta, scattershot=False) * vacuum ** (12 - n)
        assert scatter / per_pattern == pytest.approx(want, rel=1e-12)

    # Simulated runs must actually visit every no-collision trigger pattern.
    unitary = haar_random_unitary(12, 12)
    bright = [SourceParams.from_lumped_efficiency(0.3, 0.81)] * 12
    for n, pulses in ((3, 100_000), (4, 100_000), (5, 200_000)):
        run = scattershot_run(unitary, bright, pulses, n, seed=40 + n)
        distinct = {rec.trigger for rec in run.records}
        assert len(distinct) == count_patterns(12, n, collisions=False)
        assert all(sum(t) == n and max(t) == 1 for t in distinct)

    # Faint-pump Monte Carlo rate against the closed-form prediction.  The
    # closed form reads 1.9% above the exact retention (its idle factor is
    # 1 - eps*eta, not 1 - eps*eta_h); 4e8 pulses expect about 1.03e4 events,
    # a 1% noise sigma that puts the 5% window 3.2 sigma below and 7 sigma
    # above the exact rate.
    faint = [SourceParams.from_lumped_efficiency(eps, eta)] * 12
    pulses = 400_000_000
    run = scattershot_run(unitary, faint, pulses, 3, seed=42)
    assert run.report.rate_hz == pytest.approx(expected_rate(12, 3, eps, eta), rel=0.05)
    # The retained count also lies within 5 sigma of the exact retention.
    exact = run.report.predicted_rate_hz / faint[0].rep_rate
    sigma = math.sqrt(pulses * exact * (1.0 - exact))
    assert abs(run.report.retained_events - pulses * exact) <= 5.0 * sigma
    assert time.perf_counter() - start < 60.0


def test_criterion_4_ghz_witness_recovery():
    """Witness arithmetic is exact; estimators recover model parameters."""
    start = time.perf_counter()
    fixed = fidelity_and_witness(0.732, 0.024, 0.419, 0.041)
    assert fixed.fidelity == 0.5755
    assert fixed.genuine
    assert fixed.significance > 3.0

    model = GhzModel(12, 0.732, 0.419)
    hv, thetas = simulate_ghz_experiment(model, 100_000, seed=0)
    p_hat, p_sig = estimate_population(hv)
    c_hat, c_sig = estimate_coherence(thetas)
    wit = fidelity_and_witness(p_hat, p_sig, c_hat, c_sig)
    assert p_hat == pytest.approx(0.732, abs=0.005)
    assert c_hat == pytest.approx(0.419, abs=0.01)
    assert wit.fidelity == pytest.approx(0.5755, abs=0.01)
    assert time.perf_counter() - start < 30.0


def test_criterion_5_aggregate_similarity_at_one_hundred_thousand_events():
    """3-photon scattershot, 12 modes, 1e5 retained events, per-group checks.

    The distance check passes: the observed spread sits on the multinomial
    noise floor for ~455 samples per trigger group.  The final similarity
    bound does not: with 364-outcome supports and this few samples per group
    the estimator's small-sample bias caps the mean at about 0.87, and no
    seed choice moves it to 0.97.  The assertion is kept as stated so the
    shortfall stays visible.
    """
    start = time.perf_counter()
    unitary = haar_random_unitary(12, 2)
    sources = [SourceParams(epsilon=0.25)] * 12
    run = scattershot_run(unitary, sources, 450_000, 3, seed=5)
    assert run.report.retained_events >= 100_000
    records = run.records[:100_000]

    report = scattershot_aggregate_validation(records, unitary)
    assert report.group_count == 220

    floors = []
    for group in report.groups:
        p = exact_distribution(unitary, group.trigger).probabilities
        floors.append(0.5 * np.sum(np.sqrt(2.0 * p * (1.0 - p) / (math.pi * group.samples))))
    noise_floor = float(np.mean(floors))
    assert report.mean_distance == pytest.approx(noise_floor, rel=0.2)
    assert time.perf_counter() - start < 300.0

    assert report.mean_similarity >= 0.97, (
        f"mean per-group similarity {report.mean_similarity:.4f} < 0.97: "
        f"at ~{len(records) // report.group_count} samples per group the "
        "similarity estimator is bias-limited, not physics-limited"
    )


def test_criterion_6_likelihood_ratio_discrimination():
    """100 seeded trials per hypothesis, 500 samples each: >= 95 correct."""
    start = time.perf_counter()
    unitary = haar_random_unitary(12, 31)
    occ = (1, 1, 1) + (0,) * 9
    quantum = exact_distribution(unitary, occ)
    classical = distinguishable_distribution(unitary, occ)

    q_wins = p_wins = 0
    for i in range(100):
        sq = [(occ, out) for out in sample_outputs(quantum, 500, seed=1000 + i)]
        q_wins += likelihood_ratio_test(sq, quantum, classical).verdict == "indistinguishable"
        sp = [(occ, out) for out in sample_outputs(classical, 500, seed=2000 + i)]
        p_wins += likelihood_ratio_test(sp, quantum, classical).verdict == "distinguishable"
    assert q_wins >= 95
    assert p_wins >= 95
    assert time.perf_counter() - start < 300.0


def test_criterion_7_spectral_engineering_round_trip():
    """Bisection hits the target purity; SVD matches the Gaussian closed form."""
    angle = tune_correlation_angle(1.0, 0.6, 0.99, grid_size=256)
    tuned = schmidt_purity(gaussian_jsa(1.0, 0.6, angle, grid_size=256))
    assert tuned == pytest.approx(0.99, abs=1e-3)

    for theta in (angle, -0.9, -0.3, 0.2):
        grid = gaussian_jsa(1.0, 0.6, theta, grid_size=256, span=6.0)
        assert schmidt_purity(grid) == pytest.approx(
            gaussian_purity_closed_form(1.0, 0.6, theta), abs=1e-3
        )


def test_criterion_8_reference_count_rates():
    """Predicted rates sit within 10x of reference count rates.

    Plausible hardware: 0.5 MHz heralded two-photon rate at 80 MHz repetition,
    heralding efficiency 0.9, detector efficiency 0.75.  That fixes the pair
    probability per pulse and the lumped efficiency; the same parameters must
    then reproduce reference rates of 3.9 kHz, 44 Hz and 0.3 Hz for 3-, 4- and
    5-photon scattershot events, and about one 12-photon coincidence per hour
    from six sources behind a five-stage postselecting cascade.
    """
    rep_rate = 80e6
    eta = (0.9 * 0.75) ** 2
    eps = (0.5e6 / rep_rate) / eta
    assert 0.005 < eps < 0.05

    for n, observed in ((3, 3.9e3), (4, 44.0), (5, 0.3)):
        predicted = expected_rate(12, n, eps, eta, rep_rate=rep_rate)
        assert 0.1 < predicted / observed < 10.0, (n, predicted, observed)

    detected_pair_prob = 2.0e6 / rep_rate
    twelvefold = rep_rate * detected_pair_prob ** 6 / 2 ** 5
    per_hour = 1.0 / 3600.0
    assert 0.1 < twelvefold / per_hour < 10.0


def test_criterion_9_property_suite():
    """Every module's invariant checker passes under a seeded runner."""
    start = time.perf_counter()
    check_permanent_properties(seed=11)
    check_linalg_properties(seed=12)
    check_sources_properties(seed=13)
    check_ghz_properties(seed=14)
    check_sampling_properties(seed=15)
    check_validation_properties(seed=16)
    assert time.perf_counter() - start < 600.0
