import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiphoton import cli, sampling
from multiphoton.errors import ContractError, DataError, ResourceLimitError
from multiphoton.linalg import (
    enumerate_patterns,
    haar_random_unitary,
    occupation_from_string,
    occupation_to_string,
    save_matrix,
    transition_submatrix,
)
from multiphoton.permanent import permanent_naive, permanent_ryser
from multiphoton.rng import derive_rng
from multiphoton.sampling import (
    _BATCH,
    _distributions,
    OutcomeDistribution,
    SampleRecord,
    distinguishable_distribution,
    exact_distribution,
    expected_rate,
    read_sample_log,
    sample_outputs,
    scattershot_run,
    write_sample_log,
)
from multiphoton.sources import SourceParams, _draw_pairs
from multiphoton.validation import scattershot_aggregate_validation
from properties import check_sampling_properties

BS = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


class TestOutcomeDistribution:
    def test_prob_lookup(self):
        dist = OutcomeDistribution(((1, 0), (0, 1)), np.array([0.25, 0.75]))
        assert dist.prob((0, 1)) == 0.75
        assert dist.prob((1, 1)) == 0.0

    def test_rejects_bad_normalization(self):
        with pytest.raises(ContractError):
            OutcomeDistribution(((1, 0), (0, 1)), np.array([0.5, 0.6]))

    def test_rejects_negative_probability(self):
        with pytest.raises(ContractError):
            OutcomeDistribution(((1, 0), (0, 1)), np.array([-0.1, 1.1]))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(ContractError):
            OutcomeDistribution(((1, 0), (1, 0)), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [math.nan, 1.0]])
    def test_rejects_nan_probabilities(self, probs):
        with pytest.raises(ContractError):
            OutcomeDistribution(((1, 0), (0, 1)), probs)


# Rows that fail the probability check: a NaN, an entry below -1e-12 and a
# sum 1e-6 above 1.
_BAD_ROWS = [[math.nan, 1.0], [-1e-6, 1.0 + 1e-6], [0.5, 0.5 + 1e-6]]


class TestProbabilityCheck:
    @pytest.mark.parametrize("row", _BAD_ROWS, ids=["nan", "negative", "sum"])
    def test_rejects_what_outcome_distribution_rejects(self, row):
        with pytest.raises(ContractError):
            OutcomeDistribution(((1, 0), (0, 1)), row)
        for probs in ([row], [[0.25, 0.75], row]):  # alone, and after a valid row
            with pytest.raises(ContractError):
                sampling._check_probabilities(np.array(probs))

    def test_clips_in_place_within_tolerance(self):
        probs = np.array([[-1e-13, 1.0], [0.25, 0.75 + 1e-10]])
        assert sampling._check_probabilities(probs) is probs
        assert probs.tolist() == [[0.0, 1.0], [0.25, 0.75 + 1e-10]]
        dist = OutcomeDistribution(((1, 0), (0, 1)), probs[0])
        assert not np.shares_memory(dist.probabilities, probs)
        assert dist.probabilities.tolist() == [0.0, 1.0]


class TestExactDistribution:
    def test_identity_is_point_mass(self):
        dist = exact_distribution(np.eye(4), (0, 1, 1, 0))
        assert dist.prob((0, 1, 1, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_beamsplitter_suppresses_coincidence(self):
        dist = exact_distribution(BS, (1, 1))
        assert dist.prob((1, 1)) <= 1e-12
        assert dist.prob((2, 0)) == pytest.approx(0.5, abs=1e-12)
        assert dist.prob((0, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_fourier_three_uniform_diagonal(self):
        j, k = np.meshgrid(np.arange(3), np.arange(3), indexing="ij")
        fourier = np.exp(2j * math.pi * j * k / 3) / math.sqrt(3)
        dist = exact_distribution(fourier, (1, 1, 1))
        assert dist.prob((1, 1, 1)) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_matches_per_output_permanents(self):
        # dual route: the batched Glynn engine against one kernel permanent
        # per output pattern
        u = haar_random_unitary(8, 21)
        occ = (1, 0, 1, 0, 0, 1, 0, 0)
        dist = exact_distribution(u, occ)
        for out in dist.outcomes:
            amp = permanent_ryser(transition_submatrix(u, occ, out))
            want = abs(amp) ** 2 / np.prod([math.factorial(t) for t in out])
            assert dist.prob(out) == pytest.approx(want, abs=1e-12)

    def test_collision_input_matches_brute_force(self):
        u = haar_random_unitary(4, 22)
        occ = (2, 1, 0, 0)
        dist = exact_distribution(u, occ)
        for out in dist.outcomes:
            amp = permanent_naive(transition_submatrix(u, occ, out))
            want = abs(amp) ** 2 / (
                2.0 * np.prod([math.factorial(t) for t in out])
            )
            assert dist.prob(out) == pytest.approx(want, abs=1e-12)

    def test_no_collision_restriction_renormalizes(self):
        u = haar_random_unitary(6, 23)
        dist = exact_distribution(u, (1, 1, 1, 0, 0, 0), collisions=False)
        assert all(max(o) <= 1 for o in dist.outcomes)
        assert len(dist.outcomes) == math.comb(6, 3)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_guards(self):
        with pytest.raises(ContractError):
            exact_distribution(np.eye(3), (0, 0, 0))
        with pytest.raises(ContractError):
            exact_distribution(np.ones((3, 3)), (1, 0, 0))
        with pytest.raises(ResourceLimitError):
            exact_distribution(np.eye(8), (1,) * 7 + (0,))

    def test_non_unitary_rejected(self):
        # renormalizing the collision-free outputs would hide this defect
        with pytest.raises(ContractError):
            exact_distribution(0.7 * np.ones((4, 4)), (1, 1, 0, 0), collisions=False)
        # |U|^2 is doubly stochastic here, so the probabilities sum to 1
        with pytest.raises(ContractError):
            distinguishable_distribution(0.5 * np.ones((4, 4)), (1, 1, 0, 0))


def ryser_reference(unitary, occ, collisions, interfering, precise=True):
    """Unnormalised output weights of one input by Ryser's formula, per input.

    This is the per-input builder the batched Glynn engine replaced: 2^n - 1
    subset row sums ``v_R`` and ``sum_R (-1)^(n-|R|) prod_(j in T) v_R[j]``
    for every output T.  ``precise`` evaluates it in 80-bit long double, so
    that its own rounding (up to 7e-15 in double for bunched inputs at small
    m) stays far below the 1e-15 the engine is held to.  Returns the
    outcomes and the weights before any collision-free renormalisation.
    """
    real = np.longdouble if precise else np.float64
    u = np.asarray(unitary, dtype=complex)
    modes, n = u.shape[0], sum(occ)
    outcomes = enumerate_patterns(modes, n, collisions)
    occupations = np.array(outcomes, dtype=np.intp).reshape(len(outcomes), modes)
    cols = np.repeat(np.tile(np.arange(modes), len(outcomes)),
                     occupations.ravel()).reshape(len(outcomes), n)
    source = u if interfering else u.real**2 + u.imag**2
    rows = source[np.repeat(np.arange(modes), occ)].astype(np.result_type(real, source.dtype))
    ranks = np.arange(1, 1 << n)
    v = ((ranks[:, None] >> np.arange(n)) & 1).astype(real) @ rows
    signs = np.where((n - np.bitwise_count(ranks)) & 1, -1.0, 1.0).astype(real)
    amps = np.concatenate([signs @ v[:, block].prod(axis=2)
                           for block in np.array_split(cols, len(cols) // 512 + 1)])
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=real)
    factors = factorials[occupations].prod(axis=1)
    if interfering:
        weights = (amps.real**2 + amps.imag**2) / (math.prod(map(math.factorial, occ)) * factors)
    else:
        weights = np.clip(amps.real, 0, None) / factors
    return outcomes, weights


def reference_distribution(unitary, occ, collisions=True, interfering=True, precise=True):
    outcomes, weights = ryser_reference(unitary, occ, collisions, interfering, precise)
    return OutcomeDistribution(outcomes, (weights / weights.sum() if not collisions
                                          else weights).astype(float))


def _spread_and_bunched(modes, n):
    """A collision-free input (when n <= modes) and a bunched one, (2, 1, 0, ...) at n=3."""
    bunched = tuple(np.bincount(np.r_[0, np.arange(n - 1)] % modes, minlength=modes).tolist())
    spread = (1,) * n + (0,) * (modes - n)
    return ([spread] if n <= modes else []) + [bunched]


def _builder(interfering):
    return exact_distribution if interfering else distinguishable_distribution


class TestGlynnEngine:
    @pytest.mark.parametrize("interfering", [True, False])
    @pytest.mark.parametrize("collisions", [True, False])
    def test_matches_per_input_ryser_and_naive(self, interfering, collisions):
        worst = 0.0
        for modes in range(2, 13):
            u = haar_random_unitary(modes, 300 + modes)
            source = u if interfering else np.abs(u) ** 2
            for n in range(1, 7):
                for occ in _spread_and_bunched(modes, n):
                    if not collisions and n > modes:
                        continue
                    dist = _builder(interfering)(u, occ, collisions)
                    outcomes, weights = ryser_reference(u, occ, collisions, interfering)
                    mass = float(weights.sum()) if not collisions else 1.0
                    assert dist.outcomes == tuple(outcomes)
                    err = np.abs(dist.probabilities - (weights / mass).astype(float)).max()
                    assert err <= 1e-15, f"m={modes} input={occ}"
                    worst = max(worst, err)
                    # 16 outcomes by the permutation sum, sharing no code with
                    # either, compared before any collision-free renormalisation
                    for k in np.unique(np.linspace(0, len(outcomes) - 1, 16).astype(int)):
                        out = outcomes[k]
                        perm = permanent_naive(transition_submatrix(source, occ, out))
                        want = (abs(perm) ** 2 / math.prod(map(math.factorial, occ))
                                if interfering else perm.real)
                        want /= math.prod(map(math.factorial, out))
                        assert dist.probabilities[k] * mass == pytest.approx(want, abs=1e-15)
        assert worst > 0  # the two routes round differently, so the check compares

    @pytest.mark.parametrize("interfering", [True, False])
    def test_batch_invariance_across_all_four_photon_inputs(self, interfering, monkeypatch):
        u = haar_random_unitary(12, 41)
        inputs = np.array([o for o in enumerate_patterns(12, 4, False)])
        together = _distributions(u, inputs, True, interfering)
        assert len(together) == 495
        for k, occ in enumerate(inputs):
            alone = _builder(interfering)(u, occ)
            assert np.array_equal(alone.probabilities, together[k].probabilities)
        # chunks of 7 complex (14 real) inputs, so chunk boundaries fall elsewhere
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", 7 * 1365 * 8 * 16)
        picked = [3, 4, 5, 200, 494, 0, 17, 18, 300, 301]
        chunked = _distributions(u, inputs[picked], True, interfering)
        for k, dist in zip(picked, chunked):
            assert np.array_equal(dist.probabilities, together[k].probabilities)

    def test_batch_invariance_at_six_photons_and_mixed_photon_numbers(self, monkeypatch):
        u = haar_random_unitary(8, 42)
        inputs = np.array([(1, 1, 1, 1, 1, 1, 0, 0), (2, 0, 1, 0, 3, 0, 0, 0),
                           (0, 1, 0, 1, 0, 0, 0, 0), (0, 0, 1, 1, 1, 1, 1, 1)])
        alone = [exact_distribution(u, occ, False) for occ in inputs]
        monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1 << 30)
        together = _distributions(u, inputs, False, True)
        for a, b in zip(alone, together):
            assert a._support is b._support
            assert np.array_equal(a.probabilities, b.probabilities)

    def test_builds_stay_small(self):
        # the engine's working set is chunked; a later chunk-size change
        # must not quietly grow the peak
        u = haar_random_unitary(12, 43)
        inputs = np.array(enumerate_patterns(12, 4, False))
        exact_distribution(u, (1,) * 6 + (0,) * 6)  # pattern tables cached first
        _distributions(u, inputs[:1], True, True)
        for build in (lambda: _distributions(u, inputs, True, True),
                      lambda: exact_distribution(u, (1,) * 6 + (0,) * 6)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestDistinguishableDistribution:
    def test_identity_is_point_mass(self):
        dist = distinguishable_distribution(np.eye(3), (1, 0, 1))
        assert dist.prob((1, 0, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_beamsplitter_classical_split(self):
        dist = distinguishable_distribution(BS, (1, 1))
        assert dist.prob((2, 0)) == pytest.approx(0.25, abs=1e-12)
        assert dist.prob((0, 2)) == pytest.approx(0.25, abs=1e-12)
        assert dist.prob((1, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_normalization_on_haar(self):
        dist = distinguishable_distribution(haar_random_unitary(6, 24), (1, 1, 1, 0, 0, 0))
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_bunched_input_matches_brute_force(self):
        u = haar_random_unitary(5, 35)
        occ = (2, 0, 1, 0, 0)
        transfer = np.abs(u) ** 2
        dist = distinguishable_distribution(u, occ)
        assert len(dist.outcomes) == math.comb(7, 3)
        for out in dist.outcomes:
            perm = permanent_naive(transition_submatrix(transfer, occ, out)).real
            want = perm / np.prod([math.factorial(t) for t in out])
            assert dist.prob(out) == pytest.approx(want, abs=1e-12)

    def test_single_photon_equals_exact(self):
        u = haar_random_unitary(7, 25)
        occ = (0, 0, 0, 1, 0, 0, 0)
        exact = exact_distribution(u, occ)
        classical = distinguishable_distribution(u, occ)
        assert exact.outcomes == classical.outcomes
        assert np.array_equal(exact.probabilities, classical.probabilities)


class TestSampleOutputs:
    def test_point_mass(self):
        dist = OutcomeDistribution(((2, 0),), np.array([1.0]))
        assert sample_outputs(dist, 50, seed=0) == [(2, 0)] * 50

    def test_zero_probability_outcome_never_drawn(self):
        dist = exact_distribution(BS, (1, 1))
        samples = sample_outputs(dist, 10_000, seed=1)
        assert (1, 1) not in samples

    def test_determinism(self):
        dist = exact_distribution(haar_random_unitary(5, 26), (1, 1, 0, 0, 0))
        assert sample_outputs(dist, 100, seed=5) == sample_outputs(dist, 100, seed=5)

    def test_uniform_four_chi_square(self):
        from scipy import stats

        dist = OutcomeDistribution(
            tuple((i,) for i in range(4)), np.full(4, 0.25)
        )
        samples = sample_outputs(dist, 100_000, seed=2)
        counts = np.bincount([s[0] for s in samples], minlength=4)
        chi2 = ((counts - 25_000.0) ** 2 / 25_000.0).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=3)

    def test_zero_shots_rejected(self):
        dist = OutcomeDistribution(((1,),), np.array([1.0]))
        with pytest.raises(ContractError):
            sample_outputs(dist, 0, seed=0)

    @pytest.mark.parametrize("shots", [2**63, 10**20])
    def test_shots_beyond_int64_rejected(self, shots):
        dist = OutcomeDistribution(((1,),), np.array([1.0]))
        with pytest.raises(ContractError):
            sample_outputs(dist, shots, seed=0)


class TestExpectedRate:
    def test_combination_factors(self):
        eps, eta, rep = 0.01, 0.5, 80e6
        for n, combos in ((3, 220), (4, 495), (5, 792)):
            scatter = expected_rate(12, n, eps, eta, rep, scattershot=True)
            per_pattern = rep * (eps * eta) ** n * (1 - eps * eta) ** (12 - n)
            assert scatter / per_pattern == pytest.approx(combos, rel=1e-12)
            assert math.comb(12, n) == combos

    def test_standard_scaling(self):
        assert expected_rate(3, 3, 0.1, 0.5, 1e6, scattershot=False) == pytest.approx(
            1e6 * 0.05**3
        )

    def test_vacuum_term(self):
        got = expected_rate(12, 0, 0.01, 0.5, 80e6, scattershot=True)
        assert got == pytest.approx(80e6 * (1 - 0.005) ** 12, rel=1e-12)

    def test_rate_below_the_float_range_is_the_direct_product(self):
        assert expected_rate(12, 3, 0.01, 0.5) == 80e6 * 220 * 0.005**3 * 0.995**9

    def test_binomial_beyond_the_float_range(self):
        # C(2000, 1000) ~ 2e600 overflows a float; the rate is then summed in logs
        for k, n, eps, eta in ((2000, 1000, 1.0, 0.5), (2000, 700, 0.7, 0.5)):
            p = Fraction(eps) * Fraction(eta)
            exact = 80_000_000 * math.comb(k, n) * p**n * (1 - p) ** (k - n)
            assert expected_rate(k, n, eps, eta) == pytest.approx(float(exact), rel=1e-12)
        assert expected_rate(2000, 1000, 0.01, 0.5) == 0.0
        assert expected_rate(2000, 1000, 0.0, 0.5) == 0.0
        assert expected_rate(2000, 1000, 1.0, 1.0) == 0.0

    def test_guards(self):
        with pytest.raises(ContractError):
            expected_rate(3, 4, 0.1, 0.5)
        with pytest.raises(ContractError):
            expected_rate(3, 2, 1.5, 0.5)
        with pytest.raises(ContractError):
            expected_rate(3, 2, 0.1, 0.5, rep_rate=0.0)
        for rep_rate in (math.nan, math.inf):
            with pytest.raises(ContractError):
                expected_rate(3, 2, 0.1, 0.5, rep_rate=rep_rate)


def dense_scattershot_reference(u, params, pulses, n_select, seed, build=exact_distribution):
    """Dense per-pulse selection and a per-event output loop.

    Each batch's sparse pair draw is scattered into ``(pulses, sources)``
    herald and input arrays; candidates are the rows with n_select heralds
    and n_select inputs, and each candidate draws its output (and its
    detector thinning) on its own, in pulse order, from ``build(u, input)``
    built once per input.
    """
    k = len(params)
    eps = np.array([p.epsilon for p in params])
    herald_prob = np.array([p.eta_herald * p.eta_detect for p in params])
    signal_prob = np.array([p.eta_herald for p in params])
    detect_prob = np.array([p.eta_detect for p in params])
    lossy = bool(np.any(detect_prob < 1.0))
    dists = {}
    records = []
    for batch, start in enumerate(range(0, pulses, _BATCH)):
        size = min(_BATCH, pulses - start)
        rng = derive_rng(seed, "scattershot", batch)
        pairs = _draw_pairs(rng, eps, herald_prob, signal_prob, size)
        heralded = np.zeros((size, k), dtype=bool)
        signal = np.zeros((size, k), dtype=bool)
        heralded[pairs.pulse, pairs.source] = pairs.heralded
        signal[pairs.pulse, pairs.source] = pairs.signal
        inputs = heralded & signal
        candidates = np.flatnonzero(
            (heralded.sum(axis=1) == n_select) & (inputs.sum(axis=1) == n_select)
        )
        if candidates.size == 0:
            continue
        draws = rng.random(candidates.size)
        for u_draw, row in zip(draws, candidates):
            key = tuple(int(x) for x in inputs[row])
            if key not in dists:
                dists[key] = build(u, key)
            cum = dists[key].cumulative()
            pick = min(int(np.searchsorted(cum, u_draw, side="right")), len(cum) - 1)
            output = np.array(dists[key].outcomes[pick])
            if lossy:
                output = rng.binomial(output, detect_prob)
                if output.sum() != n_select:
                    continue
            records.append(SampleRecord(
                trigger=tuple(int(x) for x in heralded[row]),
                input=key,
                output=tuple(int(x) for x in output),
                pulse_index=start + int(row),
            ))
    return records


_FAINT_LOSSY = [SourceParams(0.03, eta_herald=0.9, eta_detect=d)
                for d in (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)]
_FAINT_PULSES = 3 * _BATCH + 100


def dense_candidate_counts(params, pulses, n_select, seed):
    """Candidate pulses of each batch, selected densely as in the reference."""
    eps, herald_prob, signal_prob = (np.array([p.epsilon for p in params]),
                                     np.array([p.eta_herald * p.eta_detect for p in params]),
                                     np.array([p.eta_herald for p in params]))
    counts = []
    for batch, start in enumerate(range(0, pulses, _BATCH)):
        size = min(_BATCH, pulses - start)
        pairs = _draw_pairs(derive_rng(seed, "scattershot", batch), eps, herald_prob,
                            signal_prob, size)
        heralds = np.bincount(pairs.pulse[pairs.heralded], minlength=size)
        inputs = np.bincount(pairs.pulse[pairs.heralded & pairs.signal], minlength=size)
        counts.append(int(((heralds == n_select) & (inputs == n_select)).sum()))
    return counts


class TestScattershotRun:
    @pytest.mark.parametrize("modes, params, pulses, n, seed", [
        # ideal, unequal sources
        (5, [SourceParams(e) for e in (0.05, 0.1, 0.2, 0.3, 0.1)], 20_000, 3, 1),
        # lossy detectors and heralds, crossing a batch boundary
        (6, [SourceParams(0.4, eta_herald=0.9, eta_detect=0.7)] * 6, 70_000, 2, 2),
        # bright sources, four photons
        (8, [SourceParams.from_lumped_efficiency(0.3, 0.81)] * 8, 5_000, 4, 3),
        # faint sources, unequal detectors: four batches, the last partial
        # and without a candidate (see test_round_size_does_not_change_the_run)
        (8, _FAINT_LOSSY, _FAINT_PULSES, 3, 5),
        # one photon per event
        (5, [SourceParams(0.2, eta_herald=0.8, eta_detect=d) for d in (0.5, 0.7, 0.8, 0.9, 1.0)],
         5_000, 1, 4),
    ])
    def test_matches_dense_per_event_reference(self, modes, params, pulses, n, seed):
        u = haar_random_unitary(modes, 40 + modes)
        result = scattershot_run(u, params, pulses, n, seed)
        reference = dense_scattershot_reference(u, params, pulses, n, seed)
        assert len(reference) > 0
        assert result.records == reference

    @pytest.mark.parametrize("n, pulses", [(4, 4_000), (5, 2_500)])
    def test_matches_per_input_ryser_run(self, n, pulses):
        # bright criterion-3 sources; every input's distribution is built on
        # its own by the per-input Ryser reference in double precision
        u = haar_random_unitary(12, 44)
        params = [SourceParams.from_lumped_efficiency(0.3, 0.81)] * 12
        result = scattershot_run(u, params, pulses, n, seed=n)
        reference = dense_scattershot_reference(
            u, params, pulses, n, n, lambda u, occ: reference_distribution(u, occ, precise=False))
        assert len(reference) > 100
        assert result.records == reference

    @pytest.mark.parametrize("round_batches", [1, 2])
    def test_round_size_does_not_change_the_run(self, round_batches, monkeypatch):
        # Later batches bring inputs no earlier batch drew, so a smaller
        # round builds in several engine calls, and the last batch has no
        # candidate, so a one-batch round holds nothing.
        assert dense_candidate_counts(_FAINT_LOSSY, _FAINT_PULSES, 3, 5) == [33, 22, 14, 0]
        u = haar_random_unitary(8, 48)
        default = scattershot_run(u, _FAINT_LOSSY, _FAINT_PULSES, 3, 5)
        monkeypatch.setattr(sampling, "_ROUND", round_batches)
        run = scattershot_run(u, _FAINT_LOSSY, _FAINT_PULSES, 3, 5)
        assert run.report == default.report
        assert run.records == default.records
        assert len(run.records) > 0

    def test_deterministic_sources_retain_every_pulse(self):
        u = haar_random_unitary(3, 27)
        params = [SourceParams(epsilon=1.0)] * 3
        result = scattershot_run(u, params, 200, 3, seed=0)
        assert result.report.retained_events == 200
        assert all(r.input == (1, 1, 1) for r in result.records)
        assert all(r.trigger == (1, 1, 1) for r in result.records)
        assert all(sum(r.output) == 3 for r in result.records)

    def test_zero_epsilon_returns_nothing(self):
        u = haar_random_unitary(3, 28)
        result = scattershot_run(u, [SourceParams(epsilon=0.0)] * 3, 500, 2, seed=0)
        assert result.report.retained_events == 0
        assert result.report.rate_hz == 0.0

    def test_non_unitary_rejected(self):
        with pytest.raises(ContractError):
            # idle sources never build a distribution that could expose it
            scattershot_run(0.5 * np.ones((4, 4)), [SourceParams(epsilon=0.0)] * 4, 10, 2, seed=0)

    def test_source_count_must_match_modes(self):
        u = haar_random_unitary(4, 29)
        with pytest.raises(ContractError):
            scattershot_run(u, [SourceParams(epsilon=0.5)] * 3, 10, 2, seed=0)

    def test_photon_limit(self):
        u = haar_random_unitary(8, 30)
        with pytest.raises(ResourceLimitError):
            scattershot_run(u, [SourceParams(epsilon=0.5)] * 8, 10, 7, seed=0)

    def test_oversized_pattern_table_refused_before_firing(self):
        # C(35, 6) = 1.6e6 six-photon patterns exceed the enumeration
        # limit; idle sources never reach a distribution build.
        with pytest.raises(ResourceLimitError):
            scattershot_run(haar_random_unitary(30, 1), [SourceParams(0.0)] * 30, 10, 6, 0)

    def test_rate_survives_an_overflowing_product(self):
        # every pulse is retained, so rep_rate * retained alone overflows
        u = haar_random_unitary(4, 32)
        result = scattershot_run(u, [SourceParams(1.0, rep_rate=1e308)] * 4, 100, 4, seed=0)
        assert result.report.retained_events == 100
        assert result.report.rate_hz == result.report.predicted_rate_hz == 1e308

    def test_record_invariants_with_lossy_detectors(self):
        u = haar_random_unitary(6, 31)
        params = [SourceParams(epsilon=0.4, eta_herald=0.9, eta_detect=0.7)] * 6
        result = scattershot_run(u, params, 40_000, 2, seed=3)
        assert result.report.retained_events > 0
        for rec in result.records:
            assert sum(rec.trigger) == 2
            assert sum(rec.input) == 2
            assert sum(rec.output) == 2
            assert rec.pulse_index < 40_000
        # detector loss discards events, so retention stays below the
        # lossless herald coincidence rate
        perfect = scattershot_run(
            u, [SourceParams(epsilon=0.4, eta_herald=0.9)] * 6, 40_000, 2, seed=3
        )
        assert result.report.retained_events < perfect.report.retained_events

    def test_rate_report_consistency(self):
        u = haar_random_unitary(4, 32)
        params = [SourceParams.from_lumped_efficiency(0.2, 0.8)] * 4
        result = scattershot_run(u, params, 30_000, 2, seed=7)
        rep = result.report
        assert rep.n == 2
        assert rep.pulses == 30_000
        assert rep.rate_hz == pytest.approx(80e6 * rep.retained_events / 30_000)
        # two sources herald and deliver a photon, eps * (eta_h * eta_d)^2
        # each, and the other two stay silent, 1 - eps * eta_h * eta_d each
        eta_h = math.sqrt(0.8)
        want = 80e6 * math.comb(4, 2) * (0.2 * 0.8) ** 2 * (1 - 0.2 * eta_h) ** 2
        assert rep.predicted_rate_hz == pytest.approx(want, rel=1e-12)

    def test_predicted_rate_is_the_exact_retention(self):
        # n sources herald and deliver a detected photon, the other k - n stay
        # silent: criterion-3 bright sources, then lossy detectors shared by
        # all sources
        for params, k, n, pulses in (
            ([SourceParams.from_lumped_efficiency(0.3, 0.81)] * 12, 12, 4, 1),
            ([SourceParams(0.4, eta_herald=0.9, eta_detect=0.7)] * 6, 6, 2, 40_000),
        ):
            s = params[0]
            useful = s.epsilon * (s.eta_herald * s.eta_detect) ** 2
            idle = 1.0 - s.epsilon * s.eta_herald * s.eta_detect
            want = s.rep_rate * math.comb(k, n) * useful**n * idle ** (k - n)
            result = scattershot_run(haar_random_unitary(k, 34), params, pulses, n, seed=8)
            assert result.report.predicted_rate_hz == pytest.approx(want, rel=1e-12)
        # the lossy run's simulated retention agrees within 5 sigma
        prob = want / s.rep_rate
        sigma = math.sqrt(pulses * prob * (1.0 - prob))
        assert abs(result.report.retained_events - pulses * prob) <= 5 * sigma

    def test_batched_runs_are_reproducible(self):
        u = haar_random_unitary(3, 33)
        params = [SourceParams(epsilon=0.5)] * 3
        a = scattershot_run(u, params, 70_000, 2, seed=11)
        b = scattershot_run(u, params, 70_000, 2, seed=11)
        assert a.records == b.records
        idx = [r.pulse_index for r in a.records]
        assert idx == sorted(idx)
        # events land on both sides of an internal batch boundary
        assert idx[-1] >= 65_536

    def test_records_are_built_once_on_first_access(self):
        u = haar_random_unitary(4, 35)
        result = scattershot_run(u, [SourceParams(epsilon=0.5)] * 4, 2_000, 2, seed=1)
        assert "records" not in vars(result)
        records = result.records
        assert result.records is records
        assert len(records) == result.report.retained_events > 0
        # a trigger is its input, and equal patterns share one tuple
        assert all(r.trigger is r.input for r in records)
        patterns = [p for r in records for p in (r.trigger, r.output)]
        assert len({id(p) for p in patterns}) == len(set(patterns))


LOG_COLUMNS = "pulse_index,trigger_pattern,input_pattern,output_pattern"


def per_record_write_reference(path, records, header_lines=()):
    """Sample-log writer with one ``occupation_to_string`` call and one write per field."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(LOG_COLUMNS + "\n")
        for rec in records:
            fh.write(
                f"{rec.pulse_index},{occupation_to_string(rec.trigger)},"
                f"{occupation_to_string(rec.input)},{occupation_to_string(rec.output)}\n"
            )


def per_line_read_reference(path):
    """Sample-log reader that checks and builds one SampleRecord per line.

    Each distinct pattern string is decoded once through a memo, so records
    with equal patterns share one tuple; every error names its line.
    """
    decoded = {}

    def decode(text):
        if text not in decoded:
            decoded[text] = occupation_from_string(text)
        return decoded[text]

    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"sample log is not UTF-8 text: {exc}") from exc
    header_seen = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != LOG_COLUMNS:
                raise DataError(f"line {line_no}: expected column header {LOG_COLUMNS!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        pulse = parts[0]
        try:
            if not (pulse.isascii() and pulse.isdigit()):
                raise DataError(f"malformed pulse index: {pulse!r}")
            records.append(SampleRecord(trigger=decode(parts[1]), input=decode(parts[2]),
                                        output=decode(parts[3]), pulse_index=int(pulse)))
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
    if not header_seen:
        raise DataError("sample log has no column header")
    return records


def _scattershot_log():
    u = haar_random_unitary(6, 11)
    run = scattershot_run(u, [SourceParams(0.3)] * 6, 20_000, 3, 8)
    assert len(run.records) > 100
    return run.records, ["multiphoton 0.1.0", "command: scattershot", "seed: 8"]


def _bunched_log():
    pattern = (1, 1, 1, 0)
    outputs = sample_outputs(exact_distribution(haar_random_unitary(4, 3), pattern), 300, 4)
    assert any(max(out) > 1 for out in outputs)
    records = [SampleRecord(pattern, pattern, out, i) for i, out in enumerate(outputs)]
    return records + [SampleRecord((9, 0), (9, 0), (0, 9), 300)], ()


def _mixed_length_log():
    patterns = [(1, 0), (0, 1, 1), (1,) * 12, (0, 2, 0), (1, 0), (0,)]
    records = [SampleRecord(p, p, p[::-1], 7 * i) for i, p in enumerate(patterns)]
    return records, ["seed: 2"]


LOG_CASES = {"scattershot": _scattershot_log, "bunched": _bunched_log,
             "mixed_lengths": _mixed_length_log}


BAD_ROWS = [
    "200,110,110,0x0", "200,110,110,", "200,110, 110,020", "200,110,110,١٢٠",
    "200,²10,110,020", "-5,110,110,020", "+5,110,110,020", "1_0,110,110,020",
    "٣,110,110,020", ",110,110,020", "200,110,110",
]


def _after_cached_repeats(row):
    """A log whose line 203 is ``row``, after 200 rows repeating one set of patterns."""
    good = [f"{i},110,110,020" for i in range(200)]
    return ("\n".join(["# seed: 1", LOG_COLUMNS, *good, row, "201,110,110,020"])
            + "\n").encode()


# Every malformed log the tests use, as file bytes.
MALFORMED_LOGS = {
    **{f"bad-row-{i}": _after_cached_repeats(row) for i, row in enumerate(BAD_ROWS)},
    "missing-header": b"1,110,110,020\n",
    "wrong-header": b"# seed: 1\npulse,trigger,input,output\n1,110,110,020\n",
    "empty-file": b"",
    "malformed-row": f"{LOG_COLUMNS}\n1,110,110\n".encode(),
    "non-numeric-pattern": f"{LOG_COLUMNS}\n1,1x0,110,020\n".encode(),
    "not-utf8": LOG_COLUMNS.encode() + b"\n1,110,110,\xff20\n",
    # the first bad line decides, whichever check catches the later one
    "bad-pattern-before-short-row": f"{LOG_COLUMNS}\n1,110,110,020\n2,1x0,110,020\n3,110\n".encode(),
    "short-row-before-bad-pulse": f"{LOG_COLUMNS}\n1,110,110\n-2,110,110,020\n".encode(),
    "bad-pulse-before-bad-pattern": f"{LOG_COLUMNS}\n+1,110,110,020\n2,110,110,0x0\n".encode(),
}


class TestSampleLog:
    def test_round_trip(self, tmp_path):
        records = [
            SampleRecord((1, 1, 0), (1, 1, 0), (0, 2, 0), 5),
            SampleRecord((0, 1, 1), (0, 1, 1), (1, 0, 1), 9),
        ]
        path = tmp_path / "samples.csv"
        write_sample_log(path, records, header_lines=["seed: 1"])
        assert read_sample_log(path) == records
        text = path.read_text()
        assert text.startswith("# seed: 1\n")
        assert "pulse_index,trigger_pattern,input_pattern,output_pattern" in text

    @pytest.mark.parametrize("case", LOG_CASES)
    def test_write_matches_per_record_writer(self, tmp_path, case):
        records, header = LOG_CASES[case]()
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        write_sample_log(ours, records, header)
        per_record_write_reference(reference, records, header)
        assert ours.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("case", LOG_CASES)
    def test_read_matches_per_record_reader(self, tmp_path, case):
        records, header = LOG_CASES[case]()
        path = tmp_path / "samples.csv"
        per_record_write_reference(path, records, header)
        back = read_sample_log(path)
        assert back == per_line_read_reference(path) == records
        # Equal patterns are decoded once and shared.
        patterns = [p for r in back for p in (r.trigger, r.input, r.output)]
        assert len({id(p) for p in patterns}) == len(set(patterns))

    @pytest.mark.parametrize("bad", [(10, 0, 0), (0, -1, 1), (1.5, 0, 0)])
    @pytest.mark.parametrize("field", ["trigger", "input", "output"])
    @pytest.mark.parametrize("after_cached", [False, True])
    def test_invalid_pattern_rejected_on_write(self, tmp_path, bad, field, after_cached):
        good = (1, 0, 0)
        records = [SampleRecord(good, good, good, i) for i in range(5 if after_cached else 0)]
        fields = dict(trigger=good, input=good, output=good, pulse_index=len(records))
        fields[field] = bad
        records.append(SampleRecord(**fields))
        path = tmp_path / "samples.csv"
        with pytest.raises(ContractError):
            write_sample_log(path, records)
        assert not path.exists()

    @pytest.mark.parametrize("pulse", [-5, 1.5, True, 2**63, np.bool_(True), np.uint64(2**63),
                                       "3", None])
    def test_invalid_pulse_index_rejected(self, tmp_path, pulse):
        records = [SampleRecord((1, 0), (1, 0), (0, 1), 0),
                   SampleRecord((1, 0), (1, 0), (1, 0), pulse)]
        path = tmp_path / "samples.csv"
        with pytest.raises(ContractError, match="^pulse index"):
            write_sample_log(path, records)
        assert not path.exists()
        for take in (sampling._events_from_records,
                     lambda records: scattershot_aggregate_validation(records, np.eye(2))):
            with pytest.raises(ContractError, match="^pulse index"):
                take(records)

    def test_integer_pulse_indices_of_any_integer_type(self, tmp_path):
        pulses = [np.int64(7), np.uint8(3), 2**63 - 1, 0]
        records = [SampleRecord((1, 0), (1, 0), (0, 1), p) for p in pulses]
        path = tmp_path / "samples.csv"
        write_sample_log(path, records)
        assert [r.pulse_index for r in read_sample_log(path)] == pulses
        assert sampling._events_from_records(records).pulse.tolist() == pulses

    @pytest.mark.parametrize("row", BAD_ROWS)
    def test_bad_row_after_cached_repeats_names_its_line(self, tmp_path, row):
        path = tmp_path / "samples.csv"
        path.write_bytes(_after_cached_repeats(row))
        with pytest.raises(DataError, match=r"^line 203: "):
            read_sample_log(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,110,110,020\n")
        with pytest.raises(DataError):
            read_sample_log(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "pulse_index,trigger_pattern,input_pattern,output_pattern\n1,110,110\n"
        )
        with pytest.raises(DataError):
            read_sample_log(path)

    def test_non_numeric_pattern_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "pulse_index,trigger_pattern,input_pattern,output_pattern\n1,1x0,110,020\n"
        )
        with pytest.raises(DataError):
            read_sample_log(path)

    def test_text_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(LOG_COLUMNS.encode() + b"\n1,110,110,\xff20\n")
        with pytest.raises(DataError):
            read_sample_log(path)

    @pytest.mark.parametrize("name", MALFORMED_LOGS)
    def test_malformed_log_raises_the_per_line_error(self, tmp_path, name):
        path = tmp_path / "bad.csv"
        path.write_bytes(MALFORMED_LOGS[name])
        with pytest.raises(DataError) as ours:
            read_sample_log(path)
        with pytest.raises(DataError) as reference:
            per_line_read_reference(path)
        assert str(ours.value) == str(reference.value)
        unitary = tmp_path / "u.json"
        save_matrix(unitary, haar_random_unitary(3, 1))
        code = cli.main(["validate", "--samples", str(path), "--unitary", str(unitary)])
        assert code == cli.EXIT_DATA

    def test_pulse_index_beyond_int64_names_its_line(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(f"{LOG_COLUMNS}\n0009223372036854775807,110,110,020\n"
                        "9223372036854775808,110,110,020\n", encoding="utf-8")
        with pytest.raises(DataError,
                           match=r"^line 3: pulse index out of range: '9223372036854775808'$"):
            read_sample_log(path)
        path.write_text(f"{LOG_COLUMNS}\n0009223372036854775807,110,110,020\n",
                        encoding="utf-8")
        assert read_sample_log(path)[0].pulse_index == 2**63 - 1
        # longer than int() parses by default
        path.write_text(f"{LOG_COLUMNS}\n1,110,110,020\n{'7' * 5000},110,110,020\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=r"^line 3: pulse index out of range: '777"):
            read_sample_log(path)
        # leading zeros beyond int()'s digit limit
        path.write_text(f"{LOG_COLUMNS}\n{'0' * 5000}1,110,110,020\n", encoding="utf-8")
        assert read_sample_log(path)[0].pulse_index == 1

    @pytest.mark.parametrize("params", [
        [SourceParams(0.3)] * 6,
        [SourceParams(0.4, eta_herald=0.9, eta_detect=0.7)] * 6,
    ], ids=["ideal", "lossy"])
    def test_event_table_holds_each_used_pattern_once(self, params):
        run = scattershot_run(haar_random_unitary(6, 11), params, 20_000, 3, 8)
        events = run._events
        assert len(set(events.patterns)) == len(events.patterns)
        used = np.unique(np.concatenate([events.trigger, events.input, events.output]))
        assert used.tolist() == list(range(len(events.patterns)))
        assert sampling._events_from_records(run.records).records() == run.records


# Fuzzed sample-log bodies: valid rows and skipped lines, with at most one
# malformed row or line of arbitrary text inserted among them.
_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_GOOD_ROW = st.tuples(st.integers(0, 10**12).map(str) | st.just("007"),
                      _DIGITS, _DIGITS, _DIGITS).map(",".join)
_SKIPPED = st.sampled_from(["", "  ", "# note", "\t# x,1,1,1"])
_BAD_FIELD = st.sampled_from(["", "١٢٠", "²10", "1x0", " 12", "-1", "+1", "1_0", "٣", "1e3"])
_BAD_ROW = st.tuples(_GOOD_ROW, st.integers(0, 3), _BAD_FIELD).map(
    lambda t: ",".join(t[2] if i == t[1] else f for i, f in enumerate(t[0].split(","))))
_NOISE = st.text("0123456789,#-+_ x٣²\r\t", max_size=30) | st.text(max_size=30)
_BODY = st.tuples(st.lists(_GOOD_ROW | _SKIPPED, max_size=6),
                  st.none() | _BAD_ROW | _NOISE, st.integers(0, 6)).map(
    lambda t: "\n".join(t[0] if t[1] is None else t[0][: t[2]] + [t[1]] + t[0][t[2]:]))
_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
# Fuzzed logs line by line: any mix of headers, rows, skipped lines and noise.
_LINES = st.lists(_GOOD_ROW | _BAD_ROW | _SKIPPED | _NOISE | st.just(LOG_COLUMNS), max_size=8)


def _data_rows(path):
    lines = [line.strip() for line in path.read_text(encoding="utf-8").split("\n")]
    return [line.split(",") for line in lines if line and not line.startswith("#")][1:]


class TestSampleLogFuzz:
    @_FUZZ
    @given(body=_BODY)
    def test_reads_records_that_round_trip_or_raises_data_error(self, tmp_path, body):
        path = tmp_path / "fuzz.csv"
        path.write_text(f"{LOG_COLUMNS}\n{body}", encoding="utf-8")
        try:
            records = read_sample_log(path)
        except DataError:
            return
        assert records == per_line_read_reference(path)
        again = tmp_path / "again.csv"
        write_sample_log(again, records)
        assert read_sample_log(again) == records
        # Accepted fields are plain ASCII digits, so they are written back as
        # given, up to leading zeros of the pulse index.
        given, written = _data_rows(path), _data_rows(again)
        assert [r[1:] for r in written] == [r[1:] for r in given]
        assert [r[0] for r in written] == [r[0].lstrip("0") or "0" for r in given]

    @settings(_FUZZ, max_examples=60)
    @given(lines=_LINES)
    def test_columnar_reader_matches_per_line_oracle(self, tmp_path, lines):
        path = tmp_path / "fuzz.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        results = []
        for reader in (read_sample_log, per_line_read_reference):
            try:
                results.append(reader(path))
            except DataError as exc:
                results.append(str(exc))
        assert results[0] == results[1]

    @_FUZZ
    @given(body=_BODY)
    def test_validate_exits_with_data_or_contract_error(self, tmp_path, body):
        # Fuzzed patterns hold at most 6 digits and other lines at most 30
        # characters, while a 12-mode record needs 40, so no fuzzed log is
        # valid against the 12-mode interferometer.
        unitary = tmp_path / "u.json"
        if not unitary.exists():
            save_matrix(unitary, haar_random_unitary(12, 1))
        log = tmp_path / "fuzz.csv"
        log.write_text(f"{LOG_COLUMNS}\n{body}", encoding="utf-8")
        code = cli.main(["validate", "--samples", str(log), "--unitary", str(unitary),
                         "--out", str(tmp_path / "report.txt")])
        assert code in (cli.EXIT_DATA, cli.EXIT_CONTRACT)


def test_enumeration_order_is_stable():
    pats = enumerate_patterns(4, 2)
    assert pats[0] == (2, 0, 0, 0)
    assert pats == enumerate_patterns(4, 2)


def test_module_properties():
    check_sampling_properties(seed=5)
