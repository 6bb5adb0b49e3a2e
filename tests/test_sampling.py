import dataclasses
import itertools
import math
import re
import sys
import time
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiphoton import cli, linalg, permanent, sampling, sources
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
from multiphoton.sources import SourceParams, fire_sources
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

    @pytest.mark.parametrize("builder", [exact_distribution, distinguishable_distribution])
    def test_limits_are_refused_before_the_engine(self, builder, monkeypatch):
        # The engine checks no limit: each builder guards its one input.
        def engine(*args):
            raise AssertionError("the engine was reached")

        monkeypatch.setattr(sampling, "_probabilities", engine)
        name = builder.__name__
        refusals = [
            ((0, 0, 0), ContractError, f"{name} needs at least one photon in the input"),
            ((1,) * 7 + (0,), ResourceLimitError,
             f"{name} handles at most 6 photons, got 7; use sampled estimates for larger systems"),
            ((1,) * 6 + (0,) * 54, ResourceLimitError,
             "enumerating 82598880 output patterns exceeds the 1000000 limit; "
             "use sampled estimates instead"),
        ]
        for occ, error, message in refusals:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                builder(np.eye(len(occ)), occ)

    def test_non_unitary_rejected(self):
        # renormalizing the collision-free outputs would hide this defect
        with pytest.raises(ContractError):
            exact_distribution(0.7 * np.ones((4, 4)), (1, 1, 0, 0), collisions=False)
        # |U|^2 is doubly stochastic here, so the probabilities sum to 1
        with pytest.raises(ContractError):
            distinguishable_distribution(0.5 * np.ones((4, 4)), (1, 1, 0, 0))


def ryser_reference(unitary, occ, collisions, interfering):
    """Unnormalised output weights of one input by Ryser's formula, per input.

    This is the per-input builder the batched Glynn engine replaced: 2^n - 1
    subset row sums ``v_R`` and ``sum_R (-1)^(n-|R|) prod_(j in T) v_R[j]``
    for every output T, evaluated in 80-bit long double, so that its own
    rounding (up to 7e-15 in double for bunched inputs at small m) stays
    far below the 1e-15 the engine is held to.  Returns the outcomes and
    the weights before any collision-free renormalisation.
    """
    real = np.longdouble
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
        _, together = permanent._probabilities(u, inputs, True, interfering)
        assert len(together) == 495
        for k, occ in enumerate(inputs):
            alone = _builder(interfering)(u, occ)
            assert np.array_equal(alone.probabilities, together[k])
        # one block of all 8 sign vectors over the 364 three-photon parents,
        # in chunks of 7 complex (14 real) inputs, so chunk boundaries fall elsewhere
        monkeypatch.setattr(permanent, "_CHUNK_BYTES", 7 * 364 * (8 + 12) * 16)
        picked = [3, 4, 5, 200, 494, 0, 17, 18, 300, 301]
        _, chunked = permanent._probabilities(u, inputs[picked], True, interfering)
        for k, row in zip(picked, chunked):
            assert np.array_equal(row, together[k])

    def test_batch_invariance_at_six_photons(self, monkeypatch):
        u = haar_random_unitary(8, 42)
        inputs = np.array([(1, 1, 1, 1, 1, 1, 0, 0), (2, 0, 1, 0, 3, 0, 0, 0),
                           (0, 0, 1, 1, 1, 1, 1, 1)])
        alone = [exact_distribution(u, occ, False) for occ in inputs]
        monkeypatch.setattr(permanent, "_CHUNK_BYTES", 1 << 30)
        table, together = permanent._probabilities(u, inputs, False, True)
        together /= together.sum(axis=1, keepdims=True)  # as the builder normalises
        for a, row in zip(alone, together):
            assert a._support is table
            assert np.array_equal(a.probabilities, row)

    @pytest.mark.parametrize("interfering", [True, False])
    @pytest.mark.parametrize("modes, n", [(12, 5), (8, 6)])
    def test_sign_blocks_keep_every_input_bit_identical(self, modes, n, interfering,
                                                         monkeypatch):
        u = haar_random_unitary(modes, 44)
        patterns = enumerate_patterns(modes, n)
        inputs = np.array([patterns[k] for k in np.linspace(0, len(patterns) - 1, 11).astype(int)])
        _, whole = permanent._probabilities(u, inputs, True, interfering)
        # blocks of 8 sign vectors, 2 at n=5 and 4 at n=6, and chunks of
        # 1, 5 complex (10 real) and all inputs
        monkeypatch.setattr(permanent, "_SIGN_BYTES", 1)
        per_input = math.comb(modes + n - 2, n - 1) * (8 + modes) * 16
        builds = []
        for chunk_bytes in (1, 5 * per_input, 1 << 40):
            monkeypatch.setattr(permanent, "_CHUNK_BYTES", chunk_bytes)
            builds.append(permanent._probabilities(u, inputs, True, interfering)[1])
        builds += [np.concatenate([permanent._probabilities(u, inputs[k:k + 1], True, interfering)[1]
                                   for k in range(len(inputs))])]
        for split in builds[1:]:
            assert np.array_equal(split, builds[0])
        assert np.abs(builds[0] - whole).max() <= 1e-15
        assert not np.array_equal(builds[0], whole)  # the blocks round differently

    def test_builds_stay_small(self):
        # the engine's working set is chunked; a later chunk-size change
        # must not quietly grow the peak
        u = haar_random_unitary(12, 43)
        inputs = np.array(enumerate_patterns(12, 4, False))
        five = np.array(enumerate_patterns(12, 5, False))
        exact_distribution(u, (1,) * 6 + (0,) * 6)  # pattern tables cached first
        permanent._probabilities(u, inputs[:1], True, True)
        permanent._probabilities(u, five[:1], False, True)
        for build in (lambda: permanent._probabilities(u, inputs, True, True),
                      lambda: permanent._probabilities(u, five, False, True),
                      lambda: exact_distribution(u, (1,) * 6 + (0,) * 6)):
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestPairProbabilities:
    """Validation's pair kernel against the permutation sum and the engine's rows."""

    @staticmethod
    def pairs(modes, n):
        """A spread and a bunched input of n photons, an unused input of n + 1
        photons, 12 outputs (bunched ones among them) and every (input, output)
        pair of the n-photon rows, shuffled."""
        inputs = np.array(_spread_and_bunched(modes, n)
                          + [_spread_and_bunched(modes, n + 1)[-1]])
        outcomes = enumerate_patterns(modes, n)
        outputs = np.array(outcomes)[np.unique(np.linspace(0, len(outcomes) - 1, 12).astype(int))]
        assert n == 1 or outputs.max() > 1 and inputs[-2].max() > 1
        pair_input, pair_output = np.divmod(np.arange((len(inputs) - 1) * len(outputs)),
                                            len(outputs))
        order = np.random.default_rng(n).permutation(len(pair_input))
        return inputs, outputs, pair_input[order], pair_output[order]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_naive_permanents_and_engine_rows(self, n):
        modes = 6
        u = haar_random_unitary(modes, 600 + n)
        inputs, outputs, pair_input, pair_output = self.pairs(modes, n)
        q, p = permanent._pair_probabilities(u, inputs, outputs, pair_input, pair_output)
        for k, (i, o) in enumerate(zip(pair_input.tolist(), pair_output.tolist())):
            occ, out = tuple(inputs[i].tolist()), tuple(outputs[o].tolist())
            amp = permanent_naive(transition_submatrix(u, occ, out))
            weight = permanent_naive(transition_submatrix(np.abs(u) ** 2, occ, out)).real
            t_factor = math.prod(map(math.factorial, out))
            assert q[k] == pytest.approx(
                abs(amp) ** 2 / (math.prod(map(math.factorial, occ)) * t_factor), abs=1e-15)
            assert p[k] == pytest.approx(weight / t_factor, abs=1e-15)
            assert q[k] == pytest.approx(exact_distribution(u, occ).prob(out), abs=1e-15)
            assert p[k] == pytest.approx(distinguishable_distribution(u, occ).prob(out),
                                         abs=1e-15)

    def test_each_pair_independent_of_the_others(self, monkeypatch):
        u = haar_random_unitary(6, 605)
        inputs, outputs, pair_input, pair_output = self.pairs(6, 5)
        together = permanent._pair_probabilities(u, inputs, outputs, pair_input, pair_output)
        monkeypatch.setattr(permanent, "_CHUNK_BYTES", 1)  # one pair per chunk
        for k in (0, 7, len(pair_input) - 1):
            alone = permanent._pair_probabilities(u, inputs, outputs, pair_input[k:k + 1],
                                                 pair_output[k:k + 1])
            assert (alone[0][0], alone[1][0]) == (together[0][k], together[1][k])

    @pytest.mark.parametrize("chunk_bytes", [1, 3000])
    def test_chunks_of_inputs_do_not_change_a_pair(self, chunk_bytes, monkeypatch):
        # 35 inputs at m=5, n=3: 3000 bytes hold the complex sign sums of 9
        # of them and 46 pairs' terms, so chunks of inputs split into several
        # chunks of pairs, while 1 byte takes one input and one pair at a time.
        u = haar_random_unitary(5, 606)
        inputs = np.array(enumerate_patterns(5, 3))
        outputs = inputs[::3]
        pair_input, pair_output = np.divmod(np.arange(len(inputs) * len(outputs)), len(outputs))
        order = np.random.default_rng(3).permutation(len(pair_input))
        pairs = (u, inputs, outputs, pair_input[order], pair_output[order])
        whole = permanent._pair_probabilities(*pairs)
        monkeypatch.setattr(permanent, "_CHUNK_BYTES", chunk_bytes)
        chunked = permanent._pair_probabilities(*pairs)
        assert np.array_equal(whole[0], chunked[0]) and np.array_equal(whole[1], chunked[1])


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

    @pytest.mark.parametrize("shots", [2.5, 2.0, True])
    def test_shots_must_be_an_integer(self, shots):
        dist = OutcomeDistribution(((1,),), np.array([1.0]))
        with pytest.raises(ContractError, match="must be an integer"):
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

    @staticmethod
    def exact_log_rate_reference(k, n, eps, eta, rep_rate=80e6):
        """The rate by the exact integer C(k, n): the float product while it
        is finite, else the sum of logarithms."""
        p = eps * eta
        try:
            rate = rep_rate * math.comb(k, n) * p**n * (1.0 - p) ** (k - n)
        except OverflowError:
            rate = math.inf
        if math.isfinite(rate):
            return rate
        if p in (0.0, 1.0):
            return 0.0
        return math.exp(math.log(rep_rate) + math.log(math.comb(k, n)) + n * math.log(p)
                        + (k - n) * math.log1p(-p))

    def test_log_binomial_estimate(self):
        rng = np.random.default_rng(4)
        pairs = [(2**63 - 1, n) for n in (0, 1, 2, 3, 230, 2**63 - 2)] + [(1, 0), (1, 1), (2, 1)]
        pairs += [(int(k), int(rng.integers(0, k + 1))) for k in rng.integers(1, 20_000, 150)]
        for k, n in pairs:
            exact = math.log(math.comb(k, n))
            assert abs(linalg._log_comb(k, n) - exact) <= 0.006
            if min(n, k - n) > 200:
                assert linalg._log_comb(k, n) == pytest.approx(exact, rel=1e-9, abs=0)

    def test_exact_binomial_up_to_the_digits_str_converts(self):
        # Bit-identical to the exact integer wherever C(k, n) could be printed,
        # and within 1e-9 of it beyond, where only logarithms are summed.
        rng = np.random.default_rng(5)
        for _ in range(300):
            k = int(rng.choice([rng.integers(1, 40_000), rng.integers(1, 2**63)]))
            n = int(rng.choice([rng.integers(0, k + 1), rng.integers(0, min(k, 400) + 1)]))
            eps, eta = map(float, rng.random(2))
            if linalg._log_comb(k, n) > 2e4:
                continue  # beyond about 8700 digits: too slow for the exact oracle
            digits = math.log10(math.comb(k, n))
            got = expected_rate(k, n, eps, eta)
            want = self.exact_log_rate_reference(k, n, eps, eta)
            if digits <= sys.get_int_max_str_digits():
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=0)

    def test_product_overflowing_the_float_range_is_summed_in_logs(self):
        # rep_rate * C(k, n) overflows to inf although C(k, n) fits a float:
        # the direct product read inf * 0 = nan here, and inf in the second case
        assert math.isfinite(expected_rate(29898, 29792, 0.1, 0.1))
        exact = 80_000_000 * math.comb(1024, 512) * Fraction(1, 2) ** 1024
        assert float(exact) == pytest.approx(1994224.47, abs=0.005)
        assert expected_rate(1024, 512, 1.0, 0.5) == pytest.approx(float(exact), rel=1e-9, abs=0)

    def test_binomial_of_ten_billion_takes_no_big_integer(self):
        start = time.perf_counter()
        rate = expected_rate(10**10, 5 * 10**9, 0.5, 1.0)
        assert time.perf_counter() - start < 0.1
        # rep_rate * C(k, k/2) / 2**k, about rep_rate / sqrt(pi k / 2)
        assert rate == pytest.approx(80e6 / math.sqrt(math.pi * 10**10 / 2), rel=1e-6)

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
    """The run's candidates with a per-event output loop.

    Each batch's candidate pulses and heralding sets come from the run's own
    firing, ``_CandidateDraw.fire`` (tested against the pair-by-pair draw in
    ``TestCandidateDraw``); each candidate then draws its output (and its
    detector thinning) on its own, in pulse order, from ``build(u, input)``
    built once per input.
    """
    draw = sampling._candidate_draw(params, n_select)
    patterns = enumerate_patterns(len(params), n_select)
    detect_prob = np.array([p.eta_detect for p in params])
    lossy = bool(np.any(detect_prob < 1.0))
    dists = {}
    records = []
    batch_size = sampling._BATCH
    for batch, start in enumerate(range(0, pulses, batch_size)):
        size = min(batch_size, pulses - start)
        rng = derive_rng(seed, "scattershot", batch)
        candidates, subsets = draw.fire(rng, size)
        if candidates.size == 0:
            continue
        draws = rng.random(candidates.size)
        for u_draw, offset, row in zip(draws, candidates.tolist(), draw.rows[subsets].tolist()):
            key = patterns[row]  # every heralded signal survived: the input is the trigger
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
                trigger=key,
                input=key,
                output=tuple(int(x) for x in output),
                pulse_index=start + offset,
            ))
    return records


def per_event_scattershot_reference(u, params, pulses, n_select, seed):
    """The run's candidates with Clifford & Clifford's algorithm B, one
    candidate at a time.

    Candidates come from the run's own firing, as in
    ``dense_scattershot_reference``, and each draws 2n uniforms: the stable
    order of the first n is the order of its photons, and number n + k
    draws photon k's output mode.  Mode i has weight
    |sum_(l<=k) u[s_l, i] perm(M_l)|^2, M_l holding the modes drawn so far
    against photons 0..k without photon l, each minor's permanent by
    ``permanent_naive``; the mode drawn is the first whose cumulative
    weight reaches (1 - number) times the total.  Detector thinning follows,
    in pulse order.
    """
    draw = sampling._candidate_draw(params, n_select)
    patterns = enumerate_patterns(len(params), n_select)
    detect_prob = np.array([p.eta_detect for p in params])
    lossy = bool(np.any(detect_prob < 1.0))
    records = []
    batch_size = sampling._BATCH
    for batch, start in enumerate(range(0, pulses, batch_size)):
        size = min(batch_size, pulses - start)
        rng = derive_rng(seed, "scattershot", batch)
        candidates, subsets = draw.fire(rng, size)
        if candidates.size == 0:
            continue
        uniforms = rng.random((candidates.size, 2 * n_select))
        for numbers, offset, row in zip(uniforms.tolist(), candidates.tolist(),
                                        draw.rows[subsets].tolist()):
            key = patterns[row]
            modes = [mode for mode, count in enumerate(key) for _ in range(count)]
            photons = [modes[l] for l in sorted(range(n_select), key=numbers.__getitem__)]
            drawn = []
            for k in range(n_select):
                minors = []
                for l in range(k + 1):
                    cols = [photons[b] for b in range(k + 1) if b != l]
                    minor = np.array([[u[c, r] for c in cols] for r in drawn], dtype=complex)
                    minors.append(permanent_naive(minor.reshape(k, k)))
                weights = [abs(sum(u[photons[l], i] * minors[l] for l in range(k + 1))) ** 2
                           for i in range(len(key))]
                threshold = (1.0 - numbers[n_select + k]) * sum(weights)
                total = 0.0
                for i, weight in enumerate(weights):
                    total += weight
                    if total >= threshold:
                        break
                drawn.append(i)
            output = np.bincount(drawn, minlength=len(key))
            if lossy:
                output = rng.binomial(output, detect_prob)
                if output.sum() != n_select:
                    continue
            records.append(SampleRecord(trigger=key, input=key,
                                        output=tuple(int(x) for x in output),
                                        pulse_index=start + offset))
    return records


_BRIGHT = SourceParams.from_lumped_efficiency(0.3, 0.81)
_FAINT_LOSSY = [SourceParams(0.03, eta_herald=0.9, eta_detect=d)
                for d in (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)]
_FOUR_LOSSY = [SourceParams(0.1, eta_herald=0.9, eta_detect=d)
               for d in (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)]
# Seven bright sources and a faint one: inputs without the faint source
# repeat often enough for runs at three and four photons to build tables,
# yet later batches bring inputs with it that earlier ones lacked.
_SKEWED_LOSSY = [SourceParams(0.4 if d < 1.0 else 0.004, eta_herald=0.9, eta_detect=d)
                 for d in (0.6, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)]
# The batch size the boundary tests patch in (see ``small_batch``): runs of a
# few times this many pulses cross internal batch boundaries.
_TEST_BATCH = 1 << 16
_FAINT_PULSES = 3 * _TEST_BATCH + 100


@pytest.fixture
def small_batch(monkeypatch):
    """Runs fire in batches of ``_TEST_BATCH`` pulses."""
    monkeypatch.setattr(sampling, "_BATCH", _TEST_BATCH)


def _per_event_rule(params, n, pulses):
    """Whether a run of these sources draws its outputs per event."""
    draw = sampling._candidate_draw(params, n)
    return sampling._per_event_path(draw, len(params), n, pulses)


def _batch_inputs(params, n, seed, pulses):
    """The set of input rows each batch of a run draws."""
    draw = sampling._candidate_draw(params, n)
    return [set(draw.rows[draw.fire(derive_rng(seed, "scattershot", batch),
                                    min(sampling._BATCH, pulses - start))[1]].tolist())
            for batch, start in enumerate(range(0, pulses, sampling._BATCH))]


def _good_and_silent(params):
    heralded = np.array([p.herald_probability for p in params])
    return heralded * np.array([p.eta_herald for p in params]), 1.0 - heralded


def _subset_weights(params, n):
    """Each collision-free n-subset of the sources and its normalised
    candidate weight, prod of good over the subset and silent elsewhere,
    multiplied out term by term."""
    good, silent = _good_and_silent(params)
    subsets = list(itertools.combinations(range(len(params)), n))
    weights = np.array([math.prod(good[i] if i in subset else silent[i]
                                  for i in range(len(params))) for subset in subsets])
    return subsets, weights / weights.sum()


def _pair_draw_candidates(params, n, seed, batches, size):
    """Per-batch candidate counts and each candidate's heralding set, from
    the pair-by-pair draw of ``fire_sources``: n heralds, every heralded
    signal surviving."""
    fire = fire_sources(params, seed, batches * size)
    candidate = ((fire.heralded.sum(axis=1) == n)
                 & ((fire.heralded & fire.signal_present).sum(axis=1) == n))
    counts = candidate.reshape(batches, size).sum(axis=1)
    return counts, [tuple(np.flatnonzero(row).tolist()) for row in fire.heralded[candidate]]


def _candidate_draw_candidates(params, n, seed, batches, size):
    """The same from the run's candidate draw, one generator per batch."""
    draw = sampling._candidate_draw(params, n)
    patterns = enumerate_patterns(len(params), n)
    counts, subsets = [], []
    for batch in range(batches):
        offsets, picked = draw.fire(derive_rng(seed, "scattershot", batch), size)
        assert np.all(np.diff(offsets) > 0) and np.all((0 <= offsets) & (offsets < size))
        counts.append(offsets.size)
        subsets += [tuple(np.flatnonzero(patterns[row]).tolist())
                    for row in draw.rows[picked].tolist()]
    return np.array(counts), subsets


def padded_candidate_draw_reference(params, n):
    """The candidate draw's probability, cumulative weights and rows, with
    the segment table built one row at a time and the gap bounds padded."""
    heralded = np.array([p.herald_probability for p in params])
    good, silent = heralded * np.array([p.eta_herald for p in params]), 1.0 - heralded
    modes = len(params)
    subsets = linalg._pattern_table(modes, n, False).cols
    segment = np.ones((modes + 1, modes + 1))
    for a in range(modes):
        segment[a, a + 1:] = np.cumprod(silent[a:])
    gaps = segment[np.pad(subsets + 1, ((0, 0), (1, 0))),
                   np.pad(subsets, ((0, 0), (0, 1)), constant_values=modes)]
    weights = gaps.prod(axis=1) * good[subsets].prod(axis=1)
    cumulative = np.cumsum(weights)
    if cumulative[-1] > 0.0:
        cumulative /= cumulative[-1]
    return (min(float(weights.sum()), 1.0), cumulative,
            linalg._pattern_table(modes, n, True).rows(subsets))


def array_exactly_n_reference(selected, idle, n):
    """The exactly-n convolution on a numpy coefficient array."""
    coeff = np.zeros(n + 1)
    coeff[0] = 1.0
    for a, b in zip(selected, idle):
        upper = coeff[1:] * b + coeff[:-1] * a
        coeff[0] *= b
        coeff[1:] = upper
    return float(coeff[n])


_FIRING_CASES = {
    "equal": ([SourceParams(0.2, eta_herald=0.9)] * 6, 2),
    "unequal": ([SourceParams(e) for e in (0.05, 0.1, 0.2, 0.3, 0.15)], 3),
    "lossy": ([SourceParams(0.25, eta_herald=0.85, eta_detect=d)
               for d in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)], 2),
}


class TestCandidateDraw:
    """The candidate draw against the pair-by-pair draw it replaces."""

    @pytest.mark.parametrize("drawer", [_pair_draw_candidates, _candidate_draw_candidates],
                             ids=["pairs", "candidates"])
    @pytest.mark.parametrize("case", _FIRING_CASES)
    def test_counts_and_heralding_sets_follow_the_candidate_weights(self, case, drawer):
        from scipy import stats
        params, n = _FIRING_CASES[case]
        batches, size = 200, 1_000
        probability = sampling._candidate_draw(params, n).probability
        counts, drawn = drawer(params, n, 17, batches, size)
        # per-batch counts: Binomial(size, P_cand) in mean and in spread
        mean, var = size * probability, size * probability * (1.0 - probability)
        assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / batches)
        dispersion = ((counts - mean) ** 2 / var).sum()
        assert 1e-3 < stats.chi2.cdf(dispersion, batches) < 1 - 1e-3
        # heralding sets: the normalised subset weights, by chi-square
        subsets, weights = _subset_weights(params, n)
        tally = Counter(drawn)
        assert set(tally) <= set(subsets)
        observed = np.array([tally[subset] for subset in subsets])
        assert stats.chisquare(observed, weights * len(drawn)).pvalue > 1e-3

    def test_probability_is_the_exactly_n_convolution(self):
        rng = np.random.default_rng(23)
        random_cases = []
        for _ in range(100):
            modes = int(rng.integers(1, 11))
            random_cases.append(([SourceParams(*rng.random(3).tolist()) for _ in range(modes)],
                                 int(rng.integers(1, modes + 1))))
        for params, n in [*_FIRING_CASES.values(), *random_cases]:
            good, silent = _good_and_silent(params)
            want = sampling._exactly_n_probability(good, silent, n)
            got = sampling._candidate_draw(params, n).probability
            assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_segment_table_matches_the_padded_reference(self, n):
        # heterogeneous sources with a silent factor of exactly 1 (epsilon = 0)
        # and exactly 0 (epsilon * eta_herald * eta_detect = 1)
        rng = np.random.default_rng(41)
        params = [SourceParams(*rng.uniform(0.05, 1.0, 3).tolist()) for _ in range(7)]
        params[2], params[5] = SourceParams(0.0, 0.8, 0.9), SourceParams(1.0)
        for case in (params, params[:2] + params[3:5], params[::-1]):
            draw = sampling._candidate_draw(case, min(n, len(case)))
            probability, cumulative, rows = padded_candidate_draw_reference(
                case, min(n, len(case)))
            assert draw.probability == probability
            assert np.array_equal(draw.cumulative, cumulative)
            assert np.array_equal(draw.rows, rows)

    def test_exactly_n_convolution_matches_the_array_reference(self):
        rng = np.random.default_rng(43)
        for modes in (1, 4, 12):
            selected, idle = rng.random(modes).tolist(), rng.random(modes).tolist()
            for n in range(modes + 1):
                assert (sampling._exactly_n_probability(selected, idle, n)
                        == array_exactly_n_reference(selected, idle, n))

    def test_a_certain_source_heralds_every_candidate(self):
        # epsilon = eta = 1 makes source 0 never silent: a candidate without
        # it has weight exactly 0
        params = [SourceParams(1.0)] + [SourceParams(0.05, eta_herald=0.9)] * 5
        draw = sampling._candidate_draw(params, 2)
        offsets, subsets = draw.fire(derive_rng(0, "scattershot", 0), _TEST_BATCH)
        assert offsets.size > 1000
        assert all(enumerate_patterns(6, 2)[row][0] == 1 for row in draw.rows[subsets].tolist())
        result = scattershot_run(haar_random_unitary(6, 36), params, 20_000, 2, seed=2)
        assert result.report.retained_events > 0
        assert all(r.trigger[0] == 1 for r in result.records)

    def test_idle_sources_draw_nothing_and_divide_by_nothing(self):
        with np.errstate(all="raise"):
            draw = sampling._candidate_draw([SourceParams(0.0)] * 4, 2)
            offsets, subsets = draw.fire(derive_rng(0, "scattershot", 0), _TEST_BATCH)
        assert draw.probability == 0.0
        assert offsets.size == subsets.size == 0
        assert np.all(draw.cumulative == 0.0)

    def test_run_never_draws_pairs(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run drew pairs")

        monkeypatch.setattr(sources, "_draw_pairs", refuse)
        params = [SourceParams(0.4, eta_herald=0.9, eta_detect=0.7)] * 6
        result = scattershot_run(haar_random_unitary(6, 31), params, 70_000, 2, seed=3)
        assert result.report.retained_events > 0


def _adversarial_rows(k):
    """Cumulative rows of k outcomes, each ending in 1.0: ties and runs of
    zero-probability outcomes, entries on the guide's grid b / B, trailing
    1.0s, all mass on the first or last outcome, a denormal step, and a row
    that passes 1.0 by 5e-10 before its last entry, as the probability check
    allows."""
    scale = 1 << (k.bit_length() - 1)
    rng = np.random.default_rng(k)
    masses = rng.random((3, k)) * (rng.random((3, k)) < 0.4)  # runs of zeros
    masses[:, -1] += 1e-3
    rows = [np.r_[np.linspace(0.5, 1.0 + 5e-10, k - 1), 1.0]]
    rows += list(np.cumsum(masses, axis=1) / masses.sum(axis=1, keepdims=True))
    rows += [np.floor(np.linspace(0, scale, k + 1)[1:]) / scale,  # on the grid, with ties
             np.minimum(np.arange(1, k + 1) / (k // 2 + 1), 1.0),  # trailing 1.0s
             np.ones(k), np.r_[np.zeros(k - 1), 1.0],
             np.r_[np.full(k - 1, 5e-324), 1.0]]
    cum = np.array(rows)
    cum[:, -1] = 1.0
    return cum


class TestGuideTable:
    """The table path's guided search against ``np.searchsorted``."""

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 33, 120])
    def test_matches_searchsorted_on_adversarial_rows(self, k):
        cum = _adversarial_rows(k)
        scale = 1 << (k.bit_length() - 1)
        grid = np.arange(scale) / scale
        entries = cum[cum < 1.0]
        keys = np.unique(np.concatenate([
            [0.0, 5e-324, np.nextafter(1.0, 0.0)], grid, entries,
            np.nextafter(entries, 0.0), np.nextafter(entries, 1.0),
            np.nextafter(grid[1:], 0.0), np.random.default_rng(0).random(200)]))
        assert keys.min() == 0.0 and keys.max() < 1.0
        rows, draws = np.divmod(np.arange(len(cum) * len(keys)), len(keys))
        draws = keys[draws]
        guide, steps = sampling._guide_table(cum)
        got = sampling._guided_search(cum, guide, steps, rows, draws)
        want = np.array([np.searchsorted(cum[r], u, side="right")
                         for r, u in zip(rows.tolist(), draws.tolist())])
        assert np.array_equal(got, want)
        assert got.max() <= k - 1

    @pytest.mark.parametrize("k", [1, 5, 12, 33])
    def test_guide_counts_entries_at_most_each_grid_point(self, k):
        cum = _adversarial_rows(k)
        scale = 1 << (k.bit_length() - 1)
        guide, steps = sampling._guide_table(cum)
        counts = (cum[:, None, :] <= (np.arange(scale + 1) / scale)[:, None]).sum(axis=2)
        assert guide.dtype == np.int32
        assert np.array_equal(guide, np.minimum(counts, k - 1))
        assert steps == int(np.diff(guide, axis=1).max()).bit_length()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.0, 1e-17, 0.125, 0.25, 1.0, 3.0]),
                             min_size=1, max_size=20).filter(any),
                    min_size=1, max_size=4),
           st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30))
    def test_matches_searchsorted_on_random_rows(self, weights, keys):
        k = max(map(len, weights))
        masses = np.array([w + [0.0] * (k - len(w)) for w in weights])
        cum = np.cumsum(masses, axis=1) / masses.sum(axis=1, keepdims=True)
        cum[:, -1] = 1.0
        rows, draws = np.divmod(np.arange(len(cum) * len(keys)), len(keys))
        draws = np.array(keys)[draws]
        guide, steps = sampling._guide_table(cum)
        got = sampling._guided_search(cum, guide, steps, rows, draws)
        want = [np.searchsorted(cum[r], u, side="right") for r, u in zip(rows, draws)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("params, n, per_event", [
        ([SourceParams(epsilon=0.25)] * 8, 3, False), (_SKEWED_LOSSY, 3, False),
        (_FAINT_LOSSY, 3, True)], ids=["dense", "lossy", "per-event"])
    def test_run_numbers_its_patterns_like_np_unique(self, params, n, per_event):
        # The run keeps the table rows its events use, each renumbered by its
        # rank among them: np.unique's values and inverse.
        assert _per_event_rule(params, n, 60_000) == per_event
        run = scattershot_run(haar_random_unitary(8, 3), params, 60_000, n, 5)
        events = run.records._events
        table = linalg._pattern_table(8, n, True)
        rows = np.array([table.index[pattern] for pattern in events.patterns])
        used, inverse = np.unique(np.concatenate([rows[events.trigger], rows[events.output]]),
                                  return_inverse=True)
        assert len(events.pulse) > 5
        assert np.array_equal(used, rows)
        assert np.array_equal(inverse, np.concatenate([events.trigger, events.output]))


class TestScattershotRun:
    @pytest.mark.parametrize("modes, params, pulses, n, seed", [
        # ideal, unequal sources
        (5, [SourceParams(e) for e in (0.05, 0.1, 0.2, 0.3, 0.1)], 20_000, 3, 1),
        # lossy detectors and heralds, crossing a batch boundary
        (6, [SourceParams(0.4, eta_herald=0.9, eta_detect=0.7)] * 6, 70_000, 2, 2),
        # skewed sources, unequal detectors: four batches, later ones bringing
        # inputs earlier ones lacked, from tables built before the first (see
        # test_one_engine_call_builds_every_input), at three and four photons
        (8, _SKEWED_LOSSY, _FAINT_PULSES, 3, 5),
        (8, _SKEWED_LOSSY, _FAINT_PULSES, 4, 5),
        # one photon per event
        (5, [SourceParams(0.2, eta_herald=0.8, eta_detect=d) for d in (0.5, 0.7, 0.8, 0.9, 1.0)],
         5_000, 1, 4),
    ])
    def test_matches_dense_per_event_reference(self, modes, params, pulses, n, seed,
                                               small_batch):
        # inputs repeat often enough that the run builds output tables
        assert not _per_event_rule(params, n, pulses)
        u = haar_random_unitary(modes, 40 + modes)
        result = scattershot_run(u, params, pulses, n, seed)
        reference = dense_scattershot_reference(u, params, pulses, n, seed)
        assert len(reference) > 0
        assert result.records == reference

    @pytest.mark.parametrize("modes, params, pulses, n, seed", [
        # faint sources, unequal detectors, three photons: four batches, the
        # last partial and without a candidate
        (8, _FAINT_LOSSY, _FAINT_PULSES, 3, 5),
        # bright sources, four photons
        (8, [_BRIGHT] * 8, 5_000, 4, 3),
        # bright criterion-3 sources at four and five photons
        (12, [_BRIGHT] * 12, 4_000, 4, 4),
        (12, [_BRIGHT] * 12, 2_500, 5, 5),
        # lossy detectors and heralds, crossing a batch boundary
        (8, _FOUR_LOSSY, 70_000, 4, 6),
        # six photons
        (8, [_BRIGHT] * 8, 8_000, 6, 7),
    ])
    def test_matches_per_event_reference(self, modes, params, pulses, n, seed, small_batch):
        # inputs repeat too rarely for tables: the run draws each output on its own
        assert _per_event_rule(params, n, pulses)
        u = haar_random_unitary(modes, 40 + modes)
        result = scattershot_run(u, params, pulses, n, seed)
        reference = per_event_scattershot_reference(u, params, pulses, n, seed)
        assert len(reference) > 20
        assert result.records == reference

    @pytest.mark.parametrize("chunk", [1, 7, permanent._CUMSUM_EVENTS])
    def test_event_chunk_does_not_change_the_run(self, chunk, small_batch, monkeypatch):
        # Both paths at three and four photons.  On the table path a later
        # batch brings an input no earlier batch drew, yet draws from the
        # tables built before the first; the per-event path draws in chunks
        # of ``chunk``, and the faint run's last, partial batch has no
        # candidate.
        cases = [(_SKEWED_LOSSY, 3, False), (_SKEWED_LOSSY, 4, False),
                 (_FAINT_LOSSY, 3, True), (_FOUR_LOSSY, 4, True)]
        for params, n, per_event in cases:
            assert _per_event_rule(params, n, _FAINT_PULSES) == per_event
            rows = _batch_inputs(params, n, 5, _FAINT_PULSES)
            assert len(rows) == 4
            assert any(later - set().union(*rows[:b]) for b, later in enumerate(rows) if b)
        assert not _batch_inputs(_FAINT_LOSSY, 3, 5, _FAINT_PULSES)[-1]
        u = haar_random_unitary(8, 48)
        default = [scattershot_run(u, params, _FAINT_PULSES, n, 5) for params, n, _ in cases]
        monkeypatch.setattr(permanent, "_EVENT_CHUNK", chunk)
        for (params, n, _), want in zip(cases, default):
            run = scattershot_run(u, params, _FAINT_PULSES, n, 5)
            assert run.report == want.report
            assert run.records == want.records
            assert len({r.pulse_index // _TEST_BATCH for r in run.records}) > 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_engine_call_builds_every_input(self, n, small_batch, monkeypatch):
        # Later batches bring inputs earlier ones lacked, yet one call
        # before the first batch builds every input, one per heralding set.
        rows = _batch_inputs(_SKEWED_LOSSY, n, 5, _FAINT_PULSES)
        assert any(later - set().union(*rows[:b]) for b, later in enumerate(rows) if b)
        engine, calls = sampling._probabilities, []

        def counted(u, inputs, *args):
            calls.append(len(inputs))
            return engine(u, inputs, *args)

        monkeypatch.setattr(sampling, "_probabilities", counted)
        run = scattershot_run(haar_random_unitary(8, 48), _SKEWED_LOSSY, _FAINT_PULSES, n, 5)
        assert run.report.retained_events > 0
        assert calls == [math.comb(8, n)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_hold_inputs_the_draw_never_picks(self, n, small_batch):
        # An idle source's heralding sets have weight 0: the run builds
        # their rows, and draws every event from the others.
        params = [SourceParams(0.4, eta_herald=0.9, eta_detect=d)
                  for d in (0.7, 0.8, 0.9, 1.0, 0.75)] + [SourceParams(0.0)]
        assert not _per_event_rule(params, n, 70_000)
        assert (np.diff(sampling._candidate_draw(params, n).cumulative, prepend=0.0) == 0).any()
        u = haar_random_unitary(6, 46)
        result = scattershot_run(u, params, 70_000, n, 8)
        reference = dense_scattershot_reference(u, params, 70_000, n, 8)
        assert len(reference) > 1000
        assert all(r.trigger[5] == 0 for r in reference)
        assert result.records == reference

    @pytest.mark.parametrize("params, n, per_event", [
        (_SKEWED_LOSSY, 3, False), (_SKEWED_LOSSY, 4, False),
        (_FAINT_LOSSY, 3, True), (_FOUR_LOSSY, 4, True),
    ], ids=["tables-3", "tables-4", "per-event-3", "per-event-4"])
    def test_a_shorter_run_is_a_prefix_of_a_longer_one(self, params, n, per_event, small_batch):
        # Whole batches draw the same events whatever follows them, on both
        # output paths and with lossy detectors.
        assert _per_event_rule(params, n, 2 * _TEST_BATCH) == per_event
        assert _per_event_rule(params, n, 3 * _TEST_BATCH) == per_event
        u = haar_random_unitary(8, 48)
        short = scattershot_run(u, params, 2 * _TEST_BATCH, n, 9)
        long = scattershot_run(u, params, 3 * _TEST_BATCH, n, 9)
        prefix = [r for r in long.records if r.pulse_index < 2 * _TEST_BATCH]
        assert len(prefix) < len(long.records)
        assert len({r.pulse_index // _TEST_BATCH for r in prefix}) == 2
        assert short.records == prefix

    def test_sparse_bright_run_stays_small(self):
        # The run meets 4,093 of the 4,368 inputs, about 3 events each: a
        # table of cumulative sums per input met would alone take 508 MB.
        u = haar_random_unitary(16, 12)
        tracemalloc.start()
        try:
            run = scattershot_run(u, [_BRIGHT] * 16, 100_000, 5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({r.trigger for r in run.records}) > 4_000
        assert peak < 100 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_tables_only_where_the_run_matrix_is_bounded(self):
        # The table path's cumulative matrix holds a row of K outcomes per
        # input met, C(m, n) at most; the rule takes tables only where that
        # fits _OUTCOMES_PER_EVENT * _BATCH float64 entries (128 MiB).
        budget = sampling._OUTCOMES_PER_EVENT * sampling._BATCH * 8
        paths = set()
        for modes, n in [(8, 3), (60, 3), (30, 4), (16, 5)]:
            matrix = math.comb(modes, n) * math.comb(modes + n - 1, n) * 8
            for source in (_BRIGHT, SourceParams.from_lumped_efficiency(0.01, 0.5)):
                for pulses in (1, 1_000, 100_000, sampling._BATCH, 10 * sampling._BATCH):
                    per_event = _per_event_rule([source] * modes, n, pulses)
                    assert per_event or matrix <= budget, (modes, n, pulses)
                    paths.add(per_event)
        assert paths == {False, True}

    def test_sparse_faint_run_at_sixty_modes_stays_small(self):
        # The run meets 868 of the 34,220 inputs, about one event each: a
        # table of their 37,820 outcomes per input met would take 260 MB.
        params = [SourceParams.from_lumped_efficiency(0.01, 0.5)] * 60
        u = haar_random_unitary(60, 13)
        assert _per_event_rule(params, 3, 300_000)
        tracemalloc.start()
        try:
            run = scattershot_run(u, params, 300_000, 3, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len({r.trigger for r in run.records}) > 800
        assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_dense_table_run_stays_small(self):
        # 54,858 events at m=8, n=4, drawn from the 70 inputs' cumulative
        # matrix of 330 outcomes and its guide table: 4.7 MiB traced.
        params = [SourceParams(epsilon=0.5)] * 8
        u = haar_random_unitary(8, 7)
        assert not _per_event_rule(params, 4, 200_000)
        tracemalloc.start()
        try:
            run = scattershot_run(u, params, 200_000, 4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(run.records) > 50_000
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

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

    @pytest.mark.parametrize("pulses, n_select", [(1e4, 2), (True, 2), (10, 2.0), (10, True)])
    def test_pulses_and_n_select_must_be_integers(self, pulses, n_select, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run checked its unitary first")

        monkeypatch.setattr(sampling, "_require_unitary", refuse)
        with pytest.raises(ContractError, match="must be an integer"):
            scattershot_run(np.eye(4), [SourceParams(0.5)] * 4, pulses, n_select, seed=0)

    @pytest.mark.parametrize("bad, index", [([0.1] * 6, 0), ([None] * 6, 0),
                                            ([SourceParams(0.1)] * 4 + [(0.1,)] * 2, 4)])
    def test_sources_must_be_source_params(self, bad, index, monkeypatch):
        def refuse(*args):
            raise AssertionError("the run checked its unitary first")

        monkeypatch.setattr(sampling, "_require_unitary", refuse)
        with pytest.raises(ContractError, match=f"^source {index} must be a SourceParams"):
            scattershot_run(np.eye(6), bad, 1000, 2, seed=1)

    def test_seed_must_be_an_integer(self):
        u = haar_random_unitary(4, 29)
        with pytest.raises(ContractError, match="seed must be an integer"):
            scattershot_run(u, [SourceParams(0.5)] * 4, 10, 2, seed=1.5)

    def test_numpy_integer_counts_and_seed(self):
        u = haar_random_unitary(4, 29)
        params = [SourceParams(0.5)] * 4
        want = scattershot_run(u, params, 2_000, 2, seed=1)
        got = scattershot_run(u, params, np.int64(2_000), np.int32(2), seed=np.uint8(1))
        assert got.records == want.records and len(want.records) > 0

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

    def test_batched_runs_are_reproducible(self, small_batch):
        u = haar_random_unitary(3, 33)
        params = [SourceParams(epsilon=0.5)] * 3
        a = scattershot_run(u, params, 70_000, 2, seed=11)
        b = scattershot_run(u, params, 70_000, 2, seed=11)
        assert a.records == b.records
        idx = [r.pulse_index for r in a.records]
        assert idx == sorted(idx)
        # events land on both sides of an internal batch boundary
        assert idx[0] < _TEST_BATCH <= idx[-1]

    def test_records_share_equal_patterns(self):
        u = haar_random_unitary(4, 35)
        result = scattershot_run(u, [SourceParams(epsilon=0.5)] * 4, 2_000, 2, seed=1)
        records = result.records
        assert result.records is records
        assert len(records) == result.report.retained_events > 0
        # a trigger is its input, and equal patterns share one tuple
        assert all(r.trigger is r.input for r in records)
        patterns = [p for r in records for p in (r.trigger, r.output)]
        assert len({id(p) for p in patterns}) == len(set(patterns))


def goodness_of_fit(counts, probs):
    """The chi-square p-value of ``counts`` against ``probs``, over the bins
    expecting at least 5 draws and, if some expect fewer, one bin pooling
    them; their total variation distance; and an ideal sampler's, the mean
    over 5 seeded multinomial draws of the same size."""
    from scipy import stats
    draws = counts.sum()
    expected = probs * draws
    small = expected < 5
    observed = counts
    if small.any():  # not always: an empty pooled bin makes chisquare divide 0 by 0
        observed = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    pvalue = stats.chisquare(observed, expected * draws / expected.sum()).pvalue
    rng = np.random.default_rng(0)
    ideal = np.mean([np.abs(rng.multinomial(draws, probs) / draws - probs).sum() / 2
                     for _ in range(5)])
    return pvalue, np.abs(counts / draws - probs).sum() / 2, ideal


def test_goodness_of_fit_pools_no_bin_when_every_bin_expects_five():
    from scipy import stats
    counts, probs = np.array([260, 240, 250, 250]), np.full(4, 0.25)
    pvalue, tv, _ = goodness_of_fit(counts, probs)
    assert pvalue == stats.chisquare(counts, probs * 1000).pvalue
    assert tv == pytest.approx(0.01, abs=1e-15)


class TestPerEventDraw:
    """The per-event output draw against ``exact_distribution``, at fixed seeds."""

    # Every case has a few hundred outcomes or more: over a handful the TV
    # distance does not concentrate, and an exact multinomial sampler fails
    # the TV bound at 5 outcomes in 18 of 40 seeds.
    @pytest.mark.parametrize("modes, n", [(200, 1), (24, 2), (12, 3), (8, 4), (12, 5), (8, 6)])
    def test_draws_follow_the_exact_distribution(self, modes, n):
        u = haar_random_unitary(modes, 50 + n)
        occupied = np.sort(np.random.default_rng(n).choice(modes, n, replace=False))
        draws = 100_000
        uniforms = np.random.default_rng(modes + n).random((draws, 2 * n))
        outputs = permanent._per_event_outputs(u, np.tile(occupied, (draws, 1)), uniforms)
        table = linalg._pattern_table(modes, n, True)
        counts = np.bincount(table.rows(outputs), minlength=len(table.cols))
        probs = exact_distribution(u, np.bincount(occupied, minlength=modes)).probabilities
        pvalue, tv, ideal = goodness_of_fit(counts, probs)
        assert pvalue > 1e-3
        assert tv <= 1.1 * ideal

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_running_sum_crossover_keeps_every_draw(self, n, monkeypatch):
        # Chunks of fewer than _CUMSUM_EVENTS events sum with np.cumsum and
        # wider ones with a loop over modes: one call over 3000 events (two
        # wide chunks) equals single-event calls and chunks just below, at
        # and just above the crossover, bit for bit.
        rng = np.random.default_rng(60 + n)
        u = haar_random_unitary(12, 60 + n)
        inputs = np.sort(rng.random((3000, 12)).argsort(axis=1)[:, :n], axis=1)
        uniforms = rng.random((3000, 2 * n))
        whole = permanent._per_event_outputs(u, inputs, uniforms)
        single = [permanent._per_event_outputs(u, inputs[e:e + 1], uniforms[e:e + 1])
                  for e in range(len(inputs))]
        assert np.array_equal(np.concatenate(single), whole)
        crossover = permanent._CUMSUM_EVENTS
        for chunk in (crossover - 1, crossover, crossover + 1):
            monkeypatch.setattr(permanent, "_EVENT_CHUNK", chunk)
            assert np.array_equal(permanent._per_event_outputs(u, inputs, uniforms), whole)

    @pytest.mark.parametrize("modes", [2, 5, 12, 16])
    def test_cumsum_adds_in_the_loop_order(self, modes):
        # The two running sums of _per_event_outputs give the same floats,
        # on chunks either side of the crossover.  Weights spanning many
        # orders of magnitude make a different summation order show.
        rng = np.random.default_rng(modes)
        for events in (1, 62, permanent._CUMSUM_EVENTS - 1, permanent._CUMSUM_EVENTS, 2048):
            weights = rng.random((modes, events)) * 10.0 ** rng.uniform(-8, 8, (modes, events))
            looped = weights.copy()
            for i in range(1, modes):
                looped[i] += looped[i - 1]
            summed = weights.copy()
            np.cumsum(summed, axis=0, out=summed)
            assert np.array_equal(summed, looped)

    def test_lossy_run_follows_the_thinned_distribution(self):
        # Sources 0-3 herald on every pulse and the others never, so every
        # event's input is (1, 1, 1, 1, 0, 0, 0, 0); the lossy detectors keep
        # output T with probability prod_j eta_j^t_j.
        eta = np.array([1.0] * 4 + [0.5, 0.6, 0.7, 0.8])
        params = [SourceParams(float(i < 4), eta_detect=d) for i, d in enumerate(eta.tolist())]
        u = haar_random_unitary(8, 57)
        pulses = 100_000
        run = scattershot_run(u, params, pulses, 4, seed=9)
        table = linalg._pattern_table(8, 4, True)
        kept = (exact_distribution(u, (1,) * 4 + (0,) * 4).probabilities
                * (eta ** table.occupations).prod(axis=1))
        retained = kept.sum()
        sigma = math.sqrt(pulses * retained * (1.0 - retained))
        assert abs(len(run.records) - pulses * retained) <= 5 * sigma
        assert {r.input for r in run.records} == {(1,) * 4 + (0,) * 4}
        tally = Counter(r.output for r in run.records)
        counts = np.array([tally[pattern] for pattern in table.outcomes])
        pvalue, tv, ideal = goodness_of_fit(counts, kept / retained)
        assert pvalue > 1e-3
        assert tv <= 1.1 * ideal


LOG_COLUMNS = "pulse_index,trigger_pattern,input_pattern,output_pattern"


class _Memo(dict):
    """``convert(key)`` for each distinct key, computed on its first lookup."""

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, key):
        value = self[key] = self._convert(key)
        return value


def _check_pulse_indices(records) -> None:
    """Raise ContractError unless every pulse index is an integer, not a
    bool, in [0, 2**63), the range of the int64 pulse column."""
    pulses = list(map(attrgetter("pulse_index"), records))
    if not set(map(type, pulses)) <= {int}:
        for value in pulses:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractError(f"pulse index must be an integer, got {value!r}")
        pulses = list(map(int, pulses))  # numpy integers compare exactly as ints
    if pulses and not 0 <= min(pulses) <= max(pulses) < 2**63:
        value = min(pulses) if min(pulses) < 0 else max(pulses)
        raise ContractError(f"pulse index out of range [0, 2**63): {value}")


def per_record_log_reference(path, records, header_lines=()):
    """The per-record sample-log writer, the oracle of the columnar one: one
    f-string per record, each distinct pattern encoded once through a memo,
    and the pulse indices checked first."""
    _check_pulse_indices(records)
    encoded = _Memo(occupation_to_string)
    body = "".join([
        f"{rec.pulse_index},{encoded[tuple(rec.trigger)]},"
        f"{encoded[tuple(rec.input)]},{encoded[tuple(rec.output)]}\n"
        for rec in records
    ])
    header = "".join(f"# {line}\n" for line in header_lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}{LOG_COLUMNS}\n{body}")


def view_of(records):
    """The records as a read-only view of their event table, as a run or a
    read log hands them out."""
    return sampling._RecordView(sampling._events_from_records(records))


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
            digits = pulse.lstrip("0") or "0"
            if len(digits) > 19 or int(digits) >= 2**63:
                raise DataError(f"pulse index out of range: {pulse!r}")
            records.append(SampleRecord(trigger=decode(parts[1]), input=decode(parts[2]),
                                        output=decode(parts[3]), pulse_index=int(digits)))
        except ValueError as exc:
            raise DataError(f"line {line_no}: {exc}") from exc
    if not header_seen:
        raise DataError("sample log has no column header")
    return records


_MAX_PULSE = str(np.iinfo(np.int64).max)  # the pulse column is int64


def per_line_events_reference(path):
    """Sample-log reader into an event table, one line at a time: each line is
    stripped, classified and split, and each distinct pattern string is
    decoded once and numbered by first appearance."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"sample log is not UTF-8 text: {exc}") from exc
    ids: dict = {}  # each distinct pattern string -> its row of patterns
    patterns, pulses, fields = [], [], []
    header_seen = False
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if not header_seen:
            if line != LOG_COLUMNS:
                raise DataError(f"line {line_no}: expected column header {LOG_COLUMNS!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        pulse = parts.pop(0)
        if not (pulse.isascii() and pulse.isdigit()):
            raise DataError(f"line {line_no}: malformed pulse index: {pulse!r}")
        if len(pulse) >= len(_MAX_PULSE):  # may exceed int64, or int()'s digit limit
            digits = pulse.lstrip("0") or "0"
            if (len(digits), digits) > (len(_MAX_PULSE), _MAX_PULSE):
                raise DataError(f"line {line_no}: pulse index out of range: {pulse!r}")
            pulse = digits
        for text in parts:
            if text not in ids:
                try:
                    patterns.append(occupation_from_string(text))
                except DataError as exc:
                    raise DataError(f"line {line_no}: {exc}") from exc
                ids[text] = len(ids)
        pulses.append(pulse)
        fields += parts
    if not header_seen:
        raise DataError("sample log has no column header")
    pulse = np.fromiter(map(int, pulses), dtype=np.int64, count=len(pulses))
    columns = np.fromiter(map(ids.__getitem__, fields), dtype=np.intp, count=len(fields))
    return sampling._Events(pulse, *columns.reshape(-1, 3).T, tuple(patterns))


def event_fields(events):
    """An event table as comparable values: each column's dtype and entries, then
    the patterns."""
    columns = (events.pulse, events.trigger, events.input, events.output)
    return *((column.dtype, column.tolist()) for column in columns), events.patterns


def read_both(path):
    """The event table of ``read_sample_log`` and ``per_line_events_reference``
    of one log: each one's event fields, or its DataError's message."""
    results = []
    for reader in (lambda path: read_sample_log(path)._events, per_line_events_reference):
        try:
            results.append(event_fields(reader(path)))
        except DataError as exc:
            results.append(str(exc))
    return results


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


def _twenty_mode_log():
    # A 20-mode pattern is keyed by two numbers, its last 19 digits and its
    # first: these patterns differ only in their first digit, only in their
    # last 19, or only in length.
    tail = (0, 1) * 8 + (2, 0, 0)
    patterns = [(1,) + tail, (0,) + tail, (1,) + tail[:-1] + (1,), tail, (0, 0) + tail]
    records = [SampleRecord(p, p, q, 3 * i)
               for i, (p, q) in enumerate(itertools.product(patterns, repeat=2))]
    return records, ["modes: 20"]


def _int64_pulse_log():
    pulses = [0, 2**63 - 1, 7, 2**63 - 1]
    return [SampleRecord((1, 0), (1, 0), (0, 1), p) for p in pulses], ()


LOG_CASES = {"scattershot": _scattershot_log, "bunched": _bunched_log,
             "mixed_lengths": _mixed_length_log, "twenty_modes": _twenty_mode_log,
             "int64_pulses": _int64_pulse_log, "header_only": lambda: ([], ["seed: 3"]),
             "crlf": _scattershot_log, "unicode_spaces": _mixed_length_log,
             "comments_between_rows": _bunched_log, "zero_padded_pulses": _int64_pulse_log}
# How the read tests rewrite the text of a case's log; the records stay the same.
LOG_DRESSES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    # str.strip takes these off; so must the byte parser.
    "unicode_spaces": lambda text: "\n".join(f"\u00a0{line}\u3000\x1c"
                                             for line in text.split("\n")),
    "comments_between_rows": lambda text: text.replace("\n", "\n\n# ünïcödé ☃,1,2,3\n  \n"),
    "zero_padded_pulses": lambda text: re.sub(r"(?m)^(\d+),",
                                              lambda m: m[1].zfill(22) + ",", text),
}


BAD_ROWS = [
    "200,110,110,0x0", "200,110,110,", "200,110, 110,020", "200,110,110,١٢٠",
    "200,²10,110,020", "-5,110,110,020", "+5,110,110,020", "1_0,110,110,020",
    "٣,110,110,020", ",110,110,020", "200,110,110", "200,110;110,020", "200,110,1x0",
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
    "pulse-2**63": f"{LOG_COLUMNS}\n9223372036854775807,110,110,020\n"
                   "9223372036854775808,110,110,020\n".encode(),
    "zero-padded-pulse-2**63": f"{LOG_COLUMNS}\n0009223372036854775807,110,110,020\n"
                               "0009223372036854775808,110,110,020\n".encode(),
    "bad-last-row-without-newline": f"{LOG_COLUMNS}\n1,110,110,020\n2,110,110,0x0".encode(),
    "crlf-short-row": f"{LOG_COLUMNS}\r\n1,110,110,020\r\n\r\n2,110\r\n".encode(),
    "spaced-bad-row": f"\u00a0# ☃\n\u3000{LOG_COLUMNS}\x1c\n\x1c1,110,110,0２0\u00a0\n".encode(),
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
        reference = tmp_path / "reference.csv"
        per_record_log_reference(reference, list(records), header)
        for given in (list(records), view_of(records)):
            ours = tmp_path / "ours.csv"
            write_sample_log(ours, given, header)
            assert ours.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("cut", [slice(None), slice(None, None, 3), slice(5, 90, 7),
                                     slice(None, None, -1), slice(-7, None), slice(10, 3),
                                     slice(0, 0), slice(10**6, None), slice(-2, 1, -5)])
    def test_views_and_their_slices_write_like_their_records(self, tmp_path, cut):
        records, header = _scattershot_log()
        path = tmp_path / "read.csv"
        write_sample_log(path, records, header)
        for view in (records, read_sample_log(path)):
            part = view[cut]
            assert isinstance(part, sampling._RecordView)
            assert list(part) == list(view)[cut]
            ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
            write_sample_log(ours, part, header)
            per_record_log_reference(reference, list(part), header)
            assert ours.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("case", LOG_CASES)
    def test_read_matches_per_record_reader(self, tmp_path, case):
        records, header = LOG_CASES[case]()
        path = tmp_path / "samples.csv"
        per_record_log_reference(path, list(records), header)
        if case in LOG_DRESSES:
            text = path.read_text(encoding="utf-8")
            path.write_text(LOG_DRESSES[case](text), encoding="utf-8", newline="")
            assert path.read_bytes() != text.encode()
        back = read_sample_log(path)
        assert back == per_line_read_reference(path) == records
        ours, reference = read_both(path)
        assert ours == reference and not isinstance(ours, str)
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
        assert read_both(path) == [str(ours.value)] * 2
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
        events = run.records._events
        assert len(set(events.patterns)) == len(events.patterns)
        used = np.unique(np.concatenate([events.trigger, events.input, events.output]))
        assert used.tolist() == list(range(len(events.patterns)))
        assert sampling._events_from_records(run.records) is events
        assert view_of(list(run.records)) == run.records


_FUZZ_WRITES = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                        suppress_health_check=[HealthCheck.function_scoped_fixture])
# Random record lists for the writer oracle: pulses of several integer types,
# some near the int64 end, patterns of 0-12 modes holding up to 9 photons each,
# as tuples, lists or numpy integers, and header lines of any text.
_PULSE_INDEX = (st.integers(0, 2**63 - 1) | st.integers(2**63 - 40, 2**63 - 1)).flatmap(
    lambda p: st.sampled_from([int, np.int64, np.uint64] + [np.uint8, np.int32] * (p < 128))
    .map(lambda kind: kind(p)))
_PATTERN = st.lists(st.integers(0, 9), max_size=12).flatmap(
    lambda p: st.sampled_from([tuple(p), p, tuple(map(np.int64, p))]))
_RECORD = st.builds(SampleRecord, _PATTERN, _PATTERN, _PATTERN, _PULSE_INDEX)
_SHARED = st.lists(_PATTERN, min_size=1, max_size=3).flatmap(  # a few patterns, many records
    lambda ps: st.lists(st.builds(SampleRecord, st.sampled_from(ps), st.sampled_from(ps),
                                  st.sampled_from(ps), _PULSE_INDEX), max_size=40))
_HEADER = st.lists(st.text(max_size=12) | st.sampled_from(["ünïcödé ☃", "seed: 1", ""]),
                   max_size=3)
# One refused value: a bad pattern entry or a bad pulse index.
_BAD_PATTERN = st.sampled_from([(10, 0), (0, -1), (1.5, 0), ("a", 1), (math.nan,), (2**64,),
                                (0, 2**63)])
_BAD_PULSE = st.sampled_from([-5, 1.5, True, 2**63, np.bool_(True), np.uint64(2**63), "3", None])


class TestLogWriterOracle:
    @_FUZZ_WRITES
    @given(records=st.lists(_RECORD, max_size=12) | _SHARED, header=_HEADER)
    def test_random_records_write_like_the_per_record_writer(self, tmp_path, records, header):
        reference = tmp_path / "reference.csv"
        per_record_log_reference(reference, records, header)
        for given_records in (records, view_of(records)):
            ours = tmp_path / "ours.csv"
            write_sample_log(ours, given_records, header)
            assert ours.read_bytes() == reference.read_bytes()

    @_FUZZ_WRITES
    @given(records=st.lists(_RECORD, min_size=1, max_size=8), data=st.data())
    def test_refusals_keep_their_text_and_write_nothing(self, tmp_path, records, data):
        # One or two records spoilt in one field each; the first refusal decides.
        for _ in range(data.draw(st.integers(1, 2))):
            at = data.draw(st.integers(0, len(records) - 1))
            field = data.draw(st.sampled_from(["trigger", "input", "output", "pulse_index"]))
            bad = data.draw(_BAD_PULSE if field == "pulse_index" else _BAD_PATTERN)
            records[at] = dataclasses.replace(records[at], **{field: bad})
        ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
        with pytest.raises(ContractError) as expected:
            per_record_log_reference(reference, records)
        with pytest.raises(ContractError) as refused:
            write_sample_log(ours, records)
        assert str(refused.value) == str(expected.value)
        assert not ours.exists()

    def test_empty_list_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_sample_log(path, [], ["ünïcödé ☃"])
        assert path.read_bytes() == f"# ünïcödé ☃\n{LOG_COLUMNS}\n".encode()
        assert read_sample_log(path) == []


class TestRecordView:
    @staticmethod
    def run_result():
        u = haar_random_unitary(4, 35)
        return scattershot_run(u, [SourceParams(epsilon=0.5)] * 4, 2_000, 2, seed=1)

    def test_is_a_read_only_sequence_built_once(self):
        result = self.run_result()
        view = result.records
        assert result.records is view
        assert isinstance(view, Sequence) and not isinstance(view, list)
        with pytest.raises(TypeError):
            view[0] = view[1]
        with pytest.raises(TypeError):
            del view[0]
        with pytest.raises(AttributeError):
            view.append(view[0])
        with pytest.raises(TypeError):
            hash(view)

    def test_indices_follow_list_semantics(self):
        view = self.run_result().records
        records = list(view)
        assert len(view) == len(records) > 10
        for index in (0, 5, -1, -len(records), np.int64(3), np.uint8(2), np.intp(-2)):
            assert view[index] == records[index]
        for index in (len(records), -len(records) - 1, np.int64(len(records))):
            with pytest.raises(IndexError):
                view[index]
        with pytest.raises(TypeError):
            view[1.0]
        assert view[3:9][-1] == records[8]
        assert list(reversed(view)) == records[::-1]
        assert view.index(records[4]) == 4 and records[4] in view

    def test_equality_follows_list_semantics(self, tmp_path):
        view = self.run_result().records
        records = list(view)
        path = tmp_path / "samples.csv"
        write_sample_log(path, view)
        for same in (records, view[:], read_sample_log(path)):
            assert view == same and same == view
            assert not (view != same) and not (same != view)
        for other in (records[:-1], records[::-1], view[1:], records + records[:1]):
            assert view != other and other != view
            assert not (view == other)
        assert view != tuple(records) and tuple(records) != view
        assert view[:0] == [] and [] == view[:0]


# Fuzzed sample-log bodies: valid rows and skipped lines, with at most one
# malformed row or line of arbitrary text inserted among them.
# Patterns reach 20 digits, three key words; pulses cover [0, 2**63), some
# zero-padded to up to 24 digits.
_DIGITS = st.text("0123456789", min_size=1, max_size=20)
_PULSE = st.tuples(st.integers(0, 2**63 - 1), st.sampled_from([0, 0, 3, 19, 24])).map(
    lambda t: str(t[0]).zfill(t[1]))
_GOOD_ROW = st.tuples(_PULSE, _DIGITS, _DIGITS, _DIGITS).map(",".join)
_SKIPPED = st.sampled_from(["", "  ", "# note", "\t# x,1,1,1", "\u3000# ☃", "\x1c"])
_BAD_FIELD = st.sampled_from(["", "١٢٠", "²10", "1x0", " 12", "-1", "+1", "1_0", "٣", "1e3",
                              "9223372036854775808", "00009223372036854775808"])
_BAD_ROW = st.tuples(_GOOD_ROW, st.integers(0, 3), _BAD_FIELD).map(
    lambda t: ",".join(t[2] if i == t[1] else f for i, f in enumerate(t[0].split(",")))
) | _GOOD_ROW.map(lambda row: row.replace(",", ";", 1))
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
        ours, reference = read_both(path)
        assert ours == reference
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
        ours, reference = read_both(path)
        assert ours == reference

    @_FUZZ
    @given(body=_BODY)
    def test_validate_exits_with_data_or_contract_error(self, tmp_path, body):
        # Fuzzed patterns hold at most 20 digits and other lines at most 30
        # characters, while a 21-mode record needs 67, so no fuzzed log is
        # valid against the 21-mode interferometer.
        unitary = tmp_path / "u.json"
        if not unitary.exists():
            save_matrix(unitary, haar_random_unitary(21, 1))
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
