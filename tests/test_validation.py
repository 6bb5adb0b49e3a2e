import math
from collections import Counter

import numpy as np
import pytest

from multiphoton.errors import ContractError, DataError
from multiphoton.linalg import haar_random_unitary
from multiphoton.sampling import (
    SampleRecord,
    distinguishable_distribution,
    exact_distribution,
    sample_outputs,
    scattershot_run,
)
from multiphoton.sources import SourceParams
from multiphoton.validation import (
    empirical_distribution,
    likelihood_ratio_test,
    scattershot_aggregate_validation,
    similarity,
    tv_distance,
)
from properties import check_validation_properties


def three_photon_models(seed=3):
    u = haar_random_unitary(12, seed)
    occ = (1, 1, 1) + (0,) * 9
    return occ, exact_distribution(u, occ), distinguishable_distribution(u, occ)


class TestSimilarityAndDistance:
    def test_identical_distributions(self):
        p = {(0,): 0.3, (1,): 0.7}
        assert similarity(p, dict(p)) == pytest.approx(1.0, abs=1e-15)
        assert tv_distance(p, dict(p)) == 0.0

    def test_disjoint_supports(self):
        p = {(0,): 1.0, (1,): 0.0}
        q = {(0,): 0.0, (1,): 1.0}
        assert similarity(p, q) == 0.0
        assert tv_distance(p, q) == 1.0

    def test_worked_example(self):
        p = {(0,): 0.5, (1,): 0.5}
        q = {(0,): 0.25, (1,): 0.75}
        want_s = math.sqrt(0.125) + math.sqrt(0.375)
        assert similarity(p, q) == pytest.approx(want_s, abs=1e-15)
        assert want_s == pytest.approx(0.9659, abs=5e-5)
        assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-15)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ContractError):
            similarity({(0,): 1.0}, {(1,): 1.0})
        with pytest.raises(ContractError):
            tv_distance({(0,): 1.0}, {(0,): 0.5, (1,): 0.5})

    def test_unnormalized_rejected(self):
        with pytest.raises(ContractError):
            similarity({(0,): 0.6, (1,): 0.6}, {(0,): 0.5, (1,): 0.5})

    @pytest.mark.parametrize("p", [{(0,): math.nan, (1,): math.nan},
                                   {(0,): math.nan, (1,): 1.0}])
    def test_nan_probabilities_rejected(self, p):
        q = {(0,): 0.5, (1,): 0.5}
        for measure in (similarity, tv_distance):
            with pytest.raises(ContractError):
                measure(p, q)
            with pytest.raises(ContractError):
                measure(q, p)

    def test_accepts_outcome_distribution_operands(self):
        _, q_dist, _ = three_photon_models()
        assert similarity(q_dist, q_dist) == pytest.approx(1.0, abs=1e-12)
        assert tv_distance(q_dist, q_dist) == 0.0


class TestEmpiricalDistribution:
    def test_frequencies(self):
        freq = empirical_distribution([(1, 0), (1, 0), (0, 1), (1, 0)], [(1, 0), (0, 1)])
        assert freq == {(1, 0): 0.75, (0, 1): 0.25}

    def test_sample_outside_support_rejected(self):
        with pytest.raises(DataError):
            empirical_distribution([(2, 0)], [(1, 0), (0, 1)])

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            empirical_distribution([], [(1, 0)])


class TestLikelihoodRatioTest:
    def test_identical_models_stay_inconclusive(self):
        occ, q_dist, _ = three_photon_models()
        outputs = sample_outputs(q_dist, 100, seed=1)
        report = likelihood_ratio_test([(occ, o) for o in outputs], q_dist, q_dist, 5.0)
        assert report.verdict == "inconclusive"
        assert np.all(report.lr_trajectory == 0.0)
        assert report.samples_used == 100

    def test_detects_interference(self):
        occ, q_dist, p_dist = three_photon_models()
        outputs = sample_outputs(q_dist, 500, seed=2)
        report = likelihood_ratio_test([(occ, o) for o in outputs], q_dist, p_dist, 5.0)
        assert report.verdict == "indistinguishable"
        assert report.lr_trajectory[-1] > 5.0

    def test_detects_distinguishable_photons(self):
        occ, q_dist, p_dist = three_photon_models()
        outputs = sample_outputs(p_dist, 500, seed=2)
        report = likelihood_ratio_test([(occ, o) for o in outputs], q_dist, p_dist, 5.0)
        assert report.verdict == "distinguishable"
        assert report.lr_trajectory[-1] < -5.0

    def test_zero_probability_decides_immediately(self):
        q = {(2, 0): 0.5, (0, 2): 0.5, (1, 1): 0.0}
        p = {(2, 0): 0.25, (0, 2): 0.25, (1, 1): 0.5}
        from multiphoton.sampling import OutcomeDistribution

        q_dist = OutcomeDistribution(tuple(q), np.array(list(q.values())))
        p_dist = OutcomeDistribution(tuple(p), np.array(list(p.values())))
        samples = [((1, 1), (2, 0)), ((1, 1), (1, 1)), ((1, 1), (0, 2))]
        report = likelihood_ratio_test(samples, q_dist, p_dist, 5.0)
        # the impossible-under-q sample arrives second and ends the test
        assert report.samples_used == 2
        assert report.verdict == "distinguishable"
        assert report.lr_trajectory[-1] == -math.inf

    def test_pooled_statistics_match_joint_formula(self):
        # interleaved inputs: q_hat(i, o) = p_hat(i) * q(o | i) against the
        # empirical joint frequencies, over every outcome of each q(. | i)
        u = haar_random_unitary(6, 4)
        inputs = [(1, 1, 0, 0, 0, 0), (0, 1, 0, 1, 0, 1), (1, 0, 0, 0, 1, 1)]
        samples = []
        for k in range(600):
            inp = inputs[k % 3]
            samples.append((inp, sample_outputs(exact_distribution(u, inp), 1, k)[0]))
        report = likelihood_ratio_test(samples, lambda inp: exact_distribution(u, inp),
                                       lambda inp: distinguishable_distribution(u, inp))
        joint = Counter(samples)
        per_input = Counter(inp for inp, _ in samples)
        s = d = 0.0
        for inp, count in per_input.items():
            q = exact_distribution(u, inp)
            for out in q.outcomes:
                p_hat = joint[(inp, out)] / len(samples)
                q_hat = count / len(samples) * q.prob(out)
                s += math.sqrt(p_hat * q_hat)
                d += abs(p_hat - q_hat)
        assert report.samples_used == 600
        assert report.similarity == pytest.approx(s, abs=1e-12)
        assert report.distance == pytest.approx(0.5 * d, abs=1e-12)

    def test_collision_sample_outside_q_support_decides(self):
        occ, _, p_dist = three_photon_models()
        u = haar_random_unitary(12, 3)
        q_free = exact_distribution(u, occ, collisions=False)
        outputs = sample_outputs(p_dist, 500, seed=4)
        first = next(i for i, o in enumerate(outputs) if max(o) > 1)
        report = likelihood_ratio_test([(occ, o) for o in outputs], q_free, p_dist, 5.0)
        assert report.samples_used == first + 1
        assert report.verdict == "distinguishable"
        assert report.lr_trajectory[-1] == -math.inf
        assert np.all(np.isfinite(report.lr_trajectory[:-1]))
        # the deciding sample's joint frequency counts towards the distance
        assert report.distance >= 0.5 / report.samples_used

    def test_impossible_under_both_rejected(self):
        from multiphoton.sampling import OutcomeDistribution

        dist = OutcomeDistribution(((1, 0), (0, 1)), np.array([0.5, 0.5]))
        with pytest.raises(DataError):
            likelihood_ratio_test([((1, 0), (2, 0))], dist, dist, 5.0)

    def test_threshold_and_empty_guards(self):
        occ, q_dist, p_dist = three_photon_models()
        with pytest.raises(ContractError):
            likelihood_ratio_test([(occ, q_dist.outcomes[0])], q_dist, p_dist, 0.0)
        with pytest.raises(ContractError):
            likelihood_ratio_test([], q_dist, p_dist, 5.0)


class TestScattershotAggregateValidation:
    @staticmethod
    def run_records(seed=6, pulses=60_000):
        u = haar_random_unitary(4, seed)
        params = [SourceParams(epsilon=0.5)] * 4
        return u, scattershot_run(u, params, pulses, 2, seed).records

    def test_theory_sampled_records_validate(self):
        u, records = self.run_records()
        report = scattershot_aggregate_validation(records, u)
        assert report.group_count == math.comb(4, 2)
        assert report.mean_similarity > 0.99
        assert report.mean_distance < 0.05
        assert report.pooled.verdict == "indistinguishable"
        assert report.pooled.samples_used == len(records)

    def test_no_collision_restriction(self):
        u, records = self.run_records()
        report = scattershot_aggregate_validation(records, u, collisions=False)
        assert report.group_count == math.comb(4, 2)
        for group in report.groups:
            assert group.similarity > 0.98

    def test_empty_records_rejected(self):
        u = haar_random_unitary(4, 1)
        with pytest.raises(ContractError):
            scattershot_aggregate_validation([], u)

    def test_non_unitary_rejected(self):
        # both collision-free models renormalize, which would hide the defect
        record = SampleRecord((1, 1, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), 0)
        with pytest.raises(ContractError):
            scattershot_aggregate_validation([record], 0.7 * np.ones((4, 4)), collisions=False)

    def test_non_post_selected_rejected(self):
        u = haar_random_unitary(3, 1)
        bad = SampleRecord((1, 1, 0), (1, 1, 0), (1, 0, 0), 0)
        with pytest.raises(ContractError):
            scattershot_aggregate_validation([bad], u)

    def test_noise_floor_scaling(self):
        # multinomial sampling noise: distance roughly halves when the
        # per-group sample count quadruples
        u = haar_random_unitary(4, 8)
        occ = (1, 1, 0, 0)
        dist = exact_distribution(u, occ)
        distances = []
        for shots in (200, 800, 3200):
            outputs = sample_outputs(dist, shots, seed=shots)
            records = [SampleRecord(occ, occ, o, i) for i, o in enumerate(outputs)]
            report = scattershot_aggregate_validation(records, u)
            distances.append(report.mean_distance)
        assert distances[0] > distances[1] > distances[2]
        assert distances[0] / distances[1] == pytest.approx(2.0, rel=0.5)
        assert distances[1] / distances[2] == pytest.approx(2.0, rel=0.5)


def test_module_properties():
    check_validation_properties(seed=6)
