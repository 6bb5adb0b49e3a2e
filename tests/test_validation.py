import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from multiphoton import cli, validation
from multiphoton.errors import ContractError, DataError, DimensionError
from multiphoton.linalg import (_require_unitary, as_occupation, haar_random_unitary, load_matrix,
                                save_matrix)
from multiphoton.sampling import (
    OutcomeDistribution,
    SampleRecord,
    _distributions,
    distinguishable_distribution,
    exact_distribution,
    read_sample_log,
    sample_outputs,
    scattershot_run,
    write_sample_log,
)
from multiphoton.sources import SourceParams
from multiphoton.validation import (
    AggregateValidationReport,
    GroupValidation,
    ValidationReport,
    _rows,
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

    def test_opposite_infinities_rejected(self):
        p = {(0,): math.inf, (1,): -math.inf}
        q = {(0,): 0.5, (1,): 0.5}
        for measure in (similarity, tv_distance):
            with pytest.raises(ContractError, match="non-finite"):
                measure(p, q)
            with pytest.raises(ContractError, match="non-finite"):
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

    @pytest.mark.parametrize("collisions", [True, False])
    def test_matches_per_event_evaluation(self, collisions):
        # interleaved inputs, models given per input; with collisions=False
        # the q supports differ from the p ones and collision samples fall
        # outside them
        u = haar_random_unitary(5, 6)
        inputs = [(1, 1, 0, 0, 0), (0, 1, 0, 1, 1), (2, 0, 0, 0, 0)]
        rng = np.random.default_rng(6)
        samples = [(inputs[k], sample_outputs(distinguishable_distribution(u, inputs[k]), 1,
                                              int(seed))[0])
                   for k, seed in zip(rng.integers(0, 3, 300), rng.integers(0, 2**31, 300))]
        if not collisions:
            samples = [s for s in samples if max(s[1]) <= 1] + samples
        q_model = lambda inp: exact_distribution(u, inp, collisions=collisions)  # noqa: E731
        p_model = lambda inp: distinguishable_distribution(u, inp)  # noqa: E731
        report = likelihood_ratio_test(samples, q_model, p_model, 5.0)
        ids: dict = {}
        block = np.array([ids.setdefault(inp, len(ids)) for inp, _ in samples], dtype=np.intp)
        q_dists = [q_model(inp) for inp in ids]
        evaluated = per_event_evaluate_reference(block, [out for _, out in samples], q_dists,
                                                 [p_model(inp) for inp in ids])
        reference = pooled_report_reference(block, q_dists, *evaluated, 5.0,
                                            samples.__getitem__)
        assert np.array_equal(report.lr_trajectory, reference.lr_trajectory)
        assert (report.similarity, report.distance, report.verdict, report.samples_used) == (
            reference.similarity, reference.distance, reference.verdict, reference.samples_used)

    def test_impossible_under_both_rejected(self):
        dist = OutcomeDistribution(((1, 0), (0, 1)), np.array([0.5, 0.5]))
        with pytest.raises(DataError):
            likelihood_ratio_test([((1, 0), (2, 0))], dist, dist, 5.0)

    def test_threshold_and_empty_guards(self):
        occ, q_dist, p_dist = three_photon_models()
        with pytest.raises(ContractError):
            likelihood_ratio_test([(occ, q_dist.outcomes[0])], q_dist, p_dist, 0.0)
        with pytest.raises(ContractError):
            likelihood_ratio_test([], q_dist, p_dist, 5.0)


def per_event_evaluate_reference(block, outputs, q_dists, p_dists):
    """Each sample's row in its q model and its probabilities under q and p,
    with one dict lookup per sample for its output's row."""
    order = np.argsort(block, kind="stable")
    bounds = np.searchsorted(block[order], np.arange(len(q_dists) + 1))
    rows = np.empty(len(block), dtype=np.intp)
    q_val, p_val = np.empty(len(block)), np.empty(len(block))
    for b, (q, p) in enumerate(zip(q_dists, p_dists)):
        at = order[bounds[b] : bounds[b + 1]]
        outs = list(map(outputs.__getitem__, at.tolist()))
        rows[at] = q_rows = _rows(q._support.index, outs)
        p_rows = q_rows if p._support is q._support else _rows(p._support.index, outs)
        q_val[at] = np.where(q_rows >= 0, q.probabilities[q_rows], 0.0)
        p_val[at] = np.where(p_rows >= 0, p.probabilities[p_rows], 0.0)
    return rows, q_val, p_val


def similarity_reference(pa, qa):
    return math.fsum(np.sqrt(pa * qa).tolist())


def distance_reference(pa, qa):
    return 0.5 * math.fsum(np.abs(pa - qa).tolist())


def pooled_report_reference(block, q_dists, rows, q_val, p_val, threshold, sample_at):
    """The pooled report over one q distribution per input block."""
    zeros = np.flatnonzero((q_val == 0.0) | (p_val == 0.0))
    end = int(zeros[0]) if zeros.size else len(q_val)
    trajectory = np.cumsum(np.log(q_val[:end] / p_val[:end]))
    if zeros.size:
        if q_val[end] == 0.0 and p_val[end] == 0.0:
            inp, out = sample_at(end)
            raise DataError(f"sample {out} for input {inp} is impossible under both hypotheses")
        trajectory = np.append(trajectory, math.inf if p_val[end] == 0.0 else -math.inf)
    level = trajectory[-1]
    verdict = ("indistinguishable" if level > threshold
               else "distinguishable" if level < -threshold else "inconclusive")
    total = len(trajectory)
    block, rows = block[:total], rows[:total]
    inside = rows >= 0
    weights = np.bincount(block, minlength=len(q_dists)) / total
    q_hat = np.concatenate([w * q.probabilities for w, q in zip(weights, q_dists)])
    offsets = np.cumsum([0] + [q.probabilities.size for q in q_dists[:-1]])
    p_hat = np.bincount(offsets[block[inside]] + rows[inside], minlength=q_hat.size) / total
    # Only the deciding sample can lie outside its q support; its joint
    # frequency 1/total adds to the distance alone.
    outside = [np.count_nonzero(~inside) / total]
    return ValidationReport(
        similarity=similarity_reference(p_hat, q_hat),
        distance=0.5 * math.fsum(np.abs(p_hat - q_hat).tolist() + outside),
        lr_trajectory=trajectory,
        verdict=verdict,
        samples_used=total,
    )


def record_aggregate_reference(records, unitary, collisions=True, threshold=5.0):
    """The record-based aggregate validation: one SampleRecord per event, one
    dict lookup per event for its output's row in its model."""
    if not records:
        raise ContractError("empty record set")
    u = _require_unitary(unitary, "scattershot_aggregate_validation")
    try:
        triggers = np.array([rec.trigger for rec in records], dtype=np.int64)
        outputs = np.array([rec.output for rec in records], dtype=np.int64)
    except ValueError as exc:
        raise DataError(f"records mix pattern lengths: {exc}") from exc
    unmatched = np.flatnonzero(triggers.sum(axis=1) != outputs.sum(axis=1))
    if unmatched.size:
        rec = records[unmatched[0]]
        raise ContractError(
            f"record at pulse {rec.pulse_index} is not post-selected: "
            f"{sum(rec.trigger)} triggers vs {sum(rec.output)} detected photons"
        )
    if not collisions:
        kept = outputs.max(axis=1) <= 1
        triggers, outputs = triggers[kept], outputs[kept]
        if not len(triggers):
            raise ContractError("no records left after removing collision outputs")
    order = np.lexsort(triggers.T[::-1])
    triggers, outputs = triggers[order], list(map(tuple, outputs[order].tolist()))
    first = np.r_[True, (triggers[1:] != triggers[:-1]).any(axis=1)]
    block = np.cumsum(first) - 1
    inputs = [as_occupation(inp, u.shape[0]) for inp in triggers[first].tolist()]
    q_dists = _distributions(u, triggers[first], collisions, True)
    rows, q_val, p_val = per_event_evaluate_reference(
        block, outputs, q_dists, _distributions(u, triggers[first], collisions, False))
    if (rows < 0).any():
        raise DataError(f"sample {outputs[np.argmin(rows)]} lies outside the outcome support")
    bounds = np.searchsorted(block, np.arange(len(inputs) + 1))
    groups = []
    for g, q in enumerate(q_dists):
        group_rows = rows[bounds[g] : bounds[g + 1]]
        freq = np.bincount(group_rows, minlength=q.probabilities.size) / len(group_rows)
        groups.append(GroupValidation(trigger=inputs[g], samples=len(group_rows),
                                      similarity=similarity_reference(freq, q.probabilities),
                                      distance=distance_reference(freq, q.probabilities)))
    sims = np.array([g.similarity for g in groups])
    dists = np.array([g.distance for g in groups])
    spread = (
        (float(sims.std(ddof=1)), float(dists.std(ddof=1))) if len(groups) > 1 else (0.0, 0.0)
    )
    pooled = pooled_report_reference(block, q_dists, rows, q_val, p_val, threshold,
                                     lambda t: (inputs[block[t]], outputs[t]))
    return AggregateValidationReport(
        groups=tuple(groups),
        mean_similarity=float(sims.mean()),
        similarity_std=spread[0],
        mean_distance=float(dists.mean()),
        distance_std=spread[1],
        pooled=pooled,
    )


def assert_same_report(ours, reference):
    assert ours.groups == reference.groups
    assert (ours.mean_similarity, ours.similarity_std, ours.mean_distance, ours.distance_std) == (
        reference.mean_similarity, reference.similarity_std, reference.mean_distance,
        reference.distance_std)
    assert ours.pooled.similarity == reference.pooled.similarity
    assert ours.pooled.distance == reference.pooled.distance
    assert ours.pooled.verdict == reference.pooled.verdict
    assert np.array_equal(ours.pooled.lr_trajectory, reference.pooled.lr_trajectory)


@pytest.fixture(scope="module")
def criterion_5_records():
    unitary = haar_random_unitary(12, 2)
    run = scattershot_run(unitary, [SourceParams(epsilon=0.25)] * 12, 450_000, 3, seed=5)
    return unitary, run.records[:100_000]


def mixed_photon_records():
    """1-, 2- and 3-photon triggers whose tuples interleave in sorted order."""
    u = haar_random_unitary(4, 5)
    triggers = [(0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 0, 0),
                (1, 0, 1, 1), (1, 1, 0, 0)]
    pairs = [(occ, out) for k, occ in enumerate(triggers)
             for out in sample_outputs(exact_distribution(u, occ), 300, seed=k)]
    np.random.default_rng(3).shuffle(pairs)
    return u, triggers, [SampleRecord(occ, occ, out, i) for i, (occ, out) in enumerate(pairs)]


class TestAgainstRecordReference:
    def test_criterion_5_data(self, tmp_path, criterion_5_records):
        unitary, records = criterion_5_records
        log = tmp_path / "samples.csv"
        write_sample_log(log, records)
        for collisions in (True, False):
            reference = record_aggregate_reference(records, unitary, collisions)
            assert_same_report(scattershot_aggregate_validation(records, unitary, collisions),
                               reference)
            # the command-line path: the log read as an event table, no records
            assert_same_report(
                scattershot_aggregate_validation(read_sample_log(log), unitary, collisions),
                reference)

    def test_bunched_trigger_sample_log(self, tmp_path):
        # a 4-photon input with two photons in one mode, written by the CLI
        unitary, log = tmp_path / "u.json", tmp_path / "samples.csv"
        save_matrix(unitary, haar_random_unitary(8, 3))
        assert cli.main(["sample", "--unitary", str(unitary), "--input", "21100000",
                         "--shots", "20000", "--seed", "3", "--out", str(log)]) == 0
        u, records = load_matrix(unitary), read_sample_log(log)
        assert any(max(r.output) > 1 for r in records)
        for collisions in (True, False):
            assert_same_report(scattershot_aggregate_validation(records, u, collisions),
                               record_aggregate_reference(list(records), u, collisions))

    @pytest.mark.parametrize("collisions", [True, False])
    def test_shuffled_records(self, collisions):
        u, records = TestScattershotAggregateValidation.run_records()
        rng = np.random.default_rng(9)
        for _ in range(3):
            shuffled = list(records)
            rng.shuffle(shuffled)
            assert_same_report(scattershot_aggregate_validation(shuffled, u, collisions),
                               record_aggregate_reference(shuffled, u, collisions))

    def test_collision_free_restriction_on_bunched_outputs(self):
        u = haar_random_unitary(5, 4)
        records = []
        for k, occ in enumerate([(1, 1, 1, 0, 0), (0, 1, 1, 1, 0), (2, 0, 1, 0, 0)]):
            outputs = sample_outputs(exact_distribution(u, occ), 400, seed=k)
            records += [SampleRecord(occ, occ, o, 1000 * k + i) for i, o in enumerate(outputs)]
        assert any(max(r.output) > 1 for r in records)
        for collisions in (True, False):
            assert_same_report(scattershot_aggregate_validation(records, u, collisions),
                               record_aggregate_reference(records, u, collisions))

    @pytest.mark.parametrize("records, collisions", [
        ([], True),
        ([SampleRecord((1, 1, 0), (1, 1, 0), (1, 0, 0), 7)], True),
        ([SampleRecord((1, 1, 0), (1, 1, 0), (0, 2, 0), 1),
          SampleRecord((1, 0, 1), (1, 0, 1), (2, 0, 0), 4)], False),
        ([SampleRecord((1, 1), (1, 1), (0, 2), 0)], True),
        ([SampleRecord((1, 1, 0), (1, 1, 0), (1, 1, 0, 0), 0)], True),
    ], ids=["empty", "not-post-selected", "only-collisions", "wrong-modes", "long-output"])
    def test_errors_match(self, records, collisions):
        u = haar_random_unitary(3, 2)
        with pytest.raises((ContractError, DataError)) as reference:
            record_aggregate_reference(records, u, collisions)
        with pytest.raises(type(reference.value), match=f"^{re.escape(str(reference.value))}$"):
            scattershot_aggregate_validation(records, u, collisions)

    @pytest.mark.parametrize("collisions", [True, False])
    def test_group_order_across_photon_numbers(self, collisions):
        u, triggers, records = mixed_photon_records()
        report = scattershot_aggregate_validation(records, u, collisions)
        assert [g.trigger for g in report.groups] == triggers
        assert_same_report(report, record_aggregate_reference(records, u, collisions))

    @pytest.mark.parametrize("collisions", [True, False])
    def test_empty_patterns_are_dimension_errors(self, collisions):
        # asserted directly: the record reference fails in numpy on this input
        u = haar_random_unitary(3, 2)
        with pytest.raises(DimensionError, match="^occupation has 0 modes, expected 3$"):
            scattershot_aggregate_validation([SampleRecord((), (), (), 0)], u, collisions)

    def test_mixed_pattern_lengths_are_data_errors(self):
        records = [SampleRecord((1, 1, 0), (1, 1, 0), (0, 1, 1), 0),
                   SampleRecord((1, 1), (1, 1), (0, 2), 1)]
        u = haar_random_unitary(3, 2)
        for validate in (record_aggregate_reference, scattershot_aggregate_validation):
            with pytest.raises(DataError, match="^records mix pattern lengths"):
                validate(records, u)


def test_slicing_writing_and_validating_run_records_build_no_record(tmp_path, monkeypatch):
    unitary = haar_random_unitary(6, 4)
    run = scattershot_run(unitary, [SourceParams(epsilon=0.3)] * 6, 30_000, 3, seed=2)
    cuts = [slice(2_000), slice(None, None, 3), slice(-500, None), slice(None, None, -1)]
    assert len(run.records) > 2_000
    reference = []
    for cut in cuts:
        records = list(run.records[cut])
        write_sample_log(tmp_path / "list.csv", records)
        reference.append((scattershot_aggregate_validation(records, unitary),
                          (tmp_path / "list.csv").read_bytes()))

    def no_record(*args, **kwargs):
        raise AssertionError("a SampleRecord was built")

    monkeypatch.setattr(SampleRecord, "__init__", no_record)
    for cut, (report, log) in zip(cuts, reference):
        view = run.records[cut]
        write_sample_log(tmp_path / "view.csv", view)
        assert (tmp_path / "view.csv").read_bytes() == log
        assert_same_report(scattershot_aggregate_validation(view, unitary), report)
        read = read_sample_log(tmp_path / "view.csv")
        assert len(read) == len(view)
        assert_same_report(scattershot_aggregate_validation(read[::1], unitary), report)


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

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    def test_threshold_must_be_positive(self, threshold):
        u, records = self.run_records(pulses=2_000)
        with pytest.raises(ContractError, match="^threshold must be positive"):
            scattershot_aggregate_validation(records, u, threshold=threshold)

    def test_engine_runs_once_per_model_and_photon_number(self, monkeypatch):
        calls = Counter()
        engine = validation._probabilities

        def counted(u, inputs, collisions, interfering):
            calls[int(inputs[0].sum()), interfering] += 1
            return engine(u, inputs, collisions, interfering)

        monkeypatch.setattr(validation, "_probabilities", counted)
        u, _, records = mixed_photon_records()
        scattershot_aggregate_validation(records, u)
        assert calls == {(n, interfering): 1 for n in (1, 2, 3) for interfering in (True, False)}

    def test_criterion_5_memory(self, criterion_5_records):
        unitary, records = criterion_5_records
        scattershot_aggregate_validation(records, unitary)  # fills the pattern-table caches
        tracemalloc.start()
        try:
            scattershot_aggregate_validation(records, unitary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("trigger, output, counts", [
        ((2**62, 2**62, 0), (0, 0, 0), "9223372036854775808 triggers vs 0"),
        ((1, 1, 0), (2**63 - 1, 1, 0), "2 triggers vs 9223372036854775808"),
    ], ids=["wide-trigger", "wide-output"])
    def test_photon_counts_beyond_int64_do_not_wrap(self, trigger, output, counts):
        records = [SampleRecord((1, 1, 0), (1, 1, 0), (0, 1, 1), 0),
                   SampleRecord(trigger, trigger, output, 3)]
        message = f"^record at pulse 3 is not post-selected: {counts} detected photons$"
        with pytest.raises(ContractError, match=message):
            scattershot_aggregate_validation(records, haar_random_unitary(3, 1))

    def test_input_that_differs_from_its_trigger_rejected(self, tmp_path):
        # the outputs follow the input's distribution; taking the trigger as
        # the input would validate them against the wrong model
        u = haar_random_unitary(4, 3)
        inp = (0, 0, 1, 1)
        outputs = sample_outputs(exact_distribution(u, inp), 200, seed=1)
        records = [SampleRecord(inp, inp, o, i) for i, o in enumerate(outputs)]
        records[50] = SampleRecord((1, 1, 0, 0), inp, outputs[50], 50)
        message = (r"^record at pulse 50 has input \(0, 0, 1, 1\) but trigger \(1, 1, 0, 0\); "
                   "validation needs them equal$")
        with pytest.raises(ContractError, match=message):
            scattershot_aggregate_validation(records, u)
        log = tmp_path / "samples.csv"
        write_sample_log(log, records)
        with pytest.raises(ContractError, match=message):
            scattershot_aggregate_validation(read_sample_log(log), u)

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


_U = haar_random_unitary(3, 7)
_Q, _P = exact_distribution(_U, (0, 1, 1)), distinguishable_distribution(_U, (0, 1, 1))
_SUPPORT = ((1, 1, 0), (0, 1, 1), (2, 0, 0))


def _logged(records, path):
    write_sample_log(path / "samples.csv", records)
    return (path / "samples.csv").read_text()


# Every entry point that takes patterns, with a pattern x standing for (0, 1, 1)
# in the place named; each returns a result whose repr shows the pattern types.
ENTRY_POINTS = {
    "OutcomeDistribution": lambda x, path: OutcomeDistribution(
        [(1, 1, 0), x], [0.25, 0.75]).outcomes,
    "prob": lambda x, path: _Q.prob(x),
    "empirical_distribution-sample": lambda x, path: empirical_distribution(
        [x, (1, 1, 0), x], _SUPPORT),
    "empirical_distribution-support": lambda x, path: empirical_distribution(
        [(0, 1, 1), (1, 1, 0)], [(1, 1, 0), x, (2, 0, 0)]),
    "likelihood_ratio_test-input": lambda x, path: likelihood_ratio_test(
        [(x, (1, 1, 0)), (x, (0, 1, 1))], _Q, _P),
    "likelihood_ratio_test-output": lambda x, path: likelihood_ratio_test(
        [((0, 1, 1), x), ((0, 1, 1), (2, 0, 0))], _Q, _P),
    "scattershot_aggregate_validation-output": lambda x, path: scattershot_aggregate_validation(
        [SampleRecord((1, 1, 0), (1, 1, 0), x, 0),
         SampleRecord((1, 1, 0), (1, 1, 0), (2, 0, 0), 1)], _U),
    "scattershot_aggregate_validation-trigger": lambda x, path: scattershot_aggregate_validation(
        [SampleRecord(x, x, (1, 1, 0), 0), SampleRecord(x, x, (0, 2, 0), 1)], _U),
    "write_sample_log": lambda x, path: _logged([SampleRecord(x, x, x, 0)], path),
}


class TestPatternContract:
    """Every pattern given to the package is checked by as_occupation."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("pattern", [(0.5, 1.5, 1), (-1, 2, 1), "011", ("a", 1, 1),
                                         (math.nan, 1, 1), (math.inf, 1, 1), (2**70, 1, 1)],
                             ids=["fractional", "negative", "string", "text-entry", "nan",
                                  "inf", "beyond-int64"])
    def test_bad_pattern_raises_the_occupation_error(self, tmp_path, entry, pattern):
        with pytest.raises(ContractError) as expected:
            as_occupation(pattern)
        with pytest.raises(ContractError, match=f"^{re.escape(str(expected.value))}$"):
            ENTRY_POINTS[entry](pattern, tmp_path)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("pattern", [(np.int64(0), np.int32(1), np.uint8(1)),
                                         (0, 1.0, 1), (False, True, 1)],
                             ids=["numpy-ints", "float", "bool"])
    def test_integer_valued_pattern_gives_the_plain_int_result(self, tmp_path, entry, pattern):
        expected = repr(ENTRY_POINTS[entry]((0, 1, 1), tmp_path))
        assert repr(ENTRY_POINTS[entry](pattern, tmp_path)) == expected

    def test_wrong_length_pattern_has_probability_zero(self):
        assert _Q.prob((0, 1, 1, 0)) == _Q.prob((1, 1)) == 0.0


def test_module_properties():
    check_validation_properties(seed=6)
