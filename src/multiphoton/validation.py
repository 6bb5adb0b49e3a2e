"""Statistical comparison of sample streams against theory distributions.

Implements the Bhattacharyya similarity S = sum(sqrt(p_i q_i)), the total
variation distance D = (1/2) sum|p_i - q_i|, a cumulative log
likelihood-ratio test between the indistinguishable and distinguishable
photon hypotheses, and the per-trigger-group aggregation used to validate
scattershot runs, which evaluates both models only at the observed
(trigger group, output) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, DataError, DimensionError
from .linalg import _require_unitary, count_patterns
from .permanent import _CHUNK_BYTES, _pair_probabilities, _probabilities
from .sampling import (
    OutcomeDistribution,
    SampleRecord,
    _events_from_records,
    _guard_enumeration,
    _numbered_patterns,
)

__all__ = [
    "ValidationReport",
    "GroupValidation",
    "AggregateValidationReport",
    "empirical_distribution",
    "similarity",
    "tv_distance",
    "likelihood_ratio_test",
    "scattershot_aggregate_validation",
]

VERDICTS = ("indistinguishable", "distinguishable", "inconclusive")

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of comparing a sample stream against the two hypotheses.

    ``similarity`` and ``distance`` compare the empirical distribution with
    the indistinguishable-hypothesis model; ``lr_trajectory`` holds the
    cumulative log likelihood ratio after each consumed sample.
    """

    similarity: float
    distance: float
    lr_trajectory: np.ndarray
    verdict: str
    samples_used: int

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ContractError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")
        if len(self.lr_trajectory) != self.samples_used:
            raise ContractError("trajectory length must equal samples_used")


@dataclass(frozen=True)
class GroupValidation:
    """Similarity and distance of one trigger group against its exact model."""

    trigger: tuple
    samples: int
    similarity: float
    distance: float


@dataclass(frozen=True)
class AggregateValidationReport:
    """Per-trigger-group statistics plus the pooled report.

    ``mean_similarity`` and ``mean_distance`` average the per-group values;
    the spreads are sample standard deviations across groups.  ``pooled``
    carries the joint similarity/distance over all (trigger, output) pairs
    and the pooled likelihood-ratio verdict.
    """

    groups: tuple
    mean_similarity: float
    similarity_std: float
    mean_distance: float
    distance_std: float
    pooled: ValidationReport

    @property
    def group_count(self) -> int:
        return len(self.groups)


def _keys_and_values(dist):
    if isinstance(dist, OutcomeDistribution):
        return dist.outcomes, dist.probabilities
    if isinstance(dist, Mapping):
        return tuple(dist), np.array(list(dist.values()), dtype=float)
    raise ContractError(f"expected a distribution or mapping, got {type(dist).__name__}")


def _aligned(p, q) -> tuple:
    """Probability arrays of ``p`` and ``q`` over their common support, in p's order."""
    (p_keys, pa), (q_keys, qa) = _keys_and_values(p), _keys_and_values(q)
    if q_keys != p_keys:
        row = dict(zip(q_keys, range(len(q_keys))))
        if row.keys() != set(p_keys):
            raise ContractError("distributions are over different outcome sets")
        qa = qa[[row[key] for key in p_keys]]
    for name, values in (("first", pa), ("second", qa)):
        if not np.isfinite(values).all():  # fsum raises a plain ValueError on inf + -inf
            raise ContractError(f"{name} distribution has a non-finite entry")
        total = math.fsum(values.tolist())
        if not abs(total - 1.0) <= _NORM_TOL:
            raise ContractError(f"{name} distribution sums to {total}, expected 1")
        if not values.min() >= 0:
            raise ContractError(f"{name} distribution has a negative entry")
    return pa, qa


def similarity(p, q) -> float:
    """Bhattacharyya similarity S = sum(sqrt(p_i q_i)) over a common support.

    Equals 1 exactly when the distributions coincide and 0 when their
    supports are disjoint.
    """
    pa, qa = _aligned(p, q)
    return math.fsum(np.sqrt(pa * qa).tolist())


def tv_distance(p, q) -> float:
    """Total variation distance D = (1/2) sum|p_i - q_i| over a common support."""
    pa, qa = _aligned(p, q)
    return 0.5 * math.fsum(np.abs(pa - qa).tolist())


def _rows(index: dict, patterns) -> np.ndarray:
    """Row of each pattern in ``index``; -1 where it has none."""
    return np.fromiter(map(index.get, patterns, itertools.repeat(-1)), dtype=np.intp)


def empirical_distribution(patterns, support) -> dict:
    """Plug-in frequency distribution over a fixed outcome support.

    ``support`` is an OutcomeDistribution or an iterable of patterns; every
    sample must fall inside it (no smoothing is applied, unseen outcomes
    keep frequency zero).
    """
    if isinstance(support, OutcomeDistribution):
        keys, index = support.outcomes, support._support.index
    else:
        ids, keys = _numbered_patterns(support)
        if len(keys) != len(ids):
            raise ContractError("support contains duplicate patterns")
        index = dict(zip(keys, range(len(keys))))
    sid, samples = _numbered_patterns(patterns)
    if not len(sid):
        raise DataError("no samples provided")
    rows = _rows(index, samples)[sid]
    if (rows < 0).any():
        raise DataError(f"sample {samples[sid[np.argmin(rows)]]} lies outside the outcome support")
    return dict(zip(keys, (np.bincount(rows, minlength=len(keys)) / len(rows)).tolist()))


def _model(model, input_pattern) -> OutcomeDistribution:
    if not (isinstance(model, OutcomeDistribution) or callable(model)):
        raise ContractError("hypothesis model must be a distribution or a per-input callable")
    dist = model if isinstance(model, OutcomeDistribution) else model(input_pattern)
    if not isinstance(dist, OutcomeDistribution):
        raise ContractError("model oracle must return an OutcomeDistribution")
    return dist


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys in [0, bound], cast to the
    smallest unsigned dtype that holds ``bound``: numpy radix-sorts up to 16 bits."""
    return np.argsort(keys.astype(np.min_scalar_type(bound)), kind="stable")


def _numbered_pairs(block, oid, outputs: int) -> tuple:
    """Number the distinct (block, output) pairs of a sample stream in block
    order: each sample's pair, then each pair's block and output id."""
    pairs, pair = np.unique(block * outputs + oid, return_inverse=True)
    return (pair, *np.divmod(pairs, outputs))


def _evaluate(block, oid, outputs, q_dists, p_dists) -> tuple:
    """Each sample's pair (:func:`_numbered_pairs`) of input block
    ``block[t]`` and output ``outputs[oid[t]]``, each pair's block, and its
    probability in its block's q and p distributions, looked up once each
    (0.0 outside a support)."""
    pair, group, output = _numbered_pairs(block, oid, len(outputs))
    keys = list(zip(group.tolist(), map(outputs.__getitem__, output.tolist())))

    def look_up(dists):
        rows = [dists[g]._support.index.get(out) for g, out in keys]
        return np.array([0.0 if row is None else dists[g].probabilities[row]
                         for (g, _), row in zip(keys, rows)])

    return pair, group, look_up(q_dists), look_up(p_dists)


def _statistics(f, q, cuts) -> tuple[list, list]:
    """Similarity and distance of frequencies ``f`` against probabilities
    ``q`` given at the observed outcomes alone, per segment cuts[i]:cuts[i+1]:
    unobserved outcomes add exact zeros to S = sum sqrt(f q) and their q to
    D, so D = (1 + sum (|f - q| - q)) / 2 = (1 + sum max(f - 2q, -f)) / 2."""
    roots, terms = np.sqrt(f * q).tolist(), np.maximum(f - 2 * q, -f).tolist()
    bounds = list(zip(cuts, cuts[1:]))
    return ([math.fsum(roots[a:b]) for a, b in bounds],
            [0.5 * math.fsum([1.0, *terms[a:b]]) for a, b in bounds])


def _check_threshold(threshold) -> None:
    if not threshold > 0:  # a NaN fails it too
        raise ContractError(f"threshold must be positive, got {threshold}")


def _pooled_report(pair, group, q, p, threshold, sample_at) -> ValidationReport:
    """Cumulative LR test and joint statistics over an evaluated sample stream.

    Sample t is pair ``pair[t]``; pair k has block ``group[k]`` and the
    probabilities ``q[k]`` and ``p[k]``.  The first sample with a zero
    probability ends the test.  The joint similarity/distance compare the
    empirical (input, output) frequencies of the consumed samples with the
    model joint q_hat(i, o) = p_hat(i) * q(o | i).
    """
    q_val, p_val = q[pair], p[pair]
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
    hits = np.bincount(pair[:total], minlength=len(q))
    seen = np.flatnonzero(hits)
    weights = np.bincount(group[seen], hits[seen]) / total  # each block's share of the samples
    # A deciding sample outside its q support has q = 0 and adds its frequency alone.
    (sim,), (dist,) = _statistics(hits[seen] / total, weights[group[seen]] * q[seen],
                                  [0, len(seen)])
    return ValidationReport(similarity=sim, distance=dist, lr_trajectory=trajectory,
                            verdict=verdict, samples_used=total)


def likelihood_ratio_test(samples, q_model, p_model, threshold: float = 5.0) -> ValidationReport:
    """Cumulative log likelihood-ratio test between two hypotheses.

    ``samples`` is a sequence of (input, output) pattern pairs; ``q_model``
    and ``p_model`` give the per-input output distributions under the
    indistinguishable and distinguishable hypotheses (either a single
    distribution applied to every input, or a callable mapping an input
    pattern to one).  The statistic ``L_t = sum_{i<=t} ln(q(x_i)/p(x_i))``
    is accumulated over all samples; the verdict is ``indistinguishable``
    when the final value exceeds ``threshold``, ``distinguishable`` below
    ``-threshold``, otherwise ``inconclusive``.  A sample with probability
    zero under exactly one hypothesis decides immediately for the other;
    zero under both is an impossible event and raises DataError.
    """
    _check_threshold(threshold)
    pairs = [(inp, out) for inp, out in samples]
    if not pairs:
        raise ContractError("no samples supplied")
    (block, inputs), (oid, outputs) = map(_numbered_patterns, zip(*pairs))
    q_dists, p_dists = zip(*[(_model(q_model, inp), _model(p_model, inp)) for inp in inputs])
    return _pooled_report(*_evaluate(block, oid, outputs, q_dists, p_dists), threshold,
                          lambda t: (inputs[block[t]], outputs[oid[t]]))


def scattershot_aggregate_validation(records: Sequence[SampleRecord], unitary,
                                     collisions: bool = True,
                                     threshold: float = 5.0) -> AggregateValidationReport:
    """Validate a scattershot record set against the exact theory per input.

    Records are grouped by trigger pattern, which must equal their input
    pattern (ContractError otherwise); each group's empirical output
    distribution is compared with ``exact_distribution`` for that input
    (similarity and distance), and all samples feed one pooled
    likelihood-ratio test against the distinguishable hypothesis.  With
    ``collisions=False`` the analysis restricts to collision-free outputs.
    The group statistics do not depend on record order; the pooled test and
    its ``lr_trajectory`` take the records by sorted trigger pattern, and in
    their given order within a trigger group.

    Each distinct pattern of the event table is checked once, and both
    models are evaluated only at the distinct (group, output) pairs the
    records hold (``permanent._pair_probabilities``), so memory and time grow
    with the pairs observed, not with the groups times the outcomes.  With
    ``collisions=False`` each group's probabilities are divided by its
    collision-free masses, summed from the engine's rows a chunk of groups
    at a time.
    """
    _check_threshold(threshold)
    events = _events_from_records(records)
    if not len(events.pulse):
        raise ContractError("empty record set")
    u = _require_unitary(unitary, "scattershot_aggregate_validation")
    modes = u.shape[0]
    tid, oid, patterns = events.trigger, events.output, events.patterns
    # Equal patterns share one id, so an input differs from its trigger iff its id does.
    differ = events.input != tid
    if differ.any():
        e = differ.argmax()
        raise ContractError(
            f"record at pulse {events.pulse[e]} has input {patterns[events.input[e]]} "
            f"but trigger {patterns[tid[e]]}; validation needs them equal")
    size = np.fromiter(map(len, patterns), np.intp, len(patterns))
    for lengths in (size[tid], size[oid]):
        e = (lengths != lengths[0]).argmax()
        if e:
            raise DataError(f"records mix pattern lengths {lengths[0]} and {lengths[e]}: the first "
                            f"record of length {lengths[e]} is at pulse {events.pulse[e]}")
    photons = [sum(pattern) for pattern in patterns]  # Python ints, which cannot wrap
    numbers, level = np.unique(np.array(photons, dtype=object), return_inverse=True)
    unmatched = np.flatnonzero(level[tid] != level[oid])
    if unmatched.size:
        e = unmatched[0]
        raise ContractError(
            f"record at pulse {events.pulse[e]} is not post-selected: "
            f"{photons[tid[e]]} triggers vs {photons[oid[e]]} detected photons")
    if not collisions:
        kept = np.array([max(pattern, default=0) <= 1 for pattern in patterns])[oid]
        tid, oid = tid[kept], oid[kept]
        if not len(tid):
            raise ContractError("no records left after removing collision outputs")
    if size[tid[0]] != modes:  # the check exact_distribution makes on its input
        raise DimensionError(f"occupation has {size[tid[0]]} modes, expected {modes}")
    # Groups in sorted trigger tuple order, events within a group in table order.
    tally = np.bincount(tid, minlength=len(patterns))
    present = sorted(np.flatnonzero(tally).tolist(), key=patterns.__getitem__)
    group_of = np.empty(len(patterns), dtype=np.intp)
    group_of[present] = np.arange(len(present))
    oid, counts = oid[_stable_order(group_of[tid], len(present))], tally[present]
    if size[oid[0]] != modes:  # an n-photon output over the modes lies in the support
        raise DataError(f"sample {patterns[oid[0]]} lies outside the outcome support")
    group_level = level[present]
    levels = np.unique(group_level).tolist()
    for k in levels:  # every limit is refused before any pair is evaluated
        _guard_enumeration(modes, numbers[k], collisions, "exact_distribution")
    block = np.repeat(np.arange(len(present)), counts)
    pair, group, output = _numbered_pairs(block, oid, len(patterns))
    occupations = np.array(patterns, dtype=np.intp)
    triggers, q, p = occupations[present], np.empty(len(group)), np.empty(len(group))
    for k in levels:
        at = np.flatnonzero(group_level[group] == k)
        q[at], p[at] = _pair_probabilities(u, triggers, occupations, group[at], output[at])
    if not collisions:  # divided by each group's collision-free masses, a chunk at a time
        for values, interfering in ((q, True), (p, False)):
            mass = np.empty(len(present))
            for k in levels:
                groups = np.flatnonzero(group_level == k)
                step = max(1, _CHUNK_BYTES // (8 * count_patterns(modes, numbers[k], False)))
                for chunk in np.split(groups, range(step, len(groups), step)):
                    mass[chunk] = _probabilities(u, triggers[chunk], False,
                                                 interfering)[1].sum(axis=1)
            if not (mass > 0).all():
                raise ContractError("no probability mass on collision-free outputs")
            values /= mass[group]
    pooled = _pooled_report(pair, group, q, p, threshold,
                            lambda t: (patterns[present[block[t]]], patterns[oid[t]]))
    freq = np.bincount(pair, minlength=len(group)) / counts[group]
    cuts = np.searchsorted(group, np.arange(len(present) + 1)).tolist()
    sims, dists = map(np.array, _statistics(freq, q, cuts))
    groups = tuple(map(GroupValidation, map(patterns.__getitem__, present), counts.tolist(),
                       sims.tolist(), dists.tolist()))
    spread = (float(sims.std(ddof=1)), float(dists.std(ddof=1))) if len(groups) > 1 else (0.0, 0.0)
    return AggregateValidationReport(
        groups=groups, mean_similarity=float(sims.mean()), similarity_std=spread[0],
        mean_distance=float(dists.mean()), distance_std=spread[1], pooled=pooled)
