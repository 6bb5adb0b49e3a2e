"""Statistical comparison of sample streams against theory distributions.

Implements the Bhattacharyya similarity S = sum(sqrt(p_i q_i)), the total
variation distance D = (1/2) sum|p_i - q_i|, a cumulative log
likelihood-ratio test between the indistinguishable and distinguishable
photon hypotheses, and the per-trigger-group aggregation used to validate
scattershot runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, DataError, DimensionError
from .linalg import _require_unitary
from .sampling import (
    OutcomeDistribution,
    SampleRecord,
    _distributions,
    _events_from_records,
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


def _similarity(pa: np.ndarray, qa: np.ndarray) -> float:
    return math.fsum(np.sqrt(pa * qa).tolist())


def _distance(pa: np.ndarray, qa: np.ndarray) -> float:
    return 0.5 * math.fsum(np.abs(pa - qa).tolist())


def similarity(p, q) -> float:
    """Bhattacharyya similarity S = sum(sqrt(p_i q_i)) over a common support.

    Equals 1 exactly when the distributions coincide and 0 when their
    supports are disjoint.
    """
    return _similarity(*_aligned(p, q))


def tv_distance(p, q) -> float:
    """Total variation distance D = (1/2) sum|p_i - q_i| over a common support."""
    return _distance(*_aligned(p, q))


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


def _evaluate(block, oid, outputs, q_dists, p_dists) -> tuple:
    """Evaluate both hypotheses on every sample of a stream split into input blocks.

    Sample t has output ``outputs[oid[t]]`` and the models ``q_dists[block[t]]``
    and ``p_dists[block[t]]``.  Returns each sample's row in its q
    distribution (-1 outside its support) and its probability under q and p.
    Each distinct output is looked up once in each outcome table that
    evaluates it, however many samples hold it.
    """
    number: dict = {}  # each distinct outcome table -> its position in indexes
    indexes = []
    for d in (*q_dists, *p_dists):
        if id(d._support) not in number:
            number[id(d._support)] = len(indexes)
            indexes.append(d._support.index)

    def evaluate(dists):
        table = np.array([number[id(d._support)] for d in dists], dtype=np.intp)[block]
        pairs, at = np.unique(table * len(outputs) + oid, return_inverse=True)
        rows = np.array([indexes[k // len(outputs)].get(outputs[k % len(outputs)], -1)
                         for k in pairs.tolist()], dtype=np.intp)[at]
        flat = np.concatenate([d.probabilities for d in dists])
        starts = np.cumsum([0] + [d.probabilities.size for d in dists[:-1]])
        return rows, np.where(rows >= 0, flat[starts[block] + rows], 0.0)

    (rows, q_val), (_, p_val) = evaluate(q_dists), evaluate(p_dists)
    return rows, q_val, p_val


def _pooled_report(block, q_dists, rows, q_val, p_val, threshold, sample_at) -> ValidationReport:
    """Cumulative LR test and joint statistics over an evaluated sample stream.

    The first sample with a zero probability ends the test.  The joint
    similarity/distance compare the empirical (input, output) frequencies
    of the consumed samples with the model joint q_hat(i, o) = p_hat(i) * q(o | i).
    """
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
        similarity=_similarity(p_hat, q_hat),
        distance=0.5 * math.fsum(np.abs(p_hat - q_hat).tolist() + outside),
        lr_trajectory=trajectory,
        verdict=verdict,
        samples_used=total,
    )


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
    if not threshold > 0:
        raise ContractError(f"threshold must be positive, got {threshold}")
    pairs = [(inp, out) for inp, out in samples]
    if not pairs:
        raise ContractError("no samples supplied")
    (block, inputs), (oid, outputs) = map(_numbered_patterns, zip(*pairs))
    q_dists, p_dists = zip(*[(_model(q_model, inp), _model(p_model, inp)) for inp in inputs])
    return _pooled_report(block, q_dists, *_evaluate(block, oid, outputs, q_dists, p_dists),
                          threshold, lambda t: (inputs[block[t]], outputs[oid[t]]))


def _pattern_rows(patterns: tuple, ids: np.ndarray, pulse: np.ndarray) -> np.ndarray:
    """``(len(patterns), modes)`` int64 array holding the patterns named in ``ids``
    as rows; the rows of other patterns are zero.  ``pulse`` names the events."""
    used = np.unique(ids)
    try:
        rows = np.array([patterns[i] for i in used.tolist()], dtype=np.int64)
    except ValueError as exc:  # the patterns differ in length
        size = np.fromiter(map(len, patterns), np.intp, len(patterns))[ids]
        e = (size != size[0]).argmax()
        raise DataError(f"records mix pattern lengths {size[0]} and {size[e]}: the first "
                        f"record of length {size[e]} is at pulse {pulse[e]}") from exc
    table = np.zeros((len(patterns), rows.shape[1]), dtype=np.int64)
    table[used] = rows
    return table


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

    The records are validated as an event table: a view's own (from a run or
    a read log, with no record built), or one made from a record list.  Every
    step works on the table's columns; per-pattern work (photon counts, group
    order, each output's row in its model's outcome table) runs once per
    distinct pattern, not once per event.
    """
    events = _events_from_records(records)
    if not len(events.pulse):
        raise ContractError("empty record set")
    u = _require_unitary(unitary, "scattershot_aggregate_validation")
    tid, oid, patterns = events.trigger, events.output, events.patterns
    # Equal patterns share one id, so an input differs from its trigger iff its id does.
    differ = events.input != tid
    if differ.any():
        e = differ.argmax()
        raise ContractError(
            f"record at pulse {events.pulse[e]} has input {patterns[events.input[e]]} "
            f"but trigger {patterns[tid[e]]}; validation needs them equal"
        )
    triggers, outputs = (_pattern_rows(patterns, ids, events.pulse) for ids in (tid, oid))
    photons = [sum(pattern) for pattern in patterns]  # ints: int64 row sums can wrap
    level = np.unique(np.array(photons, dtype=object), return_inverse=True)[1]
    unmatched = np.flatnonzero(level[tid] != level[oid])
    if unmatched.size:
        e = unmatched[0]
        raise ContractError(
            f"record at pulse {events.pulse[e]} is not post-selected: "
            f"{photons[tid[e]]} triggers vs {photons[oid[e]]} detected photons"
        )
    if not collisions:
        kept = outputs.max(axis=1)[oid] <= 1
        tid, oid = tid[kept], oid[kept]
        if not len(tid):
            raise ContractError("no records left after removing collision outputs")
    if triggers.shape[1] != u.shape[0]:  # the check exact_distribution makes on its input
        raise DimensionError(f"occupation has {triggers.shape[1]} modes, expected {u.shape[0]}")
    # Groups in sorted trigger order, events within a group in table order.
    present = np.unique(tid)
    present = present[np.lexsort(triggers[present].T[::-1])]
    group_of = np.empty(len(patterns), dtype=np.intp)
    group_of[present] = np.arange(len(present))
    order = np.argsort(group_of[tid], kind="stable")
    block, oid = group_of[tid[order]], oid[order]
    q_dists = _distributions(u, triggers[present], collisions, True)
    p_dists = _distributions(u, triggers[present], collisions, False)
    rows, q_val, p_val = _evaluate(block, oid, patterns, q_dists, p_dists)
    if (rows < 0).any():
        raise DataError(f"sample {patterns[oid[np.argmin(rows)]]} lies outside the outcome support")
    # Each group's output counts, laid end to end like its model.
    starts = np.cumsum([0] + [q.probabilities.size for q in q_dists])
    hits = np.bincount(starts[block] + rows, minlength=starts[-1])
    groups = []
    for g, (q, count) in enumerate(zip(q_dists, np.bincount(block).tolist())):
        freq = hits[starts[g] : starts[g + 1]] / count
        groups.append(GroupValidation(trigger=patterns[present[g]], samples=count,
                                      similarity=_similarity(freq, q.probabilities),
                                      distance=_distance(freq, q.probabilities)))
    sims = np.array([g.similarity for g in groups])
    dists = np.array([g.distance for g in groups])
    spread = (
        (float(sims.std(ddof=1)), float(dists.std(ddof=1))) if len(groups) > 1 else (0.0, 0.0)
    )
    pooled = _pooled_report(block, q_dists, rows, q_val, p_val, threshold,
                            lambda t: (patterns[present[block[t]]], patterns[oid[t]]))
    return AggregateValidationReport(
        groups=tuple(groups),
        mean_similarity=float(sims.mean()),
        similarity_std=spread[0],
        mean_distance=float(dists.mean()),
        distance_std=spread[1],
        pooled=pooled,
    )
