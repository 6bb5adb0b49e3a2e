"""Multiphoton interference sampling and the scattershot acquisition loop.

Builds exact output distributions for indistinguishable photons (permanent
of the transition submatrix) and for the distinguishable-photon reference
model with one batched Glynn engine over the shared integer pattern table
of their outcome space, draws output samples, and simulates the full
scattershot pipeline: every pulse each source may fire, heralded inputs
select a random input pattern, and events are retained when exactly
``n_select`` heralds and ``n_select`` detected output photons coincide.  A
run draws only the pairs that were created, selects the candidate pulses
from those pairs, and from there works on rows of the ``n_select``-photon
pattern table.  It goes over rounds of batches in two passes: the first
fires each batch and keeps its candidates, the second draws their outputs.
Between the passes one engine call builds every input of the round that
the run has not built yet, into one matrix of cumulative sums per run.

Retained events live in one columnar table (pulse index and pattern ids,
each distinct pattern held once) from the run, or from a read sample log,
to validation; ``SampleRecord`` lists are built from it only where the
public functions hand records in or out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DataError, ResourceLimitError
from .linalg import (
    _pattern_table,
    _PatternTable,
    _require_unitary,
    as_occupation,
    count_patterns,
    occupation_from_string,
    occupation_to_string,
)
from .permanent import _low_table
from .rng import derive_rng
from .sources import SourceParams, _draw_pairs, _Pairs

__all__ = [
    "OutcomeDistribution",
    "SampleRecord",
    "RateReport",
    "ScattershotResult",
    "exact_distribution",
    "distinguishable_distribution",
    "sample_outputs",
    "expected_rate",
    "scattershot_run",
    "write_sample_log",
    "read_sample_log",
]

MAX_EXACT_PHOTONS = 6
MAX_ENUMERATION = 1_000_000

# Pulses are processed in fixed-size batches with one RNG stream per batch,
# so results do not depend on how a run is split up.
_BATCH = 1 << 16
# Batches are drawn in rounds of this many (2**22 pulses); each round's new
# inputs are built in one engine call.  Results do not depend on it.
_ROUND = 64


class _Support(NamedTuple):
    """Outcome tuples given explicitly, with their pattern -> row index."""

    outcomes: tuple
    index: dict


class OutcomeDistribution:
    """Probability distribution over output occupation patterns.

    ``outcomes[i]`` is an occupation tuple with probability
    ``probabilities[i]``; the probabilities are non-negative and sum to 1
    within 1e-9.  Distributions from :func:`exact_distribution` and
    :func:`distinguishable_distribution` share the integer pattern table of
    their outcome space and build ``outcomes`` from it only when asked for.
    """

    def __init__(self, outcomes, probabilities):
        if isinstance(outcomes, _PatternTable):
            support, size = outcomes, len(outcomes.cols)
        else:
            outcomes = tuple(tuple(int(x) for x in o) for o in outcomes)
            support = _Support(outcomes, dict(zip(outcomes, range(len(outcomes)))))
            size = len(outcomes)
            if len(support.index) != size:
                raise ContractError("duplicate outcome pattern")
        probs = np.array(probabilities, dtype=float)  # a copy, clipped in place
        if probs.ndim != 1 or size != probs.size:
            raise ContractError("outcomes and probabilities must align")
        if probs.size == 0:
            raise ContractError("distribution must have at least one outcome")
        _check_probabilities(probs[None])
        self._support = support
        self.probabilities = probs
        self._cumulative = None

    @classmethod
    def _rows(cls, table: _PatternTable, probs: np.ndarray) -> list:
        """One distribution per row of a probability matrix over ``table``,
        checked once by :func:`_check_probabilities`; each keeps a view of
        its row."""
        dists = [cls.__new__(cls) for _ in range(len(probs))]
        for dist, row in zip(dists, _check_probabilities(probs)):
            dist._support, dist.probabilities, dist._cumulative = table, row, None
        return dists

    @property
    def outcomes(self) -> tuple:
        return self._support.outcomes

    def prob(self, pattern) -> float:
        """Probability of one pattern; 0.0 when outside the support set."""
        key = tuple(int(x) for x in pattern)
        i = self._support.index.get(key)
        return float(self.probabilities[i]) if i is not None else 0.0

    def cumulative(self) -> np.ndarray:
        if self._cumulative is None:
            cum = np.cumsum(self.probabilities)
            cum[-1] = 1.0
            self._cumulative = cum
        return self._cumulative


def _check_probabilities(probs: np.ndarray) -> np.ndarray:
    """Clip the rows of a 2-D probability array at 0 in place, and return it.

    Raises ContractError unless every entry is at least -1e-12 and every
    clipped row sums to 1 within 1e-9; a NaN fails both checks.
    """
    low = probs.min()
    if not low >= -1e-12:  # negated comparisons: a NaN fails them
        raise ContractError(f"probabilities must be non-negative numbers, got {low}")
    np.clip(probs, 0.0, None, out=probs)
    totals = probs.sum(axis=1)
    off = np.flatnonzero(~(np.abs(totals - 1.0) <= 1e-9))
    if off.size:
        raise ContractError(f"probabilities sum to {totals[off[0]]}, expected 1")
    return probs


def _guard_enumeration(modes: int, photons: int, collisions: bool, caller: str) -> None:
    if photons < 1:
        raise ContractError(f"{caller} needs at least one photon in the input")
    if photons > MAX_EXACT_PHOTONS:
        raise ResourceLimitError(
            f"{caller} handles at most {MAX_EXACT_PHOTONS} photons, got {photons}; "
            "use sampled estimates for larger systems"
        )
    size = count_patterns(modes, photons, collisions)
    if size > MAX_ENUMERATION:
        raise ResourceLimitError(
            f"enumerating {size} output patterns exceeds the {MAX_ENUMERATION} limit; "
            "use sampled estimates instead"
        )


# Inputs are built in chunks whose (outputs, 2^(n-1) * chunk) block of
# products would stay near this many bytes.
_BLOCK_BYTES = 1 << 22


def _probabilities(u: np.ndarray, inputs: np.ndarray, collisions: bool,
                   interfering: bool) -> tuple[_PatternTable, np.ndarray]:
    """Output probabilities of inputs of one photon number, by Glynn's formula.

    ``inputs`` are rows of an occupation array that all hold the same
    photon number n, and ``u`` must be a checked unitary.  Returns the
    n-photon pattern table and an unchecked (inputs, outcomes) float64
    matrix, one row per input over the table's rows.

    With r_i the rows of the source matrix (``u``, or ``|u|^2`` for
    distinguishable photons) picked by the input's photons, every output
    T's permanent is 2^-(n-1) sum_d (prod d) prod_(j in T) w_d[j] over the
    sign vectors d with d_0 = +1, where w_d = sum_i d_i r_i.  A chunk of
    inputs takes its row sums w from one sign table, laid out as (mode,
    sign vector, input); products grow along the pattern table's prefix
    tree (pattern k = its parent in the (n-1)-photon table times
    ``w[cols[k, n-1]]``), the last two levels one sign vector at a time.
    Every step is elementwise per input, so an input's probabilities do not
    depend on the chunk, or the matrix, it is built in.
    """
    caller = "exact_distribution" if interfering else "distinguishable_distribution"
    modes = u.shape[0]
    # re^2 + im^2 rather than abs()**2: keeps the n=1 case bit-identical
    # between the two models, where they coincide by definition.
    source = u if interfering else u.real**2 + u.imag**2
    n = int(inputs[0].sum())
    _guard_enumeration(modes, n, collisions, caller)
    *levels, table = [_pattern_table(modes, k, collisions) for k in range(1, n + 1)]
    signs = 1 << (n - 1)
    out = np.empty((len(inputs), len(table.cols)))
    chunk = max(1, _BLOCK_BYTES // (max(len(table.cols), 1) * signs * source.itemsize))
    for lo in range(0, len(inputs), chunk):
        occ = inputs[lo:lo + chunk]
        rows = source[np.repeat(np.tile(np.arange(modes), len(occ)), occ.ravel())]
        rows = rows.reshape(len(occ), n, modes).transpose(2, 0, 1)  # (mode, input, photon)
        sums, plus = _low_table(rows[:, :, 1:].reshape(modes * len(occ), n - 1))
        sums += rows[:, :, :1].reshape(-1, 1)
        sums = sums.reshape(modes, len(occ), signs).transpose(0, 2, 1).copy()
        terms = np.ones((1, signs, len(occ)), dtype=source.dtype)  # the empty pattern
        for level in levels[:-1]:
            terms = terms[level.parents] * sums[level.cols[:, -1]]
        halves = np.zeros((2, len(table.cols), len(occ)), dtype=source.dtype)
        # The widest two levels never exist for every sign vector at once:
        # per sign vector they stay small, and the last one is gathered
        # into reused buffers (mode="clip" lets take write to them
        # directly; every index is in range).
        parent, factor = np.empty((2, len(table.cols), len(occ)), dtype=source.dtype)
        for d in range(signs):
            prefix = terms[:, d]
            if levels:
                prefix = prefix[levels[-1].parents] * sums[levels[-1].cols[:, -1], d]
            np.take(prefix, table.parents, axis=0, out=parent, mode="clip")
            np.take(sums[:, d], table.cols[:, -1], axis=0, out=factor, mode="clip")
            parent *= factor
            halves[int(d >= plus)] += parent
        perms = (halves[0] - halves[1]) / signs
        probs = out[lo:lo + len(occ)]  # a contiguous row per input sums alike in any chunk
        if interfering:
            input_factors = [math.prod(map(math.factorial, row)) for row in occ.tolist()]
            probs[...] = ((perms.real**2 + perms.imag**2)
                          / (table.factors[:, None] * input_factors)).T
        else:
            probs[...] = (np.clip(perms, 0.0, None) / table.factors[:, None]).T
        if not collisions:
            totals = probs.sum(axis=1, keepdims=True)
            if (totals <= 0).any():
                raise ContractError("no probability mass on collision-free outputs")
            probs /= totals
    return table, out


def _distributions(u: np.ndarray, inputs: np.ndarray, collisions: bool,
                   interfering: bool) -> list:
    """One OutcomeDistribution per input (rows of an occupation array, any
    photon numbers), built by :func:`_probabilities` one photon number at a
    time."""
    photons = inputs.sum(axis=1)
    dists = [None] * len(inputs)
    for n in sorted(set(photons.tolist())):
        at = np.flatnonzero(photons == n)
        table, probs = _probabilities(u, inputs[at], collisions, interfering)
        for i, dist in zip(at, OutcomeDistribution._rows(table, probs)):
            dists[i] = dist
    return dists


def exact_distribution(unitary, input_pattern, collisions: bool = True) -> OutcomeDistribution:
    """Exact output distribution for indistinguishable photons.

    The probability of output pattern T given input S on interferometer U is
    ``|perm(U_{S,T})|^2 / (prod_i s_i! * prod_j t_j!)`` with the transition
    submatrix built by repeating rows per input and columns per output
    occupation.  With ``collisions=False`` the distribution is restricted to
    single-photon-per-mode outputs and renormalized.

    Raises
    ------
    ContractError
        If the matrix is not unitary or the input holds no photons.
    ResourceLimitError
        If the photon number or the output-pattern count exceeds the
        exact-enumeration limits.
    """
    u = _require_unitary(unitary, "exact_distribution")
    return _distributions(u, np.array([as_occupation(input_pattern, u.shape[0])]),
                          collisions, True)[0]


def distinguishable_distribution(unitary, input_pattern,
                                 collisions: bool = True) -> OutcomeDistribution:
    """Output distribution when the photons are fully distinguishable.

    Each photon routes independently with the classical transfer matrix
    ``M = |U|^2``; output pattern T has probability
    ``perm(M_{S,T}) / prod_j t_j!``.  Raises like :func:`exact_distribution`.
    """
    u = _require_unitary(unitary, "distinguishable_distribution")
    return _distributions(u, np.array([as_occupation(input_pattern, u.shape[0])]),
                          collisions, False)[0]


def sample_outputs(distribution: OutcomeDistribution, shots: int, seed: int) -> list:
    """Draw output patterns from a distribution, deterministically per seed."""
    if not 1 <= shots < 2**63:
        raise ContractError(f"shots must lie in [1, 2**63), got {shots}")
    rng = derive_rng(seed, "sample-outputs")
    cum = distribution.cumulative()
    picks = np.searchsorted(cum, rng.random(shots), side="right")
    picks = np.minimum(picks, len(cum) - 1)
    outcomes = distribution.outcomes
    return [outcomes[i] for i in picks]


@dataclass(frozen=True)
class SampleRecord:
    """One retained scattershot event.

    ``trigger`` is the herald click pattern over the sources, ``input`` the
    occupation of signal photons entering the interferometer, ``output``
    the detected occupation at the outputs, and ``pulse_index`` the pulse
    that produced the event.
    """

    trigger: tuple
    input: tuple
    output: tuple
    pulse_index: int


class _Events(NamedTuple):
    """Events as columns: the int64 ``pulse`` index and the ``trigger``,
    ``input`` and ``output`` pattern ids, rows of ``patterns``, which holds
    each distinct pattern once as a tuple of ints (unused rows allowed).  A
    scattershot run passes one array as both trigger and input ids.
    """

    pulse: np.ndarray
    trigger: np.ndarray
    input: np.ndarray
    output: np.ndarray
    patterns: tuple

    def records(self) -> list:
        """One SampleRecord per event, in table order; equal patterns share one tuple."""
        take = self.patterns.__getitem__
        return list(map(SampleRecord, map(take, self.trigger.tolist()),
                        map(take, self.input.tolist()), map(take, self.output.tolist()),
                        self.pulse.tolist()))


def _events_from_records(records: Sequence[SampleRecord]) -> _Events:
    """The event table of a record list, each distinct pattern held once."""
    ids = _Memo(lambda pattern: len(ids))  # each new pattern takes the next id

    def column(name):
        patterns = map(tuple, map(attrgetter(name), records))
        return np.fromiter(map(ids.__getitem__, patterns), dtype=np.intp, count=len(records))

    _check_pulse_indices(records)
    pulse = np.fromiter(map(attrgetter("pulse_index"), records), dtype=np.int64,
                        count=len(records))
    return _Events(pulse, column("trigger"), column("input"), column("output"), tuple(ids))


def _check_pulse_indices(records: Sequence[SampleRecord]) -> None:
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


@dataclass(frozen=True)
class RateReport:
    """Measured versus predicted retention rate of a scattershot run."""

    n: int
    retained_events: int
    pulses: int
    rate_hz: float
    predicted_rate_hz: float


@dataclass(frozen=True, eq=False)
class ScattershotResult:
    """Retained events plus the summary rate report.

    ``records`` lists one SampleRecord per retained event, in pulse order.
    The run keeps its events as a columnar table and builds that list from
    it on first access, so a caller that reads only ``report`` never pays
    for it.
    """

    _events: _Events = field(repr=False)
    report: RateReport

    @functools.cached_property
    def records(self) -> list:
        return self._events.records()


def _exactly_n_probability(selected: np.ndarray, idle: np.ndarray, n: int) -> float:
    # Mass of exactly n sources selected, source i contributing weight
    # selected[i] when selected and idle[i] otherwise, by direct convolution.
    # Reduces to C(k, n) a^n b^(k-n) when all weights are equal.
    coeff = np.zeros(n + 1)
    coeff[0] = 1.0
    for a, b in zip(selected, idle):
        upper = coeff[1:] * b + coeff[:-1] * a
        coeff[0] *= b
        coeff[1:] = upper
    return float(coeff[n])


def _common_rep_rate(params: Sequence[SourceParams]) -> float:
    rates = {p.rep_rate for p in params}
    if len(rates) != 1:
        raise ContractError("sources must share one repetition rate")
    return rates.pop()


def expected_rate(k: int, n: int, eps: float, eta: float, rep_rate: float = 80e6,
                  scattershot: bool = True) -> float:
    """Closed-form n-fold event rate in Hz.

    ``eps * eta`` is the per-pulse probability that one source delivers a
    useful (heralded and detected) photon.  A standard run with n dedicated
    sources yields ``rep_rate * (eps*eta)^n``; a scattershot run over k
    sources accepts any n of them firing, giving
    ``rep_rate * C(k, n) * (eps*eta)^n * (1 - eps*eta)^(k-n)``.
    """
    if n < 0 or k < 1:
        raise ContractError("need k >= 1 sources and n >= 0")
    if n > k:
        raise ContractError(f"n must not exceed k, got n={n}, k={k}")
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eta <= 1.0:
        raise ContractError("eps and eta must lie in [0, 1]")
    if not 0 < rep_rate < math.inf:
        raise ContractError(f"rep_rate must be finite and positive, got {rep_rate}")
    p = eps * eta
    if not scattershot:
        return rep_rate * p**n
    try:
        return rep_rate * math.comb(k, n) * p**n * (1.0 - p) ** (k - n)
    except OverflowError:  # C(k, n) beyond the float range: add the logarithms instead
        if p in (0.0, 1.0):  # a zero factor, as 0 < n < k here
            return 0.0
        return math.exp(math.log(rep_rate) + math.log(math.comb(k, n)) + n * math.log(p)
                        + (k - n) * math.log1p(-p))


def _predicted_run_rate(params: Sequence[SourceParams], n_select: int) -> float:
    """Expected retained-event rate of :func:`scattershot_run`, in Hz.

    A retained event needs n_select sources that herald and deliver a
    detected photon, eps * (eta_herald * eta_detect)^2 each, while every
    other source stays silent, 1 - eps * eta_herald * eta_detect each (the
    ``herald_probability``).  The value is exact when all ``eta_detect``
    are equal; otherwise output detection depends on where the photons
    exit, which this product does not see.
    """
    useful = np.array([p.epsilon * p.lumped_efficiency for p in params])
    idle = np.array([1.0 - p.herald_probability for p in params])
    return _common_rep_rate(params) * _exactly_n_probability(useful, idle, n_select)


def _candidate_triggers(pairs: _Pairs, pulses: int, n_select: int) -> tuple[np.ndarray, np.ndarray]:
    """Pulses that can be retained, and the sources that heralded each as
    ``(C, n_select)`` rows, ascending as the pairs are sorted by (pulse, source).

    Retention needs n_select heralds and n_select detected outputs; the
    latter is impossible unless every heralded signal survived, in which
    case the input pattern equals the trigger pattern.
    """
    pulse = pairs.pulse[pairs.heralded]
    source = pairs.source[pairs.heralded]
    heralds = np.bincount(pulse, minlength=pulses)
    heralds[pulse[~pairs.signal[pairs.heralded]]] = 0
    is_candidate = heralds == n_select
    return np.flatnonzero(is_candidate), source[is_candidate[pulse]].reshape(-1, n_select)


def scattershot_run(unitary, params: Sequence[SourceParams], pulses: int,
                    n_select: int, seed: int) -> ScattershotResult:
    """Simulate a scattershot acquisition run.

    Every pulse each of the k sources fires independently; the herald
    clicks form the trigger pattern and the surviving signal photons enter
    the interferometer (source i feeds input mode i, so k must equal the
    mode count).  Output photons are sampled from the exact interference
    distribution of the realized input and thinned by the output detector
    efficiencies.  A pulse is retained when exactly ``n_select`` heralds
    fired and exactly ``n_select`` output photons were detected.  Firing is
    drawn sparsely, pair by pair (see :func:`~multiphoton.sources._draw_pairs`).

    Pulses come in batches of 2**16, each with its own generator, and the
    batches in rounds of 64.  The first pass over a round fires each batch
    and draws its candidates' output uniforms.  A batch with candidates is
    kept as pending: its first pulse, the candidates' pulse offsets, their
    uniforms and input rows, and its generator when a detector is lossy,
    as thinning draws from it later.  One engine call then builds every
    input of the round that the run has not built yet.  Their checked
    probabilities become cumulative sums, in place, as new rows of the
    run's one cumulative matrix, which holds a row per input built.  The
    second pass sorts each pending batch's candidates by input, draws each
    input's outputs with one ``searchsorted`` on its row, and thins them.
    The pending batches are all the state a round holds, so the round size
    bounds it, whatever the run length; the matrix grows only with the
    number of distinct inputs.

    The events are kept as a columnar table; ``records`` on the result
    builds their SampleRecords on first access.  Deterministic given the
    seed, and the same for any batch or round processing order.
    """
    u = _require_unitary(unitary, "scattershot_run")
    modes = u.shape[0]
    if len(params) != modes:
        raise ContractError(
            f"one source per input mode required: {len(params)} sources, {modes} modes"
        )
    if not 1 <= n_select <= modes:
        raise ContractError(f"n_select must lie in [1, {modes}], got {n_select}")
    _guard_enumeration(modes, n_select, True, "scattershot_run")
    if pulses < 1:
        raise ContractError("pulse count must be at least 1")
    rep = _common_rep_rate(params)
    eps = np.array([p.epsilon for p in params])
    herald_prob = np.array([p.eta_herald * p.eta_detect for p in params])
    signal_prob = np.array([p.eta_herald for p in params])
    detect_prob = np.array([p.eta_detect for p in params])
    perfect_detectors = bool(np.all(detect_prob == 1.0))

    # Every candidate's trigger and drawn output hold n_select photons, so
    # events are stored as rows of that photon number's pattern table.
    table = _pattern_table(modes, n_select, True)
    built: dict = {}  # input row -> its row of cum
    cum = np.empty((0, len(table.cols)))
    pulse_parts = [np.empty(0, dtype=np.int64)]
    trigger_parts = [np.empty(0, dtype=np.intp)]
    output_parts = [np.empty(0, dtype=np.intp)]
    batches = range(0, pulses, _BATCH)
    for first in range(0, len(batches), _ROUND):
        pending = []
        for batch_index in range(first, min(first + _ROUND, len(batches))):
            start = batches[batch_index]
            size = min(_BATCH, pulses - start)
            rng = derive_rng(seed, "scattershot", batch_index)
            candidates, heralding = _candidate_triggers(
                _draw_pairs(rng, eps, herald_prob, signal_prob, size), size, n_select)
            if candidates.size:
                pending.append((start, candidates, rng.random(candidates.size),
                                table.rows(heralding), None if perfect_detectors else rng))
        if not pending:
            continue
        inputs = np.unique(np.concatenate([rows for _, _, _, rows, _ in pending]))
        new = [row for row in inputs.tolist() if row not in built]
        if new:
            _, block = _probabilities(u, table.occupations[new], True, True)
            _check_probabilities(block)
            np.cumsum(block, axis=1, out=block)
            block[:, -1] = 1.0
            built.update(zip(new, range(len(cum), len(cum) + len(new))))
            cum = np.concatenate((cum, block)) if len(cum) else block
        for start, candidates, draws, trigger_rows, rng in pending:
            # One searchsorted per distinct input, on its slice of the
            # candidates sorted by input; the last cumulative entry is 1.0,
            # so every pick is a valid outcome row.
            order = np.argsort(trigger_rows, kind="stable")
            ranked = trigger_rows[order]
            cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(order)]
            picks = np.empty(len(order), dtype=np.intp)
            for lo, hi, row in zip(cuts, cuts[1:], ranked[cuts[:-1]].tolist()):
                at = order[lo:hi]
                picks[at] = np.searchsorted(cum[built[row]], draws[at], side="right")
            if rng is not None:
                # Thinning keeps n_select photons only where it removes
                # none, so a retained output is the pattern drawn for it.
                thinned = rng.binomial(table.occupations[picks], detect_prob)
                detected = thinned.sum(axis=1) == n_select
                candidates, trigger_rows, picks = (
                    candidates[detected], trigger_rows[detected], picks[detected])
            pulse_parts.append(start + candidates)
            trigger_parts.append(trigger_rows)
            output_parts.append(picks)
    # Only the patterns the events use are kept, renumbered in table order.
    used, ids = np.unique(np.concatenate(trigger_parts + output_parts), return_inverse=True)
    trigger, output = ids.reshape(2, -1)
    patterns = tuple(map(tuple, table.occupations[used].tolist()))
    events = _Events(pulse=np.concatenate(pulse_parts), trigger=trigger, input=trigger,
                     output=output, patterns=patterns)
    retained = len(events.pulse)
    report = RateReport(
        n=n_select,
        retained_events=retained,
        pulses=pulses,
        # The product alone can overflow where the rate does not.
        rate_hz=(rep * retained / pulses if rep * retained < math.inf
                 else rep * (retained / pulses)),
        predicted_rate_hz=_predicted_run_rate(params, n_select),
    )
    return ScattershotResult(events, report)


_LOG_COLUMNS = "pulse_index,trigger_pattern,input_pattern,output_pattern"
_MAX_PULSE = str(np.iinfo(np.int64).max)  # the pulse column is int64


class _Memo(dict):
    """``convert(key)`` for each distinct key, computed on its first lookup."""

    def __init__(self, convert):
        super().__init__()
        self._convert = convert

    def __missing__(self, key):
        value = self[key] = self._convert(key)
        return value


def write_sample_log(path, records: Sequence[SampleRecord], header_lines=()) -> None:
    """Write retained events as CSV with compact occupation strings.

    Lines starting with '#' carry run metadata; the column row follows.
    A pattern is written as one ASCII digit per mode, so a mode holds at
    most 9 photons.  Each distinct pattern is validated and encoded once,
    and the file is written in one piece: a pattern that is not a sequence
    of integers from 0 to 9, or a pulse index that is not an integer in
    [0, 2**63), raises ContractError and nothing is written.
    """
    _check_pulse_indices(records)
    encoded = _Memo(occupation_to_string)
    body = "".join([
        f"{rec.pulse_index},{encoded[tuple(rec.trigger)]},"
        f"{encoded[tuple(rec.input)]},{encoded[tuple(rec.output)]}\n"
        for rec in records
    ])
    header = "".join(f"# {line}\n" for line in header_lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}{_LOG_COLUMNS}\n{body}")


def read_sample_log(path) -> list:
    """Read a sample log back into records, skipping '#' metadata lines.

    Rows hold the pulse index and the trigger, input and output patterns,
    all as ASCII digits (one per mode).  The records are a view of the
    columnar reader that ``multiphoton validate`` uses: each line is parsed
    once, each distinct pattern string is decoded once, and records with
    equal patterns share one tuple.  Raises DataError, naming the line, for
    a missing or wrong column header, a row without four fields, a field
    holding anything but ASCII digits or a pulse index beyond the int64
    range, and for text that is not UTF-8.
    """
    return _read_events(path).records()


def _read_events(path) -> _Events:
    """The event table of a sample log, with :func:`read_sample_log`'s checks."""
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
            if line != _LOG_COLUMNS:
                raise DataError(f"line {line_no}: expected column header {_LOG_COLUMNS!r}")
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
    return _Events(pulse, *columns.reshape(-1, 3).T, tuple(patterns))

