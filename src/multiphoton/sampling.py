"""Multiphoton interference sampling and the scattershot acquisition loop.

Draws and stores samples on the permanent kernels of ``permanent``.  It
builds exact output distributions for indistinguishable photons and for
the distinguishable-photon reference model, each by one call of the
batched Glynn engine (``permanent._probabilities``), draws output samples
from them, and simulates the scattershot pipeline: every pulse each source
may fire, heralded inputs select a random input pattern, and events are
retained when exactly ``n_select`` heralds and ``n_select`` detected output
photons coincide.  A run draws only the candidate pulses, where exactly
``n_select`` sources herald a surviving signal and the rest stay silent:
per batch a binomial count, their pulse offsets and each one's heralding
set, a row of the ``n_select``-photon pattern table.  Each batch is drawn
in one pass, its outputs right after its candidates.  Where a batch expects
many candidates per input, one engine call per run builds every input into
one matrix of cumulative sums, from which one guided search per batch
draws every output; where a run meets many inputs for a few events each,
each candidate's output is drawn on its own by Clifford & Clifford's
algorithm B (``permanent._per_event_outputs``), at a cost per event.

Retained events live in one columnar table (pulse index and pattern ids,
each distinct pattern held once) from the run, or from a read sample log,
to validation and the log writer; the public functions hand them out as a
read-only sequence of ``SampleRecord``s over that table, which builds a
record only when one is asked for.
"""

from __future__ import annotations

import collections
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ContractError, DataError, ResourceLimitError
from .linalg import (
    _beyond_str_digits,
    _log_comb,
    _pattern_table,
    _require_unitary,
    as_occupation,
    count_patterns,
    occupation_to_string,
)
from .permanent import _per_event_outputs, _probabilities
from .rng import _require_integer, derive_rng
from .sources import SourceParams

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
# so results do not depend on how a run is split up.  A batch costs one
# generator derivation (about 16 us) and five generator calls whatever its
# size, which long, mostly empty runs pay per batch; its memory is its
# candidates plus, once they exceed 1/50 of the batch, the index that
# ``Generator.choice`` shuffles, 8 B per pulse.  2**20 pulses amortise the
# derivation yet cap that index at 8 MiB.
_BATCH = 1 << 20
# A run builds output tables when a batch expects each input it may meet to
# draw e candidates with K / e <= _OUTCOMES_PER_EVENT, K the outcome count, so
# that a table costs at most that many outcomes per event; otherwise it draws
# each candidate's output on its own (``_per_event_path``).  On 2 cores the
# paths cross near K/e = 20, and 16 caps the cumulative matrix at 128 MiB:
#   median ms                        tables  per event    K/e
#   dense m=8, n=4, 2e5 pulses         19.7       69.2    0.4
#   bright m=16, n=3, 2e5 pulses       36.6       41.3     17
#   bright m=15, n=3, 1e5 pulses       23.4       24.4     21
#   bright m=11, n=4, 1e5 pulses       33.8       25.9     26
#   faint m=12, n=3, 1e6 pulses        1.00       0.39   3104
_OUTCOMES_PER_EVENT = 16


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
        ids, outcomes = _numbered_patterns(outcomes)
        if len(outcomes) != len(ids):
            raise ContractError("duplicate outcome pattern")
        probs = np.array(probabilities, dtype=float)  # a copy, clipped in place
        if probs.ndim != 1 or len(ids) != probs.size:
            raise ContractError("outcomes and probabilities must align")
        if probs.size == 0:
            raise ContractError("distribution must have at least one outcome")
        _check_probabilities(probs[None])
        self._support = _Support(outcomes, dict(zip(outcomes, range(len(outcomes)))))
        self.probabilities = probs
        self._cumulative = None

    @property
    def outcomes(self) -> tuple:
        return self._support.outcomes

    def prob(self, pattern) -> float:
        """Probability of one pattern; 0.0 when outside the support set."""
        i = self._support.index.get(as_occupation(pattern))
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


def _distribution(u: np.ndarray, input_pattern, collisions: bool,
                  interfering: bool) -> OutcomeDistribution:
    """One input's OutcomeDistribution on the shared pattern table, by
    :func:`_probabilities`; with ``collisions=False`` divided by its sum."""
    occ = np.array([as_occupation(input_pattern, u.shape[0])])
    caller = "exact_distribution" if interfering else "distinguishable_distribution"
    _guard_enumeration(u.shape[0], int(occ.sum()), collisions, caller)
    table, probs = _probabilities(u, occ, collisions, interfering)
    if not collisions:
        total = probs.sum(axis=1, keepdims=True)
        if total <= 0:
            raise ContractError("no probability mass on collision-free outputs")
        probs /= total
    dist = OutcomeDistribution.__new__(OutcomeDistribution)
    dist._support, dist._cumulative = table, None
    dist.probabilities = _check_probabilities(probs)[0]
    return dist


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
    return _distribution(u, input_pattern, collisions, True)


def distinguishable_distribution(unitary, input_pattern,
                                 collisions: bool = True) -> OutcomeDistribution:
    """Output distribution when the photons are fully distinguishable.

    Each photon routes independently with the classical transfer matrix
    ``M = |U|^2``; output pattern T has probability
    ``perm(M_{S,T}) / prod_j t_j!``.  Raises like :func:`exact_distribution`.
    """
    u = _require_unitary(unitary, "distinguishable_distribution")
    return _distribution(u, input_pattern, collisions, False)


def _sample_picks(distribution: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """The rows of ``distribution.outcomes`` that :func:`sample_outputs` draws."""
    _require_integer("shots", shots)
    if not 1 <= shots < 2**63:
        raise ContractError(f"shots must lie in [1, 2**63), got {shots}")
    rng = derive_rng(seed, "sample-outputs")
    # The last cumulative entry is 1.0, so every pick is a valid outcome row.
    return np.searchsorted(distribution.cumulative(), rng.random(shots), side="right")


def sample_outputs(distribution: OutcomeDistribution, shots: int, seed: int) -> list:
    """Draw output patterns from a distribution, deterministically per seed."""
    outcomes = distribution.outcomes
    return [outcomes[i] for i in _sample_picks(distribution, shots, seed)]


def _shot_records(distribution: OutcomeDistribution, pattern: tuple, shots: int,
                  seed: int) -> _RecordView:
    """The draw of :func:`sample_outputs` as records, none of them built: shot
    i is an event at pulse i whose trigger and input are ``pattern``, its
    outcome row or, when it is none, a row after the outcomes."""
    picks = _sample_picks(distribution, shots, seed)
    outcomes = distribution.outcomes
    shot = np.full(shots, distribution._support.index.get(pattern, len(outcomes)))
    return _RecordView(_Events(np.arange(shots), shot, shot, picks, (*outcomes, pattern)))


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
    each distinct pattern the events use once, checked where the table is
    made (unused rows allowed).  A scattershot run passes one array as both
    trigger and input ids.
    """

    pulse: np.ndarray
    trigger: np.ndarray
    input: np.ndarray
    output: np.ndarray
    patterns: tuple


class _RecordView(Sequence):
    """A read-only sequence of SampleRecords over an event table: an index
    builds one record, a slice is a view of the sliced columns, iteration
    builds the records in bulk, and a view equals a list or view of equal
    records in the same order."""

    __slots__ = ("_events",)

    def __init__(self, events: _Events):
        self._events = events

    def __len__(self) -> int:
        return len(self._events.pulse)

    def __getitem__(self, index):
        events = self._events
        if isinstance(index, slice):
            return _RecordView(_Events(*(c[index] for c in events[:4]), events.patterns))
        i = range(len(self))[index]  # list semantics: negative indices, IndexError
        return next(iter(self[i:i + 1]))

    def __iter__(self):
        """The records in table order, built in bulk; equal patterns share one tuple."""
        pulse, *ids, patterns = self._events
        return map(SampleRecord, *(map(patterns.__getitem__, i.tolist()) for i in ids),
                   pulse.tolist())

    def __eq__(self, other):
        if not isinstance(other, (list, _RecordView)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


def _events_from_records(records: Sequence[SampleRecord], convert=as_occupation) -> _Events:
    """The event table of records: a view's own table, or for other records
    one with each distinct pattern checked and held once as ``convert``
    returns it, numbered in record order."""
    if isinstance(records, _RecordView):
        return records._events
    fields = list(itertools.chain.from_iterable(
        map(attrgetter("pulse_index", "trigger", "input", "output"), records)))
    pulse = _pulse_column(fields[::4])
    del fields[::4]  # the patterns are left, three per record
    ids, patterns = _numbered_patterns(fields, convert)
    return _Events(pulse, *ids.reshape(-1, 3).T, patterns)


def _pulse_column(pulses: list) -> np.ndarray:
    """Pulse indices as the int64 pulse column; ContractError unless every
    one is an integer, not a bool, in [0, 2**63)."""
    if not set(map(type, pulses)) <= {int}:
        for value in pulses:
            _require_integer("pulse index", value)
        pulses = list(map(int, pulses))  # numpy integers compare exactly as ints
    if pulses and not 0 <= min(pulses) <= max(pulses) < 2**63:
        value = min(pulses) if min(pulses) < 0 else max(pulses)
        raise ContractError(f"pulse index out of range [0, 2**63): {value}")
    return np.array(pulses, dtype=np.int64)


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

    ``records`` holds one SampleRecord per retained event, in pulse order,
    as a read-only sequence over the run's columnar event table: it builds
    a record only when one is indexed or iterated, so slicing it, writing
    it with :func:`write_sample_log` or validating it builds none.
    """

    records: _RecordView = field(repr=False)
    report: RateReport


def _exactly_n_probability(selected: Sequence[float], idle: Sequence[float], n: int) -> float:
    # Mass of exactly n sources selected, source i contributing weight
    # selected[i] when selected and idle[i] otherwise, by direct convolution
    # on Python floats.  Reduces to C(k, n) a^n b^(k-n) when all weights are equal.
    coeff = [1.0] + [0.0] * n
    for a, b in zip(selected, idle):
        coeff = [coeff[0] * b] + [hi * b + lo * a for lo, hi in zip(coeff, coeff[1:])]
    return coeff[n]


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
    if _log_comb(k, n) < 309 * math.log(10):  # else C(k, n) is beyond the float range
        try:
            rate = rep_rate * math.comb(k, n) * p**n * (1.0 - p) ** (k - n)
        except OverflowError:
            pass
        else:
            if math.isfinite(rate):  # rep_rate * C(k, n) alone can overflow to inf
                return rate
    if p in (0.0, 1.0):  # a zero factor, as 0 < n < k here
        return 0.0
    # C(k, n) itself only while str() could print it: beyond, it costs seconds or more.
    log_comb = _log_comb(k, n) if _beyond_str_digits(k, n) else math.log(math.comb(k, n))
    return math.exp(math.log(rep_rate) + log_comb + n * math.log(p) + (k - n) * math.log1p(-p))


def _predicted_retention(params: Sequence[SourceParams], n_select: int) -> float:
    """Expected share of :func:`scattershot_run`'s pulses that are retained.

    A retained event needs n_select sources that herald and deliver a
    detected photon, eps * (eta_herald * eta_detect)^2 each, while every
    other source stays silent, 1 - eps * eta_herald * eta_detect each (the
    ``herald_probability``).  The value is exact when all ``eta_detect``
    are equal; otherwise output detection depends on where the photons
    exit, which this product does not see.
    """
    useful = [p.epsilon * p.lumped_efficiency for p in params]
    idle = [1.0 - p.herald_probability for p in params]
    return _exactly_n_probability(useful, idle, n_select)


class _CandidateDraw(NamedTuple):
    """The per-batch draw of candidate pulses, where exactly n sources are
    good and the rest silent (see :func:`_candidate_draw`), with
    ``probability`` P_cand.  A candidate's heralding set S has probability
    proportional to prod_{i in S} g_i * prod_{i not in S} w_i (conditional
    Poisson sampling: Chen, Dempster & Liu, Biometrika 81 (1994) 457);
    ``cumulative`` sums those normalised weights over the collision-free
    n-subsets, and ``rows`` holds each subset's row of the n-photon pattern
    table with collisions.
    """

    probability: float
    cumulative: np.ndarray
    rows: np.ndarray

    def fire(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pulse offsets of one batch of ``size`` pulses,
        ascending, and each one's heralding set, an index into ``rows``: a
        binomial count, the offsets, then the sets, in that order from ``rng``."""
        count = rng.binomial(size, self.probability) if self.probability else 0
        offsets = np.sort(rng.choice(size, count, replace=False))
        return offsets, np.searchsorted(self.cumulative, rng.random(count), side="right")


def _candidate_draw(params: Sequence[SourceParams], n: int) -> _CandidateDraw:
    """The candidate draw of n heralds from these sources.  Per pulse,
    source i is good, heralded with a surviving signal, with probability
    ``g_i = epsilon * (eta_herald * eta_detect) * eta_herald``; silent, not
    heralded, with ``w_i = 1 - epsilon * eta_herald * eta_detect``; and
    otherwise a spoiler, heralded with its signal lost."""
    heralded = np.array([p.herald_probability for p in params])
    good, silent = heralded * np.array([p.eta_herald for p in params]), 1.0 - heralded
    modes = len(params)
    subsets = _pattern_table(modes, n, False).cols
    # segment[a, b] is the product of silent[a:b], so a subset's weight is
    # the products over the gaps between its sorted columns times its good
    # entries, in O(C n) memory and exact where some silent entry is 0.
    # Row a's products run over 1s then silent[a:], so they are the same
    # floats as a product over silent[a:] alone.
    factors = np.ones((modes + 1, modes + 1))
    factors[:, 1:] = np.where(np.arange(modes) >= np.arange(modes + 1)[:, None], silent, 1.0)
    segment = np.cumprod(factors, axis=1)
    starts, ends = np.zeros((2, len(subsets), n + 1), dtype=np.intp)
    starts[:, 1:], ends[:, :-1], ends[:, -1] = subsets + 1, subsets, modes
    gaps = segment[starts, ends]
    weights = gaps.prod(axis=1) * good[subsets].prod(axis=1)
    cumulative = np.cumsum(weights)
    if cumulative[-1] > 0.0:
        # x / x is exactly 1.0, so the last entry and the zero-weight subsets
        # after the last positive one read 1.0 and are never picked
        cumulative /= cumulative[-1]
    return _CandidateDraw(min(float(weights.sum()), 1.0), cumulative,
                          _pattern_table(modes, n, True).rows(subsets))


def _per_event_path(draw: _CandidateDraw, modes: int, n: int, pulses: int) -> bool:
    """Whether a run of ``pulses`` draws its outputs per event: when e * T < K,
    with e = P_cand * min(pulses, _BATCH) / C(modes, n) the expected
    candidates per input in a batch, T = ``_OUTCOMES_PER_EVENT`` and K the
    outcome count.  It reads no random number, so every batch takes one path."""
    events = draw.probability * min(pulses, _BATCH) / math.comb(modes, n)
    return events * _OUTCOMES_PER_EVENT < math.comb(modes + n - 1, n)


def _guide_table(cum: np.ndarray) -> tuple[np.ndarray, int]:
    """Chen & Asau's guide table (Devroye 1986, III.2.4) to the rows of a cumulative
    matrix: ``guide[r, b]`` counts row r's entries <= b / B, capped at K - 1, as
    ceil(cum * B) <= b, exact for B the largest power of two <= K.  Its widest
    bucket takes ``steps`` halvings."""
    rows, k = cum.shape
    scale = 1 << (k.bit_length() - 1)
    slots = np.minimum(np.ceil(cum * scale), scale).astype(np.intp)  # cum may pass 1.0 by 1e-9
    slots += np.arange(0, rows * (scale + 1), scale + 1)[:, None]
    guide = np.bincount(slots.ravel(), minlength=rows * (scale + 1)).reshape(rows, -1)
    guide = np.minimum(np.cumsum(guide, axis=1), k - 1).astype(np.int32)
    return guide, int(np.diff(guide, axis=1).max(initial=0)).bit_length()


def _guided_search(cum: np.ndarray, guide: np.ndarray, steps: int, rows, draws) -> np.ndarray:
    """``np.searchsorted(cum[r], u, side="right")`` for each row r and draw u in
    [0, 1), by one binary search of every draw at once in its guide bucket
    floor(u * B).  Entry K - 1 of a row is 1.0 > u, so no search passes it."""
    at = rows * guide.shape[1] + (draws * (guide.shape[1] - 1)).astype(np.intp)
    lo, hi = guide.ravel()[at], guide.ravel()[at + 1]
    flat, base = cum.ravel(), rows * cum.shape[1]
    for _ in range(steps):
        mid = (lo + hi) >> 1
        right = flat[base + mid] <= draws
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
    return lo


def scattershot_run(unitary, params: Sequence[SourceParams], pulses: int,
                    n_select: int, seed: int) -> ScattershotResult:
    """Simulate a scattershot acquisition run.

    Every pulse each of the k sources fires independently; the herald
    clicks form the trigger pattern and the surviving signal photons enter
    the interferometer (source i feeds input mode i, so k must equal the
    mode count).  Output photons are sampled from the exact interference
    distribution of the realized input and thinned by the output detector
    efficiencies.  A pulse is retained when exactly ``n_select`` heralds
    fired and exactly ``n_select`` output photons were detected.  That
    needs every heralded signal to survive, so only such candidate pulses
    are drawn, never the pairs (see :func:`_candidate_draw`).

    Pulses come in batches of 2**20, each drawn in one pass from its own
    generator: the candidate count ~ Binomial(size, P_cand), their pulse
    offsets without replacement, each one's heralding set by one
    ``searchsorted`` on the cumulative subset weights, then the candidates'
    output uniforms, one each for tables and 2 * n_select per event, and
    their outputs.  The outputs are thinned by the same generator when a
    detector is lossy.  The run takes one path throughout, chosen from
    the sources, m, n and min(pulses, 2**20) alone (``_per_event_path``):
    tables where a batch expects each input to draw at least K/16
    candidates, K the outcome count, and the per-event draw otherwise.

    * Output tables: one engine call per run, before the first batch,
      builds every input, one per heralding set.  Their checked
      probabilities become cumulative sums, in place, the rows of the
      run's one cumulative matrix, with a guide table to it; each batch
      draws its outputs in one binary search over every candidate, each
      in its guide bucket (``_guided_search``).  Cheapest where inputs
      repeat often.  The rule caps the matrix, C(m, n) rows of K, at 128 MiB.
    * Per event: one call per batch draws its candidates' outputs by
      Clifford & Clifford's algorithm B (see ``_per_event_outputs``), in
      chunks of a fixed number of events, with no table of probabilities.
      Each chunk draws its uniforms right before its kernel runs, so the
      stream is that of one draw per batch.  Its cost grows with the
      events, not with the distinct inputs.

    Besides its events, the cumulative matrix and guide, a run holds one
    batch's candidates at a time, so its working state does not grow with
    its length.  A per-event batch holds only its candidates' integer
    columns: pulse offsets, heralding sets, and input and output rows of the
    pattern table.  Its floats live in one chunk of events at a time.

    The events are kept as a columnar table; ``records`` on the result is
    a read-only view of it.  Deterministic given the seed, and the same for
    any batch processing order.  ``pulses`` and ``n_select`` must be ints
    or numpy integers, not bools, and every source a SourceParams.
    """
    _require_integer("pulses", pulses)
    _require_integer("n_select", n_select)
    for i, p in enumerate(params):
        if not isinstance(p, SourceParams):
            raise ContractError(f"source {i} must be a SourceParams, got {p!r}")
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
    draw = _candidate_draw(params, n_select)
    detect_prob = np.array([p.eta_detect for p in params])
    perfect_detectors = all(p.eta_detect == 1.0 for p in params)

    # Every candidate's trigger and drawn output hold n_select photons, so
    # events are stored as rows of that photon number's pattern table.
    table = _pattern_table(modes, n_select, True)
    per_event = _per_event_path(draw, modes, n_select, pulses)
    if not per_event:  # row i: the cumulative output sums of heralding set i
        _, cum = _probabilities(u, table.occupations[draw.rows], True, True)
        _check_probabilities(cum)
        np.cumsum(cum, axis=1, out=cum)
        cum[:, -1] = 1.0
        guide, steps = _guide_table(cum)
    pulse_parts = [np.empty(0, dtype=np.int64)]
    trigger_parts = [np.empty(0, dtype=np.intp)]
    output_parts = [np.empty(0, dtype=np.intp)]
    for batch_index, start in enumerate(range(0, pulses, _BATCH)):
        rng = derive_rng(seed, "scattershot", batch_index)
        candidates, subsets = draw.fire(rng, min(_BATCH, pulses - start))
        if not candidates.size:
            continue
        trigger_rows = draw.rows[subsets]
        if per_event:
            picks = _per_event_outputs(u, table, trigger_rows, rng)
        else:
            picks = _guided_search(cum, guide, steps, subsets, rng.random(candidates.size))
        if not perfect_detectors:
            # Thinning keeps n_select photons only where it removes none,
            # so a retained output is the pattern drawn for it.
            thinned = rng.binomial(table.occupations[picks], detect_prob)
            detected = thinned.sum(axis=1) == n_select
            candidates, trigger_rows, picks = (
                candidates[detected], trigger_rows[detected], picks[detected])
        pulse_parts.append(start + candidates)
        trigger_parts.append(trigger_rows)
        output_parts.append(picks)
    # Only the patterns the events use are kept, renumbered by rank in table
    # order: the running count of a mask over the table, cheaper than np.unique.
    ids = np.concatenate(trigger_parts + output_parts)
    seen = np.zeros(len(table.cols), dtype=bool)
    seen[ids] = True
    trigger, output = (np.cumsum(seen) - 1)[ids].reshape(2, -1)
    patterns = tuple(map(tuple, table.occupations[seen].tolist()))
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
        predicted_rate_hz=rep * _predicted_retention(params, n_select),
    )
    return ScattershotResult(_RecordView(events), report)


_LOG_COLUMNS = "pulse_index,trigger_pattern,input_pattern,output_pattern"
_MAX_PULSE = str(np.iinfo(np.int64).max)  # the pulse column is int64
_DIGIT_WEIGHTS = 10 ** np.arange(18, -1, -1, dtype=np.uint64)  # of up to 19 digits, in uint64


def _numbered_patterns(patterns, convert=as_occupation) -> tuple[np.ndarray, tuple]:
    """Each pattern's id, numbered by first appearance, and the distinct
    patterns in id order as ``convert`` (which checks them) returns them."""
    ids = collections.defaultdict(lambda: len(ids))
    numbers = np.fromiter(map(ids.__getitem__, map(tuple, patterns)), dtype=np.intp)
    return numbers, tuple(map(convert, ids))


def write_sample_log(path, records: Sequence[SampleRecord], header_lines=()) -> None:
    """Write retained events as CSV with compact occupation strings.

    Lines starting with '#' carry run metadata; the column row follows.
    A pattern is written as one ASCII digit per mode, so a mode holds at
    most 9 photons.  The rows come from the records' event table (a view's
    own, so no record is built) with each distinct pattern validated and
    encoded once, and the file is written in one piece: a pattern that is
    not a sequence of integers from 0 to 9, or a pulse index that is not an
    integer in [0, 2**63), raises ContractError and nothing is written.
    """
    events = _events_from_records(records, occupation_to_string)
    if isinstance(records, _RecordView):  # its table holds its patterns as tuples
        events = events._replace(patterns=tuple(map(occupation_to_string, events.patterns)))
    header = "".join(f"# {line}\n" for line in header_lines) + _LOG_COLUMNS + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode() + _log_rows(events).tobytes())


def _log_rows(events: _Events) -> np.ndarray:
    """The rows of a sample log as one uint8 array: each event's pulse index
    and its patterns, given as strings, laid out at the widest pulse and
    pattern and then cut to each value's own length."""
    pulse, encoded = events.pulse, events.patterns
    digits = len(str(pulse.max(initial=0)))
    size = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    item = np.dtype((np.void, int(size.max(initial=0)) + 1))  # a comma, then a pattern
    codes = np.frombuffer("".join("," + text.ljust(item.itemsize - 1) for text in encoded)
                          .encode(), dtype=item)
    shown = (np.arange(item.itemsize) <= size[:, None]).view(item)[:, 0]
    rows = np.empty((len(pulse), digits + 3 * item.itemsize + 1), dtype=np.uint8)
    rows[:, -1] = 10
    keep = np.ones(rows.shape, dtype=bool)
    rest = pulse
    for place in range(digits - 1, -1, -1):
        keep[:, place] = rest > 0  # no leading zeros
        quotient = rest // 10  # by a scalar: several times faster than np.divmod or %
        rows[:, place], rest = rest - 10 * quotient + 48, quotient
    keep[:, digits - 1] = True  # the one digit of a pulse 0
    for k, ids in enumerate(events[1:4]):  # a pattern is one void item: a fast gather
        field = slice(digits + k * item.itemsize, digits + (k + 1) * item.itemsize)
        rows[:, field].view(item)[:, 0] = np.take(codes, ids)
        if size.min(initial=0) < item.itemsize - 1:  # some patterns are shorter
            keep[:, field].view(item)[:, 0] = np.take(shown, ids)
    return rows[keep]


def read_sample_log(path) -> _RecordView:
    """Read a sample log back into records, skipping '#' metadata lines.

    Rows hold the pulse index and the trigger, input and output patterns,
    all as ASCII digits (one per mode).  The records are a read-only view,
    like ``ScattershotResult.records``, of the event table that ``multiphoton
    validate`` reads: the rows are parsed column by column from the log's
    bytes, each distinct pattern is decoded once, and records with equal
    patterns share one tuple.  Raises DataError, naming the line, for a
    missing or wrong column header, a row without four fields, a field
    holding anything but ASCII digits or a pulse index beyond the int64
    range, and for text that is not UTF-8.  Lines are stripped and
    classified as text, then parsed as one byte array.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"sample log is not UTF-8 text: {exc}") from exc
    text = "\n".join(map(str.strip, [""] + text.split("\n") + [""]))  # each between newlines
    buf = np.frombuffer(text.encode(), dtype=np.uint8)
    del text
    nl = np.flatnonzero(buf == 10)  # line k is buf[nl[k - 1] + 1:nl[k]]
    kept = 1 + np.flatnonzero(~np.isin(buf[nl[:-1] + 1], (10, 35)))  # not blank or "#"
    if not kept.size:
        raise DataError("sample log has no column header")
    if buf[nl[kept[0] - 1] + 1:nl[kept[0]]].tobytes() != _LOG_COLUMNS.encode():
        raise DataError(f"line {kept[0]}: expected column header {_LOG_COLUMNS!r}")
    # Every byte that is not a digit: a row parses when the five around and in
    # it are the newline before it, three commas and its own newline.
    sep = np.flatnonzero(buf - 48 > 9)
    rows = kept[1:]
    bounds = sep[np.searchsorted(sep, nl[rows])[:, None] + np.arange(-4, 1)]
    size = np.diff(bounds) - 1  # of the four fields
    good = (bounds[:, 0] == nl[rows - 1]) & (buf[bounds[:, 1:4]] == 44).all(axis=1)
    # The header precedes every row, so 19 bytes precede its first comma.
    window = np.lib.stride_tricks.sliding_window_view(buf, 19)[bounds[:, 1] - 19] - 48
    window *= np.arange(19) >= 19 - size[:, :1]  # bytes before the pulse read 0
    pulse = np.einsum("ij,j->i", window, _DIGIT_WEIGHTS).view(np.int64)  # beyond int64: < 0
    wide = np.flatnonzero(size[:, 0] > 19)  # digits before the window must be zeros
    lead = np.column_stack((bounds[wide, 0] + 1, bounds[wide, 1] - 19)).ravel()
    pulse[wide[np.maximum.reduceat(buf, lead)[::2] > 48]] = -1
    good &= (pulse >= 0) & (size > 0).all(axis=1)
    if not good.all():
        row = rows[np.argmin(good)]
        raise DataError(f"line {row}: {_row_error(buf[nl[row - 1] + 1:nl[row]].tobytes())}")
    # Pattern keys: a field's digits as numbers of up to 19 digits from its end,
    # one field length at a time, so that one long field cannot widen every key.
    end, size = bounds[:, 2:].ravel(), size[:, 1:].ravel()
    del nl, kept, rows, sep, bounds, window  # only pulses and pattern keys from here
    ids, heads = np.empty(end.size, dtype=np.intp), [np.empty(0, dtype=np.intp)]
    for length in np.flatnonzero(np.bincount(size)).tolist():
        at = np.flatnonzero(size == length)
        back = np.arange(min(length, 19), length + 19, 19)  # how far back each number starts
        words = np.lib.stride_tricks.sliding_window_view(buf, back[0])[end[at, None] - back] - 48
        words[:, -1, :back[-1] - length] = 0  # the digits before the field
        words = np.einsum("ijk,k->ij", words, _DIGIT_WEIGHTS[-back[0]:])
        order = np.argsort(words[:, 0]) if back.size == 1 else np.lexsort(words.T)
        words = words[order]
        new = np.r_[True, (words[1:] != words[:-1]).any(axis=1)]  # where each run starts
        ids[at[order]] = sum(map(len, heads)) + np.cumsum(new) - 1
        heads.append(at[np.minimum.reduceat(order, np.flatnonzero(new))])  # first fields
    heads = np.concatenate(heads)
    ids = np.argsort(np.argsort(heads))[ids]  # numbered by first appearance
    patterns = tuple(tuple((buf[end[f] - size[f]:end[f]] - 48).tolist())
                     for f in np.sort(heads).tolist())
    return _RecordView(_Events(pulse, *ids.reshape(-1, 3).T, patterns))


def _row_error(line: bytes) -> str:
    """The first check a refused row fails: field count, pulse, its range, patterns."""
    pulse, *patterns = parts = line.decode().split(",")
    digits = pulse.lstrip("0")
    checks = [(len(parts) == 4, f"expected 4 fields, got {len(parts)}"),
              (pulse.isascii() and pulse.isdigit(), f"malformed pulse index: {pulse!r}"),
              ((len(digits), digits) <= (len(_MAX_PULSE), _MAX_PULSE),
               f"pulse index out of range: {pulse!r}")]
    checks += [(text.isascii() and text.isdigit(), f"malformed occupation string: {text!r}")
               for text in patterns]
    return next(why for passed, why in checks if not passed)
