"""Multiphoton interference sampling and the scattershot acquisition loop.

Builds exact output distributions for indistinguishable photons (permanent
of the transition submatrix) and for the distinguishable-photon reference
model with one batched Glynn engine, a matrix product over sign vectors per
input on the shared pattern table of their outcome space, draws output
samples, and simulates the scattershot pipeline: every pulse each source
may fire, heralded inputs select a random input pattern, and events are
retained when exactly ``n_select`` heralds and ``n_select`` detected output
photons coincide.  A run draws only the candidate pulses, where exactly
``n_select`` sources herald a surviving signal and the rest stay silent:
per batch a binomial count, their pulse offsets and each one's heralding
set, a row of the ``n_select``-photon pattern table.  Over each round of
batches, a first pass fires every batch and a second draws the outputs.
Below four photons, one engine call builds the inputs the run has not built
yet into one matrix of cumulative sums, from which each output is drawn;
from four photons, where a run meets many inputs for a few events each,
each candidate's output is drawn on its own by Clifford & Clifford's
algorithm B, at a cost per event rather than per input.

Retained events live in one columnar table (pulse index and pattern ids,
each distinct pattern held once) from the run, or from a read sample log,
to validation and the log writer; the public functions hand them out as a
read-only sequence of ``SampleRecord``s over that table, which builds a
record only when one is asked for.
"""

from __future__ import annotations

import collections
import functools
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
    _PatternTable,
    _require_unitary,
    as_occupation,
    count_patterns,
    occupation_to_string,
)
from .permanent import _low_table
from .rng import derive_rng
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
# so results do not depend on how a run is split up.
_BATCH = 1 << 16
# Batches are drawn in rounds of this many (2**22 pulses); each round's new
# inputs are built in one engine call on the table path.  Results do not
# depend on it.
_ROUND = 64
# A run of at least this many photons draws each candidate's output on its
# own (``_per_event_outputs``); below it, a run builds each input's output
# table once and draws from it.  The photon number alone chooses, never the
# run length.  On 2 cores the tables ran 1.6-2.6x faster at n=3 on runs of
# 1e4-1e5 events at m=8 and m=12 (the per-event draw won only on faint or
# m=16 runs), and the per-event draw 1.8-7x faster at n=4 on bright and
# faint m=12 runs, losing (2.9x) only on a dense m=8 run of 34,000 events
# over 70 inputs.
_PER_EVENT_PHOTONS = 4
# Events per chunk of the per-event draw, which bounds its working arrays.
_EVENT_CHUNK = 2048


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


# Per input, a sign block (2^k >= 8 sign vectors) holds at most _SIGN_BYTES of
# (n-1)-photon products, a chunk about _CHUNK_BYTES of them and the grid, and a
# matrix product at most _GEMM_CELLS multiply-adds, which OpenBLAS runs on one
# thread.  At m=12 on 2 cores, ms for 5 bright n=4 runs / 200 n=5 inputs: chunk
# 1024 KiB 37/101, 512 KiB 43/100, 2048 KiB 36/82 at 1.6x the n=4 peak memory.
_SIGN_BYTES = 1 << 19
_CHUNK_BYTES = 1 << 20
_GEMM_CELLS = 1 << 16


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
    sign vectors d with d_0 = +1, where w_d = sum_i d_i r_i.  For T its
    (n-1)-photon parent p plus mode c, the sum is cell (p, c) of one product
    per input, [(prod d) prefix_d[p]] (parents, signs) @ [w_d[c]] (signs,
    modes); the prefixes grow along the prefix tree per block of sign vectors.
    Sizes depend on n, m and the model alone, so an input's probabilities
    do not depend on the chunk, or the matrix, it is built in.
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
    parents = len(levels[-1].cols) if levels else 1
    block = min(signs, 1 << ((_SIGN_BYTES // (parents * source.itemsize)) | 8).bit_length() - 1)
    stripe = max(1, _GEMM_CELLS // (block * modes))  # parents per matrix product
    chunk = max(1, _CHUNK_BYTES // (parents * (block + modes) * source.itemsize))
    cells = table.parents * modes + table.cols[:, -1]
    out = np.empty((len(inputs), len(table.cols)))
    for lo in range(0, len(inputs), chunk):
        occ = inputs[lo:lo + chunk]
        rows = source[np.repeat(np.tile(np.arange(modes), len(occ)), occ.ravel())]
        rows = rows.reshape(len(occ), n, modes).transpose(2, 0, 1)  # (mode, input, photon)
        sums, plus = _low_table(rows[:, :, 1:].reshape(modes * len(occ), n - 1))
        sums += rows[:, :, :1].reshape(-1, 1)
        sums = sums.reshape(modes, len(occ), signs)
        grid = np.zeros((len(occ), parents, modes), dtype=source.dtype)
        for d in range(0, signs, block):
            w = sums[:, :, d:d + block]
            terms = np.where(np.arange(d, d + block) < plus, 1.0, -1.0).reshape(1, 1, -1)  # prod d
            for level in levels:
                terms = (np.take(terms, level.parents, axis=0)
                         * np.take(w, level.cols[:, -1], axis=0))
            for r in range(0, parents, stripe):
                grid[:, r:r + stripe] += np.matmul(terms[r:r + stripe].transpose(1, 0, 2),
                                                   w.transpose(1, 2, 0))
        perms = np.take(grid.reshape(len(occ), -1), cells, axis=1) / signs
        probs = out[lo:lo + len(occ)]  # a contiguous row per input sums alike in any chunk
        # |perm|^2 / (prod s_i! prod t_j!) for interfering photons, else perm / prod t_j!
        weights = perms.real**2 + perms.imag**2 if interfering else np.clip(perms, 0.0, None)
        norms = [math.prod(map(math.factorial, row)) if interfering else 1 for row in occ.tolist()]
        probs[...] = weights / (table.factors * np.array(norms)[:, None])
        if not collisions:
            totals = probs.sum(axis=1, keepdims=True)
            if (totals <= 0).any():
                raise ContractError("no probability mass on collision-free outputs")
            probs /= totals
    return table, out


@functools.lru_cache(maxsize=None)  # one entry per photon number, at most 6
def _subset_lattice(n: int) -> tuple:
    """Per level k = 1..n-1, the k-subsets of n photons: their bit masks,
    their members, and each mask without each member."""
    levels = []
    for k in range(1, n):
        members = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        masks = (1 << members).sum(axis=1)
        level = (masks, members, masks[:, None] ^ (1 << members))
        for array in level:  # shared by every caller
            array.flags.writeable = False
        levels.append(level)
    return tuple(levels)


def _per_event_outputs(u: np.ndarray, inputs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each event's output by Clifford & Clifford's algorithm B ("The
    classical complexity of boson sampling", arXiv:1706.01260), as its
    ascending occupied modes.

    ``inputs`` holds each event's n occupied input modes and ``uniforms``
    its 2n numbers in [0, 1): the argsort of the first n orders the photons
    uniformly at random, and number n + k draws the output mode r_k of
    photon k in that order.  With s_l the input mode of photon l, mode i
    has weight |sum_(l<=k) u[s_l, i] perm(M_l)|^2, where M_l holds modes
    r_0..r_(k-1) against photons 0..k without photon l; r_k is the first
    mode whose cumulative weight reaches (1 - number) times the total, so
    it has positive weight.  Per event, the permanents of the k modes drawn
    so far against every k-subset of the photons are kept, and grown by one
    mode with a Laplace expansion along its row.  The events are drawn in
    chunks of ``_EVENT_CHUNK``, each in elementwise operations alone, so an
    event's output does not depend on the chunk it is drawn in.
    """
    events, n = inputs.shape
    levels = _subset_lattice(n)
    out = np.empty((n, events), dtype=np.intp)  # arrays run over events last
    for lo in range(0, events, _EVENT_CHUNK):
        chunk = uniforms[lo:lo + _EVENT_CHUNK]
        order = np.argsort(chunk[:, :n], axis=1, kind="stable")
        photons = np.take_along_axis(inputs[lo:lo + _EVENT_CHUNK], order, axis=1).T
        rows = u.T[:, photons]  # rows[i, l, e]: photon l's amplitude to exit in mode i
        perms = np.zeros((1 << n, len(chunk)), dtype=u.dtype)  # by subset bit mask
        perms[0] = 1.0
        drawn = out[:, lo:lo + len(chunk)]
        for k in range(n):
            first = (2 << k) - 1  # photons 0..k
            amplitude = rows[:, 0] * perms[first ^ 1]
            for l in range(1, k + 1):
                amplitude += rows[:, l] * perms[first ^ (1 << l)]
            cum = amplitude.real**2 + amplitude.imag**2
            for i in range(1, len(cum)):  # 3x faster than np.cumsum along this axis
                cum[i] += cum[i - 1]
            drawn[k] = (cum < (1.0 - chunk[:, n + k]) * cum[-1]).sum(axis=0)
            if k + 1 < n:
                row = u[photons, drawn[k]]  # row[l, e]: u[s_l, r_k]
                masks, members, parents = levels[k]
                grown = row[members[:, 0]] * perms[parents[:, 0]]
                for j in range(1, k + 1):
                    grown += row[members[:, j]] * perms[parents[:, j]]
                perms[masks] = grown
    return np.sort(out.T, axis=1)


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


def _sample_picks(distribution: OutcomeDistribution, shots: int, seed: int) -> np.ndarray:
    """The rows of ``distribution.outcomes`` that :func:`sample_outputs` draws."""
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
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractError(f"pulse index must be an integer, got {value!r}")
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


def _predicted_run_rate(params: Sequence[SourceParams], n_select: int) -> float:
    """Expected retained-event rate of :func:`scattershot_run`, in Hz.

    A retained event needs n_select sources that herald and deliver a
    detected photon, eps * (eta_herald * eta_detect)^2 each, while every
    other source stays silent, 1 - eps * eta_herald * eta_detect each (the
    ``herald_probability``).  The value is exact when all ``eta_detect``
    are equal; otherwise output detection depends on where the photons
    exit, which this product does not see.
    """
    useful = [p.epsilon * p.lumped_efficiency for p in params]
    idle = [1.0 - p.herald_probability for p in params]
    return _common_rep_rate(params) * _exactly_n_probability(useful, idle, n_select)


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
        ascending, and each one's trigger row: a binomial count, the
        offsets, then the heralding sets, in that order from ``rng``."""
        count = rng.binomial(size, self.probability) if self.probability else 0
        offsets = np.sort(rng.choice(size, count, replace=False))
        picks = np.searchsorted(self.cumulative, rng.random(count), side="right")
        return offsets, self.rows[picks]


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


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of integer keys in [0, bound], on
    the smallest unsigned dtype that holds ``bound``: numpy radix-sorts keys
    of 16 bits or fewer."""
    return np.argsort(keys.astype(np.min_scalar_type(bound)), kind="stable")


def _table_picks(cum: np.ndarray, built: dict, inputs: np.ndarray,
                 draws: np.ndarray) -> np.ndarray:
    """The output rows that uniform ``draws`` pick from the cumulative rows
    ``cum[built[input]]``: one searchsorted per distinct input, on its
    slice of the candidates sorted by input.  The last cumulative entry is
    1.0, so every pick is a valid outcome row."""
    order = _stable_order(inputs, cum.shape[1])  # inputs are rows of cum's table
    ranked = inputs[order]
    cuts = [0, *(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist(), len(order)]
    picks = np.empty(len(order), dtype=np.intp)
    for lo, hi, row in zip(cuts, cuts[1:], ranked[cuts[:-1]].tolist()):
        at = order[lo:hi]
        picks[at] = np.searchsorted(cum[built[row]], draws[at], side="right")
    return picks


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

    Pulses come in batches of 2**16, each with its own generator, and the
    batches in rounds of 64.  The first pass over a round fires each batch:
    from its generator, the candidate count ~ Binomial(size, P_cand), their
    pulse offsets without replacement, each one's heralding set by one
    ``searchsorted`` on the cumulative subset weights, then the candidates'
    output uniforms, one each below four photons and 2 * n_select from
    four.  A batch with candidates is kept as pending: its first pulse, the
    candidates' pulse offsets, their uniforms and input rows, and its
    generator when a detector is lossy, as thinning draws from it later.
    The second pass draws the pending candidates' outputs, by the output
    table path below four photons or by the per-event path from four (the
    photon number alone chooses), and thins each batch's outputs in turn.

    * Output tables: one engine call builds every input of the round that
      the run has not built yet.  Their checked probabilities become
      cumulative sums, in place, as new rows of the run's one cumulative
      matrix, which holds a row per input built; each pending batch's
      candidates are sorted by input, and each input's outputs drawn with
      one ``searchsorted`` on its row.  Cheapest where inputs repeat often.
    * Per event: one call per pending batch draws its candidates' outputs
      by Clifford & Clifford's algorithm B (see ``_per_event_outputs``), in
      chunks of a fixed number of events, with no table of probabilities.
      Its cost grows with the events, not with the distinct inputs, which
      from four photons is the cheaper side on every run but dense ones at
      few modes.

    The pending batches are all the state a round holds, so the round size
    bounds it, whatever the run length; the cumulative matrix grows only
    with the number of distinct inputs.

    The events are kept as a columnar table; ``records`` on the result is
    a read-only view of it.  Deterministic given the seed, and the same for
    any batch or round processing order.
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
    draw = _candidate_draw(params, n_select)
    detect_prob = np.array([p.eta_detect for p in params])
    perfect_detectors = bool(np.all(detect_prob == 1.0))

    # Every candidate's trigger and drawn output hold n_select photons, so
    # events are stored as rows of that photon number's pattern table.
    table = _pattern_table(modes, n_select, True)
    per_event = n_select >= _PER_EVENT_PHOTONS
    built: dict = {}  # input row -> its row of cum, on the table path
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
            candidates, trigger_rows = draw.fire(rng, size)
            if candidates.size:
                draws = rng.random((candidates.size, 2 * n_select) if per_event
                                   else candidates.size)
                pending.append((start, candidates, draws, trigger_rows,
                                None if perfect_detectors else rng))
        if not pending:
            continue
        if per_event:
            drawn = [table.rows(_per_event_outputs(u, table.cols[rows], draws))
                     for _, _, draws, rows, _ in pending]
        else:
            inputs = np.concatenate([rows for _, _, _, rows, _ in pending])
            new = [row for row in np.unique(inputs).tolist() if row not in built]
            if new:
                _, block = _probabilities(u, table.occupations[new], True, True)
                _check_probabilities(block)
                np.cumsum(block, axis=1, out=block)
                block[:, -1] = 1.0
                built.update(zip(new, range(len(cum), len(cum) + len(new))))
                cum = np.concatenate((cum, block)) if len(cum) else block
            drawn = [_table_picks(cum, built, rows, draws) for _, _, draws, rows, _ in pending]
        for (start, candidates, _, trigger_rows, rng), picks in zip(pending, drawn):
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
