"""Matrix permanents: every permanent kernel of the package, beside its oracle.

Every multi-photon transition probability is the permanent of a complex
sub-matrix, of U for indistinguishable photons and of |U|^2 for
distinguishable ones, so this module is the hot path.  Each kernel is
checked against ``permanent_naive``, a sum over permutations that shares
no code with them:

  kernel               evaluates                              oracles
  _glynn               one permanent by Glynn's formula       permanent_naive
  _sign_sums           Glynn's sign sums w_d of inputs        permanent_naive
  _probabilities       every output of inputs of one photon   permanent_naive; a per-input
                       number (the prefix-tree engine)        long-double Ryser build
  _pair_probabilities  both models at (input, output) pairs   permanent_naive; the exact
                                                              distributions' rows
  _per_event_outputs   one output per event (Clifford &       permanent_naive
                       Clifford's algorithm B)

Glynn's formula (Glynn, Eur. J. Combin. 31 (2010) 1887) is perm(A) =
2^-(n-1) sum over d in {+1, -1}^n with d_0 = +1 of (prod d) prod_i sum_j
d_j A[i, j].  ``permanent_ryser`` keeps its name, although it runs
``_glynn``, because callers, the tests and the benchmark reach it by that
name; ``permanent_parallel`` runs ``_glynn`` on a thread pool from n = 21.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, DimensionError, ResourceLimitError
from .linalg import _pattern_table, _PatternTable, as_complex_matrix
from .rng import _require_integer

__all__ = ["permanent_naive", "permanent_ryser", "permanent_parallel"]

NAIVE_LIMIT = 10
RYSER_LIMIT = 30

_NAIVE_CHUNK = 1 << 12

# Sign-table shape, tuned on a 2-core host: k=12 low bits against blocks of
# 8 high sign vectors ran fastest of k=10-13 and blocks of 1-16 at n=20-24
# (k=10 and k=11 took about twice as long).
_LOW_BITS = 12
_HIGH_BLOCK = 8
# Smallest n run on a thread pool; on 2 cores the pool lost to one thread below it.
_POOL_MIN_N = 21
# Per input, a sign block (2^k >= 8 sign vectors) holds at most _SIGN_BYTES of
# (n-1)-photon products, a chunk about _CHUNK_BYTES of them and the grid, and a
# matrix product at most _GEMM_CELLS multiply-adds, which OpenBLAS runs on one
# thread.  At m=12 on 2 cores, ms for 5 bright n=4 runs / 200 n=5 inputs: chunk
# 1024 KiB 37/101, 512 KiB 43/100, 2048 KiB 36/82 at 1.6x the n=4 peak memory.
_SIGN_BYTES = 1 << 19
_CHUNK_BYTES = 1 << 20
_GEMM_CELLS = 1 << 16
# Events per chunk of the per-event draw, which bounds its working arrays.
_EVENT_CHUNK = 2048
# The running sum over modes takes one np.cumsum on chunks of fewer events
# than this and a loop over modes on wider ones (median us per sum, m=12):
#   events                            1    62   128   256  2048
#   np.cumsum(axis=0)                2.3   5.1   8.1  13.9   102
#   loop cum[i] += cum[i - 1]       13.8   7.9   7.9   8.1  13.4
_CUMSUM_EVENTS = 128


def _square(matrix) -> np.ndarray:
    a = as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"permanent needs a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return a


def permanent_naive(matrix) -> complex:
    """Permanent by explicit sum over all permutations.

    This is the independent oracle for every kernel of this module; it
    shares no code with them.  Permutations stream from ``itertools.permutations`` in fixed
    chunks.  Guarded at n <= 10 because the term count grows factorially;
    use :func:`permanent_ryser` beyond that.
    """
    a = _square(matrix)
    n = a.shape[0]
    if n > NAIVE_LIMIT:
        raise ResourceLimitError(
            f"permanent_naive is limited to n <= {NAIVE_LIMIT} (got n={n}); "
            "use permanent_ryser for larger matrices"
        )
    if n == 0:
        return 1.0 + 0.0j
    rows = np.arange(n)
    stream = itertools.permutations(range(n))
    total = 0.0 + 0.0j
    # A permutation packs into n bytes, which numpy reads far faster than tuples.
    while chunk := b"".join(map(bytes, itertools.islice(stream, _NAIVE_CHUNK))):
        cols = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, n)
        total += a[rows, cols].prod(axis=1).sum()
    return complex(total)


def _low_table(cols: np.ndarray) -> tuple[np.ndarray, int]:
    """Row sums of ``cols`` under every sign vector, and how many come first.

    Each column doubles the filled part of one preallocated table in place:
    with P and M its halves, column c turns [P | M] into
    [P + c | M - c | M + c | P - c] (the first column turns [0] into
    [0 + c | 0 - c]), so every row sum is a fresh sum of one term per
    column, and vectors whose sign product is +1 come first.
    """
    rows, k = cols.shape
    table = np.zeros((rows, 1 << k), dtype=cols.dtype)
    steps = cols[:, :, None, None] * np.array([[1.0], [-1.0]])  # +c and -c; x + -c == x - c
    if k:
        np.add(table[:, :1, None], steps[:, 0], out=table[:, :2, None])
    for j in range(1, k):
        blocks = table[:, :2 << j].reshape(rows, 4, -1)
        np.add(blocks[:, 1::-1], steps[:, j], out=blocks[:, 2:])
        blocks[:, :2] += steps[:, j]
    return table, table.shape[1] - table.shape[1] // 2


def _glynn(matrix, threads: int) -> complex:
    """Glynn's formula; from n = ``_POOL_MIN_N`` its sign blocks run on ``threads`` workers.

    The n - 1 free signs split into k = min(n - 1, 12) low columns, whose
    row sums under all 2^k sign vectors :func:`_low_table` holds, and high
    ones, summed afresh with column 0 per block of high sign vectors; each
    term's row sums are one broadcast add of the two, never a running sum,
    so rounding error cannot build up across terms.  Each block's sum is
    reduced in block order whatever the split, so the value is
    bit-identical for every thread count.  No BLAS call is made: OpenBLAS
    worker threads spin on after a threaded matrix product, which on 2
    cores made n=22 take 1.5x as long (see ``_GEMM_CELLS``).
    """
    _require_integer("thread count", threads)
    if threads < 1:
        raise ContractError("thread count must be at least 1")
    a = _square(matrix)
    n = a.shape[0]
    if n > RYSER_LIMIT:
        raise ResourceLimitError(f"permanents are limited to n <= {RYSER_LIMIT} (got n={n})")
    if n == 0:
        return 1.0 + 0.0j
    low_bits = min(n - 1, _LOW_BITS)
    high_bits = n - 1 - low_bits
    table, plus = _low_table(a[:, 1:low_bits + 1])
    first, high = a[:, :1], a[:, low_bits + 1:, None]
    size = min(_HIGH_BLOCK, 1 << high_bits)
    starts = range(0, 1 << high_bits, size)

    def block_values(segment: range) -> list:
        terms = np.empty((size, table.shape[1]), dtype=complex)
        scratch = np.empty_like(terms)
        values = []
        for start in segment:
            # Column j of ``signs`` is high sign vector start + j: bit b set
            # gives high column b the sign -1.
            codes = np.arange(start, start + size)
            signs = 1.0 - 2.0 * ((codes >> np.arange(high_bits)[:, None]) & 1)
            sums = first + (high * signs).sum(axis=1)
            np.add(sums[0, :, None], table[0], out=terms)
            for i in range(1, n):
                np.add(sums[i, :, None], table[i], out=scratch)
                terms *= scratch
            low = terms[:, :plus].sum(axis=1) - terms[:, plus:].sum(axis=1)
            values.append((signs.prod(axis=0) * low).sum())
        return values

    workers = min(threads, len(starts)) if n >= _POOL_MIN_N else 1
    if workers == 1:
        values = block_values(starts)
    else:
        cuts = [len(starts) * w // workers for w in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(block_values, [starts[lo:hi] for lo, hi in zip(cuts, cuts[1:])])
            values = [v for part in parts for v in part]
    return complex(sum(values) / (1 << (n - 1)))


def permanent_ryser(matrix) -> complex:
    """Permanent by Glynn's formula on one thread, in O(2^(n-1) * n).

    The relative error against a long-double evaluation is about 1e-15
    at n=16 and 1e-14 at n=20 (Ryser: 1e-12 and up to 3e-9).  Guarded at
    n <= 30 as a resource limit: 2^29 terms is roughly the largest workload
    that finishes in reasonable time on one machine.
    """
    return _glynn(matrix, 1)


def permanent_parallel(matrix, threads: int) -> complex:
    """Permanent by the same Glynn kernel, its high sign blocks split into
    at most ``threads`` contiguous segments run on a thread pool; below
    n = 21, where the pool measured slower, on the calling thread alone.

    Block sums are reduced in block order, so the value is bit-identical to
    :func:`permanent_ryser` for every thread count, with the same accuracy:
    about 1e-14 relative at n=20.  This is what the CLI ``permanent``
    command runs.
    """
    return _glynn(matrix, threads)


def _probabilities(u: np.ndarray, inputs: np.ndarray, collisions: bool,
                   interfering: bool) -> tuple[_PatternTable, np.ndarray]:
    """Output probabilities of inputs of one photon number, by Glynn's formula.

    ``inputs`` are rows of an occupation array that all hold the same
    photon number n, which the caller has checked against the enumeration
    limits, and ``u`` must be a checked unitary.  Returns the n-photon
    pattern table and an unchecked (inputs, outcomes) float64 matrix, one
    row per input over the table's rows.  The rows are raw: with
    ``collisions=False`` a caller divides them by their sums to normalise.

    Every output T's permanent is 2^-(n-1) sum_d (prod d) prod_(j in T)
    w_d[j], with w_d the input's sign sums (:func:`_sign_sums`).  For T its
    (n-1)-photon parent p plus mode c, the sum is cell (p, c) of one product
    per input, [(prod d) prefix_d[p]] (parents, signs) @ [w_d[c]] (signs,
    modes); the prefixes grow along the prefix tree per block of sign vectors.
    Sizes depend on n, m and the model alone, so an input's probabilities
    do not depend on the chunk, or the matrix, it is built in.
    """
    modes = u.shape[0]
    # re^2 + im^2 rather than abs()**2: keeps the n=1 case bit-identical
    # between the two models, where they coincide by definition.
    source = u if interfering else u.real**2 + u.imag**2
    n = int(inputs[0].sum())
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
        sums, plus = _sign_sums(source, occ)
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
    return table, out


def _sign_sums(source: np.ndarray, occ: np.ndarray) -> tuple[np.ndarray, int]:
    """Glynn's sums w_d = sum_i d_i r_i of inputs of n photons, with r_i the
    rows of ``source`` (``u``, or ``|u|^2`` for distinguishable photons) that
    an input's photons pick, as (modes, inputs, signs) over the 2^(n-1) sign
    vectors d with d_0 = +1; the first ``plus`` of them have prod d = +1."""
    modes, n = source.shape[0], int(occ[0].sum())
    rows = source[np.repeat(np.tile(np.arange(modes), len(occ)), occ.ravel())]
    rows = rows.reshape(len(occ), n, modes).transpose(2, 0, 1)  # (mode, input, photon)
    sums, plus = _low_table(rows[:, :, 1:].reshape(modes * len(occ), n - 1))
    sums += rows[:, :, :1].reshape(-1, 1)
    return sums.reshape(modes, len(occ), -1), plus


def _pair_probabilities(u: np.ndarray, inputs: np.ndarray, outputs: np.ndarray, pair_input,
                        pair_output) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities q for indistinguishable and p for distinguishable
    photons of each pair k of input S = ``inputs[pair_input[k]]`` and output
    T = ``outputs[pair_output[k]]``, occupation rows of n photons each:
    q = |perm(U_ST)|^2 / (prod s! prod t!) and p = perm(|U|^2_ST) / prod t!.
    Each permanent is 2^-(n-1) sum_d (prod d) prod_(j in T) w_d[j] on the
    input's sign sums, multiplied out elementwise with the pairs last, in
    chunks of pairs per chunk of inputs, so no (inputs, outcomes) array is built."""
    used_in, used_out = np.zeros(len(inputs), dtype=bool), np.zeros(len(outputs), dtype=bool)
    used_in[pair_input] = used_out[pair_output] = True  # rows no pair names may hold any n
    pair_input = (np.cumsum(used_in) - 1)[pair_input]
    pair_output = (np.cumsum(used_out) - 1)[pair_output]
    inputs, outputs, modes = inputs[used_in], outputs[used_out], u.shape[0]
    n = int(inputs[0].sum())
    cols = np.repeat(np.tile(np.arange(modes), len(outputs)), outputs.ravel()).reshape(-1, n)
    factorials = np.array([math.factorial(k) for k in range(n + 1)], dtype=float)
    t_factors = factorials[outputs].prod(axis=1)[pair_output]
    perms = [np.empty(len(pair_input), dtype=complex), np.empty(len(pair_input))]
    width = max(1, _CHUNK_BYTES // (modes * u.itemsize << (n - 1)))  # inputs of u's sign sums
    for first in range(0, len(inputs), width):
        pairs = np.flatnonzero((pair_input >= first) & (pair_input < first + width))
        for perm, source in zip(perms, (u, u.real**2 + u.imag**2)):  # as in _probabilities
            sums, plus = _sign_sums(source, inputs[first:first + width])
            signs = sums.shape[2]
            sums = np.ascontiguousarray(sums.transpose(2, 1, 0)).reshape(signs, -1)
            prod_d = np.where(np.arange(signs) < plus, 1.0, -1.0)[:, None]
            step = max(1, _CHUNK_BYTES // (signs * source.itemsize))
            for k in np.split(pairs, range(step, len(pairs), step)):
                # sums[d, i * modes + c] is w_d[c] of input first + i
                at = (pair_input[k, None] - first) * modes + cols[pair_output[k]]
                terms = prod_d * np.take(sums, at[:, 0], axis=1)
                for j in range(1, n):
                    terms *= np.take(sums, at[:, j], axis=1)
                # a running sum, which unlike sum() adds in one order for any chunk size
                perm[k] = np.cumsum(terms, axis=0, out=terms)[-1] / signs
    s_factors = factorials[inputs].prod(axis=1)[pair_input]
    return ((perms[0].real**2 + perms[0].imag**2) / (t_factors * s_factors),
            np.clip(perms[1], 0.0, None) / t_factors)


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
        photons = inputs[lo + np.arange(len(chunk)), order.T]  # photons[l, e]: s_l
        thresholds = 1.0 - chunk[:, n:].T  # thresholds[k, e]: 1 - number n + k
        rows = u.T[:, photons]  # rows[i, l, e]: photon l's amplitude to exit in mode i
        perms = np.zeros((1 << n, len(chunk)), dtype=u.dtype)  # by subset bit mask
        perms[0] = 1.0
        drawn = out[:, lo:lo + len(chunk)]
        for k in range(n):
            first = (2 << k) - 1  # photons 0..k
            amplitude = rows[:, 0] * perms[first ^ 1] if k else rows[:, 0]  # perms[0] is 1
            for l in range(1, k + 1):
                amplitude += rows[:, l] * perms[first ^ (1 << l)]
            cum = amplitude.real**2 + amplitude.imag**2
            if len(chunk) < _CUMSUM_EVENTS:  # both add mode by mode, in one order
                np.cumsum(cum, axis=0, out=cum)
            else:
                for i in range(1, len(cum)):
                    cum[i] += cum[i - 1]
            drawn[k] = (cum < thresholds[k] * cum[-1]).sum(axis=0)
            if k + 1 < n:
                row = u[photons, drawn[k]]  # row[l, e]: u[s_l, r_k]
                masks, members, parents = levels[k]
                grown = row[members[:, 0]] * perms[parents[:, 0]]
                for j in range(1, k + 1):
                    grown += row[members[:, j]] * perms[parents[:, j]]
                perms[masks] = grown
    return np.sort(out.T, axis=1)
