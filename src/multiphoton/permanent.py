"""Matrix permanents: a factorial-time oracle and one Glynn kernel.

Every multi-photon transition probability in this package reduces to the
permanent of a complex sub-matrix, so this module is the hot path.  The
kernel evaluates Glynn's formula (Glynn, Eur. J. Combin. 31 (2010) 1887)

    perm(A) = 2^-(n-1) * sum over d in {+1, -1}^n with d_0 = +1 of
              (d_0 * ... * d_(n-1)) * prod_i sum_j d_j A[i, j],

2^(n-1) terms instead of Ryser's 2^n subsets.  The n - 1 free signs are
split into a low half of k = min(n - 1, 12) columns and a high half.  A
table holds the row sums of the low columns under all 2^k sign vectors;
per block of high sign vectors, the row sums of column 0 and the high
columns are formed afresh, and each term's row sums are one broadcast add
of the two.  No row sum is a running sum, so rounding error cannot build
up across terms: against a long-double evaluation of the same formula the
relative error is about 1e-15 at n=16 and 1e-14 at n=20, where the
Gray-code Ryser kernel it replaced erred by 1e-12 and 1e-10 to 3e-9.

``permanent_ryser`` keeps its name, although it now runs Glynn's formula,
because it is the package's public single-thread entry point and callers,
the tests and the benchmark reach it by that name; ``permanent_parallel``
runs the same kernel on a thread pool.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ContractError, DimensionError, ResourceLimitError
from .linalg import as_complex_matrix

__all__ = ["permanent_naive", "permanent_ryser", "permanent_parallel"]

NAIVE_LIMIT = 10
RYSER_LIMIT = 30

_NAIVE_CHUNK = 1 << 12

# Sign-table shape, tuned on a 2-core host: k=12 low bits against blocks of
# 8 high sign vectors ran fastest of k=10-13 and blocks of 1-16 at n=20-24
# (k=10 and k=11 took about twice as long).
_LOW_BITS = 12
_HIGH_BLOCK = 8


def _square(matrix) -> np.ndarray:
    a = as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"permanent needs a square matrix, got {a.shape[0]}x{a.shape[1]}")
    return a


def permanent_naive(matrix) -> complex:
    """Permanent by explicit sum over all permutations.

    This is the independent oracle for the Glynn kernel; it shares no code
    with it.  Permutations stream from ``itertools.permutations`` in fixed
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

    Each column doubles the table, added to one copy and subtracted from
    the other, so every row sum is a fresh sum of one term per column.
    Vectors whose sign product is +1 come first.
    """
    plus = np.zeros((cols.shape[0], 1), dtype=complex)
    minus = plus[:, :0]
    for col in cols.T[:, :, None]:
        plus, minus = np.hstack([plus + col, minus - col]), np.hstack([minus + col, plus - col])
    return np.hstack([plus, minus]), plus.shape[1]


def _glynn(matrix, threads: int) -> complex:
    """Glynn's formula, the high sign blocks split over ``threads`` workers.

    Each block's sum is reduced in block order whatever the split, so the
    value is bit-identical for every thread count.  No BLAS call is made:
    OpenBLAS worker threads spin on after a matrix product, and on a 2-core
    host they kept the pool's second thread from running.
    """
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

    workers = min(threads, len(starts))
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

    The name is kept from the Gray-code Ryser kernel this replaced, because
    callers, the tests and the benchmark reach the single-thread kernel by
    it.  The relative error against a long-double evaluation is about 1e-15
    at n=16 and 1e-14 at n=20 (Ryser: 1e-12 and up to 3e-9).  Guarded at
    n <= 30 as a resource limit: 2^29 terms is roughly the largest workload
    that finishes in reasonable time on one machine.
    """
    return _glynn(matrix, 1)


def permanent_parallel(matrix, threads: int) -> complex:
    """Permanent by the same Glynn kernel, its high sign blocks split into
    at most ``threads`` contiguous segments run on a thread pool.

    Block sums are reduced in block order, so the value is bit-identical to
    :func:`permanent_ryser` for every thread count, with the same accuracy:
    about 1e-14 relative at n=20.  This is what the CLI ``permanent``
    command runs; ``permanent_ryser`` keeps the Ryser name, though it runs
    this kernel too, because callers reach the single-thread kernel by it.
    """
    return _glynn(matrix, threads)
