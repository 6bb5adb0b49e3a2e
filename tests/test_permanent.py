import cmath
import math

import numpy as np
import pytest

from multiphoton import permanent
from multiphoton.errors import ContractError, DimensionError, ResourceLimitError
from multiphoton.permanent import permanent_naive, permanent_parallel, permanent_ryser
from properties import check_permanent_properties


def fourier_matrix(n):
    """n x n matrix with entries omega^(jk)/sqrt(n), omega = exp(2 pi i/n)."""
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * math.pi * j * k / n) / math.sqrt(n)


def gaussian_matrix(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def glynn_longdouble(matrix):
    """Glynn's formula in 80-bit long double, summed over sign vectors.

    Every sign vector's row sums are formed directly from the matrix, with
    none of the kernel's split tables, blocks or ordering.
    """
    a = np.asarray(matrix, dtype=np.clongdouble)
    n = a.shape[0]
    codes = np.arange(1 << (n - 1))[:, None]
    signs = np.ones((len(codes), n), dtype=np.longdouble)
    signs[:, 1:] -= 2 * (codes >> np.arange(n - 1) & 1)
    total = (signs.prod(axis=1) * (signs @ a.T).prod(axis=1)).sum()
    return total / np.longdouble(2) ** (n - 1)


def hstack_low_table(cols):
    """The sign-table builder that doubled the table with ``np.hstack`` per column."""
    plus = np.zeros((cols.shape[0], 1), dtype=complex)
    minus = plus[:, :0]
    for col in cols.T[:, :, None]:
        plus, minus = np.hstack([plus + col, minus - col]), np.hstack([minus + col, plus - col])
    return np.hstack([plus, minus]), plus.shape[1]


class TestNaive:
    def test_identity(self):
        assert permanent_naive(np.eye(3)) == 1

    def test_all_ones(self):
        assert abs(permanent_naive(np.ones((3, 3))) - 6) <= 1e-12

    def test_two_by_two(self):
        assert permanent_naive([[1, 2], [3, 4]]) == 10

    def test_empty_matrix(self):
        assert permanent_naive(np.zeros((0, 0))) == 1

    def test_size_guard_names_alternative(self):
        with pytest.raises(ResourceLimitError, match="permanent_ryser"):
            permanent_naive(np.eye(11))

    def test_non_square(self):
        with pytest.raises(DimensionError):
            permanent_naive(np.ones((2, 3)))


class TestRyser:
    def test_identity(self):
        assert abs(permanent_ryser(np.eye(4)) - 1) <= 1e-12

    def test_fourier_three(self):
        value = permanent_ryser(fourier_matrix(3))
        want = -1 / math.sqrt(3)
        assert abs(value - want) <= 1e-12
        brute = permanent_naive(fourier_matrix(3))
        assert abs(value - brute) <= 1e-12

    def test_matches_naive_on_random_eight(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ref = permanent_naive(a)
        assert abs(permanent_ryser(a) - ref) <= 1e-10 * abs(ref)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError):
            permanent_ryser(np.eye(31))


class TestParallel:
    def test_thread_count_does_not_change_value(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        values = [permanent_parallel(a, t) for t in (1, 2, 8)]
        scale = max(abs(values[0]), 1.0)
        assert abs(values[0] - values[1]) <= 1e-9 * scale
        assert abs(values[0] - values[2]) <= 1e-9 * scale

    def test_large_identity(self):
        assert abs(permanent_parallel(np.eye(20), 8) - 1) <= 1e-9

    def test_matches_ryser_on_twenty(self):
        rng = np.random.default_rng(7)
        # unit-modulus entries keep the 2^20-term sum well conditioned
        a = np.exp(2j * math.pi * rng.random((20, 20)))
        ref = permanent_ryser(a)
        got = permanent_parallel(a, 8)
        assert abs(got - ref) <= 1e-9 * max(abs(ref), 1.0)

    def test_zero_threads_rejected(self):
        with pytest.raises(ContractError):
            permanent_parallel(np.eye(2), 0)

    @pytest.mark.parametrize("threads", [2.5, 2.0, True])
    def test_thread_count_must_be_an_integer(self, threads):
        with pytest.raises(ContractError, match="must be an integer"):
            permanent_parallel(np.eye(2), threads)


class TestGlynnKernel:
    def test_matches_naive_on_two_hundred_matrices(self):
        rng = np.random.default_rng(2026)
        # naive costs 20 ms at n=8 and over 1 s at n=10, so the largest sizes appear once
        for n in [1 + case % 8 for case in range(198)] + [9, 10]:
            a = gaussian_matrix(rng, n)
            ref = permanent_naive(a)
            assert abs(permanent_ryser(a) - ref) <= 1e-12 * abs(ref), f"n={n}"

    def test_low_table_matches_hstack_builder(self):
        # the 200-matrix set above, then the split sizes n=13-16 (k=12 low columns)
        rng = np.random.default_rng(2026)
        sizes = [1 + case % 8 for case in range(198)] + [9, 10, 13, 14, 16]
        for n in sizes:
            a = gaussian_matrix(rng, n)
            cols = a[:, 1:min(n - 1, permanent._LOW_BITS) + 1]
            table, plus = permanent._low_table(cols)
            want, want_plus = hstack_low_table(cols)
            assert plus == want_plus
            assert np.array_equal(table, want), f"n={n}"
            # a real matrix gives the real part of the same table
            real, _ = permanent._low_table(cols.real.copy())
            assert real.dtype == np.float64
            assert np.array_equal(real, hstack_low_table(cols.real)[0].real)

    def test_matches_long_double_glynn_at_sixteen(self):
        # n=16 leaves three high sign columns, so the split path runs
        assert np.finfo(np.longdouble).eps < 1e-18
        rng = np.random.default_rng(16)
        for _ in range(2):
            a = gaussian_matrix(rng, 16)
            ref = glynn_longdouble(a)
            err = abs(np.clongdouble(permanent_ryser(a)) - ref) / abs(ref)
            assert err <= 1e-13

    def test_thread_counts_agree_on_uneven_segments(self, monkeypatch):
        # n=18 has four high blocks, which three threads split unevenly once
        # the pool is allowed below its crossover
        monkeypatch.setattr(permanent, "_POOL_MIN_N", 0)
        a = gaussian_matrix(np.random.default_rng(18), 18)
        ref = permanent_ryser(a)
        for threads in (1, 2, 3, 8):
            assert abs(permanent_parallel(a, threads) - ref) <= 1e-13 * abs(ref)

    def test_pool_never_outnumbers_blocks_or_threads(self, monkeypatch):
        started = []

        class Recording(permanent.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(permanent, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(permanent, "_POOL_MIN_N", 0)
        rng = np.random.default_rng(3)
        permanent_parallel(gaussian_matrix(rng, 6), 8)
        assert started == []
        permanent_parallel(gaussian_matrix(rng, 18), 8)
        permanent_parallel(gaussian_matrix(rng, 18), 3)
        assert started == [4, 3]

    def test_pool_starts_only_from_the_crossover(self, monkeypatch):
        started, pool = [], permanent.ThreadPoolExecutor

        def recording(max_workers):
            started.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(permanent, "ThreadPoolExecutor", recording)
        rng = np.random.default_rng(21)
        for n in (17, permanent._POOL_MIN_N - 1, permanent._POOL_MIN_N):
            a = gaussian_matrix(rng, n)
            assert permanent_parallel(a, 2) == permanent_ryser(a), f"n={n}"
        assert started == [2]

    @pytest.mark.parametrize("perm", [permanent_ryser, lambda a: permanent_parallel(a, 3)])
    def test_closed_forms(self, perm):
        rng = np.random.default_rng(4)
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert abs(perm([[a]]) - a) <= 1e-15 * abs(a)
        assert abs(perm([[a, b], [c, d]]) - (a * d + b * c)) <= 1e-14 * abs(a * d + b * c)
        assert perm(np.zeros((5, 5))) == 0
        assert perm(np.ones((3, 3))) == 6


def test_phase_factors_out():
    # multiplying the whole matrix by a phase multiplies Perm by phase^n
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    phase = cmath.exp(0.37j)
    ref = permanent_ryser(a)
    assert abs(permanent_ryser(phase * a) - phase**5 * ref) <= 1e-9 * abs(ref)


def test_module_properties():
    check_permanent_properties(seed=2)
