import math

import numpy as np
import pytest

from multiphoton import ghz
from multiphoton.errors import ContractError
from multiphoton.ghz import (
    BasisCounts,
    GhzModel,
    coherence_settings,
    estimate_coherence,
    estimate_population,
    fidelity_and_witness,
    hv_outcome_distribution,
    simulate_counts,
    simulate_ghz_experiment,
    theta_outcome_distribution,
)
from multiphoton.rng import derive_rng
from properties import check_ghz_properties


def parity_expectation(model, theta):
    dist = theta_outcome_distribution(model, theta)
    parity = 1.0 - 2.0 * (np.bitwise_count(np.arange(dist.size)) & 1)
    return float(parity @ dist)


def bitstring_counts(draws, n):
    """Oracle: one ``format`` call per drawn outcome."""
    return {format(i, f"0{n}b"): int(c) for i, c in enumerate(draws) if c > 0}


def parity_sum(counts):
    """Oracle: signed parity sum of a count dict, key by key."""
    return sum(-value if key.count("1") & 1 else value for key, value in counts.items())


def check_counts(n, counts):
    """Oracle: the per-key outcome and count checks."""
    for key, value in counts.items():
        if not isinstance(key, str) or len(key) != n or set(key) - {"0", "1"}:
            raise ContractError(f"outcome {key!r} is not a {n}-bit string")
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise ContractError(f"count for {key!r} is not a non-negative integer")


class TestGhzModel:
    def test_valid(self):
        GhzModel(12, 0.732, 0.419)

    def test_coherence_bounded_by_population(self):
        with pytest.raises(ContractError):
            GhzModel(4, 0.4, 0.5)

    def test_photon_number_range(self):
        with pytest.raises(ContractError):
            GhzModel(1, 1.0, 1.0)
        with pytest.raises(ContractError):
            GhzModel(21, 1.0, 1.0)

    @pytest.mark.parametrize("photons", [3.0, True, "3"])
    def test_photon_number_must_be_an_integer(self, photons):
        # 3.0 used to pass here and fail later in 1 << n
        with pytest.raises(ContractError, match="must be an integer"):
            GhzModel(photons, 1.0, 1.0)


class TestHvDistribution:
    def test_ideal_three_photons(self):
        probs = hv_outcome_distribution(GhzModel(3, 1.0, 1.0))
        assert probs[0] == 0.5 and probs[-1] == 0.5
        assert np.all(probs[1:-1] == 0.0)

    def test_zero_population_two_photons(self):
        probs = hv_outcome_distribution(GhzModel(2, 0.0, 0.0))
        # all mass shared by the two non-extremal outcomes
        assert probs[0] == 0.0 and probs[3] == 0.0
        assert probs[1] == 0.5 and probs[2] == 0.5

    def test_extremal_mass_at_twelve_photons(self):
        probs = hv_outcome_distribution(GhzModel(12, 0.732, 0.419))
        assert probs[0] == pytest.approx(0.366, abs=1e-15)
        assert probs[-1] == pytest.approx(0.366, abs=1e-15)
        assert abs(probs.sum() - 1.0) <= 1e-12


class TestThetaDistribution:
    def test_full_coherence_at_zero_angle(self):
        assert parity_expectation(GhzModel(12, 1.0, 1.0), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_alternating_pattern(self):
        model = GhzModel(12, 1.0, 1.0)
        for k in range(12):
            want = -1.0 if k & 1 else 1.0
            got = parity_expectation(model, k * math.pi / 12)
            assert got == pytest.approx(want, abs=1e-9)

    def test_partial_coherence(self):
        got = parity_expectation(GhzModel(12, 0.732, 0.419), math.pi / 12)
        assert got == pytest.approx(-0.419, abs=1e-9)

    def test_normalized_and_non_negative(self):
        dist = theta_outcome_distribution(GhzModel(5, 0.9, 0.9), 0.37)
        assert abs(dist.sum() - 1.0) <= 1e-12
        assert dist.min() >= 0.0


class TestSimulateCounts:
    def test_ideal_population_reaches_only_extremes(self):
        counts = simulate_counts(GhzModel(4, 1.0, 1.0), "hv", 100, seed=0)
        assert set(counts.counts) <= {"0000", "1111"}
        assert counts.total == 100

    def test_zero_shots_rejected(self):
        with pytest.raises(ContractError):
            simulate_counts(GhzModel(4, 1.0, 1.0), "hv", 0, seed=0)

    @pytest.mark.parametrize("shots", [2**63, 10**20])
    def test_shots_beyond_int64_rejected(self, shots):
        with pytest.raises(ContractError):
            simulate_counts(GhzModel(4, 1.0, 1.0), "hv", shots, seed=0)

    @pytest.mark.parametrize("shots", [10.5, 10.0, True])
    def test_shots_must_be_an_integer(self, shots):
        # 10.5 used to draw 10 shots, and True one
        with pytest.raises(ContractError, match="must be an integer"):
            simulate_counts(GhzModel(4, 1.0, 1.0), "hv", shots, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ContractError, match="seed must be an integer"):
            simulate_counts(GhzModel(4, 1.0, 1.0), "hv", 10, seed=seed)

    def test_determinism(self):
        a = simulate_counts(GhzModel(4, 0.7, 0.5), "theta", 500, seed=3, theta=0.1)
        b = simulate_counts(GhzModel(4, 0.7, 0.5), "theta", 500, seed=3, theta=0.1)
        assert a.counts == b.counts

    def test_basis_validation(self):
        with pytest.raises(ContractError):
            simulate_counts(GhzModel(4, 1.0, 1.0), "diagonal", 10, seed=0)
        with pytest.raises(ContractError):
            simulate_counts(GhzModel(4, 1.0, 1.0), "theta", 10, seed=0)


def population_sum(counts, n):
    """Oracle: population estimate from a per-key sum of the two target outcomes."""
    total = sum(counts.values())
    p_hat = sum(v for k, v in counts.items() if k in ("0" * n, "1" * n)) / total
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / total)


class TestSimulateCountsOracle:
    @pytest.mark.parametrize("n", range(2, 15))
    @pytest.mark.parametrize("basis", ["hv", "theta"])
    def test_matches_per_outcome_builder(self, n, basis):
        model = GhzModel(n, 0.8, 0.5)
        if basis == "hv":
            theta, probs, label = None, hv_outcome_distribution(model), "ghz-hv"
        else:
            theta = 0.3
            probs, label = theta_outcome_distribution(model, theta), f"ghz-theta-{theta!r}"
        draws = derive_rng(n, label).multinomial(5000, probs)
        want = bitstring_counts(draws, n)
        counts = simulate_counts(model, basis, 5000, seed=n, theta=theta)
        assert list(counts.counts.items()) == list(want.items())
        assert all(type(k) is str and type(v) is int for k, v in counts.counts.items())
        check_counts(n, counts.counts)
        # the same draws as a dict, in any key order, give the same tally and
        # bit-identical estimates
        built = BasisCounts(basis, n, want, theta)
        shuffled = BasisCounts(basis, n, dict(reversed(want.items())), theta)
        for got, ref, other in zip(counts.tally, built.tally, shuffled.tally):
            assert np.array_equal(other, ref)
            assert got.dtype == ref.dtype == np.int64 and not got.flags.writeable
            assert np.array_equal(got, ref)
        assert counts.counts == built.counts and counts.total == built.total == 5000
        if basis == "hv":
            assert estimate_population(counts) == estimate_population(built)
            assert estimate_population(counts) == population_sum(want, n)
        else:
            m_hat, m_var = ghz._parity_expectation(counts)
            assert (m_hat, m_var) == ghz._parity_expectation(built)
            assert m_hat == parity_sum(want) / 5000 and m_var == (1.0 - m_hat**2) / 5000

    def test_twenty_photons_hold_one_entry_per_hit_outcome(self):
        counts = simulate_counts(GhzModel(20, 0.5, 0.3), "theta", 10, seed=1, theta=0.0)
        assert len(counts.tally[0]) == len(counts.counts) <= 10
        assert counts.total == 10

    def test_estimates_never_read_the_bitstrings(self, monkeypatch):
        model = GhzModel(12, 0.732, 0.419)

        def witness():
            hv, thetas = simulate_ghz_experiment(model, 100_000, seed=5)
            population, coherence = estimate_population(hv), estimate_coherence(thetas)
            return population, coherence, fidelity_and_witness(*population, *coherence)

        want = witness()

        def refuse(*args):
            raise AssertionError("the bitstring view was read")

        monkeypatch.setattr(ghz._TallyView, "_dict", property(refuse))
        for name in ("__getitem__", "__iter__", "__len__"):
            monkeypatch.setattr(ghz._TallyView, name, refuse)
        assert witness() == want


class TestBasisCounts:
    def test_outcome_length_checked(self):
        with pytest.raises(ContractError):
            BasisCounts("hv", 3, {"01": 5})

    @pytest.mark.parametrize("counts", [
        {"0": 1, "000": 1},  # total length 4 = 2 * 2 keys
        {"00": 1, "0": 1},
        {"0a": 3},
        {"00": 1, "12": 1},
        {"0 ": 1},
        {"0\u0661": 1},
        {b"01": 1},
        {(0, 1): 1},
    ], ids=["mixed-lengths", "short", "letter", "digit-2", "space", "arabic-one", "bytes",
            "tuple"])
    def test_bad_outcome_rejected(self, counts):
        with pytest.raises(ContractError, match="outcome"):
            check_counts(2, counts)
        with pytest.raises(ContractError, match="outcome"):
            BasisCounts("hv", 2, counts)

    @pytest.mark.parametrize("value", [2.7, "5", True, np.bool_(True), 2.0, None, -1,
                                       np.int64(-3)],
                             ids=["float", "string", "bool", "numpy-bool", "integral-float",
                                  "none", "negative", "numpy-negative"])
    def test_bad_count_rejected_naming_the_key(self, value):
        counts = {"11": 1, "00": value}
        with pytest.raises(ContractError, match="'00'"):
            check_counts(2, counts)
        with pytest.raises(ContractError, match="count for '00'"):
            BasisCounts("hv", 2, counts)

    def test_float_count_no_longer_reaches_the_estimator(self):
        # used to fail inside estimate_population with a math domain error
        with pytest.raises(ContractError, match="'00'"):
            estimate_population(BasisCounts("hv", 2, {"00": 2.7, "11": 1}))

    def test_string_counts_no_longer_reach_the_total(self):
        # used to fail in .total with a TypeError
        with pytest.raises(ContractError, match="'00'"):
            BasisCounts("hv", 2, {"00": "5", "11": "3"}).total

    def test_bool_count_no_longer_counts_as_one(self):
        with pytest.raises(ContractError, match="'11'"):
            BasisCounts("hv", 2, {"00": 4, "11": True})

    def test_numpy_integers_and_empty_counts_accepted(self):
        counts = {"00": np.int64(3), "01": np.uint8(2), "11": 0}
        check_counts(2, counts)
        assert BasisCounts("hv", 2, counts).total == 5
        assert BasisCounts("hv", 2, {}).total == 0

    def test_parity_matches_per_key_loop(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 12):
            keys = sorted({format(int(i), f"0{n}b") for i in rng.integers(0, 1 << n, 40)})
            counts = {k: int(rng.integers(0, 50)) for k in keys}
            counts[keys[0]] += 1
            got, _ = ghz._parity_expectation(BasisCounts("theta", n, counts, theta=0.0))
            assert got == parity_sum(counts) / sum(counts.values())

    def test_counts_summing_past_int64_rejected(self):
        top = {"00": 2**62, "11": 2**62 - 1}
        assert BasisCounts("hv", 2, top).total == 2**63 - 1
        for counts in ({"00": 2**62, "11": 2**62}, {"01": np.uint64(2**63)}, {"10": 2**70}):
            with pytest.raises(ContractError, match=r"2\*\*63"):
                BasisCounts("hv", 2, counts)

    def test_outcome_codes_fit_sixty_three_photons(self):
        assert estimate_population(BasisCounts("hv", 63, {"1" * 63: 3})) == (1.0, 0.0)
        for n in (64, -1):
            with pytest.raises(ContractError, match="0 to 63 photons"):
                BasisCounts("hv", n, {})

    def test_theta_angle_required(self):
        with pytest.raises(ContractError):
            BasisCounts("theta", 2, {"01": 5})
        with pytest.raises(ContractError):
            BasisCounts("hv", 2, {"01": 5}, theta=0.1)


class TestEstimatePopulation:
    def test_pure_extremes(self):
        counts = BasisCounts("hv", 2, {"00": 50, "11": 50})
        assert estimate_population(counts) == (1.0, 0.0)

    def test_even_quarters(self):
        counts = BasisCounts("hv", 2, {"00": 25, "11": 25, "01": 25, "10": 25})
        p_hat, sigma = estimate_population(counts)
        assert p_hat == 0.5
        assert sigma == pytest.approx(0.05, abs=1e-15)

    def test_wrong_basis_rejected(self):
        counts = BasisCounts("theta", 2, {"00": 10}, theta=0.0)
        with pytest.raises(ContractError):
            estimate_population(counts)

    def test_closure(self):
        counts = simulate_counts(GhzModel(12, 0.732, 0.419), "hv", 100_000, seed=0)
        p_hat, sigma = estimate_population(counts)
        assert abs(p_hat - 0.732) <= 3 * sigma


def ideal_theta_settings(n, coherence, shots=1000):
    """Counts whose parity expectation is exactly coherence * (-1)^k."""
    settings = []
    for k, theta in enumerate(coherence_settings(n)):
        even = int(round(shots * (1 + coherence * math.cos(n * theta)) / 2))
        counts = {"0" * n: even, "0" * (n - 1) + "1": shots - even}
        settings.append(BasisCounts("theta", n, counts, theta=float(theta)))
    return settings


class TestEstimateCoherence:
    def test_ideal_alternating_counts(self):
        c_hat, sigma = estimate_coherence(ideal_theta_settings(4, 1.0))
        assert c_hat == pytest.approx(1.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_zero_parity_counts(self):
        c_hat, _ = estimate_coherence(ideal_theta_settings(4, 0.0))
        assert c_hat == pytest.approx(0.0, abs=1e-12)

    def test_missing_setting_rejected(self):
        with pytest.raises(ContractError):
            estimate_coherence(ideal_theta_settings(4, 1.0)[:3])

    def test_wrong_angle_rejected(self):
        settings = ideal_theta_settings(4, 1.0)
        bad = BasisCounts("theta", 4, settings[1].counts, theta=settings[1].theta + 0.01)
        with pytest.raises(ContractError):
            estimate_coherence([settings[0], bad, settings[2], settings[3]])

    def test_closure(self):
        model = GhzModel(12, 0.732, 0.419)
        _, thetas = simulate_ghz_experiment(model, 100_000, seed=0)
        c_hat, sigma = estimate_coherence(thetas)
        assert abs(c_hat - 0.419) <= 3 * sigma


class TestFidelityAndWitness:
    def test_perfect_state(self):
        result = fidelity_and_witness(1.0, 0.0, 1.0, 0.0)
        assert result.fidelity == 1.0
        assert result.genuine
        assert result.significance == math.inf

    def test_reference_point_arithmetic(self):
        result = fidelity_and_witness(0.732, 0.024, 0.419, 0.041)
        assert result.fidelity == 0.5755
        assert result.genuine
        assert result.significance > 3.0

    def test_boundary_is_not_genuine(self):
        result = fidelity_and_witness(0.5, 0.01, 0.5, 0.01)
        assert result.fidelity == 0.5
        assert not result.genuine
        assert result.significance == 0.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ContractError):
            fidelity_and_witness(0.7, -0.01, 0.4, 0.01)

    @pytest.mark.parametrize("args", [
        (math.nan, 0.01, 0.4, 0.01), (0.7, math.nan, 0.4, 0.01),
        (0.7, 0.01, math.nan, 0.01), (0.7, 0.01, 0.4, math.nan),
        (math.inf, 0.01, 0.4, 0.01), (0.7, 0.01, -math.inf, 0.01),
    ])
    def test_nan_and_infinite_estimates_rejected(self, args):
        # a NaN sigma used to certify the state with significance nan
        with pytest.raises(ContractError):
            fidelity_and_witness(*args)


def test_module_properties():
    check_ghz_properties(seed=4)
