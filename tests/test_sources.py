import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiphoton import sources
from multiphoton.errors import ContractError, DataError
from multiphoton.sources import (
    FireOutcome,
    JointSpectrum,
    SourceParams,
    fire_sources,
    gaussian_jsa,
    hom_dip,
    load_source_params,
    normalized_joint_spectrum,
    save_source_params,
    schmidt_purity,
    tune_correlation_angle,
)
from properties import JSON_NUMBERS, JSON_VALUES, check_sources_properties


def gaussian_purity_closed_form(sigma_pump, sigma_pm, angle):
    """Schmidt purity of the continuous two-envelope Gaussian amplitude.

    For f(x, y) = exp(-(x+y)^2/(4 sp^2)) * exp(-(x cos a + y sin a)^2/(4 spm^2))
    the exponent is -(A x^2 + B y^2 + 2 C x y); the Schmidt spectrum of such a
    Gaussian is geometric and its purity reduces to sqrt(1 - C^2/(A B)).
    """
    p = 1.0 / (4.0 * sigma_pump**2)
    q = 1.0 / (4.0 * sigma_pm**2)
    a = p + q * math.cos(angle) ** 2
    b = p + q * math.sin(angle) ** 2
    c = p + q * math.sin(angle) * math.cos(angle)
    return math.sqrt(1.0 - c * c / (a * b))


class TestSourceParams:
    def test_defaults_and_derived_quantities(self):
        s = SourceParams(epsilon=0.1, eta_herald=0.8, eta_detect=0.75)
        assert s.herald_probability == pytest.approx(0.1 * 0.8 * 0.75)
        assert s.lumped_efficiency == pytest.approx((0.8 * 0.75) ** 2)
        assert s.rep_rate == 80e6

    def test_range_checks(self):
        with pytest.raises(ContractError):
            SourceParams(epsilon=1.2)
        with pytest.raises(ContractError):
            SourceParams(epsilon=0.1, eta_herald=-0.1)
        with pytest.raises(ContractError):
            SourceParams(epsilon=0.1, rep_rate=0.0)
        with pytest.raises(ContractError):
            SourceParams(epsilon=0.1, rep_rate=math.inf)

    @pytest.mark.parametrize("field, value", [("epsilon", "0.1"), ("epsilon", "abc"),
                                              ("eta_detect", True), ("rep_rate", True)])
    def test_rejects_strings_and_booleans(self, field, value):
        # float() reads "0.1" and True, but the dataclass would keep the raw value
        with pytest.raises(ContractError, match=field):
            SourceParams(**{"epsilon": 0.1, field: value})

    @pytest.mark.parametrize("field", ["epsilon", "rep_rate"])
    def test_rejects_an_integer_too_large_for_a_float(self, field):
        with pytest.raises(ContractError, match=field):
            SourceParams(**{"epsilon": 0.1, field: 10**400})

    def test_from_lumped_efficiency(self):
        s = SourceParams.from_lumped_efficiency(0.01, 0.5)
        assert s.lumped_efficiency == pytest.approx(0.5, abs=1e-15)
        assert s.eta_detect == 1.0
        assert s.eta_herald == pytest.approx(math.sqrt(0.5))


# Grid arguments gaussian_jsa and tune_correlation_angle both refuse, naming
# the parameter: widths and spans that are not numbers, are not positive, are
# NaN or infinite, or whose squares leave the float range, and grid sizes
# that are not integers of at least 16.
BAD_GRID_ARGUMENTS = [
    ({"sigma_pump": 0.0}, "sigma_pump"),
    ({"sigma_pump": -1.0}, "sigma_pump"),
    ({"sigma_pump": 1e-200, "sigma_pm": 1e-201}, "sigma_pump"),
    ({"sigma_pump": 1e200, "sigma_pm": 1e199}, "sigma_pump"),
    ({"sigma_pump": math.nan}, "sigma_pump"),
    ({"sigma_pump": math.inf}, "sigma_pump"),
    ({"sigma_pm": 1e-200}, "sigma_pm"),
    ({"sigma_pm": math.nan}, "sigma_pm"),
    ({"sigma_pm": -math.inf}, "sigma_pm"),
    ({"sigma_pm": "0.6"}, "sigma_pm"),
    ({"sigma_pm": None}, "sigma_pm"),
    ({"grid_size": 16.5}, "grid_size"),
    ({"grid_size": 256.0}, "grid_size"),
    ({"grid_size": 15}, "grid_size"),
    ({"grid_size": 8}, "grid_size"),
    ({"span": 0.0}, "span"),
    ({"span": -1.0}, "span"),
    ({"span": math.nan}, "span"),
    ({"span": math.inf}, "span"),
    ({"span": 1e200}, "span"),
]


class TestGaussianJsa:
    def test_normalization(self):
        jsa = gaussian_jsa(1.0, 0.6, -0.2, grid_size=256)
        assert abs(jsa.norm() - 1.0) <= 1e-6
        assert jsa.grid_size == 256

    def test_factorable_point_is_pure(self):
        # at sin(2a) = -2 spm^2/sp^2 the quadratic cross term vanishes
        angle = -0.5 * math.asin(1.0)
        jsa = gaussian_jsa(1.0, math.sqrt(0.5), angle, grid_size=256)
        assert schmidt_purity(jsa) == pytest.approx(1.0, abs=1e-3)

    def test_truncation_flag(self):
        assert gaussian_jsa(1.0, 1.0, 0.0, 64, span=1.0).truncation_warning
        assert not gaussian_jsa(1.0, 1.0, 0.0, 64, span=8.0).truncation_warning

    @pytest.mark.parametrize("bad, name", BAD_GRID_ARGUMENTS)
    def test_bad_grid_arguments_name_the_parameter(self, bad, name):
        with pytest.raises(ContractError, match=f"^{name} must"):
            gaussian_jsa(**{"sigma_pump": 1.0, "sigma_pm": 0.6, "correlation_angle": 0.3, **bad})

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, "0.3", None])
    def test_bad_angle_named(self, angle):
        with pytest.raises(ContractError, match="^correlation_angle must"):
            gaussian_jsa(1.0, 0.6, angle)


def svd_purity(jsa):
    """Oracle: purity from the singular values of the amplitude grid."""
    weights = np.linalg.svd(jsa.amplitudes, compute_uv=False) ** 2
    return float((weights**2).sum() / weights.sum() ** 2)


def _random_grid(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSchmidtPurityOracle:
    @pytest.mark.parametrize("grid_size", [16, 64, 128, 256])
    @pytest.mark.parametrize("angle", [-0.9, -0.6, -0.3, 0.0, 0.4, 1.2])
    def test_gaussian_grids(self, grid_size, angle):
        jsa = gaussian_jsa(1.0, 0.6, angle, grid_size=grid_size)
        assert schmidt_purity(jsa) == pytest.approx(svd_purity(jsa), rel=0, abs=1e-13)

    @pytest.mark.parametrize("shape", [(16, 16), (40, 40), (96, 96), (24, 56)])
    def test_random_complex_grids(self, shape):
        jsa = normalized_joint_spectrum(_random_grid(np.random.default_rng(3), *shape), 0.1)
        assert schmidt_purity(jsa) == pytest.approx(svd_purity(jsa), rel=0, abs=1e-13)

    def test_rank_one_grid(self):
        rng = np.random.default_rng(4)
        a, b = _random_grid(rng, 1, 64)[0], _random_grid(rng, 1, 64)[0]
        jsa = normalized_joint_spectrum(np.outer(a, b), 0.25)
        assert schmidt_purity(jsa) == pytest.approx(svd_purity(jsa), rel=0, abs=1e-13)
        assert schmidt_purity(jsa) == pytest.approx(1.0, rel=0, abs=1e-13)

    def test_complex_grid_with_zero_imaginary_part(self):
        real = gaussian_jsa(1.0, 0.6, 0.3, grid_size=128).amplitudes
        jsa = normalized_joint_spectrum(real.astype(complex), 0.1)
        assert jsa.amplitudes.dtype == complex
        assert schmidt_purity(jsa) == pytest.approx(svd_purity(jsa), rel=0, abs=1e-13)
        as_real = normalized_joint_spectrum(real, 0.1)
        assert schmidt_purity(as_real) == pytest.approx(schmidt_purity(jsa), rel=0, abs=1e-13)


class TestNormalizedJointSpectrum:
    def test_real_grid_stays_real(self):
        assert gaussian_jsa(1.0, 0.6, 0.3, grid_size=32).amplitudes.dtype == np.float64
        assert normalized_joint_spectrum(np.ones((4, 4), dtype=int), 1.0).amplitudes.dtype \
            == np.float64
        grid = _random_grid(np.random.default_rng(5), 8, 8)
        assert normalized_joint_spectrum(grid, 1.0).amplitudes.dtype == complex

    def test_real_grid_has_the_bits_of_its_complex_copy(self):
        grid = np.random.default_rng(6).standard_normal((64, 64))
        real = normalized_joint_spectrum(grid, 0.3).amplitudes
        as_complex = normalized_joint_spectrum(grid.astype(complex), 0.3).amplitudes
        assert np.array_equal(real, as_complex.real)
        assert not np.any(as_complex.imag)


class TestSchmidtPurity:
    def test_rank_one_grid(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        b = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        jsa = normalized_joint_spectrum(np.outer(a, b), 0.25)
        assert schmidt_purity(jsa) == pytest.approx(1.0, abs=1e-9)

    def test_two_equal_schmidt_modes(self):
        grid = np.zeros((4, 4))
        grid[0, 0] = grid[1, 1] = 1.0 / math.sqrt(2.0)
        jsa = JointSpectrum(grid, nu_step=1.0, span=1.5)
        assert schmidt_purity(jsa) == pytest.approx(0.5, abs=1e-12)

    def test_zero_grid_rejected(self):
        with pytest.raises(ContractError):
            normalized_joint_spectrum(np.zeros((8, 8)), 1.0)
        with pytest.raises(ContractError):
            schmidt_purity(JointSpectrum(np.zeros((8, 8)), 1.0, 1.0))

    def test_unnormalized_grid_rejected(self):
        jsa = JointSpectrum(np.ones((8, 8)), nu_step=1.0, span=3.5)
        with pytest.raises(ContractError):
            schmidt_purity(jsa)

    def test_matches_gaussian_closed_form(self):
        # independent oracle: quadratic-form purity of the continuous limit
        for angle in (-0.9, -0.6, -0.3, 0.0, 0.4):
            jsa = gaussian_jsa(1.0, 0.6, angle, grid_size=256, span=8.0)
            want = gaussian_purity_closed_form(1.0, 0.6, angle)
            assert schmidt_purity(jsa) == pytest.approx(want, abs=1e-3)


class TestHomDip:
    def test_perfect_visibility_at_zero_delay(self):
        assert hom_dip(1.0, 1.0, 0.0) == 0.0

    def test_large_delay_limit(self):
        assert hom_dip(0.7, 1.0, 1e6) == pytest.approx(0.5, abs=1e-12)

    def test_partial_visibility_floor(self):
        assert hom_dip(0.962, 1.0, 0.0) == pytest.approx(0.019, abs=1e-12)

    def test_squares_beyond_the_float_range(self):
        # sigma**2 or tau**2 alone overflows; the product sigma * tau does not
        assert hom_dip(0.9, 1e200, 0.0) == 0.5 * (1.0 - 0.9)
        assert hom_dip(0.9, 1e200, 2e-200) == 0.5 * (1.0 - 0.9 * math.exp(-4.0))
        assert hom_dip(0.9, 1e-200, 2e200) == 0.5 * (1.0 - 0.9 * math.exp(-4.0))
        assert hom_dip(0.5, 1.0, 1e200) == 0.5
        assert hom_dip(0.5, 1e200, 1e200) == 0.5
        # inside the float range the value is sigma**2 * tau**2, as before
        assert hom_dip(0.9, 1.3, 0.7) == 0.5 * (1.0 - 0.9 * math.exp(-(1.3**2) * 0.7**2))

    def test_guards(self):
        with pytest.raises(ContractError):
            hom_dip(1.5, 1.0, 0.0)
        with pytest.raises(ContractError):
            hom_dip(0.5, 0.0, 0.0)
        for sigma, tau in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ContractError):
                hom_dip(0.5, sigma, tau)


class TestPredictedVisibility:
    def test_separable_spectrum(self):
        angle = -0.5 * math.asin(1.0)
        jsa = gaussian_jsa(1.0, math.sqrt(0.5), angle, grid_size=128)
        assert schmidt_purity(jsa) == pytest.approx(1.0, abs=1e-3)


def retired_tune(sigma_pump, sigma_pm, target, grid_size=256, span=None):
    """The tuner's bisection over ``schmidt_purity(gaussian_jsa(...))``, the
    per-step path the Gram-structure evaluator replaced: the angle and the
    number of purity evaluations."""
    evaluations = 0

    def purity_at(angle):
        nonlocal evaluations
        evaluations += 1
        return schmidt_purity(gaussian_jsa(sigma_pump, sigma_pm, angle, grid_size, span))

    tol = sources._PURITY_TOL
    lo = -0.5 * math.asin(2.0 * sigma_pm**2 / sigma_pump**2)
    p_lo = purity_at(lo)
    if p_lo < target - tol:
        raise ContractError(f"target purity {target} exceeds the grid maximum {p_lo:.6f}")
    step = 0.05
    while step < math.pi:
        hi = lo + step
        if purity_at(hi) < target:
            break
        step *= 2.0
    else:
        raise ContractError(f"target purity {target} not bracketed by the angle sweep")
    for _ in range(sources._MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p_mid = purity_at(mid)
        if abs(p_mid - target) <= tol:
            return mid, evaluations
        if p_mid > target:
            lo = mid
        else:
            hi = mid
    raise ContractError(f"bisection did not reach purity {target} within "
                        f"{sources._MAX_BISECTIONS} steps")


def _outcome(tune, *args):
    """("angle", angle, evaluations) of a tuning, or ("refused", message)."""
    try:
        result = tune(*args)
    except ContractError as exc:
        return "refused", str(exc)
    return ("angle", *result) if isinstance(result, tuple) else ("angle", result)


# (sigma_pump, sigma_pm, target purity, grid size, span): width ratios from
# the factorable limit 2 sigma_pm^2 = sigma_pump^2 down to 1/20, the smallest
# grid, odd grids and 256, default and explicit spans, clipping spans, a
# target within the tolerance of the factorable point's, and one the angle
# sweep cannot bracket.
TUNING_SWEEP = [
    (1.0, 0.6, 0.99, 256, None),
    (1.0, 0.6, 0.95, 128, None),
    (1.0, 0.6, 0.9, 16, None),
    (1.0, 0.6, 0.8, 17, None),
    (1.0, 0.6, 0.6, 256, 8.0),
    (1.0, 0.6, 0.95, 16, 1.0),
    (1.0, 0.6, 0.5, 31, None),
    (1.0, 0.7, 0.99, 64, None),
    (1.0, 0.5, 0.999, 77, None),
    (1.0, 0.3, 0.95, 101, None),
    (1.0, 0.2, 0.7, 128, 3.0),
    (1.0, 0.05, 0.9, 256, 2.0),
    (2.0, 0.5, 0.9, 256, 6.0),
    (2.0, 1.2, 0.97, 33, None),
    (0.5, 0.1, 0.99, 48, 1.5),
    (3.0, 2.0, 0.85, 256, 10.0),
    (5.0, 3.5, 0.98, 200, None),
    (1e-3, 4e-4, 0.95, 90, None),
    (1e3, 600.0, 0.9, 16, 2500.0),
    (1.0, 0.7, 0.9999, 16, 1.2),
    (1.0, 0.6, 0.2, 16, None),
]


class TestTuneCorrelationAngle:
    def test_reaches_target_purity(self):
        angle = tune_correlation_angle(1.0, 0.6, 0.99, grid_size=256)
        jsa = gaussian_jsa(1.0, 0.6, angle, grid_size=256)
        assert schmidt_purity(jsa) == pytest.approx(0.99, abs=1e-3)

    def test_deterministic(self):
        a = tune_correlation_angle(1.0, 0.6, 0.95, grid_size=128)
        b = tune_correlation_angle(1.0, 0.6, 0.95, grid_size=128)
        assert a == b

    def test_no_factorable_point(self):
        with pytest.raises(ContractError):
            tune_correlation_angle(1.0, 1.0, 0.99)

    @pytest.mark.parametrize("target, grid_size, angle, evaluations", [
        (0.99, 256, -0.267526159466515, 10),
        (0.95, 128, -0.13901053446651498, 15),
    ])
    def test_pinned_angles_and_evaluations(self, monkeypatch, target, grid_size, angle,
                                           evaluations):
        # Pinned from the SVD purity the Gram form replaced, which the Gram
        # structure replaced in turn: bisection visits the same angles.
        calls = []
        gram_purity = sources._gram_purity

        def counted(terms, angle):
            calls.append(terms[0].size)
            return gram_purity(terms, angle)

        monkeypatch.setattr(sources, "_gram_purity", counted)
        assert tune_correlation_angle(1.0, 0.6, target, grid_size=grid_size) == angle
        assert calls == [grid_size] * evaluations

    @pytest.mark.parametrize("bad, name", BAD_GRID_ARGUMENTS)
    def test_bad_grid_arguments_name_the_parameter(self, monkeypatch, bad, name):
        monkeypatch.setattr(sources, "_gram_terms", None)  # refused before any arithmetic
        with pytest.raises(ContractError, match=f"^{name} must"):
            tune_correlation_angle(**{"sigma_pump": 1.0, "sigma_pm": 0.6,
                                      "target_purity": 0.9, **bad})

    def test_builds_no_spectrum(self, monkeypatch):
        monkeypatch.setattr(sources, "gaussian_jsa", None)
        monkeypatch.setattr(sources, "schmidt_purity", None)
        assert tune_correlation_angle(1.0, 0.6, 0.99) == -0.267526159466515

    @pytest.mark.parametrize("sigma_pump, sigma_pm, target, grid_size, span", TUNING_SWEEP)
    def test_matches_the_bisection_over_schmidt_purity(self, monkeypatch, sigma_pump, sigma_pm,
                                                       target, grid_size, span):
        want = _outcome(retired_tune, sigma_pump, sigma_pm, target, grid_size, span)
        calls = []
        gram_purity = sources._gram_purity

        def counted(terms, angle):
            calls.append(angle)
            return gram_purity(terms, angle)

        monkeypatch.setattr(sources, "_gram_purity", counted)
        got = _outcome(tune_correlation_angle, sigma_pump, sigma_pm, target, grid_size, span)
        assert got[:2] == want[:2]
        if got[0] == "angle":
            assert len(calls) == want[2]

    def test_gram_purity_matches_schmidt_purity_at_random_angles(self):
        rng = np.random.default_rng(28)
        for _ in range(80):
            sigma_pump = 10 ** rng.uniform(-3, 3)
            sigma_pm = sigma_pump * 10 ** rng.uniform(-1.5, 1.5)
            grid_size = int(rng.integers(16, 257))
            span = (None if rng.random() < 0.5
                    else 4 * max(sigma_pump, sigma_pm) * 10 ** rng.uniform(-0.7, 0.5))
            angle = rng.uniform(-math.pi, math.pi)
            want = schmidt_purity(gaussian_jsa(sigma_pump, sigma_pm, angle, grid_size, span))
            terms = sources._gram_terms(
                *sources._check_jsa_grid(sigma_pump, sigma_pm, grid_size, span))
            assert sources._gram_purity(terms, angle) == pytest.approx(want, rel=1e-13, abs=0)

    def test_all_underflow_grid_refused_as_before(self):
        # a 16-point grid 1e5 widths across: every amplitude underflows to 0
        args = (1e-3, 5e-4, 0.9, 16, 100.0)
        with pytest.raises(ContractError, match="^joint spectrum grid is identically zero$"):
            retired_tune(*args)
        with pytest.raises(ContractError, match="^joint spectrum grid is identically zero$"):
            tune_correlation_angle(*args)


class TestFireSources:
    def test_never_fires_at_zero_epsilon(self):
        fire = fire_sources([SourceParams(epsilon=0.0)] * 3, seed=1, pulses=200)
        assert not fire.pair_created.any()
        assert not fire.heralded.any()
        assert not fire.signal_present.any()

    def test_always_fires_at_unit_parameters(self):
        fire = fire_sources([SourceParams(epsilon=1.0)] * 3, seed=1, pulses=200)
        assert fire.pair_created.all()
        assert fire.heralded.all()
        assert fire.signal_present.all()

    def test_mean_fired_count(self):
        pulses = 1_000_000
        fire = fire_sources([SourceParams(epsilon=0.1)] * 12, seed=4, pulses=pulses)
        mean = fire.pair_created.sum(axis=1).mean()
        band = 3.0 * math.sqrt(12 * 0.1 * 0.9 / pulses)
        assert abs(mean - 1.2) <= band

    def test_heterogeneous_rates_match_the_cell_model(self):
        # every cell must follow its source's Bernoulli probabilities for
        # pair, herald, signal and both
        params = [
            SourceParams(0.0, eta_herald=0.9, eta_detect=0.8),
            SourceParams(0.004, eta_herald=0.7, eta_detect=0.6),
            SourceParams(0.3, eta_herald=0.5, eta_detect=0.9),
            SourceParams(1.0, eta_herald=0.8, eta_detect=0.4),
        ]
        pulses = 1_000_000
        fire = fire_sources(params, seed=6, pulses=pulses)
        both = fire.heralded & fire.signal_present
        for i, p in enumerate(params):
            eps, eta_h, eta_d = p.epsilon, p.eta_herald, p.eta_detect
            for cells, prob in (
                (fire.pair_created, eps),
                (fire.heralded, eps * eta_h * eta_d),
                (fire.signal_present, eps * eta_h),
                (both, eps * eta_h**2 * eta_d),
            ):
                sigma = math.sqrt(prob * (1.0 - prob) / pulses)
                assert abs(cells[:, i].mean() - prob) <= 5.0 * sigma, (i, prob)
        assert not np.any(fire.heralded & ~fire.pair_created)
        assert not np.any(fire.signal_present & ~fire.pair_created)

    def test_determinism(self):
        a = fire_sources([SourceParams(epsilon=0.3)] * 4, seed=9, pulses=50)
        b = fire_sources([SourceParams(epsilon=0.3)] * 4, seed=9, pulses=50)
        assert np.array_equal(a.heralded, b.heralded)

    def test_guards(self):
        with pytest.raises(ContractError):
            fire_sources([], seed=0)
        with pytest.raises(ContractError):
            fire_sources([SourceParams(epsilon=0.1)], seed=0, pulses=0)

    @pytest.mark.parametrize("params, pulses, message", [
        ([SourceParams(epsilon=0.3)], 2.5, "pulses must be an integer"),
        ([SourceParams(epsilon=0.3)], True, "pulses must be an integer"),
        ([SourceParams(epsilon=0.3)], np.float64(5), "pulses must be an integer"),
        ([0.3], 5, "source 0 must be a SourceParams"),
        ([SourceParams(epsilon=0.3), {"epsilon": 0.3}], 5, "source 1 must be a SourceParams"),
    ])
    def test_contract_errors(self, params, pulses, message):
        with pytest.raises(ContractError, match=message):
            fire_sources(params, 0, pulses)

    def test_numpy_integer_pulses(self):
        fire = fire_sources([SourceParams(epsilon=0.3)] * 2, seed=9, pulses=np.int64(50))
        assert fire.pair_created.shape == (50, 2)


class TestSourceConfigFile:
    def test_round_trip(self, tmp_path):
        params = [
            SourceParams(0.01, 0.9, 0.75, 80e6),
            SourceParams(0.02, 0.8, 0.75, 80e6),
        ]
        path = tmp_path / "sources.json"
        save_source_params(path, params)
        assert load_source_params(path) == params

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sources": [{"epsilon": 0.1, "gain": 2}]}))
        with pytest.raises(DataError):
            load_source_params(path)

    def test_removed_indistinguishability_field_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"sources": [{"epsilon": 0.1, "indistinguishability": 1.0}]}))
        with pytest.raises(DataError, match="unknown fields"):
            load_source_params(path)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sources": [{"epsilon": 1.5}]}))
        with pytest.raises(DataError):
            load_source_params(path)

    def test_nesting_too_deep_to_parse_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"sources": ' + "[" * 100_000 + "]" * 100_000 + "}")
        with pytest.raises(DataError, match="recursion"):
            load_source_params(path)

    def test_empty_list_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sources": []}))
        with pytest.raises(DataError):
            load_source_params(path)

    def test_rep_rate_too_large_for_a_float_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"sources": [{"epsilon": 0.5, "rep_rate": 1%s}]}' % ("0" * 400))
        with pytest.raises(DataError, match="rep_rate"):
            load_source_params(path)


# Mostly source-list documents, so that fuzzing reaches SourceParams.
_SOURCE = st.fixed_dictionaries({}, optional={
    name: st.floats(0, 1) | JSON_NUMBERS | JSON_VALUES
    for name in ("epsilon", "eta_herald", "eta_detect", "rep_rate")
}) | JSON_VALUES
_SOURCE_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"sources": st.lists(_SOURCE, max_size=3) | JSON_VALUES})
_FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(doc=_SOURCE_DOCS)
def test_load_source_params_returns_or_raises_data_or_contract_error(tmp_path, doc):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        params = load_source_params(path)
    except (DataError, ContractError):
        return
    assert len(params) == len(doc["sources"]) > 0
    assert all(0 < float(p.rep_rate) < math.inf for p in params)


def test_module_properties():
    check_sources_properties(seed=3)
