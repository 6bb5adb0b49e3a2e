"""Heralded photon-pair source model.

Covers the per-pulse pair-generation statistics with heralding and
detection losses, the joint spectral amplitude of a pair in the Gaussian
phase-matching approximation, spectral purity via Schmidt decomposition,
and the two-photon interference dip predicted between independent heralded
photons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ContractError, DataError
from .rng import derive_rng

__all__ = [
    "SourceParams",
    "JointSpectrum",
    "FireOutcome",
    "normalized_joint_spectrum",
    "gaussian_jsa",
    "schmidt_purity",
    "hom_dip",
    "tune_correlation_angle",
    "fire_sources",
    "load_source_params",
    "save_source_params",
]

# Boundary amplitude above exp(-4) of the peak means the grid clips the
# envelope inside its 4-sigma extent.
_EDGE_FRACTION = math.exp(-4.0)

# Angle tuning stops within this purity of the target, after at most this many bisections.
_PURITY_TOL = 1e-4
_MAX_BISECTIONS = 80


def _as_float(name: str, value) -> float:
    if isinstance(value, (str, bool)):  # float() would read "0.1" and True
        raise ContractError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer too large for a float
        raise ContractError(f"{name} must be a number in the float range") from exc


def _check_unit_interval(name: str, value: float) -> float:
    value = _as_float(name, value)
    if not 0.0 <= value <= 1.0:
        raise ContractError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class SourceParams:
    """Per-pulse parameters of one heralded pair source.

    epsilon is the pair-generation probability per pump pulse, eta_herald
    the per-arm collection efficiency (applied symmetrically to the idler
    and signal arms), eta_detect the single-photon detector efficiency and
    rep_rate the pump repetition rate in Hz.
    """

    epsilon: float
    eta_herald: float = 1.0
    eta_detect: float = 1.0
    rep_rate: float = 80e6

    def __post_init__(self):
        _check_unit_interval("epsilon", self.epsilon)
        _check_unit_interval("eta_herald", self.eta_herald)
        _check_unit_interval("eta_detect", self.eta_detect)
        if not 0 < _as_float("rep_rate", self.rep_rate) < math.inf:
            raise ContractError(f"rep_rate must be finite and positive, got {self.rep_rate!r}")

    @property
    def herald_probability(self) -> float:
        """Per-pulse probability that the idler arm registers a click."""
        return self.epsilon * self.eta_herald * self.eta_detect

    @property
    def lumped_efficiency(self) -> float:
        """Combined two-arm efficiency per generated pair.

        This is the eta entering the (epsilon * eta)^n count-rate scaling:
        the probability that a generated pair yields both a herald click and
        a detected signal photon is epsilon times this value.
        """
        return (self.eta_herald * self.eta_detect) ** 2

    @classmethod
    def from_lumped_efficiency(cls, epsilon: float, eta: float,
                               rep_rate: float = 80e6) -> "SourceParams":
        """Build symmetric-arm parameters with a given lumped efficiency.

        The per-pair success probability eta is split evenly between the
        herald and signal arms (sqrt(eta) each) with ideal detectors, so
        ``lumped_efficiency == eta`` and the closed-form rate formulas apply
        directly.
        """
        eta = _check_unit_interval("eta", eta)
        return cls(
            epsilon=epsilon,
            eta_herald=math.sqrt(eta),
            eta_detect=1.0,
            rep_rate=rep_rate,
        )


@dataclass(frozen=True)
class JointSpectrum:
    """Two-photon joint spectral amplitude on a uniform detuning grid.

    ``amplitudes[i, j]`` is the amplitude at signal detuning ``nu[i]`` and
    idler detuning ``nu[j]``; the grid is normalized so that
    ``sum |f|^2 * nu_step^2 == 1``.  A real grid, such as the Gaussian
    one, stays real (float64).
    """

    amplitudes: np.ndarray
    nu_step: float
    span: float
    truncation_warning: bool = False

    @property
    def grid_size(self) -> int:
        return self.amplitudes.shape[0]

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.nu_step**2)


def normalized_joint_spectrum(amplitudes, nu_step: float, span: float | None = None,
                              truncation_warning: bool = False) -> JointSpectrum:
    """Wrap a raw amplitude grid as a normalized :class:`JointSpectrum`.

    A real grid stays real (float64) and a complex one complex.  The grid is
    scaled by the reciprocal of its root norm, which is what complex division
    by a real scalar computes, so a real grid saved as complex holds the same
    bits as if it had been made complex first.
    """
    grid = np.asarray(amplitudes)
    grid = grid.astype(complex if np.iscomplexobj(grid) else float, copy=False)
    if grid.ndim != 2:
        raise ContractError("joint spectrum grid must be 2-D")
    total = np.sum(np.abs(grid) ** 2) * nu_step**2
    if total <= 0:
        raise ContractError("joint spectrum grid is identically zero")
    if span is None:
        span = 0.5 * nu_step * (grid.shape[0] - 1)
    return JointSpectrum(grid * (1.0 / math.sqrt(total)), float(nu_step), float(span),
                         truncation_warning)


def gaussian_jsa(sigma_pump: float, sigma_pm: float, correlation_angle: float,
                 grid_size: int = 256, span: float | None = None) -> JointSpectrum:
    """Joint spectral amplitude in the Gaussian phase-matching approximation.

    The amplitude is the product of a pump envelope
    ``exp(-(nu_s + nu_i)^2 / (4 sigma_pump^2))`` and a phase-matching
    envelope ``exp(-(nu_s cos(a) + nu_i sin(a))^2 / (4 sigma_pm^2))`` with
    correlation angle ``a``.  The result is normalized on the grid; when
    the grid boundary clips the envelopes inside their 4-sigma extent the
    ``truncation_warning`` flag is set.

    Parameters
    ----------
    sigma_pump, sigma_pm : float
        Widths of the pump and phase-matching envelopes (same units as the
        detuning axis).
    correlation_angle : float
        Orientation of the phase-matching envelope, in radians.
    grid_size : int
        Points per axis, at least 16.
    span : float, optional
        Half-width of the detuning grid.  Defaults to four times the wider
        envelope width.
    """
    if sigma_pump <= 0 or sigma_pm <= 0:
        raise ContractError("envelope widths must be positive")
    if grid_size < 16:
        raise ContractError(f"grid_size must be at least 16, got {grid_size}")
    if span is None:
        span = 4.0 * max(sigma_pump, sigma_pm)
    if span <= 0:
        raise ContractError("span must be positive")
    nu = np.linspace(-span, span, grid_size)
    nu_step = nu[1] - nu[0]
    nu_s = nu[:, None]
    nu_i = nu[None, :]
    pump = np.exp(-((nu_s + nu_i) ** 2) / (4.0 * sigma_pump**2))
    ca, sa = math.cos(correlation_angle), math.sin(correlation_angle)
    phase_matching = np.exp(-((nu_s * ca + nu_i * sa) ** 2) / (4.0 * sigma_pm**2))
    grid = pump * phase_matching
    peak = grid.max()
    edge = max(grid[0, :].max(), grid[-1, :].max(), grid[:, 0].max(), grid[:, -1].max())
    warn = bool(edge > _EDGE_FRACTION * peak)
    return normalized_joint_spectrum(grid, float(nu_step), float(span), warn)


def schmidt_purity(jsa: JointSpectrum) -> float:
    """Spectral purity ``sum(lambda_k^2)`` of the Schmidt decomposition.

    The Schmidt coefficients ``lambda_k`` are the squared, normalized
    singular values of the amplitude grid ``A``, so a separable (rank-1)
    spectrum has purity exactly 1 and purity decreases with spectral
    correlation.  The squared singular values are the eigenvalues of the
    Gram matrix ``G = A^H A``, so ``sum(lambda_k^2) = ||G||_F^2 / tr(G)^2``
    and no decomposition is needed.
    """
    total = jsa.norm()
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-4):
        raise ContractError(f"joint spectrum must be normalized, got norm {total}")
    a = jsa.amplitudes
    gram = a.conj().T @ a
    trace = np.trace(gram).real
    if trace <= 0:
        raise ContractError("joint spectrum grid is identically zero")
    return float(np.vdot(gram, gram).real / trace**2)


def hom_dip(visibility: float, sigma: float, tau: float) -> float:
    """Normalized coincidence probability at relative delay ``tau``.

    Returns ``0.5 * (1 - visibility * exp(-sigma^2 tau^2))``: half at large
    delay, minimal at zero delay, zero only for unit visibility.
    """
    visibility = _check_unit_interval("visibility", visibility)
    if not 0 < sigma < math.inf:
        raise ContractError(f"sigma must be finite and positive, got {sigma}")
    if not math.isfinite(tau):
        raise ContractError(f"tau must be finite, got {tau}")
    try:
        exponent = sigma**2 * tau**2
    except OverflowError:  # a square beyond the float range: square the product instead
        exponent = (sigma * tau) * (sigma * tau)  # inf, not an error, when it overflows too
    return 0.5 * (1.0 - visibility * math.exp(-exponent))


def tune_correlation_angle(sigma_pump: float, sigma_pm: float, target_purity: float,
                           grid_size: int = 256, span: float | None = None) -> float:
    """Find a correlation angle whose discretized spectrum has the target purity.

    Starts from the factorable angle (where the pump and phase-matching
    envelopes separate and purity is maximal) and bisects toward larger
    correlation until the grid purity is within 1e-4 of ``target_purity``.
    """
    target_purity = _check_unit_interval("target_purity", target_purity)
    ratio = 2.0 * sigma_pm**2 / sigma_pump**2
    if ratio > 1.0:
        raise ContractError(
            "no factorable point exists for these widths (need 2*sigma_pm^2 <= sigma_pump^2)"
        )

    def purity_at(angle: float) -> float:
        return schmidt_purity(gaussian_jsa(sigma_pump, sigma_pm, angle, grid_size, span))

    factorable = -0.5 * math.asin(ratio)
    lo = factorable
    p_lo = purity_at(lo)
    if p_lo < target_purity - _PURITY_TOL:
        raise ContractError(
            f"target purity {target_purity} exceeds the grid maximum {p_lo:.6f}"
        )
    # Walk away from the factorable point until the purity drops below target.
    step = 0.05
    hi = lo
    while step < math.pi:
        hi = lo + step
        if purity_at(hi) < target_purity:
            break
        step *= 2.0
    else:
        raise ContractError(f"target purity {target_purity} not bracketed by the angle sweep")
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p_mid = purity_at(mid)
        if abs(p_mid - target_purity) <= _PURITY_TOL:
            return mid
        if p_mid > target_purity:
            lo = mid
        else:
            hi = mid
    raise ContractError(
        f"bisection did not reach purity {target_purity} within {_MAX_BISECTIONS} steps")


@dataclass(frozen=True)
class FireOutcome:
    """Per-pulse, per-source outcome of the pair-generation model.

    Boolean arrays of shape ``(pulses, sources)``.  ``heralded`` implies
    ``pair_created``; ``signal_present`` means the signal photon survived
    its arm and reaches the interferometer input.  The arrays are a dense
    view of a sparse draw that only visits the cells holding a pair.
    """

    pair_created: np.ndarray
    heralded: np.ndarray
    signal_present: np.ndarray


class _Pairs(NamedTuple):
    """The pairs created in a run of pulses, sorted by (pulse, source)."""

    pulse: np.ndarray
    source: np.ndarray
    heralded: np.ndarray
    signal: np.ndarray


def _draw_pairs(rng: np.random.Generator, epsilon: np.ndarray, herald_prob: np.ndarray,
                signal_prob: np.ndarray, pulses: int) -> _Pairs:
    # A binomial count of distinct pulses per source is exactly one
    # Bernoulli(epsilon) trial per (pulse, source) cell, at a cost in the
    # number of pairs rather than of cells.
    k = epsilon.shape[0]
    counts = rng.binomial(pulses, epsilon)
    keys = np.concatenate([rng.choice(pulses, c, replace=False, shuffle=False) * k + i
                           for i, c in enumerate(counts.tolist())])
    keys.sort()
    pulse, source = np.divmod(keys, k)
    heralded = rng.random(keys.size) < herald_prob[source]
    signal = rng.random(keys.size) < signal_prob[source]
    return _Pairs(pulse, source, heralded, signal)


def fire_sources(params: Sequence[SourceParams], seed: int, pulses: int = 1) -> FireOutcome:
    """Simulate pair creation, heralding and signal survival for each source.

    Each source independently creates a pair with probability epsilon per
    pulse; given a pair, the idler is detected (heralds) with probability
    ``eta_herald * eta_detect`` and the signal survives to the
    interferometer with probability ``eta_herald``.  Output-side detection
    is applied later, at the interferometer outputs.  Deterministic given
    the seed.

    Pairs are drawn sparsely: a binomial pair count per source, the pulses
    holding them, then the herald and signal draws of those pairs only.
    The returned arrays scatter that draw into the dense per-cell view.
    """
    if not params:
        raise ContractError("need at least one source")
    if pulses < 1:
        raise ContractError("pulse count must be at least 1")
    eps = np.array([p.epsilon for p in params])
    herald = np.array([p.eta_herald * p.eta_detect for p in params])
    signal = np.array([p.eta_herald for p in params])
    pairs = _draw_pairs(derive_rng(seed, "fire-sources"), eps, herald, signal, pulses)
    dense = np.zeros((3, pulses, len(params)), dtype=bool)
    dense[0, pairs.pulse, pairs.source] = True
    dense[1, pairs.pulse, pairs.source] = pairs.heralded
    dense[2, pairs.pulse, pairs.source] = pairs.signal
    return FireOutcome(*dense)


_SOURCE_FIELDS = tuple(f.name for f in fields(SourceParams))


def load_source_params(path) -> list[SourceParams]:
    """Read per-source parameters from a JSON config file.

    The file holds ``{"sources": [{...}, ...]}`` with the keys epsilon,
    eta_herald, eta_detect and rep_rate per source.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text that is not UTF-8
            raise DataError(f"not a valid source config: {exc}") from exc
    entries = doc.get("sources") if isinstance(doc, dict) else None
    if not isinstance(entries, list) or not entries:
        raise DataError("source config must contain a non-empty 'sources' list")
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise DataError(f"source {i} must be an object")
        unknown = set(entry) - set(_SOURCE_FIELDS)
        if unknown:
            raise DataError(f"source {i} has unknown fields: {sorted(unknown)}")
        try:
            out.append(SourceParams(**entry))
        except (ContractError, TypeError) as exc:
            raise DataError(f"source {i} is invalid: {exc}") from exc
    return out


def save_source_params(path, params: Sequence[SourceParams]) -> None:
    """Write per-source parameters as a JSON config file."""
    doc = {"sources": [{f: getattr(p, f) for f in _SOURCE_FIELDS} for p in params]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
