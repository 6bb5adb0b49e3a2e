"""Heralded photon-pair source model.

Covers the per-pulse pair-generation statistics with heralding and
detection losses, the joint spectral amplitude of a pair in the Gaussian
phase-matching approximation, spectral purity via Schmidt decomposition,
and the two-photon interference dip predicted between independent heralded
photons.

The Gaussian grid's Gram matrix is Toeplitz times Hankel, ``D[l - l'] *
H[l + l']``, so the correlation-angle tuner reads a grid's purity from the
2N - 1 sums ``H`` and the N-point band ``D``, not from an N x N spectrum
and its N^3 Gram product.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import ContractError, DataError
from .rng import _require_integer, derive_rng

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
    except TypeError as exc:  # None, or another object float() does not take
        raise ContractError(f"{name} must be a number, got {value!r}") from exc


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


def _check_width(name: str, value) -> float:
    value = _as_float(name, value)
    if not (value > 0 and sys.float_info.min <= value * value < math.inf):  # NaN fails too
        raise ContractError(f"{name} must be positive with a square in the float range, "
                            f"got {value!r}")
    return value


def _check_jsa_grid(sigma_pump, sigma_pm, grid_size, span) -> tuple[float, float, int, float]:
    """Checked widths, size and span (by default 4 times the wider width) of a JSA grid."""
    sigma_pump = _check_width("sigma_pump", sigma_pump)
    sigma_pm = _check_width("sigma_pm", sigma_pm)
    try:
        grid_size = operator.index(grid_size)  # a bool passes, but fails the bound
    except TypeError:
        raise ContractError(f"grid_size must be an integer, got {grid_size!r}") from None
    if grid_size < 16:
        raise ContractError(f"grid_size must be at least 16, got {grid_size}")
    span = 4.0 * max(sigma_pump, sigma_pm) if span is None else _check_width("span", span)
    return sigma_pump, sigma_pm, grid_size, span


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
        detuning axis), positive with squares in the float range.
    correlation_angle : float
        Orientation of the phase-matching envelope, in radians.
    grid_size : int
        Points per axis, at least 16.
    span : float, optional
        Half-width of the detuning grid, checked as the widths are.  Defaults
        to four times the wider envelope width.
    """
    sigma_pump, sigma_pm, grid_size, span = _check_jsa_grid(sigma_pump, sigma_pm, grid_size,
                                                            span)
    if not math.isfinite(_as_float("correlation_angle", correlation_angle)):
        raise ContractError(f"correlation_angle must be finite, got {correlation_angle!r}")
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


def _gram_terms(sigma_pump: float, sigma_pm: float, grid_size: int, span: float) -> tuple:
    """The angle-free terms of :func:`_gram_purity`: the grid ``nu``, the
    first N points ``mu`` of the half-step grid and the pump exponents."""
    nu = np.linspace(-span, span, grid_size)
    mu = np.linspace(-span, span, 2 * grid_size - 1)[:grid_size]
    # Each exponent scales a finite sum and squares it, so none is NaN.
    pump = -((np.add.outer(nu, mu) * (1.0 / (math.sqrt(2.0) * sigma_pump))) ** 2)
    return nu, mu, pump, sigma_pump, sigma_pm


def _gram_purity(terms: tuple, angle: float) -> float:
    """``schmidt_purity(gaussian_jsa(...))`` at one angle, from the Hankel
    sums ``H`` and the Toeplitz band ``D`` of the grid's Gram matrix."""
    nu, mu, pump, sigma_pump, sigma_pm = terms
    sa = math.sin(angle)
    grid = np.add.outer(nu * math.cos(angle), mu * sa)
    grid *= 1.0 / (math.sqrt(2.0) * sigma_pm)
    np.square(grid, out=grid)
    np.subtract(pump, grid, out=grid)
    half = np.exp(grid, out=grid).sum(axis=0)  # H[m] = H[2N - 2 - m]: Q and the grid are even
    hankel = np.concatenate((half, half[-2::-1]))
    trace = hankel[0::2].sum()
    if not trace > 0:
        raise ContractError("joint spectrum grid is identically zero")
    # band[r] = S[r], the sum of D[|v|]^2 over |v| <= r with v = r (mod 2):
    # D[d]^2 twice for d > 0 (+d and -d), summed per parity.
    lags = (nu[1] - nu[0]) * np.arange(nu.size)
    band = np.exp(-((lags * (0.5 / sigma_pump)) ** 2 + ((sa * lags) * (0.5 / sigma_pm)) ** 2))
    band[1:] *= 2.0
    band[0::2] = np.cumsum(band[0::2])
    band[1::2] = np.cumsum(band[1::2])
    u = np.arange(hankel.size)
    return float(np.dot((hankel / trace) ** 2, band[np.minimum(u, u[::-1])]))


def tune_correlation_angle(sigma_pump: float, sigma_pm: float, target_purity: float,
                           grid_size: int = 256, span: float | None = None) -> float:
    """Find a correlation angle whose discretized spectrum has the target purity.

    Starts from the factorable angle (where the pump and phase-matching
    envelopes separate and purity is maximal) and bisects toward larger
    correlation until the grid purity, ``schmidt_purity(gaussian_jsa(...))``,
    is within 1e-4 of ``target_purity``.

    A step reads that purity off the Gram matrix.  With ``A[k, l] =
    exp(-Q(nu_k, nu_l))`` on the grid ``nu`` of step ``dnu``, ``G = A^T A``
    is Toeplitz times Hankel, ``G[l, l'] = D[l - l'] * H[l + l']``, with
    ``H[m] = sum_k exp(-2 Q(nu_k, mu_m))`` on ``mu = linspace(-span, span,
    2N - 1)``, ``D[d] = exp(-g (d dnu)^2 / 2)`` and ``g = 1 / (4 sigma_pump^2)
    + sin(a)^2 / (4 sigma_pm^2)``.  So ``tr G = sum_l H[2l]`` and
    ``||G||_F^2 = sum_u H[u]^2 S[u]``, ``S[u]`` the sum of ``D[|v|]^2`` over
    ``|v| <= min(u, 2N - 2 - u)``, ``v = u (mod 2)``.  ``Q`` is even, so
    ``H[2N - 2 - m] = H[m]``: a step costs N x N exponentials and O(N) sums.
    """
    target_purity = _check_unit_interval("target_purity", target_purity)
    sigma_pump, sigma_pm, grid_size, span = _check_jsa_grid(sigma_pump, sigma_pm, grid_size,
                                                            span)
    ratio = 2.0 * sigma_pm**2 / sigma_pump**2
    if ratio > 1.0:
        raise ContractError(
            "no factorable point exists for these widths (need 2*sigma_pm^2 <= sigma_pump^2)"
        )
    terms = _gram_terms(sigma_pump, sigma_pm, grid_size, span)
    factorable = -0.5 * math.asin(ratio)
    lo = factorable
    p_lo = _gram_purity(terms, lo)
    if p_lo < target_purity - _PURITY_TOL:
        raise ContractError(
            f"target purity {target_purity} exceeds the grid maximum {p_lo:.6f}"
        )
    # Walk away from the factorable point until the purity drops below target.
    step = 0.05
    hi = lo
    while step < math.pi:
        hi = lo + step
        if _gram_purity(terms, hi) < target_purity:
            break
        step *= 2.0
    else:
        raise ContractError(f"target purity {target_purity} not bracketed by the angle sweep")
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        p_mid = _gram_purity(terms, mid)
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
    its arm and reaches the interferometer input.
    """

    pair_created: np.ndarray
    heralded: np.ndarray
    signal_present: np.ndarray


def _require_sources(params: Sequence[SourceParams]) -> None:
    """ContractError unless every source is a SourceParams."""
    for i, p in enumerate(params):
        if not isinstance(p, SourceParams):
            raise ContractError(f"source {i} must be a SourceParams, got {p!r}")


def fire_sources(params: Sequence[SourceParams], seed: int, pulses: int = 1) -> FireOutcome:
    """Simulate pair creation, heralding and signal survival for each source.

    Each source independently creates a pair with probability epsilon per
    pulse; given a pair, the idler is detected (heralds) with probability
    ``eta_herald * eta_detect`` and the signal survives to the
    interferometer with probability ``eta_herald``.  Output-side detection
    is applied later, at the interferometer outputs.  Deterministic given
    the seed.

    Each cell compares three uniforms of its own with these probabilities.
    No run calls this function: ``scattershot_run`` draws only the pulses it
    can retain.  ``pulses`` must be an int or a numpy integer, not a bool.
    """
    _require_integer("pulses", pulses)
    if not params:
        raise ContractError("need at least one source")
    _require_sources(params)
    if pulses < 1:
        raise ContractError("pulse count must be at least 1")
    rng = derive_rng(seed, "fire-sources")
    shape = (pulses, len(params))
    pair = rng.random(shape) < [p.epsilon for p in params]
    heralded = pair & (rng.random(shape) < [p.eta_herald * p.eta_detect for p in params])
    signal = pair & (rng.random(shape) < [p.eta_herald for p in params])
    return FireOutcome(pair, heralded, signal)


_SOURCE_FIELDS = tuple(f.name for f in fields(SourceParams))


def load_source_params(path) -> list[SourceParams]:
    """Read per-source parameters from a JSON config file.

    The file holds ``{"sources": [{...}, ...]}`` with the keys epsilon,
    eta_herald, eta_detect and rep_rate per source.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # invalid, not UTF-8, or nested too deep
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
