"""N-photon GHZ state model: outcome statistics, estimators and witness.

Models an N-photon polarization GHZ state through two scalar imperfection
parameters: the population P of the target |H...H>, |V...V> subspace and
the coherence C between those two components.  Provides the outcome
distributions in the computational (H/V) basis and in rotated equatorial
bases, count simulation, and the estimators that recover P, C and the
entanglement witness from measured counts.  Counts are held and estimated
as a sparse integer tally of outcome codes (see :class:`BasisCounts`).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ContractError, DataError
from .rng import _require_integer, derive_rng

__all__ = [
    "GhzModel",
    "BasisCounts",
    "WitnessResult",
    "hv_outcome_distribution",
    "theta_outcome_distribution",
    "coherence_settings",
    "simulate_counts",
    "simulate_ghz_experiment",
    "estimate_population",
    "estimate_coherence",
    "fidelity_and_witness",
]

MAX_PHOTONS = 20


@dataclass(frozen=True)
class GhzModel:
    """GHZ state parametrized by population and coherence.

    ``population`` is the total weight on the two target components
    |H...H> and |V...V>; ``coherence`` is the magnitude of the off-diagonal
    term between them (phase taken real and positive).  Physicality
    requires 0 <= coherence <= population <= 1.
    """

    n_photons: int
    population: float
    coherence: float

    def __post_init__(self):
        _require_integer("n_photons", self.n_photons)
        if not 2 <= self.n_photons <= MAX_PHOTONS:
            raise ContractError(
                f"n_photons must lie in [2, {MAX_PHOTONS}], got {self.n_photons}"
            )
        if not 0.0 <= self.population <= 1.0:
            raise ContractError(f"population must lie in [0, 1], got {self.population}")
        if not 0.0 <= self.coherence <= self.population:
            raise ContractError(
                f"coherence must lie in [0, population], got {self.coherence}"
            )


@dataclass(frozen=True)
class BasisCounts:
    """Measured outcome counts in one basis setting.

    Outcomes are bitstrings of length ``n_photons``; character k is '0'
    when photon k gave the +1 eigenvalue outcome (H in the computational
    basis) and '1' for the -1 outcome.  Each count is a non-negative
    integer: a Python ``int`` or a numpy integer, never a ``bool``, and
    the counts sum to less than 2**63.  ``theta`` is the equatorial basis
    angle and is None for the computational basis.

    ``tally`` holds the counts as two read-only int64 arrays: the ascending
    codes of the outcomes with an entry (code b is the bitstring, photon 0
    first, that is b in binary; at most 63 photons) and their counts.  The
    ``counts`` of :func:`simulate_counts` makes its bitstrings when read.
    """

    basis: str
    n_photons: int
    counts: Mapping
    theta: float | None = None
    tally: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis not in ("hv", "theta"):
            raise ContractError(f"basis must be 'hv' or 'theta', got {self.basis!r}")
        if self.basis == "theta" and self.theta is None:
            raise ContractError("theta basis counts need the setting angle")
        if self.basis == "hv" and self.theta is not None:
            raise ContractError("computational-basis counts carry no angle")
        counts, n = self.counts, self.n_photons
        if not (isinstance(counts, _TallyView) and counts.n == n):
            for key, value in counts.items():
                _check_outcome(key, value, n)
            if not 0 <= n <= 63 or sum(map(int, counts.values())) >= 2**63:
                raise ContractError("a tally holds 0 to 63 photons and counts summing below 2**63")
            bits = np.frombuffer("".join(counts).encode("ascii"), dtype=np.uint8) - ord("0")
            codes = bits.reshape(len(counts), n) @ (1 << np.arange(n)[::-1])
            order = np.argsort(codes)
            counts = _TallyView(n, codes[order], np.fromiter(counts.values(), np.int64)[order])
        object.__setattr__(self, "tally", counts.tally)

    @property
    def total(self) -> int:
        return int(self.tally[1].sum())


class _TallyView(Mapping):
    """Read-only ``str -> int`` view of a tally; it makes the bitstrings on first read."""

    def __init__(self, n: int, codes: np.ndarray, values: np.ndarray):
        codes.flags.writeable = values.flags.writeable = False
        self.n, self.tally = n, (codes, values)

    @cached_property
    def _dict(self) -> dict:
        codes, values = self.tally
        return dict(zip([format(c, f"0{self.n}b") for c in codes.tolist()], values.tolist()))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self):
        return len(self.tally[0])


@dataclass(frozen=True)
class WitnessResult:
    """Fidelity estimate and the genuine-entanglement witness built on it."""

    fidelity: float
    sigma: float
    genuine: bool
    significance: float


_DROP_BITS = str.maketrans("", "", "01")


def _is_count_type(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and kind is not bool


def _check_outcome(key, value, n: int) -> None:
    if not isinstance(key, str) or len(key) != n or key.translate(_DROP_BITS):
        raise ContractError(f"outcome {key!r} is not a {n}-bit string")
    if not _is_count_type(type(value)):
        raise ContractError(f"count for {key!r} must be an integer, got {value!r}")
    if value < 0:
        raise ContractError(f"count for {key!r} is negative")


def hv_outcome_distribution(model: GhzModel) -> np.ndarray:
    """Outcome probabilities in the computational basis, indexed 0..2^N-1.

    The population sits evenly on the two target outcomes (all photons H or
    all V); the remainder is distributed uniformly over the other 2^N - 2
    outcomes.
    """
    n = model.n_photons
    size = 1 << n
    probs = np.full(size, (1.0 - model.population) / (size - 2))
    probs[0] = probs[-1] = model.population / 2.0
    return probs


def theta_outcome_distribution(model: GhzModel, theta: float) -> np.ndarray:
    """Outcome probabilities when every photon is measured in the same
    equatorial basis at angle ``theta``.

    Only the coherence term survives the projection; outcome ``b`` has
    probability ``(1 + parity(b) * C * cos(N theta)) / 2^N`` with parity
    +1 (-1) for an even (odd) number of '1' outcomes.
    """
    n = model.n_photons
    size = 1 << n
    parity = 1.0 - 2.0 * (np.bitwise_count(np.arange(size)) & 1)
    probs = (1.0 + parity * model.coherence * math.cos(n * theta)) / size
    return probs


def coherence_settings(n_photons: int) -> np.ndarray:
    """The N equatorial angles theta_k = k*pi/N used to estimate coherence."""
    return np.arange(n_photons) * math.pi / n_photons


def simulate_counts(model: GhzModel, basis: str, shots: int, seed: int,
                    theta: float | None = None) -> BasisCounts:
    """Draw multinomial outcome counts for one basis setting.

    Deterministic given the seed; the RNG stream is keyed by the basis and,
    for equatorial settings, by the angle.
    """
    _require_integer("shots", shots)
    if not 1 <= shots < 2**63:
        raise ContractError(f"shots must lie in [1, 2**63), got {shots}")
    if basis == "hv":
        probs = hv_outcome_distribution(model)
        label = "ghz-hv"
    elif basis == "theta":
        if theta is None:
            raise ContractError("theta basis needs the setting angle")
        probs = theta_outcome_distribution(model, theta)
        label = f"ghz-theta-{theta!r}"
    else:
        raise ContractError(f"basis must be 'hv' or 'theta', got {basis!r}")
    draws = derive_rng(seed, label).multinomial(shots, probs)
    n = model.n_photons
    hit = np.flatnonzero(draws)
    return BasisCounts(basis, n, _TallyView(n, hit, draws[hit]), theta)


def simulate_ghz_experiment(model: GhzModel, shots: int, seed: int):
    """Simulate the full measurement set: one computational-basis run plus
    the N equatorial settings, with ``shots`` outcomes per setting.

    Returns ``(hv_counts, theta_counts_list)``.
    """
    hv = simulate_counts(model, "hv", shots, seed)
    thetas = [
        simulate_counts(model, "theta", shots, seed, theta=float(t))
        for t in coherence_settings(model.n_photons)
    ]
    return hv, thetas


def estimate_population(counts: BasisCounts):
    """Estimate the target-subspace population from computational-basis counts.

    Returns ``(p_hat, sigma)`` with the binomial standard error
    ``sqrt(p_hat (1 - p_hat) / total)``.
    """
    if counts.basis != "hv":
        raise ContractError("population is estimated from computational-basis counts")
    total = counts.total
    if total < 1:
        raise DataError("no counts recorded")
    codes, values = counts.tally
    hits = int(values[(codes == 0) | (codes == (1 << counts.n_photons) - 1)].sum())
    p_hat = hits / total
    sigma = math.sqrt(p_hat * (1.0 - p_hat) / total)
    return p_hat, sigma


def _parity_expectation(counts: BasisCounts):
    total = counts.total
    if total < 1:
        raise DataError("no counts recorded")
    codes, values = counts.tally
    odd_total = int(values[np.bitwise_count(codes) & 1 == 1].sum())
    m_hat = (total - 2 * odd_total) / total
    variance = (1.0 - m_hat**2) / total
    return m_hat, variance


def estimate_coherence(settings: Sequence[BasisCounts]):
    """Estimate the coherence from the N equatorial-basis parity measurements.

    The settings must be exactly the N angles ``k*pi/N`` for k = 0..N-1, in
    order.  The estimator is ``(1/N) * sum_k (-1)^k <M_k>`` where ``<M_k>``
    is the measured parity expectation at angle ``theta_k``; its standard
    error combines the per-setting binomial variances.
    """
    if not settings:
        raise ContractError("need the full list of equatorial settings")
    n = settings[0].n_photons
    if len(settings) != n:
        raise ContractError(f"expected exactly {n} equatorial settings, got {len(settings)}")
    expected = coherence_settings(n)
    acc = 0.0
    var = 0.0
    for k, counts in enumerate(settings):
        if counts.basis != "theta":
            raise ContractError("coherence is estimated from equatorial-basis counts")
        if counts.n_photons != n:
            raise ContractError("settings disagree on the photon number")
        if not math.isclose(counts.theta, expected[k], rel_tol=0.0, abs_tol=1e-9):
            raise ContractError(
                f"setting {k} must be at angle {expected[k]!r}, got {counts.theta!r}"
            )
        m_hat, m_var = _parity_expectation(counts)
        sign = -1.0 if k & 1 else 1.0
        acc += sign * m_hat
        var += m_var
    c_hat = acc / n
    sigma = math.sqrt(var) / n
    return c_hat, sigma


def fidelity_and_witness(population: float, population_sigma: float,
                         coherence: float, coherence_sigma: float) -> WitnessResult:
    """Combine the two estimates into the GHZ fidelity and its witness.

    Fidelity is ``(P + C) / 2`` with standard error propagated in
    quadrature.  The state is certified genuinely multipartite entangled
    when the fidelity strictly exceeds 1/2; the significance is the margin
    in units of the standard error (infinite when the error is zero).
    """
    if not (population_sigma >= 0 and coherence_sigma >= 0):  # negated: a NaN fails
        raise ContractError("standard errors must be non-negative numbers")
    if not (math.isfinite(population) and math.isfinite(coherence)):
        raise ContractError("population and coherence must be finite")
    fidelity = 0.5 * (population + coherence)
    sigma = 0.5 * math.hypot(population_sigma, coherence_sigma)
    margin = fidelity - 0.5
    if sigma == 0.0:
        significance = math.inf if margin > 0 else -math.inf if margin < 0 else 0.0
    else:
        significance = margin / sigma
    return WitnessResult(fidelity, sigma, margin > 0, significance)
