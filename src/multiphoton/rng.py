"""Seeded random-number streams with named derivation.

Every stochastic operation in the package draws from a generator obtained
through :func:`derive_rng`, so one root seed reproduces a whole experiment
and independent sub-streams (per purpose, per batch, per measurement
setting) never share state.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractError

__all__ = ["derive_rng"]


def _require_integer(name: str, value) -> None:
    """ContractError unless ``value`` is an int or a numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")


def derive_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for the stream (seed, label, index).

    The label is hashed with CRC-32, so distinct purpose names give
    uncorrelated streams under the same root seed.  The seed and the index
    must be ints or numpy integers, not bools, and non-negative: anything
    else raises ContractError rather than seeding another stream.
    """
    for name, value in (("seed", seed), ("stream index", index)):
        _require_integer(name, value)
        if value < 0:
            raise ContractError(f"{name} must be non-negative, got {value}")
    entropy = [int(seed), zlib.crc32(label.encode("utf-8")), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
