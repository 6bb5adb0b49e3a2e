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


def derive_rng(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Return an independent generator for the stream (seed, label, index).

    The label is hashed with CRC-32, so distinct purpose names give
    uncorrelated streams under the same root seed.
    """
    if seed < 0:
        raise ContractError("seed must be a non-negative integer")
    if index < 0:
        raise ContractError("stream index must be non-negative")
    entropy = [int(seed), zlib.crc32(label.encode("utf-8")), int(index)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
