"""Complex dense linear algebra for linear-optical networks.

Interferometers are plain 2-D complex ``numpy`` arrays; a Fock pattern
given to or returned by the public functions is a tuple of non-negative
mode occupations.  Internally each outcome space (modes, photons,
collisions) is enumerated once into a cached integer table whose rows are
the patterns, so distributions and validation work on row indices; the
table alone maps a pattern, as its sorted occupied modes, to its row.  This
module also provides the unitarity check, Haar-random unitary generation,
the sub-matrix construction whose permanent gives a multi-photon transition
amplitude, and the on-disk matrix format used by the command-line tools.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys

import numpy as np

from .errors import ContractError, DataError, DimensionError
from .rng import derive_rng

__all__ = [
    "as_complex_matrix",
    "check_unitary",
    "haar_random_unitary",
    "transition_submatrix",
    "as_occupation",
    "occupation_to_string",
    "occupation_from_string",
    "load_matrix",
    "save_matrix",
    "enumerate_patterns",
    "count_patterns",
]

UNITARY_TOL = 1e-10


def as_complex_matrix(matrix) -> np.ndarray:
    """Validate and return ``matrix`` as a finite 2-D complex array."""
    out = np.asarray(matrix, dtype=complex)
    if out.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={out.ndim}")
    if out.size and not np.all(np.isfinite(out)):
        raise DataError("matrix entries must be finite (no NaN/Inf)")
    return out


def check_unitary(matrix, tol: float = UNITARY_TOL) -> bool:
    """Return True iff ``max |U†U - I| <= tol``.

    Raises
    ------
    DimensionError
        If the matrix is not square.
    """
    return _is_unitary(as_complex_matrix(matrix), tol)


def _is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """:func:`check_unitary` of a matrix :func:`as_complex_matrix` has checked."""
    rows, cols = u.shape
    if rows != cols:
        raise DimensionError(f"unitarity check needs a square matrix, got {rows}x{cols}")
    gram = u.conj().T @ u
    deviation = np.abs(gram - np.eye(rows)).max() if rows else 0.0
    return bool(deviation <= tol)


def _require_unitary(matrix, caller: str) -> np.ndarray:
    """``matrix`` as a complex array; ContractError unless :func:`check_unitary` passes."""
    u = as_complex_matrix(matrix)
    if not _is_unitary(u):
        raise ContractError(f"{caller} needs a unitary matrix")
    return u


def haar_random_unitary(modes: int, seed: int) -> np.ndarray:
    """Draw a Haar-distributed ``modes x modes`` unitary, deterministically.

    Uses the QR decomposition of a complex Gaussian (Ginibre) matrix with
    the R diagonal normalized to unit phase, which makes the distribution
    exactly Haar rather than merely unitary.

    Parameters
    ----------
    modes : int
        Matrix dimension, at least 1.
    seed : int
        Root seed; the same seed always returns the same matrix.
    """
    if modes < 1:
        raise DimensionError("a unitary needs at least one mode")
    rng = derive_rng(seed, "haar-unitary")
    ginibre = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    q, r = np.linalg.qr(ginibre / math.sqrt(2.0))
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


_INT64_MAX = np.iinfo(np.int64).max


def as_occupation(pattern, modes: int | None = None) -> tuple[int, ...]:
    """Validate a mode-occupation pattern and return it as a tuple of ints."""
    items = tuple(pattern)
    try:
        occ = tuple(map(int, items))
    except (TypeError, ValueError, OverflowError):  # e.g. "a", nan, inf
        raise ContractError("occupations must be integers") from None
    if occ != items:  # elementwise ==: numpy ints, 1.0 and True equal their ints
        raise ContractError("occupations must be integers")
    if occ and min(occ) < 0:
        raise ContractError("occupations must be non-negative")
    if occ and max(occ) > _INT64_MAX:
        raise ContractError(f"occupations must not exceed {_INT64_MAX}")
    if modes is not None and len(occ) != modes:
        raise DimensionError(f"occupation has {len(occ)} modes, expected {modes}")
    return occ


def occupation_to_string(pattern) -> str:
    """Compact single-digit-per-mode encoding, e.g. ``(0,1,2) -> "012"``."""
    occ = as_occupation(pattern)
    if any(x > 9 for x in occ):
        raise ContractError("compact occupation strings support at most 9 photons per mode")
    return "".join(str(x) for x in occ)


def occupation_from_string(text: str) -> tuple[int, ...]:
    """Inverse of :func:`occupation_to_string`; only ASCII digits are accepted."""
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise DataError(f"malformed occupation string: {text!r}")
    return tuple(int(c) for c in text)


def transition_submatrix(matrix, input_pattern, output_pattern) -> np.ndarray:
    """Build the n x n matrix whose permanent gives the Fock transition amplitude.

    Row i of the interferometer matrix is repeated ``input[i]`` times and
    column j is repeated ``output[j]`` times, so rows index occupied input
    modes and columns index occupied output modes.

    Raises
    ------
    ContractError
        If the input and output photon numbers differ.
    DimensionError
        If either pattern length does not match the matrix dimension.
    """
    u = as_complex_matrix(matrix)
    rows, cols = u.shape
    if rows != cols:
        raise DimensionError(f"interferometer matrix must be square, got {rows}x{cols}")
    s = as_occupation(input_pattern, rows)
    t = as_occupation(output_pattern, rows)
    n_in, n_out = sum(s), sum(t)
    if n_in != n_out:
        raise ContractError(f"photon number mismatch: input {n_in}, output {n_out}")
    row_idx = np.repeat(np.arange(rows), s)
    col_idx = np.repeat(np.arange(cols), t)
    return u[np.ix_(row_idx, col_idx)]


# --------------------------------------------------------------------------
# Matrix file format: JSON with fields "rows", "cols", "entries", where each
# entry is a two-element [re, im] array in row-major order.  An optional
# "meta" object carries provenance (seed, parameters) and is ignored on read.
# --------------------------------------------------------------------------


_JSON_NUMBERS = (int, float)


def _reject_constant(token: str):
    raise DataError(f"matrix file contains non-finite value {token!r}")


def load_matrix(path) -> np.ndarray:
    """Read a complex matrix from the JSON matrix format.

    Rejects files whose entries are NaN or infinite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_reject_constant)
        except DataError:
            raise
        except (ValueError, RecursionError) as exc:  # invalid, not UTF-8, or nested too deep
            raise DataError(f"not a valid matrix file: {exc}") from exc
    # JSON gives int for integers and float for other numbers; bool is an int
    # subclass, so the types are compared exactly.
    if not isinstance(doc, dict):
        doc = {}
    rows, cols, entries = doc.get("rows"), doc.get("cols"), doc.get("entries")
    if type(rows) is not int or type(cols) is not int or type(entries) is not list:
        raise DataError("matrix file needs integer 'rows' and 'cols', and an 'entries' list")
    if min(rows, cols) < 0 or len(entries) != rows * cols:
        raise DataError(f"matrix file declares {rows}x{cols} but holds {len(entries)} entries")
    if not all(type(e) is list and len(e) == 2 and type(e[0]) in _JSON_NUMBERS
               and type(e[1]) in _JSON_NUMBERS for e in entries):
        raise DataError("each entry must be a two-element [re, im] array of numbers")
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except OverflowError as exc:  # an integer literal too large for a float
        raise DataError(f"matrix entry out of range: {exc}") from exc
    try:
        flat = flat.reshape(rows, cols)
    except ValueError as exc:  # a shape with no entries too large for numpy, 10**400 x 0
        raise DataError("matrix file declares a shape too large to hold") from exc
    return as_complex_matrix(flat)


def save_matrix(path, matrix, meta: dict | None = None) -> None:
    """Write a complex matrix in the JSON matrix format."""
    m = as_complex_matrix(matrix)
    doc = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }
    if meta is not None:
        doc["meta"] = meta
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=None, separators=(",", ":"), sort_keys=False)
        fh.write("\n")


class _PatternTable:
    """One outcome space (modes, photons, collisions) as read-only integer rows.

    Row k is pattern k of :func:`enumerate_patterns`: ``cols[k]`` lists its
    occupied modes with repeats, ``occupations[k]`` its mode occupations and
    ``factors[k]`` the product of their factorials.  The tuple view
    ``outcomes``, its pattern -> row ``index``, the base-``modes`` ``codes``
    of ``cols`` and the prefix-tree links ``parents`` are built on first
    use.  ``_pattern_table`` caches one table per space for all its users.
    """

    def __init__(self, modes: int, photons: int, collisions: bool):
        if modes < 1:
            raise DimensionError("need at least one mode")
        if photons < 0:
            raise ContractError("photon number must be non-negative")
        size = count_patterns(modes, photons, collisions)
        chooser = itertools.combinations_with_replacement if collisions else itertools.combinations
        self.cols = np.fromiter(itertools.chain.from_iterable(chooser(range(modes), photons)),
                                dtype=np.intp, count=size * photons).reshape(size, photons)
        self.occupations = np.bincount((np.arange(size)[:, None] * modes + self.cols).ravel(),
                                       minlength=size * modes).reshape(size, modes)
        factorials = np.array([math.factorial(k) for k in range(photons + 1)], dtype=float)
        self.factors = factorials[self.occupations].prod(axis=1)
        self.collisions = collisions
        self._place = modes ** np.arange(photons - 1, -1, -1)
        for array in (self.cols, self.occupations, self.factors, self._place):
            array.flags.writeable = False

    @functools.cached_property
    def outcomes(self) -> tuple:
        return tuple(map(tuple, self.occupations.tolist()))

    @functools.cached_property
    def index(self) -> dict:
        return dict(zip(self.outcomes, range(len(self.outcomes))))

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """Base-``modes`` code of each row's ``cols``, ascending like the rows."""
        codes = self.cols @ self._place
        codes.flags.writeable = False
        return codes

    def rows(self, cols) -> np.ndarray:
        """Row of each pattern given as sorted occupied modes, like ``cols``.
        Every pattern must be in the table: one that is not gets a wrong row."""
        return np.searchsorted(self.codes, cols @ self._place)

    @functools.cached_property
    def parents(self) -> np.ndarray:
        """Row of each pattern's first n - 1 occupied modes in the (n - 1)-photon table."""
        modes, photons = self.occupations.shape[1], self.cols.shape[1]
        return _pattern_table(modes, photons - 1, self.collisions).rows(self.cols[:, :-1])


_pattern_table = functools.lru_cache(maxsize=32)(_PatternTable)


def enumerate_patterns(modes: int, photons: int, collisions: bool = True) -> list[tuple[int, ...]]:
    """All occupation patterns of ``photons`` photons over ``modes`` modes.

    With ``collisions=False`` only 0/1 patterns are produced.  The order is
    fixed (mode-index combinations in lexicographic order), so enumeration
    and anything sampled from it is reproducible.
    """
    return list(_pattern_table(modes, photons, collisions).outcomes)


def count_patterns(modes: int, photons: int, collisions: bool = True) -> int:
    """Number of patterns :func:`enumerate_patterns` would produce."""
    if collisions:
        return math.comb(modes + photons - 1, photons)
    return math.comb(modes, photons) if photons <= modes else 0


def _log_comb(k: int, n: int) -> float:
    """ln C(k, n), 0 <= n <= k, from Stirling's series with no big integer:
    within 0.006 of it for every k and n, and 1e-9 once min(n, k - n) > 200.
    (Differences of ``math.lgamma`` are not: near k = 2**63 one ulp of
    lgamma(k) is 65536.)"""
    m = min(n, k - n)
    return (m * math.log(k / m) + (k - m) * math.log1p(m / (k - m))
            - 0.5 * math.log(2 * math.pi * m * (k - m) / k)
            + (1 / k - 1 / m - 1 / (k - m)) / 12) if m else 0.0


def _beyond_str_digits(k: int, n: int) -> bool:
    """Whether C(k, n), 0 <= n <= k, has more digits than str() converts now
    (no limit, 0, before Python 3.10.7), told from :func:`_log_comb`."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return bool(limit) and _log_comb(k, n) / math.log(10) > limit + 1
