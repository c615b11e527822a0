"""Symmetric band matrices stored by diagonals, and the operations on them:
entrywise (Hadamard) powers, the odd/even split of pentadiagonal matrices
into two tridiagonal blocks, and the JSON wire format.

The band families are the paper's two: tridiagonal matrices (bandwidth 1)
and pentadiagonal matrices whose first off-diagonal is zero (bandwidth 2).
Each has one nonzero off-diagonal, and a BandSymMatrix stores just that one.
A matrix with both off-diagonals nonzero is dense input: a DenseSymMatrix
or a raw array.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Union

import numpy as np

__all__ = [
    "BandSymMatrix",
    "DenseSymMatrix",
    "make_tridiagonal",
    "make_pentadiagonal",
    "hadamard_power",
    "split_pentadiagonal",
    "join_pentadiagonal",
    "to_dense_array",
    "matrix_from_json",
    "ExactBand",
    "exact_matrix_from_json",
]


@dataclass(frozen=True, eq=False)
class BandSymMatrix:
    """Symmetric tridiagonal or pentadiagonal-form matrix, stored as its main
    diagonal and its one nonzero off-diagonal, at offset bandwidth.

    Only the upper off-diagonal is kept, so the matrix is symmetric by
    construction.  A matrix with both off-diagonals nonzero is not a band
    matrix here; it is dense input (DenseSymMatrix).  Arrays are frozen
    after validation; instances are safe to share across threads.

    Attributes
    ----------
    bandwidth : int
        1 (tridiagonal) or 2 (pentadiagonal, zero first off-diagonal).
    main_diag : numpy.ndarray
        The n main-diagonal entries.
    off : numpy.ndarray
        The n - bandwidth entries at offset bandwidth.
    """

    bandwidth: int
    main_diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = self.bandwidth
        if d not in (1, 2):
            raise ValueError("bandwidth must be 1 or 2")
        main = np.atleast_1d(np.array(self.main_diag, dtype=float))
        off = np.array(self.off, dtype=float)
        n = main.shape[0]
        if d == 2 and n < 3:
            raise ValueError("pentadiagonal matrices need order >= 3")
        if n < 1:
            raise ValueError("order must be at least 1")
        name = "off-diagonal" if d == 1 else "second diagonal"
        if off.ndim != 1:
            raise ValueError(f"{name} must be a flat list of numbers, got nesting depth {off.ndim}")
        if off.shape != (n - d,):
            raise ValueError(f"{name} must have {n - d} entries, got {off.size}")
        if main.ndim != 1:
            raise ValueError(f"main diagonal must have {n} entries")
        if not (np.isfinite(main).all() and np.isfinite(off).all()):
            raise ValueError("all entries must be finite")
        main.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "main_diag", main)
        object.__setattr__(self, "off", off)

    @property
    def order(self) -> int:
        return self.main_diag.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    def dense(self) -> np.ndarray:
        """Expand to a full symmetric array."""
        k = self.bandwidth
        a = np.diag(self.main_diag)
        a += np.diag(self.off, k) + np.diag(self.off, -k)
        return a

    def min_entry(self) -> float:
        return float(self.off.min(initial=self.main_diag.min()))


def check_dense(a: np.ndarray, symmetric: bool = True) -> np.ndarray:
    """The square float array a, refused unless its order is at least 1 and
    its entries are finite, and, when symmetric, unless it is symmetric."""
    if a.shape[0] < 1:
        raise ValueError("order must be at least 1")
    if not np.isfinite(a).all():
        raise ValueError("all entries must be finite")
    if symmetric and not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


@dataclass(frozen=True, eq=False)
class DenseSymMatrix:
    """Full symmetric matrix; used for Hadamard powers of band matrices at
    exponent 0, permuted matrices, matrices with both off-diagonals nonzero,
    and other patterns that leave the two band families."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("entries must form a square matrix")
        check_dense(a)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def dense(self) -> np.ndarray:
        return self.entries.copy()

    def min_entry(self) -> float:
        return float(self.entries.min())


Matrix = Union[BandSymMatrix, DenseSymMatrix]


def _validated(cls, *fields):
    """A BandSymMatrix or DenseSymMatrix of the given fields, its arrays
    frozen, without __post_init__'s copy and checks: for finite arrays cut
    from, or made out of, a matrix that passed them."""
    m = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(m, name, value)
    return m


def make_tridiagonal(diag, offdiag) -> BandSymMatrix:
    """Symmetric tridiagonal matrix from its main and first diagonals."""
    return BandSymMatrix(1, diag, offdiag)


def make_pentadiagonal(diag, second_diag) -> BandSymMatrix:
    """Pentadiagonal matrix with nonzeros only on the main and second
    diagonals (the first off-diagonal is identically zero)."""
    return BandSymMatrix(2, diag, second_diag)


def _max_abs(*arrays: np.ndarray) -> float:
    return max((float(np.abs(x).max()) for x in arrays if x.size), default=0.0)


def to_dense_array(a) -> np.ndarray:
    """Dense float array from a band matrix, dense matrix, or array-like."""
    if isinstance(a, (BandSymMatrix, DenseSymMatrix)):
        return a.dense()
    arr = np.array(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("expected a square matrix")
    return arr


def _validate_power_entries(min_entry: float, r: float) -> None:
    if r < 0:
        raise ValueError("negative Hadamard exponents are not supported")
    if min_entry < 0 and not float(r).is_integer():
        raise ValueError("noninteger Hadamard power of a matrix with negative entries")


def _power(x: np.ndarray, r: float) -> np.ndarray:
    """The entrywise power x ** r, refused as non-finite when it overflows,
    with no warning first."""
    with np.errstate(over="ignore"):
        out = np.power(x, r)
    if not np.isfinite(out).all():
        raise ValueError("all entries must be finite")
    return out


def hadamard_power(a, r: float):
    """Entrywise power ``a ** r``.

    For r > 0 with nonnegative entries this is the usual entrywise power;
    positive integer r is allowed for entries of any sign.  At r = 0 every
    entry maps to 1 under the convention 0**0 := 1, so the result is the
    all-ones matrix (dense, regardless of the input's band structure).  A
    power that overflows is refused as non-finite, with no warning first.
    """
    r = float(r)
    if not math.isfinite(r):
        raise ValueError("exponent must be finite")
    if isinstance(a, BandSymMatrix):
        _validate_power_entries(a.min_entry(), r)
        if r == 0.0:
            return _validated(DenseSymMatrix, np.ones(a.shape))
        x = _power(np.concatenate((a.main_diag, a.off)), r)
        return _validated(BandSymMatrix, a.bandwidth, x[: a.order], x[a.order :])
    wrapped = isinstance(a, DenseSymMatrix)
    arr = a.entries if wrapped else check_dense(to_dense_array(a), symmetric=False)
    _validate_power_entries(float(arr.min()), r)
    out = np.ones(arr.shape) if r == 0.0 else _power(arr, r)
    return _validated(DenseSymMatrix, out) if wrapped else out


def _parity_blocks(diag, second) -> tuple[tuple, tuple]:
    """(diagonal, off-diagonal) of the odd and of the even tridiagonal block
    of a pentadiagonal-form matrix with main diagonal diag and second
    diagonal second (arrays or tuples), in that order."""
    return (diag[0::2], second[0::2]), (diag[1::2], second[1::2])


def _direct_sum(odd: tuple, even: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the tridiagonal direct sum of two
    (diagonal, off-diagonal) blocks: the odd block, an exactly zero
    coupling, then the even block.  Its spectrum is that of the
    pentadiagonal matrix whose _parity_blocks they are."""
    return np.concatenate((odd[0], even[0])), np.concatenate((odd[1], [0.0], even[1]))


def split_pentadiagonal(p: BandSymMatrix) -> tuple[BandSymMatrix, BandSymMatrix]:
    """Odd- and even-indexed principal submatrices of a pentadiagonal matrix.

    For p of order n, returns the tridiagonal pair (A_odd, A_even) on
    labels {1,3,...} and {2,4,...}; their sizes are (k, k) for n = 2k and
    (k+1, k) for n = 2k+1.  Relabelling p odd labels first, then even
    ones, gives exactly blockdiag(A_odd, A_even).
    """
    if not isinstance(p, BandSymMatrix) or p.bandwidth != 2:
        raise ValueError("expected a pentadiagonal BandSymMatrix")
    return tuple(_validated(BandSymMatrix, 1, *block) for block in _parity_blocks(p.main_diag, p.off))


def join_pentadiagonal(odd: BandSymMatrix, even: BandSymMatrix) -> BandSymMatrix:
    """Inverse of split_pentadiagonal: interleave two tridiagonal blocks
    back into a pentadiagonal matrix with zero first off-diagonal."""
    if odd.bandwidth != 1 or even.bandwidth != 1:
        raise ValueError("both blocks must be tridiagonal")
    l, m = odd.order, even.order
    if l not in (m, m + 1):
        raise ValueError("block sizes must be (k, k) or (k+1, k)")
    n = l + m
    diag = np.empty(n)
    diag[0::2] = odd.main_diag
    diag[1::2] = even.main_diag
    second = np.empty(n - 2)
    second[0::2] = odd.off
    second[1::2] = even.off
    return make_pentadiagonal(diag, second)


# The wire format's kinds: the bandwidth of each (None for dense) and the key
# of its stored entries besides "diag".  {"kind":"tridiagonal","diag":[...],
# "offdiag":[...]}, {"kind":"pentadiagonal","diag":[...],"second":[...]} and
# {"kind":"dense","rows":[[...]]}.
_KINDS = {"tridiagonal": (1, "offdiag"), "pentadiagonal": (2, "second"), "dense": (None, "rows")}


def matrix_kind(m) -> str:
    """The wire-format kind of a matrix or square array."""
    bandwidth = m.bandwidth if isinstance(m, BandSymMatrix) else None
    return next(kind for kind, (width, _) in _KINDS.items() if width == bandwidth)


def matrix_to_json_obj(m) -> dict:
    """A matrix as a JSON-ready object in the wire format."""
    kind = matrix_kind(m)
    key = _KINDS[kind][1]
    if isinstance(m, BandSymMatrix):
        return {"kind": kind, "diag": m.main_diag.tolist(), key: m.off.tolist()}
    return {"kind": kind, key: to_dense_array(m).tolist()}


def matrix_from_json(text: str) -> Matrix:
    """Parse the matrix JSON wire format; rejects unknown kinds and fields."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return matrix_from_json_obj(obj, text)


@dataclass(frozen=True)
class ExactBand:
    """Exact entries of a tridiagonal or pentadiagonal-form matrix: the
    main diagonal and the one stored off-diagonal, at offset 1 or 2."""

    diag: tuple[Fraction, ...]
    off: tuple[Fraction, ...]
    offset: int

    @property
    def order(self) -> int:
        return len(self.diag)


def exact_matrix_from_json(text: str) -> tuple[Matrix, ExactBand | list[list[Fraction]]]:
    """Parse the wire format once, reading every number exactly.

    Returns the float matrix together with its exact entries: an ExactBand
    for the tridiagonal and pentadiagonal kinds, dense rows of Fractions
    for the dense kind.  Integers are read as ints and decimals as
    decimal.Decimal, and each entry's Fraction is made from that exact
    value.  The float matrix is validated by matrix_from_json_obj and
    equals matrix_from_json(text) bit for bit, -0.0 included, since
    float(Decimal(s)) rounds correctly, as float(s) does.
    """
    try:
        obj = json.loads(text, parse_float=Decimal)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    m = matrix_from_json_obj(obj, text)
    bandwidth, key = _KINDS[obj["kind"]]
    if bandwidth is None:
        return m, [list(map(Fraction, row)) for row in obj[key]]
    # a scalar main diagonal is order 1, as in the float parse
    diag = obj["diag"] if isinstance(obj["diag"], list) else [obj["diag"]]
    return m, ExactBand(tuple(map(Fraction, diag)), tuple(map(Fraction, obj[key])), bandwidth)


# A JSON number parses as an int, a float or, read exactly, a Decimal.
_NUMBER_TYPES = frozenset((int, float, Decimal))


def _all_numbers(x) -> bool:
    """Whether no leaf of the nested lists x is a string, boolean, null or
    object; their nesting is checked later."""
    if type(x) is not list:
        return type(x) in _NUMBER_TYPES
    types = set(map(type, x))
    return all(map(_all_numbers, x)) if list in types else types <= _NUMBER_TYPES


def _only_numbers(text: str, obj: dict) -> bool:
    """Whether the JSON text of obj, a wire-format object, holds nothing but
    numbers besides its keys and kind, by a few fast scans: no other string,
    no object inside the outer one, no true or null (no key or kind has
    their u) and no false (a letter of it that no key or kind has)."""
    at, names = -1, "".join(obj) + obj["kind"]
    for _ in range(2 * len(obj) + 2):
        at = text.find('"', at + 1)
    letter = next(c for c in "fals" if c not in names)
    return text.find('"', at + 1) < 0 and text.find("{", text.find("{") + 1) < 0 and "u" not in text and letter not in text


def matrix_from_json_obj(obj, text: str | None = None) -> Matrix:
    """The matrix of a parsed wire-format object; text, when given, is the
    JSON it was parsed from.  Every entry must be a JSON number."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown matrix kind: {kind!r}")
    bandwidth, key = _KINDS[kind]
    if set(obj) != ({"kind", key} if bandwidth is None else {"kind", "diag", key}):
        raise ValueError(f"matrix JSON for kind {kind!r} has wrong fields")
    if not ((text is not None and _only_numbers(text, obj)) or _all_numbers([obj[k] for k in obj if k != "kind"])):
        raise ValueError("all entries must be numbers")
    try:
        if bandwidth is None:
            return DenseSymMatrix(np.array(obj[key], dtype=float))
        return BandSymMatrix(bandwidth, obj["diag"], obj[key])
    except OverflowError as exc:
        # an integer or exact rational beyond the float range
        raise ValueError("all entries must be finite") from exc
