"""Symmetric band matrices stored by diagonals, and the operations on them:
entrywise (Hadamard) powers, permutation congruence, the even/odd split of
pentadiagonal matrices, and zero-pattern checks against a graph.

Band matrices of bandwidth 1 (tridiagonal) and 2 (pentadiagonal) are the
only bandwidths supported.  The pentadiagonal family here always has a zero
first off-diagonal, i.e. nonzeros only on the main and second diagonals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .graphs import SimpleGraph

__all__ = [
    "BandSymMatrix",
    "DenseSymMatrix",
    "PermutationSpec",
    "Matrix",
    "make_tridiagonal",
    "make_pentadiagonal",
    "hadamard_power",
    "even_odd_permutation",
    "conjugate_by_permutation",
    "split_pentadiagonal",
    "join_pentadiagonal",
    "pattern_check",
    "superadditive_gap",
    "to_dense_array",
    "matrix_to_json",
    "matrix_from_json",
    "ExactBand",
    "exact_matrix_from_json",
]


@dataclass(frozen=True, eq=False)
class BandSymMatrix:
    """Symmetric band matrix of bandwidth 1 or 2, stored by upper diagonals.

    Only the main diagonal and the upper off-diagonals are kept, so the
    matrix is symmetric by construction.  Arrays are frozen after
    validation; instances are safe to share across threads.

    Attributes
    ----------
    order : int
        Matrix dimension n.
    bandwidth : int
        1 (tridiagonal) or 2 (pentadiagonal).
    main_diag : numpy.ndarray
        The n main-diagonal entries.
    off_diags : tuple of numpy.ndarray
        One array per offset 1..bandwidth; offset k holds n-k entries.
    """

    order: int
    bandwidth: int
    main_diag: np.ndarray
    off_diags: tuple[np.ndarray, ...]

    def __post_init__(self):
        n, d = self.order, self.bandwidth
        if n < 1:
            raise ValueError("order must be at least 1")
        if d not in (1, 2):
            raise ValueError("bandwidth must be 1 or 2")
        if d == 2 and n < 3:
            raise ValueError("pentadiagonal matrices need order >= 3")
        main = np.array(self.main_diag, dtype=float)
        offs = tuple(np.array(o, dtype=float) for o in self.off_diags)
        if main.shape != (n,):
            raise ValueError(f"main diagonal must have {n} entries")
        if len(offs) != d:
            raise ValueError(f"expected {d} off-diagonal arrays, got {len(offs)}")
        for k, off in enumerate(offs, start=1):
            if off.shape != (n - k,):
                raise ValueError(f"off-diagonal at offset {k} must have {n - k} entries")
        if not np.isfinite(main).all() or any(not np.isfinite(o).all() for o in offs):
            raise ValueError("all entries must be finite")
        main.setflags(write=False)
        for off in offs:
            off.setflags(write=False)
        object.__setattr__(self, "main_diag", main)
        object.__setattr__(self, "off_diags", offs)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.order, self.order)

    @property
    def is_pentadiagonal_form(self) -> bool:
        """True when bandwidth is 2 and the first off-diagonal is all zero."""
        return self.bandwidth == 2 and not self.off_diags[0].any()

    def dense(self) -> np.ndarray:
        """Expand to a full symmetric array."""
        a = np.diag(self.main_diag)
        for k, off in enumerate(self.off_diags, start=1):
            a += np.diag(off, k) + np.diag(off, -k)
        return a

    def min_entry(self) -> float:
        vals = [self.main_diag.min()] + [o.min() for o in self.off_diags if o.size]
        return float(min(vals))

    def to_json(self) -> str:
        return matrix_to_json(self)


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
    exponent 0, permuted matrices, and other patterns that leave the band."""

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

    def to_json(self) -> str:
        return matrix_to_json(self)


Matrix = Union[BandSymMatrix, DenseSymMatrix]


@dataclass(frozen=True)
class PermutationSpec:
    """Permutation of 1..n; row k of the permutation matrix is row image[k]
    of the identity."""

    image: tuple[int, ...]

    def __post_init__(self):
        n = len(self.image)
        if n < 1:
            raise ValueError("permutation must have at least one element")
        if sorted(self.image) != list(range(1, n + 1)):
            raise ValueError("image must be a bijection on 1..n")
        object.__setattr__(self, "image", tuple(int(i) for i in self.image))

    @property
    def order(self) -> int:
        return len(self.image)

    def inverse(self) -> "PermutationSpec":
        inv = [0] * self.order
        for pos, img in enumerate(self.image, start=1):
            inv[img - 1] = pos
        return PermutationSpec(tuple(inv))

    def matrix(self) -> np.ndarray:
        x = np.zeros((self.order, self.order))
        for pos, img in enumerate(self.image):
            x[pos, img - 1] = 1.0
        return x


def make_tridiagonal(diag, offdiag) -> BandSymMatrix:
    """Symmetric tridiagonal matrix from its main and first diagonals."""
    diag = np.atleast_1d(np.asarray(diag, dtype=float))
    offdiag = np.asarray(offdiag, dtype=float).reshape(-1)
    n = diag.shape[0]
    if offdiag.shape != (n - 1,):
        raise ValueError(f"off-diagonal must have {n - 1} entries, got {offdiag.shape[0]}")
    return BandSymMatrix(n, 1, diag, (offdiag,))


def make_pentadiagonal(diag, second_diag) -> BandSymMatrix:
    """Pentadiagonal matrix with nonzeros only on the main and second
    diagonals (the first off-diagonal is identically zero)."""
    diag = np.atleast_1d(np.asarray(diag, dtype=float))
    second = np.asarray(second_diag, dtype=float).reshape(-1)
    n = diag.shape[0]
    if n < 3:
        raise ValueError("pentadiagonal matrices need order >= 3")
    if second.shape != (n - 2,):
        raise ValueError(f"second diagonal must have {n - 2} entries, got {second.shape[0]}")
    return BandSymMatrix(n, 2, diag, (np.zeros(n - 1), second))


# Squares and pairwise products of entries overflow once entries pass about
# 1.3e154, so the numeric routes scale larger input down by an exact power
# of two first.  The cutoff leaves room for sums of up to 2**64 such squares.
SCALE_CUTOFF = 2.0**480


def overflow_exponent(*arrays: np.ndarray, underflow: bool = False) -> int:
    """0 when no entry exceeds SCALE_CUTOFF in magnitude; otherwise the t
    with max |entry| < 2**t.  Scaling by 2**-t brings every entry below 1;
    it is exact for entries down to 2**-1000 times the largest, and smaller
    ones are negligible next to it.  With underflow, that t is also returned
    when the largest entry is nonzero and below 1 / SCALE_CUTOFF, where
    products of entries underflow; scaling up by 2**-t is exact."""
    big = max((float(np.abs(x).max()) for x in arrays if x.size), default=0.0)
    if big > SCALE_CUTOFF or (underflow and 0.0 < big < 1.0 / SCALE_CUTOFF):
        return math.frexp(big)[1]
    return 0


def to_dense_array(a) -> np.ndarray:
    """Dense float array from a band matrix, dense matrix, or array-like."""
    if isinstance(a, BandSymMatrix):
        return a.dense()
    if isinstance(a, DenseSymMatrix):
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


def hadamard_power(a, r: float):
    """Entrywise power ``a ** r``.

    For r > 0 with nonnegative entries this is the usual entrywise power;
    positive integer r is allowed for entries of any sign.  At r = 0 every
    entry maps to 1 under the convention 0**0 := 1, so the result is the
    all-ones matrix (dense, regardless of the input's band structure).
    """
    r = float(r)
    if isinstance(a, BandSymMatrix):
        _validate_power_entries(a.min_entry(), r)
        if r == 0.0:
            return DenseSymMatrix(np.ones(a.shape))
        return BandSymMatrix(
            a.order,
            a.bandwidth,
            np.power(a.main_diag, r),
            tuple(np.power(o, r) for o in a.off_diags),
        )
    if isinstance(a, DenseSymMatrix):
        _validate_power_entries(a.min_entry(), r)
        if r == 0.0:
            return DenseSymMatrix(np.ones(a.shape))
        return DenseSymMatrix(np.power(a.entries, r))
    arr = check_dense(to_dense_array(a), symmetric=False)
    _validate_power_entries(float(arr.min()), r)
    if r == 0.0:
        return np.ones(arr.shape)
    return np.power(arr, r)


def even_odd_permutation(n: int) -> PermutationSpec:
    """Permutation listing the odd labels 1,3,5,... then the even ones.

    Conjugating a pentadiagonal matrix (zero first off-diagonal) by this
    permutation produces a block-diagonal matrix of two tridiagonal blocks.
    """
    if n < 2:
        raise ValueError("permutation needs n >= 2")
    return PermutationSpec(tuple(range(1, n + 1, 2)) + tuple(range(2, n + 1, 2)))


def conjugate_by_permutation(a, p: PermutationSpec):
    """Return ``X a X^T`` for the permutation matrix X described by p.

    The eigenvalue multiset is preserved.  Band inputs are densified since
    permutation generally destroys the band structure.
    """
    dense = to_dense_array(a)
    if dense.shape[0] != p.order:
        raise ValueError("matrix order does not match permutation size")
    idx = np.asarray(p.image, dtype=int) - 1
    out = dense[np.ix_(idx, idx)]
    if isinstance(a, np.ndarray):
        return out
    return DenseSymMatrix(out)


def split_pentadiagonal(p: BandSymMatrix) -> tuple[BandSymMatrix, BandSymMatrix]:
    """Odd- and even-indexed principal submatrices of a pentadiagonal matrix.

    For p of order n with zero first off-diagonal, returns the tridiagonal
    pair (A_odd, A_even) on labels {1,3,...} and {2,4,...}; their sizes are
    (k, k) for n = 2k and (k+1, k) for n = 2k+1.  Conjugating p by
    even_odd_permutation(n) produces exactly blockdiag(A_odd, A_even).
    """
    if not isinstance(p, BandSymMatrix) or p.bandwidth != 2:
        raise ValueError("expected a pentadiagonal BandSymMatrix")
    if not p.is_pentadiagonal_form:
        raise ValueError("first off-diagonal must be zero to split")
    diag = p.main_diag
    second = p.off_diags[1]
    odd = make_tridiagonal(diag[0::2], second[0::2])
    even = make_tridiagonal(diag[1::2], second[1::2])
    return odd, even


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
    second[0::2] = odd.off_diags[0]
    second[1::2] = even.off_diags[0]
    return make_pentadiagonal(diag, second)


def pattern_check(a, g: "SimpleGraph") -> bool:
    """True iff every off-diagonal nonzero of a sits on an edge of g."""
    dense = to_dense_array(a)
    n = dense.shape[0]
    if n != g.n:
        raise ValueError("matrix order does not match graph vertex count")
    for i in range(n):
        for j in range(i + 1, n):
            if dense[i, j] != 0.0 and not g.has_edge(i + 1, j + 1):
                return False
    return True


def superadditive_gap(a: float, b: float, r: float) -> float:
    """The superadditivity gap (a+b)**r - a**r - b**r, nonnegative for r >= 1."""
    a, b, r = float(a), float(b), float(r)
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    if a == 0 and b == 0:
        raise ValueError("(a, b) must not both be zero")
    if r < 1:
        raise ValueError("exponent must be at least 1")
    return max((a + b) ** r - a**r - b**r, 0.0)


_JSON_FIELDS = {
    "tridiagonal": {"kind", "diag", "offdiag"},
    "pentadiagonal": {"kind", "diag", "second"},
    "dense": {"kind", "rows"},
}


def matrix_to_json(m) -> str:
    """Serialize a matrix to the JSON wire format.

    Kinds: {"kind":"tridiagonal","diag":[...],"offdiag":[...]},
    {"kind":"pentadiagonal","diag":[...],"second":[...]}, and
    {"kind":"dense","rows":[[...]]}.
    """
    return json.dumps(matrix_to_json_obj(m))


def matrix_to_json_obj(m) -> dict:
    if isinstance(m, BandSymMatrix):
        if m.bandwidth == 1:
            return {
                "kind": "tridiagonal",
                "diag": m.main_diag.tolist(),
                "offdiag": m.off_diags[0].tolist(),
            }
        if m.is_pentadiagonal_form:
            return {
                "kind": "pentadiagonal",
                "diag": m.main_diag.tolist(),
                "second": m.off_diags[1].tolist(),
            }
        return {"kind": "dense", "rows": m.dense().tolist()}
    dense = to_dense_array(m)
    return {"kind": "dense", "rows": dense.tolist()}


def matrix_from_json(text: str) -> Matrix:
    """Parse the matrix JSON wire format; rejects unknown kinds and fields."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return matrix_from_json_obj(obj)


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


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def exact_matrix_from_json(text: str) -> tuple[Matrix, ExactBand | list[list[Fraction]]]:
    """Parse the wire format once, reading every number as an exact Fraction.

    Returns the float matrix together with its exact entries: an ExactBand
    for the tridiagonal and pentadiagonal kinds, dense rows of Fractions
    for the dense kind.  The float matrix is validated by
    matrix_from_json_obj and equals matrix_from_json(text) bit for bit,
    since float(Fraction(s)) rounds correctly, as float(s) does.
    """
    try:
        obj = json.loads(text, parse_float=Fraction, parse_int=Fraction)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    m = matrix_from_json_obj(obj)
    if obj["kind"] == "dense":
        return m, [[_fraction(x) for x in row] for row in obj["rows"]]
    # the one stored off-diagonal sits at offset k = bandwidth
    k = m.bandwidth
    off = obj["offdiag"] if k == 1 else obj["second"]
    return m, ExactBand(tuple(map(_fraction, obj["diag"])), tuple(map(_fraction, off)), k)


def matrix_from_json_obj(obj) -> Matrix:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    kind = obj.get("kind")
    if kind not in _JSON_FIELDS:
        raise ValueError(f"unknown matrix kind: {kind!r}")
    extra = set(obj) - _JSON_FIELDS[kind]
    missing = _JSON_FIELDS[kind] - set(obj)
    if extra or missing:
        raise ValueError(f"matrix JSON for kind {kind!r} has wrong fields")
    try:
        if kind == "tridiagonal":
            return make_tridiagonal(obj["diag"], obj["offdiag"])
        if kind == "pentadiagonal":
            return make_pentadiagonal(obj["diag"], obj["second"])
        return DenseSymMatrix(np.array(obj["rows"], dtype=float))
    except OverflowError as exc:
        # an integer or exact rational beyond the float range
        raise ValueError("all entries must be finite") from exc
