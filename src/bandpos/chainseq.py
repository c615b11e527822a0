"""Finite chain sequences and the positive-definiteness criterion they give
for tridiagonal matrices.

A finite sequence (a_1, ..., a_N) is a chain sequence when it can be written
a_k = (1 - g_{k-1}) g_k with 0 <= g_0 < 1 and 0 < g_k < 1.  Existence of any
such parameters is equivalent to the minimal choice g_0 = 0 staying inside
(0, 1) along the recursion m_k = a_k / (1 - m_{k-1}); that recursion is the
decision procedure used here.

A tridiagonal matrix with positive diagonal a_i and off-diagonal b_j is
positive definite exactly when the ratios b_j**2 / (a_j a_{j+1}) form a
chain sequence; zero off-diagonal entries split the matrix into irreducible
blocks that are tested independently.  The ratios are scale-free, and float
ones are formed from the entries' mantissas and exponents apart, so A and
2**k A get one verdict and no entry is lost next to a larger one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bandmat import BandSymMatrix, make_tridiagonal

__all__ = [
    "ChainReport",
    "minimal_parameters",
    "is_chain_sequence",
    "comparison_dominates",
    "ratio_sequence",
    "tridiag_ratio_sequence",
    "split_at_zero_offdiag",
    "wall_wetzel_pd",
]

# |m_k - 1| at or below this is reported as boundary-indeterminate in
# floating mode (the exact-rational mode needs no band).
BOUNDARY_TOL = 1e-12

# Inputs given as ints/Fractions run exactly up to this length.
EXACT_LENGTH_LIMIT = 32


@dataclass(frozen=True)
class ChainReport:
    """Outcome of the minimal-parameter chain-sequence test.

    minimal_params holds m_1..m_N on success and m_1..m_k up to the first
    failing index otherwise.  boundary_indeterminate flags a floating-mode
    m_k within BOUNDARY_TOL of 1, where the strict verdict is not reliable.
    """

    is_chain: bool
    minimal_params: tuple
    failure_index: int | None
    exact_mode: bool
    boundary_indeterminate: bool = False


def _is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def minimal_parameters(a, *, split_at_zero: bool = False) -> ChainReport:
    """Run the minimal-parameter recursion m_k = a_k / (1 - m_{k-1}).

    The sequence is a chain sequence iff every a_k > 0 and every m_k < 1.
    Int/Fraction input (up to length 32) is evaluated in exact rational
    arithmetic; m_k = 1 exactly is then classified not-a-chain, matching
    the strict inequality in the definition.  It runs on integers: with
    m_{k-1} = p/q in lowest terms, m_k = a_k q / (q - p) is reduced once, as
    the Fraction it is reported as, and m_k >= 1 compares its two terms.

    With split_at_zero, an exactly zero a_k separates two blocks instead of
    failing the test: m_k = 0 there restarts the recursion, so each block
    between zeros is tested as a chain sequence of its own, and the
    parameters and failure index still refer to the whole sequence.  The
    ratio sequence of a tridiagonal matrix vanishes exactly at its zero
    couplings, so this tests each irreducible block.  A float array is read
    as the Python floats of its tolist(), with no scan for exact numbers.
    """
    floats = isinstance(a, np.ndarray) and a.dtype.kind == "f"
    seq = a.tolist() if floats else list(a)
    if len(seq) < 1:
        raise ValueError("sequence must be nonempty")
    params: list = []
    if not floats and len(seq) <= EXACT_LENGTH_LIMIT and all(_is_exact_number(x) for x in seq):
        p, q = 0, 1
        for k, ak in enumerate(seq, start=1):
            m = Fraction(ak.numerator * q, ak.denominator * (q - p))
            params.append(m)
            # q > p, so m has the sign of a_k
            p, q = m.numerator, m.denominator
            if not (p > 0 or (split_at_zero and p == 0)) or p >= q:
                return ChainReport(False, tuple(params), k, True)
        return ChainReport(True, tuple(params), None, True)
    boundary, prev = False, 0.0
    for k, ak in enumerate(seq if floats else map(float, seq), start=1):
        m = ak / (1 - prev)
        params.append(m)
        if not (ak > 0 or (split_at_zero and ak == 0)):
            # a NaN a_k fails here too
            return ChainReport(False, tuple(params), k, False, boundary)
        if abs(m - 1.0) <= BOUNDARY_TOL:
            boundary = True
        if m >= 1:
            return ChainReport(False, tuple(params), k, False, boundary)
        prev = m
    return ChainReport(True, tuple(params), None, False, boundary)


def is_chain_sequence(a) -> bool:
    """Convenience wrapper over minimal_parameters."""
    return minimal_parameters(a).is_chain


def comparison_dominates(c, a) -> bool:
    """True iff 0 < c_k <= a_k for all k: the hypothesis under which
    domination by a chain sequence makes c a chain sequence."""
    c, a = list(c), list(a)
    if len(c) != len(a):
        raise ValueError("sequences must have equal length")
    return all(0 < ck <= ak for ck, ak in zip(c, a))


def ratio_sequence(diag, off) -> np.ndarray:
    """The ratios b_j**2 / (a_j a_{j+1}) for j = 1..n-1, from the diagonal
    a and the off-diagonal b of a tridiagonal matrix.

    Float input gives a float array; Fraction input gives an object array
    of exact Fractions, each made once from its entries' numerators and
    denominators.  Any other object array keeps numpy's object arithmetic.
    A zero diagonal entry, and an off-diagonal of other than n - 1 entries,
    are refused for every input type.  Float ratios are formed from the
    entries' mantissas and scaled by their exponents last, so no product
    overflows or underflows; they are the plain formula's wherever its
    products are normal floats.
    """
    diag, off = np.asarray(diag), np.asarray(off)
    if diag.ndim != 1 or off.shape != (diag.size - 1,):
        raise ValueError("the off-diagonal must have one entry fewer than the diagonal")
    if not diag.all():
        raise ValueError("diagonal entries must be nonzero")
    if diag.dtype == object:
        a, b = diag.tolist(), off.tolist()
        if not all(isinstance(x, Fraction) for x in a + b):
            return off * off / (diag[:-1] * diag[1:])
        p, q = [x.numerator for x in a], [x.denominator for x in a]
        ratios = [Fraction(y.numerator**2 * q[j] * q[j + 1], y.denominator**2 * p[j] * p[j + 1]) for j, y in enumerate(b)]
        return np.array(ratios, dtype=object)
    (ma, ea), (mb, eb) = np.frexp(diag), np.frexp(off)
    with np.errstate(over="ignore"):
        return np.ldexp(mb * mb / (ma[:-1] * ma[1:]), 2 * eb - ea[:-1] - ea[1:])


def tridiag_ratio_sequence(t: BandSymMatrix) -> np.ndarray:
    """ratio_sequence of a tridiagonal matrix.

    Requires every diagonal entry positive; matrices with zero diagonal
    entries must go through block splitting and the eigenvalue oracle
    instead.
    """
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    if not (t.main_diag > 0).all():
        raise ValueError("ratio criterion requires positive diagonal entries")
    return ratio_sequence(t.main_diag, t.off)


def split_at_zero_offdiag(t: BandSymMatrix) -> list[BandSymMatrix]:
    """Maximal irreducible tridiagonal blocks, cutting wherever b_j is
    exactly 0.0, however small the other entries.  Concatenating the blocks
    reconstructs t."""
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    diag = t.main_diag
    off = t.off
    blocks = []
    start = 0
    for j in range(off.shape[0]):
        if off[j] == 0:
            blocks.append(make_tridiagonal(diag[start : j + 1], off[start:j]))
            start = j + 1
    blocks.append(make_tridiagonal(diag[start:], off[start : t.order - 1]))
    return blocks


def wall_wetzel_pd(t: BandSymMatrix) -> bool:
    """Chain-sequence test for positive definiteness of a nonnegative
    tridiagonal matrix.

    A matrix with a nonpositive diagonal entry cannot be PD.  Otherwise the
    matrix is PD iff each irreducible block is: an order-1 block always is,
    and a longer one iff its ratio sequence is a chain sequence.  The blocks
    are those of minimal_parameters with split_at_zero, which splits the
    ratio sequence where it vanishes, at the zero off-diagonal entries.
    """
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    least = t.main_diag.min()
    if t.off.min(initial=least) < 0:
        raise ValueError("criterion applies to nonnegative matrices")
    if least <= 0:
        return False
    return t.order == 1 or minimal_parameters(ratio_sequence(t.main_diag, t.off), split_at_zero=True).is_chain
