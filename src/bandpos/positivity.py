"""Numerical positivity oracle.

A class asks whether an eigenvalue lies below -thr or below +thr, which a
Sturm count of a symmetric tridiagonal matrix answers (Sylvester's law of
inertia): whether some LDL^T pivot of T - xI is negative, stopping at the
first.  The smallest eigenvalue, which a verdict reports, is bisected by
the same count; after a few plain steps a Newton estimate steers it,
certified by at most two counts at its moved ends, the count being
monotone in the shift: a wrong estimate costs time, never an answer.  The
class reads the final bracket, or one count at +-thr inside it; an
INDEFINITE test alone is one count at -thr.  The probe stops bisecting once
the bracket clears its running minimum.  Every route works on its input
times the power of two that brings its max-norm into [1/2, 1), and every
tolerance is relative to the max-norm, so A and 2**k A get the same
verdicts, with numbers 2**k apart.  The full spectrum, which no verdict
reads, is LAPACK's for the same routed matrix, scaled the same way
(sym_eigenvalues).  The falsification probe sets up a whole batch of
samples with the same few numpy calls (powers of two, scaled entries,
Gershgorin bounds of a direct sum) and bisects each by the same scalar loop
as a single matrix.
A pentadiagonal matrix with zero first off-diagonal is the direct sum of its
odd and even tridiagonal blocks and is bisected as such; dense input whose
off-diagonal nonzero graph is a disjoint union of paths is a permuted
tridiagonal matrix and is bisected in its path order.  Any other dense
input is bisected as the diagonal matrix of its eigenvalues from LAPACK,
so its minimum has LAPACK's bits.  Each call builds one _Form record of
its input: the route (tridiagonal, odd/even split, path order or LAPACK
spectrum) and the tridiagonal matrix that route bisects, which no other
code rebuilds.  The record makes one scaled form of that matrix
(_scaled_form: max-norm, power of two, scaled diagonals as Python lists,
Gershgorin bounds), which every bisection, the threshold and the band
minors read.

Leading principal minors come from the three-term continuant for band input
(a pentadiagonal matrix with zero first off-diagonal multiplies the
continuants of its odd and even blocks), whose running value is rescaled
by a power of two only when it leaves a fixed window, and from one
elimination pass for dense input, as prefix products of the pivots.  The
pass touches only the path entries, held as linked pairs, when the nonzero
graph is a union of paths, in O(n), with results bit for bit those of the
full pass.  Rational input gets exact minors on integers: exact band
input (bandmat.ExactBand) from the same continuant, rows of Fractions or
ints from one pass of Bareiss's fraction-free elimination, whose k-th
pivot is the order-k minor, its rows scaled by their denominators' lcm.

This module is deliberately independent of the chain-sequence criteria in
``chainseq``: the two are validated against each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bandmat import BandSymMatrix, DenseSymMatrix, ExactBand, check_dense, to_dense_array
from .bandmat import _direct_sum, _float_array, _max_abs, _parity_blocks

__all__ = [
    "PD",
    "PSD_BOUNDARY",
    "INDEFINITE",
    "PositivityVerdict",
    "sym_eigenvalues",
    "min_eigenvalue",
    "classify_positivity",
    "leading_principal_minors",
    "determinant",
    "shift_to_boundary",
]

PD = "PD"
PSD_BOUNDARY = "PSD_BOUNDARY"
INDEFINITE = "INDEFINITE"

DEFAULT_TOL = 1e-10

# Exact minors are only attempted up to this order; above it they are
# floats.  The limit once spared dense Fraction elimination its cost; exact
# band minors now cost O(n), so for band input it stays only until the
# benchmark's expected exact-minors-float failure is retired with it.
EXACT_MINOR_LIMIT = 12

# The Sturm count of an order-n matrix is exact for a matrix within about
# n * eps * max-norm of the input, so no classification threshold is set
# below STURM_BACKWARD_C * n * eps * max-norm.
STURM_BACKWARD_C = 4.0

# Sturm pivots smaller than this in magnitude count as negative and become
# -_PIVMIN, so the next pivot stays finite; the bisected matrix has max-norm
# in [1/2, 1).
_PIVMIN = 1e-290

# The continuant's running pair is rescaled only when its value leaves
# [_RENORM_LOW, _RENORM_HIGH] (see _continuant).
_RENORM_LOW, _RENORM_HIGH = 2.0**-64, 2.0**64

# Plain steps of the one-bracket bisection before _steer; Newton passes.
_STEER_AFTER, _NEWTON_PASSES = 12, 8


@dataclass(frozen=True)
class PositivityVerdict:
    """Classification of a symmetric matrix with a numeric certificate.

    classification is PD when the smallest eigenvalue clears
    +thr = max(tol, STURM_BACKWARD_C * n * eps) * scale, INDEFINITE
    when it clears -thr, and PSD_BOUNDARY in between; scale is the max-norm
    of the matrix, certificate holds the leading principal minors and
    threshold is thr.  min_eigenvalue is bisected to width tol * scale, so
    it may cross +-thr from its class by that much, but never crosses 0.
    """

    classification: str
    min_eigenvalue: float
    scale: float
    certificate: tuple[float, ...]
    threshold: float


def _negcount(diag: list, off2: list, x: float) -> bool:
    """Whether some eigenvalue of the tridiagonal matrix (diag, off2) lies
    below x, over Python floats (off2 holds the squared couplings and starts
    with 0.0): whether some LDL^T pivot q_i = (d_i - x) - off2_i / q_{i-1}
    of T - xI falls below _PIVMIN.  It stops at the first one."""
    q = 1.0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if q < _PIVMIN:
            return True
    return False


def _scaled_forms(diag: np.ndarray, off: np.ndarray, starts: np.ndarray, sizes) -> tuple:
    """(norm, s, 2**-s diag, 2**-s off, lo, hi) of the tridiagonal matrices
    T_i whose diagonals are the segments of diag and off that begin at
    starts and are sizes long; off holds T_i's couplings and an exactly zero
    one at its end.  T_i is bisected as 2**-s_i T_i, of max-norm in
    [1/2, 1), whose every step is T_i's scaled by 2**-s_i; norm holds the
    max-norms of the T_i, and [lo, hi] the Gershgorin bounds of each
    2**-s_i T_i.  The calls are the same few numpy calls for any number of
    matrices and at every order."""
    norm = np.maximum.reduceat(np.maximum(np.abs(diag), np.abs(off)), starts)
    s = np.frexp(norm)[1]
    shift = np.repeat(-s, sizes)
    diag, off = np.ldexp(diag, shift), np.ldexp(off, shift)
    # a segment's first and last radius add the zero coupling at the end of
    # the segment before it and at its own end
    radius = np.abs(off)
    radius[1:] += radius[:-1]
    lo, hi = np.minimum.reduceat(diag - radius, starts), np.maximum.reduceat(diag + radius, starts)
    return norm, s, diag, off, lo, hi


def _scaled_form(diag: np.ndarray, off: np.ndarray, e: int = 0, norm: float | None = None) -> tuple:
    """(norm, t, d, o, lo, hi) of a matrix of max-norm norm (by default that
    of (diag, off)) bisected as 2**e (diag, off) = 2**t S (on the LAPACK
    spectrum route, diag holds eigenvalues and off zeros), S of max-norm in
    [1/2, 1) with diagonal d, couplings o (o[0] = 0.0, o[i] for rows i - 1
    and i) and Gershgorin bounds [lo, hi]: _scaled_forms's one-matrix case,
    in Python lists, to pay for fewer numpy calls."""
    n = diag.shape[0]
    x = np.concatenate((diag, off))
    m = float(np.maximum.reduce(np.abs(x)))
    s = math.frexp(m)[1]
    x = np.ldexp(x, -s)
    aoff = np.abs(x[n:])
    radius = np.zeros(n)
    radius[:-1] = aoff
    radius[1:] += aoff
    lo, hi = float(np.minimum.reduce(x[:n] - radius)), float(np.maximum.reduce(x[:n] + radius))
    x = x.tolist()
    return m if norm is None else norm, s + e, x[:n], [0.0] + x[n:], lo, hi


def _bracket(lo: float, hi: float, width: float) -> tuple[float, float]:
    """The Gershgorin bounds [lo, hi], each moved out by the width and 1e-14
    of the larger bound."""
    pad = width + 1e-14 * max(abs(lo), abs(hi))
    return lo - pad, hi + pad


def _scaled_floor(floor: float, t: int) -> float:
    """The least float s with s * 2**t >= floor, compared exactly: -inf
    when every float has it and inf when none does.  2**-t floor is that
    float unless it rounded down (below the normal range) or overflowed."""
    if math.isinf(floor):
        return floor
    try:
        s = math.ldexp(floor, -t)
    except OverflowError:
        return math.copysign(math.inf, floor)
    # scaling back is exact here: s * 2**t is a float near floor
    return math.nextafter(s, math.inf) if math.ldexp(s, t) < floor else s


def _newton_min(d: list, e2: list, x: float, near: float) -> float:
    """Newton's iteration on det(S - xI), S = (d, e2) as _negcount takes
    them, from x below S's smallest eigenvalue, to which the iterates rise
    (det'/det is the sum of g_i = q_i'/q_i over the pivots q_i); it ends at
    a step no larger than near or a pivot below _PIVMIN, else gives NaN."""
    for _ in range(_NEWTON_PASSES):
        q, g, s = 1.0, 0.0, 0.0
        for di, ei in zip(d, e2):
            r = ei / q
            q = di - x - r
            if q < _PIVMIN:
                return x
            g = (r * g - 1.0) / q
            s += g
        step = -1.0 / s
        if not step > near:
            return x + step
        x += step
    return math.nan


def _steer(d: list, e2: list, width: float, a: float, b: float, low: float) -> tuple[float, float]:
    """[a, b] moved to where _bisect_scaled's loop takes it: the loop's
    halving replayed with mid > estimate (_newton_min's) in place of the
    count, stopping also at a midpoint too near the estimate to decide.
    _negcount is monotone in the shift (fl(d - x) and fl(e2 / q) are), so a
    false count at the moved lower end and a true one at the moved upper end
    prove every decision; when either fails, [a, b] comes back unmoved."""
    near = 2.0 * STURM_BACKWARD_C * len(d) * sys.float_info.epsilon
    est, a1, b1 = _newton_min(d, e2, a, near), a, b
    while a1 < low and b1 - a1 > width:
        mid = 0.5 * (a1 + b1)
        if mid <= a1 or mid >= b1 or abs(mid - est) <= near:
            break
        a1, b1 = (a1, mid) if mid > est else (mid, b1)
    ok = (a1 == a or not _negcount(d, e2, a1)) and (b1 == b or _negcount(d, e2, b1))
    return (a1, b1) if ok else (a, b)


def _bisect_scaled(d: list, e2: list, width: float, lo: float, hi: float, t: int, floor: float) -> float | None:
    """The smallest eigenvalue of the tridiagonal matrix 2**t S, bisected
    from the Gershgorin bounds [lo, hi] of S to a bracket of the given width
    or to float resolution, when it lies below floor; None otherwise.  S is
    given by its diagonal d and its squared couplings e2, e2[0] = 0.0 and
    e2[i] coupling rows i - 1 and i, as _scaled_form and _scaled_forms make
    them; an order-1 S is its entry.

    Only the probe passes a finite floor, its running minimum.  The
    bisection stops as soon as its bracket's lower end reaches floor:
    every later midpoint lies at or above that end, and the count is
    monotone in the shift, so the full bisection's value could not lie
    below floor either.  A value returned is the full bisection's, bit for
    bit.  Each Sturm count only asks whether any eigenvalue lies below the
    midpoint, so it stops at the first negative pivot.  After _STEER_AFTER
    steps, _steer moves the bracket: a bad estimate costs only time."""
    width = math.ldexp(width, -t)
    a, b = _bracket(lo, hi, width) if len(d) > 1 else (lo, hi)
    low, steps = _scaled_floor(floor, t), 0
    while a < low and b - a > width:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if steps == _STEER_AFTER:
            a, b = _steer(d, e2, width, a, b, low)
        elif _negcount(d, e2, mid):
            b = mid
        else:
            a = mid
        steps += 1
    if a >= low:
        return None
    lam = _pair_value(0.5 * (a + b), t)
    return lam if lam < floor else None


def _path_order(dense: np.ndarray) -> list[int] | None:
    """A vertex order that makes dense tridiagonal, when its off-diagonal
    nonzero graph is symmetric and a disjoint union of paths: the paths by
    their smallest vertex, each walked from its smaller-index endpoint.
    None for any other pattern (more than 3n nonzeros, a vertex of degree 3
    or more, a cycle)."""
    n = dense.shape[0]
    if np.count_nonzero(dense) > 3 * n:
        return None
    edges = dense != 0
    np.fill_diagonal(edges, False)
    if not np.array_equal(edges, edges.T):
        return None
    rows, cols = np.divmod(np.flatnonzero(edges), n)
    if rows.size and np.bincount(rows).max() > 2:
        return None
    nbrs = [[] for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        nbrs[i].append(j)
    paths, far_ends = [], set()
    for end in range(n):
        if len(nbrs[end]) == 2 or end in far_ends:
            continue
        path, prev, v = [], -1, end
        while v >= 0:
            path.append(v)
            step = -1
            for u in nbrs[v]:
                if u != prev:
                    step = u
            prev, v = v, step
        far_ends.add(path[-1])
        paths.append(path)
    if sum(map(len, paths)) < n:
        # the vertices left over have degree 2 and lie on cycles
        return None
    paths.sort(key=min)
    return [v for path in paths for v in path]


# The routes from an input to the tridiagonal matrix the oracle bisects.
_TRIDIAGONAL, _SPLIT, _PATH, _SPECTRUM = "tridiagonal", "odd/even split", "path order", "LAPACK spectrum"


@dataclass(frozen=True)
class _lazy:
    """cached_property without its lock (Python 3.10-3.11): the value it stores in __dict__ shadows it."""

    method: object

    def __get__(self, obj, owner=None):
        return obj.__dict__.setdefault(self.method.__name__, self.method(obj))


@dataclass(frozen=True)
class _Form:
    """An input's route and the tridiagonal matrix the oracle bisects, built
    once per call by _form: diag and off are its diagonal and couplings, None
    on the LAPACK spectrum route and for the minors alone.  Dense input also
    keeps its validated array, and on the path route its path order."""

    route: str
    diag: np.ndarray | None = None
    off: np.ndarray | None = None
    dense: np.ndarray | None = None
    order: list[int] | None = None

    @_lazy
    def scaled(self) -> tuple:
        """The input's _scaled_form, the one form every bisection and the
        band minors read, made once.  Off the LAPACK spectrum route its
        max-norm is that of (diag, off): on the path route, that of the
        2n - 1 path entries, which hold every nonzero.  On it, the max-norm
        is the input's, of exponent e, and the form holds LAPACK's
        eigenvalues of 2**-e times the input, so the power of two carries e;
        their bits may differ across BLAS builds and threads."""
        if self.diag is not None:
            return _scaled_form(self.diag, self.off)
        norm = _max_abs(self.dense)
        e = math.frexp(norm)[1]
        eig = np.linalg.eigvalsh(np.ldexp(self.dense, -e))
        return _scaled_form(eig, np.zeros(eig.shape[0] - 1), e, norm)


def _form(a, minors: bool = False) -> _Form:
    """The _Form of band or dense input: band input's own diagonals, the
    direct sum of a pentadiagonal matrix's odd and even blocks, the path
    entries of dense input in path order (none for the minors alone,
    minors=True), or, for dense input with no path order, none.  A raw dense
    array gets DenseSymMatrix's checks (bandmat.check_dense), symmetry's unless minors."""
    if isinstance(a, ExactBand):
        diag, off, split = _float_array(a.diag), _float_array(a.off), a.offset == 2
    elif isinstance(a, BandSymMatrix):
        diag, off, split = a.main_diag, a.off, a.bandwidth == 2
    else:
        dense = to_dense_array(a)
        if not isinstance(a, DenseSymMatrix):
            check_dense(dense, symmetric=not minors)
        order = _path_order(dense)
        if minors or order is None:
            return _Form(_SPECTRUM if order is None else _PATH, dense=dense, order=order)
        o = np.array(order, dtype=np.intp)
        return _Form(_PATH, dense[o, o], dense[o[:-1], o[1:]], dense, order)
    if split:
        return _Form(_SPLIT, *_direct_sum(*_parity_blocks(diag, off)))
    return _Form(_TRIDIAGONAL, diag, off)


def _checked_tol(tol) -> float:
    """tol as a float, refused unless it is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return float(tol)


def sym_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix (band or dense), ascending:
    LAPACK's (numpy.linalg.eigvalsh) for the matrix the oracle routes to,
    the tridiagonal matrix it bisects or, on the LAPACK spectrum route, the
    dense input, times 2**-t, 2**t being the power of two of its max-norm,
    scaled back by 2**t.  So A and 2**k A get spectra exactly 2**k apart,
    band input and its dense form the same bits (a permuted dense form, its
    path order walking a block backwards, can differ in the last bits), and
    an eigenvalue beyond the float range is +-inf.  The matrix is held
    densely and LAPACK takes a copy: two arrays of n * n floats, 144 MB at
    order 3000.  The bits are LAPACK's, not promised alike across BLAS
    builds or thread counts; numpy.linalg.LinAlgError is raised when LAPACK
    does not converge.  No verdict reads the full spectrum."""
    form = _form(a)
    if form.diag is None:
        m = form.dense
    else:
        n = form.diag.shape[0]
        m = np.diag(form.diag)
        m[range(1, n), range(n - 1)] = m[range(n - 1), range(1, n)] = form.off
    t = math.frexp(_max_abs(m))[1]
    # m is this call's own array (_form copies dense input): scale it in place
    np.ldexp(m, -t, out=m)
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.eigvalsh(m), t)


def _threshold(n: int, scale: float, tol: float) -> float:
    """The classification threshold max(tol, STURM_BACKWARD_C * n * eps)
    * scale of an order-n matrix of max-norm scale."""
    return max(tol, STURM_BACKWARD_C * n * sys.float_info.epsilon) * scale


def _class(form: tuple, tol: float) -> tuple[float, str, float]:
    """(2**t v, class, _threshold(n, norm, tol)) of the matrix 2**t S whose
    _scaled_form is given, for a tol already checked by _checked_tol: v is
    S's smallest eigenvalue, bisected to width tol * s, s = 2**-t norm being
    S's max-norm.  Whether an eigenvalue of S lies below x = -thr or +thr,
    thr = _threshold(n, s, tol), is v < x when x is farther from v than
    width + 4 eps |v| (a stop at float resolution), as the bracket's ends
    are certified by Gershgorin or a count, else a Sturm count at x.  Read
    off S, the class is the same for A and 2**k A; the zero matrix (thr =
    0), whose zero pivots count as negative, is PSD_BOUNDARY."""
    norm, t, d, o, lo, hi = form
    s = math.ldexp(norm, -t)
    thr, width, e2 = _threshold(len(d), s, tol), tol * s, [x * x for x in o]
    v = _bisect_scaled(d, e2, width, lo, hi, 0, math.inf)
    near = width + 4 * sys.float_info.epsilon * abs(v)
    below = [_negcount(d, e2, x) if abs(v - x) <= near else v < x for x in (-thr, thr)]
    cls = INDEFINITE if thr > 0 and below[0] else PSD_BOUNDARY if below[1] else PD
    return _pair_value(v, t), cls, _threshold(len(d), norm, tol)


def _indefinite(form: tuple, tol: float) -> bool:
    """Whether _class's class of the matrix whose _scaled_form is given is
    INDEFINITE: the same Sturm count at -thr, with no bisection."""
    norm, t, d, o, _, _ = form
    thr = _threshold(len(d), math.ldexp(norm, -t), tol)
    return thr > 0 and _negcount(d, [x * x for x in o], -thr)


def min_eigenvalue(a, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue to accuracy tol * max-norm."""
    tol = _checked_tol(tol)
    return _class(_form(a).scaled, tol)[0]


def classify_positivity(a, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Classify a symmetric matrix as PD, PSD_BOUNDARY, or INDEFINITE.

    INDEFINITE when an eigenvalue lies below -thr, PSD_BOUNDARY when one
    lies below +thr, by Sturm counts, where thr is max(tol,
    STURM_BACKWARD_C * n * eps) * max-norm; a tol below the Sturm count's
    backward error cannot decide a sign.  The bisected min_eigenvalue may
    lie within tol * max-norm of +-thr on the far side from the class.  Both
    are relative to the max-norm, so A and 2**k A get the same class.  It is
    deterministic for fixed input and tol, except on the LAPACK spectrum
    route, whose minimum has LAPACK's bits: there the class is fixed only
    outside LAPACK's error of +-thr.
    """
    tol = _checked_tol(tol)
    form = _form(a)
    lam, cls, thr = _class(form.scaled, tol)
    return PositivityVerdict(cls, lam, form.scaled[0], tuple(_float_minors(form)), thr)


def _continuant(d: list[float], o: list[float], t: int) -> tuple[list[float], list[int]]:
    """The leading minors f_k = d_k f_{k-1} - o_k^2 f_{k-2} = ms[k] * 2**es[k],
    k = 0..n, of 2**t S, S = (d, o) as in _scaled_form.  The pair (f_k,
    f_{k-1}) is scaled by a power of two only when f_k leaves [_RENORM_LOW,
    _RENORM_HIGH], so no step overflows (a plain continuant turns an
    overflowed tail into inf - inf = NaN); unless a product falls below the
    normal range, the minors are those of rescaling every step, bit for bit.
    Every ms[k] is 0 or lies in [_RENORM_LOW, _RENORM_HIGH], so that the
    product of two, as the odd/even split takes it, neither underflows nor
    overflows."""
    f1, f2, e, ms, es = 1.0, 0.0, 0, [1.0], [0]
    for x, y in zip(d, o):
        f1, f2 = x * f1 - y * (y * f2), f1
        e += t
        if _RENORM_LOW <= abs(f1) <= _RENORM_HIGH:
            ms.append(f1)
            es.append(e)
            continue
        s = math.frexp(max(abs(f1), abs(f2)))[1]
        f1, f2 = math.ldexp(f1, -s), math.ldexp(f2, -s)
        e += s
        # f_k alone may lie far below the window
        m, s = math.frexp(f1)
        ms.append(m)
        es.append(e + s)
    return ms, es


def _band_minors(form: _Form) -> tuple[list[float], list[int]]:
    """Leading minors of band input, given by its _Form, as _continuant
    gives them from its scaled form, from order 1."""
    _, t, d, o, _, _ = form.scaled
    if form.route == _TRIDIAGONAL:
        ms, es = _continuant(d, o, t)
        return ms[1:], es[1:]
    # the order-k leading block is blockdiag(odd block of order ceil(k/2),
    # even block of order floor(k/2)) up to a permutation, and the form is
    # their direct sum
    h, ks = (len(d) + 1) // 2, range(1, len(d) + 1)
    (m_odd, e_odd), (m_even, e_even) = _continuant(d[:h], o[:h], t), _continuant(d[h:], o[h:], t)
    return [m_odd[(k + 1) // 2] * m_even[k // 2] for k in ks], [e_odd[(k + 1) // 2] + e_even[k // 2] for k in ks]


def _exact_continuant(diag, off) -> list[Fraction]:
    """_continuant in Fractions: f_k = d_k f_{k-1} - e_{k-1}^2 f_{k-2}.

    It runs over integers: with q the least common denominator of the
    entries, q**k f_k is the continuant of the integer matrix q T, so each
    minor is reduced once instead of every product and difference."""
    q = math.lcm(*(x.denominator for x in (*diag, *off)))
    f1, f2, scale, out = 1, 0, 1, []
    for d, e in zip(diag, (0, *off)):
        d, e = d.numerator * (q // d.denominator), e.numerator * (q // e.denominator)
        f1, f2 = d * f1 - e * e * f2, f1
        scale *= q
        out.append(Fraction(f1, scale))
    return out


def _exact_band_minors(band: ExactBand) -> list[Fraction]:
    """_band_minors of exact band input, in Fractions and O(n)."""
    if band.offset == 1:
        return _exact_continuant(band.diag, band.off)
    odd, even = ([Fraction(1)] + _exact_continuant(*block) for block in _parity_blocks(band.diag, band.off))
    return [odd[(k + 1) // 2] * even[k // 2] for k in range(1, band.order + 1)]


def _pair_value(m: float, e: int) -> float:
    """m * 2**e, or +-inf when that overflows."""
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _dense_minors(dense: np.ndarray) -> list[float]:
    """Leading minors from one elimination pass without row exchanges: the
    order-k minor is the product of the first k pivots.  From the first
    exactly zero or non-finite pivot on, each remaining minor comes from
    its own partial-pivot elimination."""
    m = np.array(dense, dtype=float, copy=True)
    n = m.shape[0]
    minors, det = [], 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            piv = float(m[k, k])
            if piv == 0.0 or not math.isfinite(piv):
                return minors + [_det_float(dense[: j + 1, : j + 1]) for j in range(k, n)]
            det *= piv
            minors.append(det)
            m[k + 1 :, k + 1 :] -= np.multiply.outer(m[k + 1 :, k] / piv, m[k, k + 1 :])
    return minors


def _float_minors(form: _Form) -> list[float]:
    """Leading minors of the input given by its _Form: the continuant for
    band input, _dense_minors on the LAPACK spectrum route.
    On the path route, _dense_minors' arithmetic and fallback over the
    diagonal and, for each vertex i of the order and the vertex j after it,
    the pair (a_ij, a_ji), every other entry being zero: the minors are
    _dense_minors', bit for bit.  Eliminating vertex k updates its at most
    two neighbours and links them by the fill: O(n) in all."""
    if form.dense is None:
        ms, es = _band_minors(form)
        try:
            return list(map(math.ldexp, ms, es))
        except OverflowError:
            return list(map(_pair_value, ms, es))
    dense, order = form.dense, form.order
    if order is None:
        return _dense_minors(dense)
    # a missing neighbour is -1, whose reads and writes meet only the spare
    # last slot of each list
    n, o = len(order), np.array(order, dtype=np.intp)
    d, fwd, bwd = np.diag(dense).tolist() + [0.0], [0.0] * (n + 1), [0.0] * (n + 1)
    prev, after = [-1] * (n + 1), [-1] * (n + 1)
    for i, j, x, y in zip(order[:-1], order[1:], dense[o[:-1], o[1:]].tolist(), dense[o[1:], o[:-1]].tolist()):
        after[i], prev[j], fwd[i], bwd[i] = j, i, x, y
    minors, det = [], 1.0
    for k in range(n):
        piv = d[k]
        if piv == 0.0 or not math.isfinite(piv):
            return minors + [_det_float(dense[:j, :j]) for j in range(k + 1, n + 1)]
        det *= piv
        minors.append(det)
        i, j = prev[k], after[k]
        fi, fj = fwd[i] / piv, bwd[k] / piv
        d[i] -= fi * bwd[i]
        d[j] -= fj * fwd[k]
        after[i], prev[j] = j, i
        # fill: zero minus the product, up to the sign of a zero
        fwd[i], bwd[i] = -(fi * fwd[k]), -(fj * bwd[i])
    return minors


def _det_float(a: np.ndarray) -> float:
    """Determinant by partial-pivot Gaussian elimination (deterministic),
    with the pivots' product held as a pair (m, e) meaning m * 2**e: +-inf
    when the determinant overflows."""
    m = np.array(a, dtype=float, copy=True)
    n = m.shape[0]
    det, e = 1.0, 0
    for c in range(n):
        piv = c + int(np.argmax(np.abs(m[c:, c])))
        if m[piv, c] == 0.0:
            return 0.0
        if piv != c:
            m[[c, piv]] = m[[piv, c]]
            det = -det
        f = m[c + 1 :, c] / m[c, c]
        m[c + 1 :, c:] -= np.outer(f, m[c, c:])
        det, s = math.frexp(det * float(m[c, c]))
        e += s
    return _pair_value(det, e)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination (Bareiss 1968) with row exchanges.  After each step every
    entry left is a minor of the row-exchanged input, so each division
    (a * piv - f * b) // prev, f being the row's entry under the pivot and
    prev the step before's pivot, is exact."""
    m, sign, prev = list(rows), 1, 1
    while len(m) > 1:
        if not m[0][0]:
            i = next((i for i, row in enumerate(m) if row[0]), None)
            if i is None:
                return 0
            m[0], m[i], sign = m[i], m[0], -sign
        (piv, *top), rest = m[0], m[1:]
        m = [[(a * piv - row[0] * b) // prev for a, b in zip(row[1:], top)] for row in rest]
        prev = piv
    return sign * m[0][0]


def _exact_minors(rows: list[list]) -> list[Fraction]:
    """Exact leading minors of rows of Fractions or ints, whose numerators
    and denominators it reads alike: row i times the lcm q_i of its
    denominators is an integer row, so the order-k minor is that of those
    rows' leading k-block over q_1 ... q_k.  One Bareiss pass without
    exchanges gives every one, its k-th pivot being the order-k minor; from
    the first zero pivot on, each comes from _int_det of its block."""
    ints, scales, scale = [], [], 1
    for row in rows:
        q = math.lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (q // x.denominator) for x in row])
        scale *= q
        scales.append(scale)
    n, m, prev, minors = len(ints), ints, 1, []
    for k in range(n):
        (piv, *top), rest = m[0], m[1:]
        if not piv:
            return minors + [Fraction(_int_det([r[:j] for r in ints[:j]]), scales[j - 1]) for j in range(k + 1, n + 1)]
        minors.append(Fraction(piv, scales[k]))
        m = [[(a * piv - row[0] * b) // prev for a, b in zip(row[1:], top)] for row in rest]
        prev = piv
    return minors


def _exact_rows(a) -> list[list] | None:
    """The input's rows as lists when they form a square of ints (not bools)
    and Fractions, each entry as given; None otherwise."""
    if isinstance(a, np.ndarray) and a.dtype != object:
        return None
    rows = [list(row) for row in a]
    if not rows or any(len(r) != len(rows) for r in rows):
        return None
    exact = all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for r in rows for x in r)
    return rows if exact else None


def leading_principal_minors(a) -> list:
    """Determinants of the top-left k x k blocks, k = 1..n.

    When the entries are ints or Fractions (and n <= 12) the minors are
    computed exactly and returned as Fractions: from the continuant, in
    O(n), for exact band input (bandmat.ExactBand), and from one
    fraction-free elimination pass on integers for rows.
    Otherwise they are floats: from the continuant for band input, and from
    one elimination pass for dense input.  Exact band input above the limit
    gets the float continuant minors of its float matrix, those of
    classify_positivity's certificate.
    """
    if isinstance(a, ExactBand):
        return _exact_band_minors(a) if a.order <= EXACT_MINOR_LIMIT else _float_minors(_form(a))
    try:
        # test the order first: above the limit no Fraction row is needed
        rows = _exact_rows(a) if len(a) <= EXACT_MINOR_LIMIT else None
    except TypeError:
        rows = None
    if rows is not None:
        return _exact_minors(rows)
    return _float_minors(_form(a, minors=True))


def determinant(a) -> float:
    """Determinant of a (band or dense) square matrix; the last continuant
    minor for band input."""
    if isinstance(a, (BandSymMatrix, ExactBand)):
        ms, es = _band_minors(_form(a))
        return _pair_value(ms[-1], es[-1])
    return _det_float(check_dense(to_dense_array(a), symmetric=False))


def shift_to_boundary(a, tol: float = DEFAULT_TOL):
    """For PD input A, return (A - lam*I, lam) where lam is the smallest
    eigenvalue; the first component is PSD with minimum eigenvalue 0
    (within tol) and keeps A's off-diagonal zero pattern."""
    verdict = classify_positivity(a, tol)
    if verdict.classification != PD:
        raise ValueError("matrix is not positive definite")
    lam = verdict.min_eigenvalue
    if isinstance(a, BandSymMatrix):
        return BandSymMatrix(a.bandwidth, a.main_diag - lam, a.off), lam
    if isinstance(a, DenseSymMatrix):
        return DenseSymMatrix(a.entries - lam * np.eye(a.order)), lam
    dense = np.asarray(a, dtype=float)
    return dense - lam * np.eye(dense.shape[0]), lam
