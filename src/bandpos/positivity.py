"""Numerical positivity oracle.

Eigenvalues of symmetric tridiagonal matrices are found by Sturm-sequence
bisection, which certifies how many eigenvalues lie below any pivot.  One
LDL^T inertia kernel counts the eigenvalues below many shifts at once, so
all requested brackets are bisected together, several steps per kernel call.
For several brackets, LAPACK's eigenvalue estimates steer the bisection and
Sturm counts certify it: each bracket first replays bisection's halving
with the estimate deciding each step, and one count at all the brackets'
ends confirms every decision, since the count is monotone in the shift.
The answers are those of sequential bisection; an estimate that is wrong
sends its bracket back to the start, so it costs time, never an answer.
A single bracket, such as the smallest eigenvalue's, only asks whether a
count is at most its index, so its count stops at the first pivot past that
answer.  A caller that only asks whether the eigenvalue lies below a floor
(the probe's running minimum, or -thr for an INDEFINITE test) stops the
bisection as soon as the bracket's lower end reaches the floor; a value it
does get is the full bisection's.  Every route works on its input times
the power of two that brings its max-norm into [1/2, 1), and every
tolerance is relative to the max-norm, so A and 2**k A get the same
verdicts, with numbers 2**k apart.
A pentadiagonal matrix with zero first off-diagonal is the direct sum of its
odd and even tridiagonal blocks and is bisected as such; dense input whose
off-diagonal nonzero graph is a disjoint union of paths is a permuted
tridiagonal matrix and is bisected in its path order.  Only other dense
input is first reduced to tridiagonal form by Householder reflections.
Each call finds its input's route once, as a _Form record
(tridiagonal, odd/even split, path order or Householder), and the
eigenvalue and minor routes read that record.

Leading principal minors come from the three-term continuant for band input
(a pentadiagonal matrix with zero first off-diagonal multiplies the
continuants of its odd and even blocks) and from one elimination pass for
dense input, as prefix products of the pivots.  The pass touches only the
nonzero entries when the nonzero graph is a union of paths, in O(n), with
results bit for bit those of the full pass.  Rational input gets exact
minors: exact band input (bandmat.ExactBand) from the same continuant in
Fractions, dense Fraction rows from the same elimination over their nonzero
entries.

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
from .bandmat import _direct_sum, _max_abs, _parity_blocks, _unit_exponent

__all__ = [
    "PD",
    "PSD_BOUNDARY",
    "INDEFINITE",
    "DEFAULT_TOL",
    "PositivityVerdict",
    "sym_tridiag_eigenvalues",
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

# Sturm pivots smaller than this in magnitude become -_PIVMIN, so the next
# pivot stays finite; the bisected matrix has max-norm in [1/2, 1).
_PIVMIN = 1e-290

# Largest number of pivots one Sturm-count call holds in memory at once.
_NEGCOUNT_BLOCK = 1 << 20

# Bisection steps per bracket taken from one Sturm-count call when several
# brackets are bisected together (2**depth - 1 shifts per bracket).
_MULTISECT_DEPTH = 3


@dataclass(frozen=True)
class PositivityVerdict:
    """Classification of a symmetric matrix with a numeric certificate.

    classification is PD when the smallest eigenvalue clears
    +thr = max(tol, STURM_BACKWARD_C * n * eps) * scale, INDEFINITE
    when it clears -thr, and PSD_BOUNDARY in between; scale is the max-norm
    of the matrix, certificate holds the leading principal minors and
    threshold is thr.
    """

    classification: str
    min_eigenvalue: float
    scale: float
    certificate: tuple[float, ...]
    threshold: float


def _negcounts(diag: np.ndarray, off2: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift x: the negative LDL^T pivots
    q_i = (d_i - x) - off2_{i-1} / q_{i-1} of T - xI, with any pivot
    smaller than _PIVMIN in magnitude replaced by -_PIVMIN."""
    n = diag.shape[0]
    if n * shifts.shape[0] > _NEGCOUNT_BLOCK:
        parts = np.array_split(shifts, -(-n * shifts.shape[0] // _NEGCOUNT_BLOCK))
        return np.concatenate([_negcounts(diag, off2, s) for s in parts])
    q = np.subtract.outer(diag, shifts)
    rows, e2s = list(q), off2.tolist()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for prev, row, e2 in zip(rows, rows[1:], e2s):
            row -= e2 / prev
    if (np.abs(q) < _PIVMIN).any():
        # rare: some pivot needs the substitution, so redo row by row with it
        q = np.subtract.outer(diag, shifts)
        rows = list(q)
        for i, row in enumerate(rows):
            if i:
                row -= e2s[i - 1] / rows[i - 1]
            row[np.abs(row) < _PIVMIN] = -_PIVMIN
    return np.count_nonzero(q < 0.0, axis=0)


def _negcount(diag: list, off2: list, x: float, k: int) -> int:
    """_negcounts for one shift, over Python floats (off2 starts with 0.0),
    stopped as soon as the count exceeds k: the count when it is at most k,
    and k + 1 otherwise.  A pivot below _PIVMIN is counted either way: it is
    negative, or it lies within _PIVMIN of zero and is replaced by -_PIVMIN."""
    count = 0
    q = 1.0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if q < _PIVMIN:
            if count == k:
                return k + 1
            count += 1
            if q > -_PIVMIN:
                q = -_PIVMIN
    return count


def _warm_start(diag, off, off2, width: float, ks: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Move the brackets [a, b] of the eigenvalues ks, in place, to where
    sequential bisection takes them, steered by LAPACK's estimates and
    certified by one Sturm count at their ends.

    Each bracket replays bisection's halving with the decision
    mid < estimate in place of a Sturm count, and stops where bisection
    stops or at the first midpoint too near its estimate to decide.  The
    count is monotone in the shift (Demmel, Dhillon and Ren 1995), so
    count(a) <= k < count(b) at the ends certifies every decision taken on
    the way, and the bracket is the one bisection reaches.  A bracket that
    fails the check keeps its start, as do all when an estimate is not
    finite: a bad estimate costs time, never an answer."""
    n = diag.shape[0]
    try:
        est = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[ks]
    except np.linalg.LinAlgError:
        return
    if not np.isfinite(est).all():
        return
    # an estimate's error and the count's backward error are both about
    # n * eps * scale: a midpoint this near its estimate is left to the count
    near = 2.0 * STURM_BACKWARD_C * n * sys.float_info.epsilon * _max_abs(diag, off)
    # halve every bracket without stopping, keeping each step's ends, and
    # read each bracket's path up to its first stop.  The brackets share
    # their start, so all reach the width after about as many halvings; at
    # most 64 are taken (a bracket off zero meets float resolution within
    # about 55), and a bracket not stopped by then carries on in the
    # multisection loop.  A width that underflowed to zero stops none.
    steps = math.ceil(math.log2(float(b[0] - a[0])) - math.log2(max(width, math.ulp(0.0)))) + 1
    ends_a, ends_b = [a], [b]
    al, bl = a, b
    for _ in range(min(max(steps, 1), 64)):
        mid = 0.5 * (al + bl)
        right = mid < est
        al, bl = np.where(right, mid, al), np.where(right, bl, mid)
        ends_a.append(al)
        ends_b.append(bl)
    ends_a, ends_b = np.array(ends_a), np.array(ends_b)
    mids = 0.5 * (ends_a + ends_b)
    stop = (ends_b - ends_a <= width) | (mids <= ends_a) | (mids >= ends_b) | (np.abs(mids - est) <= near)
    stop[-1] = True
    cols = np.arange(ks.size)
    step = stop.argmax(axis=0)
    al, bl = ends_a[step, cols], ends_b[step, cols]
    counts = _negcounts(diag, off2, np.concatenate((al, bl)))
    ok = (counts[: ks.size] <= ks) & (ks < counts[ks.size :])
    a[ok], b[ok] = al[ok], bl[ok]


def _scaled_form(diag: np.ndarray, off: np.ndarray, width: float):
    """(t, 2**-t diag, 2**-t off, 2**-t width, lo, hi): the tridiagonal
    matrix T = (diag, off), of order n >= 2, is bisected as 2**-t T, of
    max-norm in [1/2, 1), whose every step is T's scaled by 2**-t, and
    [lo, hi] holds the Gershgorin bounds of 2**-t T, each moved out by the
    width and 1e-14 of the larger bound.  The entries are scaled as one
    array, so the numpy calls are few and the same at every order."""
    n = diag.shape[0]
    x = np.concatenate((diag, off))
    t = math.frexp(np.maximum.reduce(np.abs(x)))[1]
    x, width = np.ldexp(x, -t), math.ldexp(width, -t)
    diag, off = x[:n], x[n:]
    aoff = np.abs(off)
    radius = np.zeros(n)
    radius[:-1] = aoff
    radius[1:] += aoff
    lo = float(np.minimum.reduce(diag - radius))
    hi = float(np.maximum.reduce(diag + radius))
    pad = width + 1e-14 * max(abs(lo), abs(hi))
    return t, diag, off, width, lo - pad, hi + pad


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


def _bisect_one(diag: np.ndarray, off: np.ndarray, width: float, k: int = 0, floor: float = math.inf) -> float | None:
    """The k-th eigenvalue (0-based, ascending) of the tridiagonal matrix,
    bisected from the Gershgorin bounds to a bracket of the given width or
    to float resolution, when it lies below floor; None otherwise.

    The bisection stops as soon as its bracket's lower end reaches floor:
    every later midpoint lies at or above that end, and the count is
    monotone in the shift, so the full bisection's value could not lie
    below floor either.  A value returned is the full bisection's, bit for
    bit.  Each Sturm count only asks whether the count is at most k, so it
    stops at the first pivot past that answer."""
    n = diag.shape[0]
    if n == 1:
        lam = float(diag[0])
        return lam if lam < floor else None
    t, diag, off, width, a, b = _scaled_form(diag, off, width)
    low = _scaled_floor(floor, t)
    d, e2 = diag.tolist(), [0.0] + (off * off).tolist()
    while a < low and b - a > width:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if _negcount(d, e2, mid, k) <= k:
            a = mid
        else:
            b = mid
    if a >= low:
        return None
    lam = _pair_value(0.5 * (a + b), t)
    return lam if lam < floor else None


def _tridiag_bisect(diag: np.ndarray, off: np.ndarray, width: float, indices) -> list[float]:
    """Bisect the requested eigenvalues (0-based, ascending) of the
    tridiagonal matrix to brackets of the given width, using Gershgorin
    bounds as the initial bracket.  All brackets advance together; each
    stops early if float resolution is reached before the width.

    The brackets of a matrix whose pivots fit one Sturm-count call
    (n * n <= _NEGCOUNT_BLOCK) start where LAPACK's estimates steer them
    and one count certifies (_warm_start); the answers are those of
    sequential bisection either way.  A single eigenvalue is _bisect_one's
    to find."""
    n = diag.shape[0]
    if n == 1:
        return [float(diag[0]) for _ in indices]
    t, diag, off, width, lo, hi = _scaled_form(diag, off, width)
    off2 = off * off
    ks = np.asarray(indices)
    a = np.full(ks.shape, lo)
    b = np.full(ks.shape, hi)
    if n * n <= _NEGCOUNT_BLOCK:
        _warm_start(diag, off, off2, width, ks, a, b)
    # a bracket at float resolution stops at its first midpoint: leave it out
    mid = 0.5 * (a + b)
    live = np.flatnonzero((b - a > width) & (mid > a) & (mid < b))
    while live.size:
        # the midpoints of the next _MULTISECT_DEPTH steps of every live
        # bracket, in heap order: node j's step sees the bracket split at
        # node (j - 1) // 2, so each is 0.5 * (a + b) of exactly that bracket
        al, bl, kl = a[live], b[live], ks[live]
        ends, levels = np.stack((al, bl), axis=1), []
        for _ in range(_MULTISECT_DEPTH):
            mids = 0.5 * (ends[:, :-1] + ends[:, 1:])
            levels.append(mids)
            split = np.empty((live.size, 2 * ends.shape[1] - 1))
            split[:, 0::2], split[:, 1::2] = ends, mids
            ends = split
        mids = np.concatenate(levels, axis=1)
        counts = _negcounts(diag, off2, mids.ravel()).reshape(mids.shape)
        # walk each bracket down the tree with the sequential stops
        cols, node = np.arange(live.size), np.zeros(live.size, dtype=np.intp)
        going = np.ones(live.size, dtype=bool)
        for _ in range(_MULTISECT_DEPTH):
            mid = mids[cols, node]
            going &= (mid > al) & (mid < bl)
            below = counts[cols, node] <= kl
            al = np.where(going & below, mid, al)
            bl = np.where(going & ~below, mid, bl)
            going &= bl - al > width
            node = 2 * node + 1 + below
        a[live], b[live] = al, bl
        live = live[going]
    # an eigenvalue beyond the float range scales back to +-inf
    with np.errstate(over="ignore"):
        return np.ldexp(0.5 * (a + b), t).tolist()


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a dense symmetric matrix to tridiagonal form; returns the
    diagonal and first off-diagonal of the similar tridiagonal matrix.  The
    reflections are those of 2**-t a, of max-norm in [1/2, 1), and the
    result is 2**t times its reduction."""
    t = _unit_exponent(a)
    m = np.ldexp(a, -t)
    n = m.shape[0]
    # flat buffers for the factors [v w] (p x 2) and [w; v] (2 x p) of the
    # rank-2 update; a C-ordered reshape of a prefix is contiguous, laid out
    # as a freshly stacked array
    left, right = np.empty(2 * n), np.empty(2 * n)
    for k in range(n - 2):
        # a contiguous copy: np.dot on the strided column view rounds
        # differently
        x = m[k + 1 :, k].copy()
        nx = math.sqrt(float(np.dot(x, x)))
        if nx == 0.0:
            continue
        v = x.copy()
        v[0] += math.copysign(nx, x[0]) if x[0] != 0.0 else nx
        nv = math.sqrt(float(np.dot(v, v)))
        if nv == 0.0:
            continue
        v /= nv
        # the reflected column is (x0 - 2 v0 (v.x), 0, ..., 0) up to rounding;
        # only its first entry, the off-diagonal, is read again
        m[k, k + 1] = x[0] - 2.0 * v[0] * float(np.dot(v, x))
        sub = m[k + 1 :, k + 1 :]
        # with w = 2(sub v - (v.sub v) v), (I - 2vv^T) sub (I - 2vv^T) is
        # sub - v w^T - w v^T: one rank-2 update
        w = sub @ v
        w -= float(np.dot(v, w)) * v
        w *= 2.0
        p = n - 1 - k
        vw, wv = left[: 2 * p].reshape(p, 2), right[: 2 * p].reshape(2, p)
        vw[:, 0], vw[:, 1], wv[0], wv[1] = v, w, w, v
        sub -= vw @ wv
    return np.ldexp(np.diag(m), t), np.ldexp(np.diag(m, 1), t)


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
_TRIDIAGONAL, _SPLIT, _PATH, _HOUSEHOLDER = "tridiagonal", "odd/even split", "path order", "Householder"


@dataclass(frozen=True)
class _Form:
    """An input's route to the tridiagonal matrix the oracle bisects, and
    what the route reads; _form builds it once per call.  Band input holds
    its main diagonal and stored off-diagonal as float arrays, dense input
    its validated array and, on the path route, its path order.  route is
    None for dense input when no route was asked for."""

    route: str | None
    diag: np.ndarray | None = None
    off: np.ndarray | None = None
    dense: np.ndarray | None = None
    order: list[int] | None = None

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Diagonal and off-diagonal of the tridiagonal matrix the oracle
        bisects, and the input's max-norm.  The split's blocks are joined by
        an exactly zero coupling."""
        if self.dense is None:
            scale = _max_abs(self.diag, self.off)
            if self.route == _SPLIT:
                return (*_direct_sum(*_parity_blocks(self.diag, self.off)), scale)
            return self.diag, self.off, scale
        scale = float(np.abs(self.dense).max())
        if self.route == _PATH:
            order = self.order
            return self.dense[order, order], self.dense[order[:-1], order[1:]], scale
        return (*_householder_tridiagonalize(self.dense), scale)


def _form(a, symmetric: bool = True, reorder: bool = True) -> _Form:
    """The _Form of band or dense input.  A raw dense array gets
    DenseSymMatrix's checks (bandmat.check_dense), the symmetry check only
    when symmetric.  Without reorder, dense input gets no route and no path
    order is looked for."""
    if isinstance(a, ExactBand):
        diag, off = np.array(a.diag, dtype=float), np.array(a.off, dtype=float)
        return _Form(_SPLIT if a.offset == 2 else _TRIDIAGONAL, diag, off)
    if isinstance(a, BandSymMatrix):
        return _Form(_SPLIT if a.bandwidth == 2 else _TRIDIAGONAL, a.main_diag, a.off)
    dense = to_dense_array(a)
    if not isinstance(a, DenseSymMatrix):
        check_dense(dense, symmetric)
    if not reorder:
        return _Form(None, dense=dense)
    order = _path_order(dense)
    return _Form(_HOUSEHOLDER if order is None else _PATH, dense=dense, order=order)


def _checked_tol(tol) -> float:
    """tol as a float, refused unless it is positive and finite."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return float(tol)


def sym_tridiag_eigenvalues(t: BandSymMatrix, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending, each
    bracketed by Sturm bisection to width <= tol."""
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    return sym_eigenvalues(t, tol)


def sym_eigenvalues(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of a symmetric matrix (band or dense), ascending;
    brackets of width <= tol."""
    tol = _checked_tol(tol)
    diag, off, _ = _form(a).tridiagonal()
    return np.sort(_tridiag_bisect(diag, off, tol, range(diag.shape[0])))


def _threshold(n: int, scale: float, tol: float) -> float:
    """The classification threshold max(tol, STURM_BACKWARD_C * n * eps)
    * scale of an order-n matrix of max-norm scale."""
    return max(tol, STURM_BACKWARD_C * n * sys.float_info.epsilon) * scale


def _form_class(diag: np.ndarray, off: np.ndarray, scale: float, tol: float) -> tuple[float, str, float]:
    """Smallest eigenvalue, class and threshold of the tridiagonal form
    (diag, off) of a matrix of max-norm scale, as _Form.tridiagonal gives
    it, for a tol already checked by _checked_tol.  The eigenvalue is
    bisected to width tol * scale; the class compares it against +-thr,
    thr = _threshold(n, scale, tol)."""
    lam = _bisect_one(diag, off, tol * scale)
    thr = _threshold(diag.shape[0], scale, tol)
    if lam > thr:
        cls = PD
    elif lam < -thr:
        cls = INDEFINITE
    else:
        cls = PSD_BOUNDARY
    return lam, cls, thr


def _indefinite(diag: np.ndarray, off: np.ndarray, scale: float, tol: float) -> bool:
    """Whether _form_class's class is INDEFINITE, its eigenvalue below -thr;
    the bisection stops as soon as its bracket's lower end reaches -thr."""
    return _bisect_one(diag, off, tol * scale, 0, -_threshold(diag.shape[0], scale, tol)) is not None


def min_eigenvalue(a, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue to accuracy tol * max-norm."""
    tol = _checked_tol(tol)
    return _form_class(*_form(a).tridiagonal(), tol)[0]


def classify_positivity(a, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Classify a symmetric matrix as PD, PSD_BOUNDARY, or INDEFINITE.

    Deterministic for fixed input and tol: the verdict compares the
    bisected smallest eigenvalue against +-thr, where thr is
    max(tol, STURM_BACKWARD_C * n * eps) * max-norm; a tol below the Sturm
    count's backward error cannot decide a sign.  Both are relative to the
    max-norm, so A and 2**k A get the same class.
    """
    tol = _checked_tol(tol)
    form = _form(a)
    diag, off, scale = form.tridiagonal()
    lam, cls, thr = _form_class(diag, off, scale, tol)
    return PositivityVerdict(cls, lam, scale, tuple(_float_minors(form)), thr)


def _continuant(diag: np.ndarray, off: np.ndarray) -> list[tuple[float, int]]:
    """Leading minors of the symmetric tridiagonal matrix (diag, off) by the
    three-term continuant f_k = d_k f_{k-1} - e_{k-1}^2 f_{k-2}, each as a
    pair (m, e) meaning m * 2**e.

    The entries are scaled by a power of two to below 1 and the running
    pair is renormalized at every step.  Both are exact, so no step
    overflows: a plain continuant turns an overflowed tail into
    inf - inf = NaN."""
    t = _unit_exponent(diag, off)
    f1, f2, e, out = 1.0, 0.0, 0, []
    for d, o in zip(np.ldexp(diag, -t).tolist(), [0.0] + np.ldexp(off, -t).tolist()):
        f = d * f1 - o * (o * f2)
        s = math.frexp(max(abs(f), abs(f1)))[1]
        f1, f2 = math.ldexp(f, -s), math.ldexp(f1, -s)
        e += s + t
        out.append((f1, e))
    return out


def _band_minors(form: _Form) -> list[tuple[float, int]]:
    """Leading minors as continuant pairs of band input, given by its
    _Form."""
    if form.route == _TRIDIAGONAL:
        return _continuant(form.diag, form.off)
    # the order-k leading block is blockdiag(odd block of order ceil(k/2),
    # even block of order floor(k/2)) up to a permutation
    odd, even = ([(1.0, 0)] + _continuant(*block) for block in _parity_blocks(form.diag, form.off))
    pairs = []
    for k in range(1, form.diag.shape[0] + 1):
        (m_odd, e_odd), (m_even, e_even) = odd[(k + 1) // 2], even[k // 2]
        pairs.append((m_odd * m_even, e_odd + e_even))
    return pairs


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


def _sparse_minors(rows: list[dict], block_det) -> list:
    """_dense_minors over the entries held in rows: rows[i] maps column j to
    entry (i, j), every entry left out is zero, and rows is updated in
    place.  Each step does exactly _dense_minors' operations,
    m[i, j] -= (m[i, k] / piv) * m[k, j], for the rows i holding column k
    and the columns j of pivot row k; every other update subtracts a signed
    zero.  From the first zero or non-finite pivot on, the order-j minor is
    block_det(j).

    Ints, floats and Fractions all work; no entry is converted.  Eliminating
    a vertex of a path joins its two neighbours, so a symmetric pattern
    whose graph is a union of paths keeps O(n) entries throughout."""
    n = len(rows)
    below = [[] for _ in range(n)]  # below[k]: the rows i > k holding column k
    for i, row in enumerate(rows):
        for j in row:
            if j < i:
                below[j].append(i)
    minors, det = [], 1
    for k, pivot_row in enumerate(rows):
        piv = pivot_row.get(k, 0)
        # only a float is inf or NaN; math.isfinite would convert a Fraction
        # to float, which overflows above about 1.8e308
        if piv == 0 or (isinstance(piv, float) and not math.isfinite(piv)):
            return minors + [block_det(j) for j in range(k + 1, n + 1)]
        det *= piv
        minors.append(det)
        right = [(j, x) for j, x in pivot_row.items() if j > k]
        for i in below[k]:
            row = rows[i]
            f = row[k] / piv
            for j, x in right:
                if j in row:
                    row[j] -= f * x
                else:
                    # fill: zero minus the product, up to the sign of a zero
                    row[j] = -(f * x)
                    if j < i:
                        below[j].append(i)
    return minors


def _float_minors(form: _Form) -> list[float]:
    """Leading minors of the input given by its _Form: the continuant for
    band input; on the path route, _sparse_minors over the entries that the
    path order makes tridiagonal (the others are zero); _dense_minors
    otherwise.  The last two are bit for bit the same."""
    if form.dense is None:
        return [_pair_value(m, e) for m, e in _band_minors(form)]
    dense, order = form.dense, form.order
    if order is None:
        return _dense_minors(dense)
    rows = [{i: x} for i, x in enumerate(np.diag(dense).tolist())]
    ahead, behind = order[1:], order[:-1]
    for i, j, x, y in zip(behind, ahead, dense[behind, ahead].tolist(), dense[ahead, behind].tolist()):
        rows[i][j], rows[j][i] = x, y
    return _sparse_minors(rows, lambda j: _det_float(dense[:j, :j]))


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


def _det_exact(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                for cc in range(c, n):
                    m[r][cc] -= f * m[c][cc]
    det = Fraction(sign)
    for c in range(n):
        det *= m[c][c]
    return det


def _exact_minors(rows: list[list[Fraction]]) -> list[Fraction]:
    """_sparse_minors of Fraction rows, with _det_exact after a zero pivot."""
    sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
    return _sparse_minors(sparse, lambda j: _det_exact([r[:j] for r in rows[:j]]))


def _exact_rows(a) -> list[list[Fraction]] | None:
    """Nested Fraction rows when the input carries exact rational entries;
    an entry that is already a Fraction is kept as it is."""
    if isinstance(a, np.ndarray) and a.dtype != object:
        return None
    rows = list(a)
    out = []
    for row in rows:
        r = []
        for x in row:
            if not isinstance(x, Fraction):
                if isinstance(x, bool) or not isinstance(x, int):
                    return None
                x = Fraction(x)
            r.append(x)
        out.append(r)
    if not out or any(len(r) != len(out) for r in out):
        return None
    return out


def leading_principal_minors(a) -> list:
    """Determinants of the top-left k x k blocks, k = 1..n.

    When the entries are ints or Fractions (and n <= 12) the minors are
    computed exactly and returned as Fractions: from the continuant, in
    O(n), for exact band input (bandmat.ExactBand), and from one
    elimination pass for rows.  Otherwise they are floats: from the
    continuant for band input, and from one elimination pass for dense
    input.  Exact band input above the limit gets the float continuant
    minors of its float matrix, those of classify_positivity's certificate.
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
    return _float_minors(_form(a, symmetric=False))


def determinant(a) -> float:
    """Determinant of a (band or dense) square matrix; the last continuant
    minor for band input."""
    form = _form(a, symmetric=False, reorder=False)
    if form.dense is None:
        return _pair_value(*_band_minors(form)[-1])
    return _det_float(form.dense)


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
