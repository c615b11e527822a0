"""Numerical positivity oracle.

Eigenvalues of symmetric tridiagonal matrices are found by Sturm-sequence
bisection, which certifies how many eigenvalues lie below any pivot.  One
LDL^T inertia kernel counts the eigenvalues below many shifts at once, so
all requested brackets are bisected together, several steps per kernel call.
For several brackets, LAPACK's eigenvalue estimates steer the bisection and
one Sturm count at all the brackets' ends certifies every step, the count
being monotone in the shift: the answers are those of sequential bisection,
and a wrong estimate costs time, never an answer.  The smallest eigenvalue
is bisected in a bracket of its own, whose Sturm count stops at the first
negative pivot; after a few plain steps a Newton estimate steers it in the
same way, certified by at most two counts at its moved ends.  A caller that only asks whether it lies below a floor (the
probe's running minimum, or -thr for an INDEFINITE test) stops the
bisection once the bracket's lower end reaches the floor; a value it does
get is the full bisection's.  Every route works on its input times the power
of two that brings its max-norm into [1/2, 1), and every tolerance is
relative to the max-norm, so A and 2**k A get the same verdicts, with
numbers 2**k apart.  The falsification probe sets up a whole batch of
samples with the same few numpy calls (powers of two, scaled entries,
Gershgorin bounds of a direct sum) and bisects each by the same scalar loop
as a single matrix.
A pentadiagonal matrix with zero first off-diagonal is the direct sum of its
odd and even tridiagonal blocks and is bisected as such; dense input whose
off-diagonal nonzero graph is a disjoint union of paths is a permuted
tridiagonal matrix and is bisected in its path order.  Only other dense
input is first reduced to tridiagonal form by Householder reflections.
Each call finds its input's route once, as a _Form record (tridiagonal,
odd/even split, path order or Householder), and builds one scaled form of
it (_scaled_form: max-norm, power of two, scaled diagonals as Python lists,
Gershgorin bounds), which the threshold, the one-bracket bisection and the
band minors all read.

Leading principal minors come from the three-term continuant for band input
(a pentadiagonal matrix with zero first off-diagonal multiplies the
continuants of its odd and even blocks), whose running value is rescaled
by a power of two only when it leaves a fixed window, and from one
elimination pass for dense input, as prefix products of the pivots.  The
pass touches only the path entries, held as linked pairs, when the nonzero
graph is a union of paths, in O(n), with results bit for bit those of the
full pass.  Rational input gets exact minors: exact band input
(bandmat.ExactBand) from the same continuant in Fractions, dense Fraction
rows from the same elimination over their nonzero entries (_sparse_minors).

This module is deliberately independent of the chain-sequence criteria in
``chainseq``: the two are validated against each other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .bandmat import BandSymMatrix, DenseSymMatrix, ExactBand, check_dense, to_dense_array
from .bandmat import _direct_sum, _max_abs, _parity_blocks

__all__ = [
    "PD",
    "PSD_BOUNDARY",
    "INDEFINITE",
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

# Sturm pivots smaller than this in magnitude count as negative and become
# -_PIVMIN, so the next pivot stays finite; the bisected matrix has max-norm
# in [1/2, 1).
_PIVMIN = 1e-290

# The continuant's running pair is rescaled only when its value leaves
# [_RENORM_LOW, _RENORM_HIGH] (see _continuant).
_RENORM_LOW, _RENORM_HIGH = 2.0**-64, 2.0**64

# Largest number of pivots one Sturm-count call holds in memory at once.
_NEGCOUNT_BLOCK = 1 << 20

# Plain steps of the one-bracket bisection before _steer; Newton passes.
_STEER_AFTER, _NEWTON_PASSES = 12, 8

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


def _negcount(diag: list, off2: list, x: float) -> bool:
    """Whether _negcounts is nonzero at the one shift x, over Python floats
    (off2 starts with 0.0): whether some pivot falls below _PIVMIN.  It
    stops at the first one."""
    q = 1.0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if q < _PIVMIN:
            return True
    return False


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
    of (diag, off)) whose tridiagonal form 2**e (diag, off) is 2**t S, S of
    max-norm in [1/2, 1) with diagonal d, couplings o (o[0] = 0.0, o[i] for
    rows i - 1 and i) and Gershgorin bounds [lo, hi]: _scaled_forms's
    one-matrix case, in Python lists, to pay for fewer numpy calls."""
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

    The bisection stops as soon as its bracket's lower end reaches floor:
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


def _bisect_form(form: tuple, width: float, floor: float = math.inf) -> float | None:
    """_bisect_scaled of the matrix whose _scaled_form is given."""
    _, t, d, o, lo, hi = form
    return _bisect_scaled(d, [x * x for x in o], width, lo, hi, t, floor)


def _bisect_one(diag, off, width: float, floor: float = math.inf, e: int = 0) -> float | None:
    """_bisect_scaled of the tridiagonal matrix 2**e (diag, off): its
    smallest eigenvalue, bisected to the given width, when it lies below
    floor; None otherwise."""
    return _bisect_form(_scaled_form(diag, off, e), width, floor)


def _tridiag_bisect(diag: np.ndarray, off: np.ndarray, width: float, e: int = 0) -> list[float]:
    """Bisect every eigenvalue of the tridiagonal matrix 2**e (diag, off),
    in ascending order, to brackets of the given width, using Gershgorin
    bounds as the initial bracket.  All brackets advance together; each
    stops early if float resolution is reached before the width.

    The brackets of a matrix whose pivots fit one Sturm-count call
    (n * n <= _NEGCOUNT_BLOCK) start where LAPACK's estimates steer them
    and one count certifies (_warm_start); the answers are those of
    sequential bisection either way.  The smallest eigenvalue alone is
    _bisect_one's to find."""
    n = diag.shape[0]
    if n == 1:
        return [_pair_value(float(diag[0]), e)]
    _, t, diag, off, lo, hi = _scaled_form(diag, off, e)
    width = math.ldexp(width, -t)
    lo, hi = _bracket(lo, hi, width)
    diag, off = np.array(diag), np.array(off[1:])
    off2 = off * off
    ks = np.arange(n)
    a = np.full(n, lo)
    b = np.full(n, hi)
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


def _householder_tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Reduce a dense symmetric matrix to tridiagonal form; returns the
    diagonal and first off-diagonal of the tridiagonal matrix similar to
    2**-t a, of max-norm in [1/2, 1), and the max-norm of a, of exponent t.
    It is not scaled back: a reduction beyond the float range stays finite."""
    norm = _max_abs(a)
    m = np.ldexp(a, -math.frexp(norm)[1])
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
    return np.diag(m).copy(), np.diag(m, 1).copy(), norm


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

    @cached_property
    def _reduction(self) -> tuple[np.ndarray, np.ndarray, float]:
        return _householder_tridiagonalize(self.dense)

    @property
    def exponent(self) -> int:
        """The e of tridiagonal(): nonzero on the Householder route only."""
        return math.frexp(self._reduction[2])[1] if self.route == _HOUSEHOLDER else 0

    def matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of the tridiagonal matrix the oracle
        bisects: the form of 2**-e times the input, e = self.exponent, the
        split's blocks joined by an exactly zero coupling."""
        if self.dense is None:
            if self.route == _SPLIT:
                return _direct_sum(*_parity_blocks(self.diag, self.off))
            return self.diag, self.off
        if self.route == _PATH:
            order = self.order
            return self.dense[order, order], self.dense[order[:-1], order[1:]]
        return self._reduction[:2]

    def tridiagonal(self) -> tuple[np.ndarray, np.ndarray, float]:
        """matrix() and its max-norm; on the Householder route the fraction
        of the input's max-norm, the reduction's being 2**-e times it."""
        if self.route == _HOUSEHOLDER:
            diag, off, norm = self._reduction
            return diag, off, math.frexp(norm)[0]
        diag, off = self.matrix()
        return diag, off, _max_abs(diag, off)

    def scaled(self) -> tuple:
        """The input's _scaled_form.  Off the Householder route its max-norm
        is matrix()'s: on the path route, that of the 2n - 1 path entries,
        which hold every nonzero."""
        if self.route != _HOUSEHOLDER:
            return _scaled_form(*self.matrix())
        diag, off, norm = self._reduction
        return _scaled_form(diag, off, math.frexp(norm)[1], norm)


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
    form = _form(a)
    return np.sort(_tridiag_bisect(*form.matrix(), tol, form.exponent))


def _threshold(n: int, scale: float, tol: float) -> float:
    """The classification threshold max(tol, STURM_BACKWARD_C * n * eps)
    * scale of an order-n matrix of max-norm scale."""
    return max(tol, STURM_BACKWARD_C * n * sys.float_info.epsilon) * scale


def _class(form: tuple, tol: float) -> tuple[float, str, float]:
    """Smallest eigenvalue, class and threshold of the matrix whose
    _scaled_form is given, for a tol already checked by _checked_tol.  The
    eigenvalue is bisected to width tol * norm; the class compares it
    against +-thr, thr = _threshold(n, norm, tol)."""
    norm = form[0]
    lam = _bisect_form(form, tol * norm)
    thr = _threshold(len(form[2]), norm, tol)
    if lam > thr:
        cls = PD
    elif lam < -thr:
        cls = INDEFINITE
    else:
        cls = PSD_BOUNDARY
    return lam, cls, thr


def _indefinite(diag: np.ndarray, off: np.ndarray, scale: float, tol: float) -> bool:
    """Whether _class's class is INDEFINITE, its eigenvalue below -thr;
    the bisection stops as soon as its bracket's lower end reaches -thr."""
    return _bisect_one(diag, off, tol * scale, -_threshold(diag.shape[0], scale, tol)) is not None


def min_eigenvalue(a, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue to accuracy tol * max-norm."""
    tol = _checked_tol(tol)
    return _class(_form(a).scaled(), tol)[0]


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
    scaled = form.scaled()
    lam, cls, thr = _class(scaled, tol)
    return PositivityVerdict(cls, lam, scaled[0], tuple(_float_minors(form, scaled)), thr)


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


def _band_minors(form: _Form, scaled: tuple | None = None) -> tuple[list[float], list[int]]:
    """Leading minors of band input, given by its _Form (and _scaled_form,
    when made), as _continuant gives them, from order 1."""
    _, t, d, o, _, _ = scaled or form.scaled()
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


def _sparse_minors(rows: list[dict], block_det) -> list:
    """_dense_minors over the entries held in rows, for dense Fraction rows
    (_exact_minors; float input takes _float_minors): rows[i] maps column j
    to entry (i, j), every entry left out is zero, and rows is updated in
    place.  Each step does exactly _dense_minors' operations,
    m[i, j] -= (m[i, k] / piv) * m[k, j], for the rows i holding column k
    and the columns j of pivot row k; every other update subtracts a zero.
    From the first zero pivot on, the order-j minor is block_det(j)."""
    n = len(rows)
    below = [[] for _ in range(n)]  # below[k]: the rows i > k holding column k
    for i, row in enumerate(rows):
        for j in row:
            if j < i:
                below[j].append(i)
    minors, det = [], 1
    for k, pivot_row in enumerate(rows):
        piv = pivot_row.get(k, 0)
        if piv == 0:
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
                    # fill: zero minus the product
                    row[j] = -(f * x)
                    if j < i:
                        below[j].append(i)
    return minors


def _float_minors(form: _Form, scaled: tuple | None = None) -> list[float]:
    """Leading minors of the input given by its _Form (and _scaled_form):
    the continuant for band input, _dense_minors on the Householder route.
    On the path route, _dense_minors' arithmetic and fallback over the
    diagonal and, for each vertex i of the order and the vertex j after it,
    the pair (a_ij, a_ji), every other entry being zero: the minors are
    _dense_minors', bit for bit.  Eliminating vertex k updates its at most
    two neighbours and links them by the fill: O(n) in all."""
    if form.dense is None:
        ms, es = _band_minors(form, scaled)
        try:
            return list(map(math.ldexp, ms, es))
        except OverflowError:
            return list(map(_pair_value, ms, es))
    dense, order = form.dense, form.order
    if order is None:
        return _dense_minors(dense)
    # a missing neighbour is -1, whose reads and writes meet only the spare
    # last slot of each list
    n, ahead, behind = len(order), order[1:], order[:-1]
    d, fwd, bwd = np.diag(dense).tolist() + [0.0], [0.0] * (n + 1), [0.0] * (n + 1)
    prev, after = [-1] * (n + 1), [-1] * (n + 1)
    for i, j, x, y in zip(behind, ahead, dense[behind, ahead].tolist(), dense[ahead, behind].tolist()):
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
        ms, es = _band_minors(form)
        return _pair_value(ms[-1], es[-1])
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
