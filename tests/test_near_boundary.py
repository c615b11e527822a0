"""Classes of inputs whose smallest eigenvalue lies within 3 thr of -thr or +thr.

The class is an inertia count: INDEFINITE when an eigenvalue lies below
-thr, PSD_BOUNDARY when one lies below +thr, PD otherwise.  The reference
counts the negative LDL^T pivots of the matrix the oracle bisects, its
scaled form S, shifted by x = -thr and x = +thr, in Fractions of S's stored
floats.  On the LAPACK spectrum route S is the diagonal matrix of LAPACK's
eigenvalues, so the count reads LAPACK's own eigenvalues.  An input whose
exact count changes within 64 n eps s of x (s being S's max-norm) is
skipped: the float count of an order-n matrix is exact only for a matrix
within about n eps s of S.
"""

import math
import sys
from fractions import Fraction

import numpy as np

from bandpos import INDEFINITE, PD, PSD_BOUNDARY, classify_positivity, make_pentadiagonal, make_tridiagonal
from bandpos import positivity as oracle
from bandpos.positivity import DEFAULT_TOL

# tridiag([1, 2, 1], [1, 1]) + 2.05e-10 I: lambda_min 2.05e-10 lies above
# thr = 2.00000000021e-10, while the bisected minimum sits below it
NEAR_THRESHOLD = make_tridiagonal([1.000000000205, 2.000000000205, 1.000000000205], [1.0, 1.0])


def exact_negative_pivots(d, o, x):
    """Negative pivots of S - xI, S = (d, o) as _scaled_form stores it, in
    Fractions; None when a pivot is exactly zero."""
    x, q, count = Fraction(x), Fraction(1), 0
    for di, oi in zip(d, o):
        q = Fraction(di) - x - Fraction(oi) ** 2 / q
        if q == 0:
            return None
        count += q < 0
    return count


def near_boundary_inputs(seed, count):
    """(input, tol) pairs, cycling through tridiagonal, pentadiagonal-form,
    permuted tridiagonal and general dense input, each with its diagonal
    shifted so that LAPACK's lambda_min lies within 3 thr of 0, thr being
    the threshold of the unshifted max-norm."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        kind, tol = case % 4, (DEFAULT_TOL, 1e-6, 1e-12)[case // 4 % 3]
        n, make = int(rng.integers(3, 9 if kind == 3 else 25)), make_pentadiagonal if kind == 1 else make_tridiagonal
        if kind == 3:
            b = rng.uniform(-1.0, 1.0, (n, n))
            dense = b + b.T
        else:
            diag, off = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1 - (kind == 1))
            dense = make(diag, off).dense()
        thr = oracle._threshold(n, float(np.abs(dense).max()), tol)
        shift = rng.uniform(-3.0, 3.0) * thr - np.linalg.eigvalsh(dense)[0]
        if kind < 2:
            yield make(diag + shift, off), tol
        elif kind == 2:
            order = rng.permutation(n)
            yield (dense + shift * np.eye(n))[np.ix_(order, order)], tol
        else:
            yield dense + shift * np.eye(n), tol


def reference_class(form, tol):
    """The class of the exact counts of the scaled form at -thr and +thr,
    or None when either count changes within 64 n eps s of its shift."""
    norm, t, d, o, _, _ = form.scaled
    s = math.ldexp(norm, -t)
    thr, guard = oracle._threshold(len(d), s, tol), 64 * len(d) * sys.float_info.epsilon * s
    below = []
    for x in (-thr, thr):
        counts = {exact_negative_pivots(d, o, y) for y in (x - guard, x, x + guard)}
        if len(counts) > 1 or None in counts:
            return None
        below.append(counts.pop() > 0)
    return INDEFINITE if below[0] else PSD_BOUNDARY if below[1] else PD


def test_near_boundary_classes_are_the_exact_counts():
    cases = [(NEAR_THRESHOLD, DEFAULT_TOL)] + list(near_boundary_inputs(5, 640))
    routes, checked, far_side = set(), 0, 0
    for case, (a, tol) in enumerate(cases):
        form = oracle._form(a)
        want = reference_class(form, tol)
        if want is None:
            continue
        verdict = classify_positivity(a, tol)
        assert verdict.classification == want, (case, form.route, tol)
        routes.add(form.route)
        checked += 1
        # the bisected minimum keeps its bits: it may lie on the far side
        # of -thr or +thr from its class, but never has the wrong sign
        lam, thr = verdict.min_eigenvalue, verdict.threshold
        far_side += (lam > thr) != (want == PD) or (lam < -thr) != (want == INDEFINITE)
        assert (lam < 0) <= (want != PD) and (lam > 0) <= (want != INDEFINITE), case
    assert routes == {oracle._TRIDIAGONAL, oracle._SPLIT, oracle._PATH, oracle._SPECTRUM}
    assert checked >= 580 and far_side > 0
    assert classify_positivity(NEAR_THRESHOLD).classification == PD
