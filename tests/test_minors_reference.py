"""Leading minors against frozen copies of the code they replaced.

classify_positivity, leading_principal_minors and determinant take the
leading minors of band input from one continuant over the scaled form that
the bisection reads, and rescale its running value only when it leaves a
fixed window.  The reference below scales each block by its own max-norm
and renormalizes at every step, as those functions once did; the two must
agree bit for bit (float.hex) on every minor while no product in either
continuant falls below the normal range: here, for inputs whose nonzero
entries all lie within 2**-500 of the max-norm, or within 2**-50 of it
where they sit beside zero diagonal entries.

Exact minors of int or Fraction rows come from integer rows by
fraction-free elimination; the reference is a frozen copy of the Fraction
determinant, with row exchanges, of each leading block.  The two must be
equal.
"""

import math
from fractions import Fraction

import numpy as np

from bandpos import (
    classify_positivity,
    determinant,
    leading_principal_minors,
    make_pentadiagonal,
    make_tridiagonal,
    min_eigenvalue,
)
from bandpos.positivity import EXACT_MINOR_LIMIT


def frozen_continuant(diag, off):
    """Leading minors of tridiag(diag, off) as (m, e) pairs, m * 2**e, with
    the entries scaled below 1 and the pair renormalized every step
    (frozen copy)."""
    t = math.frexp(max((float(np.abs(x).max()) for x in (diag, off) if x.size), default=0.0))[1]
    f1, f2, e, out = 1.0, 0.0, 0, []
    for d, o in zip(np.ldexp(diag, -t).tolist(), [0.0] + np.ldexp(off, -t).tolist()):
        f = d * f1 - o * (o * f2)
        s = math.frexp(max(abs(f), abs(f1)))[1]
        f1, f2 = math.ldexp(f, -s), math.ldexp(f1, -s)
        e += s + t
        out.append((f1, e))
    return out


def _value(m, e):
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def frozen_band_minors(a):
    """Leading minors of a band matrix: the continuant of a tridiagonal one,
    the products of its odd and even blocks' continuants for a
    pentadiagonal one (frozen copy)."""
    if a.bandwidth == 1:
        return [_value(m, e) for m, e in frozen_continuant(a.main_diag, a.off)]
    diag, off = a.main_diag, a.off
    odd, even = ([(1.0, 0)] + frozen_continuant(d, o) for d, o in ((diag[0::2], off[0::2]), (diag[1::2], off[1::2])))
    minors = []
    for k in range(1, a.order + 1):
        (m_odd, e_odd), (m_even, e_even) = odd[(k + 1) // 2], even[k // 2]
        minors.append(_value(m_odd * m_even, e_odd + e_even))
    return minors


def band_inputs(seed, count):
    """Seeded tridiagonal and pentadiagonal matrices of orders 1 to 64 (3 to
    64 for pentadiagonal ones): integer entries, exact zeros, negative
    entries, entries spread over [2**-500, 1] times the max-norm (over
    [2**-50, 1] beside zero diagonal entries), and max-norms from 2**-500
    to 2**500."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        penta = case % 2 == 1
        n = int(rng.integers(3 if penta else 1, 65))
        size = (n, n - 2 if penta else n - 1)
        style = case % 6
        if style == 0:
            diag, off = (rng.integers(-3, 4, s).astype(float) for s in size)
        elif style == 1:
            diag, off = rng.uniform(0.5, 3.0, size[0]), rng.uniform(0.0, 1.0, size[1])
            off[rng.random(size[1]) < 0.25] = 0.0
        elif style == 2:
            diag, off = (rng.uniform(-1.0, 1.0, s) * 2.0 ** rng.integers(-500, 1, s) for s in size)
        elif style == 3:
            # a leading block whose continuant decays through many windows
            diag, off = rng.uniform(0.01, 0.2, size[0]), rng.uniform(0.0, 0.05, size[1])
            diag[0] = 1.0
        elif style == 4:
            diag, off = (rng.uniform(-1.0, 1.0, s) * 2.0 ** rng.integers(-50, 1, s) for s in size)
            diag[rng.random(size[0]) < 0.2] = 0.0
        else:
            diag, off = np.full(size[0], 2.0), -np.ones(size[1])
        scale = 2.0 ** int(rng.integers(-500, 501))
        make = make_pentadiagonal if penta else make_tridiagonal
        yield make(diag * scale, off * scale)


def _hex(values):
    return [float(x).hex() for x in values]


def test_band_minors_equal_the_per_step_continuant():
    count = 0
    for a in band_inputs(2024, 2000):
        want = _hex(frozen_band_minors(a))
        verdict = classify_positivity(a)
        assert _hex(verdict.certificate) == want
        assert _hex(leading_principal_minors(a)) == want
        assert _hex([determinant(a)]) == want[-1:]
        assert verdict.min_eigenvalue == min_eigenvalue(a)
        count += 1
    assert count == 2000


def test_the_inputs_reach_overflow_underflow_and_zero_minors():
    # minors beyond the float range both ways, and exactly zero ones
    seen = set()
    for a in band_inputs(2024, 2000):
        minors = frozen_band_minors(a)
        seen.update(
            kind
            for kind, hit in (
                ("inf", any(math.isinf(x) for x in minors)),
                ("zero", 0.0 in minors),
                ("subnormal", any(0.0 < abs(x) < 2.0**-1022 for x in minors)),
            )
            if hit
        )
    assert seen == {"inf", "zero", "subnormal"}


def test_split_minors_do_not_flush_a_representable_minor():
    # the blocks' continuants are 2**600 and 2**-600 times a power of two:
    # the reference's product of their mantissas underflows to zero, while
    # the order-4 minor is 2**600 * 2**-600 = 1
    big, small = 2.0**300, 2.0**-300
    a = make_pentadiagonal([big, big, small, small], [0.0, 0.0])
    assert frozen_band_minors(a)[-1] == 0.0
    assert leading_principal_minors(a) == [big, big * big, big, 1.0]
    assert determinant(a) == 1.0 and classify_positivity(a).certificate[-1] == 1.0


def frozen_det_exact(rows):
    """Determinant of Fraction rows by elimination with row exchanges, in
    Fractions (frozen copy)."""
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


def rational_rows(seed, count):
    """Seeded rows of orders 1 to EXACT_MINOR_LIMIT: symmetric tridiagonal,
    pentadiagonal-form and dense patterns and unsymmetric dense ones, with
    about one entry in four of the pattern zero.  Two inputs in three have
    small entries, so that pivots vanish; the third have numerators up to
    +-10**6 over denominators up to 10**3.  One input in five is all ints."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, EXACT_MINOR_LIMIT + 1))
        kind, large, ints = case % 4, case % 3 == 2, case % 5 == 0
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if (j < i and kind < 3) or (kind < 2 and j - i not in (0, kind + 1)):
                    continue
                num = int(rng.integers(-(10**6), 10**6 + 1) if large else rng.integers(-2, 3))
                den = 1 if ints else int(rng.integers(1, 1001) if large else rng.integers(1, 3))
                rows[i][j] = 0 if rng.random() < 0.25 else (num if ints else Fraction(num, den))
                if kind < 3:
                    rows[j][i] = rows[i][j]
        yield rows


def test_exact_minors_equal_the_fraction_determinant():
    count, zero_pivots, exchanges = 0, 0, 0
    for rows in rational_rows(131, 2100):
        n = len(rows)
        want = [frozen_det_exact([[Fraction(x) for x in r[:k]] for r in rows[:k]]) for k in range(1, n + 1)]
        got = leading_principal_minors(rows)
        assert all(type(m) is Fraction for m in got)
        assert got == want
        count += 1
        zero_pivots += 0 in want[:-1]
        # a minor after a zero one: its elimination exchanges rows
        exchanges += any(a == 0 and b != 0 for a, b in zip(want, want[1:]))
    assert count == 2100 and zero_pivots > 800 and exchanges > 500
