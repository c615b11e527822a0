"""Band minors against a frozen copy of the per-step continuant.

classify_positivity, leading_principal_minors and determinant take the
leading minors of band input from one continuant over the scaled form that
the bisection reads, and rescale its running value only when it leaves a
fixed window.  The reference below scales each block by its own max-norm
and renormalizes at every step, as those functions once did; the two must
agree bit for bit (float.hex) on every minor while no product in either
continuant falls below the normal range: here, for inputs whose nonzero
entries all lie within 2**-500 of the max-norm, or within 2**-50 of it
where they sit beside zero diagonal entries.
"""

import math

import numpy as np

from bandpos import (
    classify_positivity,
    determinant,
    leading_principal_minors,
    make_pentadiagonal,
    make_tridiagonal,
    min_eigenvalue,
)


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
