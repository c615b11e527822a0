"""The steered one-bracket bisection and the path-route minors, each
against a frozen copy of the code it replaced.

_bisect_scaled takes a few plain bisection steps, then replays the rest
with a Newton estimate in place of the Sturm count and certifies the replay
by at most two counts.  The certificate rests on _negcount being monotone
in the shift, which the property test below checks on sorted shift grids.
The frozen plain loop is the reference: every value and every None must
agree, bit for bit, with and without floors, and with a wrong or
non-finite estimate in place of Newton's.

The path route's minors come from an elimination over linked pairs of
entries instead of dict rows; the frozen dict elimination is the reference
(float.hex on every minor).
"""

import math

import numpy as np
import pytest

from bandpos import classify_positivity, leading_principal_minors
from bandpos import positivity as oracle

# frozen copies


def frozen_negcount(d, e2, x):
    q = 1.0
    for di, ei in zip(d, e2):
        q = di - x - ei / q
        if q < 1e-290:
            return True
    return False


def frozen_bisect_scaled(d, e2, width, lo, hi, t, floor, counts=None):
    """The one-bracket bisection loop before steering (frozen copy); counts,
    when given, gets the number of Sturm counts appended."""
    width = math.ldexp(width, -t)
    a, b = oracle._bracket(lo, hi, width) if len(d) > 1 else (lo, hi)
    low = oracle._scaled_floor(floor, t)
    taken = 0
    while a < low and b - a > width:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        taken += 1
        if frozen_negcount(d, e2, mid):
            b = mid
        else:
            a = mid
    if counts is not None:
        counts.append(taken)
    if a >= low:
        return None
    lam = oracle._pair_value(0.5 * (a + b), t)
    return lam if lam < floor else None


def frozen_sparse_minors(rows, block_det):
    """Leading minors by elimination over dict rows (frozen copy)."""
    n = len(rows)
    below = [[] for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            if j < i:
                below[j].append(i)
    minors, det = [], 1
    for k, pivot_row in enumerate(rows):
        piv = pivot_row.get(k, 0)
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
                    row[j] = -(f * x)
                    if j < i:
                        below[j].append(i)
    return minors


def frozen_path_minors(dense, order, fallbacks):
    """The path route's minors as the dict rows gave them (frozen copy);
    fallbacks gets the order of every _det_float block."""
    rows = [{i: x} for i, x in enumerate(np.diag(dense).tolist())]
    ahead, behind = order[1:], order[:-1]
    for i, j, x, y in zip(behind, ahead, dense[behind, ahead].tolist(), dense[ahead, behind].tolist()):
        rows[i][j], rows[j][i] = x, y
    return frozen_sparse_minors(rows, lambda j: fallbacks.append(j) or oracle._det_float(dense[:j, :j]))


# inputs


def tridiagonal_inputs(seed, count):
    """Seeded tridiagonals (diag, off, width): orders 1 to 3 beside orders
    up to 40; double eigenvalues (the direct sum of two equal blocks);
    exactly singular ones (the Laplacian of a path, eigenvalue 0); integer
    entries with equal diagonals, whose midpoints put pivots exactly on
    zero, where _PIVMIN applies; zero couplings; max-norms of 2**500 and
    2**-500.  Widths run from 1e-4 to 1e-16 of the max-norm."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 4)) if case % 5 == 0 else int(rng.integers(4, 41))
        kind = case % 7
        if kind == 0:
            h = max(n // 2, 1)
            d, o = rng.uniform(-1.0, 2.0, h), rng.uniform(-1.0, 1.0, h - 1)
            diag, off = np.r_[d, d], np.r_[o, 0.0, o]
        elif kind == 1:
            diag = np.r_[1.0, np.full(n - 2, 2.0), 1.0] if n > 1 else np.zeros(1)
            off = -np.ones(n - 1)
        elif kind == 2:
            diag = np.full(n, float(rng.integers(-3, 4)))
            off = np.where(rng.random(n - 1) < 0.2, 0.0, 1.0)
        elif kind == 3:
            diag, off = rng.integers(-2, 3, n).astype(float), rng.integers(-1, 2, n - 1).astype(float)
        else:
            diag, off = rng.uniform(-1.0, 3.0, n), rng.uniform(-2.0, 2.0, n - 1)
            off[rng.random(n - 1) < 0.2] = 0.0
            if kind == 5:
                diag, off = np.ldexp(diag, 500), np.ldexp(off, 500)
            elif kind == 6:
                diag, off = np.ldexp(diag, -500), np.ldexp(off, -500)
        norm = max(float(np.abs(diag).max()), float(np.abs(off).max(initial=0.0))) or 1.0
        yield diag, off, 10.0 ** -rng.uniform(4.0, 16.0) * norm


def bisection_args(diag, off, width):
    """_bisect_scaled's arguments but the floor, from the scaled form."""
    _, t, d, o, lo, hi = oracle._scaled_form(diag, off)
    return d, [x * x for x in o], width, lo, hi, t


def floors(value, lo, hi, t):
    """Floors about the full bisection's value: none, zero, the value itself
    and its neighbours, fractions of it, and the Gershgorin ends."""
    out = [math.inf, -math.inf, 0.0, -0.0, math.ldexp(lo, t), math.ldexp(hi, t)]
    if value is not None and math.isfinite(value):
        out += [value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]
        out += [0.5 * value, 2.0 * value, value - 1e-9 * abs(value), value + 1e-9 * abs(value)]
    return out


class TestSteeredBisection:
    def test_values_equal_the_plain_loop(self):
        kinds = {"none": 0, "value": 0}
        for diag, off, width in tridiagonal_inputs(211, 2100):
            args = bisection_args(diag, off, width)
            want = frozen_bisect_scaled(*args, math.inf)
            assert repr(oracle._bisect_scaled(*args, math.inf)) == repr(want)
            for floor in floors(want, args[3], args[4], args[5]):
                want_floor = frozen_bisect_scaled(*args, floor)
                got = oracle._bisect_scaled(*args, floor)
                assert repr(got) == repr(want_floor), (diag.tolist(), off.tolist(), width, floor)
                kinds["none" if got is None else "value"] += 1
        assert kinds["none"] > 2000 and kinds["value"] > 4000

    def test_the_loop_is_steered(self, monkeypatch):
        # the certificate holds on these inputs: a steered bracket saves
        # most of the plain loop's counts beyond _STEER_AFTER
        calls, plain, moved = 0, [], 0
        negcount, steer = oracle._negcount, oracle._steer

        def counted(*args):
            nonlocal calls
            calls += 1
            return negcount(*args)

        def watched(d, e2, width, a, b, low):
            nonlocal moved
            out = steer(d, e2, width, a, b, low)
            moved += out != (a, b)
            return out

        monkeypatch.setattr(oracle, "_negcount", counted)
        monkeypatch.setattr(oracle, "_steer", watched)
        inputs = [x for i, x in enumerate(tridiagonal_inputs(223, 420)) if i % 7 == 4]
        for diag, off, width in inputs:
            args = bisection_args(diag, off, width)
            assert repr(oracle._bisect_scaled(*args, math.inf)) == repr(frozen_bisect_scaled(*args, math.inf, plain))
        assert moved >= 0.9 * len(inputs)
        assert calls <= 0.6 * sum(plain)

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda x: x + 1e-7,
            lambda x: x - 1e-9,
            lambda x: x * (1.0 + 1e-12) + 1e-15,
            lambda x: math.nan,
            lambda x: math.inf,
            lambda x: -math.inf,
        ],
        ids=["above", "below", "near", "nan", "inf", "-inf"],
    )
    def test_a_wrong_estimate_costs_no_answer(self, monkeypatch, estimate):
        newton = oracle._newton_min
        monkeypatch.setattr(oracle, "_newton_min", lambda d, e2, x, near: estimate(newton(d, e2, x, near)))
        for diag, off, width in tridiagonal_inputs(227, 350):
            args = bisection_args(diag, off, width)
            want = frozen_bisect_scaled(*args, math.inf)
            assert repr(oracle._bisect_scaled(*args, math.inf)) == repr(want)
            for floor in (0.0, want):
                assert repr(oracle._bisect_scaled(*args, floor)) == repr(frozen_bisect_scaled(*args, floor))

    def test_negcount_is_monotone_in_the_shift(self):
        # the premise of the certificate: along sorted shifts, once some
        # pivot falls below _PIVMIN it does so at every larger shift
        rng = np.random.default_rng(229)
        flips = 0
        for diag, off, _ in tridiagonal_inputs(233, 700):
            scaled = bisection_args(diag, off, 1.0)
            raw = (diag.tolist(), [0.0] + (off * off).tolist())
            for d, e2 in ((scaled[0], scaled[1]), raw):
                eig = np.linalg.eigvalsh(np.diag(d) + np.diag(np.sqrt(e2[1:]), 1) + np.diag(np.sqrt(e2[1:]), -1))
                top = max(abs(x) for x in d) + 2.0 * math.sqrt(max(e2))
                grid = [*eig.tolist(), -top, top, *rng.uniform(-top, top, 40).tolist()]
                grid += [float(np.round(x)) for x in eig]
                for x in eig.tolist():
                    y = z = x
                    for _ in range(6):
                        y, z = math.nextafter(y, math.inf), math.nextafter(z, -math.inf)
                        grid += [y, z]
                seen = [oracle._negcount(d, e2, x) for x in sorted(set(grid))]
                assert seen == sorted(seen), (d, e2)
                flips += seen[-1] and not seen[0]
        assert flips > 1000


# path-route minors


def permuted_paths(seed, count):
    """Seeded dense matrices whose nonzero graph is a union of paths, under
    a random permutation: small integers with zero diagonal entries (so a
    pivot vanishes and the rest fall back to _det_float), uniform entries
    with -0.0 couplings, unequal a_ij and a_ji, entries near 1e160 (so some
    pivots overflow), and magnitudes 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 33))
        kind = case % 5
        if kind == 0:
            diag, upper = rng.integers(-2, 3, n).astype(float), rng.integers(-1, 2, n - 1).astype(float)
        elif kind == 1:
            diag, upper = rng.uniform(0.5, 3.0, n), -rng.uniform(0.0, 2.0, n - 1)
            diag[rng.random(n) < 0.1] = -0.0
        elif kind == 2:
            diag, upper = rng.uniform(-1.0, 3.0, n) * 1e160, rng.uniform(-2.0, 2.0, n - 1) * 1e160
        elif kind == 3:
            diag = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-150, 151, n)
            upper = rng.uniform(-1.0, 1.0, n - 1) * 10.0 ** rng.integers(-150, 151, n - 1)
        else:
            diag, upper = rng.uniform(-1.0, 3.0, n), rng.uniform(-2.0, 2.0, n - 1)
        # zero couplings split the path into several; some are -0.0
        cut = rng.random(n - 1) < 0.25
        upper[cut] = np.where(rng.random(int(cut.sum())) < 0.5, -0.0, 0.0)
        lower = upper.copy()
        if case % 3 == 0:
            # unequal values on the same pattern (leading_principal_minors
            # does not ask for symmetry)
            lower[~cut] *= rng.uniform(0.5, 2.0, int((~cut).sum()))
        # assigned, not summed, so that every -0.0 keeps its sign
        a, k = np.zeros((n, n)), np.arange(n - 1)
        a[k, k + 1], a[k + 1, k], a[np.arange(n), np.arange(n)] = upper, lower, diag
        perm = rng.permutation(n)
        yield a[np.ix_(perm, perm)]


class TestPathMinors:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_minors_equal_the_dict_elimination(self):
        reached = {"paths": 0, "fallback": 0, "negative zero": 0, "unequal": 0}
        for case, dense in enumerate(permuted_paths(239, 2200)):
            order = oracle._path_order(dense)
            assert order is not None
            fallbacks = []
            want = [x.hex() for x in frozen_path_minors(dense, order, fallbacks)]
            assert [x.hex() for x in leading_principal_minors(dense)] == want, case
            symmetric = np.array_equal(dense, dense.T)
            if symmetric and case % 4 == 0:
                assert [x.hex() for x in classify_positivity(dense).certificate] == want, case
            edges = np.count_nonzero(dense - np.diag(np.diag(dense))) // 2
            reached["paths"] += dense.shape[0] - edges >= 2
            reached["fallback"] += bool(fallbacks)
            reached["negative zero"] += bool(np.signbit(dense[dense == 0.0]).any())
            reached["unequal"] += not symmetric
        assert min(reached.values()) > 300, reached
