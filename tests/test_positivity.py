"""Eigenvalue oracle, classification, minors, and spectral shifts.

Reference values come from closed-form characteristic polynomials where
available and from numpy.linalg.eigvalsh (an entirely separate LAPACK
path) elsewhere.
"""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from bandpos import (
    DEFAULT_ID_GRID,
    INDEFINITE,
    PD,
    PSD_BOUNDARY,
    BandSymMatrix,
    DenseSymMatrix,
    ExactBand,
    classify_positivity,
    determinant,
    hadamard_power,
    id_numeric_probe,
    leading_principal_minors,
    make_pentadiagonal,
    make_tridiagonal,
    min_eigenvalue,
    shift_to_boundary,
    split_pentadiagonal,
    sym_eigenvalues,
    wall_wetzel_pd,
)
from bandpos import positivity as oracle
from bandpos.positivity import DEFAULT_TOL
from test_minors_reference import frozen_det_exact

# Roots of the characteristic cubic of A(0.1) = tridiag([1, 2.1, 1], [1, 1]):
# (1, 0, -1) is an eigenvector for 1; the rest solve x^2 - 3.1x + 0.1 = 0.
A01_EIGS = [(3.1 - math.sqrt(9.21)) / 2, 1.0, (3.1 + math.sqrt(9.21)) / 2]

# Same construction for C = tridiag([1, 1, 1], [1, 1]): x^2 - 2x - 1 = 0.
C_EIGS = [1.0 - math.sqrt(2.0), 1.0, 1.0 + math.sqrt(2.0)]


def random_tridiagonal(rng, n):
    return make_tridiagonal(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0, max(n - 1, 0)))


def spectrum_allowance(n, norm):
    """8 n eps times the max-norm norm of an order-n matrix: how far a
    computed spectrum may lie from the exact one."""
    return 8.0 * n * sys.float_info.epsilon * norm


class TestTridiagEigenvalues:
    def test_a01_closed_form(self, a01):
        got = sym_eigenvalues(a01)
        np.testing.assert_allclose(got, A01_EIGS, atol=1e-11)
        assert (got > 0).all()

    def test_diagonal_matrix(self):
        t = make_tridiagonal([3.0, 1.0, 2.0], [0.0, 0.0])
        np.testing.assert_allclose(sym_eigenvalues(t), [1.0, 2.0, 3.0], atol=1e-9)

    def test_limit_matrix_c_has_negative_eigenvalue(self):
        t = make_tridiagonal([1.0, 1.0, 1.0], [1.0, 1.0])
        got = sym_eigenvalues(t)
        np.testing.assert_allclose(got, C_EIGS, atol=1e-11)
        assert got[0] < 0

    def test_matches_lapack_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            t = random_tridiagonal(rng, n)
            ours = sym_eigenvalues(t)
            theirs = np.linalg.eigvalsh(t.dense())
            np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_toeplitz_spectra_match_the_closed_form(self):
        # tridiag(b, a, b) of order n has eigenvalues a + 2b cos(k pi / (n + 1)),
        # k = 1..n; its band form and a permuted dense form get them to within
        # 8 n eps of the max-norm
        rng = np.random.default_rng(173)
        for _ in range(600):
            n = int(rng.integers(2, 41))
            a, b = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            want = sorted(a + 2.0 * b * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1))
            allowance = spectrum_allowance(n, max(abs(a), abs(b)))
            band = make_tridiagonal([a] * n, [b] * (n - 1))
            perm = rng.permutation(n)
            for m in (band, band.dense()[np.ix_(perm, perm)]):
                np.testing.assert_allclose(sym_eigenvalues(m), want, rtol=0, atol=allowance)

    def test_split_toeplitz_spectra_match_the_closed_form(self):
        # the pentadiagonal-form matrix of diagonal a and couplings b at
        # offset 2 is the direct sum of tridiag(b, a, b) of orders ceil(n / 2)
        # and floor(n / 2); its band form (the odd/even split) and a permuted
        # dense form (the path route) get that closed form to within 8 n eps
        # of the max-norm
        rng = np.random.default_rng(179)
        for _ in range(300):
            n = int(rng.integers(3, 41))
            a, b = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            want = sorted(
                a + 2.0 * b * math.cos(k * math.pi / (m + 1)) for m in ((n + 1) // 2, n // 2) for k in range(1, m + 1)
            )
            allowance = spectrum_allowance(n, max(abs(a), abs(b)))
            band = make_pentadiagonal([a] * n, [b] * (n - 2))
            perm = rng.permutation(n)
            for m in (band, band.dense()[np.ix_(perm, perm)]):
                np.testing.assert_allclose(sym_eigenvalues(m), want, rtol=0, atol=allowance)

    def test_order_one(self):
        t = make_tridiagonal([4.5], [])
        np.testing.assert_array_equal(sym_eigenvalues(t), [4.5])

    def test_large_scale_terminates_at_float_resolution(self):
        # entries near 1e6: the spectrum keeps its relative accuracy
        t = make_tridiagonal([1e6, 2e6, 3e6], [1e5, 1e5])
        got = sym_eigenvalues(t)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(t.dense()), rtol=1e-12)


class TestDenseEigenvalues:
    def test_dense_matches_lapack(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1, 1, size=(n, n))
            sym = 0.5 * (a + a.T)
            ours = sym_eigenvalues(sym)
            theirs = np.linalg.eigvalsh(sym)
            np.testing.assert_allclose(ours, theirs, atol=1e-10)

    def test_tridiag_and_dense_paths_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(2, 11))
            t = random_tridiagonal(rng, n)
            via_band = sym_eigenvalues(t)
            via_dense = sym_eigenvalues(t.dense())
            np.testing.assert_allclose(via_band, via_dense, atol=1e-10)

    def test_bad_tol(self, a01):
        # the spectrum is LAPACK's to full accuracy: it takes no tol at all
        for a in (a01, a01.dense()):
            with pytest.raises(TypeError):
                sym_eigenvalues(a, tol=1e-12)
            with pytest.raises(TypeError):
                sym_eigenvalues(a, 1e-12)

    def test_circulant_spectra_match_the_closed_form(self):
        # the symmetric circulant of first row (a, b, c, 0, ..., 0, c, b) has
        # eigenvalues a + 2b cos(2 pi k / n) + 2c cos(4 pi k / n), k = 0..n-1;
        # its nonzero graph holds a cycle, so it takes the LAPACK spectrum route
        rng = np.random.default_rng(181)
        for _ in range(200):
            n = int(rng.integers(5, 31))
            a, b, c = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
            row = np.zeros(n)
            row[0], row[1], row[-1], row[2], row[-2] = a, b, b, c, c
            circulant = np.array([np.roll(row, i) for i in range(n)])
            assert oracle._path_order(circulant) is None
            want = sorted(
                a + 2.0 * b * math.cos(2.0 * math.pi * k / n) + 2.0 * c * math.cos(4.0 * math.pi * k / n)
                for k in range(n)
            )
            allowance = spectrum_allowance(n, max(abs(a), abs(b), abs(c)))
            np.testing.assert_allclose(sym_eigenvalues(circulant), want, rtol=0, atol=allowance)

    @pytest.mark.parametrize("route", ["lapack-spectrum", "dense-sym-matrix", "path", "band"])
    def test_input_is_left_unchanged(self, route):
        # the spectrum scales its own copy of the matrix in place
        rng = np.random.default_rng(191)
        if route == "band":
            a = make_pentadiagonal(rng.uniform(-3.0, 3.0, 9), rng.uniform(-2.0, 2.0, 7))
            before = (a.main_diag.copy(), a.off.copy())
            sym_eigenvalues(a)
            after = (a.main_diag, a.off)
        else:
            dense = random_tridiagonal(rng, 9).dense()
            if route != "path":
                couplings = rng.uniform(0.5, 1.0, 7)
                dense = dense + np.diag(couplings, 2) + np.diag(couplings, -2)
            a = DenseSymMatrix(dense) if route == "dense-sym-matrix" else dense
            before = (dense.copy(),)
            sym_eigenvalues(a)
            after = (a.entries if route == "dense-sym-matrix" else a,)
            assert (oracle._path_order(dense) is None) == (route != "path")
        for x, y in zip(before, after):
            assert x.tolist() == y.tolist()


class TestMinEigenvalue:
    def test_p_matrix_boundary(self, p_matrix):
        assert abs(min_eigenvalue(p_matrix)) <= 1e-9

    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_p_matrix_half_power_negative(self, p_matrix):
        lam = min_eigenvalue(hadamard_power(p_matrix, 0.5))
        assert lam < -0.2

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestTolValidation:
    """One check refuses a tol that is not positive and finite."""

    @pytest.mark.parametrize("fn", [min_eigenvalue, classify_positivity])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-10])
    def test_refused(self, a01, fn, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            fn(a01, tol)


class TestRawArrayValidation:
    """Raw arrays get DenseSymMatrix's checks and messages."""

    def test_infinite_entry_rejected(self):
        with pytest.raises(ValueError, match="all entries must be finite"):
            classify_positivity(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_symmetric_nan_rejected_as_not_finite(self):
        with pytest.raises(ValueError, match="all entries must be finite"):
            classify_positivity(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    @pytest.mark.parametrize("oracle_fn", [min_eigenvalue, sym_eigenvalues, classify_positivity])
    def test_empty_matrix_rejected(self, oracle_fn):
        with pytest.raises(ValueError, match="order must be at least 1"):
            oracle_fn(np.zeros((0, 0)))

    @pytest.mark.parametrize("fn", [leading_principal_minors, determinant])
    @pytest.mark.parametrize(
        "a", [np.array([[np.inf, 0.0], [0.0, 1.0]]), np.array([[np.nan, 0.0], [0.0, 1.0]])], ids=["inf", "nan"]
    )
    def test_minors_and_determinant_reject_non_finite_entries(self, fn, a):
        with pytest.raises(ValueError, match="all entries must be finite"):
            fn(a)

    @pytest.mark.parametrize("fn", [leading_principal_minors, determinant])
    def test_minors_and_determinant_reject_order_zero(self, fn):
        with pytest.raises(ValueError, match="order must be at least 1"):
            fn(np.zeros((0, 0)))

    @pytest.mark.parametrize("fn", [classify_positivity, leading_principal_minors, determinant])
    def test_ragged_rows_rejected(self, fn):
        with pytest.raises(ValueError, match="^entries must form a rectangular array of numbers$"):
            fn([[1.0, 2.0], [3.0]])

    def test_integer_beyond_the_float_range_rejected_as_not_finite(self):
        # every entry point refuses it as the JSON parse does, not with a
        # bare OverflowError from the float conversion
        big = [[10**400, 0], [0, 1]]
        calls = [
            lambda: classify_positivity(big),
            lambda: min_eigenvalue(big),
            lambda: determinant(big),
            lambda: hadamard_power(big, 2),
            lambda: id_numeric_probe(big),
            lambda: DenseSymMatrix(big),
            lambda: make_tridiagonal([10**400, 1], [0]),
            lambda: make_pentadiagonal([1, 1, 1], [Fraction(10**400, 3)]),
            lambda: classify_positivity(ExactBand((Fraction(10**400), Fraction(1)), (Fraction(0),), 1)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^all entries must be finite$"):
                call()

    def test_no_rows_are_no_exact_minors(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            leading_principal_minors([])


class TestClassify:
    def test_a01_pd(self, a01):
        verdict = classify_positivity(a01)
        assert verdict.classification == PD
        assert verdict.min_eigenvalue > 1e-10 * max(1.0, verdict.scale)

    def test_p_matrix_boundary(self, p_matrix):
        verdict = classify_positivity(p_matrix)
        assert verdict.classification == PSD_BOUNDARY
        assert abs(verdict.min_eigenvalue) <= 1e-10 * max(1.0, verdict.scale)

    def test_a01_half_power_indefinite(self, a01):
        verdict = classify_positivity(hadamard_power(a01, 0.5))
        assert verdict.classification == INDEFINITE
        assert verdict.min_eigenvalue < -1e-10 * max(1.0, verdict.scale)

    def test_deterministic(self, a01):
        v1 = classify_positivity(a01)
        v2 = classify_positivity(a01)
        assert v1 == v2


class TestMinors:
    def test_a01_minors(self, a01):
        minors = leading_principal_minors(a01.dense())
        np.testing.assert_allclose(minors, [1.0, 1.1, 0.1], rtol=1e-12)

    def test_a01_minors_exact(self):
        rows = [
            [Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(21, 10), Fraction(1)],
            [Fraction(0), Fraction(1), Fraction(1)],
        ]
        assert leading_principal_minors(rows) == [Fraction(1), Fraction(11, 10), Fraction(1, 10)]

    def test_identity(self):
        assert leading_principal_minors(np.eye(3)) == [1.0, 1.0, 1.0]

    def test_all_ones_rank_one(self):
        assert leading_principal_minors(np.ones((3, 3))) == [1.0, 0.0, 0.0]

    def test_exact_integers(self):
        rows = [[2, 1], [1, 3]]
        assert leading_principal_minors(rows) == [Fraction(2), Fraction(5)]

    def test_determinant_matches_lapack(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-2, 2, size=(n, n))
            sym = 0.5 * (a + a.T)
            assert determinant(sym) == pytest.approx(np.linalg.det(sym), rel=1e-9, abs=1e-12)


class TestShifts:
    def test_boundary_identity(self):
        b, lam = shift_to_boundary(np.eye(3))
        assert lam == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(b, np.zeros((3, 3)), atol=1e-10)

    def test_boundary_diagonal(self):
        b, lam = shift_to_boundary(np.diag([2.0, 5.0]))
        assert lam == pytest.approx(2.0, abs=1e-10)
        np.testing.assert_allclose(b, np.diag([0.0, 3.0]), atol=1e-10)

    def test_boundary_a01(self, a01):
        b, lam = shift_to_boundary(a01)
        assert lam == pytest.approx(A01_EIGS[0], abs=1e-9)
        assert abs(min_eigenvalue(b)) <= 1e-9
        assert isinstance(b, BandSymMatrix)
        np.testing.assert_array_equal(b.off, a01.off)

    def test_boundary_rejects_non_pd(self, p_matrix):
        with pytest.raises(ValueError, match="not positive definite"):
            shift_to_boundary(p_matrix)

    def test_boundary_then_shift_reconstructs(self, a01):
        b, lam = shift_to_boundary(a01)
        back = b.dense() + lam * np.eye(a01.order)
        np.testing.assert_allclose(back, a01.dense(), atol=1e-12)


class TestOracleInvariants:
    def test_minor_signs_agree_with_pd_verdict(self):
        rng = np.random.default_rng(47)
        tol = 1e-10
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            t = make_tridiagonal(rng.uniform(0, 2, n), rng.uniform(0, 2, max(n - 1, 0)))
            verdict = classify_positivity(t, tol)
            if abs(verdict.min_eigenvalue) <= 10 * tol * max(1.0, verdict.scale):
                continue
            checked += 1
            all_minors_positive = all(m > 0 for m in verdict.certificate)
            assert (verdict.classification == PD) == all_minors_positive
        assert checked > 900

    def test_power_shift_diagonal_gap(self):
        # the diagonal of (B + lam*I)^or - B^or dominates lam**r for r >= 1
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            base = rng.uniform(0.0, 1.5, size=(n, n))
            sym = 0.5 * (base + base.T)
            a = sym + np.diag(sym.sum(axis=1) + rng.uniform(0.1, 1.0, n))
            r = rng.uniform(1.0, 4.0)
            b, lam = shift_to_boundary(a)
            assert lam > 0
            diff = hadamard_power(b + lam * np.eye(n), r) - hadamard_power(b, r)
            off = diff - np.diag(np.diag(diff))
            np.testing.assert_allclose(off, np.zeros((n, n)), atol=1e-12)
            assert (np.diag(diff) >= lam**r - 1e-9).all()


def full_negcount(diag, off2, x):
    """Number of eigenvalues below x, counting every LDL^T pivot (frozen
    copy of the library's first scalar Sturm count; off2 starts with 0.0)."""
    pivmin = 1e-290
    count = 0
    q = 1.0
    for d, e2 in zip(diag, off2):
        q = d - x - e2 / q
        if abs(q) < pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


def sequential_bisect(diag, off, width, k):
    """The k-th eigenvalue by one-bracket Sturm bisection with full scalar
    counts, of the matrix scaled by the power of two that brings its
    max-norm into [1/2, 1), scaled back (the reference the oracle must
    reproduce bit for bit)."""
    n = diag.shape[0]
    if n == 1:
        return float(diag[0])
    t = math.frexp(max(float(np.abs(diag).max()), float(np.abs(off).max())))[1]
    diag, off, width = np.ldexp(diag, -t), np.ldexp(off, -t), math.ldexp(width, -t)
    off2 = off * off
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    pad = width + 1e-14 * max(abs(lo), abs(hi))
    a, b = lo - pad, hi + pad
    d, e2 = diag.tolist(), [0.0] + off2.tolist()
    while b - a > width:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        a, b = (mid, b) if full_negcount(d, e2, mid) <= k else (a, mid)
    return math.ldexp(0.5 * (a + b), t)


def refuse_estimate(a):
    raise AssertionError("an eigenvalue estimate was taken")


def random_symmetric_inputs(seed, count):
    """Tridiagonals and pentadiagonal-form matrices (some with integer
    entries and zero couplings, which put pivots exactly on zero)
    alternating with dense symmetric arrays."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 11))
        if case % 2:
            a = rng.uniform(-2, 2, size=(n, n))
            yield a + a.T
            continue
        if case % 8 >= 4:
            n = max(n, 3)
            make, offs = make_pentadiagonal, n - 2
        else:
            make, offs = make_tridiagonal, n - 1
        if case % 4 == 0:
            yield make(rng.integers(-2, 3, n), rng.integers(0, 2, offs))
        else:
            yield make(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0, offs))


def bisect_form(form, width, floor=math.inf):
    """_bisect_scaled of the matrix whose _scaled_form is given."""
    _, t, d, o, lo, hi = form
    return oracle._bisect_scaled(d, [x * x for x in o], width, lo, hi, t, floor)


def sturm_form(a):
    """The tridiagonal (diag, off) the oracle bisects, and the max-norm of a:
    a tridiagonal as it is, a pentadiagonal-form matrix as the direct sum of
    its split_pentadiagonal blocks, a dense array of order 1 or 2 (a path)
    as it is, and a larger dense array (no zero entry, so no path) as
    LAPACK's eigenvalues of 2**-e a, 2**e the power of two of its max-norm,
    scaled back, with zero couplings."""
    if not isinstance(a, BandSymMatrix):
        norm = float(np.abs(a).max())
        if a.shape[0] <= 2:
            return np.diag(a).copy(), np.diag(a, 1).copy(), norm
        e = math.frexp(norm)[1]
        return np.ldexp(np.linalg.eigvalsh(np.ldexp(a, -e)), e), np.zeros(a.shape[0] - 1), norm
    blocks = (a,) if a.bandwidth == 1 else split_pentadiagonal(a)
    diag = np.concatenate([b.main_diag for b in blocks])
    off = np.concatenate([blocks[0].off] + [np.r_[0.0, b.off] for b in blocks[1:]])
    return diag, off, float(np.abs(a.dense()).max())


class TestBisectionBitIdentity:
    def test_min_eigenvalue_equals_sequential_bisection(self):
        for a in random_symmetric_inputs(61, 200):
            diag, off, scale = sturm_form(a)
            want = sequential_bisect(diag, off, 1e-10 * scale, 0)
            assert min_eigenvalue(a) == want
            assert classify_positivity(a).min_eigenvalue == want

    def test_one_bracket_stop_equals_full_count(self):
        # integer entries and equal diagonals put pivots exactly on zero
        # (the first midpoint of tridiag([c] * n, [1] * (n - 1)) is c), and
        # zero couplings split the matrix
        rng = np.random.default_rng(83)
        for case in range(1200):
            n = int(rng.integers(2, 25))
            if case % 3 == 0:
                diag, off = rng.integers(-2, 3, n), rng.integers(-1, 2, n - 1)
            elif case % 3 == 1:
                diag, off = np.full(n, int(rng.integers(-3, 4))), np.where(rng.random(n - 1) < 0.2, 0, 1)
            else:
                diag, off = rng.uniform(-1.0, 3.0, n), rng.uniform(0.0, 2.0, n - 1)
                off[rng.random(n - 1) < 0.2] = 0.0
            diag, off = diag.astype(float), off.astype(float)
            width = 10.0 ** -int(rng.integers(6, 14))
            # the draw of an eigenvalue index, kept so that the inputs stay
            # the same seeded sequence
            rng.integers(0, n)
            assert bisect_form(oracle._scaled_form(diag, off), width) == sequential_bisect(diag, off, width, 0)

    def test_pentadiagonal_spectra_match_lapack(self):
        rng = np.random.default_rng(79)
        tol = 1e-10
        for n in range(3, 41):
            p = make_pentadiagonal(rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 2))
            dense = p.dense()
            allowance = tol * max(1.0, float(np.abs(dense).max()))
            want = np.linalg.eigvalsh(dense)
            np.testing.assert_allclose(sym_eigenvalues(p), want, rtol=0, atol=allowance)
            assert min_eigenvalue(p, tol) == pytest.approx(want[0], rel=0, abs=allowance)


class TestWarmStart:
    """The full spectrum is LAPACK's for the matrix the oracle routes to;
    the smallest eigenvalue of band input takes no estimate."""

    def test_repeated_eigenvalues_of_pentadiagonal_direct_sums(self):
        rng = np.random.default_rng(137)
        for case in range(150):
            m = int(rng.integers(2, 8))
            if case % 2:
                d, o = rng.integers(-2, 3, m), rng.integers(-1, 2, m - 1)
            else:
                d, o = rng.uniform(0.0, 3.0, m), rng.uniform(0.0, 2.0, m - 1)
            # equal odd and even blocks: every eigenvalue twice
            p = make_pentadiagonal(np.repeat(d, 2).astype(float), np.repeat(o, 2).astype(float))
            dense = p.dense()
            got = sym_eigenvalues(p)
            allowance = spectrum_allowance(p.order, float(np.abs(dense).max()))
            np.testing.assert_allclose(got, np.linalg.eigvalsh(dense), rtol=0, atol=allowance)
            assert got[0::2].tolist() == got[1::2].tolist()

    def test_one_bracket_takes_no_estimate(self, monkeypatch):
        t = random_tridiagonal(np.random.default_rng(73), 40)
        monkeypatch.setattr(oracle.np.linalg, "eigvalsh", refuse_estimate)
        assert classify_positivity(t).min_eigenvalue == min_eigenvalue(t)

def floor_inputs(seed, count):
    """Seeded tridiagonals (diag, off, width) for the floored bisection:
    order 1, zero couplings, exactly singular ones (the signless Laplacian
    of a path, times a power of two), and max-norms near 2**1023 and
    2**-1000 beside ordinary ones.  Widths run from 1e-6 to 1e-16 of the
    max-norm, except for matrices of max-norm near 2**1023 with a diagonal
    entry of a few times 2**-50 split off by a zero coupling: their width
    is the least subnormal, so bisection stops at float resolution, and
    that entry lies below the scaled matrix's pivot floor _PIVMIN."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = 1 if case % 13 == 0 else int(rng.integers(2, 10))
        kind = case % 6
        if kind == 5 and n > 1:
            diag = np.r_[math.ldexp(int(rng.integers(1, 8)), -50), rng.uniform(0.5, 1.0, n - 1) * 2.0**1023]
            off = np.r_[0.0, rng.uniform(-0.1, 0.1, n - 2) * 2.0**1023]
            yield diag, off, math.ulp(0.0)
            continue
        if kind == 1 and n > 1:
            diag = np.r_[1.0, np.full(n - 2, 2.0), 1.0] * 2.0 ** int(rng.integers(-60, 61))
            off = np.full(n - 1, diag[0])
        else:
            diag, off = rng.uniform(-0.3, 1.0, n), rng.uniform(-0.6, 0.6, n - 1)
            if kind == 2:
                off[rng.random(n - 1) < 0.5] = 0.0
            elif kind == 3:
                diag, off = np.ldexp(diag, 1024), np.ldexp(off, 1024)
            elif kind == 4:
                diag, off = np.ldexp(diag, -1000), np.ldexp(off, -1000)
        norm = max(float(np.abs(diag).max()), float(np.abs(off).max(initial=0.0))) or 1.0
        yield diag, off, 10.0 ** -rng.uniform(6.0, 16.0) * norm


def gershgorin_bounds(diag, off):
    """Unscaled Gershgorin bounds; -inf or inf where they overflow."""
    radius = np.zeros(diag.shape[0])
    with np.errstate(over="ignore"):
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        return float(np.min(diag - radius)), float(np.max(diag + radius))


class TestBisectionFloor:
    """With a floor, the one-bracket bisection returns the full bisection's
    value, bit for bit, when that value lies below the floor, and None
    otherwise; it stops once its bracket's lower end reaches the floor."""

    def test_value_below_floor_or_none(self, monkeypatch):
        top, tiny = sys.float_info.max, math.ulp(0.0)
        overflowing_end = returned = 0
        counts = 0
        negcount = oracle._negcount

        def counted(*args):
            nonlocal counts
            counts += 1
            return negcount(*args)

        monkeypatch.setattr(oracle, "_negcount", counted)
        for case, (diag, off, width) in enumerate(floor_inputs(167, 300)):
            lo, hi = gershgorin_bounds(diag, off)
            # every bracket's lower end lies above -top: no count is needed
            # to rule out a value below it, nor one below -inf
            for floor in (-math.inf, -top):
                if floor == -math.inf or max(np.abs(diag).max(), np.abs(off).max(initial=0.0)) <= 2.0**1020:
                    counts = 0
                    assert bisect_form(oracle._scaled_form(diag, off), width, floor) is None and counts == 0
            try:
                want = sequential_bisect(diag, off, width, 0)
            except OverflowError:
                # the eigenvalue itself lies beyond the float range
                continue
            overflowing_end += lo == -math.inf
            floors = [-math.inf, math.inf, lo, hi, want, math.nextafter(want, -math.inf)]
            floors += [math.nextafter(want, math.inf), 0.0, -0.0, tiny, -tiny, 2.0**-1050, -(2.0**-1050)]
            floors += [2.0**-1022, top, -top, 0.5 * want, 0.875 * want, 1.125 * want, 2.0 * want]
            for floor in floors:
                got = bisect_form(oracle._scaled_form(diag, off), width, floor)
                if want < floor:
                    assert got is not None and got.hex() == want.hex(), (case, floor)
                    returned += 1
                else:
                    assert got is None, (case, floor)
        # some lower Gershgorin bounds lie below the float range, as do the
        # unscaled lower ends of their brackets
        assert overflowing_end >= 5 and returned > 1000

    def test_scaled_floor_is_exact(self):
        # the least float s with s * 2**t >= floor, checked in Fractions: a
        # plain 2**-t floor rounds below the normal range and overflows above
        rng = np.random.default_rng(179)
        top, tiny = sys.float_info.max, math.ulp(0.0)
        floors = [0.0, tiny, 3 * tiny, 2.0**-1022, 1.0, 0.1, top, math.nextafter(top, 0.0)]
        floors += [float(x) for x in rng.uniform(0.5, 1.0, 40) * 2.0 ** rng.integers(-1074, 1024, 40).astype(float)]
        floors += [-f for f in floors]
        ts = [-1073, -1000, -999, -1, 0, 1, 50, 1000, 1023, 1024, *rng.integers(-1073, 1025, 20).tolist()]
        rounded = 0
        for floor in floors:
            for t in ts:
                s = oracle._scaled_floor(floor, t)
                scale = Fraction(2) ** t
                if s == math.inf:
                    assert Fraction(top) * scale < Fraction(floor)
                    continue
                if s == -math.inf:
                    assert -Fraction(top) * scale >= Fraction(floor)
                    continue
                assert Fraction(s) * scale >= Fraction(floor), (floor, t)
                if s != -top:
                    assert Fraction(math.nextafter(s, -math.inf)) * scale < Fraction(floor), (floor, t)
                rounded += Fraction(s) * scale != Fraction(floor)
        assert rounded > 50
        assert oracle._scaled_floor(math.inf, 0) == math.inf and oracle._scaled_floor(-math.inf, 0) == -math.inf

    def test_indefinite_is_the_form_class_verdict(self):
        inputs = []
        for diag, off, width in floor_inputs(173, 200):
            scale = max(float(np.abs(diag).max()), float(np.abs(off).max(initial=0.0)))
            if scale != 0.0:
                inputs.append((oracle._scaled_form(diag, off), width / scale))
        # LAPACK spectrum route: singular, PD and shifted indefinite Gram
        # matrices of max-norms 2**-500 to 2**501, whose eigenvalues are
        # those of 2**-e times the input, e the max-norm's exponent
        rng = np.random.default_rng(181)
        for case in range(90):
            n = int(rng.integers(3, 9))
            b = rng.uniform(-1.0, 1.0, (n, n - 1 + case % 3 // 2))
            a = b @ b.T - (0.05 * np.eye(n) if case % 3 == 1 else 0.0)
            form = oracle._form(np.ldexp(a, int(rng.choice([-500, -60, 0, 60, 500])) + case % 2))
            assert form.route == oracle._SPECTRUM
            inputs.append((form.scaled, 10.0 ** -rng.uniform(6.0, 16.0)))
        for scaled, rel in inputs:
            for tol in (rel, DEFAULT_TOL, 1e-3):
                try:
                    cls = oracle._class(scaled, tol)[1]
                except OverflowError:
                    continue
                assert oracle._indefinite(scaled, tol) == (cls == INDEFINITE)


def leading_blocks_det(dense):
    return [np.linalg.det(dense[:k, :k]) for k in range(1, dense.shape[0] + 1)]


class TestMinorsByRecurrence:
    def test_minors_match_lapack_determinants(self):
        rng = np.random.default_rng(67)
        for case in range(120):
            n = int(rng.integers(3, 25))
            kind = case % 3
            if kind == 0:
                a = make_tridiagonal(rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 1))
                dense = a.dense()
            elif kind == 1:
                a = make_pentadiagonal(rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 2))
                dense = a.dense()
            else:
                base = rng.uniform(-2, 2, size=(n, n))
                a = dense = base + base.T
            minors = leading_principal_minors(a)
            assert all(type(m) is float for m in minors)
            for got, want in zip(minors, leading_blocks_det(dense)):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_band_determinant_is_last_minor(self):
        rng = np.random.default_rng(71)
        for _ in range(40):
            n = int(rng.integers(3, 30))
            for a in (
                make_tridiagonal(rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 1)),
                make_pentadiagonal(rng.uniform(-3, 3, n), rng.uniform(-2, 2, n - 2)),
            ):
                det = determinant(a)
                assert type(det) is float
                assert det == leading_principal_minors(a)[-1]
                assert det == pytest.approx(np.linalg.det(a.dense()), rel=1e-9, abs=1e-12)

    def test_overflowing_certificate_has_no_nan(self):
        cert = classify_positivity(make_tridiagonal([1e3] * 120, [1.0] * 119)).certificate
        assert all(math.isfinite(m) and m > 0 for m in cert[:102])
        assert all(m == math.inf for m in cert[102:])

    def test_exact_zero_minors_stay_exact(self):
        assert classify_positivity(make_tridiagonal([1, 2, 1], [1, 1])).certificate == (1.0, 1.0, 0.0)
        assert leading_principal_minors(np.ones((3, 3))) == [1.0, 0.0, 0.0]
        assert leading_principal_minors(np.array([[0.0, 1.0], [1.0, 0.0]])) == [0.0, -1.0]

    def test_pentadiagonal_singular_block(self, p_matrix):
        # the odd block tridiag([1, 2, 1], [1, 1]) is singular, so are the
        # leading blocks of order 5 and up
        minors = leading_principal_minors(p_matrix)
        assert minors == pytest.approx(leading_blocks_det(p_matrix.dense()), abs=1e-12)
        assert minors[-1] == 0.0
        assert determinant(p_matrix) == 0.0


def random_rational_rows(rng, n, kind, large=False):
    """Symmetric Fraction rows of a tridiagonal, pentadiagonal-form or dense
    pattern, with small numerators so that some pivots vanish, or with
    large ones, numerators up to +-10**6 over denominators up to 10**3."""
    offset = {"tridiagonal": 1, "pentadiagonal": 2}.get(kind)
    top, den = (10**6, 1000) if large else (3, 3)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if offset is None or j - i in (0, offset):
                rows[i][j] = rows[j][i] = Fraction(int(rng.integers(-top, top + 1)), int(rng.integers(1, den + 1)))
    return rows


class TestExactMinors:
    @pytest.mark.parametrize("kind", ["tridiagonal", "pentadiagonal", "dense"])
    def test_one_pass_equals_determinant_per_block(self, kind):
        rng = np.random.default_rng(83)
        for case in range(60):
            n = int(rng.integers(1, oracle.EXACT_MINOR_LIMIT + 1))
            rows = random_rational_rows(rng, n, kind, large=case >= 40)
            want = [frozen_det_exact([r[: k + 1] for r in rows[: k + 1]]) for k in range(n)]
            got = leading_principal_minors(rows)
            assert all(type(m) is Fraction for m in got)
            assert got == want

    def test_zero_first_pivot(self):
        assert leading_principal_minors([[0, 1], [1, 0]]) == [0, -1]

    def test_singular_path_laplacian(self):
        n = 6
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1 if i in (0, n - 1) else 2
            if i + 1 < n:
                rows[i][i + 1] = rows[i + 1][i] = -1
        minors = leading_principal_minors(rows)
        assert minors[:-1] == [1] * (n - 1)
        assert minors[-1] == 0

    def test_pivot_vanishes_partway(self):
        # the second pivot is 1 - 1 = 0; the full block is still nonsingular
        rows = [[1, 1, 0], [1, 1, 1], [0, 1, 1]]
        assert leading_principal_minors(rows) == [1, 0, -1]

    def test_above_limit_builds_no_fraction_rows(self, monkeypatch):
        rng = np.random.default_rng(89)
        n = 16
        assert n > oracle.EXACT_MINOR_LIMIT
        rows = random_rational_rows(rng, n, "dense")
        want = leading_principal_minors(np.array(rows, dtype=float))

        def refuse(a):
            raise AssertionError("Fraction rows built above EXACT_MINOR_LIMIT")

        monkeypatch.setattr(oracle, "_exact_rows", refuse)
        got = leading_principal_minors(rows)
        assert all(type(m) is float for m in got)
        assert got == want


def random_exact_band(rng, n, offset, decimal):
    """An ExactBand of order n with small integer or two-digit decimal
    entries; about one coupling in seven is exactly zero."""
    def entry():
        if decimal:
            return Fraction(int(rng.integers(-300, 301)), 100)
        return Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))

    diag = tuple(entry() for _ in range(n))
    off = tuple(Fraction(0) if rng.random() < 1 / 7 else entry() for _ in range(max(n - offset, 0)))
    return ExactBand(diag, off, offset)


def exact_band_rows(band):
    n = band.order
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, d in enumerate(band.diag):
        rows[i][i] = d
    for i, e in enumerate(band.off):
        rows[i][i + band.offset] = rows[i + band.offset][i] = e
    return rows


def float_band(band):
    diag, off = [float(x) for x in band.diag], [float(x) for x in band.off]
    return make_tridiagonal(diag, off) if band.offset == 1 else make_pentadiagonal(diag, off)


class TestExactBandMinors:
    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("decimal", [False, True], ids=["integer", "decimal"])
    def test_continuant_equals_block_determinants_and_dense_rows(self, offset, decimal):
        rng = np.random.default_rng([97, offset, decimal])
        for _ in range(40):
            n = int(rng.integers(1 if offset == 1 else 3, oracle.EXACT_MINOR_LIMIT + 1))
            band = random_exact_band(rng, n, offset, decimal)
            rows = exact_band_rows(band)
            got = leading_principal_minors(band)
            assert all(type(m) is Fraction for m in got)
            assert got == [frozen_det_exact([r[: k + 1] for r in rows[: k + 1]]) for k in range(n)]
            assert got == leading_principal_minors(rows)

    @pytest.mark.parametrize(
        "band, want",
        [
            # the singular path Laplacian
            (ExactBand((1, 2, 2, 2, 1), (-1, -1, -1, -1), 1), [1, 1, 1, 1, 0]),
            # the second pivot vanishes; the full block is nonsingular
            (ExactBand((1, 1, 1), (1, 1), 1), [1, 0, -1]),
            (ExactBand((0, 0), (1,), 1), [0, -1]),
            # a zero coupling splits the continuant
            (ExactBand((2, 2, 3), (1, 0), 1), [2, 3, 9]),
            # odd block tridiag([1, 2, 1], [1, 1]) is singular
            (ExactBand((1, 2, 2, 2, 1), (1, 1, 1), 2), [1, 2, 2, 3, 0]),
            (ExactBand((Fraction(1, 10), Fraction(21, 10), Fraction(1, 10)), (Fraction(1, 5),), 2),
             [Fraction(1, 10), Fraction(21, 100), Fraction(-63, 1000)]),
        ],
    )
    def test_known_minors(self, band, want):
        got = leading_principal_minors(band)
        assert got == want
        assert all(type(m) is Fraction for m in got)
        assert got == leading_principal_minors(exact_band_rows(band))

    @pytest.mark.parametrize("offset", [1, 2])
    def test_above_limit_equals_float_certificate(self, offset):
        rng = np.random.default_rng([101, offset])
        for _ in range(20):
            n = int(rng.integers(oracle.EXACT_MINOR_LIMIT + 1, 40))
            band = random_exact_band(rng, n, offset, decimal=True)
            got = leading_principal_minors(band)
            assert all(type(m) is float for m in got)
            assert got == list(classify_positivity(float_band(band)).certificate)

    def test_band_input_reaches_no_dense_route(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("exact band input went through a dense route")

        for name in ("_exact_rows", "_exact_minors", "_dense_minors", "_int_det", "_det_float"):
            monkeypatch.setattr(oracle, name, refuse)
        rng = np.random.default_rng(103)
        for n in (3, 12, 13, 24):
            for offset in (1, 2):
                assert len(leading_principal_minors(random_exact_band(rng, n, offset, decimal=True))) == n

    def test_rows_keep_their_fractions(self):
        rows = [[Fraction(1, 3), 2], [2, Fraction(5)]]
        out = oracle._exact_rows(rows)
        assert out == rows
        assert out[0][0] is rows[0][0] and out[1][1] is rows[1][1]
        # an int entry is kept as an int too: the minors read its numerator
        # and denominator as they read a Fraction's
        assert out[0][1] is rows[0][1] and type(out[0][1]) is int
        assert oracle._exact_rows([[True, 0], [0, 1]]) is None
        assert oracle._exact_rows([[Fraction(1), 0.5], [0.5, 1]]) is None


class TestLargeEntries:
    # 2e160 + 2e160 cos(k pi / 5), k = 1..4; the squared couplings overflow
    WANT = sorted(2e160 + 2e160 * math.cos(k * math.pi / 5) for k in range(1, 5))

    @pytest.mark.parametrize(
        "a",
        [
            make_tridiagonal([2e160] * 4, [1e160] * 3),
            make_pentadiagonal([2e160] * 8, [1e160] * 6),
            DenseSymMatrix(make_tridiagonal([2e160] * 4, [1e160] * 3).dense()),
        ],
        ids=["tridiagonal", "pentadiagonal", "dense"],
    )
    def test_spectrum_beyond_squared_overflow(self, a):
        verdict = classify_positivity(a)
        assert verdict.classification == PD
        assert verdict.min_eigenvalue == pytest.approx(self.WANT[0], rel=1e-9)
        assert min_eigenvalue(a) == verdict.min_eigenvalue
        want = np.repeat(self.WANT, a.order // 4)
        np.testing.assert_allclose(sym_eigenvalues(a), want, rtol=1e-9)

    def test_dense_determinant_overflow_is_infinite_without_warning(self):
        # band input gets +-inf from its continuant pair; dense input the
        # same from its pivot pair (the suite turns a RuntimeWarning into
        # an error)
        big = 2.0**600
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert determinant(big * a) == math.inf
        assert determinant(make_tridiagonal(big * np.diag(a), [big])) == math.inf
        assert determinant(2.0**400 * a) == 5.0 * 2.0**800
        assert determinant(make_tridiagonal(2.0**400 * np.diag(a), [2.0**400])) == 5.0 * 2.0**800
        # a zero first pivot: the order-2 minor comes from the pivoting
        # elimination
        verdict = classify_positivity(big * np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert verdict.classification == INDEFINITE
        assert verdict.certificate == (0.0, -math.inf)

    @pytest.mark.parametrize(
        "a",
        [
            make_tridiagonal([-1.5e308, -1.5e308], [1.5e308]),
            make_pentadiagonal([-1.5e308] * 4, [1.5e308] * 2),
            DenseSymMatrix(make_tridiagonal([-1.5e308, -1.5e308], [1.5e308]).dense()),
            # no path pattern: the eigenvalues of 2**-t a are bisected as
            # they are, since scaled back they would hold -inf
            DenseSymMatrix(1e308 * np.array([[-1.5, 1.5, 1.0], [1.5, -1.5, 1.0], [1.0, 1.0, -1.5]])),
        ],
        ids=["tridiagonal", "pentadiagonal", "dense", "lapack-spectrum"],
    )
    def test_eigenvalue_beyond_the_float_range_is_infinite(self, a):
        # finite entries, smallest eigenvalue -3e308: the bisected value
        # scales back to -inf, without an OverflowError or a warning
        verdict = classify_positivity(a)
        assert verdict.classification == INDEFINITE and verdict.min_eigenvalue == -math.inf
        assert min_eigenvalue(a) == -math.inf
        spectrum = sym_eigenvalues(a)
        assert spectrum[0] == -math.inf and np.isfinite(spectrum[-1])
        assert sym_eigenvalues(-a.dense())[-1] == math.inf
        huge = oracle._scaled_form(np.array([-1.5e308] * 2), np.array([1.5e308]))
        assert bisect_form(huge, 1.0, -1e308) == -math.inf

    def test_dense_determinant_keeps_entries_far_below_the_largest(self):
        # the elimination runs on the input as given, so an entry 2**-1000
        # times the largest is not flushed to zero, on its own or in the
        # pivoting fallback after a zero leading pivot
        assert determinant(np.array([[1e30, 0.0], [0.0, 1e-300]])) == 1e30 * 1e-300
        a = np.array([[0.0, 1e30, 0.0], [1e30, 0.0, 0.0], [0.0, 0.0, 1e-300]])
        assert classify_positivity(a).certificate == (0.0, -(1e30 * 1e30), -(1e30 * 1e30) * 1e-300)


def scale_inputs(seed, count):
    """Seeded tridiagonals, pentadiagonal-form matrices, permuted
    tridiagonals (dense, path route) and dense symmetric arrays, in turn;
    half with small integer entries, which put eigenvalues on zero and
    pivots on bisection midpoints."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(3, 12))
        integer = case % 8 >= 4

        def draw(size):
            return rng.integers(-2, 3, size).astype(float) if integer else rng.uniform(-1.0, 3.0, size)

        kind = case % 4
        if kind == 0:
            yield make_tridiagonal(draw(n), draw(n - 1))
        elif kind == 1:
            yield make_pentadiagonal(draw(n), draw(n - 2))
        elif kind == 2:
            perm = rng.permutation(n)
            yield make_tridiagonal(draw(n), draw(n - 1)).dense()[np.ix_(perm, perm)]
        else:
            a = draw((n, n))
            yield a + a.T


def scaled_by(a, k):
    """2**k a, exactly, in a's own type."""
    if isinstance(a, BandSymMatrix):
        return BandSymMatrix(a.bandwidth, np.ldexp(a.main_diag, k), np.ldexp(a.off, k))
    return np.ldexp(a, k)


def is_normal(x):
    return x == 0.0 or abs(x) >= sys.float_info.min


class TestScaleEquivariance:
    """A and 2**k A get the same verdict, and their numbers are 2**k apart
    bit for bit: every route works on its input normalized to max-norm in
    [1/2, 1), and every tolerance is relative to the max-norm."""

    def test_verdicts_and_spectra_follow_powers_of_two(self):
        rng = np.random.default_rng(163)
        classes = set()
        for case, a in enumerate(scale_inputs(167, 600)):
            k = (-900, 900)[case % 20 // 10] if case % 10 == 0 else int(rng.integers(-900, 901))
            big = scaled_by(a, k)
            verdict, big_verdict = classify_positivity(a), classify_positivity(big)
            classes.add(verdict.classification)
            assert big_verdict.classification == verdict.classification, (case, k)
            assert big_verdict.scale == math.ldexp(verdict.scale, k)
            want = math.ldexp(verdict.min_eigenvalue, k)
            if is_normal(want):
                assert big_verdict.min_eigenvalue.hex() == want.hex(), (case, k)
                assert min_eigenvalue(big).hex() == want.hex()
                assert big_verdict.threshold == math.ldexp(verdict.threshold, k)
            spectrum = sym_eigenvalues(a).tolist()
            big_spectrum = sym_eigenvalues(big).tolist()
            for lam, big_lam in zip(spectrum, big_spectrum):
                if is_normal(math.ldexp(lam, k)):
                    assert big_lam.hex() == math.ldexp(lam, k).hex(), (case, k)
        assert classes == {PD, PSD_BOUNDARY, INDEFINITE}

    def test_class_is_read_where_tol_times_the_max_norm_underflows(self):
        # a singular Gram matrix stored at 2**-1050, where tol * max-norm and
        # the smallest eigenvalue lie below the normal range, and its stored
        # entries times 2**1050: both forms bisect the same scaled matrix
        b = np.random.default_rng(5).uniform(0.0, 1.0, (6, 5))
        tiny = np.ldexp(b @ b.T, -1050)
        for a in (tiny, np.ldexp(tiny, 1050)):
            assert classify_positivity(a).classification == INDEFINITE
        for r in DEFAULT_ID_GRID:
            powered = classify_positivity(hadamard_power(tiny, r))
            assert id_numeric_probe(tiny, [r]) == (powered.classification != INDEFINITE), r

    def test_tiny_entries_keep_their_digits(self):
        # eigenvalues (1 + cos(j pi / 4)) 1e-170, j = 1, 2, 3: PD, and the
        # Wall-Wetzel chain criterion agrees
        t = make_tridiagonal([1e-170] * 3, [0.5e-170] * 2)
        verdict = classify_positivity(t)
        assert verdict.classification == PD
        assert f"{verdict.min_eigenvalue:.11e}" == "2.92893218824e-171"
        assert abs(verdict.min_eigenvalue - (1.0 - math.sqrt(0.5)) * 1e-170) <= DEFAULT_TOL * 1e-170
        assert wall_wetzel_pd(t)

    def test_width_that_underflows_once_normalized(self):
        # entries near 2**1000, where tol times the normalized max-norm
        # underflows: the spectrum keeps its full relative accuracy
        a = 2.0**1000 * np.array([[2.0, 1.0], [1.0, 3.0]])
        want = [2.0**1000 * (2.5 - math.sqrt(1.25)), 2.0**1000 * (2.5 + math.sqrt(1.25))]
        np.testing.assert_allclose(sym_eigenvalues(a), want, rtol=1e-15)

    def test_lapack_spectrum_route_above_squared_overflow(self):
        a = np.array([[4.0, 1, 2, 1], [1, 5, 1, 3], [2, 1, 6, 1], [1, 3, 1, 7]])
        assert oracle._path_order(a) is None
        assert min_eigenvalue(2.0**600 * a) == 2.0**600 * min_eigenvalue(a)


class TestToleranceFloor:
    @pytest.mark.parametrize(
        "off, expected", [(1.0, PSD_BOUNDARY), (1.0001, INDEFINITE), (0.9999, PD)]
    )
    def test_tol_below_machine_precision(self, off, expected):
        m = make_tridiagonal([1.0, 2.0, 1.0], [off, off])
        assert classify_positivity(m, tol=1e-17).classification == expected

    def test_verdict_carries_its_threshold(self):
        m = make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0])
        assert classify_positivity(m, tol=1e-6).threshold == 1e-6 * 2.0
        floor = oracle.STURM_BACKWARD_C * 3 * math.ulp(1.0) * 2.0
        assert classify_positivity(m, tol=1e-17).threshold == floor


def test_band_input_is_never_densified(monkeypatch):
    def refuse(self):
        raise AssertionError("band input was densified")

    monkeypatch.setattr(BandSymMatrix, "dense", refuse)
    t = make_tridiagonal([2.0, 3.0, 2.5, 4.0, 1.5], [1.0, -0.5, 1.0, 0.25])
    assert classify_positivity(t).classification == PD
    assert min_eigenvalue(t) > 0
    assert len(sym_eigenvalues(t)) == 5
    assert len(leading_principal_minors(t)) == 5
    assert determinant(t) > 0
    p = make_pentadiagonal([2.0, 3.0, 2.0, 4.0, 1.5], [1.0, 1.0, -0.5])
    assert classify_positivity(p).classification == PD
    assert min_eigenvalue(p) > 0
    assert len(sym_eigenvalues(p)) == 5
    assert len(leading_principal_minors(p)) == 5
    assert determinant(p) > 0


def permuted_band_inputs(seed, count):
    """Seeded tridiagonal and pentadiagonal-form matrices, each with its
    dense form under a random permutation.  Entries are small integers (so
    pivots vanish exactly), uniform with some zero couplings, negative
    couplings with some -0.0, near 1e160, or of magnitudes 1e-150 to 1e150
    (so some minors overflow or underflow)."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 25))
        offset = 2 if case % 2 and n >= 3 else 1
        k, kind = n - offset, case // 2 % 5
        if kind == 0:
            diag, off = rng.integers(-2, 3, n), rng.integers(-1, 2, k)
        elif kind == 1:
            diag, off = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0, k)
            off[rng.random(k) < 0.2] = 0.0
        elif kind == 2:
            diag, off = rng.uniform(0.0, 3.0, n), -rng.uniform(0.0, 2.0, k)
            off[rng.random(k) < 0.2] = -0.0
        elif kind == 3:
            diag, off = rng.uniform(-1.0, 3.0, n) * 1e160, rng.uniform(-2.0, 2.0, k) * 1e160
        else:
            diag = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-150, 151, n)
            off = rng.uniform(-1.0, 1.0, k) * 10.0 ** rng.integers(-150, 151, k)
        band = (make_pentadiagonal if offset == 2 else make_tridiagonal)(diag, off)
        perm = rng.permutation(n)
        yield band, band.dense()[np.ix_(perm, perm)]


def cycle(n):
    a = 3.0 * np.eye(n)
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def star(n):
    a = float(n) * np.eye(n)
    a[0, 1:] = a[1:, 0] = 1.0
    return a


class TestPathRoute:
    """Dense input whose nonzero graph is a union of paths is a permuted
    tridiagonal: Sturm bisection in its path order, minors by elimination
    over its nonzero entries."""

    # entries near 1e160 overflow some minors, which numpy reports
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_permuted_bands_reach_neither_lapack_spectrum_nor_dense_minors(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a permuted band matrix took a dense route")

        monkeypatch.setattr(oracle, "_dense_minors", refuse)
        for band, dense in permuted_band_inputs(107, 40):
            for a in (dense, DenseSymMatrix(dense), band.dense()):
                assert oracle._form(a).route == oracle._PATH
                classify_positivity(a)
                min_eigenvalue(a)
                assert len(sym_eigenvalues(a)) == band.order
                assert len(leading_principal_minors(a)) == band.order

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_sparse_minors_equal_dense_minors_bit_for_bit(self):
        for case, (_, dense) in enumerate(permuted_band_inputs(109, 2400)):
            assert oracle._path_order(dense) is not None
            want = [x.hex() for x in oracle._dense_minors(dense)]
            assert [x.hex() for x in leading_principal_minors(dense)] == want
            if case % 8 == 0:
                assert [x.hex() for x in classify_positivity(dense).certificate] == want

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_band_and_its_dense_form_agree_bit_for_bit(self):
        for band, _ in permuted_band_inputs(113, 200):
            dense = band.dense()
            assert min_eigenvalue(dense) == min_eigenvalue(band)
            assert sym_eigenvalues(dense).tolist() == sym_eigenvalues(band).tolist()
            want = classify_positivity(band)
            got = classify_positivity(DenseSymMatrix(dense))
            assert (got.classification, got.min_eigenvalue) == (want.classification, want.min_eigenvalue)

    def test_permuted_band_spectra_match_lapack(self):
        tol = 1e-10
        for band, dense in permuted_band_inputs(127, 120):
            allowance = tol * max(1.0, float(np.linalg.norm(dense, 2)))
            want = np.linalg.eigvalsh(dense)
            np.testing.assert_allclose(sym_eigenvalues(dense), want, rtol=0, atol=allowance)
            assert abs(min_eigenvalue(dense, tol) - want[0]) <= allowance

    @pytest.mark.parametrize(
        "dense, order",
        [
            (np.array([[2.0]]), [0]),
            (np.array([[2.0, -1.0], [-1.0, 2.0]]), [0, 1]),
            (np.array([[2.0, 0.0, 1e160], [0.0, 2.0, 0.0], [1e160, 0.0, 2.0]]), [0, 2, 1]),
            (np.diag([3.0, -1.0, 0.0, 2.0]), [0, 1, 2, 3]),
            (np.array([[1.0, -0.0, 0.0], [-0.0, 1.0, -0.5], [0.0, -0.5, 1.0]]), [0, 1, 2]),
            (np.ones((2, 2)), [0, 1]),
            (make_pentadiagonal(np.arange(1.0, 7.0), [1.0] * 4).dense(), [0, 2, 4, 1, 3, 5]),
        ],
        ids=["order-1", "order-2", "1e160", "diagonal", "negative-and-signed-zeros", "ones-2", "pentadiagonal"],
    )
    def test_path_orders(self, dense, order):
        assert oracle._path_order(dense) == order

    def test_components_by_smallest_vertex_from_the_smaller_endpoint(self):
        a = 4.0 * np.eye(6)
        for i, j in ((5, 0), (0, 3), (1, 4)):
            a[i, j] = a[j, i] = 1.0
        assert oracle._path_order(a) == [3, 0, 5, 1, 4, 2]

    @pytest.mark.parametrize(
        "dense",
        [cycle(3), cycle(4), cycle(7), star(4), np.ones((3, 3)), np.ones((5, 5)),
         hadamard_power(make_tridiagonal([2.0] * 4, [1.0] * 3), 0).dense(),
         np.block([[cycle(3), np.zeros((3, 2))], [np.zeros((2, 3)), np.eye(2) + np.eye(2)[::-1]]]),
         np.array([[1.0, 1.0], [0.0, 1.0]])],
        ids=["C3", "C4", "C7", "star", "K3", "K5", "power-0", "cycle-plus-path", "asymmetric"],
    )
    def test_other_patterns_keep_lapack_spectrum(self, dense):
        assert oracle._path_order(dense) is None
        if not np.array_equal(dense, dense.T):
            return
        assert oracle._form(dense).route == oracle._SPECTRUM
        lam = min_eigenvalue(dense)
        assert abs(lam - np.linalg.eigvalsh(dense)[0]) <= 1e-10 * max(1.0, float(np.abs(dense).max()))

    def test_dense_array_and_order_built_once(self, monkeypatch):
        counts = {"to_dense_array": 0, "_path_order": 0}
        for name in counts:
            original = getattr(oracle, name)

            def counted(a, name=name, original=original):
                counts[name] += 1
                return original(a)

            monkeypatch.setattr(oracle, name, counted)
        classify_positivity(DenseSymMatrix(make_tridiagonal([2.0] * 8, [1.0] * 7).dense()[::-1, ::-1]))
        assert counts == {"to_dense_array": 1, "_path_order": 1}

    def test_determinant_looks_for_no_path_order(self, monkeypatch):
        def refuse(dense):
            raise AssertionError("determinant looked for a path order")

        monkeypatch.setattr(oracle, "_path_order", refuse)
        dense = make_tridiagonal([2.0] * 6, [1.0] * 5).dense()[::-1, ::-1]
        for a in (dense, DenseSymMatrix(dense)):
            assert determinant(a) == oracle._det_float(dense)

    def test_huge_fraction_pivot_is_not_converted_to_float(self):
        big = Fraction(10**400)
        assert leading_principal_minors([[big, 1], [1, 1]]) == [big, big - 1]
