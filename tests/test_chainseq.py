"""Chain-sequence recursion, comparison test, and the PD criterion for
tridiagonal matrices, cross-validated against the eigenvalue oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bandpos import (
    PD,
    ChainReport,
    classify_positivity,
    comparison_dominates,
    is_chain_sequence,
    make_tridiagonal,
    minimal_parameters,
    ratio_sequence,
    split_at_zero_offdiag,
    tridiag_ratio_sequence,
    wall_wetzel_pd,
)


def chain_from_parameters(g0, gs):
    """Build a chain sequence from an explicit parameter sequence."""
    seq = []
    prev = g0
    for g in gs:
        seq.append((1 - prev) * g)
        prev = g
    return seq


class TestMinimalParameters:
    def test_constant_quarter_exact(self):
        report = minimal_parameters([Fraction(1, 4)] * 3)
        assert report.is_chain
        assert report.exact_mode
        assert report.minimal_params == (Fraction(1, 4), Fraction(1, 3), Fraction(3, 8))
        assert report.failure_index is None

    def test_constant_quarter_float(self):
        report = minimal_parameters([0.25, 0.25, 0.25])
        assert report.is_chain and not report.exact_mode
        np.testing.assert_allclose(report.minimal_params, [0.25, 1 / 3, 0.375], rtol=1e-15)

    def test_single_one_fails_at_one(self):
        report = minimal_parameters([1])
        assert not report.is_chain
        assert report.failure_index == 1
        assert report.minimal_params == (Fraction(1),)

    def test_a01_ratio_values(self):
        report = minimal_parameters([1 / 2.1, 1 / 2.1])
        assert report.is_chain
        np.testing.assert_allclose(report.minimal_params, [10 / 21, 10 / 11], rtol=1e-14)

    def test_nonpositive_entry_fails(self):
        report = minimal_parameters([0.25, 0.0, 0.25])
        assert not report.is_chain
        assert report.failure_index == 2

    def test_zero_entry_splits_blocks(self):
        report = minimal_parameters([0.25, 0.0, 0.25], split_at_zero=True)
        assert report.is_chain and report.failure_index is None
        assert report.minimal_params == (0.25, 0.0, 0.25)

    def test_split_failure_index_counts_the_whole_sequence(self):
        report = minimal_parameters([0, Fraction(1, 2), Fraction(1, 2)], split_at_zero=True)
        assert report.exact_mode and not report.is_chain
        assert report.minimal_params == (0, Fraction(1, 2), Fraction(1))
        assert report.failure_index == 3
        assert minimal_parameters([Fraction(1, 4), -1], split_at_zero=True).failure_index == 2

    def test_nan_entry_fails(self):
        assert minimal_parameters([0.25, math.nan, 0.25]).failure_index == 2

    def test_boundary_indeterminate_flag(self):
        report = minimal_parameters([0.5, 0.5, 0.5])
        assert not report.is_chain
        assert report.failure_index == 2
        assert report.minimal_params[1] == 1.0
        assert report.boundary_indeterminate

    def test_boundary_exact_has_no_flag(self):
        report = minimal_parameters([Fraction(1, 2)] * 3)
        assert not report.is_chain
        assert report.failure_index == 2
        assert not report.boundary_indeterminate

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            minimal_parameters([])


class TestIsChainSequence:
    def test_quarter_pair(self):
        assert is_chain_sequence([0.25, 0.25])

    def test_point_three_pair(self):
        report = minimal_parameters([0.3, 0.3])
        assert report.is_chain
        np.testing.assert_allclose(report.minimal_params, [0.3, 0.3 / 0.7], rtol=1e-15)
        # cross-check: the tridiagonal matrix with these ratios is PD
        t = make_tridiagonal([1.0, 1.0, 1.0], [math.sqrt(0.3), math.sqrt(0.3)])
        assert classify_positivity(t).classification == PD

    def test_half_triple_not_chain(self):
        assert not is_chain_sequence([0.5, 0.5, 0.5])
        # cross-check: the matching matrix has determinant 0, so not PD
        t = make_tridiagonal([1.0] * 4, [math.sqrt(0.5)] * 3)
        assert classify_positivity(t).classification != PD


class TestComparison:
    def test_dominated(self):
        assert comparison_dominates([0.2, 0.2], [0.25, 0.25])

    def test_not_dominated(self):
        assert not comparison_dominates([0.25, 0.3], [0.25, 0.25])

    def test_strict_positivity_required(self):
        assert not comparison_dominates([0.0, 0.2], [0.25, 0.25])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            comparison_dominates([0.1], [0.1, 0.1])


class TestRatioSequence:
    def test_a01(self, a01):
        np.testing.assert_allclose(tridiag_ratio_sequence(a01), [1 / 2.1, 1 / 2.1], rtol=1e-15)

    def test_diagonal_only(self):
        t = make_tridiagonal([2.0, 3.0, 4.0], [0.0, 0.0])
        np.testing.assert_array_equal(tridiag_ratio_sequence(t), [0.0, 0.0])

    def test_all_ones_two(self):
        t = make_tridiagonal([1.0, 1.0], [1.0])
        np.testing.assert_array_equal(tridiag_ratio_sequence(t), [1.0])
        assert not is_chain_sequence([1.0])

    def test_exact_ratios_from_fractions(self):
        diag = [Fraction(1), Fraction(21, 10), Fraction(1)]
        off = [Fraction(1), Fraction(0)]
        ratios = list(ratio_sequence(diag, off))
        assert ratios == [Fraction(10, 21), 0]
        assert all(isinstance(x, Fraction) for x in ratios)

    def test_float_ratios_are_the_matrix_ratios(self, a01):
        np.testing.assert_array_equal(
            ratio_sequence(a01.main_diag, a01.off), tridiag_ratio_sequence(a01)
        )

    @pytest.mark.parametrize(
        "diag,off",
        [
            ([1.0, 2.0, 3.0], [1.0]),
            ([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),
            ([1.0, 2.0, 3.0], []),
            ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(1),)),
            ((1, 2, 3), (1,)),
            (np.array([Fraction(1), Fraction(2), Fraction(3)], dtype=object), np.array([Fraction(1)], dtype=object)),
            (np.array([1.0, 2.0]), np.array([[1.0]])),
        ],
        ids=["float-short", "float-long", "float-empty", "fraction", "int", "object-array", "nested-off"],
    )
    def test_off_diagonal_of_other_than_n_minus_1_entries_refused(self, diag, off):
        # before, a one-entry off-diagonal was broadcast over every ratio,
        # and a long one leaked numpy's broadcast error
        with pytest.raises(ValueError, match="^the off-diagonal must have one entry fewer than the diagonal$"):
            ratio_sequence(diag, off)

    def test_order_one_has_no_ratios(self):
        assert ratio_sequence([2.0], []).shape == (0,)

    def test_nonpositive_diagonal_rejected(self):
        t = make_tridiagonal([1.0, 0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            tridiag_ratio_sequence(t)


class TestSplit:
    def test_cut_in_middle(self):
        t = make_tridiagonal([1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
        blocks = split_at_zero_offdiag(t)
        assert [b.order for b in blocks] == [2, 2]

    def test_no_cut(self, a01):
        blocks = split_at_zero_offdiag(a01)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0].dense(), a01.dense())

    def test_all_cut(self):
        t = make_tridiagonal([1.0, 2.0, 3.0], [0.0, 0.0])
        blocks = split_at_zero_offdiag(t)
        assert [b.order for b in blocks] == [1, 1, 1]
        assert [float(b.main_diag[0]) for b in blocks] == [1.0, 2.0, 3.0]

    def test_concatenation_reconstructs(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            off = rng.uniform(0, 1, max(n - 1, 0))
            off[rng.uniform(size=off.shape) < 0.4] = 0.0
            t = make_tridiagonal(rng.uniform(0, 2, n), off)
            blocks = split_at_zero_offdiag(t)
            rebuilt = np.zeros((n, n))
            at = 0
            for b in blocks:
                rebuilt[at : at + b.order, at : at + b.order] = b.dense()
                at += b.order
            np.testing.assert_array_equal(rebuilt, t.dense())

    @pytest.mark.parametrize("coupling,orders", [(0.0, [2, 1]), (-0.0, [2, 1]), (5e-324, [3]), (1e-170, [3])])
    def test_cuts_at_exact_zeros_only(self, coupling, orders):
        # only an exact 0.0 cuts, whatever the scale of the other entries
        for k in (-1000, -40, 0, 300):
            t = make_tridiagonal(np.ldexp([1.0, 2.0, 1.0], k), [np.ldexp(0.5, k), coupling])
            assert [b.order for b in split_at_zero_offdiag(t)] == orders, k


class TestWallWetzel:
    def test_a01_pd(self, a01):
        assert wall_wetzel_pd(a01)

    def test_a_zero_boundary(self):
        # ratios (1/2, 1/2): the recursion hits exactly 1, so not PD
        t = make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0])
        assert not wall_wetzel_pd(t)
        assert classify_positivity(t).classification != PD

    def test_limit_matrix_c(self):
        assert not wall_wetzel_pd(make_tridiagonal([1.0, 1.0, 1.0], [1.0, 1.0]))

    def test_zero_diagonal_blocks(self):
        assert not wall_wetzel_pd(make_tridiagonal([0.0, 1.0], [1.0]))
        assert not wall_wetzel_pd(make_tridiagonal([1.0, 0.0, 3.0], [0.0, 0.0]))
        assert wall_wetzel_pd(make_tridiagonal([1.0, 2.0, 3.0], [0.0, 0.0]))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            wall_wetzel_pd(make_tridiagonal([1.0, -1.0], [0.5]))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_large_entries_keep_their_ratios(self, scale):
        # b^2 and a_j a_{j+1} overflow; the ratios are those of the scaled-down
        # matrix, so the criterion still tells PD from indefinite
        indefinite = make_tridiagonal([scale] * 3, [scale] * 2)
        pd = make_tridiagonal([scale] * 3, [scale / 2] * 2)
        assert tridiag_ratio_sequence(indefinite).tolist() == [1.0, 1.0]
        assert tridiag_ratio_sequence(pd).tolist() == [0.25, 0.25]
        assert not wall_wetzel_pd(indefinite)
        assert wall_wetzel_pd(pd)

    def test_small_entries_keep_their_ratios(self):
        # b^2 and a_j a_{j+1} underflow to 0, so the unscaled ratio is 0/0;
        # the ratios are those of the scaled-up matrix
        pd = make_tridiagonal([1e-170] * 3, [0.5e-170] * 2)
        indefinite = make_tridiagonal([1e-170] * 3, [1e-170] * 2)
        assert tridiag_ratio_sequence(pd).tolist() == [0.25, 0.25]
        assert tridiag_ratio_sequence(indefinite).tolist() == [1.0, 1.0]
        assert wall_wetzel_pd(pd)
        assert not wall_wetzel_pd(indefinite)

    @pytest.mark.parametrize(
        "diag, off",
        [
            ([1e100, 1e-100, 1e-100], [0.0, 5e-101]),
            ([1.0, 1e-300, 1e-300], [1e-301, 1e-301]),
            ([2.0**600, 2.0**-600, 1.0], [2.0**-100, 2.0**-301]),
        ],
    )
    def test_spread_entries_keep_their_ratios(self, diag, off):
        # entries 2**600 to 2**1200 below the largest: each ratio is the
        # exact one, rounded, and these PD matrices pass the criterion
        exact = [float(Fraction(b) ** 2 / (Fraction(a0) * Fraction(a1))) for a0, a1, b in zip(diag, diag[1:], off)]
        np.testing.assert_allclose(ratio_sequence(np.array(diag), np.array(off)), exact, rtol=1e-15, atol=0.0)
        assert wall_wetzel_pd(make_tridiagonal(diag, off))

    def test_ratios_are_bit_identical_across_the_cutoffs(self):
        # the ratios are the plain formula's where its products are normal
        # floats; a matrix moved by a power of two to where those products
        # overflow or underflow has the same ones
        rng = np.random.default_rng(107)
        for _ in range(500):
            n = int(rng.integers(2, 20))
            e = rng.uniform(-100, 140)
            diag = rng.uniform(0.5, 2.0, n) * 10.0**e
            off = rng.uniform(-1.0, 1.0, n - 1) * 10.0**e
            off[rng.random(n - 1) < 0.1] = 0.0
            plain = off * off / (diag[:-1] * diag[1:])
            assert ratio_sequence(diag, off).tobytes() == plain.tobytes()
            top = math.frexp(max(np.abs(diag).max(), np.abs(off).max()))[1]
            for target in (-560, -490, 490, 1000):
                shift = target - top + int(rng.integers(0, 8))
                moved = ratio_sequence(np.ldexp(diag, shift), np.ldexp(off, shift))
                assert moved.tobytes() == plain.tobytes()

    def test_underflowing_ratio_splits_like_a_zero_coupling(self):
        # b^2 / (a_1 a_2) underflows to 0: the coupling is negligible, and the
        # blocks are tested apart instead of failing on a zero ratio
        t = make_tridiagonal([1.0, 2.0], [1e-200])
        assert classify_positivity(t).classification == PD
        assert wall_wetzel_pd(t)


class TestInvariants:
    def test_equivalence_with_oracle(self):
        rng = np.random.default_rng(67)
        tol = 1e-10
        decisive = 0
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            t = make_tridiagonal(
                rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0, max(n - 1, 0))
            )
            verdict = classify_positivity(t, tol)
            if abs(verdict.min_eigenvalue) <= 10 * tol * max(1.0, verdict.scale):
                continue
            decisive += 1
            assert wall_wetzel_pd(t) == (verdict.classification == PD)
        assert decisive > 900

    def test_comparison_theorem_realized(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            n = int(rng.integers(1, 9))
            g0 = rng.uniform(0.0, 0.95)
            gs = rng.uniform(0.02, 0.98, n)
            a = chain_from_parameters(g0, gs)
            c = [u * x for u, x in zip(rng.uniform(0.1, 1.0, n), a)]
            assert comparison_dominates(c, a)
            assert is_chain_sequence(c)

    def test_powers_of_chain_sequences_remain_chains(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a = chain_from_parameters(rng.uniform(0, 0.9), rng.uniform(0.05, 0.95, n))
            assert all(x < 1 for x in a)
            r = rng.uniform(1.0001, 5.0)
            assert is_chain_sequence([x**r for x in a])

    def test_exact_and_float_modes_agree(self):
        rng = np.random.default_rng(79)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            fracs = [
                Fraction(int(rng.integers(1, 60)), int(rng.integers(120, 400)))
                for _ in range(n)
            ]
            exact = minimal_parameters(fracs)
            floats = minimal_parameters([float(f) for f in fracs])
            assert exact.exact_mode and not floats.exact_mode
            if floats.boundary_indeterminate:
                continue
            assert exact.is_chain == floats.is_chain
            assert exact.failure_index == floats.failure_index
            for me, mf in zip(exact.minimal_params, floats.minimal_params):
                assert float(me) == pytest.approx(mf, rel=1e-12, abs=1e-12)

    def test_report_is_frozen_dataclass(self):
        report = minimal_parameters([0.25])
        assert isinstance(report, ChainReport)
        with pytest.raises(AttributeError):
            report.is_chain = False
