"""Band matrix construction, Hadamard powers, the even/odd permutation
split, pattern checks, and the JSON wire format."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bandpos import (
    BandSymMatrix,
    DenseSymMatrix,
    ExactBand,
    PermutationSpec,
    conjugate_by_permutation,
    even_odd_permutation,
    exact_matrix_from_json,
    hadamard_power,
    join_pentadiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    matrix_from_json,
    matrix_to_json,
    pattern_check,
    path_graph,
    penta_support_graph,
    split_pentadiagonal,
    superadditive_gap,
    sym_eigenvalues,
)
from bandpos.bandmat import matrix_from_json_obj, matrix_to_json_obj

from conftest import P_DENSE


class TestConstruction:
    def test_a_eps_dense(self, a01):
        expected = np.array([[1.0, 1.0, 0.0], [1.0, 2.1, 1.0], [0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(a01.dense(), expected)

    def test_order_one(self):
        m = make_tridiagonal([5.0], [])
        np.testing.assert_array_equal(m.dense(), [[5.0]])

    def test_all_ones_two(self):
        m = make_tridiagonal([1.0, 1.0], [1.0])
        np.testing.assert_array_equal(m.dense(), np.ones((2, 2)))

    def test_tridiagonal_length_mismatch(self):
        with pytest.raises(ValueError):
            make_tridiagonal([1.0, 2.0, 3.0], [1.0])

    def test_pentadiagonal_matches_paper_matrix(self, p_matrix):
        np.testing.assert_array_equal(p_matrix.dense(), P_DENSE)

    def test_pentadiagonal_zero_second(self):
        m = make_pentadiagonal([1.0, 1.0, 1.0], [0.0])
        np.testing.assert_array_equal(m.dense(), np.eye(3))

    def test_pentadiagonal_length_mismatch(self):
        with pytest.raises(ValueError):
            make_pentadiagonal([1.0, 1.0, 1.0], [1.0, 1.0])

    def test_pentadiagonal_min_order(self):
        with pytest.raises(ValueError):
            make_pentadiagonal([1.0, 1.0], [])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_tridiagonal([1.0, np.nan], [0.5])

    def test_dense_requires_symmetry(self):
        with pytest.raises(ValueError):
            DenseSymMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            DenseSymMatrix(np.array([[1.0, 2.0, 3.0]]))

    def test_entries_frozen(self, a01):
        with pytest.raises(ValueError):
            a01.main_diag[0] = 7.0


class TestHadamardPower:
    def test_a01_half_power(self, a01):
        powered = hadamard_power(a01, 0.5)
        assert powered.main_diag[1] == pytest.approx(math.sqrt(2.1), rel=1e-15)
        det = np.linalg.det(powered.dense())
        assert det == pytest.approx(math.sqrt(2.1) - 2.0, rel=1e-12)

    def test_identity_power(self, p_matrix):
        np.testing.assert_array_equal(hadamard_power(p_matrix, 1.0).dense(), p_matrix.dense())

    def test_all_ones_fixed_point(self):
        ones = DenseSymMatrix(np.ones((4, 4)))
        for r in (0.3, 1.0, 2.5):
            np.testing.assert_array_equal(hadamard_power(ones, r).entries, np.ones((4, 4)))

    def test_zero_power_gives_all_ones(self, a01):
        powered = hadamard_power(a01, 0.0)
        assert isinstance(powered, DenseSymMatrix)
        np.testing.assert_array_equal(powered.entries, np.ones((3, 3)))

    def test_integer_power_negative_entries(self):
        m = DenseSymMatrix(np.array([[1.0, -2.0], [-2.0, 4.0]]))
        np.testing.assert_array_equal(hadamard_power(m, 3).entries, [[1.0, -8.0], [-8.0, 64.0]])

    def test_noninteger_power_negative_entry_rejected(self):
        m = DenseSymMatrix(np.array([[1.0, -2.0], [-2.0, 4.0]]))
        with pytest.raises(ValueError):
            hadamard_power(m, 0.5)

    def test_negative_exponent_rejected(self, a01):
        with pytest.raises(ValueError):
            hadamard_power(a01, -1.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, a01, r):
        for a in (a01, a01.dense(), DenseSymMatrix(a01.dense())):
            with pytest.raises(ValueError, match="^exponent must be finite$"):
                hadamard_power(a, r)

    def test_band_structure_preserved(self, p_matrix):
        powered = hadamard_power(p_matrix, 2.0)
        assert isinstance(powered, BandSymMatrix)
        assert powered.is_pentadiagonal_form

    def test_raw_array_of_order_zero_refused(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            hadamard_power(np.zeros((0, 0)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raw_array_with_non_finite_entry_refused(self, bad):
        with pytest.raises(ValueError, match="all entries must be finite"):
            hadamard_power(np.array([[1.0, bad], [bad, 1.0]]), 2)

    def test_raw_array_need_not_be_symmetric(self):
        powered = hadamard_power(np.array([[1.0, 2.0], [3.0, 4.0]]), 2)
        np.testing.assert_array_equal(powered, [[1.0, 4.0], [9.0, 16.0]])

    def test_raw_array_must_be_square(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            hadamard_power(np.ones((2, 3)), 2)

    def test_power_composition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = DenseSymMatrix(_random_symmetric_positive(rng, 5))
            r, s = rng.uniform(0.2, 3.0, size=2)
            once = hadamard_power(hadamard_power(a, r), s)
            direct = hadamard_power(a, r * s)
            np.testing.assert_allclose(once.entries, direct.entries, rtol=1e-12)


def _random_symmetric_positive(rng, n):
    a = rng.uniform(0.1, 2.0, size=(n, n))
    return 0.5 * (a + a.T)


class TestPermutation:
    def test_even_odd_images(self):
        assert even_odd_permutation(5).image == (1, 3, 5, 2, 4)
        assert even_odd_permutation(2).image == (1, 2)
        assert even_odd_permutation(6).image == (1, 3, 5, 2, 4, 6)

    def test_even_odd_needs_two(self):
        with pytest.raises(ValueError):
            even_odd_permutation(1)

    def test_image_must_be_bijection(self):
        with pytest.raises(ValueError):
            PermutationSpec((1, 1, 3))

    def test_matrix_is_orthogonal(self):
        p = even_odd_permutation(7)
        x = p.matrix()
        np.testing.assert_array_equal(x @ x.T, np.eye(7))

    def test_conjugation_matches_matrix_product(self, p_matrix):
        p = even_odd_permutation(5)
        x = p.matrix()
        expected = x @ p_matrix.dense() @ x.T
        got = conjugate_by_permutation(p_matrix, p)
        np.testing.assert_array_equal(got.entries, expected)

    def test_p_matrix_block_form(self, p_matrix):
        m = conjugate_by_permutation(p_matrix, even_odd_permutation(5)).entries
        a_odd = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        a_even = np.array([[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(m[:3, :3], a_odd)
        np.testing.assert_array_equal(m[3:, 3:], a_even)
        np.testing.assert_array_equal(m[:3, 3:], np.zeros((3, 2)))

    def test_identity_permutation(self, a01):
        p = PermutationSpec((1, 2, 3))
        np.testing.assert_array_equal(conjugate_by_permutation(a01, p).entries, a01.dense())

    def test_inverse_round_trip(self, p_matrix):
        p = even_odd_permutation(5)
        once = conjugate_by_permutation(p_matrix, p)
        back = conjugate_by_permutation(once, p.inverse())
        np.testing.assert_array_equal(back.entries, p_matrix.dense())

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = DenseSymMatrix(_random_symmetric_positive(rng, n))
            image = tuple(int(v) for v in rng.permutation(n) + 1)
            conj = conjugate_by_permutation(a, PermutationSpec(image))
            np.testing.assert_allclose(
                sym_eigenvalues(conj, 1e-12), sym_eigenvalues(a, 1e-12), atol=1e-12
            )

    def test_size_mismatch(self, a01):
        with pytest.raises(ValueError):
            conjugate_by_permutation(a01, even_odd_permutation(5))


class TestSplit:
    def test_p_matrix_split(self, p_matrix):
        odd, even = split_pentadiagonal(p_matrix)
        # independent extraction straight from the dense principal submatrices
        dense = p_matrix.dense()
        np.testing.assert_array_equal(odd.dense(), dense[np.ix_([0, 2, 4], [0, 2, 4])])
        np.testing.assert_array_equal(even.dense(), dense[np.ix_([1, 3], [1, 3])])
        np.testing.assert_array_equal(odd.main_diag, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(odd.off_diags[0], [1.0, 1.0])
        np.testing.assert_array_equal(even.main_diag, [2.0, 1.0])
        np.testing.assert_array_equal(even.off_diags[0], [1.0])

    def test_smallest_case(self):
        m = make_pentadiagonal([2.0, 3.0, 4.0], [0.7])
        odd, even = split_pentadiagonal(m)
        np.testing.assert_array_equal(odd.dense(), [[2.0, 0.7], [0.7, 4.0]])
        np.testing.assert_array_equal(even.dense(), [[3.0]])

    def test_zero_second_gives_diagonal_blocks(self):
        m = make_pentadiagonal([1.0, 2.0, 3.0, 4.0], [0.0, 0.0])
        odd, even = split_pentadiagonal(m)
        np.testing.assert_array_equal(odd.dense(), np.diag([1.0, 3.0]))
        np.testing.assert_array_equal(even.dense(), np.diag([2.0, 4.0]))

    def test_sizes(self):
        rng = np.random.default_rng(3)
        for n in range(3, 12):
            m = make_pentadiagonal(rng.uniform(1, 2, n), rng.uniform(0, 1, n - 2))
            odd, even = split_pentadiagonal(m)
            assert odd.order == (n + 1) // 2
            assert even.order == n // 2

    def test_requires_penta_form(self):
        bad = BandSymMatrix(3, 2, np.ones(3), (np.array([0.5, 0.0]), np.array([0.2])))
        with pytest.raises(ValueError):
            split_pentadiagonal(bad)
        with pytest.raises(ValueError):
            split_pentadiagonal(make_tridiagonal([1.0, 1.0], [0.5]))

    def test_join_reconstructs_exactly(self):
        rng = np.random.default_rng(9)
        for n in range(3, 11):
            m = make_pentadiagonal(rng.uniform(1, 3, n), rng.uniform(0, 1, n - 2))
            odd, even = split_pentadiagonal(m)
            back = join_pentadiagonal(odd, even)
            np.testing.assert_array_equal(back.dense(), m.dense())

    def test_split_then_inverse_permutation_reconstructs(self, p_matrix):
        odd, even = split_pentadiagonal(p_matrix)
        block = np.zeros((5, 5))
        block[:3, :3] = odd.dense()
        block[3:, 3:] = even.dense()
        p = even_odd_permutation(5)
        back = conjugate_by_permutation(DenseSymMatrix(block), p.inverse())
        np.testing.assert_array_equal(back.entries, p_matrix.dense())


class TestPatternCheck:
    def test_tridiagonal_on_path(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 9):
            t = make_tridiagonal(rng.uniform(1, 2, n), rng.uniform(0.1, 1, n - 1))
            assert pattern_check(t, path_graph(n))

    def test_p_matrix_on_penta_support(self, p_matrix):
        assert pattern_check(p_matrix, penta_support_graph(5))

    def test_dense_positive_not_path(self):
        dense = DenseSymMatrix(np.ones((4, 4)))
        assert not pattern_check(dense, path_graph(4))

    def test_size_mismatch(self, a01):
        with pytest.raises(ValueError):
            pattern_check(a01, path_graph(4))

    def test_monotone_under_edge_addition(self):
        rng = np.random.default_rng(17)
        from bandpos import SimpleGraph

        for _ in range(40):
            n = int(rng.integers(2, 8))
            a = np.zeros((n, n))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            edges = []
            for i, j in pairs:
                if rng.random() < 0.4:
                    a[i, j] = a[j, i] = rng.uniform(0.1, 1)
                    edges.append((i + 1, j + 1))
            g = SimpleGraph(n, tuple(edges))
            assert pattern_check(DenseSymMatrix(a), g)
            extra = [(i + 1, j + 1) for i, j in pairs if rng.random() < 0.5]
            bigger = SimpleGraph(n, tuple(edges) + tuple(extra))
            assert pattern_check(DenseSymMatrix(a), bigger)


class TestSuperadditiveGap:
    def test_known_values(self):
        assert superadditive_gap(1.0, 1.0, 2.0) == pytest.approx(2.0)
        assert superadditive_gap(0.0, 3.0, 1.5) == pytest.approx(0.0)
        assert superadditive_gap(1.0, 2.0, 1.0) == pytest.approx(0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            superadditive_gap(-1.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            superadditive_gap(0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            superadditive_gap(1.0, 1.0, 0.5)

    def test_nonnegative_on_random_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            a, b = rng.uniform(0.0, 5.0, size=2)
            r = rng.uniform(1.0, 6.0)
            assert superadditive_gap(a, b, r) >= 0.0

    def test_equality_exactly_at_linear_or_degenerate(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a, b = rng.uniform(0.01, 5.0, size=2)
            assert superadditive_gap(a, b, 1.0) <= 1e-12
            assert superadditive_gap(0.0, b, rng.uniform(1.0, 6.0)) <= 1e-12 * (1 + b) ** 6
            assert superadditive_gap(a, b, rng.uniform(1.01, 6.0)) > 1e-12


class TestJsonFormat:
    def test_round_trip_tridiagonal(self, a01):
        parsed = matrix_from_json(matrix_to_json(a01))
        assert isinstance(parsed, BandSymMatrix) and parsed.bandwidth == 1
        np.testing.assert_array_equal(parsed.dense(), a01.dense())

    def test_round_trip_pentadiagonal(self, p_matrix):
        parsed = matrix_from_json(matrix_to_json(p_matrix))
        assert isinstance(parsed, BandSymMatrix) and parsed.is_pentadiagonal_form
        np.testing.assert_array_equal(parsed.dense(), p_matrix.dense())

    def test_round_trip_dense(self):
        m = DenseSymMatrix(np.array([[1.0, 0.25], [0.25, 2.0]]))
        parsed = matrix_from_json(matrix_to_json(m))
        assert isinstance(parsed, DenseSymMatrix)
        np.testing.assert_array_equal(parsed.entries, m.entries)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix kind"):
            matrix_from_json('{"kind": "toeplitz", "diag": [1]}')

    def test_wrong_fields_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json('{"kind": "tridiagonal", "diag": [1, 2], "rows": [[1]]}')
        with pytest.raises(ValueError):
            matrix_from_json('{"kind": "dense"}')

    def test_invalid_json_rejected(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            matrix_from_json("{kind: nope}")

    def test_nonsymmetric_dense_rejected(self):
        obj = {"kind": "dense", "rows": [[1.0, 2.0], [3.0, 4.0]]}
        with pytest.raises(ValueError, match="not symmetric"):
            matrix_from_json_obj(obj)

    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "tridiagonal", "diag": [1, 2.1, 0.1], "offdiag": [0.3, 1e-5]}',
            '{"kind": "pentadiagonal", "diag": [1, 2, 2, 1, 1], "second": [1, 0.7, 1]}',
            '{"kind": "dense", "rows": [[2, 0.1], [0.1, 1e-300]]}',
            '{"kind": "tridiagonal", "diag": [0.1, 1e-400], "offdiag": [3]}',
        ],
    )
    def test_exact_parse_matches_float_parse(self, text):
        m, exact = exact_matrix_from_json(text)
        want = matrix_from_json(text)
        assert type(m) is type(want)
        np.testing.assert_array_equal(m.dense(), want.dense())
        if isinstance(want, BandSymMatrix):
            # band input stays band-shaped: the main diagonal and the one
            # stored off-diagonal
            assert isinstance(exact, ExactBand)
            assert exact.offset == want.bandwidth
            entries = [*exact.diag, *exact.off]
            floats = [*want.main_diag, *want.off_diags[exact.offset - 1]]
        else:
            entries = [x for row in exact for x in row]
            floats = want.dense().ravel().tolist()
        assert all(isinstance(x, Fraction) for x in entries)
        assert [float(x) for x in entries] == floats

    def test_exact_parse_keeps_decimals_exact(self):
        _, exact = exact_matrix_from_json('{"kind": "pentadiagonal", "diag": [1, 2, 0.1], "second": [0.2]}')
        assert exact == ExactBand((Fraction(1), Fraction(2), Fraction(1, 10)), (Fraction(1, 5),), 2)
        _, rows = exact_matrix_from_json('{"kind": "dense", "rows": [[1, 0.2], [0.2, 0.1]]}')
        assert rows == [[1, Fraction(1, 5)], [Fraction(1, 5), Fraction(1, 10)]]

    @pytest.mark.parametrize("entry", ["1e400", "-1e400", "NaN", "1" + "0" * 400])
    def test_out_of_range_entries_rejected(self, entry):
        text = f'{{"kind": "dense", "rows": [[1, 0], [0, {entry}]]}}'
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json(text)
        with pytest.raises(ValueError, match="finite"):
            exact_matrix_from_json(text)

    def test_exact_parse_rejects_what_float_parse_rejects(self):
        for text in ('{"kind": "toeplitz", "diag": [1]}', "{kind: nope}", '{"kind": "dense", "rows": [[1, 2], [3, 4]]}'):
            with pytest.raises(ValueError):
                exact_matrix_from_json(text)

    def test_bandwidth_two_general_serializes_dense(self):
        m = BandSymMatrix(3, 2, np.ones(3), (np.array([0.5, 0.5]), np.array([0.2])))
        obj = matrix_to_json_obj(m)
        assert obj["kind"] == "dense"
        np.testing.assert_array_equal(np.array(obj["rows"]), m.dense())
