"""Band matrix construction, Hadamard powers, the odd/even split of
pentadiagonal matrices, and the JSON wire format."""

import json
import math
import random
import re
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from bandpos import (
    BandSymMatrix,
    DenseSymMatrix,
    ExactBand,
    exact_matrix_from_json,
    hadamard_power,
    join_pentadiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    matrix_from_json,
    split_pentadiagonal,
    sym_eigenvalues,
)
from bandpos.bandmat import _float_array, matrix_from_json_obj, matrix_to_json_obj, to_dense_array

from conftest import P_DENSE


def _band_json(kind, diag, off):
    """matrix_from_json of a band kind with the given diagonals."""
    key = "offdiag" if kind == "tridiagonal" else "second"
    return matrix_from_json(json.dumps({"kind": kind, "diag": diag, key: off}))


NESTED_MAIN = "main diagonal must be a flat list of numbers, got nesting depth 2"


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

    @pytest.mark.parametrize(
        "build,args,message",
        [
            # a nested main diagonal is refused for its nesting, before its
            # length is read
            (BandSymMatrix, (1, [[1, 2], [3, 4]], [5]), NESTED_MAIN),
            (_band_json, ("tridiagonal", [[1, 2], [3, 4]], [5]), NESTED_MAIN),
            (_band_json, ("pentadiagonal", [[1, 2], [3, 4], [5, 6]], [1]), NESTED_MAIN),
            (make_tridiagonal, ([1, 2, 3], [1]), "off-diagonal must have 2 entries, got 1"),
            (_band_json, ("tridiagonal", [1, 2], [1, 1]), "off-diagonal must have 1 entries, got 2"),
            (make_pentadiagonal, ([1, 1, 1], [1, 1]), "second diagonal must have 1 entries, got 2"),
            (_band_json, ("pentadiagonal", [1, 1, 1, 1], [1]), "second diagonal must have 2 entries, got 1"),
            (BandSymMatrix, (3, np.ones(4), [1.0]), "bandwidth must be 1 or 2"),
            (make_pentadiagonal, ([1, 1], []), "pentadiagonal matrices need order >= 3"),
            (_band_json, ("pentadiagonal", [1], []), "pentadiagonal matrices need order >= 3"),
            (make_tridiagonal, ([1, np.nan], [0.5]), "all entries must be finite"),
            (make_pentadiagonal, ([1, 1, 1], [np.inf]), "all entries must be finite"),
            (_band_json, ("tridiagonal", [1, 1e400], [1]), "all entries must be finite"),
            (make_tridiagonal, ([], []), "order must be at least 1"),
            (_band_json, ("tridiagonal", [], []), "order must be at least 1"),
            (
                _band_json,
                ("tridiagonal", [1, 2, 3], [[1], [1]]),
                "off-diagonal must be a flat list of numbers, got nesting depth 2",
            ),
            (
                _band_json,
                ("pentadiagonal", [1, 2, 3], [[0.5]]),
                "second diagonal must be a flat list of numbers, got nesting depth 2",
            ),
            (make_tridiagonal, ([1, 2], 0.5), "off-diagonal must be a flat list of numbers, got nesting depth 0"),
            # ragged nesting: refused in bandpos's words, not numpy's
            (_band_json, ("tridiagonal", [[1], [2, 3]], [0.5]), "entries must form a rectangular array of numbers"),
            (
                matrix_from_json,
                ('{"kind": "dense", "rows": [[1, 2], [3]]}',),
                "entries must form a rectangular array of numbers",
            ),
            # one row of main diagonal, nested: no longer read as order 1
            (_band_json, ("tridiagonal", [[1, 2]], [1]), NESTED_MAIN),
            (_band_json, ("pentadiagonal", [[1, 2, 3]], [1]), NESTED_MAIN),
        ],
    )
    def test_refusals(self, build, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(*args)

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

    def test_zero_power_of_dense_input(self):
        entries = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 0.5], [1.0, 0.5, 4.0]])
        powered = hadamard_power(DenseSymMatrix(entries), 0)
        assert isinstance(powered, DenseSymMatrix)
        np.testing.assert_array_equal(powered.entries, np.ones((3, 3)))
        # a raw array stays an array and need not be symmetric
        for raw in (entries, np.array([[1.0, 2.0], [0.0, 1.0]])):
            powered = hadamard_power(raw, 0)
            assert type(powered) is np.ndarray
            np.testing.assert_array_equal(powered, np.ones(raw.shape))

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
        assert powered.bandwidth == 2

    def test_raw_array_of_order_zero_refused(self):
        with pytest.raises(ValueError, match="order must be at least 1"):
            hadamard_power(np.zeros((0, 0)), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_raw_array_with_non_finite_entry_refused(self, bad):
        with pytest.raises(ValueError, match="all entries must be finite"):
            hadamard_power(np.array([[1.0, bad], [bad, 1.0]]), 2)

    def test_overflowing_power_refused_without_warning(self):
        big = np.array([[1e200, 0.0], [0.0, 1.0]])
        for a in (big, DenseSymMatrix(big), make_tridiagonal([1e200, 1.0], [0.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^all entries must be finite$"):
                    hadamard_power(a, 2)

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


def _odd_then_even(n):
    """Indices 0..n-1 relabelled odd labels first (0, 2, ...), then even."""
    return np.r_[0:n:2, 1:n:2]


class TestPermutation:
    def test_p_matrix_block_form(self, p_matrix):
        idx = _odd_then_even(5)
        m = p_matrix.dense()[np.ix_(idx, idx)]
        a_odd = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        a_even = np.array([[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_array_equal(m[:3, :3], a_odd)
        np.testing.assert_array_equal(m[3:, 3:], a_even)
        np.testing.assert_array_equal(m[:3, 3:], np.zeros((3, 2)))
        odd, even = split_pentadiagonal(p_matrix)
        np.testing.assert_array_equal(odd.dense(), a_odd)
        np.testing.assert_array_equal(even.dense(), a_even)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = DenseSymMatrix(_random_symmetric_positive(rng, n))
            perm = rng.permutation(n)
            conj = DenseSymMatrix(a.entries[np.ix_(perm, perm)])
            np.testing.assert_allclose(sym_eigenvalues(conj), sym_eigenvalues(a), atol=1e-12)


class TestSplit:
    def test_p_matrix_split(self, p_matrix):
        odd, even = split_pentadiagonal(p_matrix)
        # independent extraction straight from the dense principal submatrices
        dense = p_matrix.dense()
        np.testing.assert_array_equal(odd.dense(), dense[np.ix_([0, 2, 4], [0, 2, 4])])
        np.testing.assert_array_equal(even.dense(), dense[np.ix_([1, 3], [1, 3])])
        np.testing.assert_array_equal(odd.main_diag, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(odd.off, [1.0, 1.0])
        np.testing.assert_array_equal(even.main_diag, [2.0, 1.0])
        np.testing.assert_array_equal(even.off, [1.0])

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
        inverse = np.argsort(_odd_then_even(5))
        back = block[np.ix_(inverse, inverse)]
        np.testing.assert_array_equal(back, p_matrix.dense())


class TestJsonFormat:
    def test_round_trip_tridiagonal(self, a01):
        parsed = matrix_from_json(json.dumps(matrix_to_json_obj(a01)))
        assert isinstance(parsed, BandSymMatrix) and parsed.bandwidth == 1
        np.testing.assert_array_equal(parsed.dense(), a01.dense())

    def test_round_trip_pentadiagonal(self, p_matrix):
        parsed = matrix_from_json(json.dumps(matrix_to_json_obj(p_matrix)))
        assert isinstance(parsed, BandSymMatrix) and parsed.bandwidth == 2
        np.testing.assert_array_equal(parsed.dense(), p_matrix.dense())

    def test_round_trip_dense(self):
        m = DenseSymMatrix(np.array([[1.0, 0.25], [0.25, 2.0]]))
        parsed = matrix_from_json(json.dumps(matrix_to_json_obj(m)))
        assert isinstance(parsed, DenseSymMatrix)
        np.testing.assert_array_equal(parsed.entries, m.entries)

    def test_unknown_kind_rejected(self):
        # a kind that is not a string is unknown too, not a TypeError
        for text in ('{"kind": "toeplitz", "diag": [1]}', '{"kind": ["dense"], "rows": [[1]]}'):
            with pytest.raises(ValueError, match="unknown matrix kind"):
                matrix_from_json(text)

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
            # a scalar main diagonal is order 1 in both parses
            '{"kind": "tridiagonal", "diag": 5, "offdiag": []}',
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
            floats = [*want.main_diag, *want.off]
        else:
            entries = [x for row in exact for x in row]
            floats = want.dense().ravel().tolist()
        assert all(isinstance(x, Fraction) for x in entries)
        assert [float(x) for x in entries] == floats

    @pytest.mark.parametrize(
        "entry",
        ["-0.0", "-0", "1e-320", "2.2250738585072011e-308", "9007199254740993", "0.1", "1e308", "1e400", "NaN",
         "[1, 2]", "0." + "3" * 5000, "1" + "0" * 5000, "2.4703282292062328e-324", "1.7976931348623159e308",
         "18446744073709551616", "123456789012345678901234567890",
         "0.1000000000000000055511151231257827021181583404541015625"],
        ids=lambda entry: entry if len(entry) < 30 else f"{len(entry)}-chars-{entry[:2]}",
    )
    @pytest.mark.parametrize("kind", ["tridiagonal", "pentadiagonal", "dense"])
    def test_both_parses_give_the_same_float_matrix(self, kind, entry):
        # the same bytes, -0.0 and subnormals included, or the same refusal:
        # a list entry makes the record ragged, a 5001-digit integer meets
        # int's digit limit in both parses, a 5000-digit decimal none
        text = {
            "tridiagonal": f'{{"kind": "tridiagonal", "diag": [{entry}, 1, 2], "offdiag": [0.5, {entry}]}}',
            "pentadiagonal": f'{{"kind": "pentadiagonal", "diag": [1, {entry}, 2], "second": [{entry}]}}',
            "dense": f'{{"kind": "dense", "rows": [[{entry}, 0.5], [0.5, {entry}]]}}',
        }[kind]
        outcomes = []
        for parse in (matrix_from_json, lambda t: exact_matrix_from_json(t)[0]):
            try:
                m = parse(text)
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                arrays = (m.main_diag, m.off) if isinstance(m, BandSymMatrix) else (m.entries,)
                outcomes.append((type(m), b"".join(a.tobytes() for a in arrays)))
        assert outcomes[0] == outcomes[1]

    def test_both_parses_agree_on_random_number_texts(self):
        # the float parse reads with orjson, the exact one with json: random
        # doubles' repr, 25-digit mantissas across the exponent range, near-halfway
        # decimals of 15-30 digits, long fixed decimals and 19-320-digit
        # integers, about 2,000 in one dense text and one band text
        rng = random.Random(31)
        sign = lambda: rng.choice(("", "-"))
        digits = lambda k: str(rng.randint(10 ** (k - 1), 10**k - 1))
        texts = []
        for _ in range(400):
            x = math.ldexp(rng.random(), rng.randint(-1074, 1024))
            mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
            texts += [
                sign() + repr(x),
                f"{sign()}{digits(1)}.{digits(24)}e{rng.randint(-330, 310)}",
                sign() + format(mid, f".{rng.randint(14, 29)}e"),
                f"{sign()}{rng.randint(0, 10**6)}.{'0' * rng.randint(0, 30)}{digits(rng.randint(20, 60))}",
                sign() + digits(rng.randint(19, 320)),
            ]
        finite = [t for t in texts if math.isfinite(float(t))]
        # the ones beyond the float range are refused alike, one at a time
        beyond = ['{"kind": "dense", "rows": [[%s]]}' % t for t in texts if not math.isfinite(float(t))]
        assert 0 < len(beyond) < 100
        n = 62
        rows = [[None] * n for _ in range(n)]
        for (i, j), t in zip(((i, j) for i in range(n) for j in range(i, n)), finite):
            rows[i][j] = rows[j][i] = t
        dense = '{"kind": "dense", "rows": [%s]}' % ", ".join("[%s]" % ", ".join(row) for row in rows)
        half = (len(finite) + 1) // 2
        band = '{"kind": "tridiagonal", "diag": [%s], "offdiag": [%s]}' % (
            ", ".join(finite[:half]), ", ".join(finite[half : 2 * half - 1]))
        for text in [dense, band, *beyond]:
            outcomes = []
            for parse in (matrix_from_json, lambda t: exact_matrix_from_json(t)[0]):
                try:
                    m = parse(text)
                except ValueError as exc:
                    outcomes.append(str(exc))
                else:
                    arrays = (m.main_diag, m.off) if isinstance(m, BandSymMatrix) else (m.entries,)
                    outcomes.append(b"".join(a.tobytes() for a in arrays))
            assert outcomes[0] == outcomes[1]
            assert isinstance(outcomes[0], bytes) is (text in (dense, band))

    @pytest.mark.parametrize("parse", [matrix_from_json, exact_matrix_from_json])
    @pytest.mark.parametrize(
        "text", [b'{"kind": "tridiagonal", "diag": [1, 2], "offdiag": [0.5]}', bytearray(b"[]")], ids=["bytes", "bytearray"]
    )
    def test_text_that_is_not_a_str_rejected(self, parse, text):
        with pytest.raises(TypeError, match=f"matrix JSON must be a str, not {type(text).__name__}"):
            parse(text)

    def test_exact_parse_keeps_the_sign_of_zero_and_long_decimals(self):
        m, exact = exact_matrix_from_json('{"kind": "tridiagonal", "diag": [-0.0, 1, 2], "offdiag": [0, 0.5]}')
        assert math.copysign(1.0, m.main_diag[0]) == -1.0 and exact.diag[0] == 0
        digits = "0." + "3" * 5000
        _, exact = exact_matrix_from_json(f'{{"kind": "tridiagonal", "diag": [{digits}], "offdiag": []}}')
        assert exact.diag == (Fraction(int("3" * 4000) * 10**1000 + int("3" * 1000), 10**5000),)

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


def _numpy_float_array(x):
    """x as numpy reads it, with bandpos's refusals: the float conversion
    before lists of row lists were packed by struct."""
    try:
        return np.array(x, dtype=float)
    except OverflowError as exc:
        raise ValueError("all entries must be finite") from exc
    except ValueError as exc:
        raise ValueError("entries must form a rectangular array of numbers") from exc


def _conversion(convert, x):
    """The shape and bytes of convert(x), or the type and message of what it raised."""
    try:
        a = convert(x)
    except Exception as exc:
        return type(exc), str(exc)
    return a.shape, a.tobytes()


# 2**1024 - 2**970 is the least integer that float() rounds beyond the
# largest double, so it overflows and the one below it does not
FLOAT_EDGE = 2**1024 - 2**970
ROW_ENTRIES = [
    0.0, -0.0, 1.5, -2.25, 0.1, 5e-324, -5e-324, 1.5e-310, 1e308, -1e308, sys.float_info.max,
    0, 1, -7, 2**53 + 1, -(2**53 + 1), 2**64 + 1, FLOAT_EDGE - 1, -(FLOAT_EDGE - 1),
    Decimal("0.1"), Decimal("-0"), Decimal("1e-400"), Decimal("2.5e-320"), Fraction(1, 3), Fraction(-(2**60), 3),
    True, False, np.float32(0.1), np.float16(-0.5), np.int64(2**62 + 1), np.uint64(2**64 - 1), np.float64(-0.0),
]
# entries struct refuses and numpy reads: as 1.5 and as nan
NUMPY_ONLY = ["1.5", None]


class TestRowConversion:
    def test_rows_read_bit_for_bit_as_numpy_reads_them(self):
        rng = random.Random(33)
        numpy_only = 0
        for _ in range(400):
            n, m = rng.randint(1, 6), rng.randint(0, 6)
            pool = ROW_ENTRIES + NUMPY_ONLY * (rng.random() < 0.3)
            rows = [[rng.choice(pool) for _ in range(m)] for _ in range(n)]
            numpy_only += any(isinstance(x, (str, type(None))) for row in rows for x in row)
            want = _numpy_float_array(rows)
            got = _float_array(rows)
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), rows
            assert got.flags.writeable
        assert numpy_only > 20

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ([[1.0, 2.0], [3.0]], ValueError, "rectangular"),
            ([[1.0], [2.0, 3.0]], ValueError, "rectangular"),
            ([[1.0, 2.0], 3.0], ValueError, "rectangular"),
            ([[1.0, [2.0]], [3.0, 4.0]], ValueError, "rectangular"),
            ([[1.0, 2.0], {3: 0, 4: 0}], ValueError, "rectangular"),
            ([[[1.0]]], None, None),
            ([[1j]], TypeError, "complex"),
            ([[1.0, 2 + 0j], [0.0, 1.0]], TypeError, "complex"),
            ([[FLOAT_EDGE]], ValueError, "finite"),
            ([[1.0, -(2**1024)]], ValueError, "finite"),
            ([[Fraction(2**1100, 3)]], ValueError, "finite"),
        ],
        ids=[
            "short-row", "long-row", "scalar-row", "nested-entry", "dict-row", "deeper", "complex",
            "complex-row", "int-at-float-edge", "negative-int-beyond", "fraction-beyond",
        ],
    )
    def test_refusals_and_nesting_as_numpys(self, rows, error, message):
        got = _conversion(_float_array, rows)
        assert got == _conversion(_numpy_float_array, rows)
        if error is None:
            assert got[0] == (1, 1, 1)
        else:
            assert got[0] is error and message in got[1]

    def test_raw_rows_stay_writable_for_the_spectrum(self):
        rows = [[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 2.0]]
        a = to_dense_array(rows)
        assert a.flags.writeable and a.flags.c_contiguous and a.dtype == np.float64
        assert sym_eigenvalues(rows).tolist() == sym_eigenvalues(np.array(rows)).tolist()
