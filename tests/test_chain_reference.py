"""ratio_sequence and minimal_parameters against frozen copies of their
Fraction arithmetic.

The exact routes run on integers: each ratio is one Fraction(num, den) of
its entries' numerators and denominators, and the recursion carries
m_{k-1} as a reduced integer pair.  The references below do three Fraction
operations per ratio and one Fraction division, subtraction and comparison
per parameter, as those functions once did; the two must agree on every
value, on its type, and on every ChainReport field.
"""

from fractions import Fraction

import numpy as np
import pytest

from bandpos.chainseq import EXACT_LENGTH_LIMIT, ChainReport, minimal_parameters, ratio_sequence


def frozen_ratio_sequence(diag, off):
    """ratio_sequence in object arithmetic (frozen copy)."""
    diag, off = np.asarray(diag), np.asarray(off)
    if diag.dtype == object:
        return off * off / (diag[:-1] * diag[1:])
    (ma, ea), (mb, eb) = np.frexp(diag), np.frexp(off)
    with np.errstate(over="ignore"):
        return np.ldexp(mb * mb / (ma[:-1] * ma[1:]), 2 * eb - ea[:-1] - ea[1:])


def _ratio_outcome(fn, diag, off):
    """fn's ratios with their types and the array's dtype, or the error."""
    try:
        ratios = fn(diag, off)
    except (TypeError, ZeroDivisionError) as exc:
        return type(exc)
    return ratios.dtype, ratios.shape, _typed(ratios.tolist())


def _is_exact_number(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def frozen_minimal_parameters(a, *, split_at_zero=False):
    """minimal_parameters in Fraction arithmetic (frozen copy)."""
    seq = list(a)
    exact = len(seq) <= EXACT_LENGTH_LIMIT and all(_is_exact_number(x) for x in seq)
    params, boundary = [], False
    prev = Fraction(0) if exact else 0.0
    for k, ak in enumerate(seq, start=1):
        if not exact:
            ak = float(ak)
        m = ak / (1 - prev)
        params.append(m)
        if not (ak > 0 or (split_at_zero and ak == 0)):
            return ChainReport(False, tuple(params), k, exact, boundary)
        if not exact and abs(m - 1.0) <= 1e-12:
            boundary = True
        if m >= 1:
            return ChainReport(False, tuple(params), k, exact, boundary)
        prev = m
    return ChainReport(True, tuple(params), None, exact, boundary)


def _typed(values):
    return [(type(x), x) for x in values]


def _report_key(report):
    return (
        report.is_chain,
        _typed(report.minimal_params),
        report.failure_index,
        report.exact_mode,
        report.boundary_indeterminate,
    )


def _number(rng, style, low, high, zero=0.0):
    """A nonzero rational in [low, high) (zero with probability zero) as an
    int, a Fraction, or either, by style."""
    if rng.random() < zero:
        return 0 if style == "int" or (style == "mixed" and rng.random() < 0.5) else Fraction(0)
    if style == "int" or (style == "mixed" and rng.random() < 0.5):
        x = int(rng.integers(low, high))
        return x if x else 1
    x = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50))) * int(rng.integers(low, high) or 1)
    return x if x else Fraction(1, 3)


def chain_inputs(seed, count):
    """Seeded rational sequences: chain sequences a_k = (1 - g_{k-1}) g_k,
    some with a g_k of exactly 1 or above, some with zeros and negative
    terms, of lengths on both sides of EXACT_LENGTH_LIMIT, as ints,
    Fractions and both mixed."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        length = [1, 2, 5, EXACT_LENGTH_LIMIT, EXACT_LENGTH_LIMIT + 1][case % 5]
        kind = case % 4
        if kind == 0:
            g = [Fraction(int(rng.integers(1, 20)), 20) for _ in range(length)]
            if rng.random() < 0.5:
                g[int(rng.integers(0, length))] = Fraction(int(rng.integers(20, 23)), 20)  # 1 or above
            seq = [(1 - (g[k - 1] if k else 0)) * g[k] for k in range(length)]
        elif kind == 1:
            seq = [_number(rng, "mixed", -1, 2, zero=0.3) for _ in range(length)]
        elif kind == 2:
            seq = [_number(rng, "int", -1, 3, zero=0.4) for _ in range(length)]
        else:
            # zeros between short chain blocks, and Fractions of 1/4 that
            # reach m = 1 exactly after (1/4, 1/2, ... ) patterns
            seq = [Fraction(int(rng.choice([0, 1, 1, 1, 2])), 4) for _ in range(length)]
        if case % 7 == 3:
            seq = [int(x) if x == int(x) else x for x in seq]
        yield seq


def test_chain_inputs_reach_every_outcome():
    outcomes = set()
    for seq in chain_inputs(3, 400):
        for split in (False, True):
            report = frozen_minimal_parameters(seq, split_at_zero=split)
            m = report.minimal_params[-1]
            outcomes.add((report.exact_mode, report.is_chain, m == 1, m < 0, split and 0 in seq))
    assert {(True, False, True, False, False), (True, False, False, True, False)} <= outcomes
    assert (True, True, False, False, True) in outcomes and (False, True, False, False, False) in outcomes


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split-at-zero"])
def test_minimal_parameters_equal_the_fraction_recursion(split):
    for seq in chain_inputs(5, 600):
        got = minimal_parameters(seq, split_at_zero=split)
        assert _report_key(got) == _report_key(frozen_minimal_parameters(seq, split_at_zero=split)), seq


def test_minimal_parameter_of_exactly_one_fails():
    for split in (False, True):
        report = minimal_parameters([Fraction(1, 4), Fraction(3, 4)], split_at_zero=split)
        assert report == ChainReport(False, (Fraction(1, 4), Fraction(1)), 2, True)
        assert all(type(m) is Fraction for m in report.minimal_params)


def ratio_inputs(seed, count):
    """Seeded (diag, off) pairs of ints, Fractions and both mixed, with zero
    and negative couplings and negative diagonal entries, as tuples, lists
    and object arrays; some object arrays also hold floats."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n = int(rng.integers(1, 30))
        style = ("int", "fraction", "mixed")[case % 3]
        diag = [_number(rng, style, -2, 5) for _ in range(n)]
        off = [_number(rng, style, -3, 4, zero=0.2) for _ in range(n - 1)]
        if case % 5 == 4 and n > 1:
            off[int(rng.integers(0, n - 1))] = float(rng.uniform(-2.0, 2.0))
        if case % 5 == 3:
            diag[int(rng.integers(0, n))] = 0.5
        container = (tuple, list, lambda xs: np.array(xs, dtype=object))[case // 3 % 3]
        yield container(diag), container(off)


def test_ratio_sequence_equals_the_fraction_expression():
    kinds = set()
    for diag, off in ratio_inputs(7, 900):
        want = _ratio_outcome(frozen_ratio_sequence, diag, off)
        assert _ratio_outcome(ratio_sequence, diag, off) == want, (diag, off)
        if isinstance(want, tuple) and want[0] == object:
            # a float ratio of three ints, or of an object array with floats
            floats = any(isinstance(x, float) for x in (*diag, *off))
            kinds.update((kind, floats) for kind, _ in want[2])
    assert kinds == {(Fraction, False), (float, False), (Fraction, True), (float, True)}


def test_ratio_sequence_then_chain_as_the_cli_runs_them():
    for diag, off in ratio_inputs(11, 300):
        if not isinstance(_ratio_outcome(frozen_ratio_sequence, diag, off), tuple):
            continue
        ratios = list(ratio_sequence(diag, off))
        if ratios:
            want = frozen_minimal_parameters(list(frozen_ratio_sequence(diag, off)), split_at_zero=True)
            assert _report_key(minimal_parameters(ratios, split_at_zero=True)) == _report_key(want)


def test_a_zero_diagonal_entry_is_refused_for_every_input_type():
    # the frozen object arithmetic divides by zero; floats would give inf
    # with a divide-by-zero warning
    for diag in ((Fraction(1), 0, Fraction(2)), np.array([1, 0, 2], dtype=object)):
        with pytest.raises(ZeroDivisionError):
            frozen_ratio_sequence(diag, (Fraction(1, 2), 1))
    for diag, off in (
        (np.array([1.0, 0.0, 2.0]), np.array([0.5, 1.0])),
        (np.array([1.0, -0.0]), np.array([0.5])),
        ((Fraction(1), Fraction(0), Fraction(2)), (Fraction(1, 2), Fraction(1))),
        ((Fraction(1), 0, Fraction(2)), (Fraction(1, 2), 1)),
        (np.array([1, 0, 2], dtype=object), np.array([1, 1], dtype=object)),
    ):
        with pytest.raises(ValueError, match="^diagonal entries must be nonzero$"):
            ratio_sequence(diag, off)
