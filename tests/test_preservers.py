"""Preserver sets, counterexamples below exponent 1, the probe harness,
infinite divisibility, and polynomial closure."""

import math
import warnings

import numpy as np
import pytest

from bandpos import (
    DEFAULT_ID_GRID,
    INDEFINITE,
    PD,
    BandSymMatrix,
    DenseSymMatrix,
    PowerSet,
    classify_positivity,
    counterexample_pentadiagonal,
    counterexample_tridiagonal,
    determinant,
    hadamard_power,
    id_blocks,
    id_numeric_probe,
    id_verdict,
    is_id_pentadiagonal,
    is_id_tridiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    path_graph,
    penta_preserver_set,
    polynomial_apply,
    probe_preserves,
    random_pd_pattern,
    random_pd_pentadiagonal,
    random_pd_tridiagonal,
    tridiag_preserver_set,
)
from bandpos.bandmat import matrix_from_json_obj

EPS_GRID = (0.01, 0.1, 1.0, 10.0)
R_GRID = (0.1, 0.5, 0.9, 1.0, 2.0, 3.7)


class TestPowerSet:
    def test_interval_membership(self):
        ps = PowerSet(1.0)
        assert 1.0 in ps and 2.5 in ps
        assert 0.5 not in ps and 0.999 not in ps

    def test_naturals_membership(self):
        ps = PowerSet(3.0, includes_naturals=True)
        assert 1 in ps and 2 in ps and 3 in ps and 4.7 in ps
        assert 2.5 not in ps and 0.5 not in ps and 0 not in ps

    def test_zero_tail_contains_zero(self):
        assert 0.0 in PowerSet(0.0)

    def test_render(self):
        assert PowerSet(1.0).render() == "[1, ∞)"
        assert PowerSet(3.0, includes_naturals=True).render() == "ℕ ∪ [3, ∞)"
        assert PowerSet(1.0, includes_naturals=True).render() == "[1, ∞)"
        assert PowerSet(0.0).render() == "[0, ∞)"

    def test_normalized_collapses_redundant_naturals(self):
        assert PowerSet(1.0, includes_naturals=True).normalized() == PowerSet(1.0)
        assert PowerSet(3.0, includes_naturals=True).normalized() == PowerSet(
            3.0, includes_naturals=True
        )

    def test_negative_tail_rejected(self):
        with pytest.raises(ValueError):
            PowerSet(-0.5)

    @pytest.mark.parametrize("tail", [math.nan, math.inf])
    def test_non_finite_tail_rejected(self, tail):
        # a NaN tail rendered "[nan, ∞)" and held no exponent
        with pytest.raises(ValueError, match="^tail threshold must be nonnegative"):
            PowerSet(tail)


class TestPreserverSets:
    def test_tridiagonal(self):
        for n in (3, 10):
            ps = tridiag_preserver_set(n)
            assert ps.normalized() == PowerSet(1.0)
        for bad in (2, 3.7, 3.0, True, "5"):
            with pytest.raises(ValueError):
                tridiag_preserver_set(bad)

    def test_pentadiagonal(self):
        assert penta_preserver_set(3) == PowerSet(0.0)
        assert penta_preserver_set(4) == PowerSet(0.0)
        assert penta_preserver_set(5) == PowerSet(1.0)
        assert penta_preserver_set(9) == PowerSet(1.0)
        assert penta_preserver_set(np.int64(4)) == PowerSet(0.0)
        for bad in (2, 5.5, 4.0, True, None):
            with pytest.raises(ValueError):
                penta_preserver_set(bad)


class TestCounterexamples:
    def test_tridiagonal_half(self):
        m = counterexample_tridiagonal(0.5)
        np.testing.assert_array_equal(m.main_diag, [1.0, 3.0, 1.0])
        np.testing.assert_array_equal(m.off, [1.0, 1.0])
        assert classify_positivity(m).classification == PD
        powered = hadamard_power(m, 0.5)
        assert determinant(powered) == pytest.approx(math.sqrt(3) - 2.0, rel=1e-12)
        assert classify_positivity(powered).classification == INDEFINITE

    def test_tridiagonal_near_one(self):
        m = counterexample_tridiagonal(0.99)
        eps = float(m.main_diag[1]) - 2.0
        assert eps == pytest.approx((2 ** (1 / 0.99) - 2) / 2, rel=1e-14)
        det = determinant(hadamard_power(m, 0.99))
        assert det < 0
        assert det == pytest.approx((2 + eps) ** 0.99 - 2, rel=1e-12)

    def test_tridiagonal_window_sweep(self):
        for r in (0.05, 0.2, 0.5, 0.8, 0.95):
            m = counterexample_tridiagonal(r)
            assert classify_positivity(m).classification == PD
            assert classify_positivity(hadamard_power(m, r)).classification == INDEFINITE

    def test_tridiagonal_domain(self):
        for r in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                counterexample_tridiagonal(r)

    def test_pentadiagonal_fixed_matrix(self, p_matrix):
        m = counterexample_pentadiagonal(0.5)
        np.testing.assert_array_equal(m.dense(), p_matrix.dense())
        det = determinant(hadamard_power(m, 0.5))
        assert det == pytest.approx(2 - 3 * 2**0.5 + 4**0.5, rel=1e-12)
        assert classify_positivity(hadamard_power(m, 0.5)).classification == INDEFINITE

    def test_pentadiagonal_quarter(self):
        m = counterexample_pentadiagonal(0.25)
        det = determinant(hadamard_power(m, 0.25))
        assert det == pytest.approx(2 - 3 * 2**0.25 + 4**0.25, rel=1e-12)
        assert det < 0

    def test_pentadiagonal_domain(self):
        for r in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                counterexample_pentadiagonal(r)


class TestGoldenDeterminants:
    def test_tridiagonal_family(self):
        for eps in EPS_GRID:
            m = make_tridiagonal([1.0, 2.0 + eps, 1.0], [1.0, 1.0])
            for r in R_GRID:
                det = determinant(hadamard_power(m, r).dense())
                assert det == pytest.approx((2 + eps) ** r - 2, rel=1e-12)

    def test_pentadiagonal_family(self, p_matrix):
        for r in R_GRID:
            det = determinant(hadamard_power(p_matrix, r).dense())
            expected = 2 - 3 * 2**r + 4**r
            assert det == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestGenerators:
    def test_random_tridiagonal_is_pd(self):
        for i in range(25):
            rng = np.random.default_rng([101, i])
            t = random_pd_tridiagonal(rng, int(rng.integers(1, 13)))
            assert classify_positivity(t).classification == PD

    def test_random_pentadiagonal_is_pd(self):
        for i in range(25):
            rng = np.random.default_rng([103, i])
            p = random_pd_pentadiagonal(rng, int(rng.integers(3, 9)))
            assert p.bandwidth == 2
            assert classify_positivity(p).classification == PD

    def test_random_pattern_is_pd_with_pattern(self):
        from bandpos import penta_support_graph

        for i, g in enumerate([path_graph(6), penta_support_graph(7)]):
            rng = np.random.default_rng([107, i])
            m = random_pd_pattern(rng, g)
            assert classify_positivity(m).classification == PD
            # every off-diagonal nonzero sits on an edge of g
            rows, cols = np.nonzero(m.entries - np.diag(np.diag(m.entries)))
            assert all(g.has_edge(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()))


class TestProbe:
    def test_no_falsification_at_r_above_one(self):
        report = probe_preserves("tridiagonal", 1.5, 200, seed=7)
        assert report.min_over_samples >= -1e-10
        assert report.samples == 200 and report.exponent == 1.5 and report.seed == 7

    def test_injected_counterexample(self):
        report = probe_preserves("tridiagonal", 0.5, 1, seed=7)
        assert report.min_over_samples < 0
        np.testing.assert_array_equal(
            report.worst_case.dense(), counterexample_tridiagonal(0.5).dense()
        )

    def test_injection_with_more_samples_still_falsifies(self):
        report = probe_preserves("pentadiagonal", 0.5, 10, seed=3)
        assert report.min_over_samples < 0

    def test_reproducible(self):
        r1 = probe_preserves("pentadiagonal", 2.0, 40, seed=11)
        r2 = probe_preserves("pentadiagonal", 2.0, 40, seed=11)
        assert r1.min_over_samples == r2.min_over_samples
        np.testing.assert_array_equal(r1.worst_case.dense(), r2.worst_case.dense())

    def test_graph_family(self):
        report = probe_preserves("graph", 2.0, 30, seed=13, graph=path_graph(6))
        assert report.min_over_samples >= -1e-10

    @pytest.mark.parametrize("family,orders", [("tridiagonal", range(3, 13)), ("pentadiagonal", range(5, 9))])
    def test_sample_orders_span_the_family_range(self, family, orders):
        # a one-sample probe at r >= 1 injects nothing, so its worst case is
        # the drawn sample; every order of the family's range is drawn
        drawn = {probe_preserves(family, 2.0, 1, seed).worst_case.order for seed in range(150)}
        assert drawn == set(orders)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            probe_preserves("tridiagonal", 1.5, 0, seed=1)
        with pytest.raises(ValueError):
            probe_preserves("hexagonal", 1.5, 10, seed=1)
        with pytest.raises(ValueError):
            probe_preserves("tridiagonal", 0.0, 10, seed=1)
        with pytest.raises(ValueError):
            probe_preserves("graph", 1.5, 10, seed=1)

    @pytest.mark.parametrize("family", ["tridiagonal", "pentadiagonal", "Tridiagonal"])
    def test_band_family_refuses_a_graph(self, family):
        # before, the graph was silently ignored
        with pytest.raises(ValueError, match=f"^the {family.lower()} family takes no graph$"):
            probe_preserves(family, 1.5, 4, seed=1, graph=path_graph(4))

    @pytest.mark.parametrize("family", [3, None])
    def test_family_that_is_not_a_string_refused(self, family):
        # before, family.lower() raised AttributeError
        with pytest.raises(ValueError, match="^unknown family: "):
            probe_preserves(family, 1.5, 2, 0)

    @pytest.mark.parametrize(
        "samples,seed,message",
        [
            (16, -1, "^seed must be a non-negative integer$"),
            (16, 1.5, "^seed must be a non-negative integer$"),
            (16, True, "^seed must be a non-negative integer$"),
            (16, "7", "^seed must be a non-negative integer$"),
            (3.0, 1, "^samples must be a positive integer$"),
            (True, 1, "^samples must be a positive integer$"),
            (0, 1, "^samples must be a positive integer$"),
            (-4, 1, "^samples must be a positive integer$"),
        ],
    )
    def test_samples_and_seed_refused_before_any_draw(self, monkeypatch, samples, seed, message):
        # before, seed -1 leaked numpy's "expected non-negative integer",
        # seed 1.5 and samples 3.0 a TypeError, and samples True ran once
        from bandpos import preservers

        def refuse(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(preservers.np.random, "default_rng", refuse)
        for family, graph in (("tridiagonal", None), ("pentadiagonal", None), ("graph", path_graph(4))):
            with pytest.raises(ValueError, match=message):
                probe_preserves(family, 1.5, samples, seed, graph=graph)

    def test_numpy_integer_samples_and_seed_accepted(self):
        want = probe_preserves("pentadiagonal", 2.0, 12, 5)
        got = probe_preserves("pentadiagonal", 2.0, np.int64(12), np.uint8(5))
        assert (got.samples, got.seed) == (12, 5) and type(got.samples) is int and type(got.seed) is int
        assert got.min_over_samples.hex() == want.min_over_samples.hex()

    def test_benchmark_probes_take_at_most_half_the_sturm_counts(self, monkeypatch):
        # the two probes of the cli-exact benchmark workload; bisecting every
        # sample in full took 560 and 544 scalar Sturm counts.  A sample that
        # cannot set a new minimum stops once its bracket clears the minimum.
        from bandpos import positivity

        calls = 0
        real = positivity._negcount

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(positivity, "_negcount", counted)
        for family, r, full in (("tridiagonal", 0.5, 560), ("pentadiagonal", 2.0, 544)):
            calls = 0
            probe_preserves(family, r, 16, 1)
            assert 0 < calls <= full // 2, family

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_exponent_refused(self, r):
        for family, graph in (("tridiagonal", None), ("pentadiagonal", None), ("graph", path_graph(4))):
            with pytest.raises(ValueError, match="^exponent must be finite$"):
                probe_preserves(family, r, 5, seed=1, graph=graph)

    @pytest.mark.parametrize(
        "family,graph", [("tridiagonal", None), ("pentadiagonal", None), ("graph", path_graph(4))]
    )
    def test_overflowing_power_refused_without_warning(self, family, graph):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^all entries must be finite$"):
                probe_preserves(family, 700.0, 5, seed=1, graph=graph)

    def test_report_json_round_trip(self):
        report = probe_preserves("tridiagonal", 1.3, 20, seed=5)
        obj = report.to_json_obj()
        assert set(obj) == {"samples", "exponent", "min_over_samples", "worst_case", "seed"}
        parsed = matrix_from_json_obj(obj["worst_case"])
        np.testing.assert_array_equal(parsed.dense(), report.worst_case.dense())


class TestInfiniteDivisibility:
    def test_consecutive_offdiag_not_id(self):
        assert not is_id_tridiagonal(make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]))

    def test_diagonal_is_id(self):
        assert is_id_tridiagonal(make_tridiagonal([1.0, 2.0, 3.0], [0.0, 0.0]))

    def test_block_example_is_id(self):
        t = make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0])
        assert is_id_tridiagonal(t)
        assert id_numeric_probe(t)

    def test_psd_required(self):
        # pattern fine (isolated off-diagonal) but the 2x2 block is indefinite
        t = make_tridiagonal([1.0, 1.0, 5.0], [2.0, 0.0])
        assert not is_id_tridiagonal(t)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            is_id_tridiagonal(make_tridiagonal([1.0, 1.0], [-0.5]))

    def test_p_matrix_not_id(self, p_matrix):
        assert not is_id_pentadiagonal(p_matrix)

    def test_psd_order_four_always_id(self):
        for i in range(20):
            rng = np.random.default_rng([109, i])
            p = random_pd_pentadiagonal(rng, 4)
            assert is_id_pentadiagonal(p)

    def test_diagonal_penta_is_id(self):
        p = make_pentadiagonal([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.0])
        assert is_id_pentadiagonal(p)

    def test_penta_wrong_form_rejected(self, a01):
        with pytest.raises(ValueError):
            is_id_pentadiagonal(a01)

    def test_id_blocks(self):
        t = make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0])
        blocks = id_blocks(t)
        assert [b.order for b in blocks] == [2, 1]
        np.testing.assert_array_equal(blocks[0].dense(), np.ones((2, 2)))
        np.testing.assert_array_equal(blocks[1].dense(), [[5.0]])

    def test_id_blocks_diagonal(self):
        blocks = id_blocks(make_tridiagonal([1.0, 2.0], [0.0]))
        assert [b.order for b in blocks] == [1, 1]

    def test_id_blocks_rejects_non_id(self):
        with pytest.raises(ValueError):
            id_blocks(make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]))

    def test_id_blocks_orders_bounded(self):
        rng = np.random.default_rng(113)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            mask = rng.uniform(size=n - 1) < 0.5
            for j in range(n - 2):
                if mask[j] and mask[j + 1]:
                    mask[j + 1] = False
            off = np.where(mask, rng.uniform(0.2, 1.0, n - 1), 0.0)
            diag = np.zeros(n)
            diag[:-1] += off
            diag[1:] += off
            diag += rng.uniform(0.1, 1.0, n)
            t = make_tridiagonal(diag, off)
            assert all(b.order <= 2 for b in id_blocks(t))


class TestIdVerdict:
    def test_four_reasons(self):
        cases = [
            (make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0]), True,
             "PSD with no two consecutive nonzero off-diagonal entries"),
            (make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]), False,
             "not ID: off-diagonal entries 1 and 2 are both nonzero"),
            (make_pentadiagonal([3.0] * 7, [0.0, 1.0, 0.0, 1.0, 0.0]), False,
             "not ID: consecutive nonzero entries in the even-position second-diagonal subsequence"),
            (make_tridiagonal([1.0, 1.0, 5.0], [2.0, 0.0]), False, "not ID: matrix is not PSD"),
        ]
        for m, expected, reason in cases:
            verdict = id_verdict(m)
            assert (verdict.infinitely_divisible, verdict.reason) == (expected, reason)

    def test_odd_parity_reported_first(self, p_matrix):
        assert "odd-position" in id_verdict(p_matrix).reason

    def test_blocks_only_for_id_tridiagonal(self):
        verdict = id_verdict(make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0]))
        assert [b.order for b in verdict.blocks] == [2, 1]
        assert id_verdict(make_pentadiagonal([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.0, 0.0])).blocks == ()
        assert id_verdict(make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0])).blocks == ()

    def test_pentadiagonal_classified_block_by_block(self, monkeypatch):
        from bandpos import preservers

        seen = []
        real = preservers._indefinite

        def spy(form, *args):
            seen.append(len(form[2]))
            return real(form, *args)

        monkeypatch.setattr(preservers, "_indefinite", spy)
        assert id_verdict(make_pentadiagonal([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.5, 0.0])).infinitely_divisible
        assert seen == [3, 2]
        seen.clear()
        # an ID tridiagonal input is classified once, blocks included
        assert id_blocks(make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0]))
        assert seen == [3]

    def test_rejects_other_input(self):
        for bad in (DenseSymMatrix(np.eye(3)), make_tridiagonal([1.0, 1.0], [-0.5])):
            with pytest.raises(ValueError):
                id_verdict(bad)

    def test_exact_zeros_only_count_as_zero(self):
        t, d = make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]), make_tridiagonal([1.0, 0.0, 1.0], [0.0, 0.0])
        assert not is_id_tridiagonal(t)
        verdict = id_verdict(d)
        assert verdict.infinitely_divisible and [b.order for b in verdict.blocks] == [1, 1, 1]
        # entries of 1e-170 with two nonzero couplings are not ID: their
        # r = 0.25 power is INDEFINITE
        tiny = make_tridiagonal([1e-170] * 3, [5e-171] * 2)
        verdict = id_verdict(tiny)
        assert (verdict.infinitely_divisible, verdict.reason, verdict.blocks) == (
            False, "not ID: off-diagonal entries 1 and 2 are both nonzero", ())
        assert classify_positivity(hadamard_power(tiny, 0.25)).classification == INDEFINITE
        assert not id_numeric_probe(tiny)
        # -0.0 and +0.0 are both zero, and cut a block; the smallest
        # subnormal is neither
        assert [b.order for b in id_blocks(make_tridiagonal([1.0] * 3, [5e-324, -0.0]))] == [2, 1]
        assert not id_verdict(make_tridiagonal([1.0] * 3, [0.5, 5e-324])).infinitely_divisible

    @staticmethod
    def _scale_inputs():
        """Seeded tridiagonal and pentadiagonal inputs: ID patterns, non-ID
        patterns, exactly zero couplings and a non-PSD block."""
        rng = np.random.default_rng(35)
        inputs = [make_tridiagonal([1.0, 1.0, 1.0], [0.5, 0.5])]
        for _ in range(6):
            n = int(rng.integers(3, 10))
            off = rng.uniform(0.1, 1.0, n - 1)
            # zero every other coupling for an ID pattern, a random few for
            # a pattern that may or may not be ID
            for keep in (np.arange(n - 1) % 2 == 0, rng.uniform(size=n - 1) < 0.6, np.ones(n - 1, bool)):
                o = np.where(keep, off, 0.0)
                diag = rng.uniform(0.1, 1.0, n)
                diag[:-1] += o
                diag[1:] += o
                inputs.append(make_tridiagonal(diag, o))
                inputs.append(make_tridiagonal(diag, 1.5 * o))
        for _ in range(6):
            n = int(rng.integers(5, 11))
            second = np.where(rng.uniform(size=n - 2) < 0.5, rng.uniform(0.1, 1.0, n - 2), 0.0)
            diag = rng.uniform(0.1, 1.0, n)
            diag[:-2] += second
            diag[2:] += second
            inputs.append(make_pentadiagonal(diag, second))
        return inputs

    @pytest.mark.parametrize("k", [-1000, -300, -40, 0, 40, 300])
    def test_verdict_is_the_same_for_a_and_its_power_of_two_multiples(self, k):
        # the ID pattern reads exact zeros, which scaling by 2**k keeps, and
        # the PSD check is relative to each block's max-norm
        reasons = set()
        for m in self._scale_inputs():
            want = id_verdict(m)
            scaled = BandSymMatrix(m.bandwidth, np.ldexp(m.main_diag, k), np.ldexp(m.off, k))
            assert np.array_equal(np.ldexp(scaled.off, -k), m.off)
            got = id_verdict(scaled)
            assert (got.infinitely_divisible, got.reason) == (want.infinitely_divisible, want.reason)
            assert [b.order for b in got.blocks] == [b.order for b in want.blocks]
            if got.infinitely_divisible:
                assert id_numeric_probe(scaled)
            reasons.add(want.reason)
        # every kind of verdict is among the inputs
        assert {"PSD with no two consecutive nonzero off-diagonal entries", "not ID: matrix is not PSD"} <= reasons
        assert any(x.startswith("not ID: off-diagonal") for x in reasons)
        assert any(x.endswith("second-diagonal subsequence") for x in reasons)


class TestNumericProbe:
    def test_cauchy_is_id_on_grid(self):
        cauchy = DenseSymMatrix(np.array([[1.0 / (i + j) for j in range(1, 4)] for i in range(1, 4)]))
        assert id_numeric_probe(cauchy)

    def test_cauchy_square_fails_at_quarter(self):
        cauchy = np.array([[1.0 / (i + j) for j in range(1, 4)] for i in range(1, 4)])
        square = DenseSymMatrix(cauchy @ cauchy)
        assert determinant(hadamard_power(square, 0.25).dense()) < 0
        assert not id_numeric_probe(square)

    def test_consecutive_offdiag_fails(self):
        assert not id_numeric_probe(make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]))

    def test_bad_grid(self, a01):
        with pytest.raises(ValueError):
            id_numeric_probe(a01, r_grid=[0.5, 0.0])

    def test_empty_grid_refused(self, a01):
        # before, an empty grid returned True with nothing tested
        with pytest.raises(ValueError, match="at least one exponent"):
            id_numeric_probe(a01, r_grid=[])

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_grid_refused(self, a01, r):
        for a in (a01, a01.dense()):
            with pytest.raises(ValueError, match="^exponent must be finite$"):
                id_numeric_probe(a, r_grid=[0.5, r])

    def test_overflowing_power_refused_without_warning(self):
        t = make_tridiagonal([1e200, 1e200, 1e200], [1e199, 0.0])
        for a in (t, t.dense(), DenseSymMatrix(t.dense()[[2, 0, 1]][:, [2, 0, 1]])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^all entries must be finite$"):
                    id_numeric_probe(a)

    def test_lapack_spectrum_route_overflow_refused_without_warning(self):
        # every entry nonzero: no path order, so each exponent powers the
        # dense matrix and takes its LAPACK spectrum; PD at every exponent up
        # to 1e200**2
        a = 1e200 * (np.ones((4, 4)) + np.eye(4))
        for m in (a, DenseSymMatrix(a)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="^all entries must be finite$"):
                    id_numeric_probe(m)

    def test_negative_entries_rejected(self):
        m = DenseSymMatrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
        with pytest.raises(ValueError):
            id_numeric_probe(m)

    def test_empty_array_refused(self):
        with pytest.raises(ValueError, match="^order must be at least 1$"):
            id_numeric_probe(np.zeros((0, 0)))

    def test_non_symmetric_array_with_negative_entry_refused_as_negative(self):
        with pytest.raises(ValueError, match="^matrix has a negative entry$"):
            id_numeric_probe(np.array([[1.0, -0.5], [0.25, 1.0]]))

    def test_one_sturm_count_per_exponent_and_block(self, monkeypatch):
        # INDEFINITE is one Sturm count at -thr: the grid makes one count per
        # exponent up to its first INDEFINITE power, and id_verdict one per
        # tridiagonal block, on every route
        from bandpos import positivity

        cauchy = np.array([[1.0 / (i + j) for j in range(1, 4)] for i in range(1, 4)])
        permuted = np.array([[2, 0, 0, 1, 0], [0, 1, 0, 0, 1], [0, 0, 3, 0, 0], [1, 0, 0, 1, 0], [0, 1, 0, 0, 1.0]])
        grid_inputs = [
            make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0]),
            make_tridiagonal([1.0, 2.0, 1.0], [1.0, 1.0]),
            make_pentadiagonal([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.5, 0.0]),
            permuted,
            cauchy,
            cauchy @ cauchy,
        ]
        wants = []
        for a in grid_inputs:
            classes = [classify_positivity(hadamard_power(a, r)).classification for r in DEFAULT_ID_GRID]
            wants.append(classes.index(INDEFINITE) + 1 if INDEFINITE in classes else len(classes))
        assert wants != [len(DEFAULT_ID_GRID)] * len(wants)
        calls = 0
        real = positivity._negcount

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(positivity, "_negcount", counted)
        for a, want in zip(grid_inputs, wants):
            calls = 0
            id_numeric_probe(a)
            assert calls == want
        verdict_inputs = [
            (make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0]), 1),
            (make_tridiagonal([1.0, 0.5, 1.0], [1.0, 0.0]), 1),
            (make_pentadiagonal([1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.5, 0.0]), 2),
            (make_pentadiagonal([1.0, 2.0, 0.5, 4.0, 5.0], [0.0, 2.0, 1.0]), 2),
        ]
        for m, want in verdict_inputs:
            calls = 0
            id_verdict(m)
            assert calls == want


class TestPolynomialApply:
    def test_linear_coefficients_identity(self, a01):
        np.testing.assert_array_equal(
            polynomial_apply(a01, [0.0, 1.0], "ordinary").entries, a01.dense()
        )
        np.testing.assert_array_equal(
            polynomial_apply(a01, [0.0, 1.0], "hadamard").entries, a01.dense()
        )

    def test_constant_gives_identity(self, a01):
        for mode in ("ordinary", "hadamard"):
            np.testing.assert_array_equal(
                polynomial_apply(a01, [1.0, 0.0], mode).entries, np.eye(3)
            )

    def test_block_polynomial_stays_id(self):
        t = make_tridiagonal([1.0, 1.0, 5.0], [1.0, 0.0])
        dense = t.dense()
        expected = np.eye(3) + 2 * dense + dense @ dense
        got = polynomial_apply(t, [1.0, 2.0, 1.0], "ordinary")
        np.testing.assert_allclose(got.entries, expected, rtol=1e-14)
        assert id_numeric_probe(got)

    def test_hadamard_mode_entrywise(self, a01):
        dense = a01.dense()
        expected = 0.5 * np.eye(3) + 3 * dense + 2 * dense**2
        got = polynomial_apply(a01, [0.5, 3.0, 2.0], "hadamard")
        np.testing.assert_allclose(got.entries, expected, rtol=1e-14)

    def test_negative_coefficient_rejected(self, a01):
        with pytest.raises(ValueError):
            polynomial_apply(a01, [1.0, -0.5])

    def test_unknown_mode_rejected(self, a01):
        with pytest.raises(ValueError):
            polynomial_apply(a01, [1.0], "kronecker")

    def test_id_closure_random(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            mask = rng.uniform(size=n - 1) < 0.5
            for j in range(n - 2):
                if mask[j] and mask[j + 1]:
                    mask[j + 1] = False
            off = np.where(mask, rng.uniform(0.2, 1.0, n - 1), 0.0)
            diag = np.zeros(n)
            diag[:-1] += off
            diag[1:] += off
            diag += rng.uniform(0.1, 1.0, n)
            t = make_tridiagonal(diag, off)
            assert is_id_tridiagonal(t)
            coeffs = rng.uniform(0.0, 2.0, int(rng.integers(1, 6)))
            grid = (0.1, 0.5, 1.0, 2.0)
            assert id_numeric_probe(polynomial_apply(t, coeffs, "ordinary"), grid)
            assert id_numeric_probe(polynomial_apply(t, coeffs, "hadamard"), grid)
