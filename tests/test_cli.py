"""CLI behavior: exit codes, golden outputs, JSON round trips."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from bandpos import (
    INDEFINITE,
    classify_positivity,
    counterexample_tridiagonal,
    determinant,
    hadamard_power,
    make_tridiagonal,
    probe_preserves,
    wall_wetzel_pd,
)
from bandpos.bandmat import matrix_from_json_obj
from bandpos import cli
from bandpos.cli import CONVENTION_EXACT_LIMIT, EXIT_FORMAT, EXIT_OK, EXIT_USAGE, main
from bandpos.positivity import DEFAULT_TOL

TESTS = pathlib.Path(__file__).parent


@pytest.fixture(autouse=True)
def _run_from_tests_dir(monkeypatch):
    monkeypatch.chdir(TESTS)
    monkeypatch.delenv("BANDPOS_EXACT", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


EXACT = {"BANDPOS_EXACT": "1"}

GOLDEN_CASES = [
    ("check_positivity_a01.txt", ["check-positivity", "data/a01.json"], {}),
    ("check_positivity_p.txt", ["check-positivity", "data/p.json"], {}),
    ("check_positivity_permuted.txt", ["check-positivity", "data/permuted_tridiagonal.json"], {}),
    # a full pentadiagonal, stored dense: no path order, so LAPACK spectrum
    ("check_positivity_dense_penta.txt", ["check-positivity", "data/dense_pentadiagonal.json"], {}),
    ("check_positivity_tiny.txt", ["check-positivity", "data/tiny_tridiagonal.json"], {}),
    # lambda_min 2.05e-10 clears thr 2.00000000021e-10: PD, by a Sturm count
    # at thr, while the printed minimum keeps the bisection's bits below it
    ("check_positivity_near_threshold.txt", ["check-positivity", "data/near_threshold.json"], {}),
    ("hadamard_p_r05.txt", ["hadamard", "data/p.json", "-r", "0.5"], {}),
    ("chain_quarters.txt", ["chain", "1/4,1/4,1/4"], {}),
    ("critical_exponent_k5.txt", ["critical-exponent", "data/k5.graph"], {}),
    ("critical_exponent_c4.txt", ["critical-exponent", "data/c4.graph"], {}),
    ("critical_exponent_p3.txt", ["critical-exponent", "data/p3.graph"], {}),
    ("id_check_a0.txt", ["id-check", "data/a0.json"], {}),
    ("id_check_block.txt", ["id-check", "data/id_block.json"], {}),
    # entries of 1e-170: only exact zeros count as zero in the ID pattern
    ("id_check_tiny.txt", ["id-check", "data/tiny_tridiagonal.json"], {}),
    # dense input: the grid on the LAPACK spectrum route, and on the path route
    # of a permuted direct sum of ID blocks
    ("id_check_dense_penta.txt", ["id-check", "data/dense_pentadiagonal.json"], {}),
    ("id_check_permuted.txt", ["id-check", "data/id_permuted.json"], {}),
    ("counterexample_tri_r05.txt", ["counterexample", "--family", "tridiagonal", "-r", "0.5"], {}),
    ("probe_penta_r2.json", ["probe", "--family", "pentadiagonal", "-r", "2", "-n", "20", "--seed", "7", "--json"], {}),
    # the injected counterexample makes the running minimum negative from
    # sample 0, so every later sample is bisected only as far as that needs
    ("probe_tri_r05.json", ["probe", "--family", "tridiagonal", "-r", "0.5", "-n", "64", "--seed", "7", "--json"], {}),
    # K5 samples take the LAPACK spectrum route
    (
        "probe_k5_r15.json",
        ["probe", "--family", "graph", "--graph", "data/k5.graph", "-r", "1.5", "-n", "64", "--seed", "7", "--json"],
        {},
    ),
    # the JSON layout of each report shape: exact minors and ratios as
    # Fraction strings, a nested matrix, Fraction parameters, a set render
    ("check_positivity_a01.json", ["check-positivity", "data/a01.json", "--json"], {}),
    ("check_positivity_a01_exact.json", ["check-positivity", "data/a01.json", "--json"], EXACT),
    # exact mode's integer routes: pentadiagonal exact minors, denominators
    # of 10**170, and a zero coupling that splits the chain recursion
    ("check_positivity_p_exact.txt", ["check-positivity", "data/p.json"], EXACT),
    ("check_positivity_tiny_exact.txt", ["check-positivity", "data/tiny_tridiagonal.json"], EXACT),
    ("check_positivity_block_exact.txt", ["check-positivity", "data/id_block.json"], EXACT),
    # dense Fraction rows: minors by fraction-free elimination on integers
    ("check_positivity_dense_penta_exact.txt", ["check-positivity", "data/dense_pentadiagonal.json"], EXACT),
    # dense rows of Decimals and ints, packed into the float array row by
    # row, then bisected in their path order
    ("check_positivity_permuted_exact.txt", ["check-positivity", "data/permuted_tridiagonal.json"], EXACT),
    # above EXACT_MINOR_LIMIT: leading_minors_exact is the certificate, and
    # the chain line is read off the exact chain report
    ("check_positivity_rational16_exact.txt", ["check-positivity", "data/rational16.json"], EXACT),
    ("check_positivity_rational16_exact.json", ["check-positivity", "data/rational16.json", "--json"], EXACT),
    ("hadamard_p_r05.json", ["hadamard", "data/p.json", "-r", "0.5", "--json"], {}),
    ("chain_quarters.json", ["chain", "1/4,1/4,1/4", "--json"], {}),
    ("critical_exponent_p3.json", ["critical-exponent", "data/p3.graph", "--json"], {}),
]


@pytest.mark.parametrize("golden,argv,env", GOLDEN_CASES, ids=[g for g, _, _ in GOLDEN_CASES])
def test_golden_output(capsys, monkeypatch, golden, argv, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    expected = (TESTS / "golden" / golden).read_text(encoding="utf-8")
    assert out == expected


def test_probe_golden_minimum_matches_lapack(capsys):
    # the probe_penta_r2.json golden prints min_over_samples to 12 digits;
    # the value must be the worst case's smallest eigenvalue within the
    # oracle's bracket tol * max(1, scale)
    _, out, _ = run_cli(capsys, "probe", "--family", "pentadiagonal", "-r", "2", "-n", "20", "--seed", "7", "--json")
    printed = json.loads(out)["verdicts"]["probe_report"]["min_over_samples"]
    report = probe_preserves("pentadiagonal", 2.0, 20, 7)
    powered = hadamard_power(report.worst_case, 2.0).dense()
    allowance = DEFAULT_TOL * max(1.0, float(np.abs(powered).max()))
    assert abs(report.min_over_samples - np.linalg.eigvalsh(powered)[0]) <= allowance
    assert printed == pytest.approx(report.min_over_samples, rel=1e-11)


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "probe", "--family", "tridiagonal", "-r", "1.5", "-n", "15", "--seed", "3")
    _, second, _ = run_cli(capsys, "probe", "--family", "tridiagonal", "-r", "1.5", "-n", "15", "--seed", "3")
    assert first == second


class TestExitCodes:
    def test_analysis_completed_is_zero(self, capsys):
        code, _, _ = run_cli(capsys, "critical-exponent", "data/c4.graph")
        assert code == EXIT_OK  # "not chordal" is still a completed analysis

    def test_usage_errors(self, capsys):
        for argv in (
            ["hadamard", "data/a01.json", "-r", "-2"],
            ["counterexample", "--family", "tridiagonal", "-r", "1.0"],
            ["probe", "--family", "tridiagonal", "-r", "0"],
            ["no-such-command"],
            [],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE, argv
            assert err

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_probe_seed_is_refused_by_bandpos(self, capsys, seed):
        # numpy's "expected non-negative integer" no longer leaks through
        code, out, err = run_cli(capsys, "probe", "--family", "tridiagonal", "-r", "1.5", "-n", "3", "--seed", seed)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: seed must be a non-negative integer\n"

    def test_format_errors(self, capsys, tmp_path):
        bad_sym = tmp_path / "bad_sym.json"
        bad_sym.write_text('{"kind": "dense", "rows": [[1, 2], [3, 4]]}')
        bad_kind = tmp_path / "bad_kind.json"
        bad_kind.write_text('{"kind": "toeplitz", "diag": [1]}')
        not_json = tmp_path / "not_json.json"
        not_json.write_text("diag = 1 2 3")
        for path in (bad_sym, bad_kind, not_json, tmp_path / "missing.json"):
            code, _, err = run_cli(capsys, "check-positivity", str(path))
            assert code == EXIT_FORMAT, path
            assert err

    @pytest.mark.parametrize("exact", ["0", "1"])
    @pytest.mark.parametrize("entry", ["1e400", "NaN"])
    def test_nonfinite_entry_is_format_error(self, capsys, monkeypatch, tmp_path, entry, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        f = tmp_path / "nonfinite.json"
        f.write_text(f'{{"kind": "tridiagonal", "diag": [1, {entry}, 1], "offdiag": [1, 1]}}')
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_FORMAT and out == ""
        assert "all entries must be finite" in err

    @pytest.mark.parametrize("exact", ["0", "1"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "tridiagonal", "diag": ["1", "2"], "offdiag": [true]}',
            '{"kind": "tridiagonal", "diag": [1, 2], "offdiag": [false]}',
            '{"kind": "tridiagonal", "diag": [1, null], "offdiag": [0]}',
            '{"kind": "pentadiagonal", "diag": [1, 2, 3], "second": ["0.5"]}',
            '{"kind": "pentadiagonal", "diag": [1, 2, false], "second": [0.5]}',
            '{"kind": "dense", "rows": [[1, null], [null, 1]]}',
            '{"kind": "dense", "rows": [[1, "0"], [0, 1]]}',
            '{"kind": "dense", "rows": [[true, 0], [0, 1]]}',
            '{"kind": "dense", "rows": [[1, 0], [0, false]]}',
            '{"kind": "dense", "rows": [[1, {}], [{}, 1]]}',
            '{"kind": "tridiagonal", "diag": {"a": 1}, "offdiag": []}',
            '{"kind": "tridiagonal", "diag": true, "offdiag": []}',
        ],
    )
    def test_entries_must_be_json_numbers(self, capsys, monkeypatch, tmp_path, text, exact):
        # numpy would read "1" and true as 1.0, and null as nan
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        f = tmp_path / "m.json"
        f.write_text(text)
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_FORMAT and out == ""
        assert err == f"error: {f}: all entries must be numbers\n"
        with pytest.raises(ValueError, match="all entries must be numbers"):
            matrix_from_json_obj(json.loads(text))

    @pytest.mark.parametrize("exact", ["0", "1"])
    def test_text_scan_passes_numbers_it_cannot_rule_on(self, capsys, monkeypatch, tmp_path, exact):
        # a repeated key (the last one counts), Infinity's f and an escaped
        # key's u send the text to the entry-by-entry check, which passes
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        texts = [
            '{"kind": "dense", "rows": [[5]], "rows": [[1, 0], [0, 1]]}',
            r'{"kind": "dense", "rows": [[1e0, 0E1], [0, 1]], "\u006bind": "dense"}',
            '{"kind": "dense", "rows": [[Infinity]]}',
        ]
        for i, text in enumerate(texts):
            # a new file each time: rewriting one can cost far more
            f = tmp_path / f"m{i}.json"
            f.write_text(text)
            code, out, err = run_cli(capsys, "check-positivity", str(f))
            if i < 2:
                assert code == EXIT_OK and "input.order: 2" in out and "classification: PD" in out
        assert err == f"error: {f}: all entries must be finite\n"

    @pytest.mark.parametrize("exact", ["0", "1"])
    @pytest.mark.parametrize(
        "text",
        ['{"kind": "dense", "rows": [[1, 2], [3]]}', '{"kind": "tridiagonal", "diag": [[1], [2, 3]], "offdiag": [0.5]}'],
        ids=["dense", "band"],
    )
    def test_ragged_nesting_is_format_error(self, capsys, monkeypatch, tmp_path, text, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        f = tmp_path / "ragged.json"
        f.write_text(text)
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert (code, out) == (EXIT_FORMAT, "")
        assert err == f"error: {f}: entries must form a rectangular array of numbers\n"

    @pytest.mark.parametrize("exact", ["0", "1"])
    @pytest.mark.parametrize("depth", [1100, 100_000])
    def test_deep_nesting_is_format_error(self, capsys, monkeypatch, tmp_path, depth, exact):
        # the exact parse's json recursion ran out on a row nested 1,100
        # deep, and the RecursionError escaped as a traceback
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        f = tmp_path / "deep.json"
        f.write_text('{"kind": "dense", "rows": [' + "[" * depth + "1.0" + "]" * depth + "]}")
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert (code, out) == (EXIT_FORMAT, "")
        assert err in (
            f"error: {f}: entries must form a rectangular array of numbers\n",
            f"error: {f}: invalid JSON: maximum recursion depth exceeded while decoding a JSON array from a unicode string\n",
        )

    @pytest.mark.parametrize("exact", ["0", "1"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"kind": "tridiagonal", "diag": [[1, 2]], "offdiag": [1]}',
            '{"kind": "tridiagonal", "diag": [[1, 2], [3, 4]], "offdiag": [1]}',
            '{"kind": "pentadiagonal", "diag": [[1, 2, 3]], "second": [1]}',
        ],
        ids=["one-row", "two-rows", "pentadiagonal"],
    )
    def test_nested_main_diagonal_is_format_error(self, capsys, monkeypatch, tmp_path, text, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        f = tmp_path / "nested.json"
        f.write_text(text)
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert (code, out) == (EXIT_FORMAT, "")
        assert err == f"error: {f}: main diagonal must be a flat list of numbers, got nesting depth 2\n"

    def test_integer_beyond_float_range_is_format_error(self, capsys, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text('{"kind": "tridiagonal", "diag": [1, 1%s, 1], "offdiag": [1, 1]}' % ("0" * 400))
        code, _, err = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_FORMAT and "all entries must be finite" in err

    @pytest.mark.parametrize("entry", ["1e-5000", "0." + "3" * 5000], ids=["short", "5000-digit"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_exact_number_too_long_to_print_is_an_error(self, capsys, monkeypatch, tmp_path, entry, json_flag):
        # str() of a Fraction whose terms pass int's 4300-digit limit raises
        # ValueError; the report is refused with a message, not a traceback
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        path = tmp_path / "long.json"
        path.write_text(f'{{"kind": "tridiagonal", "diag": [{entry}, 1, 2], "offdiag": [0.5, 0.5]}}')
        code, out, err = run_cli(capsys, "check-positivity", str(path), *json_flag)
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("error: Exceeds the limit (4300 digits)")

    def test_library_refusal_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "check-positivity", "data/a01.json", "--tol", "0")
        assert code == EXIT_USAGE and out == ""
        assert "tol must be positive" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["check-positivity", "data/a01.json"], ["probe", "--family", "tridiagonal", "-r", "0.5", "-n", "5"]],
        ids=["check-positivity", "probe"],
    )
    def test_non_finite_tol_is_usage_error(self, capsys, argv, tol):
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == EXIT_USAGE and out == ""
        assert "tol must be positive and finite" in err

    @pytest.mark.parametrize("tol", ["1e-3", "nan"])
    @pytest.mark.parametrize(
        "argv",
        [["chain", "1/4,1/4"], ["critical-exponent", "data/p3.graph"], ["id-check", "data/id_block.json"]],
        ids=["chain", "critical-exponent", "id-check"],
    )
    def test_tol_refused_where_no_handler_reads_it(self, capsys, argv, tol):
        # these reports read no tolerance: a --tol would be silently ignored
        code, out, err = run_cli(capsys, *argv, "--tol", tol)
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("r", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["hadamard", "data/a01.json"], ["probe", "--family", "tridiagonal", "-n", "5"]],
        ids=["hadamard", "probe"],
    )
    def test_non_finite_exponent_is_usage_error(self, capsys, argv, r):
        code, out, err = run_cli(capsys, *argv, "-r", r)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: exponent must be finite\n"

    def test_chain_parse_failure(self, capsys):
        code, _, err = run_cli(capsys, "chain", "1,junk,3")
        assert code == EXIT_FORMAT and err

    @pytest.mark.parametrize("sequence, entry", [("nan", "nan"), ("1/4,inf", "inf"), ("1e400", "1e400")])
    def test_chain_refuses_non_finite_entry(self, capsys, sequence, entry):
        code, out, err = run_cli(capsys, "chain", sequence)
        assert code == EXIT_FORMAT and out == ""
        assert err == f"error: sequence entry {entry!r} is not finite\n"

    def test_negative_entry_noninteger_power(self, capsys, tmp_path):
        f = tmp_path / "neg.json"
        f.write_text('{"kind": "dense", "rows": [[1, -2], [-2, 4]]}')
        code, _, err = run_cli(capsys, "hadamard", str(f), "-r", "0.5")
        assert code == EXIT_USAGE and err
        code, out, _ = run_cli(capsys, "hadamard", str(f), "-r", "2")
        assert code == EXIT_OK and "classification" in out


class TestJsonMode:
    def test_report_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "hadamard", "data/p.json", "-r", "0.5", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["exit_code"] == 0
        assert report["verdicts"]["classification"] == "INDEFINITE"
        powered = matrix_from_json_obj(report["verdicts"]["matrix"])
        assert powered.order == 5
        assert report["verdicts"]["determinant"] == pytest.approx(2 - 3 * 2**0.5 + 2, rel=1e-11)

    def test_counterexample_matrix_parses(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--family", "pentadiagonal", "-r", "0.25", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        m = matrix_from_json_obj(report["verdicts"]["matrix"])
        np.testing.assert_array_equal(m.main_diag, [1, 2, 2, 1, 1])

    def test_probe_worst_case_parses(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--family", "tridiagonal", "-r", "0.5", "-n", "1", "--seed", "0", "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        probe = report["verdicts"]["probe_report"]
        worst = matrix_from_json_obj(probe["worst_case"])
        # with one sample at r < 1 the injected counterexample is the worst case
        np.testing.assert_allclose(worst.main_diag, [1.0, 3.0, 1.0], rtol=1e-11)
        assert report["verdicts"]["falsified"] is True


class TestTinyExponentCounterexample:
    # from r = 1/1024 down, 2**(1/r) is not a finite float; the window's top
    # is capped at 2**1023, where (2+eps)**r < 2 still holds.  Below about
    # 5.6e-309, 1 / r itself is inf, and 2**inf raises no OverflowError
    @pytest.mark.parametrize("r", [1 / 1023.5, 1 / 1024, 1e-4, 1e-300, 5e-309, 1e-310, 5e-324])
    def test_counterexample_and_probe(self, capsys, r):
        m = counterexample_tridiagonal(r)
        assert np.isfinite(m.main_diag).all() and determinant(m) > 0 and wall_wetzel_pd(m)
        assert classify_positivity(hadamard_power(m, r)).classification == INDEFINITE
        code, out, err = run_cli(capsys, "counterexample", "--family", "tridiagonal", "-r", repr(r))
        assert code == EXIT_OK and err == ""
        assert "powered_classification: INDEFINITE" in out
        code, out, err = run_cli(capsys, "probe", "--family", "tridiagonal", "-r", repr(r), "-n", "3", "--json")
        assert code == EXIT_OK and err == "" and json.loads(out)["verdicts"]["falsified"] is True


class TestOracleAgreement:
    def test_band_uses_the_classification_threshold(self, capsys, tmp_path):
        # tol below 4*n*eps: the verdict's floored threshold, not tol, bounds
        # the band (the smallest eigenvalue is 3.3e-15)
        f = tmp_path / "near_singular.json"
        f.write_text('{"kind": "tridiagonal", "diag": [1, 2.00000000000001, 1], "offdiag": [1, 1]}')
        code, out, _ = run_cli(capsys, "check-positivity", "--tol", "1e-17", str(f))
        assert code == EXIT_OK
        assert "classification: PSD_BOUNDARY" in out
        assert "wall_wetzel_pd: yes" in out
        assert "oracle_agreement: within tolerance band" in out


class TestStrictJson:
    @staticmethod
    def _strict(text):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        return json.loads(text, parse_constant=refuse)

    def test_overflowed_minors_are_strings(self, capsys, tmp_path):
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"kind": "tridiagonal", "diag": [1e3] * 120, "offdiag": [1] * 119}))
        code, out, _ = run_cli(capsys, "check-positivity", str(f), "--json")
        assert code == EXIT_OK
        minors = self._strict(out)["verdicts"]["leading_minors"]
        assert minors[-1] == "inf"
        assert all(isinstance(x, float) for x in minors[:100])

    def test_nonfinite_floats_print_as_text_does(self):
        from bandpos.cli import RunReport

        report = RunReport("t", {}, {"x": [float("inf"), -float("inf"), float("nan"), 0.1 + 0.2]})
        assert self._strict(report.to_json())["verdicts"]["x"] == ["inf", "-inf", "nan", 0.3]
        assert "x: [inf, -inf, nan, 0.3]" in report.to_text()


class TestExactMode:
    def test_chain_decimals_exact(self, capsys, monkeypatch):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "chain", "0.5,0.5,0.5")
        assert code == EXIT_OK
        assert "exact_mode: yes" in out
        assert "minimal_params: [1/2, 1]" in out
        assert "failure_index: 2" in out

    def test_check_positivity_exact_minors(self, capsys, monkeypatch):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "check-positivity", "data/a01.json")
        assert code == EXIT_OK
        assert "leading_minors_exact: [1, 11/10, 1/10]" in out
        assert "chain_minimal_params: [10/21, 10/11]" in out

    def test_exact_minors_pentadiagonal(self, capsys, monkeypatch):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "check-positivity", "data/p.json")
        assert code == EXIT_OK
        assert "leading_minors_exact: [1, 2, 2, 1, 0]" in out
        assert "ratio_sequence" not in out

    def test_exact_minors_dense(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        f = tmp_path / "dense.json"
        f.write_text('{"kind": "dense", "rows": [[2, 0.5, 0], [0.5, 2, 1], [0, 1, 3]]}')
        code, out, _ = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_OK
        assert "leading_minors_exact: [2, 15/4, 37/4]" in out

    def test_exact_chain_with_zero_offdiagonal(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        f = tmp_path / "split.json"
        f.write_text('{"kind": "tridiagonal", "diag": [2, 2, 3], "offdiag": [1, 0]}')
        code, out, _ = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_OK
        # the zero ratio splits the chain test into the irreducible blocks,
        # as the Wall-Wetzel criterion splits the matrix
        assert "leading_minors_exact: [2, 3, 9]" in out
        assert "ratio_sequence: [1/4, 0]" in out
        assert "chain_is_chain: yes" in out
        assert "chain_minimal_params: [1/4, 0]" in out
        assert "chain_failure_index: none" in out
        assert "wall_wetzel_pd: yes" in out
        assert "oracle_agreement: yes" in out

    def test_scalar_main_diagonal_is_order_one(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "scalar.json"
        f.write_text('{"kind": "tridiagonal", "diag": 5, "offdiag": []}')
        _, float_out, _ = run_cli(capsys, "check-positivity", str(f))
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, err = run_cli(capsys, "check-positivity", str(f))
        assert code == EXIT_OK and err == ""
        assert "input.order: 1" in out and "classification: PD" in out
        assert "leading_minors_exact: [5]" in out
        # the exact report adds its exact lines to the float report
        assert set(float_out.splitlines()) <= set(out.splitlines())

    def test_band_input_is_not_densified(self, capsys, monkeypatch, tmp_path):
        from bandpos import positivity

        def refuse(*args):
            raise AssertionError("exact band input went through a dense route")

        for name in ("_exact_rows", "_exact_minors", "_dense_minors", "_int_det", "_det_float"):
            monkeypatch.setattr(positivity, name, refuse)
        monkeypatch.setattr(cli.np, "diagonal", refuse)
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "check-positivity", "data/a01.json")
        assert code == EXIT_OK
        assert "leading_minors_exact: [1, 11/10, 1/10]" in out
        assert "ratio_sequence: [10/21, 10/21]" in out
        code, out, _ = run_cli(capsys, "check-positivity", "data/p.json")
        assert code == EXIT_OK
        assert "leading_minors_exact: [1, 2, 2, 1, 0]" in out
        code, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2] * 16, [1] * 15))
        assert code == EXIT_OK
        assert "leading_minors_exact: [2, 3, 4," in out

    @pytest.mark.parametrize("exact", ["0", "1"])
    def test_chain_failure_index_counts_the_whole_sequence(self, capsys, monkeypatch, tmp_path, exact):
        # blocks [1] and tridiag([1, 1, 1], [1, 1]); the second fails at its
        # first ratio, which is the second of the whole sequence
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        code, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [1, 1, 1, 1], [0, 1, 1]))
        assert code == EXIT_OK
        assert "classification: INDEFINITE" in out
        assert "chain_is_chain: no" in out
        assert "chain_failure_index: 2" in out
        assert "wall_wetzel_pd: no" in out
        assert "oracle_agreement: yes" in out

    def test_negative_zero_is_read_as_in_float_mode(self, capsys, monkeypatch, tmp_path):
        # the exact parse reads -0.0 as the float parse does, so both modes
        # print the same float minors
        path = _tridiagonal_file(tmp_path, [-0.0, 1, 2], [0, 0.5])
        _, float_out, _ = run_cli(capsys, "check-positivity", path)
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        _, exact_out, _ = run_cli(capsys, "check-positivity", path)
        assert "leading_minors: [-0, -0, 0]" in float_out.splitlines()
        assert "leading_minors: [-0, -0, 0]" in exact_out.splitlines()
        assert "leading_minors_exact: [0, 0, 0]" in exact_out.splitlines()

    def test_float_mode_boundary_flag(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "0.5,0.5,0.5")
        assert code == EXIT_OK
        assert "boundary_indeterminate: yes" in out
        assert "is_chain: no" in out


class TestIdCheckVariants:
    def test_pentadiagonal_reason_names_parity(self, capsys):
        code, out, _ = run_cli(capsys, "id-check", "data/p.json")
        assert code == EXIT_OK
        assert "infinitely_divisible: no" in out
        assert "odd-position second-diagonal subsequence" in out

    def test_pentadiagonal_reason_names_even_parity(self, capsys, tmp_path):
        f = tmp_path / "even.json"
        f.write_text('{"kind": "pentadiagonal", "diag": [3, 3, 3, 3, 3, 3, 3], "second": [0, 1, 0, 1, 0]}')
        code, out, _ = run_cli(capsys, "id-check", str(f))
        assert code == EXIT_OK
        assert "infinitely_divisible: no" in out
        assert "reason: not ID: consecutive nonzero entries in the even-position second-diagonal subsequence" in out

    def test_pattern_ok_but_not_psd(self, capsys, tmp_path):
        f = tmp_path / "indefinite.json"
        f.write_text('{"kind": "tridiagonal", "diag": [1, 1, 5], "offdiag": [2, 0]}')
        code, out, _ = run_cli(capsys, "id-check", str(f))
        assert code == EXIT_OK
        assert "infinitely_divisible: no" in out
        assert "reason: not ID: matrix is not PSD" in out
        assert "block_orders" not in out

    def test_dense_input_uses_probe_with_convention(self, capsys, tmp_path):
        f = tmp_path / "cauchy.json"
        rows = [[1.0 / (i + j) for j in range(1, 4)] for i in range(1, 4)]
        f.write_text(json.dumps({"kind": "dense", "rows": rows}))
        code, out, _ = run_cli(capsys, "id-check", str(f))
        assert code == EXIT_OK
        assert "probe_passed: yes" in out
        assert "necessary condition" in out


class TestProbeGraphFamily:
    def test_graph_probe(self, capsys):
        code, out, _ = run_cli(
            capsys, "probe", "--family", "graph", "-r", "2", "-n", "10",
            "--seed", "1", "--graph", "data/p3.graph",
        )
        assert code == EXIT_OK
        assert "falsified: no" in out

    def test_graph_family_requires_graph(self, capsys):
        code, _, err = run_cli(capsys, "probe", "--family", "graph", "-r", "2", "-n", "5")
        assert code == EXIT_USAGE and err

    @pytest.mark.parametrize("family", ["tridiagonal", "pentadiagonal"])
    def test_band_family_refuses_a_graph(self, capsys, family):
        code, out, err = run_cli(
            capsys, "probe", "--family", family, "-r", "2", "-n", "5", "--graph", "data/k5.graph"
        )
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: the {family} family takes no graph\n"


@pytest.mark.parametrize("graph", ["k5", "c4", "p3"])
def test_critical_exponent_orders_the_graph_once(capsys, monkeypatch, graph):
    # the chordality verdict and the exponent set share one certificate:
    # one LexBFS per call, chordal or not
    from bandpos import graphs

    calls = 0
    lex_bfs = graphs.lex_bfs

    def counted(g):
        nonlocal calls
        calls += 1
        return lex_bfs(g)

    monkeypatch.setattr(graphs, "lex_bfs", counted)
    for expected in (1, 2):
        code, out, _ = run_cli(capsys, "critical-exponent", f"data/{graph}.graph")
        golden = TESTS / "golden" / f"critical_exponent_{graph}.txt"
        assert code == EXIT_OK and out == golden.read_text(encoding="utf-8")
        assert calls == expected


def _tridiagonal_file(tmp_path, diag, offdiag, name="t.json"):
    f = tmp_path / name
    f.write_text(json.dumps({"kind": "tridiagonal", "diag": diag, "offdiag": offdiag}))
    return str(f)


@pytest.mark.parametrize("exact", ["0", "1"])
class TestNegativeEntries:
    def test_negative_offdiagonal_boundary(self, capsys, monkeypatch, tmp_path, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        code, out, err = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [1, 2, 1], [-1, 1]))
        assert code == EXIT_OK and err == ""
        assert "classification: PSD_BOUNDARY" in out
        assert "wall_wetzel_pd: no" in out
        assert "oracle_agreement: yes" in out

    def test_negative_offdiagonal_pd(self, capsys, monkeypatch, tmp_path, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        code, out, err = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2, 2, 2], [-1, 1]))
        assert code == EXIT_OK and err == ""
        assert "classification: PD" in out
        assert "wall_wetzel_pd: yes" in out
        assert "oracle_agreement: yes" in out

    def test_report_equals_signless_report(self, capsys, monkeypatch, tmp_path, exact):
        # diag(+-1) carries the matrix to its signless one: same spectrum,
        # minors and ratios, so the same report up to the file name
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        diag = [3, 2.5, 4, 1, 2]
        signed = _tridiagonal_file(tmp_path, diag, [-1, 1.5, -0.5, -1], "signed.json")
        signless = _tridiagonal_file(tmp_path, diag, [1, 1.5, 0.5, 1], "signless.json")
        _, out_signed, _ = run_cli(capsys, "check-positivity", signed, "--json")
        _, out_signless, _ = run_cli(capsys, "check-positivity", signless, "--json")
        assert out_signed.replace("signed.json", "signless.json") == out_signless

    def test_negative_diagonal_is_inapplicable(self, capsys, monkeypatch, tmp_path, exact):
        monkeypatch.setenv("BANDPOS_EXACT", exact)
        code, out, err = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [-1, 2], [0.5]))
        assert code == EXIT_OK and err == ""
        assert "classification: INDEFINITE" in out
        assert "ratio_sequence: inapplicable (nonpositive diagonal entry)" in out
        assert "wall_wetzel_pd: inapplicable (negative diagonal entry)" in out
        assert "oracle_agreement: inapplicable (negative diagonal entry)" in out


def test_large_entries_agree_across_routes(capsys, tmp_path):
    # squared entries overflow; the oracle and the chain route both scale
    code, out, err = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [1e160] * 3, [1e160] * 2))
    assert code == EXIT_OK and err == ""
    assert "classification: INDEFINITE" in out
    assert "min_eigenvalue: -4.14213562368e+159" in out
    assert "ratio_sequence: [1, 1]" in out
    assert "wall_wetzel_pd: no" in out
    assert "oracle_agreement: yes" in out


@pytest.mark.parametrize("exact", ["0", "1"])
def test_eigenvalue_beyond_the_float_range_is_reported(capsys, monkeypatch, tmp_path, exact):
    # the smallest eigenvalue, -3e308, lies beyond the float range
    monkeypatch.setenv("BANDPOS_EXACT", exact)
    path = _tridiagonal_file(tmp_path, [-1.5e308, -1.5e308], [1.5e308])
    code, out, err = run_cli(capsys, "check-positivity", path)
    assert code == EXIT_OK and err == ""
    assert "classification: INDEFINITE" in out and "min_eigenvalue: -inf" in out.splitlines()
    code, out, err = run_cli(capsys, "check-positivity", path, "--json")
    assert code == EXIT_OK and err == ""
    assert json.loads(out)["verdicts"]["min_eigenvalue"] == "-inf"


@pytest.mark.parametrize("exact", ["0", "1"])
def test_lapack_spectrum_route_beyond_the_float_range_gets_a_verdict(capsys, monkeypatch, tmp_path, exact):
    # dense input of no path pattern whose eigenvalues, scaled back, would
    # hold -inf: they are bisected at their power of two instead
    monkeypatch.setenv("BANDPOS_EXACT", exact)
    path = tmp_path / "spectrum.json"
    rows = [[-1.5e308, 1.5e308, 1e308], [1.5e308, -1.5e308, 1e308], [1e308, 1e308, -1.5e308]]
    path.write_text(json.dumps({"kind": "dense", "rows": rows}), encoding="utf-8")
    code, out, err = run_cli(capsys, "check-positivity", str(path))
    assert code == EXIT_OK and err == ""
    assert "classification: INDEFINITE" in out and "min_eigenvalue: -inf" in out.splitlines()


class TestChainLine:
    """wall_wetzel_pd is read off the chain report check-positivity makes."""

    def test_float_line_equals_wall_wetzel_pd_of_the_signless_matrix(self, capsys, tmp_path):
        rng = np.random.default_rng(131)
        cases = [([2.0], []), ([0.0], []), ([1.0, 0.0, 2.0], [0.5, 0.5]), ([3.0, 1.0, 1.5], [1.0, 1.0])]
        for _ in range(100):
            n = int(rng.integers(1, 12))
            diag, off = rng.uniform(0.0, 3.0, n), rng.uniform(-1.5, 1.5, n - 1)
            off[rng.random(n - 1) < 0.2] = 0.0
            diag[rng.random(n) < 0.05] = 0.0
            cases.append((diag.tolist(), off.tolist()))
        lines = set()
        for i, (diag, off) in enumerate(cases):
            # a new file each time: rewriting one can cost far more
            f = _tridiagonal_file(tmp_path, diag, off, f"t{i}.json")
            code, out, _ = run_cli(capsys, "check-positivity", f, "--json")
            assert code == EXIT_OK
            verdicts = json.loads(out)["verdicts"]
            want = wall_wetzel_pd(make_tridiagonal(diag, np.abs(off)))
            assert verdicts["wall_wetzel_pd"] is want, (diag, off)
            lines.add((want, "chain_is_chain" in verdicts, 0.0 in diag, any(x < 0 for x in off)))
        # chain reports either way, zero diagonal entries, order 1, negative couplings
        assert {(True, True), (False, True), (False, False), (True, False)} <= {x[:2] for x in lines}
        assert any(x[2] for x in lines) and any(x[3] for x in lines)

    def test_exact_line_is_the_exact_chain_verdict(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        rng = np.random.default_rng(137)
        for i in range(60):
            n = int(rng.integers(2, 10))
            diag, off = (rng.integers(1, 13, n) / 4).tolist(), (rng.integers(-6, 7, n - 1) / 4).tolist()
            _, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, diag, off, f"t{i}.json"), "--json")
            verdicts = json.loads(out)["verdicts"]
            assert verdicts["wall_wetzel_pd"] is verdicts["chain_is_chain"], (diag, off)

    def test_exact_boundary_matrix(self, capsys, monkeypatch, tmp_path):
        # ratios 1/3 and 2/3: the exact recursion reaches m_2 = 1, not a chain;
        # the float one stays just below 1.  The exact report once printed
        # wall_wetzel_pd: yes from the float recursion beside
        # chain_is_chain: no, and called the oracle "within tolerance band"
        path = _tridiagonal_file(tmp_path, [3, 1, 1.5], [1, 1])
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        _, out, _ = run_cli(capsys, "check-positivity", path)
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["classification"] == "PSD_BOUNDARY"
        assert (lines["chain_is_chain"], lines["wall_wetzel_pd"], lines["oracle_agreement"]) == ("no", "no", "yes")
        monkeypatch.delenv("BANDPOS_EXACT")
        _, out, _ = run_cli(capsys, "check-positivity", path)
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert (lines["chain_is_chain"], lines["wall_wetzel_pd"]) == ("yes", "yes")
        assert lines["oracle_agreement"] == "within tolerance band"
        assert lines["conventions"] == cli.CONVENTION_BOUNDARY


def test_closed_stdout_ends_quietly():
    # the child's stdout is a pipe whose read end is already closed, so its
    # first write fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    try:
        child = subprocess.run(
            [sys.executable, "-m", "bandpos.cli", "chain", "1/4,1/4,1/4"], stdout=write, stderr=subprocess.PIPE, env=env
        )
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (EXIT_OK, b"")


class TestExactLimitConvention:
    def test_text_report_names_the_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2] * 16, [1] * 15))
        assert code == EXIT_OK
        assert "leading_minors_exact: [2, 3, 4," in out
        assert f"conventions: {CONVENTION_EXACT_LIMIT}" in out.splitlines()
        assert "EXACT_MINOR_LIMIT = 12" in CONVENTION_EXACT_LIMIT

    def test_json_report_names_the_limit(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        code, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2] * 16, [1] * 15), "--json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["conventions"] == [CONVENTION_EXACT_LIMIT]
        # the values themselves stay floats
        assert report["verdicts"]["leading_minors_exact"] == [float(k + 2) for k in range(16)]

    @pytest.mark.parametrize("kind", ["tridiagonal", "pentadiagonal"])
    def test_exact_line_equals_float_line_above_the_limit(self, capsys, monkeypatch, tmp_path, kind):
        # entries in steps of 0.05 give minors that often end in a 5 at the
        # 13th digit, where two float routes may round the printed 12 digits
        # apart; above the limit the exact line is the certificate
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        rng = np.random.default_rng(109)
        key, step = ("offdiag", 1) if kind == "tridiagonal" else ("second", 2)
        cases = [
            ((rng.integers(40, 61, n) / 20).tolist(), (rng.integers(0, 18, n - step) / 20).tolist())
            for n in rng.integers(13, 25, 40).tolist()
        ]
        if kind == "tridiagonal":
            # a dense elimination printed 180.677185313 for the order-6
            # minor 180.6771853125 (the certificate: 180.677185312)
            cases.append((
                [2.95, 2.35, 2.5, 2.9, 2.05, 2.25, 2.35, 2.85, 2.5, 2.1, 2.9, 2.7, 2.2, 2.85, 2.35, 2.25],
                [0.45, 0.4, 0.45, 0.25, 0.8, 0.6, 0.4, 0.85, 0.8, 0.6, 0.6, 0.4, 0.6, 0.35, 0.35],
            ))
        for i, (diag, off) in enumerate(cases):
            # a new file each time: rewriting one can cost far more
            f = tmp_path / f"band{i}.json"
            f.write_text(json.dumps({"kind": kind, "diag": diag, key: off}))
            code, out, _ = run_cli(capsys, "check-positivity", str(f))
            assert code == EXIT_OK
            lines = dict(line.split(": ", 1) for line in out.splitlines())
            assert lines["leading_minors_exact"] == lines["leading_minors"]
            _, out, _ = run_cli(capsys, "check-positivity", str(f), "--json")
            verdicts = json.loads(out)["verdicts"]
            assert verdicts["leading_minors_exact"] == verdicts["leading_minors"]

    def test_no_line_at_the_limit_or_in_float_mode(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("BANDPOS_EXACT", "1")
        _, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2] * 12, [1] * 11))
        assert "conventions: none" in out.splitlines()
        monkeypatch.delenv("BANDPOS_EXACT")
        _, out, _ = run_cli(capsys, "check-positivity", _tridiagonal_file(tmp_path, [2] * 16, [1] * 15))
        assert "conventions: none" in out.splitlines()


# every subcommand, text and --json, exact mode on and off, usage errors,
# input format errors, help and version, interleaved
PARSER_SEQUENCE = [
    ({}, ["check-positivity", "data/a01.json"]),
    (EXACT, ["check-positivity", "data/a01.json", "--json"]),
    ({}, ["hadamard", "data/p.json", "-r", "0.5", "--json"]),
    (EXACT, ["hadamard", "data/p.json"]),
    ({}, ["chain", "1/4,1/4,1/4"]),
    (EXACT, ["chain", "0.5,0.5,0.5", "--json"]),
    ({}, ["critical-exponent", "data/k5.graph", "--json"]),
    (EXACT, ["critical-exponent", "data/c4.graph"]),
    ({}, ["id-check", "data/id_block.json"]),
    (EXACT, ["id-check", "data/a0.json", "--json"]),
    ({}, ["counterexample", "--family", "tridiagonal", "-r", "0.5"]),
    (EXACT, ["counterexample", "--family", "heptadiagonal", "-r", "0.5"]),
    ({}, ["probe", "--family", "pentadiagonal", "-r", "2", "-n", "5", "--seed", "7", "--json"]),
    (EXACT, ["probe", "--family", "tridiagonal", "-r", "0.5", "-n", "5"]),
    ({}, ["check-positivity", "data/p3.graph"]),
    (EXACT, ["chain", "1,junk"]),
    ({}, ["check-positivity", "data/p.json", "--tol", "1e-6"]),
    (EXACT, ["check-positivity", "data/p.json"]),
    ({}, ["chain", "-h"]),
    (EXACT, ["--version"]),
    ({}, ["hadamard", "data/p.json", "-r", "2", "--json"]),
]


def _run_sequence(capsys, monkeypatch):
    results = []
    for env, argv in PARSER_SEQUENCE:
        monkeypatch.delenv("BANDPOS_EXACT", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        out = capsys.readouterr()
        results.append((code, out.out, out.err))
    return results


def test_parser_is_built_once_and_reused(capsys, monkeypatch):
    cached = cli._build_parser
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(cli, "_build_parser", cached.__wrapped__)
    fresh = _run_sequence(capsys, monkeypatch)
    # uncached, every call builds the top-level parser and one per subcommand
    assert len(built) == 8 * len(PARSER_SEQUENCE)
    built.clear()
    monkeypatch.setattr(cli, "_build_parser", cached)
    cached.cache_clear()
    reused = _run_sequence(capsys, monkeypatch)
    assert reused == fresh
    subcommands = ["check-positivity", "hadamard", "chain", "critical-exponent", "id-check", "counterexample", "probe"]
    assert built == ["bandpos"] + [f"bandpos {name}" for name in subcommands]
    # the sequence covers what it claims to
    assert {argv[0] for _, argv in PARSER_SEQUENCE} >= set(subcommands)
    assert {code for code, _, _ in fresh} == {EXIT_OK, EXIT_USAGE, EXIT_FORMAT, "SystemExit(0)"}
