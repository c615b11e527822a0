"""The CLI's one-pass JSON writer and its direct subcommand dispatch, each
against the route it replaced: the report made JSON-ready, then written by
json.dumps; every argv parsed by the top-level parser."""

import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from bandpos import cli
from bandpos.cli import main

TESTS = pathlib.Path(__file__).parent


@pytest.fixture(autouse=True)
def _run_from_tests_dir(monkeypatch):
    monkeypatch.chdir(TESTS)
    monkeypatch.delenv("BANDPOS_EXACT", raising=False)


# the reference: the writer's predecessor, frozen


def _json_ready(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (np.floating, float)):
        text = f"{float(value):.12g}"
        # strict JSON has no inf or nan: keep them as the text report prints them
        return float(text) if math.isfinite(value) else text
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, np.ndarray):
        return _json_ready(value.tolist())
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def reference_report(value):
    return json.dumps(_json_ready(value), indent=2, ensure_ascii=False, allow_nan=False)


def reference_line(value):
    return json.dumps(_json_ready(value), ensure_ascii=False)


def assert_both_layouts(value):
    assert cli._json_text(value) == reference_report(value)
    assert cli._json_text(value, "") == reference_line(value)


FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-310, 1e16, -1e16, 1e15, 1e17,
    123456789012345.0, 0.1 + 0.2, 1 / 3, -2.5, 1.0, 1e-5, 1e-4, 1e21, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan,
]
NUMPY = [
    np.float32(0.1), np.float32(-3.4e38), np.float32(np.inf), np.float32(np.nan), np.float64(1 / 7),
    np.float64(-0.0), np.float16(0.3), np.longdouble(1) / 3, np.int64(-(2**63)), np.uint64(2**64 - 1),
    np.int8(-7), np.int32(0),
    np.arange(4.0) / 3, np.array([[1, 2], [3, 4]], dtype=np.int64), np.zeros((0,)), np.zeros((2, 0)),
    np.array(2.5), np.array([np.inf, -np.inf, np.nan], dtype=np.float32), np.array([True, False]),
]
OTHER = [
    Fraction(1, 3), Fraction(-22, 7), Fraction(5), Fraction(0), True, False, None, 0, -12, 10**30,
]
STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\rcr", "\x00\x01\x1f\x7f",
    "é ü 中文 ∞ ±", "emoji 🙂", "lone \ud800 surrogate", "  ", "/ slash", "'single'",
]


@pytest.mark.parametrize("value", FLOATS + NUMPY + OTHER + STRINGS, ids=repr)
def test_leaves(value):
    assert_both_layouts(value)
    assert_both_layouts([value, value])
    assert_both_layouts({"k": value, "": [value], "e": {}})


def _tree(rng, depth):
    leaves = FLOATS + NUMPY + OTHER + STRINGS
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice(leaves)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    if roll < 0.6:
        return [_tree(rng, depth - 1) for _ in range(size)]
    if roll < 0.7:
        return tuple(_tree(rng, depth - 1) for _ in range(size))
    return {rng.choice(STRINGS) + str(i): _tree(rng, depth - 1) for i in range(size)}


@pytest.mark.parametrize("seed", range(40))
def test_seeded_nested_values(seed):
    assert_both_layouts(_tree(random.Random(seed), 5))


def test_empty_containers():
    for value in ({}, [], (), {"a": {}}, [[], {}, ()], {"a": [{}], "b": [[[]]]}):
        assert_both_layouts(value)


@pytest.mark.parametrize(
    "value",
    [np.bool_(True), 1 + 2j, np.complex128(1), object(), {1, 2}, b"bytes", Fraction, [np.bool_(False)]],
    ids=repr,
)
def test_unsupported_values_raise_type_error(value):
    with pytest.raises(TypeError):
        reference_report(value)
    for nl in ("\n", ""):
        with pytest.raises(TypeError):
            cli._json_text(value, nl)
        with pytest.raises(TypeError):
            cli._json_text({"k": [value]}, nl)


@pytest.mark.parametrize("key", [1, 1.5, None, True, np.int64(2), (1, 2)], ids=repr)
def test_non_str_keys_are_refused(key):
    # report keys are all str; json.dumps would write some of these as str
    for nl in ("\n", ""):
        with pytest.raises(TypeError, match="keys must be str"):
            cli._json_text({key: 1}, nl)


SUBCOMMANDS = ["check-positivity", "hadamard", "chain", "critical-exponent", "id-check", "counterexample", "probe"]

# every report of every subcommand over tests/data, float and exact mode
MATRICES = sorted(str(p.relative_to(TESTS)) for p in (TESTS / "data").glob("*.json"))
GRAPHS = sorted(str(p.relative_to(TESTS)) for p in (TESTS / "data").glob("*.graph"))
REPORT_ARGV = (
    [["check-positivity", f] for f in MATRICES]
    + [["check-positivity", f, "--tol", "1e-3"] for f in MATRICES]
    + [["hadamard", f, "-r", r] for f in MATRICES for r in ("0", "0.5", "2", "3")]
    + [["id-check", f] for f in MATRICES]
    + [["critical-exponent", g] for g in GRAPHS]
    + [["chain", s] for s in ("1/4,1/4,1/4", "0.5,0.5,0.5", "0.1,0.9,0.2", "1/3", "0,1/2,-1")]
    + [["counterexample", "--family", fam, "-r", r] for fam in ("tridiagonal", "pentadiagonal") for r in ("0.5", "0.01")]
    + [["probe", "--family", fam, "-r", "0.5", "-n", "3", "--seed", "2"] for fam in ("tridiagonal", "pentadiagonal")]
    + [["probe", "--family", "graph", "--graph", g, "-r", "1.5", "-n", "3"] for g in GRAPHS]
)


@pytest.mark.parametrize("exact", ["0", "1"])
def test_every_report_over_tests_data(capsys, monkeypatch, exact):
    monkeypatch.setenv("BANDPOS_EXACT", exact)
    reports = []
    to_json = cli.RunReport.to_json

    def recording(self):
        reports.append(self)
        return to_json(self)

    monkeypatch.setattr(cli.RunReport, "to_json", recording)
    for argv in REPORT_ARGV:
        assert main(argv + ["--json"]) == cli.EXIT_OK, argv
        out = capsys.readouterr().out
        report = reports.pop()
        obj = {
            "command": report.command,
            "inputs": report.inputs,
            "verdicts": report.verdicts,
            "conventions": list(report.conventions),
            "exit_code": cli.EXIT_OK,
        }
        assert out == reference_report(obj) + "\n", argv
        # the text report writes dict values, such as a matrix, on one line
        for value in report.verdicts.values():
            if isinstance(value, dict):
                assert cli._json_text(value, "") == reference_line(value), argv
    assert not reports
    assert {argv[0] for argv in REPORT_ARGV} == set(SUBCOMMANDS)


# dispatch: main against the top-level parser alone

DISPATCH_ARGV = [
    # valid calls, options before and after the positional arguments
    ["check-positivity", "data/a01.json"],
    ["check-positivity", "--json", "data/a01.json"],
    ["check-positivity", "--tol", "1e-3", "data/p.json", "--json"],
    ["hadamard", "data/p.json", "-r", "0.5"],
    ["hadamard", "-r", "2", "data/a01.json", "--json"],
    ["hadamard", "-r2", "data/a01.json"],
    ["chain", "1/4,1/4,1/4"],
    ["chain", "--", "1/4,1/4"],
    ["critical-exponent", "data/k5.graph", "--json"],
    ["id-check", "data/id_block.json"],
    ["counterexample", "--family", "pentadiagonal", "-r", "0.25"],
    ["counterexample", "-r", "0.5", "--family=tridiagonal", "--json"],
    ["probe", "--family", "tridiagonal", "-r", "0.5", "-n", "4", "--seed", "3"],
    ["probe", "--graph", "data/p3.graph", "--family", "graph", "-r", "2", "-n", "3"],
    # abbreviated options
    ["check-positivity", "data/a01.json", "--js"],
    ["check-positivity", "data/a01.json", "--to", "1e-3"],
    ["check-positivity", "data/a01.json", "--to=1e-3", "--j"],
    ["counterexample", "--fam", "tridiagonal", "-r", "0.5"],
    ["probe", "--fa", "pentadiagonal", "-r", "2", "-n", "2", "--se", "1", "--js"],
    # negative values
    ["hadamard", "data/p.json", "-r", "-0.5"],
    ["counterexample", "--family", "tridiagonal", "-r", "-0.5"],
    ["probe", "--family", "tridiagonal", "-r", "1.5", "-n", "2", "--seed", "-1"],
    ["probe", "--family", "tridiagonal", "-r", "1.5", "-n", "-2"],
    ["check-positivity", "data/a01.json", "--tol", "-1"],
    ["chain", "-0.5,0.5"],
    ["chain", "--", "-0.5,0.5"],
    # extra arguments
    ["chain", "1/4", "1/4"],
    ["check-positivity", "data/a01.json", "data/p.json"],
    ["check-positivity", "data/a01.json", "--verbose"],
    ["hadamard", "data/p.json", "-r", "0.5", "-x"],
    ["chain", "1/4", "--version"],
    ["id-check", "data/a0.json", "--json=yes"],
    # missing required arguments
    ["check-positivity"],
    ["hadamard", "data/p.json"],
    ["hadamard", "-r", "0.5"],
    ["hadamard", "data/p.json", "-r"],
    ["counterexample", "-r", "0.5"],
    ["probe", "--family", "graph", "-r", "2", "-n", "2"],
    ["probe", "-r", "2"],
    ["chain"],
    # bad choices and values
    ["counterexample", "--family", "heptadiagonal", "-r", "0.5"],
    ["probe", "--family", "dense", "-r", "1"],
    ["hadamard", "data/p.json", "-r", "half"],
    ["probe", "--family", "tridiagonal", "-r", "1", "-n", "2.5"],
    # input and library errors
    ["check-positivity", "data/no-such-file.json"],
    ["check-positivity", "data/p3.graph"],
    ["chain", "1,junk"],
    # help, version, empty, unknown and abbreviated commands
    ["-h"],
    ["--help"],
    ["--version"],
    ["--vers"],
    [],
    ["no-such-command"],
    ["check"],
    ["crit", "data/k5.graph"],
    ["--json", "chain", "1/4"],
    ["--version", "chain", "1/4"],
    ["-h", "chain"],
    ["chain", "-h"],
    ["hadamard", "data/p.json", "--help"],
    ["probe", "-h", "--family", "nonsense"],
]

def _recording(handler, namespaces):
    def record(args):
        namespaces.append(list(vars(args).items()))
        return handler(args)

    return record


@pytest.mark.parametrize("exact", ["0", "1"])
def test_dispatch_matches_the_top_level_parser(capsys, monkeypatch, exact):
    monkeypatch.setenv("BANDPOS_EXACT", exact)
    # one build serves both routes, its handlers recording the namespace
    # each call hands them
    namespaces = []
    parser, commands = cli._build_parser.__wrapped__()
    assert sorted(commands) == sorted(SUBCOMMANDS)
    for command in commands.values():
        command.set_defaults(handler=_recording(command.get_default("handler"), namespaces))

    def outcomes(table):
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, table))
        results = []
        for argv in DISPATCH_ARGV:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = f"SystemExit({exc.code})"
            out = capsys.readouterr()
            results.append((code, out.out, out.err, namespaces.pop() if namespaces else None))
            assert not namespaces
        return results

    dispatched = outcomes(commands)
    # with no subcommand table every argv takes the top-level parser
    full = outcomes({})
    for argv, got, want in zip(DISPATCH_ARGV, dispatched, full):
        assert got == want, argv
    # the matrix covers what it claims to
    assert {argv[0] for argv in DISPATCH_ARGV if argv} >= set(SUBCOMMANDS)
    assert {code for code, _, _, _ in full} == {
        cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_FORMAT, "SystemExit(0)",
    }
    assert sum(ns is not None for _, _, _, ns in full) >= 20
