"""Workload cli-exact: the command line, in process, in exact mode.

Each operation is one ``bandpos.cli.main(argv)`` call with stdout captured
and ``BANDPOS_EXACT=1``, on rational inputs written to files beforehand.
It covers all seven subcommands (matrix orders 3 to 24, chains up to
length 40, past the exact limit of 32), and every ``--json`` report is
checked field by field.  This is the only workload that runs the CLI layer
and the Fraction path; it gives a CLI user's per-call cost without the
interpreter start, which set-up time carries instead.

The seed's ``check-positivity`` fills ``leading_minors_exact`` with floats
above order 12; those operations fail as the documented seed failure
``exact-minors-float``.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from bandpos import bandmat, chainseq, cli, graphs, positivity, preservers

import gen
from ops import Failure, Op, close, wrong

ENV = {"BANDPOS_EXACT": "1"}
TOL = positivity.DEFAULT_TOL
B, P, I = gen.BOUNDARY, gen.PD, gen.INDEFINITE


def _rows(n: int, entries) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j, x in entries:
        rows[i][j] = rows[j][i] = x
    return rows


def _band_rows(kind, diag, off) -> list[list[Fraction]]:
    step = 1 if kind == "tridiagonal" else 2
    n = len(diag)
    return _rows(n, [(i, i, d) for i, d in enumerate(diag)] + [(i, i + step, b) for i, b in enumerate(off)])


def _replay(tr, sub, replays):
    """Replay the library calls a subcommand makes, under its span."""
    parent = tr.last(f"cli.{sub}")
    with tr.replaying():
        for name, fn, *args in replays():
            tr.replay(parent, name, fn, *args)


def _cli_op(label, argv, check, replays) -> Op:
    sub = argv[0]

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call(f"cli.{sub}", cli.main, argv)
        if tr.tracing:
            _replay(tr, sub, replays)
        return code, out.getvalue()

    def check_report(value):
        code, stdout = value
        if code != 0:
            return wrong(f"{label}: exit code {code}")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return wrong(f"{label}: stdout is not a JSON report")
        return check(report["verdicts"])

    return Op(label, run, check_report)


def _writer(workdir):
    """Writes each input to its own file in workdir; returns the path."""
    count = itertools.count(1)

    def write(text: str, suffix: str) -> str:
        path = workdir / f"input{next(count)}{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _check_positivity(write, rng, kind, cls, n) -> Op:
    if kind == "tridiagonal":
        diag, off = gen.rational_tridiagonal_of_class(rng, n, cls)
        minors = gen.continuant_minors(diag, off)
    else:
        (odd_d, odd_o), (even_d, even_o) = (
            gen.rational_tridiagonal_of_class(rng, (n + 1) // 2, cls),
            gen.rational_pd_tridiagonal(rng, n // 2),
        )
        diag, off = [None] * n, [None] * (n - 2)
        diag[0::2], diag[1::2], off[0::2], off[1::2] = odd_d, even_d, odd_o, even_o
        minors = gen.penta_minors(diag, off)
    text = gen.exact_json(kind, diag, off)
    path = write(text, ".json")
    want_minors = [str(m) for m in minors]
    ratios = [off[j] ** 2 / (diag[j] * diag[j + 1]) for j in range(n - 1)] if kind == "tridiagonal" else None

    def check(v):
        if v["classification"] != cls:
            return wrong(f"classified {v['classification']}, expected {cls}")
        if kind == "tridiagonal":
            want = cls == P
            if (v["chain_is_chain"], v["wall_wetzel_pd"], v["oracle_agreement"]) != (want, want, "yes"):
                return wrong("chain route disagrees with the known class")
        got = v.get("leading_minors_exact")
        if got == want_minors:
            return None
        if n > 12 and isinstance(got, list) and all(isinstance(x, float) for x in got):
            return Failure("exact-minors-float", f"order {n}: leading_minors_exact holds floats")
        return wrong("leading_minors_exact differs from the exact minors")

    def replays():
        m = bandmat.matrix_from_json(text)
        exact_rows = _band_rows(kind, diag, off)
        calls = [
            ("bandmat.matrix_from_json", bandmat.matrix_from_json, text),
            ("positivity.classify_positivity", positivity.classify_positivity, m),
            ("positivity.leading_principal_minors", positivity.leading_principal_minors, exact_rows),
        ]
        if kind == "tridiagonal":
            calls += [
                ("chainseq.minimal_parameters", chainseq.minimal_parameters, ratios),
                ("chainseq.wall_wetzel_pd", chainseq.wall_wetzel_pd, m),
            ]
        return calls

    return _cli_op(f"check-positivity/{kind}/{cls}/{n}", ["check-positivity", path, "--json"], check, replays)


def _hadamard(write, kind, arrays, r, cls, label) -> Op:
    text, dense = gen.band_input(kind, *arrays)
    path = write(text, ".json")
    want_det = float(np.linalg.det(dense**r))

    def check(v):
        if v["classification"] != cls:
            return wrong(f"powered matrix classified {v['classification']}, expected {cls}")
        if not close(v["determinant"], want_det):
            return wrong(f"determinant {v['determinant']}, reference {want_det}")
        return None

    def replays():
        m = bandmat.matrix_from_json(text)
        powered = bandmat.hadamard_power(m, r)
        return [
            ("bandmat.matrix_from_json", bandmat.matrix_from_json, text),
            ("bandmat.hadamard_power", bandmat.hadamard_power, m, r),
            ("positivity.classify_positivity", positivity.classify_positivity, powered),
            ("positivity.determinant", positivity.determinant, powered),
        ]

    return _cli_op(label, ["hadamard", path, "-r", str(r), "--json"], check, replays)


def _float_chain_tolerances(g) -> list[float]:
    """Relative error each float minimal parameter m_k = a_k / (1 - m_{k-1})
    may carry against the exact g_k.  Each step rounds three times (the
    input a_k, the subtraction and the division) and multiplies the error
    it inherits by m_{k-1} / (1 - m_{k-1}), which reaches 9 at g = 0.9, so
    the bound grows with the sequence; four times the first-order bound,
    plus the report's rounding to 12 significant digits."""
    u = sys.float_info.epsilon / 2
    bound, prev, tols = 0.0, 0.0, []
    for x in g:
        bound = 3 + prev / (1 - prev) * bound
        tols.append(4 * u * bound + 1e-11)
        prev = float(x)
    return tols


def _chain(rng, length, break_at) -> Op:
    seq, g = gen.chain_sequence(rng, length, break_at)
    exact = length <= 32
    text = ",".join(str(x) for x in seq)
    tols = _float_chain_tolerances(g)

    def check(v):
        if v["is_chain"] != (break_at is None) or v["exact_mode"] != exact:
            return wrong(f"is_chain={v['is_chain']} exact_mode={v['exact_mode']}")
        if v["failure_index"] != (None if break_at is None else break_at + 1):
            return wrong(f"failure index {v['failure_index']}")
        params = v["minimal_params"][: len(g) if break_at is None else break_at]
        if exact and params != [str(x) for x in g[: len(params)]]:
            return wrong("exact minimal parameters differ from g_k")
        if not exact and not all(close(p, float(x), rel=t) for p, x, t in zip(params, g, tols)):
            return wrong("minimal parameters differ from g_k")
        return None

    def replays():
        return [("chainseq.minimal_parameters", chainseq.minimal_parameters, seq)]

    kind = "chain" if break_at is None else "broken"
    return _cli_op(f"chain/{kind}/{length}", ["chain", text, "--json"], check, replays)


def _critical_exponent(write, rng, label, n, edges, r_star) -> Op:
    edges = gen.relabel(rng, n, edges)
    text = gen.graph_text(n, edges)
    path = write(text, ".graph")
    adj = gen.adjacency(n, edges)

    def check(v):
        if v["chordal"] != (r_star is not None):
            return wrong(f"chordal={v['chordal']}")
        if r_star is None:
            cycle = tuple(int(x) for x in v["witness_cycle"].split("-"))
            return None if gen.is_chordless_cycle(adj, cycle) else wrong(f"bad witness {cycle}")
        if (v["max_near_clique"], v["tail_threshold"], v["includes_naturals"]) != (r_star, r_star - 2, True):
            return wrong(f"near-clique {v['max_near_clique']}, expected {r_star}")
        if not gen.is_perfect_elimination_ordering(adj, v["elimination_ordering"]):
            return wrong("ordering is not a perfect elimination ordering")
        return None

    def replays():
        g = graphs.graph_from_text(text)
        calls = [
            ("graphs.graph_from_text", graphs.graph_from_text, text),
            ("graphs.is_chordal", graphs.is_chordal, g),
        ]
        if r_star is not None:
            calls.append(("graphs.max_near_clique", graphs.max_near_clique, g))
        return calls

    return _cli_op(f"critical-exponent/{label}", ["critical-exponent", path, "--json"], check, replays)


def _id_check(write, label, text, expected) -> Op:
    path = write(text, ".json")
    key = "probe_passed" if '"dense"' in text else "infinitely_divisible"

    def check(v):
        return None if v.get(key) == expected else wrong(f"{key}={v.get(key)}, expected {expected}")

    def replays():
        m = bandmat.matrix_from_json(text)
        if key == "probe_passed":
            fn, span = preservers.id_numeric_probe, "preservers.id_numeric_probe"
        else:
            fn = preservers.is_id_tridiagonal if m.bandwidth == 1 else preservers.is_id_pentadiagonal
            span = "preservers.is_id"
        return [("bandmat.matrix_from_json", bandmat.matrix_from_json, text), (span, fn, m)]

    return _cli_op(f"id-check/{label}", ["id-check", path, "--json"], check, replays)


def _counterexample(family, r) -> Op:
    if family == "tridiagonal":
        eps = (2.0 ** (1.0 / r) - 2.0) / 2.0
        want_det = (2.0 + eps) ** r - 2.0
    else:
        want_det = 2.0 - 3.0 * 2.0**r + 4.0**r

    def check(v):
        if v["powered_classification"] != I:
            return wrong(f"powered counterexample is {v['powered_classification']}")
        if not (close(v["det_formula"], want_det) and close(v["det_computed"], want_det, rel=1e-8)):
            return wrong(f"determinant {v['det_computed']}, closed form {want_det}")
        return None

    def replays():
        if family == "tridiagonal":
            m = preservers.counterexample_tridiagonal(r)
        else:
            m = preservers.counterexample_pentadiagonal(r)
        powered = bandmat.hadamard_power(m, r)
        return [
            ("bandmat.hadamard_power", bandmat.hadamard_power, m, r),
            ("positivity.classify_positivity", positivity.classify_positivity, powered),
            ("positivity.determinant", positivity.determinant, powered),
        ]

    argv = ["counterexample", "--family", family, "-r", str(r), "--json"]
    return _cli_op(f"counterexample/{family}/r={r}", argv, check, replays)


def _probe(family, r, samples, seed) -> Op:
    def check(v):
        want = r < 1
        return None if v["falsified"] == want else wrong(f"falsified={v['falsified']}, expected {want}")

    def replays():
        return [("preservers.probe_preserves", preservers.probe_preserves, family, r, samples, seed)]

    argv = ["probe", "--family", family, "-r", str(r), "-n", str(samples), "--seed", str(seed), "--json"]
    return _cli_op(f"probe/{family}/r={r}", argv, check, replays)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    write = _writer(workdir)
    ops = [
        _check_positivity(write, rng, "tridiagonal", P, 8),
        _check_positivity(write, rng, "tridiagonal", P, 12),
        _check_positivity(write, rng, "tridiagonal", B, 6),
        _check_positivity(write, rng, "tridiagonal", I, 10),
        _check_positivity(write, rng, "tridiagonal", P, 16),
        _check_positivity(write, rng, "tridiagonal", B, 24),
        _check_positivity(write, rng, "pentadiagonal", P, 9),
        _check_positivity(write, rng, "pentadiagonal", B, 7),
    ]
    pd = gen.chain_pd_tridiagonal(rng, 6)
    a_eps = gen.a_eps(float(rng.uniform(0.2, 1.0)))
    penta = gen.interleave(gen.chain_pd_tridiagonal(rng, 4), gen.chain_pd_tridiagonal(rng, 4))
    penta_id = gen.interleave(gen.id_tridiagonal(rng, 5), gen.id_tridiagonal(rng, 4))
    dense_id = gen.permuted(rng, gen.tri_dense(*gen.id_tridiagonal(rng, 6)))
    ops += [
        _hadamard(write, "tridiagonal", pd, 2.0, P, "hadamard/tridiagonal/r=2"),
        _hadamard(write, "tridiagonal", a_eps, 0.5, I, "hadamard/a_eps/r=0.5"),
        _hadamard(write, "pentadiagonal", penta, 3.0, P, "hadamard/pentadiagonal/r=3"),
        _chain(rng, 4, None),
        _chain(rng, 16, 9),
        _chain(rng, 32, None),
        _chain(rng, 40, None),
        _critical_exponent(write, rng, "band(12,3)", 12, gen.band_edges(12, 3), 5),
        _critical_exponent(write, rng, "ktree(20,3)", 20, gen.ktree_edges(rng, 20, 3), 5),
        _critical_exponent(write, rng, "K6", 6, gen.complete_edges(6), 6),
        _critical_exponent(write, rng, "C8", 8, gen.cycle_edges(8), None),
        _id_check(write, "tridiagonal/yes", gen.tri_json(*gen.id_tridiagonal(rng, 8)), True),
        _id_check(write, "tridiagonal/no", gen.tri_json(*gen.chain_pd_tridiagonal(rng, 8)), False),
        _id_check(write, "pentadiagonal/yes", gen.penta_json(*penta_id), True),
        _id_check(write, "dense/yes", gen.dense_json(dense_id), True),
        _counterexample("tridiagonal", 0.5),
        _counterexample("tridiagonal", 0.25),
        _counterexample("pentadiagonal", 0.5),
        _probe("tridiagonal", 0.5, 16, seed),
        _probe("pentadiagonal", 2.0, 16, seed),
    ]
    return ops
