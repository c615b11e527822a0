"""Command-line interface.

Subcommands: check-positivity, hadamard, chain, critical-exponent,
id-check, counterexample, probe.  Each one composes public library calls
and formats the result; no verdict is decided here.  Only the four that
classify a matrix, check-positivity, hadamard, counterexample and probe,
take --tol; chain, critical-exponent and id-check refuse it as an
unrecognized argument.  Exit codes encode pipeline success, not
mathematical verdicts: 0 means the analysis completed (whatever the
verdict), 1 is a usage error (an argument the library refuses with a
ValueError included), 2 an input format error.
The argument parser is built once per process and reused by every main()
call; nothing in it depends on the environment, which the handlers read
at run time.  When the first argument names a subcommand, the rest are
parsed by that subcommand's parser alone, as the top-level parser would
hand them over; any other argument list (empty, --version, -h, an unknown
or abbreviated name) goes through the top-level parser.

Setting BANDPOS_EXACT=1 switches chain sequences and principal minors to
exact rational arithmetic where the inputs allow it.  check-positivity
then parses the matrix file once, with every number read exactly
(bandmat.exact_matrix_from_json).  Band input stays band-shaped: its
exact minors are the continuant of its two Fraction diagonals and its
exact ratios come from the same diagonals, both in O(n).  Above order 12
(positivity.EXACT_MINOR_LIMIT) leading_minors_exact holds floats, for
band input the values of leading_minors; the report's conventions say so.

All floating-point output is printed to 12 significant digits so that
reports are byte-identical across runs.  Non-finite values (an overflowed
minor) are printed as inf, -inf or nan, and are strings under --json.
A --json report is written in one pass, in the layout of json.dumps with
indent=2.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring

import numpy as np

from . import __version__
from .bandmat import (
    BandSymMatrix,
    exact_matrix_from_json,
    hadamard_power,
    matrix_from_json,
    matrix_kind,
    matrix_to_json_obj,
)
from .chainseq import (
    BOUNDARY_TOL,
    minimal_parameters,
    ratio_sequence,
    tridiag_ratio_sequence,
)
from .graphs import chordal_critical_exponent, graph_from_text, is_chordal
from .positivity import (
    DEFAULT_TOL,
    EXACT_MINOR_LIMIT,
    PD,
    classify_positivity,
    determinant,
    leading_principal_minors,
)
from .preservers import (
    counterexample_pentadiagonal,
    counterexample_tridiagonal,
    id_numeric_probe,
    id_verdict,
    probe_preserves,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2

CONVENTION_ZERO_POWER = "0^0 := 1 (zero entries map to 1 at exponent 0)"
CONVENTION_NATURALS = "naturals in power sets exclude 0"
CONVENTION_PROBE = "numeric probe is a necessary condition, not a certificate"
CONVENTION_BOUNDARY = f"minimal parameter within {BOUNDARY_TOL:g} of 1: verdict is boundary-indeterminate"
CONVENTION_EXACT_LIMIT = (
    f"order above EXACT_MINOR_LIMIT = {EXACT_MINOR_LIMIT}: leading_minors_exact holds floats"
)


class UsageError(Exception):
    pass


class InputFormatError(Exception):
    pass


@dataclass
class RunReport:
    """Structured result of one CLI invocation."""

    command: str
    inputs: dict
    verdicts: dict
    conventions: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return _json_text(
            {
                "command": self.command,
                "inputs": self.inputs,
                "verdicts": self.verdicts,
                "conventions": self.conventions,
                "exit_code": EXIT_OK,
            }
        )

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, val in self.inputs.items():
            lines.append(f"input.{key}: {_fmt_value(val)}")
        for key, val in self.verdicts.items():
            lines.append(f"{key}: {_fmt_value(val)}")
        conv = "; ".join(self.conventions) if self.conventions else "none"
        lines.append(f"conventions: {conv}")
        return "\n".join(lines)


def _json_text(value, nl: str = "\n") -> str:
    """value as JSON text, in one pass.  nl is the newline plus the
    indentation of value's line: "\n" gives the layout of json.dumps with
    indent=2, "" its one-line layout.  A float is printed to 12 significant
    digits, a non-finite one as the string inf, -inf or nan (strict JSON has
    neither); Fractions are strings, arrays lists, and keys must be str."""
    if isinstance(value, str):
        return encode_basestring(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        x = float(value)
        text = f"{x:.12g}"
        return repr(float(text)) if math.isfinite(x) else f'"{text}"'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Fraction):
        return encode_basestring(str(value))
    if value is None:
        return "null"
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist(), nl)
    inner = nl + "  " if nl else ""
    sep = "," + inner if nl else ", "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring(key)}: {_json_text(item, inner)}")
        return "{" + inner + sep.join(items) + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {float}:
            # the float case above, for every item in one comprehension
            items = [repr(float(f"{x:.12g}")) if math.isfinite(x) else f'"{x:.12g}"' for x in value]
        elif types == {Fraction}:
            items = [encode_basestring(str(x)) for x in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + sep.join(items) + nl + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (np.floating, float)):
        return f"{float(value):.12g}"
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, Fraction):
        return str(value)
    if value is None:
        return "none"
    if isinstance(value, np.ndarray):
        return _fmt_value(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt_value(v) for v in value) + "]"
    if isinstance(value, dict):
        return _json_text(value, "")
    return str(value)


def _exact_enabled() -> bool:
    return os.environ.get("BANDPOS_EXACT") == "1"


def _load(path: str, parse):
    """parse(text) of the file at path; an unreadable file or a ValueError
    from parse is an input format error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _cmd_check_positivity(args) -> RunReport:
    if _exact_enabled():
        m, exact = _load(args.file, exact_matrix_from_json)
    else:
        m, exact = _load(args.file, matrix_from_json), None
    verdict = classify_positivity(m, args.tol)
    inputs = {
        "file": args.file,
        "kind": matrix_kind(m),
        "order": m.order,
        "tol": args.tol,
    }
    verdicts = {
        "classification": verdict.classification,
        "min_eigenvalue": verdict.min_eigenvalue,
        "scale": verdict.scale,
        "leading_minors": list(verdict.certificate),
    }
    conventions: list[str] = []
    if exact is not None:
        if m.order > EXACT_MINOR_LIMIT:
            # leading_principal_minors(exact) is then the float certificate
            verdicts["leading_minors_exact"] = verdicts["leading_minors"]
            conventions.append(CONVENTION_EXACT_LIMIT)
        else:
            verdicts["leading_minors_exact"] = leading_principal_minors(exact)
    if isinstance(m, BandSymMatrix) and m.bandwidth == 1:
        # wall_wetzel_pd of the signless matrix (diag(+-1) carries m to it),
        # read off the chain report of their common ratios: no for a zero
        # diagonal entry, yes at order 1
        ww = bool((m.main_diag > 0).all())
        if ww:
            if exact is not None:
                ratios = ratio_sequence(exact.diag, exact.off)
            else:
                ratios = tridiag_ratio_sequence(m)
            verdicts["ratio_sequence"] = ratios.tolist()
            if ratios.size:
                report = minimal_parameters(ratios, split_at_zero=True)
                ww = report.is_chain
                verdicts["chain_is_chain"] = report.is_chain
                verdicts["chain_minimal_params"] = list(report.minimal_params)
                verdicts["chain_failure_index"] = report.failure_index
                if report.boundary_indeterminate:
                    conventions.append(CONVENTION_BOUNDARY)
        else:
            verdicts["ratio_sequence"] = "inapplicable (nonpositive diagonal entry)"
        if (m.main_diag < 0).any():
            inapplicable = "inapplicable (negative diagonal entry)"
            verdicts["wall_wetzel_pd"] = verdicts["oracle_agreement"] = inapplicable
        else:
            verdicts["wall_wetzel_pd"] = ww
            if ww == (verdict.classification == PD):
                verdicts["oracle_agreement"] = "yes"
            elif abs(verdict.min_eigenvalue) <= 10 * verdict.threshold:
                verdicts["oracle_agreement"] = "within tolerance band"
            else:
                verdicts["oracle_agreement"] = "DISAGREEMENT"
    return RunReport("check-positivity", inputs, verdicts, conventions)


def _cmd_hadamard(args) -> RunReport:
    if args.r < 0:
        raise UsageError("exponent must be nonnegative")
    m = _load(args.file, matrix_from_json)
    powered = hadamard_power(m, args.r)
    verdict = classify_positivity(powered, args.tol)
    inputs = {"file": args.file, "kind": matrix_kind(m), "r": args.r, "tol": args.tol}
    verdicts = {
        "classification": verdict.classification,
        "min_eigenvalue": verdict.min_eigenvalue,
        "determinant": determinant(powered),
        "matrix": matrix_to_json_obj(powered),
    }
    conventions = [CONVENTION_ZERO_POWER] if args.r == 0 else []
    return RunReport("hadamard", inputs, verdicts, conventions)


def _parse_sequence(text: str) -> list:
    tokens = [tok.strip() for tok in text.split(",")]
    if not tokens or any(not tok for tok in tokens):
        raise InputFormatError("empty entry in sequence")
    exact = _exact_enabled()
    values = []
    for tok in tokens:
        try:
            values.append(Fraction(tok) if exact or "/" in tok else float(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"cannot parse sequence entry {tok!r}") from exc
        if isinstance(values[-1], float) and not math.isfinite(values[-1]):
            raise InputFormatError(f"sequence entry {tok!r} is not finite")
    return values


def _cmd_chain(args) -> RunReport:
    values = _parse_sequence(args.sequence)
    report = minimal_parameters(values)
    inputs = {"sequence": values}
    verdicts = {
        "is_chain": report.is_chain,
        "minimal_params": list(report.minimal_params),
        "failure_index": report.failure_index,
        "exact_mode": report.exact_mode,
        "boundary_indeterminate": report.boundary_indeterminate,
    }
    conventions = [CONVENTION_BOUNDARY] if report.boundary_indeterminate else []
    return RunReport("chain", inputs, verdicts, conventions)


def _cmd_critical_exponent(args) -> RunReport:
    g = _load(args.file, graph_from_text)
    cert = is_chordal(g)
    inputs = {"file": args.file, "vertices": g.n, "edges": g.edge_count}
    if not cert.is_chordal:
        verdicts = {
            "chordal": False,
            "witness_cycle": "-".join(str(v) for v in cert.witness_cycle),
        }
        return RunReport("critical-exponent", inputs, verdicts)
    power_set = chordal_critical_exponent(g)
    verdicts = {
        "chordal": True,
        "elimination_ordering": list(cert.ordering),
        "max_near_clique": int(power_set.tail_threshold) + 2,
        "critical_exponent_set": power_set.render(),
        "tail_threshold": power_set.tail_threshold,
        "includes_naturals": power_set.includes_naturals,
    }
    return RunReport("critical-exponent", inputs, verdicts, [CONVENTION_NATURALS])


def _cmd_id_check(args) -> RunReport:
    m = _load(args.file, matrix_from_json)
    inputs = {"file": args.file, "kind": matrix_kind(m)}
    if not isinstance(m, BandSymMatrix):
        verdicts = {"probe_passed": id_numeric_probe(m)}
        return RunReport("id-check", inputs, verdicts, [CONVENTION_PROBE])
    verdict = id_verdict(m)
    verdicts = {"infinitely_divisible": verdict.infinitely_divisible, "reason": verdict.reason}
    if verdict.blocks:
        verdicts["block_orders"] = [b.order for b in verdict.blocks]
    return RunReport("id-check", inputs, verdicts)


def _cmd_counterexample(args) -> RunReport:
    if args.family == "tridiagonal":
        m = counterexample_tridiagonal(args.r)
        eps = float(m.main_diag[1]) - 2.0
        det_formula = (2.0 + eps) ** args.r - 2.0
    else:
        m = counterexample_pentadiagonal(args.r)
        eps = None
        det_formula = 2.0 - 3.0 * 2.0**args.r + 4.0**args.r
    powered = hadamard_power(m, args.r)
    verdict = classify_positivity(powered, args.tol)
    inputs = {"family": args.family, "r": args.r}
    verdicts = {
        "matrix": matrix_to_json_obj(m),
        "det_formula": det_formula,
        "det_computed": determinant(powered),
        "powered_classification": verdict.classification,
    }
    if eps is not None:
        verdicts["epsilon"] = eps
    return RunReport("counterexample", inputs, verdicts)


def _cmd_probe(args) -> RunReport:
    graph = _load(args.graph, graph_from_text) if args.graph else None
    report = probe_preserves(args.family, args.r, args.n, args.seed, tol=args.tol, graph=graph)
    inputs = {"family": args.family, "r": args.r, "samples": args.n, "seed": args.seed}
    verdicts = {
        "probe_report": report.to_json_obj(),
        "falsified": bool(report.min_over_samples < -args.tol),
    }
    return RunReport("probe", inputs, verdicts)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser, by name."""
    parser = _Parser(prog="bandpos", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bandpos {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {}

    def add(name, handler, tol=False, **kwargs):
        p = commands[name] = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        if tol:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="classification tolerance")
        p.add_argument("--json", action="store_true", help="emit the report as JSON")
        return p

    p = add("check-positivity", _cmd_check_positivity, tol=True, help="classify PD/PSD/indefinite")
    p.add_argument("file", help="matrix JSON file")

    p = add("hadamard", _cmd_hadamard, tol=True, help="entrywise power plus classification")
    p.add_argument("file", help="matrix JSON file")
    p.add_argument("-r", type=float, required=True, help="exponent")

    p = add("chain", _cmd_chain, help="chain-sequence test of a sequence")
    p.add_argument("sequence", help="comma-separated decimals or fractions")

    p = add("critical-exponent", _cmd_critical_exponent, help="chordal critical exponent")
    p.add_argument("file", help="graph file")

    p = add("id-check", _cmd_id_check, help="infinite divisibility check")
    p.add_argument("file", help="matrix JSON file")

    p = add("counterexample", _cmd_counterexample, tol=True, help="falsifying matrix for r < 1")
    p.add_argument("--family", choices=["tridiagonal", "pentadiagonal"], required=True)
    p.add_argument("-r", type=float, required=True, help="exponent in (0, 1)")

    p = add("probe", _cmd_probe, tol=True, help="seeded random falsification probe")
    p.add_argument("--family", choices=["tridiagonal", "pentadiagonal", "graph"], required=True)
    p.add_argument("-r", type=float, required=True, help="exponent > 0")
    p.add_argument("-n", type=int, default=100, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="probe seed")
    p.add_argument("--graph", help="graph file for the graph family")

    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            # what the subparsers action does once the top-level scan has
            # found the subcommand's name first
            args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        report = args.handler(args)
        text = report.to_json() if args.json else report.to_text()
    except (UsageError, ValueError) as exc:
        # a ValueError: the library refusing an argument, or an exact Fraction
        # too long for str(); _load turns parse errors into InputFormatError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader (bandpos ... | head -1) wants no more; stdout goes to
        # devnull, or the interpreter's last flush would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
