"""Workload band-verdicts: the check-positivity pipeline at scale.

Each operation parses a matrix, classifies it, and cross-checks the verdict
by the chain route: ``wall_wetzel_pd`` on a tridiagonal input, or on both
blocks of ``split_pentadiagonal`` for a pentadiagonal one.  One operation in
ten is a full-spectrum request instead.  Inputs are tridiagonal,
pentadiagonal and dense (permuted band) matrices of orders 16 to 64, each
PD with margin, exactly PSD_BOUNDARY, or INDEFINITE.  This is where the
O(n^4) leading minors, the bisection and the Householder reduction all do
real work.
"""

from __future__ import annotations

import numpy as np

from bandpos import bandmat, chainseq, positivity

import gen
from ops import Op, wrong

TOL = positivity.DEFAULT_TOL

B, P, I = gen.BOUNDARY, gen.PD, gen.INDEFINITE

# (kind, class, order) of the verdict operations in one pass.  Every kind
# meets every class twice.  The orders are chosen so that the median and the
# 90th percentile of a pass fall inside groups of operations of like cost:
# the median among the four of order 48, the 90th percentile among the
# costliest (the verdicts of order 64 and the two spectra).
# Orders up to 64 rather than 200 keep a pass near a quarter of a second, so
# that a run makes the many passes each operation's best latency needs.
# The first cell is the cold operation that set-up time includes.
VERDICT_CELLS = [
    ("tridiagonal", B, 48),
    ("tridiagonal", P, 64),
    ("tridiagonal", I, 16),
    ("tridiagonal", P, 32),
    ("tridiagonal", I, 64),
    ("tridiagonal", B, 24),
    ("pentadiagonal", P, 56),
    ("pentadiagonal", B, 16),
    ("pentadiagonal", I, 48),
    ("pentadiagonal", P, 48),
    ("pentadiagonal", B, 32),
    ("pentadiagonal", I, 24),
    ("dense", I, 64),
    ("dense", B, 56),
    ("dense", P, 64),
    ("dense", P, 48),
    ("dense", I, 32),
    ("dense", B, 16),
]

SPECTRUM_CELLS = [("tridiagonal", P, 64), ("pentadiagonal", B, 48)]


def _matrix(rng, kind: str, cls: str, n: int):
    """JSON text and dense array of a known-class input."""
    if kind == "tridiagonal":
        return gen.band_input(kind, *gen.tridiagonal_of_class(rng, n, cls))
    if kind == "pentadiagonal":
        return gen.band_input(kind, *gen.pentadiagonal_of_class(rng, n, cls))
    rows = gen.permuted(rng, gen.tri_dense(*gen.tridiagonal_of_class(rng, n, cls)))
    return gen.dense_json(rows), rows


def _allowance(dense: np.ndarray) -> float:
    return TOL * max(1.0, float(np.linalg.norm(dense, 2)))


def _verdict_op(kind, cls, n, text, dense) -> Op:
    def run(tr):
        m = tr.call("bandmat.matrix_from_json", bandmat.matrix_from_json, text)
        verdict = tr.call("positivity.classify_positivity", positivity.classify_positivity, m)
        if tr.tracing:
            parent = tr.last("positivity.classify_positivity")
            with tr.replaying():
                lam = tr.replay(parent, "positivity.min_eigenvalue", positivity.min_eigenvalue, m)
                tr.replay(
                    parent, "positivity.leading_principal_minors", positivity.leading_principal_minors, m
                )
            tr.self_check(
                lam == verdict.min_eigenvalue,
                f"min_eigenvalue {lam!r} != verdict.min_eigenvalue {verdict.min_eigenvalue!r}",
            )
        if kind == "tridiagonal":
            chain = (tr.call("chainseq.wall_wetzel_pd", chainseq.wall_wetzel_pd, m),)
        elif kind == "pentadiagonal":
            blocks = tr.call("bandmat.split_pentadiagonal", bandmat.split_pentadiagonal, m)
            chain = tuple(tr.call("chainseq.wall_wetzel_pd", chainseq.wall_wetzel_pd, b) for b in blocks)
        else:
            chain = ()
        return verdict.classification, verdict.min_eigenvalue, verdict.certificate, chain

    def check(value):
        classification, lam, minors, chain = value
        if classification != cls:
            return wrong(f"classified {classification}, expected {cls}")
        ref = float(np.linalg.eigvalsh(dense)[0])
        if abs(lam - ref) > _allowance(dense):
            return wrong(f"min eigenvalue {lam!r}, reference {ref!r}")
        if chain and all(chain) != (cls == P):
            return wrong(f"chain route says PD={all(chain)} for a {cls} matrix")
        if len(minors) != n or not np.isfinite(minors).all():
            return wrong("leading-minor certificate has the wrong length or a non-finite entry")
        if cls == P and min(minors) <= 0:
            return wrong("PD matrix with a nonpositive leading minor")
        return None

    return Op(f"verdict/{kind}/{cls}/{n}", run, check)


def _spectrum_op(kind, cls, n, text, dense) -> Op:
    def run(tr):
        m = tr.call("bandmat.matrix_from_json", bandmat.matrix_from_json, text)
        return tuple(tr.call("positivity.sym_eigenvalues", positivity.sym_eigenvalues, m).tolist())

    def check(value):
        ref = np.linalg.eigvalsh(dense)
        if len(value) != n:
            return wrong(f"{len(value)} eigenvalues for order {n}")
        err = float(np.max(np.abs(np.asarray(value) - ref)))
        if err > _allowance(dense):
            return wrong(f"eigenvalues off by {err:.3g}")
        return None

    return Op(f"spectrum/{kind}/{cls}/{n}", run, check)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = [_verdict_op(k, c, n, *_matrix(rng, k, c, n)) for k, c, n in VERDICT_CELLS]
    ops += [_spectrum_op(k, c, n, *_matrix(rng, k, c, n)) for k, c, n in SPECTRUM_CELLS]
    return ops
