"""Workload probe-sweep: many small oracle calls through the falsification
probe.

Each operation is one ``probe_preserves`` call with a fixed sample count,
over the tridiagonal family (orders 3-12), the pentadiagonal family (orders
5-8) or a graph pattern (K4-K6 and small band graphs), at exponents on both
sides of each family's threshold.  A few infinite-divisibility checks ride
along; they are the only operations here that compute leading minors.  The
probes make thousands of calls on matrices of order at most 12, so a kernel
that wins at n = 200 but loses at n = 5 shows here.

Known answers: a band family's power set is [1, inf); a graph's is
N u [r* - 2, inf) with r* its near-clique number.  A probe must falsify
exactly at the exponents outside the set.  The seed's graph probe cannot
falsify below r* - 2 at non-integer exponents; those operations fail as the
documented seed failure ``graph-probe-no-falsify``.
"""

from __future__ import annotations

import numpy as np

from bandpos import bandmat, graphs, positivity, preservers

import gen
from ops import Failure, Op, wrong

TOL = positivity.DEFAULT_TOL
SAMPLES = 64

# Sample orders the probe draws from, as its documentation states.
ORDER_RANGES = {"tridiagonal": (3, 12), "pentadiagonal": (5, 8)}
GENERATORS = {
    "tridiagonal": preservers.random_pd_tridiagonal,
    "pentadiagonal": preservers.random_pd_pentadiagonal,
}
COUNTEREXAMPLES = {
    "tridiagonal": preservers.counterexample_tridiagonal,
    "pentadiagonal": preservers.counterexample_pentadiagonal,
}

BAND_CASES = [("tridiagonal", r) for r in (0.5, 0.25, 0.75, 1.0, 1.5, 2.0, 3.0)] + [
    ("pentadiagonal", r) for r in (0.5, 0.9, 1.0, 2.5)
]

# (name, vertex count, edges, near-clique number r*, exponents)
GRAPH_CASES = [
    ("K4", 4, gen.complete_edges(4), 4, (0.5, 1.0, 1.5, 2.5)),
    ("K5", 5, gen.complete_edges(5), 5, (1.5, 2.0, 3.5)),
    ("K6", 6, gen.complete_edges(6), 6, (2.5, 4.5)),
    ("band(6,2)", 6, gen.band_edges(6, 2), 4, (0.5, 1.5, 2.5)),
    ("band(8,3)", 8, gen.band_edges(8, 3), 5, (0.5, 3.5)),
]


def in_power_set(r: float, threshold: float) -> bool:
    """Membership in N u [threshold, inf)."""
    return r >= threshold or (r >= 1 and float(r).is_integer())


def replay_probe(tr, parent, family, r, seed, graph):
    """The probe's sample loop, rebuilt from public calls; returns its
    minimum.  Mirrors probe_preserves: sample i draws from a generator
    seeded by (seed, i), and a band family below r = 1 starts from its
    counterexample."""
    inject = family != "graph" and r < 1
    best = None
    for i in range(SAMPLES):
        rng = np.random.default_rng([seed, i])
        if i == 0 and inject:
            m = COUNTEREXAMPLES[family](r)
        elif family == "graph":
            m = tr.replay(parent, "preservers.random_pd", preservers.random_pd_pattern, rng, graph)
        else:
            lo, hi = ORDER_RANGES[family]
            order = int(rng.integers(lo, hi + 1))
            m = tr.replay(parent, "preservers.random_pd", GENERATORS[family], rng, order)
        powered = tr.replay(parent, "bandmat.hadamard_power", bandmat.hadamard_power, m, r)
        lam = tr.replay(parent, "positivity.min_eigenvalue", positivity.min_eigenvalue, powered, TOL)
        best = lam if best is None else min(best, lam)
    return best


def _probe_op(label, family, r, seed, graph, threshold) -> Op:
    def run(tr):
        report = tr.call(
            "preservers.probe_preserves", preservers.probe_preserves, family, r, SAMPLES, seed, graph=graph
        )
        if tr.tracing:
            parent = tr.last("preservers.probe_preserves")
            with tr.replaying():
                low = replay_probe(tr, parent, family, r, seed, graph)
            tr.self_check(
                low == report.min_over_samples,
                f"replayed minimum {low!r} != min_over_samples {report.min_over_samples!r}",
            )
        return report.min_over_samples, report.samples

    expect_falsified = not in_power_set(r, threshold)

    def check(value):
        low, samples = value
        if samples != SAMPLES:
            return wrong(f"{samples} samples, asked for {SAMPLES}")
        falsified = low < -TOL
        if falsified == expect_falsified:
            return None
        if family == "graph" and expect_falsified:
            return Failure("graph-probe-no-falsify", f"{label}: minimum {low:.4g} over {SAMPLES} samples")
        return wrong(f"{label}: falsified={falsified}, expected {expect_falsified} (minimum {low:.4g})")

    return Op(label, run, check, samples=SAMPLES)


def _id_op(label, text, fn_name, expected) -> Op:
    fn = getattr(preservers, fn_name)
    span = "preservers.id_numeric_probe" if fn_name == "id_numeric_probe" else "preservers.is_id"

    def run(tr):
        m = tr.call("bandmat.matrix_from_json", bandmat.matrix_from_json, text)
        return tr.call(span, fn, m)

    def check(value):
        return None if value == expected else wrong(f"{label}: {fn_name} gave {value}, expected {expected}")

    return Op(label, run, check)


def _id_ops(rng) -> list[Op]:
    tri_id = gen.id_tridiagonal(rng, 8)
    tri_not_id = gen.chain_pd_tridiagonal(rng, 8)
    penta_id = gen.interleave(gen.id_tridiagonal(rng, 5), gen.id_tridiagonal(rng, 4))
    dense_id = gen.permuted(rng, gen.tri_dense(*gen.id_tridiagonal(rng, 6)))
    dense_not_id = gen.permuted(rng, gen.tri_dense(*gen.a_eps(rng.uniform(0.2, 1.0))))
    return [
        _id_op("id/tridiagonal/yes", gen.tri_json(*tri_id), "is_id_tridiagonal", True),
        _id_op("id/tridiagonal/no", gen.tri_json(*tri_not_id), "is_id_tridiagonal", False),
        _id_op("id/pentadiagonal/yes", gen.penta_json(*penta_id), "is_id_pentadiagonal", True),
        _id_op("id/dense/yes", gen.dense_json(dense_id), "id_numeric_probe", True),
        _id_op("id/dense/no", gen.dense_json(dense_not_id), "id_numeric_probe", False),
    ]


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    probe_seeds = iter(rng.integers(0, 2**31, size=64).tolist())
    ops = [_probe_op(f"probe/{f}/r={r}", f, r, next(probe_seeds), None, 1.0) for f, r in BAND_CASES]
    for name, n, edges, r_star, exponents in GRAPH_CASES:
        # the pattern is configuration of the probe, parsed once like a --graph file
        graph = graphs.graph_from_text(gen.graph_text(n, gen.relabel(rng, n, edges)))
        for r in exponents:
            ops.append(_probe_op(f"probe/{name}/r={r}", "graph", r, next(probe_seeds), graph, r_star - 2))
    return ops + _id_ops(rng)
