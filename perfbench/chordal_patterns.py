"""Workload chordal-patterns: the graphs layer alone.

Each operation parses a graph, gets its ``is_chordal`` certificate, and then
computes ``chordal_critical_exponent`` if the graph is chordal and has at
most 64 vertices (the exact near-clique search refuses more), or leaves the
chordless-cycle witness for the check if it is not chordal.  Inputs are band
graphs, random k-trees, complete graphs, cycles and k-trees with a planted
chordless cycle, all relabelled at random; chordality goes up to 300
vertices.  No positivity code runs, so a change to the oracle should show no
change here.
"""

from __future__ import annotations

import numpy as np

from bandpos import graphs

import gen
from ops import Op, wrong

# (family, n, parameter, with critical exponent).  For a k-tree the
# parameter is k, for a band graph the bandwidth, for a planted cycle the
# (k, cycle length) pair.  The first case is the cold operation.  Costs fall
# in groups so that the median and the 90th percentile of a pass land inside
# groups of like cost: eight cheap graphs, four near 5 ms (the three k-trees
# on 64 vertices and K24), five in between and three on 300 vertices.
CASES = [
    ("band", 64, 8, True),
    ("cycle", 16, None, False),
    ("complete", 8, None, True),
    ("band", 16, 2, True),
    ("ktree", 20, 2, True),
    ("band", 32, 3, True),
    ("cycle", 64, None, False),
    ("complete", 16, None, True),
    ("planted", 30, (2, 6), False),
    ("ktree", 64, 4, True),
    ("ktree", 64, 5, True),
    ("ktree", 64, 6, True),
    ("complete", 24, None, True),
    ("cycle", 150, None, False),
    ("planted", 100, (2, 12), False),
    ("band", 200, 6, False),
    ("ktree", 200, 4, False),
    ("band", 300, 4, False),
    ("band", 300, 5, False),
    ("ktree", 300, 3, False),
]


def _graph(rng, family, n, param):
    """(vertex count, edges, chordal, near-clique number r*)."""
    if family == "band":
        return n, gen.band_edges(n, param), True, min(param + 2, n)
    if family == "ktree":
        return n, gen.ktree_edges(rng, n, param), True, param + 2
    if family == "complete":
        return n, gen.complete_edges(n), True, n
    if family == "cycle":
        return n, gen.cycle_edges(n), False, None
    total, edges = gen.planted_cycle_edges(rng, n, *param)
    return total, edges, False, None


def _op(label, n, edges, chordal, r_star, with_exponent) -> Op:
    text = gen.graph_text(n, edges)
    adj = gen.adjacency(n, edges)

    def run(tr):
        g = tr.call("graphs.graph_from_text", graphs.graph_from_text, text)
        cert = tr.call("graphs.is_chordal", graphs.is_chordal, g)
        if not cert.is_chordal:
            return False, cert.witness_cycle
        if not with_exponent:
            return True, cert.ordering
        power_set = tr.call("graphs.chordal_critical_exponent", graphs.chordal_critical_exponent, g)
        if tr.tracing:
            parent = tr.last("graphs.chordal_critical_exponent")
            with tr.replaying():
                tr.replay(parent, "graphs.is_chordal", graphs.is_chordal, g)
                tr.replay(parent, "graphs.max_near_clique", graphs.max_near_clique, g)
        return True, cert.ordering, power_set.tail_threshold, power_set.includes_naturals

    def check(value):
        if value[0] != chordal:
            return wrong(f"{label}: chordal={value[0]}, expected {chordal}")
        if not chordal:
            ok = gen.is_chordless_cycle(adj, value[1])
            return None if ok else wrong(f"{label}: witness {value[1]} is not a chordless cycle")
        if not gen.is_perfect_elimination_ordering(adj, value[1]):
            return wrong(f"{label}: ordering is not a perfect elimination ordering")
        if with_exponent and value[2:] != (float(r_star - 2), True):
            return wrong(f"{label}: exponent set {value[2:]}, expected N u [{r_star - 2}, inf)")
        return None

    return Op(label, run, check)


def build(seed: int, workdir) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for family, n, param, with_exponent in CASES:
        total, edges, chordal, r_star = _graph(rng, family, n, param)
        edges = gen.relabel(rng, total, edges)
        ops.append(_op(f"{family}/{total}/{param}", total, edges, chordal, r_star, with_exponent))
    return ops
