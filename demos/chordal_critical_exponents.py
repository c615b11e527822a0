"""Critical exponents from graph structure alone.

Fix a zero pattern described by a graph G and ask which powers r keep
every PD matrix with that pattern positive definite.  For chordal G the
answer is combinatorial: the positive integers together with [r - 2, oo),
where r is the largest complete or one-edge-short-of-complete subgraph.
"""

from bandpos import (
    band_graph,
    chordal_critical_exponent,
    complete_graph,
    graph_from_edges,
    is_chordal,
    path_graph,
    penta_support_graph,
)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("Complete graphs: the classical threshold n - 2")
for n in range(3, 9):
    ps = chordal_critical_exponent(complete_graph(n))
    print(f"  K_{n}: {ps.render()}")

banner("Paths and band patterns")
for name, g in [
    ("P_3 (tridiagonal pattern, n=3)", path_graph(3)),
    ("P_6 (tridiagonal pattern, n=6)", path_graph(6)),
    ("band graph n=6, d=2", band_graph(6, 2)),
    ("pentadiagonal support n=6", penta_support_graph(6)),
]:
    ps = chordal_critical_exponent(g)
    print(f"  {name}: near-clique {int(ps.tail_threshold) + 2}, exponents {ps.render()}")
print("a path picks up a 3-vertex near-clique (middle vertex plus both ends),")
print("so every tridiagonal pattern lands on [1, oo).")

banner("One missing edge changes nothing but the constant")
k4e = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
print("K_4 minus an edge:", chordal_critical_exponent(k4e).render())
print("integers below the threshold stay in the set:",
      [r for r in (1, 2) if r in chordal_critical_exponent(k4e)])

banner("Non-chordal patterns are refused, with a witness")
c4 = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
cert = is_chordal(c4)
print("C_4 chordal?", cert.is_chordal, "- witness cycle:",
      "-".join(str(v) for v in cert.witness_cycle))
try:
    chordal_critical_exponent(c4)
except ValueError as exc:
    print("chordal_critical_exponent refused:", exc)

banner("Certificates either way")
g = band_graph(7, 2)
cert = is_chordal(g)
print("band graph n=7 d=2 is chordal; elimination ordering:", cert.ordering)
