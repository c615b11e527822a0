"""Graph layer: constructions, chordality certificates, near-clique
numbers, and chordal critical exponents.

Brute-force oracles used here: chordality by repeated simplicial
elimination, clique and near-clique numbers by subset enumeration.
"""

import itertools
import random

import numpy as np
import pytest

from bandpos import (
    PowerSet,
    SimpleGraph,
    band_graph,
    chordal_critical_exponent,
    clique_number,
    complete_graph,
    graph_from_edges,
    graph_from_text,
    is_chordal,
    make_tridiagonal,
    max_near_clique,
    path_graph,
    penta_support_graph,
)
from bandpos import graphs
from bandpos.graphs import lex_bfs


def brute_chordal(g: SimpleGraph) -> bool:
    """Chordality by repeated simplicial-vertex elimination."""
    alive = set(range(1, g.n + 1))
    while alive:
        simplicial = None
        for v in sorted(alive):
            nb = [u for u in g.neighbors(v) if u in alive]
            if all(g.has_edge(a, b) for a, b in itertools.combinations(nb, 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.remove(simplicial)
    return True


def brute_clique_number(g: SimpleGraph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(1, g.n + 1), r):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(sub, 2)):
                return r
    return best


def brute_near_clique(g: SimpleGraph) -> int:
    for r in range(g.n, 0, -1):
        need = r * (r - 1) // 2 - 1
        for sub in itertools.combinations(range(1, g.n + 1), r):
            edges = sum(1 for a, b in itertools.combinations(sub, 2) if g.has_edge(a, b))
            if edges >= need:
                return r
    return 0


def verify_peo(g: SimpleGraph, ordering) -> bool:
    pos = {v: k for k, v in enumerate(ordering)}
    for v in ordering:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def verify_chordless_cycle(g: SimpleGraph, cycle) -> bool:
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        if not g.has_edge(cycle[i], cycle[(i + 1) % k]):
            return False
    for i in range(k):
        for j in range(i + 2, k):
            if (i, j) == (0, k - 1):
                continue
            if g.has_edge(cycle[i], cycle[j]):
                return False
    return True


def random_graph(rng: random.Random, n: int, p: float) -> SimpleGraph:
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return SimpleGraph(n, tuple(edges))


def random_chordal_graph(rng: random.Random, n: int) -> SimpleGraph:
    """Chordal by construction: every new vertex attaches to a clique."""
    edges = []
    cliques = [[1]]
    for v in range(2, n + 1):
        base = rng.choice(cliques)
        size = rng.randint(0, len(base))
        chosen = rng.sample(base, size)
        edges.extend((u, v) for u in chosen)
        cliques.append(chosen + [v])
    return SimpleGraph(n, tuple(edges))


def random_ktree(rng: random.Random, n: int, k: int) -> SimpleGraph:
    """A k-tree: a K_(k+1), then each new vertex joined to a k-face of an
    earlier (k+1)-clique."""
    edges = list(itertools.combinations(range(1, k + 2), 2))
    cliques = [list(range(1, k + 2))]
    for v in range(k + 2, n + 1):
        face = rng.sample(rng.choice(cliques), k)
        edges.extend((u, v) for u in face)
        cliques.append(face + [v])
    return SimpleGraph(n, tuple(edges))


class TestConstructions:
    def test_band_graph_path(self):
        g = band_graph(4, 1)
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_band_graph_triangle(self):
        assert band_graph(3, 2).edges == complete_graph(3).edges

    def test_band_graph_single_vertex(self):
        g = band_graph(1, 3)
        assert g.n == 1 and g.edges == ()

    def test_band_graph_validation(self):
        with pytest.raises(ValueError):
            band_graph(0, 1)
        with pytest.raises(ValueError):
            band_graph(3, 0)

    def test_penta_support(self):
        assert penta_support_graph(5).edges == ((1, 3), (2, 4), (3, 5))
        assert penta_support_graph(4).edges == ((1, 3), (2, 4))
        assert penta_support_graph(3).edges == ((1, 3),)
        with pytest.raises(ValueError):
            penta_support_graph(2)

    def test_penta_support_disconnected(self):
        # no edge joins an odd label to an even one: two components
        assert all((i - j) % 2 == 0 for i, j in penta_support_graph(5).edges)
        assert any((i - j) % 2 for i, j in path_graph(5).edges)

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 1),))

    def test_edge_range_checked(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 4),))

    def test_canonical_edges(self):
        g = SimpleGraph(3, ((3, 1), (2, 1), (1, 3)))
        assert g.edges == ((1, 2), (1, 3))


class TestChordality:
    def test_trees_are_chordal(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(1, 12)
            edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
            cert = is_chordal(SimpleGraph(n, tuple(edges)))
            assert cert.is_chordal
            assert verify_peo(SimpleGraph(n, tuple(edges)), cert.ordering)

    def test_four_cycle_witness(self):
        c4 = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        cert = is_chordal(c4)
        assert not cert.is_chordal
        assert verify_chordless_cycle(c4, cert.witness_cycle)

    def test_k4_minus_edge_chordal(self):
        g = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        cert = is_chordal(g)
        assert cert.is_chordal
        assert verify_peo(g, cert.ordering)

    def test_lex_bfs_deterministic_start(self):
        assert lex_bfs(path_graph(4))[0] == 1

    def test_certificate_shape_enforced(self):
        from bandpos import ChordalCertificate

        with pytest.raises(ValueError):
            ChordalCertificate(True)
        with pytest.raises(ValueError):
            ChordalCertificate(False, ordering=(1, 2))
        with pytest.raises(ValueError):
            ChordalCertificate(False, witness_cycle=(1, 2, 3))

    def test_random_sweep_against_elimination_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.15, 0.75))
            cert = is_chordal(g)
            assert cert.is_chordal == brute_chordal(g)
            if cert.is_chordal:
                assert verify_peo(g, cert.ordering)
                assert cert.witness_cycle is None
            else:
                assert verify_chordless_cycle(g, cert.witness_cycle)
                assert cert.ordering is None


class TestCliqueNumbers:
    def test_clique_number_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            assert clique_number(g) == brute_clique_number(g)

    def test_near_clique_path3(self):
        assert max_near_clique(path_graph(3)) == 3

    def test_near_clique_complete(self):
        assert max_near_clique(complete_graph(5)) == 5

    def test_near_clique_star(self):
        star = graph_from_edges(4, [(1, 2), (1, 3), (1, 4)])
        assert max_near_clique(star) == 3

    def test_near_clique_edgeless(self):
        assert max_near_clique(SimpleGraph(3, ())) == 2
        assert max_near_clique(SimpleGraph(1, ())) == 1

    def test_near_clique_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.85))
            assert max_near_clique(g) == brute_near_clique(g)

    def test_near_clique_at_least_clique_number(self):
        rng = random.Random(19)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            assert max_near_clique(g) >= clique_number(g)

    def test_no_vertex_limit(self):
        assert max_near_clique(path_graph(65)) == 3


class TestCriticalExponent:
    def test_complete_graphs(self):
        for n in range(3, 9):
            ps = chordal_critical_exponent(complete_graph(n))
            assert ps == PowerSet(float(n - 2), includes_naturals=True)
            expected = f"ℕ ∪ [{n - 2}, ∞)" if n > 3 else "[1, ∞)"
            assert ps.render() == expected

    def test_path3_collapses_to_interval(self):
        ps = chordal_critical_exponent(path_graph(3))
        assert ps.tail_threshold == 1.0 and ps.includes_naturals
        assert ps.render() == "[1, ∞)"
        assert ps.normalized() == PowerSet(1.0)

    def test_k4_minus_edge(self):
        g = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        ps = chordal_critical_exponent(g)
        assert ps == PowerSet(2.0, includes_naturals=True)
        assert 1 in ps and 2 in ps and 2.5 in ps
        assert 1.5 not in ps and 0.5 not in ps

    def test_non_chordal_refused(self):
        c4 = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        with pytest.raises(ValueError, match="not chordal"):
            chordal_critical_exponent(c4)

    def test_small_graph_refused(self):
        with pytest.raises(ValueError):
            chordal_critical_exponent(path_graph(2))

    def test_matches_branch_and_bound_and_brute_force(self):
        rng = random.Random(37)
        for _ in range(600):
            g = random_chordal_graph(rng, rng.randint(3, 14))
            r = chordal_critical_exponent(g).tail_threshold + 2
            assert r == max_near_clique(g)
            if g.n <= 9:
                assert r == brute_near_clique(g)

    def test_runs_no_clique_search(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("clique search on the critical-exponent path")

        monkeypatch.setattr(graphs, "clique_number", refuse)
        monkeypatch.setattr(graphs, "max_near_clique", refuse)
        assert chordal_critical_exponent(complete_graph(6)) == PowerSet(4.0, includes_naturals=True)
        assert chordal_critical_exponent(band_graph(40, 3)) == PowerSet(3.0, includes_naturals=True)
        assert chordal_critical_exponent(SimpleGraph(3, ())) == PowerSet(0.0, includes_naturals=True)

    def test_large_band_graph(self):
        ps = chordal_critical_exponent(band_graph(300, 4))
        assert ps == PowerSet(4.0, includes_naturals=True)
        assert ps.render() == "ℕ ∪ [4, ∞)"

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_large_ktree(self, k):
        g = random_ktree(random.Random(41 + k), 500, k)
        assert chordal_critical_exponent(g).tail_threshold == k

    def test_monotone_under_induced_subgraphs(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(200):
            g = random_chordal_graph(rng, rng.randint(3, 12))
            sub_size = rng.randint(3, g.n)
            vertices = sorted(rng.sample(range(1, g.n + 1), sub_size))
            relabel = {v: k for k, v in enumerate(vertices, start=1)}
            h = graph_from_edges(
                sub_size, [(relabel[i], relabel[j]) for i, j in g.edges if i in relabel and j in relabel]
            )
            cert = is_chordal(h)
            assert cert.is_chordal  # induced subgraphs of chordal graphs stay chordal
            tail_g = chordal_critical_exponent(g).tail_threshold
            tail_h = chordal_critical_exponent(h).tail_threshold
            assert tail_h <= tail_g
            checked += 1
        assert checked == 200


class TestGraphText:
    def test_round_trip(self):
        g = penta_support_graph(6)
        parsed = graph_from_text(f"{g.n}\n" + "".join(f"{i} {j}\n" for i, j in g.edges))
        assert parsed.n == g.n and parsed.edges == g.edges

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\n4\n1 2  # inline\n3 4\n"
        g = graph_from_text(text)
        assert g.n == 4 and g.edges == ((1, 2), (3, 4))

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            graph_from_text("4\n1\n")
        with pytest.raises(ValueError):
            graph_from_text("4\n1 x\n")
        with pytest.raises(ValueError):
            graph_from_text("")
        with pytest.raises(ValueError):
            graph_from_text("2\n1 3\n")


def _support_on(m, g):
    """Whether every off-diagonal nonzero of the matrix m sits on an edge of g."""
    dense = m.dense()
    rows, cols = np.nonzero(dense - np.diag(np.diag(dense)))
    return all(g.has_edge(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()))


class TestPatternBridge:
    def test_tridiagonal_on_band_graph(self):
        rng = np.random.default_rng(31)
        for n in (3, 6, 10):
            t = make_tridiagonal(rng.uniform(1, 2, n), rng.uniform(0.1, 1, n - 1))
            assert _support_on(t, band_graph(n, 1))

    def test_p_matrix_on_support(self, p_matrix):
        assert _support_on(p_matrix, penta_support_graph(5))
