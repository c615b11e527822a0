"""Simple graphs on labels 1..n, read from a plain-text edge list: band and
pentadiagonal support patterns, chordality recognition with certificates,
near-clique numbers, and the critical-exponent set for chordal zero
patterns.

Chordality is decided by lexicographic BFS followed by verification of the
candidate perfect elimination ordering; failures are certified by an
explicit chordless cycle of length >= 4.  The critical exponent of a
chordal graph is read off that ordering in O(n w^2) for clique number w;
the branch-and-bound clique and near-clique numbers serve general graphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

__all__ = [
    "SimpleGraph",
    "ChordalCertificate",
    "band_graph",
    "path_graph",
    "complete_graph",
    "penta_support_graph",
    "graph_from_edges",
    "is_chordal",
    "clique_number",
    "max_near_clique",
    "chordal_critical_exponent",
    "graph_from_text",
]

@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph with vertices labeled 1..n.

    Edges are stored canonically as a sorted tuple of (i, j) pairs with
    i < j, so iteration order is deterministic.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = set()
        for edge in self.edges:
            i, j = edge
            i, j = int(i), int(j)
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {edge} out of range 1..{self.n}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        object.__setattr__(self, "_adj", {v: frozenset(s) for v, s in adj.items()})
        # is_chordal's certificate, once it is computed
        object.__setattr__(self, "_chordal", None)

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj[i]

    def neighbors(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class ChordalCertificate:
    """Chordality verdict: a perfect elimination ordering when chordal,
    otherwise a chordless cycle of length >= 4."""

    is_chordal: bool
    ordering: tuple[int, ...] | None = None
    witness_cycle: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.is_chordal and (self.ordering is None or self.witness_cycle is not None):
            raise ValueError("chordal certificate must carry exactly an ordering")
        if not self.is_chordal and (self.witness_cycle is None or self.ordering is not None):
            raise ValueError("non-chordal certificate must carry exactly a witness cycle")
        if self.witness_cycle is not None and len(self.witness_cycle) < 4:
            raise ValueError("witness cycle must have length >= 4")


def graph_from_edges(n: int, edges) -> SimpleGraph:
    return SimpleGraph(n, tuple(tuple(e) for e in edges))


def band_graph(n: int, d: int) -> SimpleGraph:
    """Graph with an edge between i != j exactly when |i - j| <= d;
    d = 1 is the path graph."""
    if n < 1 or d < 1:
        raise ValueError("band graph needs n >= 1 and d >= 1")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + d, n) + 1)]
    return SimpleGraph(n, tuple(edges))


def path_graph(n: int) -> SimpleGraph:
    return band_graph(n, 1)


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    return band_graph(n, max(n - 1, 1))


def penta_support_graph(n: int) -> SimpleGraph:
    """Support pattern of the pentadiagonal family: edges {i, i+2} only,
    i.e. the disjoint union of a path on the odd labels and a path on the
    even labels."""
    if n < 3:
        raise ValueError("pentadiagonal support needs n >= 3")
    return SimpleGraph(n, tuple((i, i + 2) for i in range(1, n - 1)))


def lex_bfs(g: SimpleGraph) -> tuple[int, ...]:
    """Lexicographic BFS visit order with lowest-label tie-breaking."""
    labels: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    unvisited = set(range(1, g.n + 1))
    order = []
    for position in range(g.n):
        # earlier visit positions dominate, so compare negated positions
        best = max(unvisited, key=lambda u: ([-p for p in labels[u]], -u))
        unvisited.remove(best)
        order.append(best)
        for u in g.neighbors(best):
            if u in unvisited:
                labels[u].append(position)
    return tuple(order)


def _bfs_path(g: SimpleGraph, src: int, dst: int, blocked: set) -> list[int] | None:
    """Shortest path src -> dst avoiding blocked vertices, or None."""
    if src in blocked or dst in blocked:
        return None
    prev = {src: None}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if v == dst:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return path[::-1]
        for u in sorted(g.neighbors(v)):
            if u not in prev and u not in blocked:
                prev[u] = v
                queue.append(u)
    return None


def _chordless_cycle(g: SimpleGraph) -> tuple[int, ...] | None:
    """A chordless cycle of length >= 4 in a non-chordal graph.

    For a vertex v with non-adjacent neighbors p, w, any shortest p-w path
    through the non-neighbors of v closes a chordless cycle with v; such a
    triple exists exactly when the graph is not chordal.
    """
    for v in range(1, g.n + 1):
        nb = sorted(g.neighbors(v))
        for ai in range(len(nb)):
            for bi in range(ai + 1, len(nb)):
                p, w = nb[ai], nb[bi]
                if g.has_edge(p, w):
                    continue
                blocked = (set(g.neighbors(v)) | {v}) - {p, w}
                path = _bfs_path(g, p, w, blocked)
                if path is not None:
                    return (v, *path)
    return None


def is_chordal(g: SimpleGraph) -> ChordalCertificate:
    """Chordality certificate: lexicographic BFS produces a candidate
    elimination ordering which is verified vertex by vertex; on failure a
    chordless cycle of length >= 4 is extracted as the witness.  The graph
    is immutable, so its certificate is computed once and kept on it."""
    if g._chordal is None:
        object.__setattr__(g, "_chordal", _chordal_certificate(g))
    return g._chordal


def _chordal_certificate(g: SimpleGraph) -> ChordalCertificate:
    """is_chordal's certificate, computed."""
    elim = tuple(reversed(lex_bfs(g)))
    pos = {v: k for k, v in enumerate(elim)}
    for v in elim:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not later:
            continue
        parent = min(later, key=pos.get)
        if any(u != parent and not g.has_edge(parent, u) for u in later):
            cycle = _chordless_cycle(g)
            if cycle is None:
                raise AssertionError("elimination check failed but no witness found")
            return ChordalCertificate(False, witness_cycle=cycle)
    return ChordalCertificate(True, ordering=elim)


def _greedy_color_order(g: SimpleGraph, cand: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate set; returns vertices ordered by
    color class with the color-count upper bound for each prefix."""
    classes: list[list[int]] = []
    for v in cand:
        placed = False
        for cls in classes:
            if all(not g.has_edge(v, u) for u in cls):
                cls.append(v)
                placed = True
                break
        if not placed:
            classes.append([v])
    order, bounds = [], []
    for color, cls in enumerate(classes, start=1):
        for v in cls:
            order.append(v)
            bounds.append(color)
    return order, bounds


def clique_number(g: SimpleGraph, subset=None) -> int:
    """Exact clique number by branch and bound with a greedy coloring
    bound; exponential in the worst case."""
    vertices = sorted(subset) if subset is not None else list(range(1, g.n + 1))
    if not vertices:
        return 0
    best = 0

    def expand(size: int, cand: list[int]) -> None:
        nonlocal best
        if not cand:
            best = max(best, size)
            return
        order, bounds = _greedy_color_order(g, cand)
        for i in range(len(order) - 1, -1, -1):
            if size + bounds[i] <= best:
                return
            v = order[i]
            nxt = [u for u in order[:i] if g.has_edge(u, v)]
            expand(size + 1, nxt)

    expand(0, sorted(vertices, key=lambda v: -g.degree(v)))
    return best


def max_near_clique(g: SimpleGraph) -> int:
    """Largest r such that some r vertices of g carry at least
    C(r, 2) - 1 edges, i.e. contain a complete graph or a complete graph
    with one edge missing.

    The value is either the clique number w or w + 1; the latter happens
    exactly when two non-adjacent vertices share a common neighborhood
    containing a clique of size w - 1.  Exact for any graph, by branch and
    bound, so exponential in the worst case; chordal_critical_exponent
    needs no search.
    """
    w = clique_number(g)
    if g.n < 2:
        return w
    for x in range(1, g.n + 1):
        for y in range(x + 1, g.n + 1):
            if g.has_edge(x, y):
                continue
            common = g.neighbors(x) & g.neighbors(y)
            if w == 1 or (len(common) >= w - 1 and clique_number(g, common) >= w - 1):
                return w + 1
    return w


def chordal_critical_exponent(g: SimpleGraph):
    """Exponent set preserving positive definiteness for every PD matrix
    with the zero pattern of the chordal graph g: the positive integers
    together with [r - 2, oo), where r = max_near_clique(g)
    (Guillot-Khare-Rajaratnam 2016).

    r is read off the perfect elimination ordering in O(n w^2), with no
    clique search: every maximal clique is some C_v = {v} + the neighbours
    of v later in the ordering (Gavril 1972), so the clique number w is the
    largest |C_v|; a K_(w+1) minus an edge is two maximum cliques sharing
    w - 1 vertices, so r = w + 1 if two C_v of size w share such a face,
    and r = w otherwise.

    Refuses non-chordal graphs: the formula is proven only for chordal
    patterns.  The natural numbers here exclude 0 (a convention; the
    interval part alone decides membership at 0).
    """
    from .preservers import PowerSet

    if g.n < 3:
        raise ValueError("critical exponent needs at least 3 vertices")
    cert = is_chordal(g)
    if not cert.is_chordal:
        raise ValueError("graph is not chordal; critical exponent formula does not apply")
    pos = {v: k for k, v in enumerate(cert.ordering)}
    cliques = [frozenset(u for u in g.neighbors(v) if pos[u] > pos[v]) | {v} for v in cert.ordering]
    w = max(map(len, cliques))
    faces = [c - {u} for c in cliques if len(c) == w for u in c]
    r = w + 1 if len(set(faces)) < len(faces) else w
    return PowerSet(float(r - 2), includes_naturals=True)


def graph_from_text(text: str) -> SimpleGraph:
    """Parse the plain-text graph format: first line n, then one "i j" edge
    per line, 1-indexed; '#' starts a comment."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if n is None:
                if len(parts) != 1:
                    raise ValueError("expected vertex count")
                n = int(parts[0])
            else:
                if len(parts) != 2:
                    raise ValueError("expected edge 'i j'")
                edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"graph file line {lineno}: {exc}") from exc
    if n is None:
        raise ValueError("graph file is empty")
    try:
        return SimpleGraph(n, tuple(edges))
    except ValueError as exc:
        raise ValueError(f"graph file: {exc}") from exc

