"""Known-answer inputs, built from the seed with numpy and fractions alone.

Nothing here calls bandpos.  Every matrix or graph comes with the answer
the library must give, known by construction:

* PD tridiagonals come from the chain-sequence construction with a margin:
  the ratios b_j^2 / (a_j a_{j+1}) are s (1 - g_{j-1}) g_j with g_0 = 0 and
  s < 1, so D^-1/2 T D^-1/2 >= (1 - sqrt(s)) I.
* PSD_BOUNDARY tridiagonals are congruences D Q D of the signless path
  Laplacian Q = tridiag([1, 2, ..., 2, 1], [1, ..., 1]), whose eigenvalues
  are 2 - 2 cos(k pi / n), k = 0..n-1.  D and the scale are powers of two,
  so every entry, and the chain recursion on them, is exact in floats.
* INDEFINITE tridiagonals are c (Q - mu I), with smallest eigenvalue -c mu.
* Pentadiagonals interleave two such tridiagonal blocks; dense inputs
  permute a tridiagonal one.
* Graphs are band graphs, complete graphs, random k-trees (chordal, with
  clique number k + 1 and near-clique number k + 2), cycles, and k-trees
  with a chordless cycle planted beside them.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

PD = "PD"
BOUNDARY = "PSD_BOUNDARY"
INDEFINITE = "INDEFINITE"


# ---------------------------------------------------------------- matrices


def chain_pd_tridiagonal(rng, n: int, shrink: float = 0.8):
    g = rng.uniform(0.05, 0.95, size=n - 1)
    g_prev = np.concatenate(([0.0], g[:-1]))
    ratios = shrink * (1.0 - g_prev) * g
    diag = rng.uniform(0.5, 3.0, size=n)
    off = np.sqrt(ratios * diag[:-1] * diag[1:])
    return diag, off


def signless_laplacian(n: int):
    diag = np.full(n, 2.0)
    diag[0] = diag[-1] = 1.0
    return diag, np.ones(n - 1)


def boundary_tridiagonal(rng, n: int):
    diag, off = signless_laplacian(n)
    d = rng.choice([0.5, 1.0, 2.0], size=n)
    c = float(rng.choice([0.5, 1.0, 2.0]))
    return c * d * d * diag, c * d[:-1] * d[1:] * off


def indefinite_tridiagonal(rng, n: int):
    diag, off = signless_laplacian(n)
    mu = rng.uniform(0.2, 0.8)
    c = rng.uniform(0.5, 2.0)
    return c * (diag - mu), c * off


def tridiagonal_of_class(rng, n: int, cls: str):
    if cls == PD:
        return chain_pd_tridiagonal(rng, n)
    if cls == BOUNDARY:
        return boundary_tridiagonal(rng, n)
    return indefinite_tridiagonal(rng, n)


def interleave(odd, even):
    """Pentadiagonal (diag, second) whose odd/even blocks are the inputs."""
    n = odd[0].size + even[0].size
    diag = np.empty(n)
    diag[0::2], diag[1::2] = odd[0], even[0]
    second = np.empty(n - 2)
    second[0::2], second[1::2] = odd[1], even[1]
    return diag, second


def pentadiagonal_of_class(rng, n: int, cls: str):
    """PD: both blocks PD.  Otherwise one block, chosen at random, carries
    the class and the other is PD."""
    sizes = ((n + 1) // 2, n // 2)
    special = int(rng.integers(2)) if cls != PD else -1
    blocks = [tridiagonal_of_class(rng, m, cls if k == special else PD) for k, m in enumerate(sizes)]
    return interleave(*blocks)


def tri_dense(diag, off) -> np.ndarray:
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def penta_dense(diag, second) -> np.ndarray:
    return np.diag(diag) + np.diag(second, 2) + np.diag(second, -2)


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def tri_json(diag, off) -> str:
    return json.dumps({"kind": "tridiagonal", "diag": _floats(diag), "offdiag": _floats(off)})


def penta_json(diag, second) -> str:
    return json.dumps({"kind": "pentadiagonal", "diag": _floats(diag), "second": _floats(second)})


def band_input(kind: str, diag, off):
    """JSON text and dense array of a tridiagonal or pentadiagonal input."""
    if kind == "tridiagonal":
        return tri_json(diag, off), tri_dense(diag, off)
    return penta_json(diag, off), penta_dense(diag, off)


def dense_json(rows: np.ndarray) -> str:
    return json.dumps({"kind": "dense", "rows": rows.tolist()})


def permuted(rng, a: np.ndarray) -> np.ndarray:
    perm = rng.permutation(a.shape[0])
    return a[np.ix_(perm, perm)]


def id_tridiagonal(rng, n: int):
    """Infinitely divisible: PD blocks of order 1 or 2, so no two
    consecutive off-diagonal entries are nonzero."""
    diag = rng.uniform(0.5, 3.0, size=n)
    off = np.zeros(n - 1)
    j = 0
    while j < n - 1:
        if rng.uniform() < 0.7:
            off[j] = rng.uniform(0.1, 0.9) * np.sqrt(diag[j] * diag[j + 1])
            j += 2
        else:
            j += 1
    return diag, off


def a_eps(eps: float):
    """tridiag([1, 2 + eps, 1], [1, 1]); its Hadamard r-th power has
    determinant (2 + eps)^r - 2, negative for r < log 2 / log(2 + eps)."""
    return np.array([1.0, 2.0 + eps, 1.0]), np.array([1.0, 1.0])


# ------------------------------------------------------------------ graphs


def band_edges(n: int, d: int):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + d, n) + 1)]


def complete_edges(n: int):
    return band_edges(n, n - 1)


def cycle_edges(n: int):
    return [(i, i % n + 1) for i in range(1, n + 1)]


def ktree_edges(rng, n: int, k: int):
    """Random k-tree: K_{k+1}, then each new vertex joins a random k-clique
    of an existing (k+1)-clique."""
    cliques = [list(range(1, k + 2))]
    edges = complete_edges(k + 1)
    for v in range(k + 2, n + 1):
        clique = cliques[int(rng.integers(len(cliques)))]
        drop = int(rng.integers(k + 1))
        base = clique[:drop] + clique[drop + 1 :]
        edges.extend((u, v) for u in base)
        cliques.append(base + [v])
    return edges


def planted_cycle_edges(rng, n: int, k: int, length: int):
    """A k-tree on n vertices plus a chordless cycle on ``length`` new
    vertices, joined to the k-tree by one edge."""
    edges = ktree_edges(rng, n, k)
    edges.extend((n + a, n + b) for a, b in cycle_edges(length))
    edges.append((int(rng.integers(1, n + 1)), n + 1))
    return n + length, edges


def relabel(rng, n: int, edges):
    perm = rng.permutation(n) + 1
    return [(int(perm[i - 1]), int(perm[j - 1])) for i, j in edges]


def graph_text(n: int, edges) -> str:
    lines = [f"# {len(edges)} edges", str(n)]
    lines.extend(f"{i} {j}" for i, j in edges)
    return "\n".join(lines) + "\n"


def adjacency(n: int, edges) -> dict[int, set[int]]:
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def is_perfect_elimination_ordering(adj, ordering) -> bool:
    if sorted(ordering) != sorted(adj):
        return False
    pos = {v: k for k, v in enumerate(ordering)}
    for v in ordering:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if any(b not in adj[a] for i, a in enumerate(later) for b in later[i + 1 :]):
            return False
    return True


def is_chordless_cycle(adj, cycle) -> bool:
    m = len(cycle)
    if m < 4 or len(set(cycle)) != m or any(v not in adj for v in cycle):
        return False
    for i in range(m):
        for j in range(i + 1, m):
            consecutive = j == i + 1 or (i == 0 and j == m - 1)
            if (cycle[j] in adj[cycle[i]]) != consecutive:
                return False
    return True


# -------------------------------------------------------- exact arithmetic


def continuant_minors(diag, off) -> list[Fraction]:
    """Leading principal minors of a tridiagonal matrix, exactly."""
    minors = []
    prev2, prev = Fraction(1), Fraction(1)
    for k, a in enumerate(diag):
        cur = a * prev - (off[k - 1] ** 2 * prev2 if k else 0)
        minors.append(cur)
        prev2, prev = prev, cur
    return minors


def penta_minors(diag, second) -> list[Fraction]:
    """Leading minors of a pentadiagonal matrix: the leading k x k block
    splits into the leading blocks of its odd and even parts."""
    odd = continuant_minors(diag[0::2], second[0::2])
    even = continuant_minors(diag[1::2], second[1::2])
    return [odd[(k + 1) // 2 - 1] * (even[k // 2 - 1] if k >= 2 else 1) for k in range(1, len(diag) + 1)]


def decimal(x: Fraction) -> str:
    """A Fraction with a terminating decimal expansion, written exactly."""
    s = f"{float(x):.6f}".rstrip("0").rstrip(".")
    if Fraction(s) != x:
        raise ValueError(f"{x} has no short decimal form")
    return s


def rational_pd_tridiagonal(rng, n: int):
    """Strictly diagonally dominant, so PD with margin; entries in steps of
    1/20 and 1/20 (exact as decimals)."""
    diag = [Fraction(int(rng.integers(40, 61)), 20) for _ in range(n)]
    off = [Fraction(int(rng.integers(5, 18)), 20) for _ in range(n - 1)]
    return diag, off


def rational_boundary_tridiagonal(rng, n: int):
    c = Fraction(int(rng.choice([1, 2, 3, 4])), 2)
    return [c * (1 if k in (0, n - 1) else 2) for k in range(n)], [c] * (n - 1)


def rational_indefinite_tridiagonal(rng, n: int):
    c = Fraction(int(rng.integers(2, 9)), 4)
    mu = Fraction(int(rng.integers(4, 16)), 20)
    return [c * ((1 if k in (0, n - 1) else 2) - mu) for k in range(n)], [c] * (n - 1)


def rational_tridiagonal_of_class(rng, n: int, cls: str):
    if cls == PD:
        return rational_pd_tridiagonal(rng, n)
    if cls == BOUNDARY:
        return rational_boundary_tridiagonal(rng, n)
    return rational_indefinite_tridiagonal(rng, n)


def exact_json(kind: str, diag, off) -> str:
    second_key = "offdiag" if kind == "tridiagonal" else "second"
    body = ", ".join(decimal(x) for x in diag)
    rest = ", ".join(decimal(x) for x in off)
    return f'{{"kind": "{kind}", "diag": [{body}], "{second_key}": [{rest}]}}'


def chain_sequence(rng, length: int, break_at: int | None = None):
    """Exact chain sequence a_k = (1 - g_{k-1}) g_k with g_0 = 0, so the
    minimal parameters are exactly g_k.  With ``break_at`` the term there is
    raised so that its minimal parameter exceeds 1 by a margin."""
    g = [Fraction(int(rng.integers(2, 19)), 20) for _ in range(length)]
    seq = [(1 - (g[k - 1] if k else 0)) * g[k] for k in range(length)]
    if break_at is not None:
        k = break_at
        seq[k] = (1 - (g[k - 1] if k else 0)) * (1 + Fraction(1, 10))
    return seq, g
