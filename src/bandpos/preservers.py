"""Hadamard-power preservation for band families.

The exponents preserving positive (semi)definiteness of every nonnegative
tridiagonal matrix of order n >= 3 are exactly [1, oo), and the same holds
for the pentadiagonal family (zero first off-diagonal) of order n >= 5; for
pentadiagonal orders 3 and 4 every exponent r >= 0 preserves positivity.
This module exposes those sets, builds the explicit counterexamples that
fail below exponent 1, decides infinite divisibility, and provides a seeded
random probe that searches for falsifying matrices.

The probe and the infinite-divisibility grid classify many Hadamard powers,
so they build no matrix object per power: they power the two diagonals of
the tridiagonal matrix the oracle bisects (positivity._Form's diag and off).
The probe draws each band sample from its own generator, then sets up a
batch of samples at once: their couplings, powers, powers of two and
Gershgorin bounds come from one set of numpy calls over the samples laid
out as one tridiagonal direct sum, and only the Sturm counts run sample by
sample.  A probe sample is bisected only until it is known whether its
smallest eigenvalue lies below the running minimum; whether a power is
INDEFINITE is one Sturm count at -thr.  Every minimum and class they report
is that of min_eigenvalue and classify_positivity on hadamard_power's
result, bit for bit.  Only the probe's worst sample becomes a matrix object.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .bandmat import (
    BandSymMatrix,
    DenseSymMatrix,
    Matrix,
    _power,
    check_dense,
    join_pentadiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    matrix_to_json_obj,
    split_pentadiagonal,
    to_dense_array,
)
from .chainseq import split_at_zero_offdiag
from .positivity import DEFAULT_TOL, _bisect_scaled, _checked_tol, _form, _indefinite, _scaled_form, _scaled_forms

__all__ = [
    "PowerSet",
    "ProbeReport",
    "DEFAULT_ID_GRID",
    "tridiag_preserver_set",
    "penta_preserver_set",
    "counterexample_tridiagonal",
    "counterexample_pentadiagonal",
    "random_pd_tridiagonal",
    "random_pd_pentadiagonal",
    "random_pd_pattern",
    "probe_preserves",
    "IdVerdict",
    "id_verdict",
    "is_id_tridiagonal",
    "is_id_pentadiagonal",
    "id_blocks",
    "id_numeric_probe",
    "polynomial_apply",
]

# Exponents sampled by the necessary-condition probe for infinite
# divisibility.  Small exponents are where non-ID matrices break.
DEFAULT_ID_GRID = (0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)

_PROBE_ORDER_RANGES = {"tridiagonal": (3, 12), "pentadiagonal": (5, 8)}


@dataclass(frozen=True)
class PowerSet:
    """A set of exponents of the form [t, oo) or N ∪ [t, oo).

    N is the positive integers {1, 2, ...}; when tail_threshold <= 1 the
    natural-number part is redundant and normalized()/render() collapse the
    set to a plain interval.
    """

    tail_threshold: float
    includes_naturals: bool = False

    def __post_init__(self):
        if not 0 <= self.tail_threshold < math.inf:
            raise ValueError("tail threshold must be nonnegative and finite")
        object.__setattr__(self, "tail_threshold", float(self.tail_threshold))

    def contains(self, r: float) -> bool:
        r = float(r)
        if r >= self.tail_threshold:
            return True
        return self.includes_naturals and r >= 1 and r.is_integer()

    __contains__ = contains

    def normalized(self) -> "PowerSet":
        return PowerSet(self.tail_threshold, self.includes_naturals and self.tail_threshold > 1)

    def render(self) -> str:
        t = self.tail_threshold
        t_str = str(int(t)) if t.is_integer() else f"{t:.12g}"
        tail = f"[{t_str}, ∞)"
        if self.includes_naturals and t > 1:
            return f"ℕ ∪ {tail}"
        return tail


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Result of a seeded falsification probe.

    min_over_samples is the smallest post-power minimum eigenvalue seen and
    worst_case the matrix achieving it (ties broken by sample index, so the
    report is reproducible from the seed alone).
    """

    samples: int
    exponent: float
    min_over_samples: float
    worst_case: Matrix
    seed: int

    def to_json_obj(self) -> dict:
        return {
            "samples": self.samples,
            "exponent": self.exponent,
            "min_over_samples": self.min_over_samples,
            "worst_case": matrix_to_json_obj(self.worst_case),
            "seed": self.seed,
        }


def tridiag_preserver_set(n: int) -> PowerSet:
    """Exponents whose Hadamard power preserves PD/PSD for every
    nonnegative tridiagonal matrix of order n: the interval [1, oo)."""
    _checked_int(n, 3, "preserver set is defined for integer orders n >= 3")
    return PowerSet(1.0)


def penta_preserver_set(n: int) -> PowerSet:
    """Preserving exponents for the pentadiagonal family of order n:
    [0, oo) for n in {3, 4} and [1, oo) for n >= 5."""
    n = _checked_int(n, 3, "preserver set is defined for integer orders n >= 3")
    return PowerSet(0.0) if n <= 4 else PowerSet(1.0)


def counterexample_tridiagonal(r: float) -> BandSymMatrix:
    """A PD tridiagonal matrix whose Hadamard r-th power (0 < r < 1) is
    indefinite: tridiag([1, 2+eps, 1], [1, 1]) whose powered determinant is
    (2+eps)**r - 2.  eps is fixed at the midpoint of the open window
    (0, 2**(1/r) - 2) where that determinant is negative, with the window's
    top capped at 2**1023 where 2**(1/r) is not a finite float."""
    r = float(r)
    if not 0 < r < 1:
        raise ValueError("counterexamples exist only for 0 < r < 1")
    # r at or below 1/1024: 2**(1/r) overflows (or 1/r does), and any
    # 2+eps <= 2**1023 still has (2+eps)**r < 2
    inv = 1.0 / r
    top = 2.0**inv if inv < 1024 else 2.0**1023
    eps = (top - 2.0) / 2.0
    return make_tridiagonal([1.0, 2.0 + eps, 1.0], [1.0, 1.0])


def counterexample_pentadiagonal(r: float) -> BandSymMatrix:
    """The fixed PSD pentadiagonal 5x5 with diagonal (1,2,2,1,1) and second
    diagonal (1,1,1); its powered determinant 2 - 3*2**r + 4**r is negative
    for every 0 < r < 1."""
    r = float(r)
    if not 0 < r < 1:
        raise ValueError("counterexamples exist only for 0 < r < 1")
    return make_pentadiagonal([1.0, 2.0, 2.0, 1.0, 1.0], [1.0, 1.0, 1.0])


def _draw_blocks(rng: np.random.Generator, family: str, order: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(g, diagonal) draws of each tridiagonal block of a random PD matrix
    of the band family: the matrix itself for a tridiagonal sample, its odd
    and even blocks for a pentadiagonal one.  Each block is drawn as
    random_pd_tridiagonal describes; _couplings makes its off-diagonal."""
    sizes = (order,) if family == "tridiagonal" else ((order + 1) // 2, order // 2)
    return [(rng.uniform(0.05, 0.95, size=k), rng.uniform(0.2, 3.0, size=k)) for k in sizes]


def _couplings(g: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """The couplings sqrt((1 - g_j) g_{j+1} d_j d_{j+1}) of a block drawn as
    (g, diag), and of consecutive rows of any concatenation of draws."""
    return np.sqrt((1.0 - g[:-1]) * g[1:] * diag[:-1] * diag[1:])


def _drawn_matrix(draws: list) -> BandSymMatrix:
    """The band matrix whose blocks _draw_blocks drew."""
    tridiagonals = [make_tridiagonal(diag, _couplings(g, diag)) for g, diag in draws]
    return tridiagonals[0] if len(tridiagonals) == 1 else join_pentadiagonal(*tridiagonals)


def random_pd_tridiagonal(rng: np.random.Generator, order: int) -> BandSymMatrix:
    """Random PD tridiagonal matrix, PD by construction.

    Parameters g_k in (0, 1) are drawn first and turned into the chain
    sequence (1 - g_{k-1}) g_k of off-diagonal ratios, so the chain-sequence
    PD criterion holds with no rejection step and samples reach arbitrarily
    close to the PSD boundary.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    return _drawn_matrix(_draw_blocks(rng, "tridiagonal", order))


def random_pd_pentadiagonal(rng: np.random.Generator, order: int) -> BandSymMatrix:
    """Random PD pentadiagonal matrix assembled from two independent random
    PD tridiagonal blocks via the even/odd interleaving."""
    if order < 3:
        raise ValueError("order must be at least 3")
    return _drawn_matrix(_draw_blocks(rng, "pentadiagonal", order))


def _draw_pattern(rng: np.random.Generator, graph) -> np.ndarray:
    """The entries of random_pd_pattern, as a raw array."""
    n = graph.n
    a = np.zeros((n, n))
    for i, j in sorted(graph.edges):
        a[i - 1, j - 1] = a[j - 1, i - 1] = rng.uniform(0.1, 2.0)
    slack = rng.uniform(0.1, 1.0, size=n)
    for k in range(n):
        a[k, k] = a[k].sum() + slack[k]
    return a


def random_pd_pattern(rng: np.random.Generator, graph) -> DenseSymMatrix:
    """Random PD matrix with nonnegative entries and the zero pattern of the
    given graph, built strictly diagonally dominant."""
    return DenseSymMatrix(_draw_pattern(rng, graph))


def _checked_int(value, least: int, message: str) -> int:
    """value as an int, refused with message unless it is an integer other
    than a bool and at least least."""
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(message) from None
    if value < least:
        raise ValueError(message)
    return value


# Entries set up in one batch by the probe, so that its memory does not
# grow with the number of samples.
_PROBE_BATCH = 2048


def probe_preserves(
    family: str,
    r: float,
    samples: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    graph=None,
) -> ProbeReport:
    """Search for matrices in the family whose Hadamard r-th power is not
    PSD, over seeded random PSD samples.

    family is "tridiagonal", "pentadiagonal", or "graph"; the graph argument
    is required for the last and refused for the others.  Each sample gets
    its own generator seeded by (seed, index), so the result is independent
    of evaluation order.  A band sample's order is drawn from
    _PROBE_ORDER_RANGES: 3 to 12 for a tridiagonal and 5 to 8 for a
    pentadiagonal sample.  For the band families with 0 < r < 1 the known
    counterexample is injected as sample 0, so the probe is guaranteed to
    falsify there.
    min_over_samples >= -tol certifies that no falsification was found.
    samples must be a positive integer and seed a non-negative one; both are
    checked before any draw.

    Each sample's power is bisected from its powered tridiagonal form, with
    no matrix object, and only as far as it takes to tell whether its
    smallest eigenvalue lies below the running minimum: a sample that sets
    a new minimum gets the full bisection, so min_over_samples is
    min_eigenvalue of the worst case's power, bit for bit.  Only the worst
    case is built as a matrix object.  Band samples are drawn one by one,
    in the order of their indices, and set up in batches of about
    _PROBE_BATCH entries: one set of numpy calls per batch makes every
    sample's couplings, power, power of two and Gershgorin bracket, so
    memory does not grow with samples.  Graph samples are powered one by
    one, each bisected on its own route.
    """
    r = float(r)
    if r <= 0:
        raise ValueError("exponent must be positive")
    if not math.isfinite(r):
        raise ValueError("exponent must be finite")
    samples = _checked_int(samples, 1, "samples must be a positive integer")
    seed = _checked_int(seed, 0, "seed must be a non-negative integer")
    if not isinstance(family, str) or family.lower() not in ("tridiagonal", "pentadiagonal", "graph"):
        raise ValueError(f"unknown family: {family!r}")
    family = family.lower()
    if family == "graph" and graph is None:
        raise ValueError("graph family requires a graph")
    if family != "graph" and graph is not None:
        raise ValueError(f"the {family} family takes no graph")
    tol = _checked_tol(tol)
    if family != "graph":
        best, worst = _band_minimum(family, r, samples, seed, tol)
        return ProbeReport(samples, r, best, worst, seed)
    best, worst = math.inf, None
    for i in range(samples):
        sample = _draw_pattern(np.random.default_rng([seed, i]), graph)
        norm, t, d, o, lo, hi = _form(_power(sample, r)).scaled
        # None unless the sample sets a new minimum (the first always does)
        lam = _bisect_scaled(d, [x * x for x in o], tol * norm, lo, hi, t, best)
        if lam is not None:
            best, worst = lam, sample
    return ProbeReport(samples, r, best, DenseSymMatrix(worst), seed)


def _band_minimum(family: str, r: float, samples: int, seed: int, tol: float):
    """(min_over_samples, worst_case) of probe_preserves over a band family:
    the samples are drawn one by one, in order, and set up and bisected in
    batches of about _PROBE_BATCH entries.  Only the worst sample is built
    as a matrix, from its unpowered draws."""
    lo, hi = _PROBE_ORDER_RANGES[family]
    best, worst = math.inf, None
    batch, orders, entries = [], [], 0
    for i in range(samples):
        if i == 0 and r < 1:
            sample = (counterexample_tridiagonal if family == "tridiagonal" else counterexample_pentadiagonal)(r)
            order = sample.order
        else:
            rng = np.random.default_rng([seed, i])
            order = int(rng.integers(lo, hi + 1))
            sample = _draw_blocks(rng, family, order)
        batch.append(sample)
        orders.append(order)
        entries += order
        if entries >= _PROBE_BATCH or i == samples - 1:
            best, worst = _bisect_batch(batch, orders, r, tol, best, worst)
            batch, orders, entries = [], [], 0
    return best, worst if isinstance(worst, BandSymMatrix) else _drawn_matrix(worst)


def _bisect_batch(batch: list, orders: list, r: float, tol: float, best: float, worst):
    """best and worst after the band samples of the batch, in order: each a
    counterexample matrix or _draw_blocks's draws, of the given orders;
    worst is the sample that set best.

    The batch is laid out as one tridiagonal direct sum of the samples'
    forms, with an exactly zero coupling at every block end and every
    sample end.  One set of numpy calls makes the couplings, the r-th power,
    each sample's power of two and its Gershgorin bounds for the whole
    batch; then each sample is bisected on its slice of the scaled entries
    by _bisect_scaled, as far as the running minimum needs."""
    blocks, head = [], None
    for sample in batch:
        if isinstance(sample, BandSymMatrix):
            # the counterexample's form: its couplings replace the ones made
            # from its placeholder g below
            form = _form(sample)
            head = form.off
            blocks.append((np.zeros_like(form.diag), form.diag))
        else:
            blocks += sample
    g, diag = np.concatenate([g for g, _ in blocks]), np.concatenate([d for _, d in blocks])
    off = np.zeros_like(diag)
    off[:-1] = _couplings(g, diag)
    off[np.cumsum([d.shape[0] for _, d in blocks]) - 1] = 0.0
    if head is not None:
        off[: head.shape[0]] = head
    n = diag.shape[0]
    power = _power(np.concatenate((diag, off)), r)
    sizes = np.array(orders)
    starts = np.cumsum(sizes) - sizes
    norms, exps, d, o, los, his = _scaled_forms(power[:n], power[n:], starts, sizes)
    d, e2 = d.tolist(), [0.0] + (o * o).tolist()
    rows = zip(starts.tolist(), orders, norms.tolist(), exps.tolist(), los.tolist(), his.tolist())
    for sample, (p, m, scale, t, lo, hi) in zip(batch, rows):
        # None unless the sample sets a new minimum (the first always does)
        lam = _bisect_scaled(d[p : p + m], e2[p : p + m], tol * scale, lo, hi, t, best)
        if lam is not None:
            best, worst = lam, sample
    return best, worst


def _consecutive_nonzero(off: np.ndarray) -> int | None:
    """Index i (1-based) with b_i != 0 and b_{i+1} != 0, or None."""
    nz = off != 0
    for i in range(off.shape[0] - 1):
        if nz[i] and nz[i + 1]:
            return i + 1
    return None


@dataclass(frozen=True, eq=False)
class IdVerdict:
    """Infinite-divisibility verdict with the reason it was reached.

    blocks holds the diagonal blocks (each of order 1 or 2) of an
    infinitely divisible tridiagonal input, and is empty otherwise.
    """

    infinitely_divisible: bool
    reason: str
    blocks: tuple[BandSymMatrix, ...] = ()


def id_verdict(m: BandSymMatrix) -> IdVerdict:
    """Infinite divisibility of a nonnegative tridiagonal or
    pentadiagonal-form matrix: PSD and no two consecutive nonzero
    off-diagonal entries.  Only an exact 0.0 counts as zero, so A and
    2**k A get one verdict, however small their entries.

    Pentadiagonal input is decided on its odd and even tridiagonal blocks:
    the pattern test runs on each parity subsequence of the second
    diagonal, and each block, on its own order and scale, is PSD unless one
    Sturm count at -thr finds it INDEFINITE.
    """
    if not isinstance(m, BandSymMatrix):
        raise ValueError("expected a tridiagonal or pentadiagonal-form BandSymMatrix")
    if m.min_entry() < 0:
        raise ValueError("matrix has a negative entry")
    if m.bandwidth == 1:
        bad = _consecutive_nonzero(m.off)
        if bad is not None:
            return IdVerdict(False, f"not ID: off-diagonal entries {bad} and {bad + 1} are both nonzero")
        tridiagonals = (m,)
    else:
        tridiagonals = split_pentadiagonal(m)
        for parity, block in zip(("odd", "even"), tridiagonals):
            if _consecutive_nonzero(block.off) is not None:
                return IdVerdict(
                    False,
                    "not ID: consecutive nonzero entries in the "
                    f"{parity}-position second-diagonal subsequence",
                )
    if any(_indefinite(_form(t).scaled, DEFAULT_TOL) for t in tridiagonals):
        return IdVerdict(False, "not ID: matrix is not PSD")
    blocks = tuple(split_at_zero_offdiag(m)) if m.bandwidth == 1 else ()
    return IdVerdict(True, "PSD with no two consecutive nonzero off-diagonal entries", blocks)


def is_id_tridiagonal(t: BandSymMatrix) -> bool:
    """id_verdict of a tridiagonal matrix, as a bool."""
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    return id_verdict(t).infinitely_divisible


def is_id_pentadiagonal(p: BandSymMatrix) -> bool:
    """id_verdict of a pentadiagonal matrix with zero first off-diagonal:
    both parity subsequences of the second diagonal must avoid consecutive
    nonzeros and both tridiagonal blocks must be PSD."""
    if not isinstance(p, BandSymMatrix) or p.bandwidth != 2:
        raise ValueError("expected a pentadiagonal BandSymMatrix with zero first off-diagonal")
    return id_verdict(p).infinitely_divisible


def id_blocks(t: BandSymMatrix) -> list[BandSymMatrix]:
    """Block-diagonal decomposition of an infinitely divisible tridiagonal
    matrix; every block has order 1 or 2 and is PSD."""
    if not isinstance(t, BandSymMatrix) or t.bandwidth != 1:
        raise ValueError("expected a tridiagonal BandSymMatrix")
    verdict = id_verdict(t)
    if not verdict.infinitely_divisible:
        raise ValueError("matrix is not infinitely divisible")
    return list(verdict.blocks)


def id_numeric_probe(a, r_grid=None) -> bool:
    """Necessary-condition sampler for infinite divisibility: True iff the
    Hadamard r-th power is never classified INDEFINITE over the grid.

    A True result is not a proof of infinite divisibility (which quantifies
    over all r > 0); only the algebraic characterizations certify it.

    The input's route to tridiagonal form is found once.  Band input, and
    dense input whose nonzero graph is a union of paths, power the two
    diagonals of that form for each exponent; the path order is found anew
    only for a power in which a coupling underflows to zero.  Other dense
    input gets the LAPACK spectrum of its power for each exponent.  Each
    exponent asks only whether classify_positivity's class at DEFAULT_TOL,
    the tolerance of id_verdict's PSD check, is INDEFINITE: one Sturm count
    at -thr of the power's form, with no bisection.
    """
    if r_grid is None:
        r_grid = DEFAULT_ID_GRID
    grid = [float(r) for r in r_grid]
    if not grid:
        raise ValueError("probe grid must contain at least one exponent")
    if any(r <= 0 for r in grid):
        raise ValueError("probe grid must contain positive exponents only")
    if not all(map(math.isfinite, grid)):
        raise ValueError("exponent must be finite")
    if isinstance(a, (BandSymMatrix, DenseSymMatrix)):
        low = a.min_entry()
    else:
        low = check_dense(to_dense_array(a), symmetric=False).min()
    if low < 0:
        raise ValueError("matrix has a negative entry")
    form = _form(a)
    if form.diag is not None:
        n, entries, couplings = form.diag.shape[0], np.concatenate((form.diag, form.off)), np.count_nonzero(form.off)
    for r in grid:
        x = None if form.diag is None else _power(entries, r)
        if x is None or (form.order is not None and np.count_nonzero(x[n:]) < couplings):
            scaled = _form(_power(form.dense, r)).scaled
        else:
            scaled = _scaled_form(x[:n], x[n:])
        if _indefinite(scaled, DEFAULT_TOL):
            return False
    return True


def polynomial_apply(t, coeffs, mode: str = "ordinary") -> DenseSymMatrix:
    """Polynomial in a symmetric matrix with nonnegative coefficients, in
    the ordinary sense sum c_k T**k or the Hadamard sense sum c_k T^(o k),
    with the k = 0 term meaning c_0 * I in both modes.

    Applied to an infinitely divisible tridiagonal matrix, either mode
    yields an infinitely divisible result.
    """
    coeffs = [float(c) for c in coeffs]
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be nonnegative")
    mode = mode.lower()
    if mode not in ("ordinary", "hadamard"):
        raise ValueError(f"unknown mode: {mode!r}")
    dense = to_dense_array(t)
    n = dense.shape[0]
    result = coeffs[0] * np.eye(n) if coeffs else np.zeros((n, n))
    if mode == "ordinary":
        power = np.eye(n)
        for c in coeffs[1:]:
            power = power @ dense
            result += c * power
        result = 0.5 * (result + result.T)
    else:
        for k, c in enumerate(coeffs[1:], start=1):
            result += c * dense**k
    return DenseSymMatrix(result)
