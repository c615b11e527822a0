"""The probe and the infinite-divisibility grid against frozen copies of
their per-sample and per-exponent loops over matrix objects.

probe_preserves and id_numeric_probe skip the matrix objects and bisect
powered tridiagonal forms directly.  The references below build every
sample as a matrix, take hadamard_power of it and call min_eigenvalue or
classify_positivity, as those functions once did; the two must agree bit for
bit (float.hex) on the minimum, on every entry of the worst case, and on
each verdict or error.
"""

import warnings

import numpy as np
import pytest

from bandpos import (
    INDEFINITE,
    BandSymMatrix,
    DenseSymMatrix,
    classify_positivity,
    complete_graph,
    counterexample_pentadiagonal,
    counterexample_tridiagonal,
    graph_from_edges,
    hadamard_power,
    id_numeric_probe,
    join_pentadiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    min_eigenvalue,
    probe_preserves,
    to_dense_array,
)
from bandpos.graphs import band_graph
from bandpos.positivity import DEFAULT_TOL
from bandpos.preservers import DEFAULT_ID_GRID

R_VALUES = (0.25, 0.5, 0.9, 1.0, 1.5, 2.0, 3.0)
SEEDS = range(30)
SAMPLES = 40

GRAPHS = {
    "K4": complete_graph(4),
    "C5": graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
    "band(7,2)": band_graph(7, 2),
}


def frozen_random_tridiagonal(rng, order):
    g = rng.uniform(0.05, 0.95, size=order)
    diag = rng.uniform(0.2, 3.0, size=order)
    if order == 1:
        return make_tridiagonal(diag, [])
    ratios = (1.0 - g[:-1]) * g[1:]
    off = np.sqrt(ratios * diag[:-1] * diag[1:])
    return make_tridiagonal(diag, off)


def frozen_random_pentadiagonal(rng, order):
    odd = frozen_random_tridiagonal(rng, (order + 1) // 2)
    even = frozen_random_tridiagonal(rng, order // 2)
    return join_pentadiagonal(odd, even)


def frozen_random_pattern(rng, graph):
    n = graph.n
    a = np.zeros((n, n))
    for i, j in sorted(graph.edges):
        a[i - 1, j - 1] = a[j - 1, i - 1] = rng.uniform(0.1, 2.0)
    slack = rng.uniform(0.1, 1.0, size=n)
    for k in range(n):
        a[k, k] = a[k].sum() + slack[k]
    return DenseSymMatrix(a)


def frozen_probe(family, r, samples, seed, graph=None, order_range=None):
    """The per-sample probe loop: (min_over_samples, worst_case)."""
    if order_range is None:
        order_range = {"tridiagonal": (3, 12), "pentadiagonal": (5, 8)}.get(family)
    inject = family != "graph" and r < 1
    best = worst = None
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        if i == 0 and inject:
            m = counterexample_tridiagonal(r) if family == "tridiagonal" else counterexample_pentadiagonal(r)
        elif family == "graph":
            m = frozen_random_pattern(rng, graph)
        else:
            order = int(rng.integers(order_range[0], order_range[1] + 1))
            if family == "tridiagonal":
                m = frozen_random_tridiagonal(rng, order)
            else:
                m = frozen_random_pentadiagonal(rng, order)
        lam = min_eigenvalue(hadamard_power(m, r), DEFAULT_TOL)
        if best is None or lam < best:
            best = lam
            worst = m
    return best, worst


def frozen_id_probe(a, grid):
    """The per-exponent grid loop: classify_positivity of each power.  The
    overflow RuntimeWarning it raised before refusing the power is muted."""
    dense = to_dense_array(a)
    if dense.min() < 0:
        raise ValueError("matrix has a negative entry")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for r in grid:
            if classify_positivity(hadamard_power(a, r), DEFAULT_TOL).classification == INDEFINITE:
                return False
    return True


def _matrix_key(m):
    return type(m).__name__, m.shape, [x.hex() for x in m.dense().ravel().tolist()]


def _assert_probe_matches(family, r, samples, seed, graph=None, order_range=None):
    report = probe_preserves(family, r, samples, seed, graph=graph, order_range=order_range)
    low, worst = frozen_probe(family, r, samples, seed, graph, order_range)
    assert report.min_over_samples.hex() == low.hex(), (family, r, samples, seed)
    assert _matrix_key(report.worst_case) == _matrix_key(worst), (family, r, samples, seed)
    if isinstance(worst, BandSymMatrix):
        assert report.worst_case.bandwidth == worst.bandwidth


@pytest.mark.parametrize("family", ["tridiagonal", "pentadiagonal", *GRAPHS])
def test_probe_matches_frozen_loop(family):
    graph = GRAPHS.get(family)
    name = "graph" if graph is not None else family
    for r in R_VALUES:
        for seed in SEEDS:
            _assert_probe_matches(name, r, SAMPLES, seed, graph)


@pytest.mark.parametrize("family,order_range", [("tridiagonal", (1, 4)), ("pentadiagonal", (3, 6))])
def test_probe_matches_frozen_loop_at_the_least_orders(family, order_range):
    # order-1 tridiagonal samples, whose bracket is their entry, and
    # pentadiagonal samples of orders 3 and 4, whose even block has order
    # 1 or 2, in batches with the other orders
    for r in R_VALUES:
        for seed in range(12):
            _assert_probe_matches(family, r, SAMPLES, seed, order_range=order_range)


@pytest.mark.parametrize("family", ["tridiagonal", "pentadiagonal"])
def test_probe_matches_frozen_loop_across_batches(family, monkeypatch):
    from bandpos import preservers

    # every sample has at least 3 entries, so this many fill more than one
    # batch; then batches of one or two samples, which the counterexample
    # shares with drawn samples or has to itself
    crossing = preservers._PROBE_BATCH // 3 + 1
    for samples in (1, 2, crossing):
        for r in (0.5, 2.0):
            _assert_probe_matches(family, r, samples, 3)
    for batch in (1, 8, 16):
        monkeypatch.setattr(preservers, "_PROBE_BATCH", batch)
        for r in (0.5, 1.5):
            for seed in range(4):
                _assert_probe_matches(family, r, 24, seed)


@pytest.mark.parametrize("family", ["tridiagonal", "pentadiagonal"])
def test_probe_overflow_is_refused_as_the_frozen_loop_refuses_it(family):
    # 3**700 overflows: the batch is refused with the matrix classes'
    # message, and with no RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(probe_preserves, family, 700.0, 16, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _outcome(frozen_probe, family, 700.0, 16, 1)
    assert got == want == "ValueError: all entries must be finite"


def _permuted(rng, a):
    p = rng.permutation(a.shape[0])
    return a[np.ix_(p, p)]


def _id_inputs():
    """Seeded nonnegative inputs for the grid, one of each route and edge."""
    rng = np.random.default_rng(2021)
    inputs = []
    for k in range(60):
        n = int(rng.integers(1, 10))
        # couplings zero with probability 1/2, so some inputs are ID
        off = np.where(rng.uniform(size=n - 1) < 0.5, rng.uniform(0.1, 2.0, n - 1), 0.0)
        diag = rng.uniform(0.0, 3.0, n)
        t = make_tridiagonal(diag, off)
        inputs += [("tridiagonal", t), ("permuted", _permuted(rng, t.dense()))]
        if n >= 3:
            second = np.where(rng.uniform(size=n - 2) < 0.5, rng.uniform(0.1, 2.0, n - 2), 0.0)
            p = make_pentadiagonal(diag, second)
            inputs += [("pentadiagonal", p), ("permuted pentadiagonal", DenseSymMatrix(_permuted(rng, p.dense())))]
            # bandwidth 2 with a nonzero first off-diagonal: dense input
            first = rng.uniform(0.0, 0.5, n - 1)
            if k % 3 == 0:
                first[:] = 1e-200  # underflows at r >= 2: the power is pentadiagonal form
            general = p.dense() + np.diag(first, 1) + np.diag(first, -1)
            inputs.append(("general band", DenseSymMatrix(general)))
        # no path pattern, so the LAPACK spectrum route: Gram matrix of
        # nonnegative vectors
        b = rng.uniform(0.0, 1.0, (n, max(1, n - 1)))
        inputs.append(("spectrum", DenseSymMatrix(b @ b.T)))
        # a coupling of 1e-200 vanishes at r = 2 and 3: the path splits
        tiny = off.copy()
        if n >= 2:
            tiny[int(rng.integers(0, n - 1))] = 1e-200
        tiny_t = make_tridiagonal(diag + 1e-200, tiny)
        inputs += [("tiny tridiagonal", tiny_t), ("tiny permuted", DenseSymMatrix(_permuted(rng, tiny_t.dense())))]
        # a power that overflows: refused unless an earlier exponent decides
        big = 10.0 ** float(rng.uniform(120, 200))
        huge = make_tridiagonal(diag * big + big, off * big)
        inputs += [("overflow band", huge), ("overflow dense", _permuted(rng, huge.dense()))]
    # spectrum-route patterns of max-norm near 2**-500 and 2**500: the
    # form's power of two is the max-norm's exponent plus the eigenvalues'
    for k in range(24):
        n = int(rng.integers(2, 9))
        b = rng.uniform(0.0, 1.0, (n, max(1, n - 1)))
        inputs.append(("scaled spectrum", DenseSymMatrix(np.ldexp(b @ b.T, 500 if k % 2 else -500))))
    # max-norm near 2**-1050, below the normal range, where the threshold
    # tol * max-norm underflows: the grid reads it as classify_positivity does
    for k in range(6):
        n = int(rng.integers(3, 11))
        b = rng.uniform(0.0, 1.0, (n, n - 1))
        inputs.append(("subnormal spectrum", DenseSymMatrix(np.ldexp(b @ b.T, -1050))))
    return inputs


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_id_probe_matches_frozen_loop():
    inputs = _id_inputs()
    assert len(inputs) >= 300
    outcomes = set()
    for label, a in inputs:
        got = _outcome(id_numeric_probe, a)
        assert got == _outcome(frozen_id_probe, a, DEFAULT_ID_GRID), label
        outcomes.add(got)
        for r in DEFAULT_ID_GRID:
            assert _outcome(id_numeric_probe, a, [r]) == _outcome(frozen_id_probe, a, [r]), (label, r)
    # the inputs reach every verdict and the overflow refusal
    assert outcomes == {True, False, "ValueError: all entries must be finite"}


def _form_key(form):
    norm, t, d, o, lo, hi = form
    return norm.hex(), t, [x.hex() for x in d], [x.hex() for x in o], lo.hex(), hi.hex()


def test_id_probe_bisects_the_forms_of_the_powers(monkeypatch):
    # each exponent bisects exactly the scaled form that
    # classify_positivity(hadamard_power(a, r)) bisects: the same route,
    # path order included after a coupling underflows, and the same max-norm,
    # power of two, entries and bounds
    from bandpos import positivity, preservers

    seen = []
    real = preservers._indefinite

    def spy(form, tol):
        seen.append(_form_key(form))
        return real(form, tol)

    monkeypatch.setattr(preservers, "_indefinite", spy)
    split = 0
    for label, a in _id_inputs():
        for r in DEFAULT_ID_GRID:
            seen.clear()
            if isinstance(_outcome(id_numeric_probe, a, [r]), str):
                continue
            powered = hadamard_power(a, r)
            form = positivity._form(powered)
            assert seen == [_form_key(form.scaled)], (label, r)
            split += label == "tiny permuted" and form.order != positivity._form(a).order
    assert split > 0
