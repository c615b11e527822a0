"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are fixed here, not configurable.
"""

import itertools
import math

import numpy as np

from bandpos import (
    INDEFINITE,
    PD,
    DenseSymMatrix,
    PowerSet,
    chordal_critical_exponent,
    classify_positivity,
    comparison_dominates,
    counterexample_pentadiagonal,
    complete_graph,
    determinant,
    graph_from_edges,
    hadamard_power,
    id_numeric_probe,
    is_chain_sequence,
    is_chordal,
    is_id_pentadiagonal,
    is_id_tridiagonal,
    join_pentadiagonal,
    make_pentadiagonal,
    make_tridiagonal,
    min_eigenvalue,
    path_graph,
    penta_support_graph,
    probe_preserves,
    random_pd_pattern,
    random_pd_pentadiagonal,
    shift_to_boundary,
    split_pentadiagonal,
    sym_eigenvalues,
    wall_wetzel_pd,
)

TOL = 1e-10
R_SET = (0.1, 0.5, 0.9, 1.0, 2.0, 3.7)


def _ok(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_golden_determinant_tridiagonal():
    for eps in (0.01, 0.1, 1.0, 10.0):
        a = make_tridiagonal([1.0, 2.0 + eps, 1.0], [1.0, 1.0])
        for r in R_SET:
            det = determinant(hadamard_power(a, r))
            expected = (2.0 + eps) ** r - 2.0
            assert abs(det - expected) <= 1e-12 * abs(expected), (eps, r, det, expected)
    _ok(1, "det(A(eps)^or) = (2+eps)^r - 2 to 1e-12 relative on the 4x6 grid")


def test_criterion_02_golden_determinant_pentadiagonal(p_matrix):
    for r in R_SET:
        det = determinant(hadamard_power(p_matrix, r))
        expected = 2.0 - 3.0 * 2.0**r + 4.0**r
        assert abs(det - expected) <= 1e-12 * max(abs(expected), 1.0), (r, det, expected)
    for r in np.arange(0.1, 0.95, 0.1):
        assert determinant(hadamard_power(p_matrix, float(r))) < 0.0, r
    assert abs(determinant(hadamard_power(p_matrix, 1.0))) <= 1e-12
    _ok(2, "det(P^or) = 2 - 3*2^r + 4^r; negative on (0,1) grid; zero at r=1")


def test_criterion_03_wall_wetzel_equivalence():
    rng = np.random.default_rng(2024)
    decisive = 0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        t = make_tridiagonal(rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 2.0, max(n - 1, 0)))
        verdict = classify_positivity(t, TOL)
        if abs(verdict.min_eigenvalue) <= 10 * TOL * max(1.0, verdict.scale):
            continue
        decisive += 1
        assert wall_wetzel_pd(t) == (verdict.classification == PD), t.main_diag
    assert decisive >= 950
    _ok(3, f"chain criterion matched the eigenvalue oracle on {decisive}/1000 decisive draws")


def test_criterion_04_theorem2_forward_probe():
    for k, r in enumerate((1.0, 1.3, 2.0, math.e, 5.0)):
        report = probe_preserves("tridiagonal", r, 500, seed=400 + k)
        powered = hadamard_power(report.worst_case, r)
        scale = max(1.0, float(np.abs(powered.dense()).max()))
        assert report.min_over_samples >= -1e-10 * scale, (r, report.min_over_samples)
    _ok(4, "500 random PD tridiagonal samples per r in {1, 1.3, 2, e, 5}: no violations")


def test_criterion_05_theorem3_forward_probe_and_split():
    for k, r in enumerate((1.0, 1.3, 2.0, math.e, 5.0)):
        report = probe_preserves("pentadiagonal", r, 500, seed=500 + k)
        powered = hadamard_power(report.worst_case, r)
        scale = max(1.0, float(np.abs(powered.dense()).max()))
        assert report.min_over_samples >= -1e-10 * scale, (r, report.min_over_samples)
    for i in range(100):
        rng = np.random.default_rng([505, i])
        p = random_pd_pentadiagonal(rng, int(rng.integers(5, 9)))
        odd, even = split_pentadiagonal(p)
        block_eigs = np.sort(np.concatenate([sym_eigenvalues(odd), sym_eigenvalues(even)]))
        dense_eigs = sym_eigenvalues(p.dense())
        np.testing.assert_allclose(dense_eigs, block_eigs, atol=1e-12)
    _ok(5, "pentadiagonal probe clean for n in 5..8; split eigenvalues match to 1e-12")


def test_criterion_06_theorem1_strictness():
    graphs = [path_graph(n) for n in range(3, 11)] + [
        penta_support_graph(n) for n in range(3, 11)
    ]
    count = 0
    for i in range(200):
        rng = np.random.default_rng([600, i])
        g = graphs[int(rng.integers(0, len(graphs)))]
        a = random_pd_pattern(rng, g)
        _, lam = shift_to_boundary(a)
        assert lam > 0
        # keep the shifted matrix exactly nonnegative: the bisected lam can
        # overshoot a diagonal entry that equals the smallest eigenvalue
        lam = min(lam, float(np.diag(a.entries).min()))
        b = a.entries - lam * np.eye(g.n)
        for r in (1.0, 1.5, 2.0):
            powered = hadamard_power(a, r)
            verdict = classify_positivity(powered, TOL)
            assert verdict.classification == PD, (g.n, r)
            gap = hadamard_power(b + lam * np.eye(g.n), r) - hadamard_power(b, r)
            assert (np.diag(gap) >= lam**r - 1e-10).all()
        count += 1
    assert count == 200
    _ok(6, "200 random PD pattern matrices stay strictly PD at r in {1, 1.5, 2}")


def _dominant_tridiagonal(rng, mask):
    off = np.where(mask, rng.uniform(0.2, 2.0, len(mask)), 0.0)
    n = len(mask) + 1
    diag = np.zeros(n)
    diag[:-1] += off
    diag[1:] += off
    diag += rng.uniform(0.1, 1.0, n)
    return make_tridiagonal(diag, off)


def test_criterion_07_id_characterization():
    for bits in range(16):
        mask = np.array([(bits >> i) & 1 for i in range(4)], dtype=bool)
        rng = np.random.default_rng([700, bits])
        t = _dominant_tridiagonal(rng, mask)
        pattern_ok = not any(mask[i] and mask[i + 1] for i in range(3))
        assert is_id_tridiagonal(t) == pattern_ok, mask
        assert id_numeric_probe(t) == pattern_ok, mask
    for n in (5, 6, 7):
        for bits in range(2 ** (n - 2)):
            mask = np.array([(bits >> i) & 1 for i in range(n - 2)], dtype=bool)
            rng = np.random.default_rng([701, n, bits])
            second = np.where(mask, rng.uniform(0.2, 2.0, n - 2), 0.0)
            diag = np.zeros(n)
            diag[:-2] += second
            diag[2:] += second
            diag += rng.uniform(0.1, 1.0, n)
            p = make_pentadiagonal(diag, second)
            odd_mask, even_mask = mask[0::2], mask[1::2]
            parity_ok = not any(
                m[i] and m[i + 1] for m in (odd_mask, even_mask) for i in range(len(m) - 1)
            )
            assert is_id_pentadiagonal(p) == parity_ok, (n, mask)
            assert id_numeric_probe(p) == parity_ok, (n, mask)
    _ok(7, "ID pattern criterion, classifier, and numeric probe agree on every mask")


def test_criterion_08_chordal_critical_exponents():
    for n in range(3, 9):
        assert chordal_critical_exponent(complete_graph(n)) == PowerSet(
            float(n - 2), includes_naturals=True
        )
    p3 = chordal_critical_exponent(path_graph(3))
    assert p3.render() == "[1, ∞)" and p3.normalized() == PowerSet(1.0)
    k4e = graph_from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    assert chordal_critical_exponent(k4e) == PowerSet(2.0, includes_naturals=True)
    c4 = graph_from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    try:
        chordal_critical_exponent(c4)
        raise AssertionError("C4 must be refused")
    except ValueError:
        pass
    cert = is_chordal(c4)
    cyc = cert.witness_cycle
    assert not cert.is_chordal and len(cyc) == 4
    for i in range(4):
        assert c4.has_edge(cyc[i], cyc[(i + 1) % 4])
    assert not c4.has_edge(cyc[0], cyc[2]) and not c4.has_edge(cyc[1], cyc[3])
    _ok(8, "K_n, P3, K4 minus edge critical exponents; C4 refused with verified witness")


def test_criterion_09_comparison_theorem():
    rng = np.random.default_rng(900)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        gs = rng.uniform(0.05, 0.95, n)
        prev = rng.uniform(0.0, 0.9)
        a = []
        for g in gs:
            a.append((1 - prev) * g)
            prev = g
        c = [u * x for u, x in zip(rng.uniform(0.1, 1.0, n), a)]
        assert comparison_dominates(c, a)
        assert is_chain_sequence(c)
        assert all(x < 1 for x in a)
        r = float(rng.uniform(1.0001, 6.0))
        assert is_chain_sequence([x**r for x in a])
    _ok(9, "500 dominated sequences and r>1 powers of chains are chains")


def test_criterion_10_section2_fixed_vectors():
    cauchy = DenseSymMatrix(
        np.array([[1.0 / (i + j) for j in range(1, 4)] for i in range(1, 4)])
    )
    assert id_numeric_probe(cauchy)
    square = DenseSymMatrix(cauchy.entries @ cauchy.entries)
    quarter = hadamard_power(square, 0.25)
    assert determinant(quarter) < 0.0
    assert classify_positivity(quarter, TOL).classification == INDEFINITE
    assert not id_numeric_probe(square)
    _ok(10, "Cauchy 3x3 passes the ID probe; its ordinary square fails at r = 1/4")
