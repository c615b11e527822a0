"""Every name a module exports resolves, so a deleted function cannot leave
a stale entry behind in an __all__, and the package exports exactly what
its modules export."""

import importlib
import pkgutil

import pytest

import bandpos

MODULES = ["bandpos"] + [f"bandpos.{m.name}" for m in pkgutil.iter_modules(bandpos.__path__)]

# the package's public names; each is declared once, in its module's __all__
PUBLIC_NAMES = {
    "__version__",
    # bandmat
    "BandSymMatrix",
    "DenseSymMatrix",
    "make_tridiagonal",
    "make_pentadiagonal",
    "hadamard_power",
    "split_pentadiagonal",
    "join_pentadiagonal",
    "to_dense_array",
    "matrix_from_json",
    "ExactBand",
    "exact_matrix_from_json",
    # positivity
    "PD",
    "PSD_BOUNDARY",
    "INDEFINITE",
    "PositivityVerdict",
    "sym_eigenvalues",
    "min_eigenvalue",
    "classify_positivity",
    "leading_principal_minors",
    "determinant",
    "shift_to_boundary",
    # chainseq
    "ChainReport",
    "minimal_parameters",
    "is_chain_sequence",
    "comparison_dominates",
    "ratio_sequence",
    "tridiag_ratio_sequence",
    "split_at_zero_offdiag",
    "wall_wetzel_pd",
    # preservers
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
    # graphs
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
}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from bandpos import *", namespace)
    assert set(bandpos.__all__) <= set(namespace)


def test_package_exports_its_modules_exports_once():
    modules = [getattr(bandpos, m) for m in ("bandmat", "chainseq", "graphs", "positivity", "preservers")]
    exported = ["__version__"] + [n for m in modules for n in getattr(m, "__all__", [])]
    assert len(bandpos.__all__) == len(set(bandpos.__all__)) == len(exported) == len(set(exported))
    assert set(bandpos.__all__) == set(exported) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 60
