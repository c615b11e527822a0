"""Known answers on the LAPACK spectrum route: dense input whose nonzero
graph is not a union of paths is bisected as the diagonal matrix of its
eigenvalues from numpy.linalg.eigvalsh.

Jain (2017, "Hadamard powers of some positive matrices", Linear Algebra
Appl.): for 0 < x_1 < ... < x_n and A = [1 + x_i x_j], the Hadamard power
A^(o r) is PSD exactly when r is a nonnegative integer or r >= n - 2.  At
an integer k < n - 2, A^(o k) = sum_m C(k, m) (x^m)(x^m)^T has rank k + 1,
so it is singular.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from bandpos import INDEFINITE, PD, classify_positivity, hadamard_power
from bandpos import positivity as oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent


def jain_powers():
    """(n, r, A^(o r)) for x_i = i / n, n = 3..8 and r in {1, ..., n} and
    {k + 1/2 : 0 <= k < n}."""
    for n in range(3, 9):
        x = np.arange(1, n + 1) / n
        a = 1.0 + np.outer(x, x)
        for r in [*range(1, n + 1), *(k + 0.5 for k in range(n))]:
            yield n, r, hadamard_power(a, r)


def test_jain_classes_never_contradict_the_theorem():
    for n, r, a in jain_powers():
        assert oracle._form(a).route == oracle._SPECTRUM
        cls = classify_positivity(a).classification
        if r == int(r) or r >= n - 2:
            assert cls != INDEFINITE, (n, r)
        if r < n - 2:
            assert cls != PD, (n, r)


def gram_inputs(seed):
    """Seeded dense Gram matrices of orders 3 to 300, shifted by half their
    smallest eigenvalue either way, with no zero entry (so no path
    pattern), kept when LAPACK's smallest eigenvalue lies at least 10 thr
    from both +-thr, thr being classify_positivity's threshold."""
    rng = np.random.default_rng(seed)
    kept = []
    for n in (3, 4, 6, 9, 16, 32, 64, 128, 200, 300):
        b = rng.uniform(-1.0, 1.0, (n, n + 4)) / np.sqrt(n + 4)
        gram = b @ b.T
        low = np.linalg.eigvalsh(gram)[0]
        for f in (0.5, 1.5):
            a = gram - f * low * np.eye(n)
            assert oracle._path_order(a) is None
            lam, thr = np.linalg.eigvalsh(a)[0], classify_positivity(a).threshold
            if min(abs(lam - thr), abs(lam + thr)) >= 10.0 * thr:
                kept.append(a)
    return kept


def test_class_does_not_depend_on_the_blas_thread_count(tmp_path):
    # LAPACK's eigenvalues, and so min_eigenvalue on this route, may differ
    # in their last bits between thread counts; the class, read outside
    # LAPACK's error, may not
    inputs = [a for _, _, a in jain_powers()] + gram_inputs(229)
    assert max(a.shape[0] for a in inputs) == 300
    path = tmp_path / "inputs.npz"
    np.savez(path, *inputs)
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "from bandpos import classify_positivity\n"
        "arrays = np.load(sys.argv[1])\n"
        "print(json.dumps([classify_positivity(arrays[f'arr_{i}']).classification for i in range(len(arrays.files))]))\n"
    )
    classes = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        classes.append(json.loads(proc.stdout))
    assert len(classes[0]) == len(inputs)
    assert classes[0] == classes[1]
    assert {PD, INDEFINITE} <= set(classes[0])
