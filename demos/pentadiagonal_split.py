"""The pentadiagonal family with a zero first off-diagonal splits, after an
odd-then-even relabelling, into two independent tridiagonal blocks.

That one observation settles its power-preservation question: orders 3 and
4 tolerate every r >= 0, order 5 and up need r >= 1, witnessed by a fixed
5x5 matrix whose powered determinant has a closed form.
"""

import numpy as np

from bandpos import (
    classify_positivity,
    counterexample_pentadiagonal,
    determinant,
    hadamard_power,
    make_pentadiagonal,
    penta_preserver_set,
    split_pentadiagonal,
    sym_eigenvalues,
)


def banner(text):
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


banner("The 5x5 witness and its split")
p = make_pentadiagonal([1, 2, 2, 1, 1], [1, 1, 1])
print("P =\n", p.dense().astype(int))
odd, even = split_pentadiagonal(p)
print("odd block: diag", odd.main_diag, "off", odd.off)
print("even block: diag", even.main_diag, "off", even.off)
idx = np.r_[0:5:2, 1:5:2]
print("relabel odd-then-even:", (idx + 1).tolist())
m = p.dense()[np.ix_(idx, idx)]
print("P relabelled =\n", m.astype(int))
block = np.zeros((5, 5))
block[:3, :3], block[3:, 3:] = odd.dense(), even.dense()
print("equals blockdiag(odd, even):", np.array_equal(m, block))

banner("The split preserves the spectrum")
block_eigs = np.sort(np.concatenate([sym_eigenvalues(odd), sym_eigenvalues(even)]))
print("eigenvalues of P:      ", np.round(sym_eigenvalues(p), 9))
print("eigenvalues of blocks: ", np.round(block_eigs, 9))
print("P is", classify_positivity(p).classification, "(the odd block is singular)")

banner("det(P^or) = 2 - 3*2^r + 4^r")
for r in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
    det = determinant(hadamard_power(p, r))
    formula = 2 - 3 * 2**r + 4**r
    cls = classify_positivity(hadamard_power(p, r)).classification
    print(f"  r = {r:<5} det = {det:+.9f}  formula = {formula:+.9f}  -> {cls}")
print("negative on all of (0, 1): below r = 1 the family is not preserved")

banner("Preserver sets by order")
for n in (3, 4, 5, 8):
    print(f"  n = {n}: {penta_preserver_set(n).render()}")
print("orders 3 and 4 split into blocks of size <= 2, which tolerate r = 0 too")

banner("The same witness, packaged")
cx = counterexample_pentadiagonal(0.5)
print("counterexample for r = 0.5 is the fixed matrix; det of the half power:",
      f"{determinant(hadamard_power(cx, 0.5)):.9f}")
