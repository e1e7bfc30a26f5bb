# python3
"""Demo: isolating the coupling block of a split Hermitian matrix.

A Hermitian M on a direct sum n (+) m has diagonal blocks D, D~ and a
coupling block A.  Conjugating by the block parity V = P_top - P_bottom
flips the sign of the coupling only, so

    (M - V M V) / 2 = [[0, A+], [A, 0]]

exactly, entry by entry.  Alternating shorter and shorter evolutions of M
with V conjugations in between realizes that isolated piece as a Trotter
product, and the full polar/singular-value machinery then runs on the
isolated block A alone (``polar.evolve_generalized`` below), with the
diagonal blocks never entering.
"""

import numpy as np

from polarsim import embedding, generate, hsvt, linalg, polar
from polarsim.hsvt import SplitHamiltonian
from polarsim.polar import ParityExtension


def run(seed: int = 11) -> None:
    rng = generate.rng_for(seed)
    n, m = 3, 2
    mat = generate.random_hermitian(n + m, rng)
    sh = SplitHamiltonian(mat, split=n)

    isolated = embedding.embed(hsvt.isolate_offdiagonal(sh))
    gap = np.max(np.abs(isolated - embedding.embed(mat[n:, :n])))
    print(f"isolation vs direct embedding, entrywise: {gap:.3e}")
    assert gap == 0.0

    # The same conjugation trick as a product formula, applied to a state.
    psi = generate.random_state(n + m, rng)
    target = linalg.matrix_exp_hermitian(isolated, 1.0) @ psi
    print("steps     deviation from e^{-i embed(A) t}")
    for n_steps in (10, 100, 1000):
        product = np.linalg.matrix_power(hsvt.trotter_step(sh, 1.0 / n_steps), n_steps)
        dev = np.linalg.norm(product @ psi - target)
        print(f"{n_steps:<9d} {dev:.3e}")

    # Changing the diagonal blocks changes nothing downstream.
    other = mat.copy()
    other[:n, :n] = generate.random_hermitian(n, rng)
    other[n:, n:] = generate.random_hermitian(m, rng)
    sh_other = SplitHamiltonian(other, split=n)
    ext = ParityExtension(np.abs, "even")
    a, a_other = (hsvt.isolate_offdiagonal(s) for s in (sh, sh_other))
    out_a, _, _ = polar.evolve_generalized(a, ext, 1.0, psi)
    out_b, _, _ = polar.evolve_generalized(a_other, ext, 1.0, psi)
    same = np.array_equal(out_a, out_b)
    print(f"diagonal blocks invisible to the transform: {same}")
    assert same
    print("ok")


if __name__ == "__main__":
    run()
