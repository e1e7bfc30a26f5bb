# python3
"""Demo: applying the polar isometry of a matrix with one spectral transform.

Any A factors as A = U B with B positive Hermitian and U a (partial)
isometry.  Sandwich A into the Hermitian dilation H = [[0, A+], [A, 0]],
apply the sign function of H, and a state living in the right factor is
carried to U times that state in the left factor.  Here we run the exact
statevector route and check it against the classical factorization.
"""

import numpy as np

from polarsim import embedding, generate, linalg, polar


def run(seed: int = 7) -> None:
    rng = generate.rng_for(seed)
    a = generate.random_complex_matrix(3, 3, rng)
    a = a / np.linalg.norm(a, ord=2)
    factors = linalg.classical_polar(a)

    chi = generate.random_state(3, rng)
    psi = embedding.inject_right(chi, a.shape[0])
    out, _, _ = polar.apply_polar_isometry(a, psi)

    moved = out[3:]
    expected = factors.isometry @ chi
    err = np.linalg.norm(moved - expected)

    print("input  (right factor):", np.round(chi, 4))
    print("output (left factor): ", np.round(moved, 4))
    print("U @ input:            ", np.round(expected, 4))
    print(f"deviation from classical isometry: {err:.3e}")
    print(f"top block after the swap:          {np.linalg.norm(out[:3]):.3e}")

    # Rank-deficient corner: kernel components do not move.
    sing = np.array([1.0, 0.5, 0.0])
    a_def = generate.matrix_with_singular_values(sing, 3, 3, rng)
    kernel = linalg.svd(a_def).right_vectors[:, 2]
    psi_k = embedding.inject_right(kernel, 3)
    out_k, _, _ = polar.apply_polar_isometry(a_def, psi_k)
    stayed = np.linalg.norm(out_k[:3] - kernel)
    print(f"kernel passthrough deviation:      {stayed:.3e}")

    assert err < 1e-9 and stayed < 1e-9
    print("ok")


if __name__ == "__main__":
    run()
