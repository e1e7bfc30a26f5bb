# python3
"""Demo: evolving under the positive polar factors without forming them.

Taking f(x) = |x| t on the dilation of A evolves the top block by
e^{-i sqrt(A+ A) t} and the bottom block by e^{-i sqrt(A A+) t}
simultaneously.  More generally any f with a declared parity extends from
singular values to a function of the dilation: odd extensions pick up the
sign structure, even ones act block-diagonally.
"""

import numpy as np

from polarsim import embedding, generate, linalg, polar
from polarsim.polar import ParityExtension


def run(seed: int = 3) -> None:
    rng = generate.rng_for(seed)
    a = generate.random_complex_matrix(3, 3, rng)
    factors = linalg.classical_polar(a)
    psi = generate.random_state(6, rng)
    top, bottom = psi[:3], psi[3:]

    print("t        deviation from dense exponentials")
    for t in (0.1, 1.0, np.pi):
        out, _, _ = polar.evolve_positive_factor(a, t, psi)
        expected = np.concatenate(
            [
                linalg.matrix_exp_hermitian(factors.right_positive, t) @ top,
                linalg.matrix_exp_hermitian(factors.left_positive, t) @ bottom,
            ]
        )
        dev = np.linalg.norm(out - expected)
        print(f"{t:<8.4f} {dev:.3e}")
        assert dev < 1e-10

    # Odd extension of the identity recovers plain dilated evolution.
    h = embedding.embed(a)
    out_odd, _, _ = polar.evolve_generalized(a, ParityExtension(lambda x: x, "odd"), 1.0, psi)
    dev_odd = np.linalg.norm(out_odd - linalg.matrix_exp_hermitian(h, 1.0) @ psi)
    print(f"odd x   -> e^(-iHt):                {dev_odd:.3e}")

    # Even extensions never mix the blocks.
    out_even, _, _ = polar.evolve_generalized(a, ParityExtension(np.cos, "even"), 1.0, psi)
    b = factors.right_positive
    eigval, eigvec = linalg.hermitian_eig(b)
    top_expected = eigvec @ (np.exp(-1j * np.cos(eigval)) * (eigvec.conj().T @ top))
    dev_even = np.linalg.norm(out_even[:3] - top_expected)
    print(f"even cos, top block via eig of B:   {dev_even:.3e}")

    assert dev_odd < 1e-10 and dev_even < 1e-10
    print("ok")


if __name__ == "__main__":
    run()
