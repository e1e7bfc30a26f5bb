# python3
"""Demo: evolving under the positive polar factors without forming them.

Taking g(x) = |x| on the dilation of A (``polar.evolve(dil, np.abs, t, psi)``
with ``dil = polar.dilation(a)``, factored once for every t and every g)
evolves the top block by e^{-i sqrt(A+ A) t} and the bottom block by
e^{-i sqrt(A A+) t} simultaneously.  More generally g is any real function
of the dilation's signed eigenvalues +/- sigma_j: an odd one sign(x) f(|x|)
picks up the sign structure, an even one f(|x|) acts block-diagonally.
"""

import numpy as np

from polarsim import embedding, generate, linalg, polar


def run(seed: int = 3) -> None:
    rng = generate.rng_for(seed)
    a = generate.random_complex_matrix(3, 3, rng)
    factors = linalg.classical_polar(a)
    psi = generate.random_state(6, rng)
    top, bottom = psi[:3], psi[3:]
    dil = polar.dilation(a)

    print("t        deviation from dense exponentials")
    for t in (0.1, 1.0, np.pi):
        out, _, _ = polar.evolve(dil, np.abs, t, psi)
        expected = np.concatenate(
            [
                linalg.matrix_exp_hermitian(factors.right_positive, t) @ top,
                linalg.matrix_exp_hermitian(factors.left_positive, t) @ bottom,
            ]
        )
        dev = np.linalg.norm(out - expected)
        print(f"{t:<8.4f} {dev:.3e}")
        assert dev < 1e-10

    # The identity, the odd extension of f(s) = s, recovers plain dilated evolution.
    h = embedding.embed(a)
    out_odd, _, _ = polar.evolve(dil, lambda x: x, 1.0, psi)
    dev_odd = np.linalg.norm(out_odd - linalg.matrix_exp_hermitian(h, 1.0) @ psi)
    print(f"odd x   -> e^(-iHt):                {dev_odd:.3e}")

    # Even extensions never mix the blocks.
    out_even, _, _ = polar.evolve(dil, lambda x: np.cos(np.abs(x)), 1.0, psi)
    b = factors.right_positive
    eigval, eigvec = linalg.hermitian_eig(b)
    top_expected = eigvec @ (np.exp(-1j * np.cos(eigval)) * (eigvec.conj().T @ top))
    dev_even = np.linalg.norm(out_even[:3] - top_expected)
    print(f"even cos, top block via eig of B:   {dev_even:.3e}")

    assert dev_odd < 1e-10 and dev_even < 1e-10
    print("ok")


if __name__ == "__main__":
    run()
