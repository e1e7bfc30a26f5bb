# python3
"""Demo: learning the best-fit unitary from input/output state pairs.

Given pairs (phi_j, psi_j), the rotation minimizing sum ||Q phi_j - psi_j||^2
is the polar isometry of the cross-covariance M = sum psi_j phi_j+.  The
quantum route never writes M down: the pairs are loaded into the joint state
(1/sqrt(2r)) sum |j>(phi_j (+) psi_j), whose reduced density rho obeys

    rho - V rho V = embed(M) / r,

so alternating e^{+i dt V rho V} e^{-i dt rho} steps exponentiate embed(M)
to second order per step.  The sign transform of that evolution then applies
the learned isometry to fresh inputs.
"""

import numpy as np

from polarsim import embedding, generate, linalg, polar, procrustes
from polarsim.procrustes import dme_step, reduced_density


def run(seed: int = 5) -> None:
    rng = generate.rng_for(seed)
    inst = generate.random_procrustes_instance(3, 3, 4, rng)

    u_star, best = procrustes.solve_procrustes_classical(inst)
    print(f"classical residual at the optimum: {best:.6f}")
    worse = [
        float(np.linalg.norm(generate.random_unitary(3, rng) @ inst.inputs - inst.outputs) ** 2)
        for _ in range(300)
    ]
    print(f"best of 300 random unitaries:      {min(worse):.6f}")
    assert best <= min(worse) + 1e-9

    pair = reduced_density(inst)
    w, v = pair.eig
    rho = (v * w) @ v.conj().T
    m = inst.cross_covariance()
    p = embedding.block_parity(3, 6)
    identity_gap = np.linalg.norm(
        rho - p[:, None] * rho * p - embedding.embed(m) / inst.n_pairs
    )
    print(f"density-pair identity gap:         {identity_gap:.3e}")
    assert identity_gap < 1e-12

    # Second-order accuracy of a single exponentiation step.
    print("dt        step error   error/dt^2")
    for dt in (1e-1, 1e-2, 1e-3):
        target = linalg.matrix_exp_hermitian(embedding.embed(m) / inst.n_pairs, dt)
        err = np.linalg.norm(dme_step(pair, dt) - target, ord=2)
        print(f"{dt:<9.0e} {err:.3e}    {err / dt**2:.3f}")

    # Full evolution: more steps, proportionally less error.
    print("steps     global deviation")
    counts = [10, 100, 1000]
    deviations = procrustes.dme_deviations(inst, pair, polar.dilation(m), 1.0, counts)
    for n_steps, dev in zip(counts, deviations):
        print(f"{n_steps:<9d} {dev:.3e}")
    assert deviations[0] > deviations[1] > deviations[2]

    chi = generate.random_state(3, rng)
    out, diag = procrustes.apply_procrustes_quantum(inst, chi)
    err_apply = np.linalg.norm(out - u_star @ chi)
    print(f"applied to a fresh state, deviation vs U* chi: {err_apply:.3e}")
    assert err_apply < 1e-9
    print("ok")


if __name__ == "__main__":
    run()
