# python3
"""Demo: pretty good measurement through the polar machinery.

To guess which of n known states |phi_j> a source emitted, measure with
chi_j = S^{-1/2} phi_j, S = sum_k phi_k phi_k+.  Those chi_j are exactly
the columns of the polar isometry of the stacking map sum_j phi_j <j|, so
the same sign transform that applies a polar isometry also performs the
measurement.  Both routes are computed here and must agree; for two states
with real overlap s the mean success probability has the closed form
(1 + sqrt(1 - s^2)) / 2.
"""

import numpy as np

from polarsim import generate, pgm, verify
from polarsim.pgm import PGMInstance


def run(seed: int = 13) -> None:
    rng = generate.rng_for(seed)
    inst = generate.random_pgm_instance(4, 3, rng)

    # The source emitted state 0; the measurement should usually say so.
    emitted, emitted_eig = pgm.density_matrix(
        np.outer(inst.states[:, 0], inst.states[:, 0].conj()), 4
    )
    direct = pgm.pgm_probabilities(inst, emitted)
    via_polar = pgm.pgm_via_polar(inst, emitted_eig)
    gap = np.max(np.abs(direct - via_polar))
    print("guess probabilities (direct):   ", np.round(direct, 6))
    print("guess probabilities (via polar):", np.round(via_polar, 6))
    print(f"dual-route gap: {gap:.3e}")
    assert gap < 1e-12 and np.argmax(direct) == 0

    # Averaged over the whole ensemble the outcomes flatten out exactly.
    mixed, _ = pgm.density_matrix(inst.gram_operator() / inst.n_states, 4)
    avg = pgm.pgm_probabilities(inst, mixed)
    print("ensemble-average outcomes:      ", np.round(avg, 6))

    # chi chi+ is the projector onto the ensemble span; U+ re-prepares chi_j.
    completeness, reprep = verify.pgm_residuals(inst, pgm.pgm_vectors(inst))
    print(f"POVM completeness on the span: {completeness:.3e}")
    print(f"re-preparation gap U+|j> vs chi_j: {reprep:.3e}")
    assert completeness < 1e-10 and reprep < 1e-10

    # Two symmetric states with overlap s: closed-form mean success.
    print("s         mean success   closed form")
    for s in (0.0, 0.3, 0.6):
        c, d = np.sqrt((1 + s) / 2), np.sqrt((1 - s) / 2)
        states = np.array([[c, c], [d, -d]], dtype=complex)
        two = PGMInstance(states)
        avg, _ = pgm.density_matrix(two.gram_operator() / 2, 2)
        probs = pgm.pgm_probabilities(two, avg)
        # success = mean over j of |<chi_j|phi_j>|^2
        vecs = pgm.pgm_vectors(two)
        succ = float(np.mean(np.abs(np.sum(vecs.conj() * states, axis=0)) ** 2))
        closed = (1 + np.sqrt(1 - s * s)) / 2
        print(f"{s:<9.2f} {succ:.10f}   {closed:.10f}")
        assert abs(succ - closed) < 1e-12
        assert abs(probs.sum() - 1) < 1e-12

    counts = pgm.sample_outcomes(direct, shots=20000, seed=seed)
    freq = counts[:-1] / 20000
    print("sampled frequencies (20000 shots):", np.round(freq, 4))
    assert np.max(np.abs(freq - direct)) < 0.02
    print("ok")


if __name__ == "__main__":
    run()
