from __future__ import annotations

import numpy as np
import pytest

from polarsim import generate, linalg, pgm, verify
from polarsim.pgm import PGMInstance
from polarsim.spectral import QPEConfig


def test_instance_validation():
    good = np.column_stack(
        [np.array([1.0, 0.0]), np.array([0.6, 0.8])]
    ).astype(complex)
    inst = PGMInstance(states=good)
    assert inst.dim == 2 and inst.n_states == 2
    with pytest.raises(ValueError):
        PGMInstance(states=2.0 * good)
    np.testing.assert_allclose(inst.stacking_map(), good.conj().T, atol=1e-15)
    np.testing.assert_allclose(
        inst.gram_operator(), good @ good.conj().T, atol=1e-15
    )


def test_measurement_vectors_oracle():
    rng = generate.rng_for(701)
    inst = generate.random_pgm_instance(4, 3, rng)
    chi = pgm.pgm_vectors(inst)
    # independent route: eigendecompose the ensemble operator by hand
    s = inst.gram_operator()
    w, v = np.linalg.eigh(s)
    inv_sqrt = np.zeros_like(w)
    inv_sqrt[w > 1e-12] = 1.0 / np.sqrt(w[w > 1e-12])
    expected = (v * inv_sqrt) @ v.conj().T @ inst.states
    np.testing.assert_allclose(np.abs(chi), np.abs(expected), atol=1e-10)
    np.testing.assert_allclose(chi, expected, atol=1e-10)


def test_completeness_on_span():
    rng = generate.rng_for(702)
    for d, n in ((2, 4), (4, 3), (5, 5)):
        inst = generate.random_pgm_instance(d, n, rng)
        chi = pgm.pgm_vectors(inst)
        res = linalg.svd(inst.states)
        keep = res.singular_values > linalg.rank_cutoff(res.singular_values)
        w = res.left_vectors[:, keep]
        np.testing.assert_allclose(
            chi @ chi.conj().T, w @ w.conj().T, atol=1e-10
        )


def test_orthonormal_states_measure_projectively():
    rng = generate.rng_for(703)
    q = generate.random_unitary(4, rng)
    inst = PGMInstance(states=q[:, :3])
    chi = pgm.pgm_vectors(inst)
    np.testing.assert_allclose(chi, q[:, :3], atol=1e-10)
    rho = np.outer(q[:, 1], q[:, 1].conj())
    probs = pgm.pgm_probabilities(inst, rho)
    np.testing.assert_allclose(probs, [0.0, 1.0, 0.0], atol=1e-12)


def test_two_state_success_matches_closed_form():
    # symmetric pair with overlap s: mean success (1 + sqrt(1 - s^2))/2
    for s in (0.0, 0.3, 0.6, 1 / np.sqrt(2)):
        th = np.arccos(s)
        states = np.column_stack(
            [np.array([1.0, 0.0]), np.array([np.cos(th), np.sin(th)])]
        ).astype(complex)
        inst = PGMInstance(states=states)
        success = []
        for j in range(2):
            rho = np.outer(states[:, j], states[:, j].conj())
            success.append(pgm.pgm_probabilities(inst, rho)[j])
        assert np.mean(success) == pytest.approx(
            (1.0 + np.sqrt(1.0 - s * s)) / 2.0, abs=1e-12
        )


def test_probabilities_form_distribution_on_span():
    rng = generate.rng_for(704)
    inst = generate.random_pgm_instance(3, 5, rng)
    rho = generate.random_density(3, rng)
    probs = pgm.pgm_probabilities(inst, rho)
    assert probs.shape == (5,)
    assert np.all(probs >= -1e-12)
    # states span C^3 almost surely, so the measurement resolves all of rho
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)


def test_density_validation():
    with pytest.raises(ValueError, match="must be 3 x 3"):
        pgm.density_matrix(np.eye(2, dtype=complex) / 2.0, 3)
    with pytest.raises(ValueError, match="unit trace"):
        pgm.density_matrix(np.eye(3, dtype=complex), 3)
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        pgm.density_matrix(bad, 3)
    skew = np.eye(3, dtype=complex) / 3
    skew[0, 1] = 2e-8j
    with pytest.raises(ValueError, match="Hermitian"):
        pgm.density_matrix(skew, 3)
    # within the entrywise tolerance the Hermitian part comes back, exactly so
    skew[0, 1] = 4e-9j
    rho, (w, v) = pgm.density_matrix(skew, 3)
    np.testing.assert_array_equal(rho, rho.conj().T)
    assert rho[0, 1] == 2e-9j
    # with the one factorization of that part, which the route reads
    np.testing.assert_allclose((v * w) @ v.conj().T, rho, rtol=0, atol=1e-15)


def test_polar_route_agrees_exactly():
    rng = generate.rng_for(706)
    for _ in range(10):
        d, n = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        inst = generate.random_pgm_instance(d, n, rng)
        rho, rho_eig = pgm.density_matrix(generate.random_density(d, rng), d)
        direct = pgm.pgm_probabilities(inst, rho)
        routed = pgm.pgm_via_polar(inst, rho_eig)
        np.testing.assert_allclose(routed, direct, atol=1e-10)
        # U^dag |j> re-prepares the measurement direction chi_j
        assert max(verify.pgm_residuals(inst, pgm.pgm_vectors(inst))) < 1e-10


def test_polar_route_qpe_on_orthonormal_states():
    # orthonormal ensembles have all singular values 1: exactly representable
    rng = generate.rng_for(707)
    q = generate.random_unitary(4, rng)
    inst = PGMInstance(states=q[:, :4])
    rho, rho_eig = pgm.density_matrix(generate.random_density(4, rng), 4)
    direct = pgm.pgm_probabilities(inst, rho)
    routed = pgm.pgm_via_polar(inst, rho_eig, QPEConfig(bits=5))
    np.testing.assert_allclose(routed, direct, atol=1e-9)


def test_sampler_is_seeded_and_conserves_shots():
    probs = np.array([0.5, 0.25, 0.125])  # 0.125 mass outside the span
    a = pgm.sample_outcomes(probs, 4000, seed=5)
    b = pgm.sample_outcomes(probs, 4000, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4,)
    assert a.sum() == 4000
    assert abs(a[-1] / 4000 - 0.125) < 0.05
    with pytest.raises(ValueError):
        pgm.sample_outcomes(np.array([0.9, 0.3]), 10, seed=1)
    with pytest.raises(ValueError):
        pgm.sample_outcomes(np.array([-0.1, 0.5]), 10, seed=1)


def test_residuals_scale_with_the_ensemble_condition_number():
    # chi comes from Phi's own SVD, not from S = Phi Phi^dag, so the dual-path
    # gap and both residuals stay within c eps kappa(Phi), not c eps kappa^2
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    eps = np.finfo(float).eps

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), log_ratio=st.floats(-7.0, 0.0))
    def run(seed, log_ratio):
        rng = generate.rng_for(seed)
        d, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        s = np.geomspace(1.0, 10.0**log_ratio, min(d, n))
        phi = generate.matrix_with_singular_values(s, d, n, rng)
        inst = PGMInstance(states=phi / np.linalg.norm(phi, axis=0))
        sv = np.linalg.svd(inst.states, compute_uv=False)
        bound = 100.0 * eps * sv[0] / sv[-1]
        rho, rho_eig = pgm.density_matrix(generate.random_density(d, rng), d)
        chi = pgm.pgm_vectors(inst)
        gap = np.max(np.abs(pgm.pgm_probabilities(inst, rho, chi) - pgm.pgm_via_polar(inst, rho_eig)))
        assert max(gap, *verify.pgm_residuals(inst, chi)) <= bound

    run()
