from __future__ import annotations

import numpy as np
import pytest

from polarsim import embedding, generate, linalg, polar, procrustes, verify
from polarsim.procrustes import ProcrustesInstance
from polarsim.spectral import QPEConfig


def test_instance_validation():
    good = np.column_stack([np.array([1.0, 0.0]), np.array([0.0, 1.0])]).astype(complex)
    ProcrustesInstance(inputs=good, outputs=good)
    with pytest.raises(ValueError, match="normalized"):
        ProcrustesInstance(inputs=2 * good, outputs=good)
    with pytest.raises(ValueError, match="pair"):
        ProcrustesInstance(inputs=good, outputs=good[:, :1])


def test_from_pairs_and_cross_covariance():
    rng = generate.rng_for(501)
    pairs = [
        (generate.random_state(3, rng), generate.random_state(4, rng))
        for _ in range(5)
    ]
    inst = ProcrustesInstance.from_pairs(pairs)
    assert inst.input_dim == 3 and inst.output_dim == 4 and inst.n_pairs == 5
    expected = sum(np.outer(psi, phi.conj()) for phi, psi in pairs)
    np.testing.assert_allclose(inst.cross_covariance(), expected, atol=1e-12)


def test_pair_state_layout_and_norm():
    rng = generate.rng_for(502)
    inst = generate.random_procrustes_instance(2, 3, 4, rng)
    vec = procrustes.build_pair_state(inst)
    assert vec.shape == (4 * 5,)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    # index-major blocks: j-th chunk is (phi_j, psi_j)/sqrt(2r)
    j = 2
    chunk = vec[j * 5 : (j + 1) * 5]
    expected = np.concatenate([inst.inputs[:, j], inst.outputs[:, j]]) / np.sqrt(8)
    np.testing.assert_allclose(chunk, expected, atol=1e-12)


def _rho(pair):
    """The reduced density matrix rebuilt from the pair's one factorization."""
    w, v = pair.eig
    return (v * w) @ v.conj().T


def test_reduced_density_is_partial_trace():
    rng = generate.rng_for(503)
    inst = generate.random_procrustes_instance(2, 2, 3, rng)
    pair = procrustes.reduced_density(inst)
    vec = procrustes.build_pair_state(inst)
    # independent partial trace over the index register
    psi = vec.reshape(3, 4)
    rho = np.einsum("ja,jb->ab", psi, psi.conj())
    np.testing.assert_allclose(_rho(pair), rho, atol=1e-12)
    assert np.trace(_rho(pair)).real == pytest.approx(1.0, abs=1e-12)
    assert linalg.is_positive_semidefinite(_rho(pair))


def test_density_difference_recovers_cross_covariance():
    # rho - V rho V = embed(M)/r with M the cross covariance
    rng = generate.rng_for(504)
    inst = generate.random_procrustes_instance(3, 2, 4, rng)
    pair = procrustes.reduced_density(inst)
    v = np.diag(embedding.block_parity(3, 5))
    rho = _rho(pair)
    lhs = rho - v @ rho @ v
    rhs = embedding.embed(inst.cross_covariance()) / inst.n_pairs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dme_step_matches_the_two_exponential_reference():
    # the literal step e^{+i dt V rho V} e^{-i dt rho}, two factorizations and a dense V
    rng = generate.rng_for(505)
    inst = generate.random_procrustes_instance(2, 3, 4, rng)
    pair = procrustes.reduced_density(inst)
    v = np.diag(embedding.block_parity(2, 5))
    for dt in (1e-3, 1e-1, 1.0):
        reference = linalg.matrix_exp_hermitian(
            v @ _rho(pair) @ v, -dt
        ) @ linalg.matrix_exp_hermitian(_rho(pair), dt)
        assert np.linalg.norm(procrustes.dme_step(pair, dt) - reference, ord=2) < 1e-13


def test_dme_step_is_first_order_effective_evolution():
    rng = generate.rng_for(506)
    inst = generate.random_procrustes_instance(2, 2, 3, rng)
    pair = procrustes.reduced_density(inst)
    h_eff = embedding.embed(inst.cross_covariance()) / inst.n_pairs
    for dt in (1e-2, 1e-3):
        step = procrustes.dme_step(pair, dt)
        target = linalg.matrix_exp_hermitian(h_eff, dt)
        assert np.linalg.norm(step - target, ord=2) < 10.0 * dt**2
        np.testing.assert_allclose(step.conj().T @ step, np.eye(len(step)), atol=1e-10)


def test_effective_evolution_converges():
    rng = generate.rng_for(508)
    inst = generate.random_procrustes_instance(2, 2, 4, rng)
    pair = procrustes.reduced_density(inst)
    dil = polar.dilation(inst.cross_covariance())
    devs = procrustes.dme_deviations(inst, pair, dil, 1.0, [10, 100, 1000])
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 1e-2
    # each count is graded on its own: one count alone gives the same number
    assert procrustes.dme_deviations(inst, pair, dil, 1.0, [100]) == devs[1:2]
    with pytest.raises(ValueError):
        procrustes.dme_deviations(inst, pair, dil, 1.0, [10, 0])


def test_classical_solver_optimality():
    rng = generate.rng_for(509)
    inst = generate.random_procrustes_instance(3, 3, 5, rng)
    u, residual = procrustes.solve_procrustes_classical(inst)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-10)
    direct = float(np.linalg.norm(u @ inst.inputs - inst.outputs) ** 2)
    assert residual == pytest.approx(direct, abs=1e-10)
    # local optimality along unitary perturbation directions
    for _ in range(20):
        k = generate.random_hermitian(3, rng)
        q = linalg.matrix_exp_hermitian(k, 1e-3) @ u
        assert np.linalg.norm(q @ inst.inputs - inst.outputs) ** 2 >= residual - 1e-12
    # residual identity: C - 2 Re tr(U^dag M)
    c = np.linalg.norm(inst.inputs) ** 2 + np.linalg.norm(inst.outputs) ** 2
    m = inst.cross_covariance()
    assert residual == pytest.approx(
        c - 2.0 * float(np.real(np.trace(u.conj().T @ m))), abs=1e-10
    )


def test_realizable_instance_fits_exactly():
    rng = generate.rng_for(510)
    inst = generate.random_procrustes_instance(3, 3, 6, rng, realizable=True)
    _, residual = procrustes.solve_procrustes_classical(inst)
    assert residual < 1e-20


def test_quantum_apply_exact_matches_classical():
    rng = generate.rng_for(511)
    inst = generate.random_procrustes_instance(3, 3, 5, rng)
    u, _ = procrustes.solve_procrustes_classical(inst)
    chi = generate.random_state(3, rng)
    bottom, _ = procrustes.apply_procrustes_quantum(inst, chi)
    np.testing.assert_allclose(bottom, u @ chi, atol=1e-10)
    assert verify.overlap_fidelity(u @ chi, bottom) == pytest.approx(1.0, abs=1e-10)


def test_quantum_apply_qpe_with_synthesized_walk():
    rng = generate.rng_for(512)
    inst = generate.random_procrustes_instance(2, 2, 3, rng, realizable=True)
    u, _ = procrustes.solve_procrustes_classical(inst)
    chi = generate.random_state(2, rng)
    pair = procrustes.reduced_density(inst)
    out, _ = procrustes.apply_procrustes_quantum(
        inst, chi, QPEConfig(bits=7), n_steps=600, pair=pair
    )
    fidelity = verify.overlap_fidelity(u @ chi, out)
    assert fidelity > 0.99
    # more Trotter steps cannot hurt much: the walk converges
    out2, _ = procrustes.apply_procrustes_quantum(
        inst, chi, QPEConfig(bits=7), n_steps=6000, pair=pair
    )
    assert verify.overlap_fidelity(u @ chi, out2) > fidelity - 1e-6


def test_quantum_apply_validates_input():
    rng = generate.rng_for(513)
    inst = generate.random_procrustes_instance(3, 3, 4, rng)
    with pytest.raises(ValueError, match="dimension"):
        procrustes.apply_procrustes_quantum(inst, np.ones(2) / np.sqrt(2))
    # the walk route runs on the caller's factored rho
    with pytest.raises(TypeError, match="pair"):
        procrustes.apply_procrustes_quantum(
            inst, np.ones(3) / np.sqrt(3), QPEConfig(bits=4), n_steps=10
        )


def test_zero_cross_covariance_rejected():
    # two pairs with opposite outputs cancel the covariance exactly
    inputs = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    outputs = np.array([[0.0, 0.0], [1.0, -1.0]], dtype=complex)
    inst = ProcrustesInstance(inputs=inputs, outputs=outputs)
    assert np.linalg.norm(inst.cross_covariance()) == 0.0
    chi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="vanishes"):
        procrustes.apply_procrustes_quantum(
            inst, chi, QPEConfig(bits=4), n_steps=10, pair=procrustes.reduced_density(inst)
        )
