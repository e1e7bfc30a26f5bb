from __future__ import annotations

import numpy as np
import pytest

from polarsim import cli, embedding, generate, hsvt, io, linalg, polar, verify
from polarsim.hsvt import SplitHamiltonian


def test_split_hamiltonian_validation():
    rng = generate.rng_for(601)
    h = generate.random_hermitian(4, rng)
    sh = SplitHamiltonian(matrix=h, split=1)
    assert sh.top_dim == 1 and sh.bottom_dim == 3
    with pytest.raises(ValueError, match="split"):
        SplitHamiltonian(matrix=h, split=0)
    with pytest.raises(ValueError, match="split"):
        SplitHamiltonian(matrix=h, split=4)
    with pytest.raises(ValueError, match="Hermitian"):
        SplitHamiltonian(matrix=h + 1j * np.eye(4), split=2)
    with pytest.raises(ValueError, match="square"):
        SplitHamiltonian(matrix=np.zeros((2, 3)), split=1)


def test_parity_operator():
    sh = SplitHamiltonian(matrix=np.diag([1.0, 2.0, 3.0]).astype(complex), split=2)
    np.testing.assert_array_equal(sh.parity(), [1.0, 1.0, -1.0])


def test_isolation_equals_conjugation_formula():
    rng = generate.rng_for(602)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        sh = generate.random_split_hamiltonian(n, m, rng)
        iso = hsvt.isolate_offdiagonal(sh)
        assert iso.shape == (m, n)
        # dual route: (M - VMV)/2
        v = np.diag(sh.parity())
        expected = (sh.matrix - v @ sh.matrix @ v) / 2.0
        np.testing.assert_array_equal(embedding.embed(iso), expected)
        np.testing.assert_array_equal(iso, sh.matrix[n:, :n])


def test_isolation_is_entrywise_exact():
    # fp algebra: subtracting identical diagonal blocks leaves literal zeros
    rng = generate.rng_for(603)
    sh = generate.random_split_hamiltonian(3, 2, rng)
    iso = embedding.embed(hsvt.isolate_offdiagonal(sh))
    assert np.all(iso[:3, :3] == 0.0)
    assert np.all(iso[3:, 3:] == 0.0)


def test_isolation_keeps_a_huge_coupling_finite(tmp_path, capsys):
    # a split file with a 1e308 coupling entry: forming M - VMV first would
    # overflow to 2e308 before halving, though every entry of A is finite
    mat = np.array([[0.5, 1e308, 0.0], [1e308, -0.25, 2.0], [0.0, 2.0, 1.0]], dtype=complex)
    path = str(tmp_path / "huge.json")
    io.write_split_hamiltonian(path, SplitHamiltonian(matrix=mat, split=1))
    sh = io.read_split_hamiltonian(path)
    np.testing.assert_array_equal(hsvt.isolate_offdiagonal(sh), mat[1:, :1])
    assert verify.isolation_error(sh) == 0.0
    # the whole command, Trotter factorization of M included, runs without a
    # warning (the tests raise them as errors) in both modes
    for mode in ("exact", "qpe"):
        assert cli.main(["hsvt", "--input", path, "--mode", mode]) == 0
    capsys.readouterr()


def test_trotter_converges_and_identity_without_coupling():
    rng = generate.rng_for(604)
    sh = generate.random_split_hamiltonian(2, 2, rng)
    coupling = polar.dilation(hsvt.isolate_offdiagonal(sh))
    devs = [hsvt.trotter_offdiagonal_evolution(sh, coupling, 1.0, n) for n in (8, 64, 512)]
    assert devs[0] > devs[1] > devs[2]
    step = hsvt.trotter_step(sh, 1.0 / 8)
    np.testing.assert_allclose(step.conj().T @ step, np.eye(4), atol=1e-12)
    # block-diagonal M commutes with V: every step collapses to the identity
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = generate.random_hermitian(2, rng)
    block[2:, 2:] = generate.random_hermitian(2, rng)
    sh0 = SplitHamiltonian(matrix=block, split=2)
    coupling0 = polar.dilation(hsvt.isolate_offdiagonal(sh0))
    assert hsvt.trotter_offdiagonal_evolution(sh0, coupling0, 3.0, 5) < 1e-12
    np.testing.assert_allclose(hsvt.trotter_step(sh0, 3.0 / 5), np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        hsvt.trotter_offdiagonal_evolution(sh, coupling, 1.0, 0)


def test_trotter_step_matches_the_two_exponential_reference():
    # the literal step e^{-i M dt/2} V e^{+i M dt/2} V, two factorizations and a dense V
    rng = generate.rng_for(617)
    sh = generate.random_split_hamiltonian(3, 2, rng)
    v = np.diag(sh.parity())
    for dt in (1e-3, 1e-1, 1.0):
        reference = (
            linalg.matrix_exp_hermitian(sh.matrix, dt / 2.0)
            @ v
            @ linalg.matrix_exp_hermitian(sh.matrix, -dt / 2.0)
            @ v
        )
        assert np.linalg.norm(hsvt.trotter_step(sh, dt) - reference, ord=2) < 1e-13


def test_diagonal_blocks_never_enter():
    # same coupling, different diagonal blocks: identical transform output
    rng = generate.rng_for(612)
    n, m = 2, 3
    coupling = generate.random_complex_matrix(m, n, rng)
    psi = generate.random_state(5, generate.rng_for(613))

    def build(seed: int) -> SplitHamiltonian:
        r = generate.rng_for(seed)
        mat = np.zeros((5, 5), dtype=complex)
        mat[:n, :n] = generate.random_hermitian(n, r)
        mat[n:, n:] = generate.random_hermitian(m, r)
        mat[n:, :n] = coupling
        mat[:n, n:] = coupling.conj().T
        return SplitHamiltonian(matrix=mat, split=n)

    g = lambda x: np.sqrt(np.abs(x))  # noqa: E731
    for kappa_tilde in (None, 2.0):
        outs = []
        for seed in (1, 2):
            dil = polar.dilation(hsvt.isolate_offdiagonal(build(seed)))
            sign, _, _ = polar.apply_polar_isometry(dil, psi, kappa_tilde=kappa_tilde)
            evolved, _, _ = polar.evolve(dil, g, 0.7, psi)
            outs.append((sign, evolved))
        for out1, out2 in zip(*outs):
            np.testing.assert_array_equal(out1, out2)


def test_isolated_block_spectrum_is_coupling_svd():
    rng = generate.rng_for(616)
    sh = generate.random_split_hamiltonian(3, 3, rng)
    w, _ = linalg.hermitian_eig(embedding.embed(hsvt.isolate_offdiagonal(sh)))
    s = linalg.svd(sh.matrix[3:, :3]).singular_values
    np.testing.assert_allclose(w, np.concatenate([-s, s[::-1]]), atol=1e-10)
