from __future__ import annotations

import numpy as np
import pytest

from polarsim import embedding, generate, linalg, spectral


def test_embed_block_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=complex)
    mat = embedding.embed(a)
    assert mat.shape == (5, 5)
    np.testing.assert_array_equal(mat[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(mat[2:, 2:], np.zeros((3, 3)))
    np.testing.assert_array_equal(mat[2:, :2], a)
    np.testing.assert_array_equal(mat[:2, 2:], a.conj().T)
    assert linalg.is_hermitian(mat)


def test_inject_and_project():
    psi = np.array([0.6, 0.8], dtype=complex)
    d = embedding.inject_right(psi, 3)
    np.testing.assert_array_equal(d, [0.6, 0.8, 0.0, 0.0, 0.0])
    # an (n, k) block gets an (m, k) zero block
    block = embedding.inject_right(np.eye(2, dtype=complex), 3)
    np.testing.assert_array_equal(block, np.eye(5, 2))


def test_eigenstructure_matches_svd():
    # the one factorization routes take: eigenvalues +/- sigma padded with
    # zeros, and each eigenvector off the kernel split evenly between blocks
    rng = generate.rng_for(201)
    for _ in range(25):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = generate.random_complex_matrix(m, n, rng)
        hmat = embedding.embed(a)
        w, v = linalg.hermitian_eig(hmat)
        svals = linalg.svd(a).singular_values
        kept = svals[svals > linalg.rank_cutoff(svals)]
        expected = np.concatenate([-kept, np.zeros(m + n - 2 * kept.size), kept[::-1]])
        np.testing.assert_allclose(w, expected, atol=1e-12)
        np.testing.assert_allclose(hmat @ v, v * w, atol=1e-10)
        paired = np.abs(w) > linalg.rank_cutoff(np.abs(w))
        assert np.count_nonzero(~paired) == m + n - 2 * kept.size
        np.testing.assert_allclose(
            np.linalg.norm(v[:n, paired], axis=0), 1 / np.sqrt(2), atol=1e-12
        )


def test_zero_matrix_all_kernel():
    w, _ = linalg.hermitian_eig(embedding.embed(np.zeros((2, 3), dtype=complex)))
    np.testing.assert_array_equal(w, np.zeros(5))


def test_embed_rejects_bad_shapes():
    with pytest.raises(ValueError):
        embedding.embed(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        embedding.embed(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("shape", [(5,), (5, 2), (9,)])
def test_transform_refuses_a_state_of_the_wrong_dimension(shape):
    # a state must have one row per dimension of the dilation it rides on
    eig = linalg.hermitian_eig(embedding.embed(np.eye(4, 3, dtype=complex)))
    psi = np.zeros(shape, dtype=complex)
    psi[0] = 1.0
    with pytest.raises(ValueError, match=f"dimension {shape[0]}, the operator has dimension 7"):
        spectral.spectral_transform(eig, spectral.SpectralFunction.sign_phase(), psi)
