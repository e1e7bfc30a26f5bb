from __future__ import annotations

import numpy as np
import pytest

from polarsim import embedding, generate, linalg
from polarsim.embedding import DilationVector


def test_embed_block_layout():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], dtype=complex)
    h = embedding.embed(a)
    assert h.right_dim == 2 and h.left_dim == 3
    mat = h.to_matrix()
    assert mat.shape == (5, 5)
    np.testing.assert_array_equal(mat[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(mat[2:, 2:], np.zeros((3, 3)))
    np.testing.assert_array_equal(mat[2:, :2], a)
    np.testing.assert_array_equal(mat[:2, 2:], a.conj().T)
    assert linalg.is_hermitian(mat)


def test_dilation_vector_roundtrip():
    vec = np.arange(7, dtype=complex) + 1j
    d = DilationVector.from_vector(vec, 3)
    assert d.top.shape == (3,) and d.bottom.shape == (4,)
    np.testing.assert_array_equal(d.to_vector(), vec)
    np.testing.assert_allclose(d.norm, np.linalg.norm(vec))


def test_inject_and_project():
    psi = np.array([0.6, 0.8], dtype=complex)
    d = embedding.inject_right(psi, 3)
    assert d.to_vector().shape == (5,)
    np.testing.assert_array_equal(d.top, psi)
    np.testing.assert_array_equal(d.bottom, np.zeros(3))
    dl = embedding.inject_left(psi, 3)
    np.testing.assert_array_equal(dl.top, np.zeros(3))
    np.testing.assert_array_equal(dl.bottom, psi)
    # an (n, k) block gets an (m, k) zero block
    block = embedding.inject_right(np.eye(2, dtype=complex), 3)
    assert block.bottom.shape == (3, 2) and block.to_vector().shape == (5, 2)
    np.testing.assert_array_equal(embedding.inject_left(np.eye(2), 4).top, np.zeros((4, 2)))


def test_eigenstructure_matches_svd():
    rng = generate.rng_for(201)
    for _ in range(25):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = generate.random_complex_matrix(m, n, rng)
        h = embedding.embed(a)
        hmat = h.to_matrix()
        pairs, kernel = embedding.eigenstructure(h)
        svals = linalg.svd(a).singular_values
        kept = svals[svals > linalg.rank_cutoff(svals)]
        np.testing.assert_allclose(
            np.array([p.sigma for p in pairs]), kept, atol=1e-12
        )
        assert len(kernel) == m + n - 2 * len(pairs)
        for p in pairs:
            for val, vec in ((p.sigma, p.plus), (-p.sigma, p.minus)):
                v = vec.to_vector()
                np.testing.assert_allclose(hmat @ v, val * v, atol=1e-10)
                assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        for kv in kernel:
            np.testing.assert_allclose(
                hmat @ kv.to_vector(), np.zeros(m + n), atol=1e-10
            )


def test_eigenstructure_pairing_shares_blocks():
    # plus and minus of one sigma share the top block; bottoms differ by sign
    rng = generate.rng_for(202)
    a = generate.random_complex_matrix(4, 3, rng)
    pairs, _ = embedding.eigenstructure(embedding.embed(a))
    for p in pairs:
        np.testing.assert_allclose(p.plus.top, p.minus.top, atol=1e-12)
        np.testing.assert_allclose(p.plus.bottom, -p.minus.bottom, atol=1e-12)
        assert abs(np.linalg.norm(p.plus.top) - 1 / np.sqrt(2)) < 1e-12
        assert abs(np.linalg.norm(p.plus.bottom) - 1 / np.sqrt(2)) < 1e-12


def test_eigenstructure_forms_orthonormal_basis():
    rng = generate.rng_for(203)
    s = np.array([1.2, 0.5, 0.0])
    a = generate.matrix_with_singular_values(s, 5, 3, rng)
    pairs, kernel = embedding.eigenstructure(embedding.embed(a))
    cols = []
    for p in pairs:
        cols.append(p.plus.to_vector())
        cols.append(p.minus.to_vector())
    cols.extend(k.to_vector() for k in kernel)
    basis = np.column_stack(cols)
    assert basis.shape == (8, 8)
    np.testing.assert_allclose(basis.conj().T @ basis, np.eye(8), atol=1e-10)


def test_kernel_split_by_side():
    # kernel dim is |m - n| + 2z; each kernel vector lives in one block
    rng = generate.rng_for(204)
    s = np.array([1.0, 0.0])
    a = generate.matrix_with_singular_values(s, 4, 2, rng)
    pairs, kernel = embedding.eigenstructure(embedding.embed(a))
    assert len(pairs) == 1
    assert len(kernel) == 4
    sides = set()
    for kv in kernel:
        top_w = float(np.linalg.norm(kv.top))
        bot_w = float(np.linalg.norm(kv.bottom))
        assert min(top_w, bot_w) < 1e-10
        sides.add("right" if top_w > 0.5 else "left")
    assert sides == {"right", "left"}


def test_zero_matrix_all_kernel():
    a = np.zeros((2, 3), dtype=complex)
    pairs, kernel = embedding.eigenstructure(embedding.embed(a))
    assert pairs == []
    assert len(kernel) == 5


def test_embed_rejects_bad_shapes():
    with pytest.raises(ValueError):
        embedding.embed(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        DilationVector.from_vector(np.zeros(3), 5)
