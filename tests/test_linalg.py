from __future__ import annotations

import numpy as np
import pytest

from polarsim import generate, linalg


def test_svd_reconstructs_and_orders():
    rng = generate.rng_for(101)
    for _ in range(40):
        m, n = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        a = generate.random_complex_matrix(m, n, rng)
        res = linalg.svd(a)
        k = res.singular_values.size
        assert k == min(m, n)
        np.testing.assert_allclose(res.reconstruct(), a, atol=1e-12)
        assert np.all(np.diff(res.singular_values) <= 0)
        assert np.all(res.singular_values >= 0)
        np.testing.assert_allclose(
            res.left_vectors.conj().T @ res.left_vectors, np.eye(k), atol=1e-12
        )
        np.testing.assert_allclose(
            res.right_vectors.conj().T @ res.right_vectors, np.eye(k), atol=1e-12
        )


def test_svd_phase_convention_and_determinism():
    rng = generate.rng_for(102)
    for _ in range(25):
        a = generate.random_complex_matrix(5, 4, rng)
        res = linalg.svd(a)
        for j in range(res.singular_values.size):
            col = res.right_vectors[:, j]
            lead = col[int(np.argmax(np.abs(col)))]
            assert abs(lead.imag) < 1e-12
            assert lead.real > 0
        again = linalg.svd(a.copy())
        assert np.array_equal(res.left_vectors, again.left_vectors)
        assert np.array_equal(res.right_vectors, again.right_vectors)


def test_svd_follower_inherits_phase():
    # rotating A by a global phase rotates only the left vectors
    rng = generate.rng_for(103)
    a = generate.random_complex_matrix(4, 4, rng)
    res = linalg.svd(a)
    rot = linalg.svd(np.exp(1j * 0.7) * a)
    np.testing.assert_allclose(rot.right_vectors, res.right_vectors, atol=1e-12)
    np.testing.assert_allclose(
        rot.left_vectors, np.exp(1j * 0.7) * res.left_vectors, atol=1e-12
    )


def test_rank_cutoff_scales_with_largest():
    s = np.array([10.0, 1.0, 1e-13])
    cut = linalg.rank_cutoff(s)
    assert 1e-13 < cut < 1.0
    assert linalg.rank_cutoff(np.zeros(3)) == 0.0
    assert linalg.rank_cutoff(np.array([])) == 0.0


def test_classical_polar_identities():
    rng = generate.rng_for(104)
    for _ in range(40):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        a = generate.random_complex_matrix(m, n, rng)
        f = linalg.classical_polar(a)
        np.testing.assert_allclose(f.isometry @ f.right_positive, a, atol=1e-11)
        np.testing.assert_allclose(f.left_positive @ f.isometry, a, atol=1e-11)
        assert linalg.is_positive_semidefinite(f.right_positive)
        assert linalg.is_positive_semidefinite(f.left_positive)
        if m == n:
            np.testing.assert_allclose(f.isometry.conj().T @ f.isometry, np.eye(n), atol=1e-10)
        k = min(m, n)
        # partial isometry: U^dag U is the projector onto the co-kernel
        gram = f.isometry.conj().T @ f.isometry
        w = np.linalg.eigvalsh(gram)
        assert np.all((np.abs(w) < 1e-10) | (np.abs(w - 1) < 1e-10))
        assert int(np.sum(w > 0.5)) == k


def test_classical_polar_rank_deficient():
    rng = generate.rng_for(105)
    s = np.array([1.5, 0.7, 0.0])
    a = generate.matrix_with_singular_values(s, 4, 3, rng)
    f = linalg.classical_polar(a)
    np.testing.assert_allclose(f.isometry @ f.right_positive, a, atol=1e-11)
    gram = f.isometry.conj().T @ f.isometry
    assert int(round(float(np.trace(gram).real))) == 2


def test_hermitian_eig_contract():
    rng = generate.rng_for(106)
    h = generate.random_hermitian(6, rng)
    w, v = linalg.hermitian_eig(h)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, h, atol=1e-11)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eig(h + 1e-3 * 1j * np.eye(6))
    # near the float limit ||h||_F overflows, and the relative check must
    # still see the asymmetry; a Hermitian matrix of that size is factored
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.hermitian_eig(np.array([[1e308, 1e308], [0.0, 1e308]]))
    w, v = linalg.hermitian_eig(np.array([[1e308, 1e308], [1e308, -1e308]]))
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(v))


def test_matrix_exp_hermitian():
    rng = generate.rng_for(107)
    h = generate.random_hermitian(5, rng)
    u = linalg.matrix_exp_hermitian(h, 0.8)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(len(u)), atol=1e-10)
    np.testing.assert_allclose(
        linalg.matrix_exp_hermitian(h, 0.0), np.eye(5), atol=1e-14
    )
    # additivity in t and inverse at -t
    np.testing.assert_allclose(
        u @ linalg.matrix_exp_hermitian(h, 0.4),
        linalg.matrix_exp_hermitian(h, 1.2),
        atol=1e-12,
    )
    np.testing.assert_allclose(
        u @ linalg.matrix_exp_hermitian(h, -0.8), np.eye(5), atol=1e-12
    )
    # generator check: d/dt at 0 is -iH
    eps = 1e-6
    deriv = (linalg.matrix_exp_hermitian(h, eps) - np.eye(5)) / eps
    np.testing.assert_allclose(deriv, -1j * h, atol=1e-5)


def test_hermitian_abs_is_spectral_abs():
    rng = generate.rng_for(108)
    h = generate.random_hermitian(6, rng)
    pos = linalg.hermitian_abs(h)
    assert linalg.is_positive_semidefinite(pos)
    assert linalg.is_hermitian(pos)
    # |H| squares back to H^2 and dominates H
    np.testing.assert_allclose(pos @ pos, h @ h, atol=1e-10)
    assert linalg.is_positive_semidefinite(pos - h)
    assert linalg.is_positive_semidefinite(pos + h)
    # independent route through the square
    w2, v2 = np.linalg.eigh(h @ h.conj().T)
    expected = (v2 * np.sqrt(np.clip(w2, 0.0, None))) @ v2.conj().T
    np.testing.assert_allclose(pos, expected, atol=1e-10)


def test_predicates():
    rng = generate.rng_for(109)
    u = generate.random_unitary(4, rng)
    assert linalg.is_hermitian(u + u.conj().T)
    assert not linalg.is_hermitian(1j * np.eye(2) + np.ones((2, 2)))
    assert linalg.is_positive_semidefinite(u @ u.conj().T)
    assert not linalg.is_positive_semidefinite(-np.eye(2))
    # a PSD test is a Hermitian test first
    assert not linalg.is_positive_semidefinite(np.array([[1.0, 1.0], [0.0, 1.0]]))


def _fix_column_phases_loop(primary, follower=None):
    """Column-by-column reference for the vectorized phase fix."""
    primary = primary.copy()
    follower = None if follower is None else follower.copy()
    for j in range(primary.shape[1]):
        col = primary[:, j]
        z = col[int(np.argmax(np.abs(col)))]
        if z == 0:
            continue
        factor = np.conj(z) / abs(z)
        primary[:, j] = col * factor
        if follower is not None:
            follower[:, j] = follower[:, j] * factor
    return primary, follower


def test_fix_column_phases_matches_the_loop_bit_for_bit():
    rng = generate.rng_for(151)
    for _ in range(200):
        m, k = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        primary = generate.random_complex_matrix(m, k, rng)
        follower = generate.random_complex_matrix(int(rng.integers(1, 8)), k, rng)
        primary[:, int(rng.integers(k))] = 0.0  # a zero column is left alone
        if m > 1:
            # a magnitude tie: the lower index wins
            primary[1, 0] = 1j * primary[0, 0]
        got, got_follower = linalg._fix_column_phases(primary, follower)
        want, want_follower = _fix_column_phases_loop(primary, follower)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_follower, want_follower)
        np.testing.assert_array_equal(
            linalg._fix_column_phases(primary)[0], _fix_column_phases_loop(primary)[0]
        )
    tied = np.array([[1j, 0.0], [-1.0, 0.0]])
    fixed, _ = linalg._fix_column_phases(tied)
    np.testing.assert_array_equal(fixed, np.array([[1.0, 0.0], [1j, 0.0]]))


@pytest.mark.parametrize(
    "entry",
    [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, np.inf), complex(0.0, np.nan)],
    ids=["nan", "inf", "imaginary-inf", "imaginary-nan"],
)
def test_non_finite_entries_are_refused(entry):
    # one finiteness pass over the complex entries covers both parts
    a = np.eye(2, dtype=complex)
    a[0, 1] = a[1, 0] = entry
    for call in (linalg.svd, linalg.hermitian_eig, linalg.is_hermitian):
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            call(a)
