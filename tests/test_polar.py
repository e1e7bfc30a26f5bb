from __future__ import annotations

import numpy as np
import pytest

from polarsim import embedding, generate, linalg, polar
from polarsim.embedding import DilationVector
from polarsim.polar import ParityExtension
from polarsim.spectral import QPEConfig


def _block_action(u: np.ndarray, psi: np.ndarray, split: int) -> np.ndarray:
    # oracle: swap blocks through U, identity on kernel and cokernel
    top, bottom = psi[:split], psi[split:]
    n, m = u.shape[1], u.shape[0]
    return np.concatenate(
        [
            u.conj().T @ bottom + (np.eye(n) - u.conj().T @ u) @ top,
            u @ top + (np.eye(m) - u @ u.conj().T) @ bottom,
        ]
    )


def _state(n: int, m: int, rng: np.random.Generator) -> DilationVector:
    return DilationVector.from_vector(generate.random_state(n + m, rng), n)


def test_parity_extension():
    ext = ParityExtension(base=lambda x: x + 1.0, parity="odd")
    x = np.array([-2.0, -1e-14, 0.0, 3.0])
    np.testing.assert_allclose(ext.extend(x), np.array([-3.0, 0.0, 0.0, 4.0]))
    even = ParityExtension(base=lambda x: x + 1.0, parity="even")
    np.testing.assert_allclose(even.extend(x), np.array([3.0, 1.0, 1.0, 4.0]))
    with pytest.raises(ValueError):
        ParityExtension(base=lambda x: x, parity="both")


def test_exact_isometry_matches_block_oracle():
    rng = generate.rng_for(401)
    for _ in range(30):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = generate.random_complex_matrix(m, n, rng)
        psi = _state(n, m, rng)
        res = polar.apply_polar_isometry(a, psi, mode="exact")
        u = linalg.classical_polar(a).isometry
        np.testing.assert_allclose(
            res.output.to_vector(), _block_action(u, psi.to_vector(), n), atol=1e-10
        )
        assert res.flagged is None


def test_isometry_handles_scaling_and_rank_deficiency():
    rng = generate.rng_for(402)
    for scale in (1e-3, 1.0, 50.0):
        s = np.array([1.4, 0.6, 0.0]) * scale
        a = generate.matrix_with_singular_values(s, 5, 3, rng)
        psi = _state(3, 5, rng)
        res = polar.apply_polar_isometry(a, psi, mode="exact")
        u = linalg.classical_polar(a).isometry
        np.testing.assert_allclose(
            res.output.to_vector(), _block_action(u, psi.to_vector(), 3), atol=1e-9
        )


def test_kernel_components_pass_through():
    # A e_3 = 0: a top-block kernel state is returned unchanged
    a = np.diag([1.0, 0.5, 0.0]).astype(complex)
    psi = embedding.inject_right(np.array([0.0, 0.0, 1.0], dtype=complex), 3)
    res = polar.apply_polar_isometry(a, psi, mode="exact")
    np.testing.assert_allclose(res.output.to_vector(), psi.to_vector(), atol=1e-12)


def test_flag_split_conserves_weight():
    rng = generate.rng_for(403)
    a = np.diag([1.0, 0.3, 0.05]).astype(complex)
    psi = _state(3, 3, rng)
    res = polar.apply_polar_isometry(a, psi, mode="exact", kappa_tilde=5.0)
    kept_w = float(np.linalg.norm(res.output.to_vector()) ** 2)
    flag_w = float(np.linalg.norm(res.flagged.to_vector()) ** 2)
    assert kept_w + flag_w == pytest.approx(1.0, abs=1e-12)
    assert res.diagnostics.flag_probability == pytest.approx(flag_w, abs=1e-12)
    # the flagged branch is exactly the ill component, untouched
    ill = np.zeros(6, dtype=complex)
    ill[2] = psi.to_vector()[2]
    ill[5] = psi.to_vector()[5]
    np.testing.assert_allclose(res.flagged.to_vector(), ill, atol=1e-12)


def test_wellconditioned_validates_kappa():
    a = np.eye(2, dtype=complex)
    psi = embedding.inject_right(np.array([1.0, 0.0], dtype=complex), 2)
    for kt in (0.5, 1.0, float("nan")):
        with pytest.raises(ValueError, match="condition number"):
            polar.apply_polar_isometry(a, psi, kappa_tilde=kt)


def test_qpe_equals_exact_on_dyadic_spectra():
    rng = generate.rng_for(404)
    for bits in (4, 6):
        a = generate.dyadic_singular_matrix(bits, 4, 4, rng)
        psi = _state(4, 4, rng)
        exact = polar.apply_polar_isometry(a, psi, mode="exact")
        sim = polar.apply_polar_isometry(
            a, psi, mode="qpe", config=QPEConfig(bits=bits)
        )
        np.testing.assert_allclose(
            sim.output.to_vector(), exact.output.to_vector(), atol=1e-9
        )
        assert sim.diagnostics.leakage_norm < 1e-10


def test_qpe_flag_matches_exact_on_grid():
    rng = generate.rng_for(405)
    a = np.diag([1.0, 0.5, 0.125]).astype(complex)
    psi = _state(3, 3, rng)
    kt = 3.0
    exact = polar.apply_polar_isometry(a, psi, mode="exact", kappa_tilde=kt)
    sim = polar.apply_polar_isometry(
        a, psi, mode="qpe", config=QPEConfig(bits=6), kappa_tilde=kt
    )
    np.testing.assert_allclose(
        sim.output.to_vector(), exact.output.to_vector(), atol=1e-9
    )
    np.testing.assert_allclose(
        sim.flagged.to_vector(), exact.flagged.to_vector(), atol=1e-9
    )
    assert sim.diagnostics.flag_probability == pytest.approx(
        exact.diagnostics.flag_probability, abs=1e-10
    )


def test_positive_evolution_norm_and_composition():
    rng = generate.rng_for(407)
    a = generate.random_complex_matrix(4, 3, rng)
    psi = _state(3, 4, rng)
    r1 = polar.evolve_positive_factor(a, 0.6, psi, mode="exact")
    assert r1.output.norm == pytest.approx(1.0, abs=1e-12)
    r2 = polar.evolve_positive_factor(a, 0.9, r1.output, mode="exact")
    direct = polar.evolve_positive_factor(a, 1.5, psi, mode="exact")
    np.testing.assert_allclose(
        r2.output.to_vector(), direct.output.to_vector(), atol=1e-10
    )
    r0 = polar.evolve_positive_factor(a, 0.0, psi, mode="exact")
    np.testing.assert_allclose(r0.output.to_vector(), psi.to_vector(), atol=1e-12)


def test_generalized_odd_identity_is_plain_evolution():
    rng = generate.rng_for(408)
    a = generate.random_complex_matrix(3, 3, rng)
    psi = _state(3, 3, rng)
    ext = ParityExtension(base=lambda x: x, parity="odd")
    res = polar.evolve_generalized(a, ext, 1.1, psi, mode="exact")
    h = embedding.embed(a).to_matrix()
    expected = linalg.matrix_exp_hermitian(h, 1.1) @ psi.to_vector()
    np.testing.assert_allclose(res.output.to_vector(), expected, atol=1e-10)


def test_generalized_even_acts_blockwise():
    # even extension applies f to the positive factors on each block
    rng = generate.rng_for(409)
    s = np.array([1.3, 0.4, 0.0])
    a = generate.matrix_with_singular_values(s, 4, 3, rng)
    psi = _state(3, 4, rng)
    base = lambda x: np.cos(x) + x  # noqa: E731
    ext = ParityExtension(base=base, parity="even")
    t = 0.8
    res = polar.evolve_generalized(a, ext, t, psi, mode="exact")
    factors = linalg.classical_polar(a)

    def blockwise(b: np.ndarray, vec: np.ndarray) -> np.ndarray:
        w, v = linalg.hermitian_eig(b)
        return v @ (np.exp(-1j * base(np.abs(w)) * t) * (v.conj().T @ vec))

    expected = np.concatenate(
        [blockwise(factors.right_positive, psi.top),
         blockwise(factors.left_positive, psi.bottom)]
    )
    np.testing.assert_allclose(res.output.to_vector(), expected, atol=1e-10)


def test_generalized_function_sees_unscaled_spectrum():
    # f is read at the true singular values despite the internal rescale
    rng = generate.rng_for(410)
    a = generate.random_complex_matrix(3, 3, rng)
    psi = _state(3, 3, rng)
    ext = ParityExtension(base=lambda x: np.minimum(x, 0.7), parity="odd")

    def oracle(mat: np.ndarray) -> np.ndarray:
        h = embedding.embed(mat).to_matrix()
        w, v = linalg.hermitian_eig(h)
        return v @ (np.exp(-1j * ext.extend(w)) * (v.conj().T @ psi.to_vector()))

    for scale in (0.5, 1.0, 40.0):
        res = polar.evolve_generalized(scale * a, ext, 1.0, psi, mode="exact")
        np.testing.assert_allclose(
            res.output.to_vector(), oracle(scale * a), atol=1e-10
        )


def test_mode_validation():
    a = np.eye(2, dtype=complex)
    psi = embedding.inject_right(np.array([1.0, 0.0], dtype=complex), 2)
    with pytest.raises(ValueError, match="mode"):
        polar.apply_polar_isometry(a, psi, mode="fast")
    with pytest.raises(ValueError, match="mode"):
        polar.evolve_positive_factor(a, 1.0, psi, mode="")


def test_zero_matrix_is_identity_action():
    a = np.zeros((2, 3), dtype=complex)
    psi = DilationVector.from_vector(generate.random_state(5, generate.rng_for(411)), 3)
    res = polar.apply_polar_isometry(a, psi, mode="exact")
    np.testing.assert_allclose(res.output.to_vector(), psi.to_vector(), atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "qpe"])
def test_block_equals_single_state_calls(mode):
    # a (n+m, k) block through one call equals k single-state calls
    rng = generate.rng_for(412)
    a = generate.matrix_with_singular_values(np.array([1.0, 0.5, 0.2]), 4, 3, rng)
    block = np.column_stack([generate.random_state(7, rng) for _ in range(4)])
    config = QPEConfig(bits=5)
    calls = (
        lambda psi: polar.apply_polar_isometry(a, psi, mode, config),
        lambda psi: polar.apply_polar_isometry(a, psi, mode, config, kappa_tilde=3.0),
        lambda psi: polar.evolve_positive_factor(a, 0.7, psi, mode, config),
    )
    for call in calls:
        whole = call(DilationVector.from_vector(block, 3))
        singles = [call(DilationVector.from_vector(block[:, j], 3)) for j in range(4)]
        for j, single in enumerate(singles):
            np.testing.assert_allclose(
                whole.output.to_vector()[:, j], single.output.to_vector(), atol=1e-12
            )
            if single.flagged is not None:
                np.testing.assert_allclose(
                    whole.flagged.to_vector()[:, j],
                    single.flagged.to_vector(),
                    atol=1e-12,
                )
        diags = [single.diagnostics for single in singles]
        assert whole.diagnostics.fidelity_vs_exact == pytest.approx(
            min(d.fidelity_vs_exact for d in diags), abs=1e-12
        )
        assert whole.diagnostics.leakage_norm == pytest.approx(
            max(d.leakage_norm for d in diags), abs=1e-12
        )
        assert whole.diagnostics.flag_probability == pytest.approx(
            sum(d.flag_probability for d in diags), abs=1e-12
        )



def _sign_property(check, mode: str, kappa_tilde: float | None) -> None:
    # one random instance per example: a rectangular, possibly rank-deficient
    # A and a dilation state, through the one sign entry point
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-3, 300.0))
    def run(seed, c):
        rng = generate.rng_for(seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        rank = int(rng.integers(1, min(m, n) + 1))
        a = generate.random_complex_matrix(m, rank, rng) @ generate.random_complex_matrix(
            rank, n, rng
        )
        psi = generate.random_state(n + m, rng)

        def sign(mat: np.ndarray, vec: np.ndarray, split: int) -> np.ndarray:
            res = polar.apply_polar_isometry(
                mat,
                DilationVector.from_vector(vec, split),
                mode=mode,
                config=QPEConfig(bits=6),
                kappa_tilde=kappa_tilde,
            )
            parts = [res.output.to_vector()]
            if res.flagged is not None:
                parts.append(res.flagged.to_vector())
            return np.concatenate(parts)

        check(sign, a, psi, n, c)

    run()


_SIGN_CASES = pytest.mark.parametrize(
    "mode, kappa_tilde",
    [("exact", None), ("exact", 3.0), ("qpe", None), ("qpe", 3.0)],
)


@_SIGN_CASES
def test_sign_transform_is_scale_invariant(mode, kappa_tilde):
    # A -> cA leaves the isometry, the flag split and the pointer route alone
    def check(sign, a, psi, n, c):
        np.testing.assert_allclose(sign(c * a, psi, n), sign(a, psi, n), atol=1e-12)

    _sign_property(check, mode, kappa_tilde)


@_SIGN_CASES
def test_sign_transform_adjoint_swaps_blocks(mode, kappa_tilde):
    # the dilation of A^dag is the dilation of A with its blocks swapped, so
    # the swapped state comes out as the swapped output, flag branch included
    def check(sign, a, psi, n, c):
        d = psi.size
        swap = np.concatenate([np.arange(n, d), np.arange(n)])
        direct = sign(a, psi, n).reshape(-1, d)
        dual = sign(a.conj().T, psi[swap], d - n).reshape(-1, d)
        np.testing.assert_allclose(dual, direct[:, swap], atol=1e-12)

    _sign_property(check, mode, kappa_tilde)
