from __future__ import annotations

import numpy as np
import pytest

from polarsim import embedding, generate, linalg, polar, verify
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


def test_exact_isometry_matches_block_oracle():
    rng = generate.rng_for(401)
    for _ in range(30):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        a = generate.random_complex_matrix(m, n, rng)
        psi = generate.random_state(n + m, rng)
        kept, flagged, _ = polar.apply_polar_isometry(polar.dilation(a), psi)
        u = linalg.classical_polar(a).isometry
        np.testing.assert_allclose(kept, _block_action(u, psi, n), atol=1e-10)
        np.testing.assert_array_equal(flagged, np.zeros_like(psi))


def test_isometry_handles_scaling_and_rank_deficiency():
    rng = generate.rng_for(402)
    for scale in (1e-3, 1.0, 50.0):
        s = np.array([1.4, 0.6, 0.0]) * scale
        a = generate.matrix_with_singular_values(s, 5, 3, rng)
        psi = generate.random_state(8, rng)
        kept, _, _ = polar.apply_polar_isometry(polar.dilation(a), psi)
        u = linalg.classical_polar(a).isometry
        np.testing.assert_allclose(kept, _block_action(u, psi, 3), atol=1e-9)


def test_kernel_components_pass_through():
    # A e_3 = 0: a top-block kernel state is returned unchanged
    a = np.diag([1.0, 0.5, 0.0]).astype(complex)
    psi = embedding.inject_right(np.array([0.0, 0.0, 1.0], dtype=complex), 3)
    kept, _, _ = polar.apply_polar_isometry(polar.dilation(a), psi)
    np.testing.assert_allclose(kept, psi, atol=1e-12)


def test_flag_split_conserves_weight():
    rng = generate.rng_for(403)
    a = np.diag([1.0, 0.3, 0.05]).astype(complex)
    psi = generate.random_state(6, rng)
    kept, flagged, diag = polar.apply_polar_isometry(polar.dilation(a), psi, kappa_tilde=5.0)
    kept_w = float(np.linalg.norm(kept) ** 2)
    flag_w = float(np.linalg.norm(flagged) ** 2)
    assert kept_w + flag_w == pytest.approx(1.0, abs=1e-12)
    assert diag.flag_probability == pytest.approx(flag_w, abs=1e-12)
    # the flagged branch is exactly the ill component, untouched
    ill = np.zeros(6, dtype=complex)
    ill[2] = psi[2]
    ill[5] = psi[5]
    np.testing.assert_allclose(flagged, ill, atol=1e-12)


def test_wellconditioned_validates_kappa():
    a = np.eye(2, dtype=complex)
    psi = embedding.inject_right(np.array([1.0, 0.0], dtype=complex), 2)
    for kt in (0.5, 1.0, float("nan")):
        with pytest.raises(ValueError, match="condition number"):
            polar.apply_polar_isometry(polar.dilation(a), psi, kappa_tilde=kt)


def test_qpe_equals_exact_on_dyadic_spectra():
    rng = generate.rng_for(404)
    for bits in (4, 6):
        a = generate.dyadic_singular_matrix(bits, 4, 4, rng)
        psi = generate.random_state(8, rng)
        dil = polar.dilation(a)
        exact, _, _ = polar.apply_polar_isometry(dil, psi)
        sim, _, diag = polar.apply_polar_isometry(dil, psi, QPEConfig(bits=bits))
        np.testing.assert_allclose(sim, exact, atol=1e-9)
        assert diag.leakage_norm < 1e-10


def test_qpe_flag_matches_exact_on_grid():
    rng = generate.rng_for(405)
    a = np.diag([1.0, 0.5, 0.125]).astype(complex)
    psi = generate.random_state(6, rng)
    kt = 3.0
    dil = polar.dilation(a)
    exact_kept, exact_flagged, exact_diag = polar.apply_polar_isometry(dil, psi, kappa_tilde=kt)
    kept, flagged, diag = polar.apply_polar_isometry(dil, psi, QPEConfig(bits=6), kappa_tilde=kt)
    np.testing.assert_allclose(kept, exact_kept, atol=1e-9)
    np.testing.assert_allclose(flagged, exact_flagged, atol=1e-9)
    assert diag.flag_probability == pytest.approx(exact_diag.flag_probability, abs=1e-10)


def test_positive_evolution_norm_and_composition():
    rng = generate.rng_for(407)
    a = generate.random_complex_matrix(4, 3, rng)
    psi = generate.random_state(7, rng)
    dil = polar.dilation(a)
    r1, _, _ = polar.evolve(dil, np.abs, 0.6, psi)
    assert np.linalg.norm(r1) == pytest.approx(1.0, abs=1e-12)
    r2, _, _ = polar.evolve(dil, np.abs, 0.9, r1)
    direct, _, _ = polar.evolve(dil, np.abs, 1.5, psi)
    np.testing.assert_allclose(r2, direct, atol=1e-10)
    r0, _, _ = polar.evolve(dil, np.abs, 0.0, psi)
    np.testing.assert_allclose(r0, psi, atol=1e-12)


def test_generalized_odd_identity_is_plain_evolution():
    rng = generate.rng_for(408)
    a = generate.random_complex_matrix(3, 3, rng)
    psi = generate.random_state(6, rng)
    kept, _, _ = polar.evolve(polar.dilation(a), lambda x: x, 1.1, psi)
    h = embedding.embed(a)
    expected = linalg.matrix_exp_hermitian(h, 1.1) @ psi
    np.testing.assert_allclose(kept, expected, atol=1e-10)


def test_generalized_even_acts_blockwise():
    # even extension applies f to the positive factors on each block
    rng = generate.rng_for(409)
    s = np.array([1.3, 0.4, 0.0])
    a = generate.matrix_with_singular_values(s, 4, 3, rng)
    psi = generate.random_state(7, rng)
    base = lambda x: np.cos(x) + x  # noqa: E731
    t = 0.8
    kept, _, _ = polar.evolve(polar.dilation(a), lambda x: base(np.abs(x)), t, psi)
    factors = linalg.classical_polar(a)

    def blockwise(b: np.ndarray, vec: np.ndarray) -> np.ndarray:
        w, v = linalg.hermitian_eig(b)
        return v @ (np.exp(-1j * base(np.abs(w)) * t) * (v.conj().T @ vec))

    expected = np.concatenate(
        [blockwise(factors.right_positive, psi[:3]),
         blockwise(factors.left_positive, psi[3:])]
    )
    np.testing.assert_allclose(kept, expected, atol=1e-10)


def test_generalized_function_sees_unscaled_spectrum():
    # g is read at the true eigenvalues despite the internal rescale, and the
    # zero band acts on the rescaled spectrum: a tiny A is not zeroed
    rng = generate.rng_for(410)
    a = generate.random_complex_matrix(3, 3, rng)
    psi = generate.random_state(6, rng)

    def g(x: np.ndarray) -> np.ndarray:
        return np.sign(x) * np.minimum(np.abs(x), 0.7)

    def oracle(mat: np.ndarray, t: float) -> np.ndarray:
        h = embedding.embed(mat)
        w, v = linalg.hermitian_eig(h)
        return v @ (np.exp(-1j * g(w) * t) * (v.conj().T @ psi))

    for scale, t in ((0.5, 1.0), (1.0, 1.0), (40.0, 1.0), (1e-13, 1e13)):
        kept, _, _ = polar.evolve(polar.dilation(scale * a), g, t, psi)
        np.testing.assert_allclose(kept, oracle(scale * a, t), atol=1e-10)


def test_zero_matrix_is_identity_action():
    a = np.zeros((2, 3), dtype=complex)
    psi = generate.random_state(5, generate.rng_for(411))
    kept, _, _ = polar.apply_polar_isometry(polar.dilation(a), psi)
    np.testing.assert_allclose(kept, psi, atol=1e-12)


@pytest.mark.parametrize("mode", ["exact", "qpe"])
def test_block_equals_single_state_calls(mode):
    # a (n+m, k) block through one call equals k single-state calls
    rng = generate.rng_for(412)
    a = generate.matrix_with_singular_values(np.array([1.0, 0.5, 0.2]), 4, 3, rng)
    block = np.column_stack([generate.random_state(7, rng) for _ in range(4)])
    config = QPEConfig(bits=5) if mode == "qpe" else None
    dil = polar.dilation(a)
    calls = (
        lambda psi: polar.apply_polar_isometry(dil, psi, config),
        lambda psi: polar.apply_polar_isometry(dil, psi, config, kappa_tilde=3.0),
        lambda psi: polar.evolve(dil, np.abs, 0.7, psi, config),
    )
    for call in calls:
        kept, flagged, diag = call(block)
        singles = [call(block[:, j]) for j in range(4)]
        for j, (single_kept, single_flagged, _) in enumerate(singles):
            np.testing.assert_allclose(kept[:, j], single_kept, atol=1e-12)
            np.testing.assert_allclose(flagged[:, j], single_flagged, atol=1e-12)
        diags = [single[2] for single in singles]
        assert diag.leakage_norm == pytest.approx(
            max(d.leakage_norm for d in diags), abs=1e-12
        )
        assert diag.flag_probability == pytest.approx(
            sum(d.flag_probability for d in diags), abs=1e-12
        )



def _route_property(check, function: str, mode: str, kappa_tilde: float | None) -> None:
    # one random instance per example: a rectangular A, either possibly rank
    # deficient or with repeated singular values, a dilation state and a time,
    # through verify.graded_run, the one entry point of every route in the table
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    config = QPEConfig(bits=6) if mode == "qpe" else None

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(1e-3, 300.0),
        repeated=st.booleans(),
        t=st.floats(0.1, 3.0),
    )
    def run(seed, c, repeated, t):
        rng = generate.rng_for(seed)
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        if repeated:
            # every value twice; all ratios stay clear of 1/kappa_tilde = 1/3
            s = np.repeat(rng.choice([1.0, 0.5, 0.2], size=min(m, n)), 2)
            a = generate.matrix_with_singular_values(s, m, n, rng)
        else:
            rank = int(rng.integers(1, min(m, n) + 1))
            a = generate.random_complex_matrix(m, rank, rng) @ generate.random_complex_matrix(
                rank, n, rng
            )
        psi = generate.random_state(n + m, rng)

        def route(mat: np.ndarray, vec: np.ndarray, time: float) -> np.ndarray:
            graded = verify.graded_run(
                function, polar.dilation(mat), linalg.svd(mat), vec, config, time, kappa_tilde
            )
            return np.concatenate([graded.kept, graded.flagged])

        check(route, a, psi, n, c, t, rng)

    run()


def _scale_invariant(route, a, psi, n, c, t, rng):
    # A -> cA leaves the isometry, the flag split and the pointer route alone;
    # an evolution of cA for time t/c is the evolution of A for time t
    np.testing.assert_allclose(route(c * a, psi, t / c), route(a, psi, t), atol=1e-12)


def _adjoint_swaps_blocks(route, a, psi, n, c, t, rng):
    # the dilation of A^dag is the dilation of A with its blocks swapped, so
    # the swapped state comes out as the swapped output, flag branch included
    d = psi.size
    swap = np.concatenate([np.arange(n, d), np.arange(n)])
    direct = route(a, psi, t).reshape(-1, d)
    dual = route(a.conj().T, psi[swap], t).reshape(-1, d)
    np.testing.assert_allclose(dual, direct[:, swap], atol=1e-12)


def _unitarily_equivariant(route, a, psi, n, c, t, rng):
    # A -> W A V^dag rotates the dilation by V (+) W: the rotated input
    # (V psi_top, W psi_bottom) comes out as the rotated output, flag branch
    # included; with repeated singular values only the spectral projectors count
    m, d = a.shape[0], psi.size
    v, w = generate.random_unitary(n, rng), generate.random_unitary(m, rng)
    rotate = np.zeros((d, d), dtype=complex)
    rotate[:n, :n], rotate[n:, n:] = v, w
    direct = route(a, psi, t).reshape(-1, d)
    rotated = route(w @ a @ v.conj().T, rotate @ psi, t).reshape(-1, d)
    np.testing.assert_allclose(rotated, direct @ rotate.T, atol=1e-12)


_SIGN_CASES = pytest.mark.parametrize(
    "mode, kappa_tilde",
    [("exact", None), ("exact", 3.0), ("qpe", None), ("qpe", 3.0)],
)
# every other function of the table, in both modes
_EVOLUTION_CASES = pytest.mark.parametrize(
    "function, mode", [(f, mode) for f in verify.EVOLUTIONS for mode in ("exact", "qpe")]
)


def test_property_cases_cover_the_table():
    # a row of FUNCTIONS that is neither sign nor an evolution needs its own cases
    assert verify.FUNCTIONS == ("sign", *verify.EVOLUTIONS)


@_SIGN_CASES
def test_sign_transform_is_scale_invariant(mode, kappa_tilde):
    _route_property(_scale_invariant, "sign", mode, kappa_tilde)


@_SIGN_CASES
def test_sign_transform_adjoint_swaps_blocks(mode, kappa_tilde):
    _route_property(_adjoint_swaps_blocks, "sign", mode, kappa_tilde)


@_SIGN_CASES
def test_sign_transform_is_unitarily_equivariant(mode, kappa_tilde):
    _route_property(_unitarily_equivariant, "sign", mode, kappa_tilde)


@_EVOLUTION_CASES
def test_evolution_is_scale_invariant_at_scaled_time(function, mode):
    _route_property(_scale_invariant, function, mode, None)


@_EVOLUTION_CASES
def test_evolution_adjoint_swaps_blocks(function, mode):
    _route_property(_adjoint_swaps_blocks, function, mode, None)


@_EVOLUTION_CASES
def test_evolution_is_unitarily_equivariant(function, mode):
    _route_property(_unitarily_equivariant, function, mode, None)


@pytest.mark.parametrize("kappa_tilde", [2.0, 3.0, 4.0])
def test_sign_transform_keeps_a_singular_value_at_the_threshold(kappa_tilde):
    # sigma exactly at sigma_max/kappa_tilde, once or repeated, next to
    # singular values well above and below it: eigh of the dilation and the
    # SVD of the oracle round it differently, and both must keep it
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(seed=st.integers(0, 2**32 - 1), c=st.floats(1e-3, 300.0))
    def run(seed, c):
        rng = generate.rng_for(seed)
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        levels = [1.0, 1.0 / kappa_tilde, 0.5 / kappa_tilde]
        s = np.concatenate([levels[:2], rng.choice(levels, size=min(m, n) - 2)])
        a = generate.matrix_with_singular_values(c * np.sort(s)[::-1], m, n, rng)
        psi = generate.random_state(n + m, rng)
        graded = verify.graded_run(
            "sign", polar.dilation(a), linalg.svd(a), psi, kappa_tilde=kappa_tilde
        )
        np.testing.assert_allclose(graded.kept, graded.expected, atol=1e-12)
        np.testing.assert_allclose(graded.flagged, graded.expected_flagged, atol=1e-12)

    run()
