from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from polarsim import generate, linalg, spectral
from polarsim.spectral import QPEConfig, SpectralFunction


def test_decode_is_twos_complement():
    cfg = QPEConfig(bits=3)
    codes = np.arange(8)
    expected = np.array([0.0, 0.5, 1.0, 1.5, -2.0, -1.5, -1.0, -0.5])
    np.testing.assert_allclose(cfg.decode(codes), expected, atol=0)
    np.testing.assert_allclose(np.sort(cfg.grid_values()), np.sort(expected))


def test_qpe_config_validation():
    with pytest.raises(ValueError):
        QPEConfig(bits=0)
    # the flag threshold is a property of the sign function, not of the pointer
    assert [f.name for f in dataclasses.fields(QPEConfig)] == ["bits"]


def test_identity_lands_on_single_code():
    # eigenvalue +1 at 3 bits sits exactly on code 2; -1 on code 6
    cfg = QPEConfig(bits=3)
    psi = np.array([1.0 + 0j])
    for h, code in ((np.eye(1), 2), (-np.eye(1), 6)):
        state = spectral.qpe_correlate(linalg.hermitian_eig(h), psi, cfg)
        weights = np.abs(state.flag0[0]) ** 2
        assert weights[code] == pytest.approx(1.0, abs=1e-12)


def test_correlate_closed_form():
    # one eigencomponent of phase phi leaves the Dirichlet kernel on the codes:
    # amp(c) = (1/N) sum_k e^{2 pi i k (phi - c/N)}
    cfg = QPEConfig(bits=4)
    lam = 0.37
    h = np.array([[lam]], dtype=complex)
    psi = np.array([1.0 + 0j])
    state = spectral.qpe_correlate(linalg.hermitian_eig(h), psi, cfg)
    n = cfg.grid_size
    phi = lam / 4.0
    k = np.arange(n)
    expected = np.array(
        [np.sum(np.exp(2j * np.pi * k * (phi - c / n))) / n for c in range(n)]
    )
    np.testing.assert_allclose(state.flag0[0], expected, atol=1e-12)


def test_correlate_rejects_unbounded_spectrum():
    cfg = QPEConfig(bits=4)
    h = np.diag([0.5, 1.5]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    # the whole spectrum counts, even where psi has no weight
    with pytest.raises(ValueError, match="bound"):
        spectral.qpe_correlate(linalg.hermitian_eig(h), psi, cfg)
    half = linalg.hermitian_eig(0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        spectral.qpe_correlate(half, 2 * psi, cfg)
    with pytest.raises(ValueError, match="normalized"):
        spectral.qpe_correlate(half, np.array([np.nan, 0.0]), cfg)
    # a block is checked column by column
    block = np.column_stack([psi, [np.nan, 0.0]])
    with pytest.raises(ValueError, match="normalized"):
        spectral.exact_flag_branches(half, SpectralFunction.linear(1.0), block)


def test_sign_phase_conventions():
    # phases: pi on negative inputs, 0 elsewhere; the zero band counts as +
    f = SpectralFunction.sign_phase()
    x = np.array([-1.0, -1e-15, 0.0, 1e-15, 2.0])
    np.testing.assert_array_equal(f(x), np.array([np.pi, 0.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(
        np.exp(-1j * f(x)), np.array([-1.0, 1.0, 1.0, 1.0, 1.0]), atol=1e-15
    )
    g = SpectralFunction.sign_phase(kappa_tilde=4.0)
    assert g.flag_threshold == pytest.approx(0.25)
    # NaN compares false both ways, so it must not slip past as "no threshold"
    for bad in (1.0, 0.5, -3.0, float("nan")):
        with pytest.raises(ValueError, match="condition number"):
            SpectralFunction.sign_phase(kappa_tilde=bad)


def test_phase_on_zero_hamiltonian():
    # H = 0 concentrates on code 0; sign(0) = +1 leaves the state untouched
    cfg = QPEConfig(bits=3)
    h = np.zeros((2, 2), dtype=complex)
    psi = np.array([0.6, 0.8], dtype=complex)
    eig = linalg.hermitian_eig(h)
    state = spectral.qpe_correlate(eig, psi, cfg)
    state = spectral.apply_phase_function(state, SpectralFunction.sign_phase(), cfg)
    out, flagged, diag = spectral.qpe_uncompute(state, eig, cfg)
    np.testing.assert_allclose(out, psi, atol=1e-12)
    np.testing.assert_array_equal(flagged, np.zeros(2))
    assert diag.leakage_norm < 1e-14


def test_uncompute_inverts_correlate():
    rng = generate.rng_for(301)
    cfg = QPEConfig(bits=6)
    zero = SpectralFunction.tabulated(lambda x: np.zeros_like(np.asarray(x, float)))
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = generate.random_hermitian(d, rng)
        h = 0.95 * h / float(np.linalg.norm(h, ord=2))
        psi = generate.random_state(d, rng)
        eig = linalg.hermitian_eig(h)
        state = spectral.qpe_correlate(eig, psi, cfg)
        assert state.total_norm == pytest.approx(1.0, abs=1e-12)
        state = spectral.apply_phase_function(state, zero, cfg)
        out, _, diag = spectral.qpe_uncompute(state, eig, cfg)
        np.testing.assert_allclose(out, psi, atol=1e-12)
        assert diag.leakage_norm < 1e-12


def test_representable_spectrum_matches_exact_route():
    rng = generate.rng_for(302)
    cfg = QPEConfig(bits=5)
    # eigenvalues on the 5-bit grid (multiples of 1/8)
    w = np.array([-1.0, -0.5, 0.125, 0.75])
    q = generate.random_unitary(4, rng)
    h = (q * w) @ q.conj().T
    psi = generate.random_state(4, rng)
    eig = linalg.hermitian_eig(h)
    for f in (SpectralFunction.sign_phase(), SpectralFunction.linear(0.9)):
        out, _, diag = spectral.spectral_transform_qpe(eig, f, psi, cfg)
        expected, _ = spectral.exact_flag_branches(eig, f, psi)
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert diag.fidelity_vs_exact == pytest.approx(1.0, abs=1e-12)
        assert diag.leakage_norm < 1e-10


def test_offgrid_eigenvalue_rounding_and_leakage():
    # lone eigenvalue 1/3 at 6 bits decodes to 5/16 = 0.3125; leakage frozen
    cfg = QPEConfig(bits=6)
    h = np.array([[1.0 / 3.0]], dtype=complex)
    psi = np.array([1.0 + 0j])
    out, _, diag = spectral.spectral_transform_qpe(
        linalg.hermitian_eig(h), SpectralFunction.linear(1.0), psi, cfg
    )
    assert diag.rounding_table.shape == (1, 2)
    assert diag.rounding_table[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert diag.rounding_table[0, 1] == pytest.approx(0.3125, abs=1e-15)
    assert diag.leakage_norm == pytest.approx(0.15311462022750771, abs=1e-12)
    # a single eigencomponent only picks up a global phase
    assert diag.fidelity_vs_exact == pytest.approx(1.0, abs=1e-12)


def test_leakage_shrinks_with_bits():
    h = np.array([[1.0 / 3.0]], dtype=complex)
    psi = np.array([1.0 + 0j])
    leaks = []
    for bits in (4, 6, 8, 10):
        _, _, diag = spectral.spectral_transform_qpe(
            linalg.hermitian_eig(h), SpectralFunction.linear(1.0), psi, QPEConfig(bits=bits)
        )
        leaks.append(diag.leakage_norm)
    assert np.all(np.diff(leaks) < 0)


def test_flag_routes_small_codes():
    # on-grid spectrum: sigma = 1 kept, sigma = 1/16 flagged at kappa_tilde = 4
    cfg = QPEConfig(bits=8)
    a = np.diag([1.0, 0.0625]).astype(complex)
    hmat = np.zeros((4, 4), dtype=complex)
    hmat[2:, :2] = a
    hmat[:2, 2:] = a.conj().T
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    eig = linalg.hermitian_eig(hmat)
    state = spectral.qpe_correlate(eig, psi, cfg)
    state = spectral.apply_phase_function(
        state, SpectralFunction.sign_phase(kappa_tilde=4.0), cfg
    )
    # flagged weight: the two eigencomponents with |lambda| = 0.1
    assert state.flag_weight == pytest.approx(0.25 + 0.25, abs=1e-10)
    out, flagged, diag = spectral.qpe_uncompute(state, eig, cfg)
    assert diag.flag_probability == pytest.approx(0.5, abs=1e-10)
    # the flagged branch is carried through untouched (identity action)
    expected_flagged = np.array([0.0, 0.5, 0.0, 0.5], dtype=complex)
    np.testing.assert_allclose(flagged, expected_flagged, atol=1e-10)


def test_unitary_route_matches_matrix_route():
    rng = generate.rng_for(303)
    cfg = QPEConfig(bits=5)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        h = generate.random_hermitian(d, rng)
        h = 0.9 * h / float(np.linalg.norm(h, ord=2))
        psi = generate.random_state(d, rng)
        walk = linalg.matrix_exp_hermitian(h, -2.0 * np.pi / 4.0)
        f = SpectralFunction.sign_phase()
        eig = linalg.hermitian_eig(h)
        sa = spectral.qpe_correlate(eig, psi, cfg)
        sb = spectral.qpe_correlate_unitary(walk, psi, cfg)
        np.testing.assert_allclose(sa.flag0, sb.flag0, atol=1e-10)
        sa = spectral.apply_phase_function(sa, f, cfg)
        sb = spectral.apply_phase_function(sb, f, cfg)
        outa, _, _ = spectral.qpe_uncompute(sa, eig, cfg)
        outb, _, _ = spectral.qpe_uncompute_unitary(sb, walk, cfg)
        np.testing.assert_allclose(outa, outb, atol=1e-10)


def test_pointer_transform_is_unitary_qft():
    # row-wise transform over the pointer axis of a (systems, codes) table
    rng = generate.rng_for(304)
    x = (rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    y = spectral._pointer_qft(x)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), abs=1e-12)
    np.testing.assert_allclose(spectral._pointer_qft_inverse(y), x, atol=1e-12)
    # basis pointer |1> maps to the linear-phase row e^{2 pi i k / N}/sqrt(N)
    e1 = np.zeros((1, 8), dtype=complex)
    e1[0, 1] = 1.0
    row = spectral._pointer_qft(e1)[0]
    np.testing.assert_allclose(
        row, np.exp(2j * np.pi * np.arange(8) / 8) / np.sqrt(8), atol=1e-12
    )


def _explicit_stages(eig, f, block, cfg):
    """The three explicit stages, one column at a time: the closed form's reference."""
    runs = [
        spectral.qpe_uncompute(
            spectral.apply_phase_function(spectral.qpe_correlate(eig, col, cfg), f, cfg),
            eig,
            cfg,
        )
        for col in block.T
    ]
    kept = np.column_stack([run[0] for run in runs])
    flagged = np.column_stack([run[1] for run in runs])
    leakage = max(run[2].leakage_norm for run in runs)
    flag_probability = sum(run[2].flag_probability for run in runs)
    return kept, flagged, leakage, flag_probability


def _spectrum_cases(rng):
    """(label, bits, Hermitian matrix) for random, degenerate and dyadic spectra."""
    cases = []
    for bits in (3, 5, 8):
        d = int(rng.integers(2, 9))
        h = generate.random_hermitian(d, rng)
        cases.append(("random", bits, 0.95 * h / float(np.linalg.norm(h, ord=2))))
        q = generate.random_unitary(d, rng)
        # repeated off-grid eigenvalues, a dilation-like +/- pair and zeros
        w = np.resize([0.37, 0.37, -0.37, 0.0, 0.0, 0.81], d)
        cases.append(("degenerate", bits, (q * w) @ q.conj().T))
        # on the grid: multiples of 4/2^b inside [-1, 1]
        steps = 2 ** (bits - 2)
        w = rng.integers(-steps, steps + 1, size=d) / steps
        cases.append(("dyadic", bits, (q * w) @ q.conj().T))
    return cases


@pytest.mark.parametrize("k", [1, 3])
def test_closed_form_equals_explicit_stages(k):
    rng = generate.rng_for(305 + k)
    functions = (
        SpectralFunction.sign_phase(),
        SpectralFunction.sign_phase(kappa_tilde=3.0),
        SpectralFunction.abs_times(1.3),
        SpectralFunction.linear(0.7),
    )
    for label, bits, h in _spectrum_cases(rng):
        cfg = QPEConfig(bits=bits)
        eig = linalg.hermitian_eig(h)
        d = h.shape[0]
        block = np.column_stack([generate.random_state(d, rng) for _ in range(k)])
        for f in functions:
            kept, flagged, diag = spectral.spectral_transform_qpe(eig, f, block, cfg)
            ref_kept, ref_flagged, ref_leak, ref_flag = _explicit_stages(eig, f, block, cfg)
            np.testing.assert_allclose(kept, ref_kept, atol=1e-12, err_msg=label)
            np.testing.assert_allclose(flagged, ref_flagged, atol=1e-12, err_msg=label)
            assert diag.leakage_norm == pytest.approx(ref_leak, abs=1e-12), label
            assert diag.flag_probability == pytest.approx(ref_flag, abs=1e-12), label
            if label == "dyadic":
                # summed from nonnegative terms, the leakage keeps its exact zero
                assert diag.leakage_norm <= 1e-12


def test_transfer_function_on_and_between_codes():
    # on a code the kernel is one spike: g = p0 there, no leakage; halfway
    # between two codes the loss is exactly what 1 - |g|^2 - |h|^2 leaves
    cfg = QPEConfig(bits=4)
    f = SpectralFunction.linear(1.0)
    w = np.array([0.5, -0.75, 0.5 + 0.125])
    g, h, loss = spectral.transfer_function(w, f, cfg)
    np.testing.assert_allclose(g[:2], np.exp(-1j * w[:2]), atol=1e-15)
    assert np.all(loss[:2] <= 1e-30)
    np.testing.assert_array_equal(h, np.zeros(3))
    assert loss[2] == pytest.approx(1.0 - abs(g[2]) ** 2, abs=1e-14)


@pytest.mark.parametrize("bits", [1, 3, 6])
def test_walk_uncompute_is_code_zero_of_the_explicit_table(bits):
    rng = generate.rng_for(310 + bits)
    cfg = QPEConfig(bits=bits)
    n = cfg.grid_size
    for f in (SpectralFunction.sign_phase(), SpectralFunction.sign_phase(kappa_tilde=3.0)):
        d = int(rng.integers(2, 7))
        h = generate.random_hermitian(d, rng)
        h = 0.9 * h / float(np.linalg.norm(h, ord=2))
        walk = linalg.matrix_exp_hermitian(h, -2.0 * np.pi / 4.0)
        state = spectral.qpe_correlate_unitary(walk, generate.random_state(d, rng), cfg)
        state = spectral.apply_phase_function(state, f, cfg)
        kept, flagged, diag = spectral.qpe_uncompute_unitary(state, walk, cfg)
        # the whole inverse table: column k of the transformed branch goes
        # through W^dag^k before the closing inverse transform
        leak_sq = 0.0
        for branch, got in ((state.flag0, kept), (state.flag1, flagged)):
            y = spectral._pointer_qft(branch)
            for k in range(n):
                y[:, k] = np.linalg.matrix_power(walk.conj().T, k) @ y[:, k]
            table = spectral._pointer_qft_inverse(y)
            np.testing.assert_allclose(got, table[:, 0], atol=1e-13)
            leak_sq += float(np.linalg.norm(table[:, 1:]) ** 2)
        # the leakage is the branch norm left over, so compare it squared
        assert diag.leakage_norm**2 == pytest.approx(leak_sq, abs=1e-13)
        assert diag.flag_probability == pytest.approx(state.flag_weight, abs=0)


def test_closed_form_map_is_linear_and_norm_preserving():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        bits=st.integers(1, 9),
        kappa_tilde=st.sampled_from([None, 2.0, 5.0]),
        alpha=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    )
    def check(seed, bits, kappa_tilde, alpha):
        rng = generate.rng_for(seed)
        d = int(rng.integers(1, 9))
        h = generate.random_hermitian(d, rng)
        h = h / max(float(np.linalg.norm(h, ord=2)), 1.0)
        eig = linalg.hermitian_eig(h)
        cfg = QPEConfig(bits=bits)
        f = SpectralFunction.sign_phase(kappa_tilde=kappa_tilde)
        a, b = generate.random_state(d, rng), generate.random_state(d, rng)
        mix = a + alpha * b
        hypothesis.assume(np.linalg.norm(mix) > 1e-3)
        mix = mix / np.linalg.norm(mix)
        block = np.column_stack([a, b, mix])
        kept, flagged, _ = spectral.spectral_transform_qpe(eig, f, block, cfg)
        scale = np.linalg.norm(a + alpha * b)
        for part in (kept, flagged):
            combo = (part[:, 0] + alpha * part[:, 1]) / scale
            np.testing.assert_allclose(part[:, 2], combo, atol=1e-12)
        # kept, flagged and leaked weight add back to each column's unit norm
        for col in range(3):
            _, _, diag = spectral.spectral_transform_qpe(eig, f, block[:, col], cfg)
            total = (
                np.linalg.norm(kept[:, col]) ** 2
                + np.linalg.norm(flagged[:, col]) ** 2
                + diag.leakage_norm**2
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    check()


def test_pointer_budget_is_checked_before_allocation():
    eig = linalg.hermitian_eig(np.eye(4, dtype=complex) * 0.5)
    psi = np.full(4, 0.5, dtype=complex)
    huge = QPEConfig(bits=40)
    f = SpectralFunction.sign_phase()
    with pytest.raises(spectral.PointerBudgetError, match="budget"):
        spectral.spectral_transform_qpe(eig, f, psi, huge)
    with pytest.raises(spectral.PointerBudgetError):
        spectral.qpe_correlate(eig, psi, huge)
    with pytest.raises(spectral.PointerBudgetError):
        spectral.qpe_correlate_unitary(np.eye(4, dtype=complex), psi, huge)
    # the largest grid inside the budget for this dimension still passes the check
    bits = int(np.log2(spectral.POINTER_BUDGET_BYTES // (4 * 16)))
    spectral._check_pointer_budget(4, QPEConfig(bits=bits))
    with pytest.raises(spectral.PointerBudgetError):
        spectral._check_pointer_budget(4, QPEConfig(bits=bits + 1))
