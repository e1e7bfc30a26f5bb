from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from polarsim import generate, linalg, procrustes, spectral, verify
from polarsim.spectral import QPEConfig, SpectralFunction


def test_decode_is_twos_complement():
    cfg = QPEConfig(bits=3)
    expected = np.array([0.0, 0.5, 1.0, 1.5, -2.0, -1.5, -1.0, -0.5])
    np.testing.assert_array_equal(cfg.grid_values(), expected)


def test_qpe_config_validation():
    with pytest.raises(ValueError):
        QPEConfig(bits=0)
    # the flag threshold is a property of the sign function, not of the pointer
    assert [f.name for f in dataclasses.fields(QPEConfig)] == ["bits"]


def _linear(t):
    """e^{-ixt}, plain Hamiltonian evolution (useful as a pipeline check)."""
    return SpectralFunction.phase(lambda x: x * t)


def _abs_times(t):
    """e^{-i|x|t}, the positive-factor evolution."""
    return SpectralFunction.phase(lambda x: np.abs(x) * t)


def _walk(h):
    """W = e^{2 pi i H/4}, built without an eigensolver as the reference circuit takes it."""
    return verify.taylor_exp(0.5j * np.pi * np.asarray(h, dtype=complex))


def _powers(h, cfg):
    """The controlled powers of ``_walk(h)`` that the reference circuit runs on."""
    return verify.controlled_powers(_walk(h), cfg.grid_size)


def test_identity_lands_on_single_code():
    # eigenvalue +1 at 3 bits sits exactly on code 2; -1 on code 6
    cfg = QPEConfig(bits=3)
    psi = np.array([1.0 + 0j])
    for h, code in ((np.eye(1), 2), (-np.eye(1), 6)):
        weights = np.abs(verify._correlate(_powers(h, cfg), psi)[0]) ** 2
        assert weights[code] == pytest.approx(1.0, abs=1e-12)


def test_correlate_closed_form():
    # one eigencomponent of phase phi leaves the Dirichlet kernel on the codes:
    # amp(c) = (1/N) sum_k e^{2 pi i k (phi - c/N)}
    cfg = QPEConfig(bits=4)
    lam = 0.37
    h = np.array([[lam]], dtype=complex)
    psi = np.array([1.0 + 0j])
    n = cfg.grid_size
    table = verify._correlate(_powers(h, cfg), psi)
    phi = lam / 4.0
    k = np.arange(n)
    expected = np.array(
        [np.sum(np.exp(2j * np.pi * k * (phi - c / n))) / n for c in range(n)]
    )
    np.testing.assert_allclose(table[0], expected, atol=1e-12)


def test_correlate_rejects_unbounded_spectrum():
    cfg = QPEConfig(bits=4)
    h = np.diag([0.5, 1.5]).astype(complex)
    psi = np.array([1.0, 0.0], dtype=complex)
    f = SpectralFunction.sign_phase()
    # the whole spectrum counts, even where psi has no weight
    with pytest.raises(ValueError, match="bound"):
        spectral.spectral_transform(linalg.hermitian_eig(h), f, psi, cfg)
    half = linalg.hermitian_eig(0.5 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        spectral.spectral_transform(half, f, 2 * psi, cfg)
    with pytest.raises(ValueError, match="normalized"):
        spectral.spectral_transform(half, f, np.array([np.nan, 0.0]), cfg)
    # a block is checked column by column
    block = np.column_stack([psi, [np.nan, 0.0]])
    with pytest.raises(ValueError, match="normalized"):
        spectral.spectral_transform(half, _linear(1.0), block)


def test_sign_phase_conventions():
    # kept factor exactly -1 on negative inputs, +1 elsewhere, nothing
    # flagged; the zero band counts as +
    x = np.array([-1.0, -1e-15, 0.0, 1e-15, 2.0])
    a, b = SpectralFunction.sign_phase().amplitudes(x)
    assert a.dtype == complex
    np.testing.assert_array_equal(a.real, np.array([-1.0, 1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(b, np.zeros(5))
    # with kappa_tilde = 4 exactly |x| < 0.25 - ZERO_BAND goes to the flag,
    # (0, 1); a value within the band below 0.25 is kept, as the oracle keeps it
    band = spectral.ZERO_BAND
    x = np.array([-1.0, -0.25, -0.25 + 2 * band, -0.1, 0.0, 0.1, 0.25 - band / 2, 0.25, 2.0])
    a, b = SpectralFunction.sign_phase(kappa_tilde=4.0).amplitudes(x)
    flagged = np.abs(x) < 0.25 - band
    np.testing.assert_array_equal(b, flagged.astype(float))
    np.testing.assert_array_equal(a[flagged], np.zeros(4))
    np.testing.assert_array_equal(a[~flagged], np.array([-1.0, -1.0, 1.0, 1.0, 1.0]))
    # every table is exactly real, -1, 0 or 1, on any grid
    for f in (SpectralFunction.sign_phase(), SpectralFunction.sign_phase(kappa_tilde=4.0)):
        a, _ = f.amplitudes(QPEConfig(bits=7).grid_values())
        assert not a.imag.any()
        assert set(a.real.tolist()) <= {-1.0, 0.0, 1.0}
    # NaN compares false both ways, so it must not slip past as "no threshold";
    # a threshold inside twice the zero band could not flag the kernel
    for bad in (1.0, 0.5, -3.0, float("nan"), 0.5 / spectral.ZERO_BAND):
        with pytest.raises(ValueError, match="condition number"):
            SpectralFunction.sign_phase(kappa_tilde=bad)


def test_phase_on_zero_hamiltonian():
    # H = 0 concentrates on code 0; sign(0) = +1 leaves the state untouched
    cfg = QPEConfig(bits=3)
    h = np.zeros((2, 2), dtype=complex)
    psi = np.array([0.6, 0.8], dtype=complex)
    f = SpectralFunction.sign_phase()
    for out, flagged, diag in (
        verify.pointer_circuit(_powers(h, cfg), f, psi, cfg),
        spectral.spectral_transform(linalg.hermitian_eig(h), f, psi, cfg),
    ):
        np.testing.assert_allclose(out, psi, atol=1e-12)
        np.testing.assert_array_equal(flagged, np.zeros(2))
        assert diag.leakage_norm < 1e-14


def test_uncompute_inverts_correlate():
    rng = generate.rng_for(301)
    cfg = QPEConfig(bits=6)
    zero = SpectralFunction.phase(np.zeros_like)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        h = generate.random_hermitian(d, rng)
        h = 0.95 * h / float(np.linalg.norm(h, ord=2))
        psi = generate.random_state(d, rng)
        powers = _powers(h, cfg)
        table = verify._correlate(powers, psi)
        assert np.linalg.norm(table) == pytest.approx(1.0, abs=1e-12)
        out, _, diag = verify.pointer_circuit(powers, zero, psi, cfg)
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
    for f in (SpectralFunction.sign_phase(), _linear(0.9)):
        out, _, diag = spectral.spectral_transform(eig, f, psi, cfg)
        expected, _, exact = spectral.spectral_transform(eig, f, psi)
        np.testing.assert_allclose(out, expected, atol=1e-10)
        assert diag.leakage_norm < 1e-10
        assert exact.leakage_norm == 0.0
    # the exact route's flag probability weighs the flag factor squared
    f = SpectralFunction(verify._filtered_inversion)
    b = f.amplitudes(eig[0])[1]
    assert np.any((b > 0) & (b < 1))
    _, _, exact = spectral.spectral_transform(eig, f, psi)
    weights = np.abs(eig[1].conj().T @ psi) ** 2
    assert exact.flag_probability == pytest.approx(np.sum(b**2 * weights), abs=1e-15)


def test_offgrid_eigenvalue_rounding_and_leakage():
    # lone eigenvalue 1/3 at 6 bits decodes to 5/16 = 0.3125; leakage frozen
    cfg = QPEConfig(bits=6)
    h = np.array([[1.0 / 3.0]], dtype=complex)
    psi = np.array([1.0 + 0j])
    out, _, diag = spectral.spectral_transform(
        linalg.hermitian_eig(h), _linear(1.0), psi, cfg
    )
    assert cfg.grid_values()[int(np.rint(1.0 / 3.0 / 4.0 * cfg.grid_size))] == 0.3125
    assert diag.leakage_norm == pytest.approx(0.15311462022750771, abs=1e-12)
    # what stays on code 0 and what leaks add back to the unit norm
    assert abs(out[0]) ** 2 + diag.leakage_norm**2 == pytest.approx(1.0, abs=1e-12)


def test_leakage_shrinks_with_bits():
    h = np.array([[1.0 / 3.0]], dtype=complex)
    psi = np.array([1.0 + 0j])
    leaks = []
    for bits in (4, 6, 8, 10):
        _, _, diag = spectral.spectral_transform(
            linalg.hermitian_eig(h), _linear(1.0), psi, QPEConfig(bits=bits)
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
    _, flagged, diag = verify.pointer_circuit(
        _powers(hmat, cfg), SpectralFunction.sign_phase(kappa_tilde=4.0), psi, cfg
    )
    # flagged weight: the two eigencomponents with |lambda| = 1/16
    assert diag.flag_probability == pytest.approx(0.25 + 0.25, abs=1e-10)
    # the flagged branch is carried through untouched (identity action)
    expected_flagged = np.array([0.0, 0.5, 0.0, 0.5], dtype=complex)
    np.testing.assert_allclose(flagged, expected_flagged, atol=1e-10)


def test_pointer_transform_is_unitary_qft():
    # the uncompute stage is unitary on any (systems, codes) table, not only on
    # a correlated one: code 0 and the rest add back to the table's norm
    rng = generate.rng_for(304)
    x = (rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8)))
    powers = verify.controlled_powers(generate.random_unitary(3, rng), 8)
    code0, rest = verify._uncompute(powers, x)
    assert np.linalg.norm(code0) ** 2 + rest == pytest.approx(np.linalg.norm(x) ** 2, abs=1e-12)
    # with W = 1 the Fourier pair cancels: basis pointer |c> returns to |c>,
    # so code 0 keeps its own amplitude and nothing else
    e1 = np.zeros((1, 8), dtype=complex)
    e1[0, 1] = 1.0
    code0, rest = verify._uncompute(verify.controlled_powers(np.eye(1), 8), e1)
    assert abs(code0[0]) < 1e-15 and rest == pytest.approx(1.0, abs=1e-12)
    # the uniform pointer, all columns psi/sqrt(N), transforms onto code 0 alone
    table = verify._correlate(verify.controlled_powers(np.eye(1), 8), np.array([1.0 + 0j]))
    np.testing.assert_allclose(table[0], np.eye(8)[0], atol=1e-15)


def _literal_circuit(h, f, block, cfg):
    """The literal circuit on W = e^{2 pi i H/4}, one column at a time: the reference."""
    powers = _powers(h, cfg)
    runs = [verify.pointer_circuit(powers, f, col, cfg) for col in block.T]
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
        _abs_times(1.3),
        _linear(0.7),
        SpectralFunction(verify._filtered_inversion),
    )
    for label, bits, h in _spectrum_cases(rng):
        cfg = QPEConfig(bits=bits)
        eig = linalg.hermitian_eig(h)
        d = h.shape[0]
        block = np.column_stack([generate.random_state(d, rng) for _ in range(k)])
        for f in functions:
            kept, flagged, diag = spectral.spectral_transform(eig, f, block, cfg)
            ref_kept, ref_flagged, ref_leak, ref_flag = _literal_circuit(h, f, block, cfg)
            np.testing.assert_allclose(kept, ref_kept, atol=1e-12, err_msg=label)
            np.testing.assert_allclose(flagged, ref_flagged, atol=1e-12, err_msg=label)
            assert diag.leakage_norm == pytest.approx(ref_leak, abs=1e-12), label
            assert diag.flag_probability == pytest.approx(ref_flag, abs=1e-12), label
            if label == "dyadic":
                # summed from nonnegative terms, the leakage keeps its exact zero
                assert diag.leakage_norm <= 1e-12


def test_transfer_function_on_and_between_codes():
    # on a code the kernel is one spike: g = a there, no leakage; halfway
    # between two codes the loss is exactly what 1 - |g|^2 - |h|^2 leaves
    cfg = QPEConfig(bits=4)
    f = _linear(1.0)
    w = np.array([0.5, -0.75, 0.5 + 0.125])
    g, h, loss, flag = spectral.transfer_function(w, f, cfg)
    np.testing.assert_allclose(g[:2], np.exp(-1j * w[:2]), atol=1e-15)
    assert np.all(loss[:2] <= 1e-30)
    np.testing.assert_array_equal(h, np.zeros(3))
    np.testing.assert_array_equal(flag, np.zeros(3))
    assert loss[2] == pytest.approx(1.0 - abs(g[2]) ** 2, abs=1e-14)


def _long_double_transfer(w, f, cfg):
    """The closed form's sums, one sine per (eigenvalue, code) cell, in np.longdouble."""
    a, b = f.amplitudes(cfg.grid_values())
    ld, n = np.longdouble, cfg.grid_size
    pi = ld("3.14159265358979323846264338327950288")
    turns = n * (np.asarray(w, dtype=ld) / 4)
    nearest = np.rint(turns)
    rem = turns - nearest
    dist = np.mod(nearest[:, None] - np.arange(n) + n // 2, n) - n // 2 + rem[:, None]
    denom = (n * np.sin(pi / n * dist)) ** 2
    kern = np.ones_like(denom)
    np.divide(np.sin(pi * rem)[:, None] ** 2, denom, out=kern, where=denom > 0)
    rows = [a.real.astype(ld), a.imag.astype(ld), b.astype(ld)]
    amps = [kern @ row for row in rows]
    loss = sum(np.sum(kern * (row - amp[:, None]) ** 2, axis=1) for row, amp in zip(rows, amps))
    return amps, loss, kern @ rows[2] ** 2


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18, reason="long double is no wider than double"
)
@pytest.mark.parametrize("bits", [5, 9, 12])
def test_transfer_function_matches_a_long_double_reference(bits):
    rng = generate.rng_for(330 + bits)
    n = 2**bits
    codes = rng.integers(-n // 4, n // 4, size=4)
    on_code = np.concatenate([4.0 * codes / n, [1.0, -1.0]])
    near = 4.0 * (codes[:3] + np.array([1e-3, 1e-7, 1e-12])) / n
    w = np.concatenate([on_code, near, rng.uniform(-1.0, 1.0, 10)])
    cfg = QPEConfig(bits=bits)
    # a sum of N nonnegative terms keeps its relative round-off below about
    # N eps; the phase tables' losses stay inside 1e-14, while the inversion's,
    # spread flat over the codes, measured 1.06e-14 on one near-code row at b = 12
    for f, loss_rtol in (
        (SpectralFunction.sign_phase(), 1e-14),
        (SpectralFunction.sign_phase(kappa_tilde=4.0), 1e-14),
        (_abs_times(1.3), 1e-14),
        (_linear(0.7), 1e-14),
        (SpectralFunction(verify._filtered_inversion), n * np.finfo(float).eps),
    ):
        g, h, loss, flag = spectral.transfer_function(w, f, cfg)
        (ref_re, ref_im, ref_h), ref_loss, ref_flag = _long_double_transfer(w, f, cfg)
        np.testing.assert_allclose(g.real, ref_re.astype(float), rtol=0, atol=1e-14)
        np.testing.assert_allclose(g.imag, ref_im.astype(float), rtol=0, atol=1e-14)
        np.testing.assert_allclose(h, ref_h.astype(float), rtol=0, atol=1e-14)
        np.testing.assert_allclose(flag, ref_flag.astype(float), rtol=0, atol=1e-14)
        np.testing.assert_allclose(loss, ref_loss.astype(float), rtol=loss_rtol, atol=0)
        # on a code the kernel is one spike: that code's factors, nothing lost
        a, b = f.amplitudes(cfg.grid_values())
        code = np.mod(np.rint(n * on_code / 4.0), n).astype(int)
        np.testing.assert_array_equal(g[: on_code.size], a[code])
        np.testing.assert_array_equal(h[: on_code.size], b[code])
        np.testing.assert_array_equal(flag[: on_code.size], b[code] ** 2)
        np.testing.assert_array_equal(loss[: on_code.size], 0.0)


@pytest.mark.parametrize(
    "f, rows",
    [
        (SpectralFunction.sign_phase(), 1),
        (SpectralFunction.sign_phase(kappa_tilde=3.0), 2),
        (_linear(0.7), 2),
        (SpectralFunction(verify._filtered_inversion), 2),
        (SpectralFunction(lambda x: (np.exp(-1j * x) / 2, np.full(np.shape(x), 0.5))), 3),
    ],
    ids=["sign", "thresholded-sign", "linear", "inversion", "flagged-phase"],
)
def test_transfer_function_forms_only_the_nonzero_factor_rows(monkeypatch, f, rows):
    # one loss einsum per chunk for each of Re a, Im a and b that is nonzero on
    # some code: a sign table is exactly real, and only a threshold flags it;
    # the phases, with a nonzero Im a row, are the control
    cfg = QPEConfig(bits=10)
    w = generate.rng_for(340).uniform(-1.0, 1.0, 48)
    chunks = -(-w.size // (spectral._TRANSFER_CHUNK_CELLS // cfg.grid_size))
    assert chunks == 2
    calls = []
    original = np.einsum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    spectral.transfer_function(w, f, cfg)
    assert calls == ["ij,ij->i"] * (rows * chunks)


class _CountingMatrix(np.ndarray):
    """Eigenvectors that count the products taken with them on the left."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


@pytest.mark.parametrize("config", [None, QPEConfig(bits=6)], ids=["exact", "qpe"])
def test_spectral_transform_skips_an_all_zero_flag_branch(config):
    # h = 0 on every eigenvalue: the flagged branch is exactly zero and is
    # never multiplied out, two products (coefficients, kept) instead of three
    rng = generate.rng_for(341)
    h = generate.random_hermitian(5, rng)
    w, v = linalg.hermitian_eig(0.9 * h / float(np.linalg.norm(h, ord=2)))
    psi = np.column_stack([generate.random_state(5, rng) for _ in range(3)])
    for f, products in (
        (SpectralFunction.sign_phase(), 2),
        (_abs_times(0.4), 2),
        (SpectralFunction.sign_phase(kappa_tilde=1.5), 3),
    ):
        _CountingMatrix.products = 0
        kept, flagged, _ = spectral.spectral_transform(
            (w, v.view(_CountingMatrix)), f, psi, config
        )
        assert _CountingMatrix.products == products
        if products == 2:
            assert flagged.shape == psi.shape and flagged.dtype == complex
            np.testing.assert_array_equal(flagged, np.zeros_like(psi))
        else:
            assert np.linalg.norm(flagged) > 0.1


@pytest.mark.parametrize("kappa_tilde", [None, 4.0])
def test_closed_form_peak_memory_is_within_the_per_code_charge(kappa_tilde):
    # the budget charges _POINTER_CODE_BYTES per code for the closed form's
    # arrays; beyond them only a few KiB of per-row arrays and objects remain
    f = SpectralFunction.sign_phase(kappa_tilde=kappa_tilde)
    w = np.array([0.3, -0.7])
    spectral.transfer_function(w, f, QPEConfig(bits=4))
    for bits in (18, 19, 20):
        tracemalloc.start()
        try:
            spectral.transfer_function(w, f, QPEConfig(bits=bits))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spectral._POINTER_CODE_BYTES * 2**bits + 2**14, bits


def _dme_walk(inst, n_steps):
    """W = e^{2 pi i H~/4} for H~ the rescaled dilation, synthesized by density exponentiation."""
    scale = float(np.linalg.norm(inst.cross_covariance(), ord=2))
    delta_t = -np.pi / (2.0 * scale) * inst.n_pairs / n_steps
    step = procrustes.dme_step(procrustes.reduced_density(inst), delta_t)
    return np.linalg.matrix_power(step, n_steps)


@pytest.mark.parametrize("bits", [1, 3, 6])
def test_walk_route_is_code_zero_of_the_literal_walk_table(bits):
    # the closed form on walk_eig's pair against the literal circuit on the
    # synthesized walk itself: column k of the correlated pointer holds W^k psi,
    # and stage three sends column k of each branch through W^dag k times;
    # rectangular instances repeat the eigenvalue 1 of W on their zero padding
    rng = generate.rng_for(310 + bits)
    cfg = QPEConfig(bits=bits)
    for dims in ((2, 2, 3), (2, 4, 3), (3, 1, 4)):
        walk = _dme_walk(generate.random_procrustes_instance(*dims, rng), 20)
        psi = generate.random_state(walk.shape[0], rng)
        powers = verify.controlled_powers(walk, cfg.grid_size)
        for f in (SpectralFunction.sign_phase(), SpectralFunction.sign_phase(kappa_tilde=3.0)):
            kept, flagged, diag = spectral.spectral_transform(
                spectral.walk_eig(walk), f, psi, cfg
            )
            ref_kept, ref_flagged, ref = verify.pointer_circuit(powers, f, psi, cfg)
            np.testing.assert_allclose(kept, ref_kept, atol=1e-10)
            np.testing.assert_allclose(flagged, ref_flagged, atol=1e-10)
            assert diag.leakage_norm**2 == pytest.approx(ref.leakage_norm**2, abs=1e-10)
            assert diag.flag_probability == pytest.approx(ref.flag_probability, abs=1e-10)


def test_walk_eig_recovers_the_hamiltonian_and_refuses_a_non_normal_walk():
    rng = generate.rng_for(316)
    h = generate.random_hermitian(5, rng)
    h = 0.9 * h / float(np.linalg.norm(h, ord=2))
    w, q = spectral.walk_eig(linalg.matrix_exp_hermitian(h, -2.0 * np.pi / 4.0))
    np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-12)
    np.testing.assert_allclose((q * w) @ q.conj().T, h, atol=1e-12)
    # a Jordan block has one eigenvector for its double eigenvalue
    with pytest.raises(ValueError, match="not unitary"):
        spectral.walk_eig(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def _walk_eig_reference(walk):
    """General eig, decode, stable sort and one QR of every eigenvector."""
    lam, vec = np.linalg.eig(walk)
    phi = np.mod(np.angle(lam) / (2.0 * np.pi), 1.0)
    implied = 4.0 * np.where(phi < 0.5, phi, phi - 1.0)
    order = np.argsort(implied, kind="stable")
    q, _ = np.linalg.qr(vec[:, order])
    return implied[order], q


def test_walk_eig_matches_a_general_eigensolver_on_dme_walks():
    # rectangular instances repeat the eigenvalue 1 of W on their zero padding
    rng = generate.rng_for(317)
    for dims in ((2, 2, 3), (2, 4, 3), (3, 1, 4)):
        walk = _dme_walk(generate.random_procrustes_instance(*dims, rng), 20)
        w, q = spectral.walk_eig(walk)
        ref_w, ref_q = _walk_eig_reference(walk)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(w, ref_w, atol=1e-12)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(len(w)), atol=1e-12)
        np.testing.assert_allclose(
            (q * w) @ q.conj().T, (ref_q * ref_w) @ ref_q.conj().T, atol=1e-12
        )


def test_walk_eig_recovers_degenerate_spectra_up_to_the_endpoints():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        levels=st.lists(
            st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
            min_size=1, max_size=4,
        ),
        repeats=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    )
    def check(seed, levels, repeats):
        w = np.repeat(levels, repeats[: len(levels)])
        u = generate.random_unitary(w.size, generate.rng_for(seed))
        h = (u * w) @ u.conj().T
        got, q = spectral.walk_eig(linalg.matrix_exp_hermitian(h, -2.0 * np.pi / 4.0))
        np.testing.assert_allclose(got, np.sort(w), atol=1e-12)
        np.testing.assert_allclose((q * got) @ q.conj().T, h, atol=1e-12)

    check()


@pytest.mark.parametrize(
    "walk",
    [2.0 * np.eye(3), np.diag([0.5j, 2.0, -1.0j])],
    ids=["twice-identity", "off-circle-diagonal"],
)
def test_normal_walk_off_the_unit_circle_is_refused(walk):
    # normal, so eigenvectors diagonalize it, but no eigenvalue is a phase
    with pytest.raises(ValueError, match="walk is not unitary"):
        spectral.walk_eig(walk)


_AT_MINUS_ONE = (
    "walk has an eigenvalue at -1 to working precision: it implies an"
    " eigenvalue of modulus 2, outside the pointer range [-1, 1]"
)
_NOT_FINITE_WALK = "walk must be a square matrix with finite entries"


def test_walk_at_minus_one_or_not_finite_is_refused_by_name():
    rng = generate.rng_for(318)
    u = generate.random_unitary(4, rng)
    rotated = (u * np.exp(1j * np.pi * np.array([1.0, 0.3, -0.2, 0.5]))) @ u.conj().T
    # I + W exactly singular, then singular only to round-off
    for walk in (np.diag([-1.0, 1.0]), rotated):
        with pytest.raises(ValueError) as exc:
            spectral.walk_eig(walk)
        assert str(exc.value) == _AT_MINUS_ONE
    for walk in (np.diag([1.0, np.nan]), np.diag([np.inf, 1.0]), np.eye(2)[:1]):
        with pytest.raises(ValueError) as exc:
            spectral.walk_eig(walk)
        assert str(exc.value) == _NOT_FINITE_WALK


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
        kept, flagged, _ = spectral.spectral_transform(eig, f, block, cfg)
        scale = np.linalg.norm(a + alpha * b)
        for part in (kept, flagged):
            combo = (part[:, 0] + alpha * part[:, 1]) / scale
            np.testing.assert_allclose(part[:, 2], combo, atol=1e-12)
        # kept, flagged and leaked weight add back to each column's unit norm
        for col in range(3):
            _, _, diag = spectral.spectral_transform(eig, f, block[:, col], cfg)
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
        spectral.spectral_transform(eig, f, psi, huge)
    # the largest grid inside the budget for each dimension still passes the
    # check; every code is charged its cells and the closed form's per-code
    # arrays, so d = 2 stops at b = 23 where the cells alone admitted b = 25
    for dim, largest in ((2, 23), (4, 22)):
        per_code = dim * 16 + spectral._POINTER_CODE_BYTES
        bits = int(np.log2(spectral.POINTER_BUDGET_BYTES // per_code))
        assert bits == largest
        spectral._check_pointer_budget(dim, QPEConfig(bits=bits))
        with pytest.raises(spectral.PointerBudgetError):
            spectral._check_pointer_budget(dim, QPEConfig(bits=bits + 1))


@pytest.mark.parametrize("bad", [1.5, -1.5, np.nan, np.inf])
def test_spectrum_outside_the_unit_bound_is_refused(bad):
    # a NaN compares false against the bound, so it is refused explicitly
    eig = (np.array([bad, 0.5]), np.eye(2, dtype=complex))
    psi = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="eigenvalue bound"):
        spectral.spectral_transform(eig, SpectralFunction.sign_phase(), psi, QPEConfig(bits=4))
