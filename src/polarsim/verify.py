"""Deterministic invariant battery behind the ``verify`` command.

Each item draws its instances from a child stream of one root seed, runs a
self-contained check with pinned tolerances, and reports scalar metrics plus
a verdict.  Repeating a run with the same seed reproduces every metric bit
for bit; wall-clock numbers are kept out of the verdicts so reports stay
comparable.  The test suite reuses these items one-to-one for the acceptance
gate.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import time
from typing import Callable

import numpy as np

from . import embedding, generate, hsvt, linalg, pgm, polar, procrustes, spectral
from .embedding import DilationVector
from .spectral import QPEConfig, SpectralFunction


@dataclasses.dataclass
class ItemResult:
    """Outcome of one battery item."""

    name: str
    passed: bool
    metrics: dict[str, float | int | str]
    elapsed: float


def _block_isometry_action(u: np.ndarray, psi: np.ndarray, split: int) -> np.ndarray:
    """Oracle for the dilated sign transform: swap blocks through U, identity
    on kernel/cokernel."""
    top, bottom = psi[:split], psi[split:]
    n = u.shape[1]
    m = u.shape[0]
    new_top = u.conj().T @ bottom + (np.eye(n) - u.conj().T @ u) @ top
    new_bottom = u @ top + (np.eye(m) - u @ u.conj().T) @ bottom
    return np.concatenate([new_top, new_bottom])


def positive_factor_expected(
    factors: linalg.PolarFactors, t: float, psi: DilationVector
) -> np.ndarray:
    """Oracle for e^{-i|H|t}: e^{-iBt} on the top block, e^{-iB~t} on the bottom."""
    return np.concatenate(
        [
            linalg.matrix_exp_hermitian(factors.right_positive, t) @ psi.top,
            linalg.matrix_exp_hermitian(factors.left_positive, t) @ psi.bottom,
        ]
    )


def isolation_error(sh: hsvt.SplitHamiltonian) -> float:
    """Largest entry gap between algebraic isolation and direct block extraction."""
    n = sh.split
    direct = np.zeros_like(sh.matrix)
    direct[n:, :n] = sh.matrix[n:, :n]
    direct[:n, n:] = sh.matrix[:n, n:]
    return float(np.max(np.abs(hsvt.isolate_offdiagonal(sh).to_matrix() - direct)))


def pgm_residuals(inst: pgm.PGMInstance, u: np.ndarray) -> tuple[float, float]:
    """Completeness and re-preparation residuals of the square-root measurement.

    Completeness compares sum_j |chi_j><chi_j| with the projector onto the
    ensemble span, taken from an SVD of the states; re-preparation compares
    U^dag |j> with chi_j column by column.
    """
    chi = pgm.pgm_vectors(inst)
    res = linalg.svd(inst.states)
    w = res.left_vectors[:, res.singular_values > linalg.rank_cutoff(res.singular_values)]
    completeness = float(np.linalg.norm(chi @ chi.conj().T - w @ w.conj().T, ord=2))
    reprep = float(np.max(np.linalg.norm(u.conj().T - chi, axis=0)))
    return completeness, reprep


def _random_dilation_state(
    n: int, m: int, rng: np.random.Generator
) -> DilationVector:
    vec = generate.random_state(n + m, rng)
    return DilationVector.from_vector(vec, n)


def check_polar_oracle_equivalence(seed: int) -> tuple[bool, dict]:
    """Exact-mode sign transform against the classical polar factorization.

    200 full-rank instances, square and rectangular, dimensions up to 8,
    largest singular value normalized to 1; worst-case output error must
    stay within 1e-9.
    """
    rng = generate.rng_for(seed, 1)
    tol = 1e-9
    worst = 0.0
    n_instances = 200
    for i in range(n_instances):
        if i % 2 == 0:
            m = n = int(rng.integers(1, 9))
        else:
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
        a = generate.random_complex_matrix(m, n, rng)
        a = a / float(np.linalg.norm(a, ord=2))
        psi = _random_dilation_state(n, m, rng)
        result = polar.apply_polar_isometry(a, psi, mode="exact")
        u = linalg.classical_polar(a).isometry
        expected = _block_isometry_action(u, psi.to_vector(), n)
        err = float(np.linalg.norm(result.output.to_vector() - expected))
        worst = np.maximum(worst, err)
    return bool(worst <= tol), {
        "instances": n_instances,
        "max_error": worst,
        "tolerance": tol,
    }


def check_qpe_dyadic_exactness(seed: int) -> tuple[bool, dict]:
    """Pointer register resolves exactly-representable spectra with no loss.

    Matrices with singular values on the signed b-bit grid, b in {4, 6, 8}:
    fidelity of the simulated sign transform >= 1 - 1e-9 and pointer leakage
    <= 1e-9.
    """
    rng = generate.rng_for(seed, 2)
    fid_floor = 1.0 - 1e-9
    leak_cap = 1e-9
    worst_fid = 1.0
    worst_leak = 0.0
    per_bits = 8
    for bits in (4, 6, 8):
        for _ in range(per_bits):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            a = generate.dyadic_singular_matrix(bits, m, n, rng)
            psi = _random_dilation_state(n, m, rng)
            result = polar.apply_polar_isometry(
                a, psi, mode="qpe", config=QPEConfig(bits=bits)
            )
            worst_fid = np.minimum(worst_fid, result.diagnostics.fidelity_vs_exact)
            worst_leak = np.maximum(worst_leak, result.diagnostics.leakage_norm)
    passed = bool(worst_fid >= fid_floor and worst_leak <= leak_cap)
    return passed, {
        "instances": 3 * per_bits,
        "min_fidelity": worst_fid,
        "max_leakage": worst_leak,
        "fidelity_floor": fid_floor,
        "leakage_cap": leak_cap,
    }


def check_condition_number_scaling(seed: int) -> tuple[bool, dict]:
    """Fidelity-vs-bits curves for spectra pinched down to 1/kappa.

    For kappa in {2, 8, 32}: fidelity >= 0.99 once b >= ceil(log2(4 kappa)),
    and each swept curve is monotone nondecreasing.  Inputs live in the right
    factor (top block), the regime the isometry is meant for; such states
    weight the +sigma and -sigma branches of the dilation equally, so coarse
    registers that cannot resolve the sign of sigma_min are penalized instead
    of passing by accident.  Instance 0 per kappa is the fixed anchor
    diag(1, 1/kappa) with a uniform input; the rest are randomly rotated.
    """
    rng = generate.rng_for(seed, 3)
    metrics: dict[str, float | int | str] = {}
    passed = True
    worst_drop = 0.0
    min_required_fid = 1.0
    for kappa in (2, 8, 32):
        b_req = math.ceil(math.log2(4 * kappa))
        metrics[f"required_bits.kappa{kappa}"] = b_req
        for inst in range(3):
            if inst == 0:
                a = np.diag([1.0, 1.0 / kappa]).astype(complex)
                right = np.full(2, 1.0 / math.sqrt(2), dtype=complex)
            else:
                a = generate.conditioned_matrix(kappa, 4, rng)
                right = generate.random_state(4, rng)
            n = a.shape[1]
            psi = DilationVector.from_vector(
                np.concatenate([right, np.zeros(a.shape[0], dtype=complex)]), n
            )
            fids = []
            for bits in range(2, b_req + 2):
                result = polar.apply_polar_isometry(
                    a, psi, mode="qpe", config=QPEConfig(bits=bits)
                )
                fid = result.diagnostics.fidelity_vs_exact
                fids.append(fid)
                if inst == 0:
                    metrics[f"fidelity.kappa{kappa}.b{bits}"] = fid
                if bits >= b_req:
                    min_required_fid = np.minimum(min_required_fid, fid)
                    if not fid >= 0.99:
                        passed = False
            drop = float(-np.diff(np.asarray(fids)).min())
            worst_drop = np.maximum(worst_drop, drop)
            if not drop <= 1e-10:
                passed = False
    metrics["min_fidelity_at_required_bits"] = min_required_fid
    metrics["worst_monotonicity_violation"] = np.maximum(worst_drop, 0.0)
    return passed, metrics


def check_positive_factor_evolution(seed: int) -> tuple[bool, dict]:
    """Dilated |x|t evolution against the exponentials of the polar factors.

    100 random matrices, t in {0.1, 1, pi}, worst error within 1e-10.
    """
    rng = generate.rng_for(seed, 4)
    tol = 1e-10
    worst = 0.0
    n_instances = 100
    for i in range(n_instances):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        if i % 5 == 4 and min(m, n) > 1:
            k = min(m, n)
            s = np.concatenate([rng.uniform(0.3, 1.5, size=k - 1), [0.0]])
            a = generate.matrix_with_singular_values(np.sort(s)[::-1], m, n, rng)
        else:
            a = generate.random_complex_matrix(m, n, rng)
        factors = linalg.classical_polar(a)
        psi = _random_dilation_state(n, m, rng)
        for t in (0.1, 1.0, math.pi):
            result = polar.evolve_positive_factor(a, t, psi, mode="exact")
            expected = positive_factor_expected(factors, t, psi)
            err = float(np.linalg.norm(result.output.to_vector() - expected))
            worst = np.maximum(worst, err)
    return bool(worst <= tol), {
        "instances": n_instances,
        "max_error": worst,
        "tolerance": tol,
    }


def check_flag_semantics(seed: int) -> tuple[bool, dict]:
    """Thresholded sign transform on diagonal spectra straddling 1/kappa_tilde.

    Flag probability must equal the weight of the ill-conditioned components
    (1e-10) and the kept branch must equal the restricted isometry action
    (1e-9), in exact mode and in a grid-exact qpe run.
    """
    rng = generate.rng_for(seed, 5)
    cases = [
        ((1.0, 0.6, 0.2, 0.05), 4.0, None),
        ((1.0, 0.5, 0.25, 0.125), 3.0, 8),
        ((1.0, 0.9, 0.11, 0.1), 8.0, None),
    ]
    worst_prob = 0.0
    worst_branch = 0.0
    for sigmas, kappa_tilde, bits in cases:
        a = np.diag(np.array(sigmas, dtype=complex))
        d = len(sigmas)
        psi = _random_dilation_state(d, d, rng)
        threshold = 1.0 / kappa_tilde
        ill = np.array([s < threshold for s in sigmas])
        expected_prob = float(
            np.sum(np.abs(np.asarray(psi.top)[ill]) ** 2)
            + np.sum(np.abs(np.asarray(psi.bottom)[ill]) ** 2)
        )
        keep = (~ill).astype(float)
        expected_branch = np.concatenate(
            [keep * np.asarray(psi.bottom), keep * np.asarray(psi.top)]
        )
        modes = [("exact", None)]
        if bits is not None:
            modes.append(("qpe", QPEConfig(bits=bits)))
        for mode, config in modes:
            result = polar.apply_polar_isometry(
                a, psi, mode=mode, config=config, kappa_tilde=kappa_tilde
            )
            prob_err = abs(result.diagnostics.flag_probability - expected_prob)
            branch_err = float(
                np.linalg.norm(result.output.to_vector() - expected_branch)
            )
            worst_prob = np.maximum(worst_prob, prob_err)
            worst_branch = np.maximum(worst_branch, branch_err)
    passed = bool(worst_prob <= 1e-10 and worst_branch <= 1e-9)
    return passed, {
        "cases": len(cases),
        "max_flag_probability_error": worst_prob,
        "max_branch_error": worst_branch,
        "probability_tolerance": 1e-10,
        "branch_tolerance": 1e-9,
    }


def check_trotter_step_order(seed: int) -> tuple[bool, dict]:
    """Second-order local and first-order global error of density exponentiation.

    Log-log slope of the per-step error over dt in {1e-1, 1e-2, 1e-3} must be
    2 +/- 0.2; the global deviation at fixed t over n_steps in {10, 100, 1000}
    must fit slope -1 +/- 0.2.
    """
    rng = generate.rng_for(seed, 6)
    inst = generate.random_procrustes_instance(2, 2, 3, rng)
    pair = procrustes.reduced_density(inst)
    h_over_r = (
        embedding.embed(inst.cross_covariance()).to_matrix() / inst.n_pairs
    )
    dts = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for dt in dts:
        target = linalg.matrix_exp_hermitian(h_over_r, dt)
        errs.append(
            float(np.linalg.norm(procrustes.dme_step(pair, dt) - target, ord=2))
        )
    local_slope = float(np.polyfit(np.log10(dts), np.log10(errs), 1)[0])
    psi = _random_dilation_state(2, 2, rng)
    steps = np.array([10, 100, 1000])
    devs = []
    for n in steps:
        _, report = procrustes.effective_hamiltonian_evolution(inst, 1.0, int(n), psi)
        devs.append(report.deviation)
    global_slope = float(np.polyfit(np.log10(steps), np.log10(devs), 1)[0])
    passed = abs(local_slope - 2.0) <= 0.2 and abs(global_slope + 1.0) <= 0.2
    metrics: dict[str, float | int | str] = {
        "local_slope": local_slope,
        "global_slope": global_slope,
    }
    for dt, err in zip(dts, errs):
        metrics[f"step_error.dt{dt:g}"] = err
    for n, dev in zip(steps, devs):
        metrics[f"global_error.n{n}"] = dev
    return passed, metrics


def _sampled_residuals(
    inst: procrustes.ProcrustesInstance, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Residuals of ``count`` random unitaries, drawn as ``generate.random_unitary`` would.

    One stacked QR over the same Gaussian draws and the same R-diagonal
    phase fix gives the per-sample loop's unitaries, and the residuals below
    its ``np.linalg.norm(q @ inputs - outputs) ** 2``, bit for bit.
    """
    n = inst.output_dim
    g = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    phases = np.where(np.abs(diag) == 0.0, 1.0, diag / np.abs(diag))
    q = q * phases[:, None, :]
    diff = (q @ inst.inputs - inst.outputs).reshape(count, -1)
    # the loop's rounding: np.linalg.norm sums BLAS dots over the strided real
    # and imaginary views, and squaring a float64 scalar calls libm pow, which
    # float_power keeps (a contiguous copy, a ufunc sum or x*x each differ)
    re, im = ((part[:, None, :] @ part[:, :, None])[:, 0, 0] for part in (diff.real, diff.imag))
    return np.float_power(np.sqrt(re + im), 2.0)


def check_procrustes_optimality(seed: int) -> tuple[bool, dict]:
    """Solver residual brackets 1000 random unitaries per instance.

    residual(U) <= residual(Q) <= residual(-U) for every sampled Q over 20
    instances.
    """
    rng = generate.rng_for(seed, 7)
    slack = 1e-9
    n_instances = 20
    n_samples = 1000
    # stacks of 250 keep the battery's peak memory near the per-sample loop's
    chunk = 250
    margin_low = np.inf
    margin_high = np.inf
    for _ in range(n_instances):
        n = int(rng.integers(2, 5))
        r = n + int(rng.integers(1, 4))
        inst = generate.random_procrustes_instance(n, n, r, rng)
        u, res_min = procrustes.solve_procrustes_classical(inst)
        res_max = float(np.linalg.norm(-u @ inst.inputs - inst.outputs) ** 2)
        sampled = np.concatenate(
            [
                _sampled_residuals(inst, min(chunk, n_samples - lo), rng)
                for lo in range(0, n_samples, chunk)
            ]
        )
        margin_low = np.minimum(margin_low, float(sampled.min() - res_min))
        margin_high = np.minimum(margin_high, float(res_max - sampled.max()))
    passed = bool(margin_low >= -slack and margin_high >= -slack)
    return passed, {
        "instances": n_instances,
        "samples_per_instance": n_samples,
        "min_margin_above_optimum": margin_low,
        "min_margin_below_reverse": margin_high,
    }


def check_hsvt_isolation(seed: int) -> tuple[bool, dict]:
    """Algebraic off-diagonal isolation is entrywise exact.

    100 random split Hamiltonians; (M - VMV)/2 vs direct block extraction
    within 1e-14 entrywise.
    """
    rng = generate.rng_for(seed, 8)
    tol = 1e-14
    worst = 0.0
    n_instances = 100
    for _ in range(n_instances):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        sh = generate.random_split_hamiltonian(n, m, rng)
        worst = np.maximum(worst, isolation_error(sh))
    return bool(worst <= tol), {
        "instances": n_instances,
        "max_entry_error": worst,
        "tolerance": tol,
    }


def check_pgm_dual_path(seed: int) -> tuple[bool, dict]:
    """Direct square-root-measurement statistics vs the polar-isometry route.

    100 instances with dimensions up to 6: probability gap <= 1e-8,
    completeness residual on the span <= 1e-10, re-preparation error <= 1e-8.
    """
    rng = generate.rng_for(seed, 9)
    n_instances = 100
    worst_gap = 0.0
    worst_complete = 0.0
    worst_reprep = 0.0
    for i in range(n_instances):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        inst = generate.random_pgm_instance(d, n, rng)
        if i % 2 == 0:
            rho = generate.random_density(d, rng)
        else:
            v = generate.random_state(d, rng)
            rho = np.outer(v, v.conj())
        p_direct = pgm.pgm_probabilities(inst, rho)
        p_polar, u = pgm.pgm_via_polar(inst, rho, mode="exact")
        worst_gap = np.maximum(worst_gap, float(np.max(np.abs(p_direct - p_polar))))
        completeness, reprep = pgm_residuals(inst, u)
        worst_complete = np.maximum(worst_complete, completeness)
        worst_reprep = np.maximum(worst_reprep, reprep)
    passed = bool(worst_gap <= 1e-8 and worst_complete <= 1e-10 and worst_reprep <= 1e-8)
    return passed, {
        "instances": n_instances,
        "max_probability_gap": worst_gap,
        "max_completeness_residual": worst_complete,
        "max_repreparation_error": worst_reprep,
    }


def check_core_oracle_invariants(seed: int) -> tuple[bool, dict]:
    """Factorization identities and determinism of the classical oracle."""
    rng = generate.rng_for(seed, 10)
    tol = 1e-10
    worst = 0.0
    determinism_ok = True
    for _ in range(60):
        m = int(rng.integers(1, 13))
        n = int(rng.integers(1, 13))
        a = generate.random_complex_matrix(m, n, rng)
        res = linalg.svd(a)
        worst = np.maximum(worst, float(np.linalg.norm(res.reconstruct() - a)))
        k = res.singular_values.size
        worst = np.max(
            [
                worst,
                float(
                    np.linalg.norm(
                        res.right_vectors.conj().T @ res.right_vectors - np.eye(k)
                    )
                ),
                float(
                    np.linalg.norm(
                        res.left_vectors.conj().T @ res.left_vectors - np.eye(k)
                    )
                ),
            ]
        )
        for j in range(k):
            col = res.right_vectors[:, j]
            top = col[int(np.argmax(np.abs(col)))]
            # worst >= 0, so -top.real only counts when the entry is negative
            worst = np.max([worst, abs(top.imag), -top.real])
        again = linalg.svd(a)
        determinism_ok = determinism_ok and bool(
            np.array_equal(res.singular_values, again.singular_values)
            and np.array_equal(res.right_vectors, again.right_vectors)
            and np.array_equal(res.left_vectors, again.left_vectors)
        )
        factors = linalg.classical_polar(a)
        worst = np.max(
            [
                worst,
                float(np.linalg.norm(factors.isometry @ factors.right_positive - a)),
                float(np.linalg.norm(factors.left_positive @ factors.isometry - a)),
            ]
        )
        q = generate.random_unitary(m, rng)
        rotated = linalg.svd(q @ a)
        worst = np.maximum(
            worst,
            float(np.max(np.abs(rotated.singular_values - res.singular_values))),
        )
        h = generate.random_hermitian(int(rng.integers(1, 13)), rng)
        pos = linalg.closest_positive(h)
        worst = np.maximum(worst, float(np.linalg.norm(pos @ h - h @ pos)))
    passed = bool(worst <= tol and determinism_ok)
    return passed, {
        "max_residual": worst,
        "deterministic": str(determinism_ok),
        "tolerance": tol,
    }


def check_embedding_spectrum(seed: int) -> tuple[bool, dict]:
    """Dilation spectra: +/- pairing, block balance, kernel counting."""
    rng = generate.rng_for(seed, 11)
    tol = 1e-10
    worst = 0.0
    counts_ok = True
    for i in range(50):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        if i % 3 == 0 and min(m, n) > 1:
            k = min(m, n)
            s = np.concatenate([rng.uniform(0.4, 1.6, size=k - 1), [0.0]])
            a = generate.matrix_with_singular_values(np.sort(s)[::-1], m, n, rng)
        else:
            a = generate.random_complex_matrix(m, n, rng)
        h = embedding.embed(a)
        hmat = h.to_matrix()
        pairs, kernel = embedding.eigenstructure(h)
        sig = linalg.svd(a).singular_values
        cut = linalg.rank_cutoff(sig)
        nonzero = sig[sig > cut]
        expected = np.sort(np.concatenate([nonzero, -nonzero, np.zeros(m + n - 2 * nonzero.size)]))
        worst = np.maximum(
            worst, float(np.max(np.abs(np.linalg.eigvalsh(hmat) - expected)))
        )
        counts_ok = counts_ok and len(kernel) == (m + n - 2 * len(pairs))
        for pair in pairs:
            for val, vec in ((pair.sigma, pair.plus), (-pair.sigma, pair.minus)):
                v = vec.to_vector()
                worst = np.max(
                    [
                        worst,
                        float(np.linalg.norm(hmat @ v - val * v)),
                        abs(float(np.linalg.norm(vec.top)) - 1.0 / math.sqrt(2.0)),
                        abs(float(np.linalg.norm(vec.bottom)) - 1.0 / math.sqrt(2.0)),
                    ]
                )
        for kvec in kernel:
            worst = np.maximum(worst, float(np.linalg.norm(hmat @ kvec.to_vector())))
        worst = np.maximum(
            worst,
            abs(
                float(np.linalg.norm(hmat, ord=2))
                - (float(nonzero[0]) if nonzero.size else 0.0)
            ),
        )
    passed = bool(worst <= tol and counts_ok)
    return passed, {
        "max_residual": worst,
        "kernel_counts_consistent": str(counts_ok),
        "tolerance": tol,
    }


def _closed_form_gap(
    eig: tuple[np.ndarray, np.ndarray],
    f: SpectralFunction,
    psi: np.ndarray,
    config: QPEConfig,
) -> float:
    """Largest difference between the closed-form route and the explicit stages.

    Compares kept and flagged parts (entrywise), leakage and flag probability.
    """
    kept, flagged, diag = spectral.spectral_transform_qpe(eig, f, psi, config)
    state = spectral.apply_phase_function(spectral.qpe_correlate(eig, psi, config), f, config)
    ref_kept, ref_flagged, ref = spectral.qpe_uncompute(state, eig, config)
    return float(
        np.max(
            [
                np.max(np.abs(kept - ref_kept)),
                np.max(np.abs(flagged - ref_flagged)),
                abs(diag.leakage_norm - ref.leakage_norm),
                abs(diag.flag_probability - ref.flag_probability),
            ]
        )
    )


def check_pipeline_stage_inverse(seed: int) -> tuple[bool, dict]:
    """Unitarity, invertibility and linearity of the three-stage pipeline.

    Also grades the closed-form ``spectral_transform_qpe`` against the
    explicit stages for sign, thresholded sign and |x| phases.
    """
    rng = generate.rng_for(seed, 12)
    worst_roundtrip = 0.0
    worst_norm = 0.0
    worst_linear = 0.0
    worst_flag = 0.0
    worst_closed = 0.0
    config = QPEConfig(bits=5)
    zero = SpectralFunction.tabulated(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    graded = (
        SpectralFunction.sign_phase(),
        SpectralFunction.sign_phase(kappa_tilde=3.0),
        SpectralFunction.abs_times(1.0),
    )
    for _ in range(20):
        d = int(rng.integers(2, 7))
        h = generate.random_hermitian(d, rng)
        h = 0.9 * h / float(np.linalg.norm(h, ord=2))
        eig = linalg.hermitian_eig(h)
        psi = generate.random_state(d, rng)
        state = spectral.qpe_correlate(eig, psi, config)
        worst_norm = np.maximum(worst_norm, abs(state.total_norm - 1.0))
        state = spectral.apply_phase_function(state, zero, config)
        worst_norm = np.maximum(worst_norm, abs(state.total_norm - 1.0))
        out, _, _ = spectral.qpe_uncompute(state, eig, config)
        worst_roundtrip = np.maximum(worst_roundtrip, float(np.linalg.norm(out - psi)))
        # linearity of the unnormalized pipeline, the three states as one block
        f = SpectralFunction.linear(0.7)
        psi2 = generate.random_state(d, rng)
        alpha, beta = complex(0.6, 0.3), complex(-0.2, 0.7)
        mix = alpha * psi + beta * psi2
        mix_norm = float(np.linalg.norm(mix))
        outs, _, _ = spectral.spectral_transform_qpe(
            eig, f, np.column_stack([psi, psi2, mix / mix_norm]), config
        )
        combo = (alpha * outs[:, 0] + beta * outs[:, 1]) / mix_norm
        worst_linear = np.maximum(
            worst_linear, float(np.linalg.norm(outs[:, 2] - combo))
        )
        # flag completeness on a thresholded sign run
        flagged = spectral.apply_phase_function(
            spectral.qpe_correlate(eig, psi, config),
            SpectralFunction.sign_phase(kappa_tilde=3.0),
            config,
        )
        total = flagged.flag_weight + float(np.linalg.norm(flagged.flag0) ** 2)
        worst_flag = np.maximum(worst_flag, abs(total - 1.0))
        for g in graded:
            worst_closed = np.maximum(worst_closed, _closed_form_gap(eig, g, psi, config))
    passed = bool(
        worst_roundtrip <= 1e-12
        and worst_norm <= 1e-12
        and worst_linear <= 1e-10
        and worst_flag <= 1e-12
        and worst_closed <= 1e-12
    )
    return passed, {
        "max_roundtrip_error": worst_roundtrip,
        "max_norm_drift": worst_norm,
        "max_linearity_error": worst_linear,
        "max_flag_completeness_error": worst_flag,
        "max_closed_form_gap": worst_closed,
    }


# name -> (callable, acceptance criterion number or 0 for battery extras)
REGISTRY: dict[str, tuple[Callable[[int], tuple[bool, dict]], int]] = {
    "polar-oracle-equivalence": (check_polar_oracle_equivalence, 1),
    "qpe-dyadic-exactness": (check_qpe_dyadic_exactness, 2),
    "condition-number-scaling": (check_condition_number_scaling, 3),
    "positive-factor-evolution": (check_positive_factor_evolution, 4),
    "flag-semantics": (check_flag_semantics, 5),
    "trotter-step-order": (check_trotter_step_order, 6),
    "procrustes-optimality": (check_procrustes_optimality, 7),
    "hsvt-isolation": (check_hsvt_isolation, 8),
    "pgm-dual-path": (check_pgm_dual_path, 9),
    "core-oracle-invariants": (check_core_oracle_invariants, 0),
    "embedding-spectrum": (check_embedding_spectrum, 0),
    "pipeline-stage-inverse": (check_pipeline_stage_inverse, 0),
}


def select_items(suite: str) -> list[str]:
    """Resolve a suite spec: 'all', 'acceptance', or comma-separated prefixes."""
    if suite == "all":
        return list(REGISTRY)
    if suite == "acceptance":
        return [name for name, (_, crit) in REGISTRY.items() if crit > 0]
    picked = []
    prefixes = [p.strip() for p in suite.split(",") if p.strip()]
    for name in REGISTRY:
        if any(name.startswith(p) for p in prefixes):
            picked.append(name)
    if not picked:
        raise ValueError(f"no battery items match suite spec {suite!r}")
    return picked


def run_item(name: str, seed: int) -> ItemResult:
    func, _ = REGISTRY[name]
    start = time.perf_counter()
    passed, metrics = func(seed)
    elapsed = time.perf_counter() - start
    return ItemResult(name=name, passed=passed, metrics=metrics, elapsed=elapsed)


def run_suite(names: list[str], seed: int, threads: int = 1) -> list[ItemResult]:
    """Run battery items, optionally in parallel; output order follows ``names``."""
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda n: run_item(n, seed), names))
    else:
        results = [run_item(name, seed) for name in names]
    return results
