"""Deterministic invariant battery behind the ``verify`` command.

Each item draws its instances from a child stream of one root seed, runs a
self-contained check with pinned tolerances, and reports scalar metrics plus
a verdict.  Repeating a run with the same seed reproduces every metric bit
for bit; wall-clock numbers are kept out of the verdicts so reports stay
comparable.  The test suite reuses these items one-to-one for the acceptance
gate.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

import numpy as np

from . import embedding, generate, hsvt, linalg, pgm, polar, procrustes, spectral
from .spectral import QPEConfig, SpectralFunction


@dataclasses.dataclass
class ItemResult:
    """Outcome of one battery item."""

    name: str
    passed: bool
    metrics: dict[str, float | int | str]
    elapsed: float


def restricted_isometry(res: linalg.SVDResult, kappa_tilde: float | None) -> np.ndarray:
    """Oracle U from the SVD of A: the partial isometry over sigma > cutoff, or
    U_r over sigma >= sigma_max/kt.

    A ratio sigma/sigma_max within ``spectral.ZERO_BAND`` below 1/kt counts as
    kept, as ``SpectralFunction.flags`` keeps it on the route.
    """
    s = res.singular_values
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((res.left_vectors.shape[0], res.right_vectors.shape[0]), dtype=complex)
    if kappa_tilde is None:
        keep = s > linalg.rank_cutoff(s)
    else:
        keep = (s / s[0]) >= 1.0 / kappa_tilde - spectral.ZERO_BAND
    return res.left_vectors[:, keep] @ res.right_vectors[:, keep].conj().T


def sign_expected(
    u: np.ndarray, psi: np.ndarray, kappa_tilde: float | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Oracle (kept, flagged) branches of the sign transform, U from ``restricted_isometry``.

    ``psi`` is split after its first n = ``u.shape[1]`` rows.  The blocks swap
    through U and the rest, (I - U^dag U) psi_top (+) (I - U U^dag) psi_bottom
    (kernel and cokernel included), passes through: into the kept branch
    without kappa_tilde, into the flagged one with it.  Without kappa_tilde
    there is no flagged branch (None).
    """
    n, m = u.shape[1], u.shape[0]
    top, bottom = psi[:n], psi[n:]
    swapped = [u.conj().T @ bottom, u @ top]
    rest = [(np.eye(n) - u.conj().T @ u) @ top, (np.eye(m) - u @ u.conj().T) @ bottom]
    if kappa_tilde is not None:
        return np.concatenate(swapped), np.concatenate(rest)
    return np.concatenate([swapped[0] + rest[0], swapped[1] + rest[1]]), None


def evolution_expected(
    function: str, a: np.ndarray, t: float, psi: np.ndarray
) -> np.ndarray:
    """Oracle for e^{-i|H|t} (``"abs"``) or e^{-iHt} (``"linear"``), H = embed(A).

    ``psi`` is split after its first n = ``a.shape[1]`` rows.  Both take one
    SVD A = L S R^dag.  ``"abs"`` is e^{-iBt} on the top block,
    psi_top + R(e^{-iSt} - 1)R^dag psi_top with B = R S R^dag, and the same
    through L on the bottom.  ``"linear"`` gives the top block
    psi_top + R((cos St - 1) R^dag psi_top - i sin St L^dag psi_bottom) and
    the bottom block its mirror image.
    """
    res = linalg.svd(a)
    left, right = res.left_vectors, res.right_vectors
    psi_top, psi_bottom = psi[: a.shape[1]], psi[a.shape[1] :]
    top, bottom = right.conj().T @ psi_top, left.conj().T @ psi_bottom
    if function == "abs":
        phase = np.exp(-1j * res.singular_values * t) - 1.0
        return np.concatenate(
            [psi_top + right @ (phase * top), psi_bottom + left @ (phase * bottom)]
        )
    cos, sin = np.cos(res.singular_values * t) - 1.0, np.sin(res.singular_values * t)
    return np.concatenate(
        [
            psi_top + right @ (cos * top - 1j * sin * bottom),
            psi_bottom + left @ (cos * bottom - 1j * sin * top),
        ]
    )


def overlap_fidelity(expected: np.ndarray, out: np.ndarray) -> float:
    """Smallest |<expected_j|out_j>| over both norms across the columns j of
    a (d, k) block (one vector is one column); 0 where either vanishes."""
    fids = []
    for e, o in zip(expected.reshape(len(expected), -1).T, out.reshape(len(out), -1).T):
        norms = float(np.linalg.norm(o)) * float(np.linalg.norm(e))
        fids.append(float(abs(np.vdot(e, o)) / norms) if norms > 0 else 0.0)
    return min(fids)


def branch_fidelity(
    kept: np.ndarray,
    flagged: np.ndarray,
    expected: np.ndarray,
    expected_flagged: np.ndarray | None,
) -> float:
    """``overlap_fidelity`` of the route's flag register with the oracle's.

    Each column stacks the kept branch over the flagged one when the oracle
    has a flagged branch (``sign_expected`` with kappa_tilde); otherwise the
    kept branches alone are compared.
    """
    if expected_flagged is None:
        return overlap_fidelity(expected, kept)
    return overlap_fidelity(
        np.concatenate([expected, expected_flagged]), np.concatenate([kept, flagged])
    )


def isolation_error(sh: hsvt.SplitHamiltonian) -> float:
    """Largest entry gap between algebraic isolation and direct block extraction."""
    n = sh.split
    direct = np.zeros_like(sh.matrix)
    direct[n:, :n] = sh.matrix[n:, :n]
    direct[:n, n:] = sh.matrix[:n, n:]
    return float(np.max(np.abs(embedding.embed(hsvt.isolate_offdiagonal(sh)) - direct)))


def pgm_residuals(inst: pgm.PGMInstance) -> tuple[float, float]:
    """Completeness and re-preparation residuals of the square-root measurement.

    Completeness compares sum_j |chi_j><chi_j| with the projector onto the
    ensemble span, taken from an SVD of the states; re-preparation compares
    U^dag |j> with chi_j column by column, U the classical Procrustes solution
    of the pairing phi_j -> |j>.
    """
    targets = np.eye(inst.n_states, dtype=complex)
    pairing = procrustes.ProcrustesInstance(inputs=inst.states, outputs=targets)
    u, _ = procrustes.solve_procrustes_classical(pairing)
    chi = pgm.pgm_vectors(inst)
    res = linalg.svd(inst.states)
    w = res.left_vectors[:, res.singular_values > linalg.rank_cutoff(res.singular_values)]
    completeness = float(np.linalg.norm(chi @ chi.conj().T - w @ w.conj().T, ord=2))
    reprep = float(np.max(np.linalg.norm(u.conj().T - chi, axis=0)))
    return completeness, reprep


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
        psi = generate.random_state(n + m, rng)
        kept, _, _ = polar.apply_polar_isometry(a, psi)
        expected, _ = sign_expected(linalg.classical_polar(a).isometry, psi)
        err = float(np.linalg.norm(kept - expected))
        worst = np.maximum(worst, err)
    return bool(worst <= tol), {
        "instances": n_instances,
        "max_error": worst,
        "tolerance": tol,
    }


def check_qpe_dyadic_exactness(seed: int) -> tuple[bool, dict]:
    """Pointer register resolves exactly-representable spectra with no loss.

    Matrices with singular values on the signed b-bit grid, b in {4, 6, 8}:
    fidelity of the simulated sign transform with the SVD oracle >= 1 - 1e-9
    and pointer leakage <= 1e-9.
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
            psi = generate.random_state(n + m, rng)
            kept, flagged, diag = polar.apply_polar_isometry(a, psi, QPEConfig(bits=bits))
            u = restricted_isometry(linalg.svd(a), None)
            fid = branch_fidelity(kept, flagged, *sign_expected(u, psi))
            worst_fid = np.minimum(worst_fid, fid)
            worst_leak = np.maximum(worst_leak, diag.leakage_norm)
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

    For kappa in {2, 8, 32}: fidelity with the SVD oracle >= 0.99 once
    b >= ceil(log2(4 kappa)), and each swept curve is monotone nondecreasing.
    Inputs live in the right factor (top block), the regime the isometry is
    meant for; such states weight the +sigma and -sigma branches of the
    dilation equally, so coarse registers that cannot resolve the sign of
    sigma_min are penalized instead of passing by accident.  A route that
    flips every sign reads as a global phase here and is left to the
    deviation gates.  Instance 0 per kappa is the fixed anchor
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
            psi = embedding.inject_right(right, a.shape[0])
            oracle = sign_expected(restricted_isometry(linalg.svd(a), None), psi)
            fids = []
            for bits in range(2, b_req + 2):
                kept, flagged, _ = polar.apply_polar_isometry(a, psi, QPEConfig(bits=bits))
                fid = branch_fidelity(kept, flagged, *oracle)
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
    """Dilated |x|t evolution against the SVD oracle of ``evolution_expected``.

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
        psi = generate.random_state(n + m, rng)
        for t in (0.1, 1.0, math.pi):
            kept, _, _ = polar.evolve_positive_factor(a, t, psi)
            expected = evolution_expected("abs", a, t, psi)
            err = float(np.linalg.norm(kept - expected))
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
        psi = generate.random_state(2 * d, rng)
        top, bottom = psi[:d], psi[d:]
        threshold = 1.0 / kappa_tilde
        ill = np.array([s < threshold for s in sigmas])
        expected_prob = float(np.sum(np.abs(top[ill]) ** 2) + np.sum(np.abs(bottom[ill]) ** 2))
        keep = (~ill).astype(float)
        expected_branch = np.concatenate([keep * bottom, keep * top])
        configs = [None] if bits is None else [None, QPEConfig(bits=bits)]
        for config in configs:
            kept, _, diag = polar.apply_polar_isometry(a, psi, config, kappa_tilde)
            prob_err = abs(diag.flag_probability - expected_prob)
            branch_err = float(np.linalg.norm(kept - expected_branch))
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
    h_over_r = embedding.embed(inst.cross_covariance()) / inst.n_pairs
    dts = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for dt in dts:
        target = linalg.matrix_exp_hermitian(h_over_r, dt)
        errs.append(
            float(np.linalg.norm(procrustes.dme_step(pair, dt) - target, ord=2))
        )
    local_slope = float(np.polyfit(np.log10(dts), np.log10(errs), 1)[0])
    steps = np.array([10, 100, 1000])
    devs = procrustes.dme_deviations(inst, 1.0, steps.tolist())
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
        res_max = inst.residual(-u)
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
        p_polar = pgm.pgm_via_polar(inst, rho)
        worst_gap = np.maximum(worst_gap, float(np.max(np.abs(p_direct - p_polar))))
        completeness, reprep = pgm_residuals(inst)
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
    psd_ok = True
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
        # |h| commutes with h, squares to h^2 and is positive semidefinite
        pos = linalg.hermitian_abs(h)
        worst = np.max(
            [
                worst,
                float(np.linalg.norm(pos @ h - h @ pos)),
                float(np.linalg.norm(pos @ pos - h @ h)),
            ]
        )
        psd_ok = psd_ok and linalg.is_positive_semidefinite(pos, tol)
    passed = bool(worst <= tol and determinism_ok and psd_ok)
    return passed, {
        "max_residual": worst,
        "deterministic": str(determinism_ok),
        "tolerance": tol,
    }


def check_embedding_spectrum(seed: int) -> tuple[bool, dict]:
    """The factorization every route takes, ``hermitian_eig(embed(a))``, against the SVD.

    Eigenvalues are +/- sigma padded with zeros and satisfy H V = V Lambda;
    each eigenvector off the kernel splits its weight evenly between the
    blocks; the kernel counts m + n - 2 rank; and max |lambda| is sigma_max,
    the scale ``polar`` divides out.
    """
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
        w, v = linalg.hermitian_eig(h)
        sig = linalg.svd(a).singular_values
        nonzero = sig[sig > linalg.rank_cutoff(sig)]
        expected = np.sort(np.concatenate([nonzero, -nonzero, np.zeros(m + n - 2 * nonzero.size)]))
        paired = np.abs(w) > linalg.rank_cutoff(np.abs(w))
        top_norms = np.linalg.norm(v[:n, paired], axis=0)
        counts_ok = counts_ok and int(np.count_nonzero(~paired)) == m + n - 2 * nonzero.size
        worst = np.max(
            [
                worst,
                float(np.max(np.abs(w - expected))),
                float(np.linalg.norm(h @ v - v * w, ord=2)),
                float(np.max(np.abs(top_norms - 1.0 / math.sqrt(2.0)), initial=0.0)),
                abs(float(np.max(np.abs(w))) - float(sig[0])),
            ]
        )
    passed = bool(worst <= tol and counts_ok)
    return passed, {
        "max_residual": worst,
        "kernel_counts_consistent": str(counts_ok),
        "tolerance": tol,
    }


def taylor_exp(a: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring a degree-18 Taylor series, with no eigensolver.

    A is halved s times until its 1-norm is below 1/2, where the truncated
    series is exact to round-off, and the sum is then squared s times (Moler
    and Van Loan 2003, SIAM Rev. 45, methods 1 and 3).
    """
    squarings = max(0, math.frexp(float(np.linalg.norm(a, 1)))[1] + 1)
    scaled = np.asarray(a, dtype=complex) / 2.0**squarings
    term = total = np.eye(len(scaled), dtype=complex)
    for k in range(1, 19):
        term = term @ scaled / k
        total = total + term
    for _ in range(squarings):
        total = total @ total
    return total


def _controlled_powers(walk: np.ndarray, n: int) -> np.ndarray:
    """W^k for the pointer values k = 0 .. N-1, stacked as an (N, d, d) array.

    Bit j of the pointer controls W^(2^j): each round appends W^(2^j) times
    every power built so far, then squares.
    """
    powers = np.eye(len(walk), dtype=complex)[None]
    square = np.asarray(walk, dtype=complex)
    while len(powers) < n:
        powers = np.concatenate([powers, square @ powers])
        square = square @ square
    return powers


def _correlate(walk: np.ndarray, psi: np.ndarray, n: int) -> np.ndarray:
    """Stage one of the literal circuit: the (d, N) table over the N pointer codes.

    The pointer starts uniform and controls powers of W, so column k holds
    W^k psi / sqrt(N); the inverse Fourier transform on the pointer,
    |k> -> sum_c e^{-2 pi i ck/N} |c> / sqrt(N), then gathers an
    eigencomponent of eigenphase phi near code N phi.
    """
    table = (_controlled_powers(walk, n) @ psi).T / math.sqrt(n)
    return np.fft.fft(table, axis=1) / math.sqrt(n)


def _uncompute(walk: np.ndarray, branches: np.ndarray) -> tuple[np.ndarray, float]:
    """Stage three on (..., d, N) branch tables: code-0 vectors, squared norm elsewhere.

    The Fourier transform undoes stage one's, pointer value k applies
    (W^dag)^k to its column, and the inverse transform returns to the codes.
    """
    n = branches.shape[-1]
    y = np.fft.ifft(branches, axis=-1) * math.sqrt(n)
    back = np.einsum("kji,...jk->...ik", _controlled_powers(walk, n).conj(), y)
    out = np.fft.fft(back, axis=-1) / math.sqrt(n)
    return out[..., 0], float(np.linalg.norm(out[..., 1:]) ** 2)


def pointer_circuit(
    walk: np.ndarray, f: SpectralFunction, psi: np.ndarray, config: QPEConfig
) -> tuple[np.ndarray, np.ndarray, spectral.SimDiagnostics]:
    """Literal phase estimation of e^{-i f(H)} on one state, given W = e^{2 pi i H/4}.

    The reference ``spectral_transform`` is graded against.  It takes W
    itself (a synthesized walk, or ``taylor_exp`` of 2 pi i H/4) and factors
    nothing.  Stage two multiplies code c by e^{-i f(x_c)}, or moves it
    unphased to the flag branch where ``f.flags(x_c)``, at x_c =
    ``config.decode(c)``.  Returns the code-0 (kept, flagged) vectors, the
    leakage (the norm both branches leave off code 0) and the flag branch's
    weight.
    """
    n = config.grid_size
    table = _correlate(walk, np.asarray(psi, dtype=complex), n)
    x = config.decode(np.arange(n))
    ill = f.flags(x)
    branches = np.stack([np.where(ill, 0.0, np.exp(-1j * f(x))) * table, ill * table])
    (kept, flagged), leak_sq = _uncompute(walk, branches)
    diag = spectral.SimDiagnostics(
        leakage_norm=math.sqrt(leak_sq),
        flag_probability=float(np.linalg.norm(branches[1]) ** 2),
    )
    return kept, flagged, diag


def _accounted_weight(
    kept: np.ndarray, flagged: np.ndarray, diag: spectral.SimDiagnostics
) -> float:
    """The kept, flagged and leaked squared norm of one run; 1 for a unit state."""
    return float(
        np.linalg.norm(kept) ** 2 + np.linalg.norm(flagged) ** 2 + diag.leakage_norm**2
    )


def check_pipeline_stage_inverse(seed: int) -> tuple[bool, dict]:
    """The closed form against a literal phase-estimation circuit.

    ``pointer_circuit`` on W = ``taylor_exp(2 pi i H/4)`` must return the
    state under a zero phase (roundtrip) with its norm, and account for the
    whole norm when a thresholded sign flags some of it (flag completeness).
    ``spectral_transform`` on ``hermitian_eig(H)`` must match it for sign,
    thresholded sign and |x| phases (closed-form gap) and act linearly on a
    block of states.
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
        walk = taylor_exp(0.5j * np.pi * h)
        psi = generate.random_state(d, rng)
        out, flagged, diag = pointer_circuit(walk, zero, psi, config)
        norm = math.sqrt(_accounted_weight(out, flagged, diag))
        worst_norm = np.maximum(worst_norm, abs(norm - 1.0))
        worst_roundtrip = np.maximum(worst_roundtrip, float(np.linalg.norm(out - psi)))
        # linearity of the unnormalized closed form, the three states as one block
        f = SpectralFunction.linear(0.7)
        psi2 = generate.random_state(d, rng)
        alpha, beta = complex(0.6, 0.3), complex(-0.2, 0.7)
        mix = alpha * psi + beta * psi2
        mix_norm = float(np.linalg.norm(mix))
        outs, _, _ = spectral.spectral_transform(
            eig, f, np.column_stack([psi, psi2, mix / mix_norm]), config
        )
        combo = (alpha * outs[:, 0] + beta * outs[:, 1]) / mix_norm
        worst_linear = np.maximum(
            worst_linear, float(np.linalg.norm(outs[:, 2] - combo))
        )
        for g in graded:
            kept, flagged, diag = spectral.spectral_transform(eig, g, psi, config)
            ref_kept, ref_flagged, ref = pointer_circuit(walk, g, psi, config)
            if g.flag_threshold > 0.0:
                worst_flag = np.maximum(
                    worst_flag, abs(_accounted_weight(ref_kept, ref_flagged, ref) - 1.0)
                )
            gap = np.max(
                [
                    np.max(np.abs(kept - ref_kept)),
                    np.max(np.abs(flagged - ref_flagged)),
                    abs(diag.leakage_norm - ref.leakage_norm),
                    abs(diag.flag_probability - ref.flag_probability),
                ]
            )
            worst_closed = np.maximum(worst_closed, float(gap))
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


def run_suite(names: list[str], seed: int) -> list[ItemResult]:
    """Run battery items one after another, in the order of ``names``."""
    return [run_item(name, seed) for name in names]
