"""Learning the best isometry between paired states, classically and quantumly.

Given r pairs (phi_j, psi_j) of unit vectors, the isometry U minimizing
sum_j ||U phi_j - psi_j||^2 is the polar isometry of the cross-covariance
A = sum_j psi_j phi_j^dag.  The quantum route never forms A directly: the
pair state (1/sqrt(2r)) sum_j |j> (phi_j (+) psi_j) has a reduced density
matrix rho whose off-diagonal blocks are A/(2r), and conjugating rho by the
block parity V = P_top - P_bottom flips their sign.  Alternating short
evolutions under rho and the conjugated copy therefore synthesizes
e^{-i t (A + A^dag)} (density-matrix exponentiation), which feeds the same
phase-estimation sign transform used everywhere else.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import embedding, linalg, polar, spectral
from .embedding import DilationVector
from .spectral import QPEConfig, SimDiagnostics, SpectralFunction


@dataclasses.dataclass(frozen=True)
class ProcrustesInstance:
    """r input/output pairs of unit vectors defining the fitting problem.

    Attributes:
        inputs: (n, r) columns phi_j.
        outputs: (m, r) columns psi_j.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=complex)
        outputs = np.asarray(self.outputs, dtype=complex)
        if inputs.ndim != 2 or outputs.ndim != 2:
            raise ValueError("inputs and outputs must be matrices of column vectors")
        if inputs.shape[1] != outputs.shape[1]:
            raise ValueError(
                f"pair count mismatch: {inputs.shape[1]} inputs vs {outputs.shape[1]} outputs"
            )
        for name, mat in (("input", inputs), ("output", outputs)):
            norms = np.linalg.norm(mat, axis=0)
            if np.any(np.abs(norms - 1.0) > 1e-8):
                raise ValueError(f"{name} vectors must be normalized")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @classmethod
    def from_pairs(
        cls, pairs: list[tuple[np.ndarray, np.ndarray]]
    ) -> ProcrustesInstance:
        if not pairs:
            raise ValueError("at least one pair is required")
        inputs = np.column_stack([np.asarray(p, dtype=complex) for p, _ in pairs])
        outputs = np.column_stack([np.asarray(q, dtype=complex) for _, q in pairs])
        return cls(inputs=inputs, outputs=outputs)

    @property
    def n_pairs(self) -> int:
        return self.inputs.shape[1]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.outputs.shape[0]

    def cross_covariance(self) -> np.ndarray:
        """A = sum_j psi_j phi_j^dag, the (m, n) matrix whose polar isometry solves the fit."""
        return self.outputs @ self.inputs.conj().T


@dataclasses.dataclass(frozen=True)
class DensityPair:
    """Reduced density matrix of the pair state and its parity conjugate.

    ``rho`` lives on the direct sum (input space first); ``conjugated`` is
    V rho V with V = P_top - P_bottom, which flips the off-diagonal blocks.
    """

    rho: np.ndarray
    conjugated: np.ndarray
    split: int

    @property
    def input_block(self) -> np.ndarray:
        """Top-left block: the input-side Gram operator over 2r."""
        return self.rho[: self.split, : self.split]

    @property
    def output_block(self) -> np.ndarray:
        """Bottom-right block: the output-side Gram operator over 2r."""
        return self.rho[self.split :, self.split :]


@dataclasses.dataclass(frozen=True)
class TrotterReport:
    """Accuracy record for a product-formula evolution."""

    deviation: float
    n_steps: int
    step_size: float


def build_pair_state(inst: ProcrustesInstance) -> np.ndarray:
    """Joint state (1/sqrt(2r)) sum_j |j> (phi_j (+) psi_j).

    Returned flat with the pair index as the major axis, so
    reshape(r, n + m) recovers per-index rows.
    """
    r = inst.n_pairs
    stacked = np.concatenate([inst.inputs, inst.outputs], axis=0)  # (n+m, r)
    state = stacked.T / np.sqrt(2.0 * r)
    return state.reshape(-1)


def block_parity(split: int, total: int) -> np.ndarray:
    """Diagonal +1/-1 operator separating the two blocks of the direct sum."""
    v = np.ones(total)
    v[split:] = -1.0
    return np.diag(v).astype(complex)


def reduced_density(inst: ProcrustesInstance) -> DensityPair:
    """Trace the pair index out of the pair state; also return the parity conjugate.

    The literal partial trace is the normalization authority here: tr(rho)=1,
    and rho - conjugated = embed(A)/r for A the cross-covariance.
    """
    r = inst.n_pairs
    n, m = inst.input_dim, inst.output_dim
    psi = build_pair_state(inst).reshape(r, n + m)
    rho = psi.T @ psi.conj()
    v = block_parity(n, n + m)
    conjugated = v @ rho @ v
    return DensityPair(rho=rho, conjugated=conjugated, split=n)


def dme_step(pair: DensityPair, delta_t: float) -> np.ndarray:
    """One density-exponentiation step e^{+i dt rho~} e^{-i dt rho}.

    Equals e^{-i dt (A + A^dag)/r} up to O(dt^2), since rho - rho~ is
    embed(A)/r and the commutator enters only at second order.
    """
    forward = linalg.matrix_exp_hermitian(pair.rho, delta_t)
    backward = linalg.matrix_exp_hermitian(pair.conjugated, -delta_t)
    return backward @ forward


def partial_swap_channel(
    rho: np.ndarray, sigma: np.ndarray, delta_t: float
) -> np.ndarray:
    """Push sigma through a partial swap with rho and trace rho's register out.

    Literal construction: trace-over-first-factor of
    e^{-i S dt} (rho (x) sigma) e^{+i S dt} with S the swap.  For small dt
    this is sigma - i dt [rho, sigma] + O(dt^2), the primitive behind
    density-matrix exponentiation.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape or rho.shape[0] != rho.shape[1]:
        raise ValueError("both density matrices must be square and equally sized")
    d = rho.shape[0]
    swap = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    joint = np.kron(rho, sigma)
    u = np.cos(delta_t) * np.eye(d * d) - 1j * np.sin(delta_t) * swap
    evolved = u @ joint @ u.conj().T
    # trace over the first factor
    return evolved.reshape(d, d, d, d).trace(axis1=0, axis2=2)


def effective_hamiltonian_evolution(
    inst: ProcrustesInstance,
    t: float,
    n_steps: int,
    psi: DilationVector,
) -> tuple[DilationVector, TrotterReport]:
    """Approximate e^{-i t (A + A^dag)} psi by repeated density exponentiation.

    Each of the n_steps steps runs dme_step at delta_t = t r / n_steps, so the
    r in the reduced density is compensated and the product targets the
    dilated evolution.  The report carries the operator-norm deviation of the
    full product from the exact evolution.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    pair = reduced_density(inst)
    r = inst.n_pairs
    delta_t = t * r / n_steps
    step = dme_step(pair, delta_t)
    product = np.linalg.matrix_power(step, n_steps)
    target = linalg.matrix_exp_hermitian(
        embedding.embed(inst.cross_covariance()).to_matrix(), t
    )
    deviation = float(np.linalg.norm(product - target, ord=2))
    out = product @ psi.to_vector()
    report = TrotterReport(deviation=deviation, n_steps=n_steps, step_size=delta_t)
    return DilationVector.from_vector(out, inst.input_dim), report


def solve_procrustes_classical(
    inst: ProcrustesInstance,
) -> tuple[np.ndarray, float]:
    """Best-fit (partial) isometry and its residual sum of squares.

    U is the polar isometry of the cross-covariance; the residual is
    sum_j ||U phi_j - psi_j||^2 = ||U F - G||_F^2 over the pair matrices.
    """
    u = linalg.classical_polar(inst.cross_covariance()).isometry
    residual = float(np.linalg.norm(u @ inst.inputs - inst.outputs) ** 2)
    return u, residual


def apply_procrustes_quantum(
    inst: ProcrustesInstance,
    chi: np.ndarray,
    mode: str = "exact",
    config: QPEConfig | None = None,
    n_steps: int | None = None,
) -> tuple[np.ndarray, SimDiagnostics]:
    """Map a new input state through the learned isometry, quantum style.

    The input chi is injected into the top block, the sign transform of the
    dilated cross-covariance moves it to U chi in the bottom block, and the
    bottom component is returned (unnormalized).  In qpe mode with ``n_steps``
    the walk unitary W = e^{2 pi i H~/4} is synthesized from n_steps
    density-exponentiation steps and raised to controlled powers as a black
    box; without ``n_steps`` the exact dilation drives the pointer.
    Diagnostics report fidelity against the classical solution U chi.
    """
    if mode not in ("exact", "qpe"):
        raise ValueError(f"mode must be 'exact' or 'qpe', got {mode!r}")
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (inst.input_dim,):
        raise ValueError(
            f"input state has dimension {chi.shape}, expected ({inst.input_dim},)"
        )
    a = inst.cross_covariance()
    u, _ = solve_procrustes_classical(inst)
    oracle_out = u @ chi
    psi = embedding.inject_right(chi, inst.output_dim)
    if mode == "exact" or n_steps is None:
        result = polar.apply_polar_isometry(a, psi, mode=mode, config=config)
        diag = result.diagnostics
        bottom = np.asarray(result.output.bottom)
    else:
        cfg = config if config is not None else QPEConfig()
        scale = float(np.linalg.norm(a, ord=2))
        if scale == 0.0:
            raise ValueError("cross-covariance vanishes; no isometry to learn")
        pair = reduced_density(inst)
        # W = e^{2 pi i embed(A/scale)/4} = e^{-i embed(A) t_w}, t_w = -pi/(2 scale)
        t_w = -np.pi / (2.0 * scale)
        delta_t = t_w * inst.n_pairs / n_steps
        walk = np.linalg.matrix_power(dme_step(pair, delta_t), n_steps)
        f = SpectralFunction.sign_phase(kappa_tilde=cfg.kappa_tilde)
        state = spectral.qpe_correlate_unitary(walk, psi.to_vector(), cfg)
        state = spectral.apply_phase_function(state, f, cfg)
        kept, _, diag = spectral.qpe_uncompute_unitary(state, walk, cfg)
        bottom = kept[inst.input_dim :]
    norm_bottom = float(np.linalg.norm(bottom))
    norm_oracle = float(np.linalg.norm(oracle_out))
    if norm_bottom > 0 and norm_oracle > 0:
        diag.fidelity_vs_exact = float(
            abs(np.vdot(oracle_out, bottom)) / (norm_bottom * norm_oracle)
        )
    else:
        diag.fidelity_vs_exact = 0.0
    return bottom, diag
