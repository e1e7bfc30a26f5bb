"""Learning the best isometry between paired states, classically and quantumly.

Given r pairs (phi_j, psi_j) of unit vectors, the isometry U minimizing
sum_j ||U phi_j - psi_j||^2 is the polar isometry of the cross-covariance
A = sum_j psi_j phi_j^dag.  The quantum route never forms A directly: the
pair state (1/sqrt(2r)) sum_j |j> (phi_j (+) psi_j) has a reduced density
matrix rho whose off-diagonal blocks are A/(2r), and conjugating rho by the
block parity V = P_top - P_bottom flips their sign.  Alternating short
evolutions under rho and its conjugate V rho V therefore synthesizes
e^{-i t (A + A^dag)} (density-matrix exponentiation).  The walk this
synthesizes feeds the same closed-form phase-estimation sign transform used
everywhere else, through the eigenpairs it implies.  Since
e^{+i dt V rho V} = V (e^{-i dt rho})^dag V, one factorization of rho serves
every step: the caller factors rho once (``reduced_density``), and the
dilation of A once, for the routes and the product-formula deviations alike.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import embedding, linalg, polar, spectral
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

    def residual(self, u: np.ndarray) -> float:
        """sum_j ||U phi_j - psi_j||^2 = ||U F - G||_F^2 over the pair matrices."""
        return float(np.linalg.norm(u @ self.inputs - self.outputs) ** 2)


@dataclasses.dataclass(frozen=True)
class DensityPair:
    """Reduced density matrix rho of the pair state, factored once.

    rho lives on the direct sum (input space first), ``eig`` is its
    (eigenvalues, eigenvectors) pair and ``split`` the input dimension, where
    the block parity V = P_top - P_bottom changes sign.
    """

    eig: tuple[np.ndarray, np.ndarray]
    split: int


def build_pair_state(inst: ProcrustesInstance) -> np.ndarray:
    """Joint state (1/sqrt(2r)) sum_j |j> (phi_j (+) psi_j).

    Returned flat with the pair index as the major axis, so
    reshape(r, n + m) recovers per-index rows.
    """
    r = inst.n_pairs
    stacked = np.concatenate([inst.inputs, inst.outputs], axis=0)  # (n+m, r)
    state = stacked.T / np.sqrt(2.0 * r)
    return state.reshape(-1)


def reduced_density(inst: ProcrustesInstance) -> DensityPair:
    """Trace the pair index out of the pair state and factor the result.

    The literal partial trace is the normalization authority here: tr(rho)=1,
    and rho - V rho V = embed(A)/r for A the cross-covariance.
    """
    r = inst.n_pairs
    n, m = inst.input_dim, inst.output_dim
    psi = build_pair_state(inst).reshape(r, n + m)
    rho = psi.T @ psi.conj()
    return DensityPair(eig=linalg.hermitian_eig(rho), split=n)


def dme_step(pair: DensityPair, delta_t: float) -> np.ndarray:
    """One density-exponentiation step e^{+i dt V rho V} e^{-i dt rho}.

    Equals e^{-i dt (A + A^dag)/r} up to O(dt^2), since rho - V rho V is
    embed(A)/r and the commutator enters only at second order.  Both halves
    come from the one factorization of rho: e^{+i dt V rho V} = V F^dag V
    with F = e^{-i dt rho}.
    """
    forward = linalg.exp_from_eig(pair.eig, delta_t)
    p = embedding.block_parity(pair.split, forward.shape[0])
    return (p[:, None] * forward.conj().T * p) @ forward


def dme_deviations(
    inst: ProcrustesInstance, pair: DensityPair, dil: polar.Dilation, t: float, counts: list[int]
) -> list[float]:
    """Operator-norm deviation of n DME steps from e^{-i t (A + A^dag)}, per n.

    ``pair`` is ``reduced_density(inst)`` and ``dil`` the target's factored
    ``polar.dilation(inst.cross_covariance())``.  Each of the n steps runs
    dme_step at delta_t = t r / n, so the r in the reduced density is
    compensated and the product targets the dilated evolution.
    """
    if min(counts) < 1:
        raise ValueError("n_steps must be positive")
    target = linalg.exp_from_eig(dil.eig, t)
    deviations = []
    for n in counts:
        step = dme_step(pair, t * inst.n_pairs / n)
        product = np.linalg.matrix_power(step, n)
        deviations.append(float(np.linalg.norm(product - target, ord=2)))
    return deviations


def solve_procrustes_classical(
    inst: ProcrustesInstance,
) -> tuple[np.ndarray, float]:
    """Best-fit (partial) isometry and its residual sum of squares.

    U is the polar isometry of the cross-covariance; the residual is
    ``inst.residual(U)``.
    """
    u = linalg.classical_polar(inst.cross_covariance()).isometry
    return u, inst.residual(u)


def apply_procrustes_quantum(
    inst: ProcrustesInstance,
    chi: np.ndarray,
    config: QPEConfig | None = None,
    n_steps: int | None = None,
    kappa_tilde: float | None = None,
    pair: DensityPair | None = None,
    dil: polar.Dilation | None = None,
) -> tuple[np.ndarray, SimDiagnostics]:
    """Map a new input state through the learned isometry, quantum style.

    The input chi is injected into the top block, the sign transform of the
    dilated cross-covariance moves it to U chi in the bottom block, and the
    bottom component is returned (unnormalized) with the route's diagnostics.
    Without ``config`` the transform is exact.  With ``config`` and
    ``n_steps`` the walk unitary W = e^{2 pi i H~/4} is synthesized from
    n_steps density-exponentiation steps on ``pair``, which must then be
    ``reduced_density(inst)``, and the pointer runs on the eigenpairs that W
    implies (``spectral.walk_eig``); with ``config`` alone the exact dilation
    drives the pointer.  Both run on ``dil``, A's ``polar.dilation``, factored
    here if not given; the walk takes its time scale sigma_max from it.  With
    ``kappa_tilde`` the sign transform flags singular values below
    sigma_max/kappa_tilde instead of mapping them.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (inst.input_dim,):
        raise ValueError(
            f"input state has dimension {chi.shape}, expected ({inst.input_dim},)"
        )
    psi = embedding.inject_right(chi, inst.output_dim)
    dil = polar.dilation(inst.cross_covariance()) if dil is None else dil
    if config is None or n_steps is None:
        kept, _, diag = polar.apply_polar_isometry(dil, psi, config, kappa_tilde)
        return kept[inst.input_dim :], diag
    if pair is None:
        raise TypeError("the walk route needs pair=reduced_density(inst)")
    if not np.any(dil.eig[0]):  # dil.scale reads 1.0 for A = 0
        raise ValueError("cross-covariance vanishes; no isometry to learn")
    # W = e^{2 pi i embed(A/scale)/4} = e^{-i embed(A) t_w}, t_w = -pi/(2 scale)
    t_w = -np.pi / (2.0 * dil.scale)
    delta_t = t_w * inst.n_pairs / n_steps
    # W is released once factored, before the pointer allocates its tables
    eig = spectral.walk_eig(np.linalg.matrix_power(dme_step(pair, delta_t), n_steps))
    f = SpectralFunction.sign_phase(kappa_tilde)
    kept, _, diag = spectral.spectral_transform(eig, f, psi, config)
    return kept[inst.input_dim :], diag
