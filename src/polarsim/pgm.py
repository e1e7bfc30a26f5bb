"""Square-root measurement over an ensemble of pure states, two ways.

For states phi_1..phi_n with Gram operator S = sum_j |phi_j><phi_j|, the
square-root measurement directs outcome j along chi_j = S^(-1/2) phi_j
(pseudo-inverse on the support).  The same vectors arise from the polar
isometry of the stacking map A = sum_j |j><phi_j|: U^dag |j> = chi_j, so
outcome probabilities can be computed either directly from the chi vectors
or by pushing the state through U and reading the index basis.  Both paths
are implemented and must agree; the second one is the sign transform of the
stacking map's dilation, the same route ``polar`` runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import embedding, linalg, polar
from .spectral import QPEConfig

_TRACE_ATOL = 1e-8


@dataclasses.dataclass(frozen=True)
class PGMInstance:
    """Ensemble of n pure states in dimension d.

    Attributes:
        states: (d, n) columns phi_j, each normalized.
    """

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2:
            raise ValueError("states must be a matrix of column vectors")
        norms = np.linalg.norm(states, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-8):
            raise ValueError("ensemble states must be normalized")
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[0]

    @property
    def n_states(self) -> int:
        return self.states.shape[1]

    def stacking_map(self) -> np.ndarray:
        """A = sum_j |j><phi_j|, rows are the conjugated ensemble states."""
        return self.states.conj().T

    def gram_operator(self) -> np.ndarray:
        """S = sum_j |phi_j><phi_j| on the state space."""
        return self.states @ self.states.conj().T


def _inverse_sqrt_on_support(s: np.ndarray) -> np.ndarray:
    """S^(-1/2) with the pseudo-inverse convention on the kernel."""
    w, v = linalg.hermitian_eig(s)
    cut = linalg.RANK_TOL_FACTOR * max(float(np.max(w)), 0.0) if w.size else 0.0
    inv = np.where(w > cut, 1.0 / np.sqrt(np.where(w > cut, w, 1.0)), 0.0)
    return (v * inv) @ v.conj().T


def pgm_vectors(inst: PGMInstance) -> np.ndarray:
    """Measurement directions chi_j = S^(-1/2) phi_j as columns.

    Their outer products sum to the projector onto span(phi_j), so the
    measurement is complete exactly on the ensemble's support.
    """
    return _inverse_sqrt_on_support(inst.gram_operator()) @ inst.states


def _check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim} x {dim}, got {rho.shape}")
    if not linalg.is_hermitian(rho, atol=_TRACE_ATOL):
        raise ValueError("density matrix must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > _TRACE_ATOL:
        raise ValueError(f"density matrix must have unit trace, got {np.trace(rho).real}")
    if not linalg.is_positive_semidefinite(rho, atol=_TRACE_ATOL):
        raise ValueError("density matrix must be positive semidefinite")
    return rho


def pgm_probabilities(inst: PGMInstance, rho: np.ndarray) -> np.ndarray:
    """Outcome distribution p(j) = <chi_j| rho |chi_j> of the square-root measurement."""
    rho = _check_density(rho, inst.dim)
    chi = pgm_vectors(inst)
    return np.real(np.einsum("ij,ik,kj->j", chi.conj(), rho, chi))


def pgm_via_polar(
    inst: PGMInstance,
    rho: np.ndarray,
    config: QPEConfig | None = None,
) -> np.ndarray:
    """Outcome distribution through the polar isometry of the stacking map.

    The eigenvectors of rho ride the sign transform of the dilation of
    A = sum_j |j><phi_j| as one block, exactly when ``config`` is None and
    through the simulated pipeline otherwise; the isometry U carries each to
    the index basis, where p(j) = <j| U rho U^dag |j> is read off.
    """
    rho = _check_density(rho, inst.dim)
    w, vecs = linalg.hermitian_eig(rho)
    keep = w > 1e-14
    psi = embedding.inject_right(vecs[:, keep], inst.n_states)
    kept, _, _ = polar.apply_polar_isometry(inst.stacking_map(), psi, config)
    return np.abs(kept[inst.dim :]) ** 2 @ w[keep]


def sample_outcomes(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Seeded demonstration sampler: outcome counts over the given distribution.

    Residual probability mass (states outside the ensemble span) is collected
    in a final overflow bin.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if np.any(probabilities < -1e-10):
        raise ValueError("probabilities must be nonnegative")
    clipped = np.clip(probabilities, 0.0, None)
    total = float(clipped.sum())
    if total > 1.0 + 1e-8:
        raise ValueError("probabilities must sum to at most 1")
    full = np.append(clipped, max(1.0 - total, 0.0))
    full = full / full.sum()
    rng = np.random.default_rng(seed)
    draws = rng.choice(full.size, size=shots, p=full)
    return np.bincount(draws, minlength=full.size)
