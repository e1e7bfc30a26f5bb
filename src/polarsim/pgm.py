"""Square-root measurement over an ensemble of pure states, two ways.

For states phi_1..phi_n with Gram operator S = sum_j |phi_j><phi_j|, the
square-root measurement directs outcome j along chi_j = S^(-1/2) phi_j
(pseudo-inverse on the support).  With the states as the columns of
Phi = L Sigma R^dag, chi_j = L R^dag |j>: the chi_j are the columns of the
polar isometry of Phi, computed from one SVD of Phi without forming S.  The
stacking map A = sum_j |j><phi_j| = Phi^dag has the adjoint isometry,
U^dag |j> = chi_j, so outcome probabilities can be computed either directly
from the chi vectors or by pushing the state through U and reading the index
basis.  Both paths are implemented and must agree; the second one is the
sign transform of the stacking map's dilation, the same route ``polar`` runs.
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


def pgm_vectors(inst: PGMInstance) -> np.ndarray:
    """Measurement directions chi_j = S^(-1/2) phi_j as the columns of Phi's
    polar isometry, singular values above ``linalg.rank_cutoff`` kept; their
    outer products sum to the projector onto span(phi_j)."""
    return linalg.classical_polar(inst.states).isometry


def density_matrix(
    rho: np.ndarray, dim: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """rho checked once as a density matrix on C^dim: rho/2 + rho^dag/2 and its eigenpairs.

    rho must be Hermitian entrywise within 1e-8 (``linalg.is_hermitian``),
    of unit trace and with no eigenvalue below -1e-8.  The Hermitian part it
    returns, the halves as ``is_hermitian`` compares them, is exact to the
    last bit, so both outcome paths read the same matrix.  Its one
    ``linalg.hermitian_eig`` gives the positivity check its smallest
    eigenvalue and is returned with it for ``pgm_via_polar``, so one
    outcome computation takes one spectrum of rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"density matrix must be {dim} x {dim}, got {rho.shape}")
    if not linalg.is_hermitian(rho, atol=_TRACE_ATOL):
        raise ValueError("density matrix must be Hermitian")
    half = rho / 2
    rho = half + half.conj().T
    if abs(np.trace(rho).real - 1.0) > _TRACE_ATOL:
        raise ValueError(f"density matrix must have unit trace, got {np.trace(rho).real}")
    eig = linalg.hermitian_eig(rho)
    if eig[0][0] < -_TRACE_ATOL:
        raise ValueError("density matrix must be positive semidefinite")
    return rho, eig


def pgm_probabilities(
    inst: PGMInstance, rho: np.ndarray, chi: np.ndarray | None = None
) -> np.ndarray:
    """Outcome distribution p(j) = <chi_j| rho |chi_j>, chi = ``pgm_vectors(inst)`` if not given.

    ``rho`` is the matrix ``density_matrix`` returns; it is not checked again.
    """
    chi = pgm_vectors(inst) if chi is None else chi
    return np.real(np.einsum("ij,ik,kj->j", chi.conj(), rho, chi))


def pgm_via_polar(
    inst: PGMInstance,
    rho_eig: tuple[np.ndarray, np.ndarray],
    config: QPEConfig | None = None,
) -> np.ndarray:
    """Outcome distribution through the polar isometry of the stacking map.

    ``rho_eig`` is the (eigenvalues, eigenvectors) pair of rho that
    ``density_matrix`` returns, so the route factors no rho of its own, as
    routes take a ``polar.Dilation``.  Every eigenvector rides the sign
    transform of the dilation of A = sum_j |j><phi_j| as one block, exactly
    when ``config`` is None and through the simulated pipeline otherwise;
    the isometry U carries each to the index basis, where
    p(j) = <j| U rho U^dag |j> is read off.  The slightly negative
    eigenvalues that check admits are kept, so both paths read the same rho.
    """
    w, vecs = rho_eig
    psi = embedding.inject_right(vecs, inst.n_states)
    dil = polar.dilation(inst.stacking_map())
    kept, _, _ = polar.apply_polar_isometry(dil, psi, config)
    return np.abs(kept[inst.dim :]) ** 2 @ w


def sample_outcomes(probabilities: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """Seeded demonstration sampler: outcome counts over the given distribution.

    Residual probability mass (states outside the ensemble span) is collected
    in a final overflow bin.  Entries down to -_TRACE_ATOL, what a density
    matrix within the reader's tolerance can give, are clipped to zero.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    if np.any(probabilities < -_TRACE_ATOL):
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
