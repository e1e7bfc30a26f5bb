"""Hermitian dilation of a rectangular matrix and its eigenstructure.

A general m x n matrix A acting between an input space (dim n) and an output
space (dim m) embeds into the Hermitian operator

    [[0,      A^dag],
     [A,      0    ]]

on the direct sum (input space first).  Its nonzero spectrum is +/- sigma_j
with eigenvectors (r_j, +/- l_j)/sqrt(2) built from the singular triplets of
A, so evolving or filtering the dilation realizes singular-value transforms of
A itself.  Kernel and cokernel vectors of A pad the spectrum with zeros.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg


@dataclasses.dataclass(frozen=True)
class BlockHamiltonian:
    """Off-diagonal Hermitian dilation of a single matrix block.

    Attributes:
        a_block: the (m, n) matrix sitting in the lower-left block.
    """

    a_block: np.ndarray

    @property
    def right_dim(self) -> int:
        """Dimension of the input (top) space."""
        return self.a_block.shape[1]

    @property
    def left_dim(self) -> int:
        """Dimension of the output (bottom) space."""
        return self.a_block.shape[0]

    @property
    def dim(self) -> int:
        return self.right_dim + self.left_dim

    def to_matrix(self) -> np.ndarray:
        """Dense (n+m, n+m) realization; Hermitian by construction."""
        n, m = self.right_dim, self.left_dim
        full = np.zeros((n + m, n + m), dtype=complex)
        full[:n, n:] = self.a_block.conj().T
        full[n:, :n] = self.a_block
        return full


@dataclasses.dataclass(frozen=True)
class DilationVector:
    """State on the dilated space, kept as explicit (top, bottom) blocks.

    The blocks may also be (n, k) and (m, k) arrays holding k states.
    """

    top: np.ndarray
    bottom: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.linalg.norm(self.top) ** 2 + np.linalg.norm(self.bottom) ** 2))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([np.asarray(self.top, dtype=complex), np.asarray(self.bottom, dtype=complex)])

    @classmethod
    def from_vector(cls, vec: np.ndarray, top_dim: int) -> DilationVector:
        vec = np.asarray(vec, dtype=complex)
        if not 0 <= top_dim <= vec.shape[0]:
            raise ValueError(
                f"top block of size {top_dim} does not fit a vector of "
                f"length {vec.shape[0]}"
            )
        return cls(top=vec[:top_dim], bottom=vec[top_dim:])


@dataclasses.dataclass(frozen=True)
class SpectralPair:
    """One +/- eigenvalue pair of a dilation: shared top block, flipped bottom."""

    sigma: float
    plus: DilationVector
    minus: DilationVector


def embed(a: np.ndarray) -> BlockHamiltonian:
    """Wrap a matrix in its off-diagonal Hermitian dilation."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return BlockHamiltonian(a_block=a)


def inject_right(psi: np.ndarray, left_dim: int) -> DilationVector:
    """Place a state, or an (n, k) block of states, in the input (top) block."""
    psi = np.asarray(psi, dtype=complex)
    bottom = np.zeros((left_dim,) + psi.shape[1:], dtype=complex)
    return DilationVector(top=psi, bottom=bottom)


def inject_left(psi: np.ndarray, right_dim: int) -> DilationVector:
    """Place a state, or an (m, k) block of states, in the output (bottom) block."""
    psi = np.asarray(psi, dtype=complex)
    top = np.zeros((right_dim,) + psi.shape[1:], dtype=complex)
    return DilationVector(top=top, bottom=psi)


def _orthonormal_complement(vectors: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the complement of span(columns) inside C^dim.

    Deterministic: SVD of the projector residual with the package phase fix.
    """
    if vectors.shape[1] == 0:
        proj = np.zeros((dim, dim), dtype=complex)
    else:
        proj = vectors @ vectors.conj().T
    residual = np.eye(dim, dtype=complex) - proj
    res = linalg.svd(residual)
    keep = res.singular_values > 0.5
    basis, _ = linalg._fix_column_phases(res.right_vectors[:, keep])
    return basis

def eigenstructure(
    h: BlockHamiltonian, tol: float | None = None
) -> tuple[list[SpectralPair], list[DilationVector]]:
    """Spectral pairs and kernel basis of a dilation.

    Built from the singular triplets of the embedded block: each sigma_j above
    the rank cutoff yields the pair (+sigma_j, -sigma_j) with eigenvectors
    (r_j, +/- l_j)/sqrt(2); everything else is kernel.  The kernel basis has
    |m - n| + 2 * (number of zero singular values) elements, split between
    pure-top vectors (kernel of A) and pure-bottom vectors (kernel of A^dag).

    Returns:
        (pairs, kernel) with pairs ordered by descending sigma and kernel
        listing top-block vectors before bottom-block vectors.
    """
    a = h.a_block
    n, m = h.right_dim, h.left_dim
    res = linalg.svd(a)
    cut = linalg.rank_cutoff(res.singular_values, tol)
    pairs: list[SpectralPair] = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j, sigma in enumerate(res.singular_values):
        if sigma <= cut:
            continue
        r = res.right_vectors[:, j]
        l = res.left_vectors[:, j]
        plus = DilationVector(top=r * inv_sqrt2, bottom=l * inv_sqrt2)
        minus = DilationVector(top=r * inv_sqrt2, bottom=-l * inv_sqrt2)
        pairs.append(SpectralPair(sigma=float(sigma), plus=plus, minus=minus))
    rank = len(pairs)
    kernel: list[DilationVector] = []
    right_kernel = _orthonormal_complement(res.right_vectors[:, :rank], n)
    for j in range(right_kernel.shape[1]):
        kernel.append(inject_right(right_kernel[:, j], m))
    left_kernel = _orthonormal_complement(res.left_vectors[:, :rank], m)
    for j in range(left_kernel.shape[1]):
        kernel.append(inject_left(left_kernel[:, j], n))
    return pairs, kernel
