"""Deterministic dense linear algebra used as the classical oracle layer.

Everything downstream (dilations, phase-estimation simulation, learning loops)
checks itself against the functions in this module, so two properties matter
more than speed: calling a function twice on the same matrix must return
bit-identical results, and singular/eigen vectors must carry a fixed phase so
factorizations are comparable across routes.  The phase convention used
throughout: rotate each right singular vector (or eigenvector) so its
largest-magnitude entry is real and positive, breaking magnitude ties by
lowest index.  Left vectors inherit the same rotation, keeping the
reconstruction untouched.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Relative cutoff below which a singular value counts as zero.
RANK_TOL_FACTOR = 1e-12

# Default tolerance for the boolean predicates.
DEFAULT_ATOL = 1e-10


def _as_complex_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _fix_column_phases(
    primary: np.ndarray, follower: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Rotate each column of ``primary`` so its largest-magnitude entry is
    real positive (ties broken by lowest index); apply the same per-column
    rotation to ``follower`` so products like ``follower @ primary.conj().T``
    are unchanged."""
    # argmax returns the first maximum, which is the lowest-index tie rule
    z = primary[np.argmax(np.abs(primary), axis=0), np.arange(primary.shape[1])]
    # hypot rounds as the scalar abs(z) does (the array np.abs may not)
    mag = np.hypot(z.real, z.imag)
    # zero columns keep a unit factor; a (1, k) row multiplies on the same numpy
    # loop as the column-times-scalar product, so results match it bit for bit
    factor = np.where(mag == 0, 1.0, np.conj(z) / np.where(mag == 0, 1.0, mag))[None, :]
    return primary * factor, None if follower is None else follower * factor


@dataclasses.dataclass(frozen=True)
class SVDResult:
    """Economy singular value decomposition A = sum_j s_j l_j r_j^dag.

    Attributes:
        left_vectors: (m, k) orthonormal columns l_j.
        singular_values: (k,) nonnegative, descending, k = min(m, n).
        right_vectors: (n, k) orthonormal columns r_j, phase-fixed.
    """

    left_vectors: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Reassemble the original matrix from the triplets."""
        return (self.left_vectors * self.singular_values) @ self.right_vectors.conj().T


@dataclasses.dataclass(frozen=True)
class PolarFactors:
    """Polar factorization A = isometry @ right_positive = left_positive @ isometry."""

    isometry: np.ndarray
    right_positive: np.ndarray
    left_positive: np.ndarray


def rank_cutoff(singular_values: np.ndarray, tol: float | None = None) -> float:
    """Absolute cutoff: RANK_TOL_FACTOR (or ``tol``) times the largest singular value."""
    factor = RANK_TOL_FACTOR if tol is None else tol
    if singular_values.size == 0:
        return 0.0
    return factor * float(np.max(singular_values))


def svd(a: np.ndarray) -> SVDResult:
    """Deterministic economy SVD with the package phase convention.

    Args:
        a: (m, n) complex matrix with finite entries.

    Returns:
        SVDResult with descending singular values and phase-fixed vectors.
    """
    a = _as_complex_matrix(a)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    v = vh.conj().T
    v, u = _fix_column_phases(v, u)
    return SVDResult(left_vectors=u, singular_values=s, right_vectors=v)


def classical_polar(a: np.ndarray, tol: float | None = None) -> PolarFactors:
    """Polar decomposition via the SVD oracle.

    The isometry sums l_j r_j^dag over singular values above the rank cutoff,
    so for rank-deficient or rectangular input it is a partial isometry on the
    co-kernel.  right_positive = (A^dag A)^(1/2) and
    left_positive = (A A^dag)^(1/2) keep their kernel blocks at zero.
    """
    res = svd(a)
    cut = rank_cutoff(res.singular_values, tol)
    keep = res.singular_values > cut
    l_keep = res.left_vectors[:, keep]
    r_keep = res.right_vectors[:, keep]
    isometry = l_keep @ r_keep.conj().T
    right_positive = (res.right_vectors * res.singular_values) @ res.right_vectors.conj().T
    left_positive = (res.left_vectors * res.singular_values) @ res.left_vectors.conj().T
    return PolarFactors(
        isometry=isometry,
        right_positive=right_positive,
        left_positive=left_positive,
    )


def require_hermitian(h: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """The finite square matrix h as a complex array, refused unless Hermitian.

    h is rejected if ||h - h^dag||_F exceeds ``atol`` scaled by
    max(1, ||h||_F), both norms computed without overflow; the refusal
    reports that ratio, which stays finite where the norm itself would not.
    """
    h = _as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    # both norms are taken on h scaled down by the power of two just above its
    # largest component: exact, and ||h||_F no longer overflows near 1e308
    big = np.abs(np.ascontiguousarray(h).view(float)).max(initial=0.0)
    scale = math.ldexp(1.0, -max(math.frexp(big)[1], 0))
    hs = h * scale if scale < 1.0 else h
    asym = float(np.linalg.norm(hs - hs.conj().T))
    size = max(scale, float(np.linalg.norm(hs)))
    if asym > atol * size:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry norm {asym / size:.3e}"
            " relative to max(1, ||h||_F)"
        )
    return h


def hermitian_eig(h: np.ndarray, atol: float = DEFAULT_ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, ascending, phase-fixed.

    Args:
        h: square matrix, checked by ``require_hermitian`` with ``atol``.

    Returns:
        (eigenvalues, eigenvectors) with eigenvectors in columns.
    """
    h = require_hermitian(h, atol)
    w, v = np.linalg.eigh(h)
    v, _ = _fix_column_phases(v)
    return w, v


def exp_from_eig(eig: tuple[np.ndarray, np.ndarray], t: float) -> np.ndarray:
    """e^{-i h t} from the (eigenvalues, eigenvectors) pair of a Hermitian h."""
    w, v = eig
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def matrix_exp_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-i h t} for Hermitian h, computed in the eigenbasis."""
    return exp_from_eig(hermitian_eig(h), t)


def hermitian_abs(h: np.ndarray) -> np.ndarray:
    """|h| = (h^dag h)^(1/2) for Hermitian h: the spectrum loses its signs.

    Not the nearest positive semidefinite matrix to h, which is (h + |h|)/2.
    """
    w, v = hermitian_eig(h)
    return (v * np.abs(w)) @ v.conj().T


def is_hermitian(a: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    a = _as_complex_matrix(a)
    return a.shape[0] == a.shape[1] and bool(np.allclose(a, a.conj().T, atol=atol, rtol=0.0))


def is_positive_semidefinite(a: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    a = _as_complex_matrix(a)
    if not is_hermitian(a, atol):
        return False
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return bool(np.min(w) >= -atol)
