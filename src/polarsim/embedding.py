"""Hermitian dilation of a rectangular matrix and states on it.

A general m x n matrix A acting between an input space (dim n) and an output
space (dim m) embeds into the Hermitian operator

    [[0,      A^dag],
     [A,      0    ]]

on the direct sum (input space first), kept as a plain dense array.  Its
nonzero spectrum is +/- sigma_j with eigenvectors (r_j, +/- l_j)/sqrt(2), so
evolving or filtering the dilation realizes singular-value transforms of A
itself; kernel and cokernel vectors of A pad the spectrum with zeros.  Routes
factor the dilation with one ``linalg.hermitian_eig`` and never see the SVD.

The block parity V = P_top - P_bottom is kept as its +/-1 diagonal p, so
V X V is ``p[:, None] * x * p``, as in both product formulas that alternate
an evolution with its V conjugate (``procrustes.dme_step``,
``hsvt.trotter_step``).
"""

from __future__ import annotations

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class DilationVector:
    """State on the dilated space, kept as explicit (top, bottom) blocks.

    The blocks may also be (n, k) and (m, k) arrays holding k states.
    """

    top: np.ndarray
    bottom: np.ndarray

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


def block_parity(split: int, total: int) -> np.ndarray:
    """The +1/-1 diagonal of V = P_top - P_bottom separating the two blocks."""
    p = np.ones(total)
    p[split:] = -1.0
    return p


def embed(a: np.ndarray) -> np.ndarray:
    """The dense (n+m, n+m) dilation [[0, A^dag], [A, 0]] of an (m, n) matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    m, n = a.shape
    full = np.zeros((n + m, n + m), dtype=complex)
    full[:n, n:] = a.conj().T
    full[n:, :n] = a
    return full


def inject_right(psi: np.ndarray, left_dim: int) -> DilationVector:
    """Place a state, or an (n, k) block of states, in the input (top) block."""
    psi = np.asarray(psi, dtype=complex)
    bottom = np.zeros((left_dim,) + psi.shape[1:], dtype=complex)
    return DilationVector(top=psi, bottom=bottom)
