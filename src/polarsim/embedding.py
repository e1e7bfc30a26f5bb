"""Hermitian dilation of a rectangular matrix.

A general m x n matrix A acting between an input space (dim n) and an output
space (dim m) embeds into the Hermitian operator

    [[0,      A^dag],
     [A,      0    ]]

on the direct sum (input space first), kept as a plain dense array.  Its
nonzero spectrum is +/- sigma_j with eigenvectors (r_j, +/- l_j)/sqrt(2), so
evolving or filtering the dilation realizes singular-value transforms of A
itself; kernel and cokernel vectors of A pad the spectrum with zeros.  Routes
factor the dilation with one ``linalg.hermitian_eig`` and never see the SVD.
A state on the direct sum is a plain (n+m,) vector, or an (n+m, k) block of
k states, with the input block in its first n rows.

The block parity V = P_top - P_bottom is kept as its +/-1 diagonal p, so
V X V is ``p[:, None] * x * p``, as in both product formulas that alternate
an evolution with its V conjugate (``procrustes.dme_step``,
``hsvt.trotter_step``).
"""

from __future__ import annotations

import numpy as np


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
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    m, n = a.shape
    full = np.zeros((n + m, n + m), dtype=complex)
    full[:n, n:] = a.conj().T
    full[n:, :n] = a
    return full


def inject_right(psi: np.ndarray, left_dim: int) -> np.ndarray:
    """Place a state, or an (n, k) block of states, in the input (top) block.

    Returns the state zero-padded with ``left_dim`` output rows.
    """
    psi = np.asarray(psi, dtype=complex)
    return np.concatenate([psi, np.zeros((left_dim,) + psi.shape[1:], dtype=complex)])
