"""Singular-value transforms of the off-diagonal block of a split Hamiltonian.

When a Hermitian M = [[D, A^dag], [A, D~]] is available only as a whole, the
off-diagonal part can be isolated algebraically, (M - V M V)/2 with
V = P_top - P_bottom, or dynamically, by interleaving forward and
V-conjugated backward evolutions of M.  Either way the surviving operator is
the plain dilation of A: a singular-value transform of the coupling is any
``polar`` primitive applied to ``isolate_offdiagonal(sh).a_block``, and the
diagonal blocks never matter.  V is the +/-1 diagonal of
``embedding.block_parity``; the Trotter product is graded and applied by
``embedding.product_formula_evolution``, as density exponentiation is.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import embedding, linalg
from .embedding import BlockHamiltonian, DilationVector, TrotterReport, block_parity


@dataclasses.dataclass(frozen=True)
class SplitHamiltonian:
    """A Hermitian matrix with a declared block split.

    Attributes:
        matrix: (n+m, n+m) Hermitian.
        split: n, the dimension of the top block.
    """

    matrix: np.ndarray
    split: int

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not (0 < self.split < mat.shape[0]):
            raise ValueError(
                f"split must cut the matrix into two nonempty blocks, got {self.split}"
            )
        if not linalg.is_hermitian(mat, atol=1e-10):
            asym = float(np.linalg.norm(mat - mat.conj().T))
            raise ValueError(f"matrix is not Hermitian: asymmetry norm {asym:.3e}")
        object.__setattr__(self, "matrix", mat)

    @property
    def top_dim(self) -> int:
        return self.split

    @property
    def bottom_dim(self) -> int:
        return self.matrix.shape[0] - self.split

    @property
    def coupling_block(self) -> np.ndarray:
        """The (m, n) lower-left block A."""
        return self.matrix[self.split :, : self.split]

    def parity(self) -> np.ndarray:
        """The +1/-1 diagonal of V = P_top - P_bottom for this split."""
        return block_parity(self.split, self.matrix.shape[0])


def isolate_offdiagonal(sh: SplitHamiltonian) -> BlockHamiltonian:
    """Exact algebraic isolation (M - V M V)/2 of the off-diagonal coupling.

    The diagonal blocks cancel identically (entrywise zero up to float
    subtraction, which is exact here), leaving the dilation of A.
    """
    p = sh.parity()
    isolated = (sh.matrix - p[:, None] * sh.matrix * p) / 2.0
    return embedding.embed(isolated[sh.split :, : sh.split])


def trotter_offdiagonal_evolution(
    sh: SplitHamiltonian,
    t: float,
    n_steps: int,
    psi: DilationVector,
) -> tuple[DilationVector, TrotterReport]:
    """Dynamically evolve under the off-diagonal part using only +/- M and V.

    Each step applies e^{-i M dt/2} V e^{+i M dt/2} V with dt = t/n_steps;
    the product converges to e^{-i t (M - V M V)/2}.  M is factored once: with
    F = e^{-i M dt/2} the backward half is F^dag, so a step is F (V F^dag V).
    When M commutes with V (no coupling) every step is exactly the identity.
    The report carries the operator-norm deviation of the product from the
    exact target.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dt = t / n_steps
    forward = linalg.matrix_exp_hermitian(sh.matrix, dt / 2.0)
    p = sh.parity()
    step = forward @ (p[:, None] * forward.conj().T * p)
    target = linalg.matrix_exp_hermitian(isolate_offdiagonal(sh).to_matrix(), t)
    return embedding.product_formula_evolution(
        step, n_steps, dt, target, psi, sh.top_dim
    )

