"""Singular-value transforms of the off-diagonal block of a split Hamiltonian.

When a Hermitian M = [[D, A^dag], [A, D~]] is available only as a whole, the
off-diagonal part can be isolated algebraically, (M - V M V)/2 with
V = P_top - P_bottom, or dynamically, by interleaving forward and
V-conjugated backward evolutions of M.  Either way the surviving operator is
the plain dilation of A: a singular-value transform of the coupling is any
``polar`` primitive applied to ``polar.dilation(isolate_offdiagonal(sh))``,
and the diagonal blocks never matter.  V is the +/-1 diagonal of
``embedding.block_parity``.  The Trotter product is graded as an operator,
step^n against the exact evolution, as density exponentiation is; no state is
evolved.  That exact evolution comes from the same factored dilation the
transforms take: it grades the Trotter product, never the transform, so one
factorization of the coupling serves both.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg, polar
from .embedding import block_parity


@dataclasses.dataclass(frozen=True)
class SplitHamiltonian:
    """A Hermitian matrix with a declared block split.

    Attributes:
        matrix: (n+m, n+m), Hermitian by ``linalg.require_hermitian``.
        split: n, the dimension of the top block.
    """

    matrix: np.ndarray
    split: int

    def __post_init__(self) -> None:
        mat = linalg.require_hermitian(self.matrix)
        if not (0 < self.split < mat.shape[0]):
            raise ValueError(
                f"split must cut the matrix into two nonempty blocks, got {self.split}"
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def top_dim(self) -> int:
        return self.split

    @property
    def bottom_dim(self) -> int:
        return self.matrix.shape[0] - self.split

    def parity(self) -> np.ndarray:
        """The +1/-1 diagonal of V = P_top - P_bottom for this split."""
        return block_parity(self.split, self.matrix.shape[0])


def isolate_offdiagonal(sh: SplitHamiltonian) -> np.ndarray:
    """The (m, n) coupling block A, isolated algebraically as M/2 - V (M/2) V.

    The diagonal blocks cancel identically (float subtraction of equal
    numbers is exact), leaving the dilation of A; its lower-left block is A.
    Halving before subtracting keeps every finite entry finite, where
    (M - V M V)/2 would overflow at 2A.
    """
    p = sh.parity()
    half = sh.matrix / 2.0
    isolated = half - p[:, None] * half * p
    return isolated[sh.split :, : sh.split]


def trotter_step(sh: SplitHamiltonian, dt: float) -> np.ndarray:
    """One step e^{-i M dt/2} V e^{+i M dt/2} V built from +/- M and V alone.

    The product of steps converges to e^{-i t (M - V M V)/2}.  M is factored
    once: with F = e^{-i M dt/2} the backward half is F^dag, so a step is
    F (V F^dag V).  When M commutes with V (no coupling) the step is exactly
    the identity.
    """
    forward = linalg.matrix_exp_hermitian(sh.matrix, dt / 2.0)
    p = sh.parity()
    return forward @ (p[:, None] * forward.conj().T * p)


def trotter_offdiagonal_evolution(
    sh: SplitHamiltonian, coupling: polar.Dilation, t: float, n_steps: int
) -> float:
    """Operator-norm deviation of n_steps Trotter steps from the exact evolution.

    The steps have dt = t/n_steps, and the exact evolution is that of the
    isolated off-diagonal part, e^{-i t embed(A)}, formed from ``coupling``,
    which must be ``polar.dilation(isolate_offdiagonal(sh))``.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    step = trotter_step(sh, t / n_steps)
    target = linalg.exp_from_eig(coupling.eig, t)
    return float(np.linalg.norm(np.linalg.matrix_power(step, n_steps) - target, ord=2))
