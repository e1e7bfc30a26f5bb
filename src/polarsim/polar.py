"""Polar-decomposition primitives realized as spectral transforms of a dilation.

``dilation(a)`` embeds the target matrix A in its Hermitian dilation
H = embed(A) and factors it once; every primitive takes that ``Dilation``,
rescales the spectrum so the top singular value is 1 (``evolve`` undoes the
scale before reading its g), and applies a spectral function, exactly when
``config`` is None and through the simulated phase-estimation pipeline at
``config.bits`` otherwise:

* ``apply_polar_isometry``, the sign phase: (psi_R, psi_L) maps to
  (U^dag psi_L, U psi_R), identity on kernel/cokernel;
* ``evolve``, g(x) t for a real g of the signed, unscaled dilation
  eigenvalue: |x| evolves under the positive factors (e^{-iBt} on the top
  block, e^{-iB~t} on the bottom), x is plain e^{-iHt}, and an odd or even
  extension of a singular-value function f is sign(x) f(|x|) or f(|x|).

Given an effective condition number kappa_tilde, the sign transform splits
the state into a well-conditioned branch (singular values >= 1/kappa_tilde,
after rescaling) that receives the isometry and a flagged branch left
untouched: ``SpectralFunction.sign_phase`` checks kappa_tilde and gives that
band the amplitude pair (0, 1).

A caller factors each operator once and hands the ``Dilation`` to every
primitive it runs on it; no primitive factors anything or computes an oracle
(``verify.graded_run`` pairs a route with one).  A state is a plain (n+m,)
vector on the direct sum, input block first, or an (n+m, k) block of k
states, whose diagnostics aggregate over the columns as ``SimDiagnostics``
describes.  Every call returns what ``spectral.spectral_transform`` returns:
the unnormalized (kept, flagged) branches shaped like the state, flagged all
zeros without a flag threshold, and the diagnostics.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import embedding, linalg, spectral
from .spectral import QPEConfig, SimDiagnostics, SpectralFunction


@dataclasses.dataclass(frozen=True)
class Dilation:
    """The dilation H = embed(A) of an (m, n) matrix A, factored once.

    Attributes:
        eig: H's unscaled (eigenvalues, eigenvectors) from one
            ``linalg.hermitian_eig``; ``linalg.exp_from_eig(eig, t)`` is e^{-iHt}.
        scale: sigma_max = max |eigenvalue| (1.0 for A = 0), divided out by
            every primitive.
    """

    eig: tuple[np.ndarray, np.ndarray]
    scale: float


def dilation(a: np.ndarray) -> Dilation:
    """Factor the dilation of A: its spectrum is +/- sigma_j padded with zeros,
    so one eigendecomposition gives the eigenpairs and sigma_max."""
    w, v = linalg.hermitian_eig(embedding.embed(a))
    return Dilation(eig=(w, v), scale=float(np.max(np.abs(w), initial=0.0)) or 1.0)


def _rescaled(dil: Dilation) -> tuple[np.ndarray, np.ndarray]:
    w, v = dil.eig
    return w / dil.scale, v


def apply_polar_isometry(
    dil: Dilation,
    psi: np.ndarray,
    config: QPEConfig | None = None,
    kappa_tilde: float | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Apply the polar (partial) isometry of A through its dilation ``dil``.

    On the co-kernel the exact route equals the block map
    (psi_R, psi_L) -> (U^dag psi_L, U psi_R) with U from the classical polar
    factorization; kernel and cokernel components pass through unchanged.
    With ``kappa_tilde`` the isometry acts on singular values
    >= sigma_max/kappa_tilde only: the flag=1 branch carries the untouched
    rest (kernel and cokernel included), the branch weights add to the input
    weight on the exact route, and with a ``config`` the decoded estimate
    sets the flag.
    """
    f = SpectralFunction.sign_phase(kappa_tilde)
    return spectral.spectral_transform(_rescaled(dil), f, psi, config)


def evolve(
    dil: Dilation,
    g: Callable[[np.ndarray], np.ndarray],
    t: float,
    psi: np.ndarray,
    config: QPEConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Evolve for time t under g of the dilation: e^{-i g(H) t}, ``dil`` of H = embed(A).

    g is a real function of H's signed, unscaled eigenvalues +/- sigma_j and
    the zeros padding them: the internal rescale is undone before g reads
    them.  ``np.abs`` realizes e^{-iBt} on the top
    block and e^{-iB~t} on the bottom, B = (A^dag A)^(1/2) and
    B~ = (A A^dag)^(1/2); the identity realizes e^{-iHt}.  An odd extension
    sign(x) f(|x|) realizes e^{-i (f(A) + f(A)^dag) t} with
    f(A) = sum_j f(sigma_j) l_j r_j^dag, an even one f(|x|) realizes
    e^{-i f(B) t} (+) e^{-i f(B~) t}.  Eigenvalues within ZERO_BAND of zero on
    the rescaled spectrum, where the rank cutoff is calibrated, are read as 0.
    """
    def phase(x: np.ndarray) -> np.ndarray:
        return g(np.where(np.abs(x) <= spectral.ZERO_BAND, 0.0, x) * dil.scale) * t

    return spectral.spectral_transform(_rescaled(dil), SpectralFunction.phase(phase), psi, config)
