"""Polar-decomposition primitives realized as spectral transforms of a dilation.

Each operation embeds the target matrix A in its Hermitian dilation, rescales
so the top singular value is 1 (time arguments are rescaled to compensate),
and applies a spectral function, exactly when ``config`` is None and through
the simulated phase-estimation pipeline at ``config.bits`` otherwise:

* sign phase      -> apply the polar (partial) isometry: (psi_R, psi_L) maps
                     to (U^dag psi_L, U psi_R), identity on kernel/cokernel;
* |x| t           -> evolve under the positive factors, e^{-iBt} on the top
                     block and e^{-iB~t} on the bottom;
* parity-extended -> evolve under odd/even singular-value extensions f(A) +
                     f(A)^dag or f(sqrt(A^dag A)) (+) f(sqrt(A A^dag)).

Given an effective condition number kappa_tilde, the sign transform splits
the state into a well-conditioned branch (singular values >= 1/kappa_tilde,
after rescaling) that receives the isometry and a flagged branch left
untouched; ``SpectralFunction.sign_phase`` is where kappa_tilde is checked.

Each call factors its dilation once and computes no oracle (``verify`` holds
those).  A state is a plain (n+m,) vector on the direct sum, input block
first, or an (n+m, k) block of k states, whose diagnostics aggregate over the
columns as ``SimDiagnostics`` describes.  Every call returns what
``spectral.spectral_transform`` returns: the unnormalized (kept, flagged)
branches shaped like the state, flagged all zeros without a flag threshold,
and the diagnostics.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import embedding, linalg, spectral
from .spectral import QPEConfig, SimDiagnostics, SpectralFunction


@dataclasses.dataclass(frozen=True)
class ParityExtension:
    """A function f on sigma >= 0 plus the parity of its extension to the line.

    odd:  g(x) = sign(x) f(|x|), g(0) = 0
    even: g(x) = f(|x|)
    """

    base: Callable[[np.ndarray], np.ndarray]
    parity: str

    def __post_init__(self) -> None:
        if self.parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', got {self.parity!r}")

    def extend(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        fx = np.asarray(self.base(np.abs(x)), dtype=float)
        if self.parity == "odd":
            # zero band keeps float noise around a kernel from leaking f(0)
            sign = np.where(np.abs(x) <= spectral.ZERO_BAND, 0.0, np.sign(x))
            return sign * fx
        return fx


def _prepared(a: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Eigenpairs of the dilation of A/sigma_max and the scale divided out.

    The dilation's spectrum is +/- sigma_j padded with zeros, so one
    eigendecomposition gives both: sigma_max = max |eigenvalue| (1.0 for A = 0).
    """
    w, v = linalg.hermitian_eig(embedding.embed(a))
    scale = float(np.max(np.abs(w), initial=0.0)) or 1.0
    return (w / scale, v), scale


def apply_polar_isometry(
    a: np.ndarray,
    psi: np.ndarray,
    config: QPEConfig | None = None,
    kappa_tilde: float | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Apply the polar (partial) isometry of A through its dilation.

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
    eig, _ = _prepared(a)
    return spectral.spectral_transform(eig, f, psi, config)


def evolve_positive_factor(
    a: np.ndarray,
    t: float,
    psi: np.ndarray,
    config: QPEConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Evolve for time t under the positive polar factors.

    Realizes e^{-iBt} on the top block and e^{-iB~t} on the bottom block,
    B = (A^dag A)^(1/2), B~ = (A A^dag)^(1/2), as the single dilated
    transform e^{-i |H| t}.
    """
    eig, scale = _prepared(a)
    return spectral.spectral_transform(eig, SpectralFunction.abs_times(t * scale), psi, config)


def evolve_generalized(
    a: np.ndarray,
    ext: ParityExtension,
    t: float,
    psi: np.ndarray,
    config: QPEConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Evolve for time t under a parity-extended singular-value function.

    odd parity realizes e^{-i (f(A) + f(A)^dag) t} with
    f(A) = sum_j f(sigma_j) l_j r_j^dag; even parity realizes
    e^{-i f(sqrt(A^dag A)) t} (+) e^{-i f(sqrt(A A^dag)) t}.  The function is
    evaluated at unscaled singular values even though the dilation is
    rescaled internally.
    """
    eig, scale = _prepared(a)

    def phase(x: np.ndarray) -> np.ndarray:
        # band on the rescaled spectrum, where the rank cutoff is calibrated
        x = np.asarray(x, dtype=float)
        banded = np.where(np.abs(x) <= spectral.ZERO_BAND, 0.0, x)
        return ext.extend(banded * scale) * t

    return spectral.spectral_transform(eig, SpectralFunction.tabulated(phase), psi, config)
