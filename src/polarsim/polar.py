"""Polar-decomposition primitives realized as spectral transforms of a dilation.

Each operation embeds the target matrix A in its Hermitian dilation, rescales
so the top singular value is 1 (the scale is reported and time arguments are
rescaled to compensate), and applies a spectral function either exactly or
through the simulated phase-estimation pipeline:

* sign phase      -> apply the polar (partial) isometry: (psi_R, psi_L) maps
                     to (U^dag psi_L, U psi_R), identity on kernel/cokernel;
* |x| t           -> evolve under the positive factors, e^{-iBt} on the top
                     block and e^{-iB~t} on the bottom;
* parity-extended -> evolve under odd/even singular-value extensions f(A) +
                     f(A)^dag or f(sqrt(A^dag A)) (+) f(sqrt(A A^dag)).

A thresholded sign function splits the state into a well-conditioned branch
(singular values >= 1/kappa_tilde, after rescaling) that receives the
isometry and a flagged branch left untouched.

Each call factors its dilation once; the state may be a block of k states
(``DilationVector`` with (n, k) and (m, k) blocks), and the diagnostics then
aggregate over the columns as ``SimDiagnostics`` describes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from . import embedding, linalg, spectral
from .embedding import DilationVector
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


@dataclasses.dataclass
class PolarApplyResult:
    """Outcome of one dilated spectral transform.

    Attributes:
        output: flag=0 branch (the transformed state), unnormalized so branch
            weights stay additive.
        flagged: flag=1 branch (identity action), None when no flag path ran.
        diagnostics: accuracy bookkeeping from the engine.
        mode: "exact" or "qpe".
        scale: top singular value divided out of A before embedding.
    """

    output: DilationVector
    flagged: DilationVector | None
    diagnostics: SimDiagnostics
    mode: str
    scale: float


def _prepared(a: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Eigenpairs of the dilation of A/sigma_max and the scale divided out.

    The dilation's spectrum is +/- sigma_j padded with zeros, so one
    eigendecomposition gives both: sigma_max = max |eigenvalue| (1.0 for A = 0).
    """
    w, v = linalg.hermitian_eig(embedding.embed(a).to_matrix())
    scale = float(np.max(np.abs(w), initial=0.0)) or 1.0
    return (w / scale, v), scale


def _run(
    eig: tuple[np.ndarray, np.ndarray],
    scale: float,
    f: SpectralFunction,
    psi: DilationVector,
    mode: str,
    config: QPEConfig | None,
) -> PolarApplyResult:
    """Apply one spectral function of the prepared dilation, exact or simulated."""
    if mode not in ("exact", "qpe"):
        raise ValueError(f"mode must be 'exact' or 'qpe', got {mode!r}")
    n = np.shape(psi.top)[0]
    vec = psi.to_vector()
    if mode == "exact":
        kept, flagged = spectral.exact_flag_branches(eig, f, vec)
        diag = SimDiagnostics(flag_probability=float(np.linalg.norm(flagged) ** 2))
    else:
        cfg = config if config is not None else QPEConfig()
        kept, flagged, diag = spectral.spectral_transform_qpe(eig, f, vec, cfg)
    return PolarApplyResult(
        output=DilationVector.from_vector(kept, n),
        flagged=None
        if f.flag_threshold is None
        else DilationVector.from_vector(flagged, n),
        diagnostics=diag,
        mode=mode,
        scale=scale,
    )


def apply_polar_isometry(
    a: np.ndarray,
    psi: DilationVector,
    mode: str = "exact",
    config: QPEConfig | None = None,
) -> PolarApplyResult:
    """Apply the polar (partial) isometry of A through its dilation.

    On the co-kernel the exact route equals the block map
    (psi_R, psi_L) -> (U^dag psi_L, U psi_R) with U from the classical polar
    factorization; kernel and cokernel components pass through unchanged, or
    are flagged instead when the config carries kappa_tilde.
    """
    if config is not None and config.kappa_tilde is not None:
        return apply_polar_wellconditioned(a, psi, config.kappa_tilde, mode, config)
    eig, scale = _prepared(a)
    return _run(eig, scale, SpectralFunction.sign_phase(), psi, mode, config)


def apply_polar_wellconditioned(
    a: np.ndarray,
    psi: DilationVector,
    kappa_tilde: float,
    mode: str = "exact",
    config: QPEConfig | None = None,
) -> PolarApplyResult:
    """Sign transform restricted to singular values >= 1/kappa_tilde.

    The flag=0 branch carries the isometry action on the well-conditioned
    subspace; the flag=1 branch carries the untouched ill-conditioned
    remainder (including kernel/cokernel).  Branch weights add to the input
    weight in exact mode; in qpe mode the flag is set by the decoded estimate.
    """
    if kappa_tilde <= 1:
        raise ValueError("effective condition number must exceed 1")
    eig, scale = _prepared(a)
    f = SpectralFunction.sign_phase(kappa_tilde=kappa_tilde)
    return _run(eig, scale, f, psi, mode, config)


def evolve_positive_factor(
    a: np.ndarray,
    t: float,
    psi: DilationVector,
    mode: str = "exact",
    config: QPEConfig | None = None,
) -> PolarApplyResult:
    """Evolve for time t under the positive polar factors.

    Realizes e^{-iBt} on the top block and e^{-iB~t} on the bottom block,
    B = (A^dag A)^(1/2), B~ = (A A^dag)^(1/2), as the single dilated
    transform e^{-i |H| t}.
    """
    eig, scale = _prepared(a)
    return _run(eig, scale, SpectralFunction.abs_times(t * scale), psi, mode, config)


def evolve_generalized(
    a: np.ndarray,
    ext: ParityExtension,
    t: float,
    psi: DilationVector,
    mode: str = "exact",
    config: QPEConfig | None = None,
) -> PolarApplyResult:
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

    return _run(eig, scale, SpectralFunction.tabulated(phase), psi, mode, config)
