"""Desk-scale statevector simulator for polar-decomposition pipelines.

The package splits into a classical oracle layer (``linalg``), the Hermitian
dilation (``embedding``), the one spectral transform, exact or through a
simulated phase register (``spectral``), the user-facing transforms
(``polar``: the dilation factored once, the polar isometry and ``evolve``,
e^{-i g(H) t} for any real g of the dilation's signed eigenvalues), and
three applications built on them (``procrustes``, ``pgm``, ``hsvt``).
``verify`` holds the oracles every route is graded against and the
deterministic invariant battery, and ``cli`` the command-line front end.
A state on the dilation is a plain (n+m,) array or an (n+m, k) block, input
block first, and every ``polar`` route returns the (kept, flagged,
diagnostics) triple of ``spectral.spectral_transform``.
"""

from __future__ import annotations

from .embedding import embed
from .hsvt import SplitHamiltonian, isolate_offdiagonal
from .linalg import PolarFactors, SVDResult, classical_polar, svd
from .pgm import PGMInstance, density_matrix, pgm_probabilities, pgm_vectors, pgm_via_polar
from .polar import Dilation, apply_polar_isometry, dilation, evolve
from .procrustes import (
    ProcrustesInstance,
    apply_procrustes_quantum,
    solve_procrustes_classical,
)
from .spectral import QPEConfig, SimDiagnostics, SpectralFunction
from .verify import ItemResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "Dilation",
    "ItemResult",
    "PGMInstance",
    "PolarFactors",
    "ProcrustesInstance",
    "QPEConfig",
    "SVDResult",
    "SimDiagnostics",
    "SpectralFunction",
    "SplitHamiltonian",
    "apply_polar_isometry",
    "apply_procrustes_quantum",
    "classical_polar",
    "density_matrix",
    "dilation",
    "embed",
    "evolve",
    "isolate_offdiagonal",
    "pgm_probabilities",
    "pgm_vectors",
    "pgm_via_polar",
    "run_suite",
    "solve_procrustes_classical",
    "svd",
    "__version__",
]
