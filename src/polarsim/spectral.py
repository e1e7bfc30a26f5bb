"""Spectral-function application, exact or through a simulated phase register.

The transform implemented here sends a state psi to e^{-i f(H)} psi for a
Hermitian H and a scalar function f.  Every route takes H as its
precomputed (eigenvalues, eigenvectors) pair, so the caller factors each
operator once, and states as one vector or a (d, k) block.  Two routes are
provided:

* ``exact_flag_branches`` evaluates f on the true spectrum (the oracle
  route used by every downstream comparison);
* the three-stage pipeline ``qpe_correlate`` -> ``apply_phase_function`` ->
  ``qpe_uncompute`` simulates textbook phase estimation with a b-bit pointer
  register, applies e^{-i f(.)} at the decoded grid values only, and inverts
  the estimation, tracking leakage, flag weight and rounding behavior;
  ``spectral_transform_qpe`` runs it over a block, one state at a time.

Pointer conventions, fixed once here: the walk unitary is
W = e^{2 pi i H / (4 Lambda)}, so for ||H|| <= Lambda the eigenphases live in
[-1/4, 1/4] and two's-complement decoding (phi = c/2^b; estimate = 4 Lambda phi
for phi < 1/2, else 4 Lambda (phi - 1)) recovers signed eigenvalues with a
factor-4 guard band between the sign sectors.  No sampling anywhere: stages
are exact unitaries on the joint statevector.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

_NORM_ATOL = 1e-6

# Signed functions treat |x| at or below this band as zero, mirroring the rank
# cutoff of the classical oracle on the rescaled (top singular value 1) spectrum.
ZERO_BAND = 1e-12


@dataclasses.dataclass(frozen=True)
class QPEConfig:
    """Resolution and scale knobs for the simulated phase register.

    Attributes:
        bits: pointer width b >= 1; the grid has 2^b codes.
        eigenvalue_bound: Lambda with ||H|| <= Lambda expected by the caller.
        kappa_tilde: optional effective condition number; when set, sign-type
            functions route decoded values below 1/kappa_tilde to a flag
            branch instead of evaluating.
    """

    bits: int = 8
    eigenvalue_bound: float = 1.0
    kappa_tilde: float | None = None

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"pointer needs at least one bit, got {self.bits}")
        if self.eigenvalue_bound <= 0:
            raise ValueError("eigenvalue bound must be positive")
        if self.kappa_tilde is not None and self.kappa_tilde <= 1:
            raise ValueError("effective condition number must exceed 1")

    @property
    def grid_size(self) -> int:
        return 2 ** self.bits

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Two's-complement decode of pointer codes to signed eigenvalue estimates."""
        phi = np.asarray(codes, dtype=float) / self.grid_size
        lam = 4.0 * self.eigenvalue_bound * np.where(phi < 0.5, phi, phi - 1.0)
        return lam

    def grid_values(self) -> np.ndarray:
        """Decoded estimates for all codes 0 .. 2^b - 1, in code order."""
        return self.decode(np.arange(self.grid_size))


@dataclasses.dataclass(frozen=True)
class SpectralFunction:
    """Scalar function f with the metadata the phase stage needs.

    ``values`` maps arrays of (decoded or true) eigenvalues to phases f(x);
    ``flag_threshold`` marks sign-type functions that defer inputs with
    |x| < threshold to the flag branch instead of evaluating.
    """

    kind: str
    values: Callable[[np.ndarray], np.ndarray]
    flag_threshold: float | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.values(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def sign_phase(cls, kappa_tilde: float | None = None) -> SpectralFunction:
        """f(x) = (pi/2)(1 - sign(x)) with sign(0) := +1.

        e^{-i f} multiplies negative-eigenvalue components by -1 and leaves
        the rest alone.  Values within ZERO_BAND of zero count as zero, so
        float noise around a kernel cannot flip signs.  With ``kappa_tilde``
        the band |x| < 1/kappa_tilde is flagged rather than signed.
        """
        threshold = None if kappa_tilde is None else 1.0 / kappa_tilde

        def values(x: np.ndarray) -> np.ndarray:
            return (np.pi / 2.0) * (1.0 - np.where(x < -ZERO_BAND, -1.0, 1.0))

        return cls(kind="sign-phase", values=values, flag_threshold=threshold)

    @classmethod
    def abs_times(cls, t: float) -> SpectralFunction:
        """f(x) = |x| t, the positive-factor evolution phase."""
        return cls(kind="abs-times", values=lambda x: np.abs(x) * t)

    @classmethod
    def linear(cls, t: float) -> SpectralFunction:
        """f(x) = x t, plain Hamiltonian evolution (useful as a pipeline check)."""
        return cls(kind="linear", values=lambda x: x * t)

    @classmethod
    def tabulated(cls, fn: Callable[[np.ndarray], np.ndarray]) -> SpectralFunction:
        """Arbitrary f given as a callable; evaluated only where the pipeline asks."""
        return cls(kind="tabulated", values=fn)


@dataclasses.dataclass
class PointerState:
    """Joint system x pointer amplitudes, split into flag branches.

    Both arrays have shape (system dim, 2^bits); flag1 holds the amplitude
    routed away by a thresholded phase stage and is acted on as identity by
    later phase stages.
    """

    flag0: np.ndarray
    flag1: np.ndarray

    @property
    def total_norm(self) -> float:
        return float(
            np.sqrt(np.linalg.norm(self.flag0) ** 2 + np.linalg.norm(self.flag1) ** 2)
        )

    @property
    def flag_weight(self) -> float:
        """Probability carried by the flag=1 branch."""
        return float(np.linalg.norm(self.flag1) ** 2)


@dataclasses.dataclass
class SimDiagnostics:
    """What the simulated pipeline knew about its own accuracy.

    For a (d, k) block of states each field aggregates over the columns: the
    largest leakage, the smallest fidelity and the summed flag probability.

    Attributes:
        leakage_norm: 2-norm of the amplitude not returned to pointer code 0.
        fidelity_vs_exact: overlap with the exact-route output (1.0 when the
            run *is* the exact route).
        flag_probability: squared norm of the flag=1 branch.
        rounding_table: (k, 2) array of (true eigenvalue, decoded estimate at
            the nearest grid code); None for exact runs.
    """

    leakage_norm: float = 0.0
    fidelity_vs_exact: float = 1.0
    flag_probability: float = 0.0
    rounding_table: np.ndarray | None = None


def _check_unit_norm(psi: np.ndarray) -> np.ndarray:
    """One state (d,) or a (d, k) block of states, every column of unit norm."""
    psi = np.asarray(psi, dtype=complex)
    norms = np.linalg.norm(psi, axis=0)
    if not np.all(np.abs(norms - 1.0) <= _NORM_ATOL):
        raise ValueError(f"state must be normalized, got norm {norms}")
    return psi


def exact_flag_branches(
    eig: tuple[np.ndarray, np.ndarray], f: SpectralFunction, psi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply e^{-i f(H)} on the true spectrum of H, split by the flag threshold.

    ``eig`` is the (eigenvalues, eigenvectors) pair of H and ``psi`` one state
    or a (d, k) block.  Returns (kept, flagged) shaped like ``psi``:
    eigencomponents with |eigenvalue| below the flag threshold pass through
    unphased into the flagged part, the rest receive e^{-i f}.  With no
    threshold the flagged part is zero.
    """
    psi = _check_unit_norm(psi)
    w, v = eig
    coeff = v.conj().T @ psi.reshape(w.size, -1)
    if f.flag_threshold is None:
        ill = np.zeros(w.size, dtype=bool)
    else:
        ill = np.abs(w) < f.flag_threshold
    kept = v @ (np.where(ill, 0.0, np.exp(-1j * f(w)))[:, None] * coeff)
    flagged = v @ (ill[:, None] * coeff)
    return kept.reshape(psi.shape), flagged.reshape(psi.shape)


def _pointer_qft(x: np.ndarray) -> np.ndarray:
    """Fourier transform on the pointer axis (axis 1), |k> -> sum_c e^{2pi i ck/N}|c>/sqrt(N)."""
    n = x.shape[1]
    return np.fft.ifft(x, axis=1) * np.sqrt(n)


def _pointer_qft_inverse(x: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    return np.fft.fft(x, axis=1) / np.sqrt(n)


def qpe_correlate(
    eig: tuple[np.ndarray, np.ndarray], psi: np.ndarray, config: QPEConfig
) -> PointerState:
    """Entangle the pointer with the spectrum of H (stage one).

    ``eig`` is the (eigenvalues, eigenvectors) pair of H and ``psi`` one
    state.  Simulates pointer-in-uniform-superposition, controlled powers of
    W = e^{2 pi i H/(4 Lambda)}, inverse Fourier transform on the pointer,
    all as one exact linear map.  Rejects H whose spectrum leaves
    [-Lambda, Lambda].
    """
    psi = _check_unit_norm(psi)
    w, v = eig
    bound = config.eigenvalue_bound
    if np.max(np.abs(w), initial=0.0) > bound * (1.0 + 1e-12):
        raise ValueError("eigenvalue bound violated: max |eigenvalue| > bound")
    n = config.grid_size
    phases = w / (4.0 * bound)
    coeff = v.conj().T @ psi
    k = np.arange(n)
    # rows: eigenindex j, columns: pointer value k after the controlled powers
    correlated = coeff[:, None] * np.exp(2j * np.pi * np.outer(phases, k)) / np.sqrt(n)
    joint = v @ _pointer_qft_inverse(correlated)
    return PointerState(flag0=joint, flag1=np.zeros_like(joint))


def apply_phase_function(
    state: PointerState, f: SpectralFunction, config: QPEConfig
) -> PointerState:
    """Multiply each pointer code by e^{-i f(decoded value)} (stage two).

    Thresholded functions instead move codes with |decoded| < threshold to
    the flag=1 branch unphased.  Amplitude already flagged is left alone.
    """
    grid = config.grid_values()
    phase = np.exp(-1j * f(grid))
    flag0 = state.flag0
    flag1 = state.flag1
    if f.flag_threshold is not None:
        ill = np.abs(grid) < f.flag_threshold
        flag1 = flag1 + flag0 * ill
        flag0 = flag0 * np.where(ill, 0.0, phase)
    else:
        flag0 = flag0 * phase
    return PointerState(flag0=flag0, flag1=flag1)


def _uncompute(
    state: PointerState,
    uncompute_branch: Callable[[np.ndarray], np.ndarray],
    rounding: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Invert stage one on each flag branch and project the pointer onto code 0.

    ``uncompute_branch`` inverts the correlate map on one (d, 2^b) branch;
    each branch's output table is dropped as soon as it is projected.
    """

    def project(branch: np.ndarray) -> tuple[np.ndarray, float]:
        out = uncompute_branch(branch)
        return out[:, 0].copy(), float(np.linalg.norm(out[:, 1:]) ** 2)

    kept, leak_sq = project(state.flag0)
    flagged = np.zeros_like(kept)
    flag_probability = state.flag_weight
    if flag_probability > 0.0:
        flagged, leak_flagged = project(state.flag1)
        leak_sq += leak_flagged
    diag = SimDiagnostics(
        leakage_norm=float(np.sqrt(leak_sq)),
        flag_probability=flag_probability,
        rounding_table=rounding,
    )
    return kept, flagged, diag


def _uncompute_branch(
    branch: np.ndarray, w: np.ndarray, v: np.ndarray, config: QPEConfig
) -> np.ndarray:
    """Inverse of the correlate unitary on one flag branch, computational basis in and out."""
    n = config.grid_size
    k = np.arange(n)
    y = v.conj().T @ branch
    y = _pointer_qft(y)
    y = y * np.exp(-2j * np.pi * np.outer(w / (4.0 * config.eigenvalue_bound), k))
    y = _pointer_qft_inverse(y)
    return v @ y


def qpe_uncompute(
    state: PointerState, eig: tuple[np.ndarray, np.ndarray], config: QPEConfig
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Invert stage one and project the pointer back onto code 0 (stage three).

    Returns the unnormalized flag=0 and flag=1 system vectors (the latter
    zero when the flag branch is empty).  Diagnostics carry the leakage
    (amplitude stuck at nonzero codes), the flag weight and the
    per-eigenvalue rounding table of H under the configured grid.
    """
    w, v = eig
    n = config.grid_size
    codes = np.mod(np.rint(w / (4.0 * config.eigenvalue_bound) * n), n).astype(int)
    rounding = np.column_stack([w, config.decode(codes)])
    return _uncompute(
        state, lambda branch: _uncompute_branch(branch, w, v, config), rounding
    )


def spectral_transform_qpe(
    eig: tuple[np.ndarray, np.ndarray],
    f: SpectralFunction,
    psi: np.ndarray,
    config: QPEConfig,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Full pipeline: correlate, phase at decoded values, uncompute.

    ``psi`` is one state or a (d, k) block; columns ride the pointer one at a
    time, so only one state's (d, 2^b) tables are alive at once.  Returns the
    unnormalized (kept, flagged) parts shaped like ``psi`` and the
    diagnostics, including the overlap with the exact route.
    """
    psi = _check_unit_norm(psi)
    block = psi.reshape(psi.shape[0], -1)
    kept = np.empty_like(block)
    flagged = np.empty_like(block)
    leakage = np.empty(block.shape[1])
    flag_probability = np.empty(block.shape[1])
    for j in range(block.shape[1]):
        kept[:, j], flagged[:, j], diag = qpe_uncompute(
            apply_phase_function(qpe_correlate(eig, block[:, j], config), f, config),
            eig,
            config,
        )
        leakage[j], flag_probability[j] = diag.leakage_norm, diag.flag_probability
    # the flag register is part of the state: stack both branches before the overlap
    got = np.concatenate([kept, flagged])
    exact = np.concatenate(exact_flag_branches(eig, f, block))
    overlap = np.abs(np.sum(exact.conj() * got, axis=0))
    norms = np.linalg.norm(got, axis=0) * np.linalg.norm(exact, axis=0)
    fidelity = np.divide(overlap, norms, out=np.zeros_like(overlap), where=norms > 0)
    diag.fidelity_vs_exact = float(np.min(fidelity))
    diag.leakage_norm = float(np.max(leakage))
    diag.flag_probability = float(np.sum(flag_probability))
    return kept.reshape(psi.shape), flagged.reshape(psi.shape), diag


def qpe_correlate_unitary(
    walk: np.ndarray, psi: np.ndarray, config: QPEConfig
) -> PointerState:
    """Stage one with a black-box walk unitary instead of a Hamiltonian.

    Used when H is only available as an evolution (e.g. a Trotterized
    product): controlled powers are applied literally, column k of the joint
    state receiving walk^k psi.
    """
    psi = _check_unit_norm(psi)
    walk = np.asarray(walk, dtype=complex)
    n = config.grid_size
    d = psi.shape[0]
    columns = np.empty((d, n), dtype=complex)
    current = psi.astype(complex)
    for k in range(n):
        columns[:, k] = current
        if k + 1 < n:
            current = walk @ current
    joint = _pointer_qft_inverse(columns / np.sqrt(n))
    return PointerState(flag0=joint, flag1=np.zeros_like(joint))


def _uncompute_branch_unitary(
    branch: np.ndarray, walk_dag: np.ndarray, config: QPEConfig
) -> np.ndarray:
    n = config.grid_size
    y = _pointer_qft(branch)
    power = np.eye(walk_dag.shape[0], dtype=complex)
    for k in range(n):
        y[:, k] = power @ y[:, k]
        if k + 1 < n:
            power = walk_dag @ power
    return _pointer_qft_inverse(y)


def qpe_uncompute_unitary(
    state: PointerState, walk: np.ndarray, config: QPEConfig
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Stage three for the black-box-unitary pipeline, returning as ``qpe_uncompute``."""
    walk = np.asarray(walk, dtype=complex)
    walk_dag = walk.conj().T
    eigvals = np.linalg.eigvals(walk)
    phi = np.mod(np.angle(eigvals) / (2.0 * np.pi), 1.0)
    n = config.grid_size
    codes = np.mod(np.rint(phi * n), n).astype(int)
    implied = 4.0 * config.eigenvalue_bound * np.where(phi < 0.5, phi, phi - 1.0)
    order = np.argsort(implied, kind="stable")
    rounding = np.column_stack([implied[order], config.decode(codes[order])])
    return _uncompute(
        state, lambda branch: _uncompute_branch_unitary(branch, walk_dag, config), rounding
    )
