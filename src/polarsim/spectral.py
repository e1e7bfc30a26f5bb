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
  the estimation, tracking leakage, flag weight and rounding behavior.
  Stage three keeps pointer code 0 only, so for each eigenpair of H the
  whole pipeline is one fixed number: ``transfer_function`` evaluates it in
  closed form (the Fejer kernel of phase estimation, weighted by the phase
  table), with the exact leakage, and ``spectral_transform_qpe`` applies it
  to a whole (d, k) block at once.  The explicit stages stay as the
  reference the closed form is graded against.

The black-box walk route (``qpe_correlate_unitary`` ->
``qpe_uncompute_unitary``) knows H only through W and keeps the literal
controlled powers; its stage three evaluates code 0 alone, by Horner's rule
in W^dag.

Every route refuses a pointer whose (d, 2^b) complex table would exceed
``POINTER_BUDGET_BYTES`` before allocating anything.

Pointer conventions, fixed once here: callers rescale H to ||H|| <= 1 (top
singular value 1) and the walk unitary is W = e^{2 pi i H / 4}, so the
eigenphases live in [-1/4, 1/4] and two's-complement decoding (phi = c/2^b;
estimate = 4 phi for phi < 1/2, else 4 (phi - 1)) recovers signed eigenvalues
with a factor-4 guard band between the sign sectors.  No sampling anywhere: stages
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

# Largest (system dim, 2^bits) complex pointer table a run may ask for.
POINTER_BUDGET_BYTES = 2**30

# Eigenvalue rows per chunk of the closed form are sized to about this many
# (eigenvalue, code) cells, so its real temporaries stay near 2 MiB each.
_TRANSFER_CHUNK_CELLS = 2**18


class PointerBudgetError(ValueError):
    """The pointer table of a run would exceed ``POINTER_BUDGET_BYTES``."""


@dataclasses.dataclass(frozen=True)
class QPEConfig:
    """Resolution of the simulated phase register.

    Attributes:
        bits: pointer width b >= 1; the grid has 2^b codes.
    """

    bits: int = 8

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"pointer needs at least one bit, got {self.bits}")

    @property
    def grid_size(self) -> int:
        return 2 ** self.bits

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Two's-complement decode of pointer codes to signed eigenvalue estimates."""
        phi = np.asarray(codes, dtype=float) / self.grid_size
        return 4.0 * np.where(phi < 0.5, phi, phi - 1.0)

    def grid_values(self) -> np.ndarray:
        """Decoded estimates for all codes 0 .. 2^b - 1, in code order."""
        return self.decode(np.arange(self.grid_size))


@dataclasses.dataclass(frozen=True)
class SpectralFunction:
    """Scalar function f with the metadata the phase stage needs.

    ``values`` maps arrays of (decoded or true) eigenvalues to phases f(x);
    ``flag_threshold``, set only by ``sign_phase``, defers inputs with
    |x| < threshold to the flag branch instead of evaluating (0 flags none).
    """

    values: Callable[[np.ndarray], np.ndarray]
    flag_threshold: float = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.values(np.asarray(x, dtype=float)), dtype=float)

    @classmethod
    def sign_phase(cls, kappa_tilde: float | None = None) -> SpectralFunction:
        """f(x) = (pi/2)(1 - sign(x)) with sign(0) := +1.

        e^{-i f} multiplies negative-eigenvalue components by -1 and leaves
        the rest alone.  Values within ZERO_BAND of zero count as zero, so
        float noise around a kernel cannot flip signs.  With ``kappa_tilde``
        the band |x| < 1/kappa_tilde is flagged rather than signed; an
        effective condition number that is not above 1 (NaN included) is
        refused.
        """
        if kappa_tilde is not None and not kappa_tilde > 1:
            raise ValueError(f"effective condition number must exceed 1, got {kappa_tilde}")
        threshold = 0.0 if kappa_tilde is None else 1.0 / kappa_tilde

        def values(x: np.ndarray) -> np.ndarray:
            return (np.pi / 2.0) * (1.0 - np.where(x < -ZERO_BAND, -1.0, 1.0))

        return cls(values=values, flag_threshold=threshold)

    @classmethod
    def abs_times(cls, t: float) -> SpectralFunction:
        """f(x) = |x| t, the positive-factor evolution phase."""
        return cls(values=lambda x: np.abs(x) * t)

    @classmethod
    def linear(cls, t: float) -> SpectralFunction:
        """f(x) = x t, plain Hamiltonian evolution (useful as a pipeline check)."""
        return cls(values=lambda x: x * t)

    @classmethod
    def tabulated(cls, fn: Callable[[np.ndarray], np.ndarray]) -> SpectralFunction:
        """Arbitrary f given as a callable; evaluated only where the pipeline asks."""
        return cls(values=fn)


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


def _check_pointer_budget(dim: int, config: QPEConfig) -> None:
    """Refuse a (dim, 2^b) complex pointer table above the budget, before any is built."""
    # past 2^64 codes every table is over budget; the cap keeps the product cheap
    needed = dim * 16 * 2 ** min(config.bits, 64)
    if needed > POINTER_BUDGET_BYTES:
        raise PointerBudgetError(
            f"a {config.bits}-bit pointer on dimension {dim} exceeds the"
            f" {POINTER_BUDGET_BYTES >> 20} MiB pointer budget"
        )


def _check_spectrum(w: np.ndarray, config: QPEConfig) -> None:
    """The pointer budget, then the eigenvalue bound 1 over the whole spectrum."""
    _check_pointer_budget(w.size, config)
    if np.max(np.abs(w), initial=0.0) > 1.0 + 1e-12:
        raise ValueError("eigenvalue bound violated: max |eigenvalue| > 1")


def _rounding_table(w: np.ndarray, config: QPEConfig) -> np.ndarray:
    """(true eigenvalue, decoded estimate at the nearest grid code) per eigenvalue."""
    n = config.grid_size
    codes = np.mod(np.rint(w / 4.0 * n), n).astype(int)
    return np.column_stack([w, config.decode(codes)])


def _phase_table(f: SpectralFunction, config: QPEConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stage two per pointer code: the kept-branch factor p0(c) and the 0/1 flag mask m(c)."""
    grid = config.grid_values()
    ill = np.abs(grid) < f.flag_threshold
    return np.where(ill, 0.0, np.exp(-1j * f(grid))), ill.astype(float)


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
    W = e^{2 pi i H/4}, inverse Fourier transform on the pointer, all as one
    exact linear map.  Rejects H whose spectrum leaves [-1, 1].
    """
    psi = _check_unit_norm(psi)
    w, v = eig
    _check_spectrum(w, config)
    n = config.grid_size
    phases = w / 4.0
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
    p0, mask = _phase_table(f, config)
    flag1 = state.flag1
    if f.flag_threshold > 0.0:
        flag1 = flag1 + state.flag0 * mask
    return PointerState(flag0=state.flag0 * p0, flag1=flag1)


def _uncompute(
    state: PointerState,
    project: Callable[[np.ndarray], tuple[np.ndarray, float]],
    rounding: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Invert stage one on each flag branch and project the pointer onto code 0.

    ``project`` takes one (d, 2^b) branch to its code-0 system vector and the
    squared norm the inversion leaves on the other codes.
    """
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
    y = y * np.exp(-2j * np.pi * np.outer(w / 4.0, k))
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

    def project(branch: np.ndarray) -> tuple[np.ndarray, float]:
        out = _uncompute_branch(branch, w, v, config)
        return out[:, 0].copy(), float(np.linalg.norm(out[:, 1:]) ** 2)

    return _uncompute(state, project, _rounding_table(w, config))


def transfer_function(
    eigenvalues: np.ndarray, f: SpectralFunction, config: QPEConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-eigenvalue action of correlate -> phase -> uncompute -> keep code 0.

    Stage one puts eigencomponent j on code c with the Fejer weight
    K_jc = [sin(pi N d_jc) / (N sin(pi d_jc))]^2, d_jc = lambda_j/4 - c/N,
    and code 0 of stage three collects every code back with the same weight.
    With p0(c) the kept-branch factor and m(c) the flag mask of stage two,
    returns, one entry per eigenvalue,

    * g = sum_c K p0, the kept amplitude factor;
    * h = sum_c K m, the flagged amplitude factor;
    * loss = sum_c K (|p0 - g|^2 + (m - h)^2), the squared norm stage three
      leaves off code 0.  Summed from nonnegative terms, it stays exact far
      below the round-off of the equal 1 - |g|^2 - |h|^2.
    """
    p0, mask = _phase_table(f, config)
    n = config.grid_size
    # N phi_j is exact (N is a power of two); split it into the nearest code
    # and a remainder, so the wrapped code distance N d_jc = (code - c) + rem
    # is exact where the kernel peaks
    turns = n * (np.asarray(eigenvalues, dtype=float) / 4.0)
    nearest = np.rint(turns)
    rem = turns - nearest
    # sin(pi N d_jc) = +/- sin(pi rem_j) for every c: the numerator is one number per row
    numer = np.sin(np.pi * rem) ** 2
    codes = np.arange(n)
    g = np.empty(turns.size, dtype=complex)
    h = np.empty(turns.size)
    loss = np.empty(turns.size)
    rows = max(1, _TRANSFER_CHUNK_CELLS // n)
    for lo in range(0, turns.size, rows):
        part = slice(lo, lo + rows)
        dist = np.mod(nearest[part, None] - codes + n // 2, n) - n // 2 + rem[part, None]
        denom = (n * np.sin(np.pi / n * dist)) ** 2
        # a distance of exactly zero sits on the code, where the kernel's limit is 1
        kern = np.divide(numer[part, None], denom, out=np.ones_like(denom), where=denom > 0)
        g[part] = kern @ p0.real + 1j * (kern @ p0.imag)
        h[part] = kern @ mask
        off = (p0.real - g[part, None].real) ** 2
        off += (p0.imag - g[part, None].imag) ** 2
        off += (mask - h[part, None]) ** 2
        loss[part] = np.sum(kern * off, axis=1)
    return g, h, loss


def spectral_transform_qpe(
    eig: tuple[np.ndarray, np.ndarray],
    f: SpectralFunction,
    psi: np.ndarray,
    config: QPEConfig,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Full pipeline: correlate, phase at decoded values, uncompute.

    ``psi`` is one state or a (d, k) block.  Each eigencomponent of every
    column is scaled by its ``transfer_function`` factors, which is exactly
    the three stages followed by keeping pointer code 0; leakage and flag
    probability per column are the eigenweighted loss and h.  Returns the
    unnormalized (kept, flagged) parts shaped like ``psi`` and the
    diagnostics, including the overlap with the exact route.
    """
    psi = _check_unit_norm(psi)
    w, v = eig
    _check_spectrum(w, config)
    block = psi.reshape(psi.shape[0], -1)
    g, h, loss = transfer_function(w, f, config)
    coeff = v.conj().T @ block
    weight = np.abs(coeff) ** 2
    kept = v @ (g[:, None] * coeff)
    flagged = v @ (h[:, None] * coeff)
    # the flag register is part of the state: stack both branches before the overlap
    got = np.concatenate([kept, flagged])
    exact = np.concatenate(exact_flag_branches(eig, f, block))
    overlap = np.abs(np.sum(exact.conj() * got, axis=0))
    norms = np.linalg.norm(got, axis=0) * np.linalg.norm(exact, axis=0)
    fidelity = np.divide(overlap, norms, out=np.zeros_like(overlap), where=norms > 0)
    diag = SimDiagnostics(
        leakage_norm=float(np.max(np.sqrt(loss @ weight))),
        fidelity_vs_exact=float(np.min(fidelity)),
        flag_probability=float(np.sum(h @ weight)),
        rounding_table=_rounding_table(w, config),
    )
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
    _check_pointer_budget(psi.shape[0], config)
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


def _project_branch_unitary(
    branch: np.ndarray, walk_dag: np.ndarray
) -> tuple[np.ndarray, float]:
    """Code 0 of the inverse walk correlate map on one branch, and the squared rest.

    Inverting stage one sends column k of the Fourier-transformed branch y
    through W^dag^k, and code 0 of the closing inverse transform is
    sum_k W^dag^k y_k / sqrt(N): Horner's rule in W^dag gives it in N
    mat-vecs.  W is unitary, so whatever is not at code 0 is the rest of the
    branch's norm.
    """
    y = _pointer_qft(branch)
    acc = y[:, -1]
    for k in range(y.shape[1] - 2, -1, -1):
        acc = y[:, k] + walk_dag @ acc
    code0 = acc / np.sqrt(y.shape[1])
    # round-off in a synthesized walk can push a vanishing remainder below zero
    rest = float(np.linalg.norm(branch) ** 2 - np.linalg.norm(code0) ** 2)
    return code0, max(rest, 0.0)


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
    implied = 4.0 * np.where(phi < 0.5, phi, phi - 1.0)
    order = np.argsort(implied, kind="stable")
    rounding = np.column_stack([implied[order], config.decode(codes[order])])
    return _uncompute(
        state, lambda branch: _project_branch_unitary(branch, walk_dag), rounding
    )
