"""Spectral-function application, exact or through a simulated phase register.

The transform implemented here sends a state psi to e^{-i f(H)} psi for a
Hermitian H and a scalar function f.  It takes H as its precomputed
(eigenvalues, eigenvectors) pair, so the caller factors each operator once,
and states as one vector or a (d, k) block.  ``spectral_transform`` scales
each eigencomponent by a kept factor g and a flagged factor h:

* without a pointer setting, g and h come from the true spectrum: g =
  e^{-i f} off the flag mask, h the mask, nothing leaks (the exact route);
* with a ``QPEConfig`` they are what textbook phase estimation with a b-bit
  pointer register leaves on pointer code 0 after applying e^{-i f(.)} at
  the decoded grid values only and inverting the estimation.  For each
  eigenpair of H that is one fixed number: ``transfer_function`` evaluates
  it in closed form (the Fejer kernel of phase estimation, weighted by the
  phase table), with the exact leakage.

No pointer register is ever built here: the closed form is the only
simulation of it.  ``verify`` grades it against a literal phase-estimation
circuit on the walk W itself, and no route grades its own output.

A black-box walk W (the procrustes route knows H only through a synthesized
W) enters the same closed form: ``walk_eig`` factors W and returns the
eigenpairs of the H it implies.

Every pointer run refuses a setting of d eigenvalues and 2^b codes whose
d 2^b cells, charged 16 bytes each, and 2^b per-code array entries exceed
``POINTER_BUDGET_BYTES``, before computing anything.

Pointer conventions, fixed once here: callers rescale H to ||H|| <= 1 (top
singular value 1) and the walk unitary is W = e^{2 pi i H / 4}, so the
eigenphases live in [-1/4, 1/4] and two's-complement decoding (phi = c/2^b;
estimate = 4 phi for phi < 1/2, else 4 (phi - 1)) recovers signed eigenvalues
with a factor-4 guard band between the sign sectors.  No sampling anywhere.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

_NORM_ATOL = 1e-6

# Signed functions treat |x| at or below this band as zero, mirroring the rank
# cutoff of the classical oracle on the rescaled (top singular value 1) spectrum.
ZERO_BAND = 1e-12

# Largest pointer run, in (eigenvalue, code) cells at 16 bytes each plus the
# per-code arrays at _POINTER_CODE_BYTES each.
POINTER_BUDGET_BYTES = 2**30

# Peak bytes per code of the closed form's decoded grid, phase table and
# one-row chunk: 80 under tracemalloc at b = 18, 19 and 20, any dimension.
_POINTER_CODE_BYTES = 80

# Largest ||W Q - Q Lambda||_2 a walk's eigenpairs may leave: synthesized DME
# walks measure <= 1.3e-12, a Jordan block (not diagonalizable) 1.
_WALK_RESIDUAL_BOUND = 1e-9

# Eigenvalue rows per chunk of the closed form are sized to about this many
# (eigenvalue, code) cells, so its real temporaries stay near 2 MiB each.
_TRANSFER_CHUNK_CELLS = 2**18


class PointerBudgetError(ValueError):
    """The pointer cells of a run would exceed ``POINTER_BUDGET_BYTES``."""


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
    ``flag_threshold``, set only by ``sign_phase``, defers inputs more than
    ZERO_BAND below it in |x| to the flag branch instead of evaluating (0
    flags none).
    """

    values: Callable[[np.ndarray], np.ndarray]
    flag_threshold: float = 0.0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.values(np.asarray(x, dtype=float)), dtype=float)

    def flags(self, x: np.ndarray) -> np.ndarray:
        """Mask of the inputs deferred to the flag branch.

        A value within ZERO_BAND below the threshold is kept, as the oracle
        ``verify.restricted_isometry`` keeps it, so round-off in two different
        factorizations cannot split a tie at sigma_max/kappa_tilde.
        """
        return np.abs(x) < self.flag_threshold - ZERO_BAND

    @classmethod
    def sign_phase(cls, kappa_tilde: float | None = None) -> SpectralFunction:
        """f(x) = (pi/2)(1 - sign(x)) with sign(0) := +1.

        e^{-i f} multiplies negative-eigenvalue components by -1 and leaves
        the rest alone.  Values within ZERO_BAND of zero count as zero, so
        float noise around a kernel cannot flip signs.  With ``kappa_tilde``
        the band |x| < 1/kappa_tilde is flagged rather than signed (see
        ``flags``).  An effective condition number that is not above 1 (NaN
        included) is refused, and so is one whose threshold is not clear of
        the zero band: the kernel is flagged only while 1/kappa_tilde exceeds
        2 ZERO_BAND.
        """
        if kappa_tilde is not None and not 1 < kappa_tilde < 0.5 / ZERO_BAND:
            raise ValueError(
                "effective condition number must exceed 1 and stay below"
                f" {0.5 / ZERO_BAND:g}, got {kappa_tilde}"
            )
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


@dataclasses.dataclass(frozen=True)
class SimDiagnostics:
    """What a route's factors say about where the amplitude went.

    For a (d, k) block of states each field aggregates over the columns: the
    largest leakage and the summed flag probability.

    Attributes:
        leakage_norm: 2-norm of the amplitude not returned to pointer code 0
            (0 on the exact route).
        flag_probability: squared norm of the flag=1 branch.
    """

    leakage_norm: float = 0.0
    flag_probability: float = 0.0


def _check_unit_norm(psi: np.ndarray) -> np.ndarray:
    """One state (d,) or a (d, k) block of states, every column of unit norm."""
    psi = np.asarray(psi, dtype=complex)
    norms = np.linalg.norm(psi, axis=0)
    if not np.all(np.abs(norms - 1.0) <= _NORM_ATOL):
        raise ValueError(f"state must be normalized, got norm {norms}")
    return psi


def _check_pointer_budget(dim: int, config: QPEConfig) -> None:
    """Refuse a run of ``dim`` eigenvalues on 2^b codes whose cells pass the budget.

    Each (eigenvalue, code) cell is charged 16 bytes, one complex amplitude of
    the pointer table the closed form stands in for.  The closed form never
    builds that table: it walks the cells in chunks, so the count bounds its
    work.  Its arrays (decoded grid, phase table, one chunk) grow with 2^b
    alone and are charged ``_POINTER_CODE_BYTES`` per code.  The check runs
    before any of them is allocated.
    """
    # past 2^64 codes every table is over budget; the cap keeps the product cheap
    needed = (dim * 16 + _POINTER_CODE_BYTES) * 2 ** min(config.bits, 64)
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


def _phase_table(f: SpectralFunction, config: QPEConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stage two per pointer code: the kept-branch factor p0(c) and the 0/1 flag mask m(c)."""
    grid = config.grid_values()
    ill = f.flags(grid)
    return np.where(ill, 0.0, np.exp(-1j * f(grid))), ill.astype(float)


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


def spectral_transform(
    eig: tuple[np.ndarray, np.ndarray],
    f: SpectralFunction,
    psi: np.ndarray,
    config: QPEConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Apply e^{-i f(H)}, split by the flag threshold, exactly or through the pointer.

    ``eig`` is the (eigenvalues, eigenvectors) pair of H and ``psi`` one state
    or a (d, k) block.  Each eigencomponent of every column is scaled by a
    kept factor g and a flagged factor h.  Without ``config`` they come from
    the true spectrum: eigencomponents with |eigenvalue| below the flag
    threshold pass unphased into the flagged part (h = 1, g = 0), the rest
    receive g = e^{-i f} and nothing leaks.  With ``config`` they are the
    ``transfer_function`` factors, which is exactly the three circuit stages
    followed by keeping pointer code 0.  Leakage and flag probability per column are
    the eigenweighted loss and h.  Returns the unnormalized (kept, flagged)
    parts shaped like ``psi`` and the diagnostics.  A state whose length is
    not the dimension of H is refused.
    """
    w, v = eig
    if len(psi) != v.shape[0]:
        raise ValueError(
            f"state has dimension {len(psi)}, the operator has dimension {v.shape[0]}"
        )
    psi = _check_unit_norm(psi)
    if config is None:
        ill = f.flags(w)
        g, h = np.where(ill, 0.0, np.exp(-1j * f(w))), ill.astype(float)
        loss = np.zeros(w.size)
    else:
        _check_spectrum(w, config)
        g, h, loss = transfer_function(w, f, config)
    block = psi.reshape(psi.shape[0], -1)
    coeff = v.conj().T @ block
    weight = np.abs(coeff) ** 2
    kept = v @ (g[:, None] * coeff)
    flagged = v @ (h[:, None] * coeff)
    diag = SimDiagnostics(
        leakage_norm=float(np.max(np.sqrt(loss @ weight))),
        flag_probability=float(np.sum(h @ weight)),
    )
    return kept.reshape(psi.shape), flagged.reshape(psi.shape), diag


def walk_eig(walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (eigenvalues, eigenvectors) pair of the H with W = e^{2 pi i H / 4}.

    The eigenphase phi of each eigenvalue of W decodes as the pointer does
    (4 phi for phi < 1/2, else 4 (phi - 1)); pairs are sorted stably by that
    value and the eigenvectors orthonormalized by one QR.  W is unitary up to
    round-off, so the QR only mixes vectors within one eigenspace.  A W whose
    eigenpairs leave ||W Q - Q Lambda||_2 above ``_WALK_RESIDUAL_BOUND`` is
    not diagonalizable by a unitary and is refused.
    """
    walk = np.asarray(walk, dtype=complex)
    lam, vec = np.linalg.eig(walk)
    phi = np.mod(np.angle(lam) / (2.0 * np.pi), 1.0)
    implied = 4.0 * np.where(phi < 0.5, phi, phi - 1.0)
    order = np.argsort(implied, kind="stable")
    q, _ = np.linalg.qr(vec[:, order])
    residual = float(np.linalg.norm(walk @ q - q * lam[order], ord=2))
    if not residual <= _WALK_RESIDUAL_BOUND:
        raise ValueError(
            f"walk is not unitary: its eigenvectors leave a residual {residual:.3g}"
        )
    return implied[order], q
