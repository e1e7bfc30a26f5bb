"""Spectral-function application, exact or through a simulated phase register.

A spectral function maps each eigenvalue x of a Hermitian H to an amplitude
pair (a(x), b(x)), kept and flagged, with |a|^2 + |b|^2 <= 1.  The
transform takes H as its precomputed (eigenvalues, eigenvectors) pair, so
the caller factors each operator once, and states as one vector or a (d, k)
block.  ``spectral_transform`` scales each eigencomponent by a kept factor
g and a flagged factor h:

* without a pointer setting, (g, h) is the pair at the true spectrum and
  nothing leaks (the exact route);
* with a ``QPEConfig`` they are what textbook phase estimation with a b-bit
  pointer register leaves on pointer code 0 after applying the pair at the
  decoded grid values only and inverting the estimation.  For each
  eigenpair of H that is one fixed number: ``transfer_function`` evaluates
  it in closed form (the Fejer kernel of phase estimation, weighted by the
  pair), with the exact leakage and no sine per (eigenvalue, code) cell.

No pointer register is ever built here: the closed form is the only
simulation of it.  ``verify`` grades it against a literal phase-estimation
circuit on the walk W itself, and no route grades its own output.

A black-box walk W (the procrustes route knows H only through a synthesized
W) enters the same closed form: ``walk_eig`` returns the eigenpairs of the H
it implies from one Hermitian ``eigh`` of W's Cayley transform.

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

# Peak bytes per code of the closed form: its real factor rows (8 for each of
# Re a, Im a and b that is nonzero somewhere, at most 24), sine and cosine
# tables (32) and one-row chunk of both windows (16): 72 under tracemalloc at
# b = 18 and 20 for a complex flagged table, 56 for an unflagged sign table.
_POINTER_CODE_BYTES = 72

# Largest ||W Q - Q e^{i theta}||_F a walk's eigenpairs may leave.  The
# Frobenius norm bounds the 2-norm, so nothing the 2-norm would refuse passes.
# 64-dim DME walks (50 realizable 32,32,48 instances, 200 steps) measure
# <= 3.6e-12; a Jordan block (not diagonalizable) 0.73, and 2 I (normal, not
# unitary) 1.7.
_WALK_RESIDUAL_BOUND = 1e-9

# Eigenvalue rows per chunk of the closed form are sized to about this many
# (eigenvalue, code) cells, so its two real (rows x N) buffers stay near
# 256 KiB each and the chunk's working set fits in L2.
_TRANSFER_CHUNK_CELLS = 2**15


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

    def grid_values(self) -> np.ndarray:
        """Two's-complement decode of codes 0 .. 2^b - 1 to signed eigenvalue estimates."""
        phi = np.arange(self.grid_size, dtype=float) / self.grid_size
        return 4.0 * np.where(phi < 0.5, phi, phi - 1.0)


@dataclasses.dataclass(frozen=True)
class SpectralFunction:
    """The amplitude map x -> (a(x), b(x)) every route reads, exact or pointer.

    ``amplitudes`` maps an array of (true or decoded) eigenvalues to the
    complex kept factor a and the real flagged factor b, |a|^2 + |b|^2 <= 1;
    any norm the pair leaves out is a conditional rotation's failure branch.
    """

    amplitudes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    @classmethod
    def sign_phase(cls, kappa_tilde: float | None = None) -> SpectralFunction:
        """(sign(x), 0) with sign(0) := +1, a complex array exactly real.

        The kept factor multiplies negative-eigenvalue components by -1 and
        leaves the rest alone; it is the phase e^{-i (pi/2)(1 - sign(x))}
        without that exponential's e^{-i pi} round-off, so every table of it
        has an imaginary part of exactly 0.  Values within ZERO_BAND of zero
        count as zero, so float noise around a kernel cannot flip signs.
        With ``kappa_tilde`` the band |x| < 1/kappa_tilde - ZERO_BAND is
        flagged, (0, 1), rather than signed: a tie at sigma_max/kappa_tilde
        is kept on both sides of round-off, as ``verify.restricted_isometry``
        keeps it.  An effective condition number that is not above 1 (NaN
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

        def amplitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            flag = np.abs(x) < threshold - ZERO_BAND
            sign = np.where(x < -ZERO_BAND, -1.0, 1.0)
            return np.where(flag, 0.0, sign).astype(complex), flag.astype(float)

        return cls(amplitudes)

    @classmethod
    def phase(cls, f: Callable[[np.ndarray], np.ndarray]) -> SpectralFunction:
        """(e^{-i f(x)}, 0) for a real phase f: an evolution, nothing flagged."""
        return cls(lambda x: (np.exp(-1j * f(x)), np.zeros(np.shape(x))))


@dataclasses.dataclass(frozen=True)
class SimDiagnostics:
    """What a route's factors say about where the amplitude went.

    For a (d, k) block of states each field aggregates over the columns: the
    largest leakage and the summed flag probability.

    Attributes:
        leakage_norm: 2-norm of the amplitude not returned to pointer code 0
            (0 on the exact route).
        flag_probability: squared norm of the flag=1 branch over all pointer
            codes, sum_j |c_j|^2 sum_c K_jc b_c^2 (b(lambda_j)^2 if exact).
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
    work.  Its arrays (factor rows, sine and cosine tables, one chunk) grow
    with 2^b alone and are charged ``_POINTER_CODE_BYTES`` per code.  The
    check runs before any of them is allocated.
    """
    # past 2^64 codes every table is over budget; the cap keeps the product cheap
    needed = (dim * 16 + _POINTER_CODE_BYTES) * 2 ** min(config.bits, 64)
    if needed > POINTER_BUDGET_BYTES:
        raise PointerBudgetError(
            f"a {config.bits}-bit pointer on dimension {dim} exceeds the"
            f" {POINTER_BUDGET_BYTES >> 20} MiB pointer budget"
        )


def _check_spectrum(w: np.ndarray, config: QPEConfig) -> None:
    """The pointer budget, then the eigenvalue bound 1 over the whole spectrum.

    A NaN eigenvalue fails the bound too, so the closed form never decodes one.
    """
    _check_pointer_budget(w.size, config)
    if not np.max(np.abs(w), initial=0.0) <= 1.0 + 1e-12:
        raise ValueError("eigenvalue bound violated: max |eigenvalue| > 1 or not finite")


def transfer_function(
    eigenvalues: np.ndarray, f: SpectralFunction, config: QPEConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-eigenvalue action of correlate -> amplitudes -> uncompute -> keep code 0.

    Stage one puts eigencomponent j on code c with the Fejer weight
    K_jc = [sin(pi N d_jc) / (N sin(pi d_jc))]^2, d_jc = lambda_j/4 - c/N,
    and code 0 of stage three collects every code back with the same weight.
    With (a(c), b(c)) = ``f.amplitudes`` at the decoded grid, stage two's
    kept and flagged factors, returns, one entry per eigenvalue,

    * g = sum_c K a, the kept amplitude factor;
    * h = sum_c K b, the flagged amplitude factor;
    * loss = sum_c K (|a - g|^2 + (b - h)^2), the squared norm stage three
      leaves off code 0.  Summed from nonnegative terms, it stays exact far
      below the round-off of the equal 1 - |g|^2 - |h|^2;
    * flag = sum_c K b^2, the flag branch's weight: h itself for a 0/1 mask.

    No sine is taken per (eigenvalue, code) cell.  With N d_jc = D_jc + rem_j,
    D_jc the wrapped integer distance to the nearest code, angle addition
    splits the denominator's N sin(pi d_jc) into [N sin(pi D / N)] and
    [N cos(pi D / N)], read from two tables of 2N - 1 entries built once per
    call, times per-row factors cos(pi rem_j / N) and sin(pi rem_j / N).  Row
    j's codes are one contiguous window of each table.  A factor row (Re a,
    Im a or b) that is 0 on every code sums to exactly 0 and adds exactly 0
    to the loss, so it is not formed: the rows kept give the same bits as all
    three.  A sign table, exactly real, forms no Im a row, and an unflagged
    one no b row; when b is 0 on every code, h and flag are exactly 0.
    """
    n = config.grid_size
    # N phi_j is exact (N is a power of two); split it into the nearest code
    # and a remainder, so the wrapped code distance N d_jc = D_jc + rem_j, with
    # D_jc = wrap(nearest_j - c) in [-N/2, N/2), is exact where the kernel peaks
    turns = n * (np.asarray(eigenvalues, dtype=float) / 4.0)
    g = np.zeros(turns.size, dtype=complex)
    h = np.zeros(turns.size)
    a, b = f.amplitudes(config.grid_values())
    b = np.ascontiguousarray(b, dtype=float)
    fractional = not np.array_equal(b * b, b)
    # the contiguous real factor rows, each with the amplitude it sums to
    rows = [
        (np.ascontiguousarray(row, dtype=float), amp)
        for row, amp in ((a.real, g.real), (a.imag, g.imag), (b, h))
        if row.any()
    ]
    flag_row = b if fractional else None  # the b row itself, not a copy
    del a, b
    nearest = np.rint(turns)
    rem = turns - nearest
    # sin(pi N d_jc) = +/- sin(pi rem_j) for every c: the numerator is one number per row
    numer = np.sin(np.pi * rem) ** 2
    shift = np.pi / n * rem
    sin_rem, cos_rem = np.sin(shift), np.cos(shift)
    # a distance of exactly zero sits on the code, where the kernel's limit is 1
    # and every other weight 0: such a row takes that code's factors after the
    # loop, and a zero numerator keeps its division there at 0/0, never inf
    on_code = (n * sin_rem) ** 2 == 0
    numer[on_code] = 0.0
    # entry k of the tables is taken at D = wrap(N - 1 - k), so |pi D / N| <= pi/2;
    # they repeat after N entries, and row j reads codes 0 .. N-1 from the
    # window at N - 1 - (nearest_j mod N)
    start = np.mod(n - 1 - nearest, n).astype(np.intp)
    table = np.empty((2, 2 * n - 1))
    angle = table[0, :n]
    angle[:] = np.arange(n - 1, -1, -1.0)
    angle[: n // 2] -= n
    angle *= np.pi / n
    np.cos(angle, out=table[1, :n])
    np.sin(angle, out=angle)
    table[:, :n] *= n
    table[:, n:] = table[:, : n - 1]
    step = table.strides[1]
    windows = np.lib.stride_tricks.as_strided(
        table, (2, n, n), (table.strides[0], step, step), writeable=False
    )
    flag = np.empty(turns.size) if fractional else h
    loss = np.zeros(turns.size)
    chunk = max(1, _TRANSFER_CHUNK_CELLS // n)
    for lo in range(0, turns.size, chunk):
        part = slice(lo, lo + chunk)
        # the chunk's one (eigenvalues x N) allocation: both windows of every row
        kern, tmp = windows[:, start[part]]
        kern *= cos_rem[part, None]
        tmp *= sin_rem[part, None]
        kern += tmp
        np.square(kern, out=kern)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(numer[part, None], kern, out=kern)
        for row, amp in rows:
            amp[part] = kern @ row
            np.subtract(row, amp[part, None], out=tmp)
            np.square(tmp, out=tmp)
            loss[part] += np.einsum("ij,ij->i", kern, tmp)
        if fractional:  # b^2 in the chunk's spent buffer, so the weight costs no memory
            flag[part] = kern @ np.square(flag_row, out=tmp[0])
        del kern, tmp  # released before the next chunk is gathered
    if on_code.any():
        code = n - 1 - start[on_code]
        for row, amp in rows:
            amp[on_code] = row[code]
        if fractional:
            flag[on_code] = np.square(flag_row[code])
        loss[on_code] = 0.0
    return g, h, loss, flag


def spectral_transform(
    eig: tuple[np.ndarray, np.ndarray],
    f: SpectralFunction,
    psi: np.ndarray,
    config: QPEConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, SimDiagnostics]:
    """Apply the amplitude pair of ``f`` to H's eigencomponents, exactly or through the pointer.

    ``eig`` is the (eigenvalues, eigenvectors) pair of H and ``psi`` one state
    or a (d, k) block.  Each eigencomponent of every column is scaled by a
    kept factor g and a flagged factor h.  Without ``config`` they are
    ``f.amplitudes`` at the true spectrum, (g, h) = (a, b), and nothing
    leaks.  With ``config`` they are the ``transfer_function`` factors,
    which is exactly the three circuit stages followed by keeping pointer
    code 0.  Leakage and flag probability per column are the eigenweighted
    loss and flag weight (b^2 on the exact route).  Returns the unnormalized
    (kept, flagged) parts shaped like ``psi`` and the diagnostics.  When h
    is 0 on every eigenvalue (every evolution, every unflagged sign run) the
    flagged part is exactly zero and is not multiplied out.  A state whose
    length is not the dimension of H is refused.
    """
    w, v = eig
    if len(psi) != v.shape[0]:
        raise ValueError(
            f"state has dimension {len(psi)}, the operator has dimension {v.shape[0]}"
        )
    psi = _check_unit_norm(psi)
    if config is None:
        g, h = f.amplitudes(w)
        loss, flag = np.zeros(w.size), h * h
    else:
        _check_spectrum(w, config)
        g, h, loss, flag = transfer_function(w, f, config)
    block = psi.reshape(psi.shape[0], -1)
    coeff = v.conj().T @ block
    weight = np.abs(coeff) ** 2
    kept = v @ (g[:, None] * coeff)
    # h is 0 on every eigenvalue for an evolution and an unflagged sign run
    flagged = v @ (h[:, None] * coeff) if h.any() else np.zeros_like(kept)
    diag = SimDiagnostics(
        leakage_norm=float(np.max(np.sqrt(loss @ weight))),
        flag_probability=float(np.sum(flag @ weight)),
    )
    return kept.reshape(psi.shape), flagged.reshape(psi.shape), diag


def walk_eig(walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (eigenvalues, eigenvectors) pair of the H with W = e^{2 pi i H / 4}.

    For H in [-1, 1] the eigenphases theta = pi x / 2 of W lie in
    [-pi/2, pi/2], where I + W is well conditioned (||(I + W)^{-1}||_2 <=
    1/sqrt(2) for a unitary W).  There the Cayley transform
    C = i (I + W)^{-1} (I - W) is Hermitian, with eigenvalues tan(theta/2) on
    the eigenvectors of W.  One solve forms C and one ``eigh`` of its
    Hermitian part gives tan(theta/2) ascending and the eigenvectors Q
    orthonormal; x = (4/pi) arctan(tan(theta/2)) decodes as the pointer does.

    Refused: a walk that is not a finite square matrix; one with an eigenvalue
    at -1 to working precision, which implies |x| = 2, outside the pointer
    range; and one whose pairs leave ||W Q - Q e^{i theta}||_F above
    ``_WALK_RESIDUAL_BOUND``, which no unitary W does (a non-normal W, or a
    normal one with an eigenvalue off the unit circle).
    """
    walk = np.asarray(walk, dtype=complex)
    if walk.ndim != 2 or walk.shape[0] != walk.shape[1] or not np.isfinite(walk).all():
        raise ValueError("walk must be a square matrix with finite entries")
    eye = np.eye(walk.shape[0])
    try:
        cayley = np.linalg.solve(eye + walk, 1j * (eye - walk))
        tan_half, q = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    except np.linalg.LinAlgError:  # I + W is exactly singular
        tan_half = np.array([np.inf])
    # within about eps / bound of -1, tan(theta/2) passes bound / eps and the
    # transform's own round-off, about eps tan(theta/2), fills the residual bound
    if not np.max(np.abs(tan_half)) * np.finfo(float).eps <= _WALK_RESIDUAL_BOUND:
        raise ValueError(
            "walk has an eigenvalue at -1 to working precision: it implies an"
            " eigenvalue of modulus 2, outside the pointer range [-1, 1]"
        )
    theta = 2.0 * np.arctan(tan_half)
    residual = float(np.linalg.norm(walk @ q - q * np.exp(1j * theta)))
    if not residual <= _WALK_RESIDUAL_BOUND:
        raise ValueError(
            f"walk is not unitary: its eigenpairs leave a residual {residual:.3g}"
        )
    return theta * (2.0 / np.pi), q
