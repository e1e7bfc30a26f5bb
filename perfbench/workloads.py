"""The benchmark's workloads: seeded inputs, the CLI ops run on them, and grading.

Every input is drawn from the workload seed through ``polarsim.generate`` and
written through ``polarsim.io`` once, in set-up.  The timed loop then cycles
over the resulting ops in a fixed order.  The order and the mix of sizes are
chosen so that the median and the tail latency each fall inside one op kind
instead of on the boundary between two, which keeps both steady from run to
run.  The pool repeats the mix several times on distinct inputs, and one full pass
over it always runs, so ``oracle_gap_max`` is a maximum over the same inputs
however fast the program is.
"""

from __future__ import annotations

import dataclasses
import math
import os
from typing import Callable

import numpy as np

from polarsim import generate, io
from polarsim.hsvt import SplitHamiltonian
from polarsim.procrustes import ProcrustesInstance

SPECTRUM_LOW = 1.0 / 8.0


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI command on one generated input file."""

    command: str
    argv: tuple[str, ...]
    tolerance: float | None  # bound on the graded deviation; None: verdict only


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    window: int  # ops per throughput window: whole repetitions of the mix, about 2 s
    repeats: int  # repetitions of the mix, each on fresh inputs, in the pool
    build: Callable[[int, str], list[Op]]  # (seed, workdir) -> ops in run order


def _spectrum(n: int, rng: np.random.Generator) -> np.ndarray:
    """Singular values uniform in [1/8, 1]: off the pointer grid, never dyadic."""
    return np.sort(rng.uniform(SPECTRUM_LOW, 1.0, n))[::-1]


def _matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    return generate.matrix_with_singular_values(_spectrum(n, rng), n, n, rng)


def _split_hamiltonian(half: int, rng: np.random.Generator) -> SplitHamiltonian:
    """Random diagonal blocks around a coupling block with a controlled spectrum."""
    full = np.zeros((2 * half, 2 * half), dtype=complex)
    scale = 1.0 / (2.0 * math.sqrt(half))  # diagonal blocks of norm about 1
    full[:half, :half] = generate.random_hermitian(half, rng) * scale
    full[half:, half:] = generate.random_hermitian(half, rng) * scale
    a = _matrix(half, rng)
    full[half:, :half] = a
    full[:half, half:] = a.conj().T
    return SplitHamiltonian(matrix=full, split=half)


def _procrustes(dim: int, pairs: int, rng: np.random.Generator) -> ProcrustesInstance:
    """Realizable pairs whose cross-covariance has sigma_min/sigma_max of 0.5-0.65.

    Pairs of independent random states would give a Wishart cross-covariance
    with sigma_min/sigma_max near 1e-2, whose fidelity gap is heavy-tailed
    from instance to instance, so its maximum over a run would not be steady
    across seeds.  Here the inputs are the normalized columns of
    W diag(s) V^dag with s uniform in [0.8, 1], which keeps the spectrum
    controlled and off the grid; the outputs are an exact isometric image of
    the inputs.
    """
    s = rng.uniform(0.8, 1.0, dim)
    frame = (generate.random_unitary(dim, rng) * s) @ generate.random_unitary(
        pairs, rng
    )[:, :dim].conj().T
    inputs = frame / np.linalg.norm(frame, axis=0)
    iso = generate.random_unitary(dim, rng)
    return ProcrustesInstance(inputs=inputs, outputs=iso @ inputs)


def _tol(value: float) -> tuple[str, ...]:
    return ("--tolerance", repr(value))


# Tolerances on the graded deviation, 1.3-1.6x the largest value seen over
# 60-150 seeded instances of each kind (procrustes 5x, over 60 instances with
# a largest gap of 9.5e-9).  A wrong route misses them by orders of magnitude.
TOL_POLAR = 1e-2
TOL_PGM = 2.5e-4
TOL_EVOLVE = 3e-4
TOL_HSVT = 8e-4
TOL_PROCRUSTES = 5e-8


def _many_states(seed: int, workdir: str) -> list[Op]:
    rng = generate.rng_for(seed, 101)
    bits = ("--mode", "qpe", "--bits", "10")
    ops = []
    # mix: polar 16, pgm 16, polar 24, pgm 24 x2, polar 32 x3 -- the median
    # lands among the pgm 24 ops and the tail among the polar 32 ops
    kinds = (("polar", 16), ("pgm", 16), ("polar", 24), ("pgm", 24), ("pgm", 24)) + (
        ("polar", 32),
    ) * 3
    for c in range(MANY_STATES.repeats):
        for k, (command, n) in enumerate(kinds):
            path = os.path.join(workdir, f"c{c}-{k}-{command}{n}.json")
            if command == "polar":
                io.write_matrix(path, _matrix(n, rng))
                ops.append(Op("polar", ("polar", "--input", path) + bits + _tol(TOL_POLAR), TOL_POLAR))
            else:
                io.write_pgm_instance(path, generate.random_pgm_instance(n, n, rng))
                ops.append(Op("pgm", ("pgm", "--input", path) + bits + _tol(TOL_PGM), TOL_PGM))
    return ops


def _one_state_wide(seed: int, workdir: str) -> list[Op]:
    rng = generate.rng_for(seed, 102)
    bits = ("--mode", "qpe", "--bits", "12")
    ops = []
    for c in range(ONE_STATE_WIDE.repeats):
        path = os.path.join(workdir, f"c{c}-evolve.json")
        io.write_matrix(path, _matrix(128, rng))
        ops.append(
            Op(
                "evolve",
                ("evolve", "--input", path, "--function", "abs", "--time", "1")
                + bits
                + _tol(TOL_EVOLVE),
                TOL_EVOLVE,
            )
        )
        for k in range(2):
            path = os.path.join(workdir, f"c{c}-{k}-hsvt.json")
            io.write_split_hamiltonian(path, _split_hamiltonian(64, rng))
            ops.append(
                Op(
                    "hsvt",
                    ("hsvt", "--input", path, "--steps", "100") + bits + _tol(TOL_HSVT),
                    TOL_HSVT,
                )
            )
    return ops


def _dme_walk(seed: int, workdir: str) -> list[Op]:
    rng = generate.rng_for(seed, 103)
    ops = []
    for c in range(DME_WALK.repeats):
        path = os.path.join(workdir, f"c{c}-procrustes.json")
        io.write_procrustes_instance(path, _procrustes(32, 48, rng))
        argv = ("procrustes", "--input", path, "--mode", "qpe", "--bits", "12", "--steps", "200")
        ops.append(Op("procrustes", argv + _tol(TOL_PROCRUSTES), TOL_PROCRUSTES))
    return ops


def _verify_battery(seed: int, workdir: str) -> list[Op]:
    rng = generate.rng_for(seed, 104)
    seeds = rng.integers(0, 2**31, size=VERIFY_BATTERY.repeats)
    return [Op("verify", ("verify", "--suite", "all", "--seed", str(int(s))), None) for s in seeds]


MANY_STATES = Workload(
    name="qpe-many-states",
    why="polar and pgm push every column or eigenvector of rho through a full "
    "pointer pipeline on the same operator: where batching over states and one "
    "factorization per operator must show",
    params={
        "ops": "polar --mode qpe --bits 10 on n x n, n in {16, 24, 32}; "
        "pgm --mode qpe --bits 10 on n states in dimension n, n in {16, 24}",
        "mix": "polar16 pgm16 polar24 pgm24 pgm24 polar32 polar32 polar32",
        "spectrum": "singular values uniform in [1/8, 1]",
        "bits": 10,
    },
    window=8,
    repeats=4,
    build=_many_states,
)

ONE_STATE_WIDE = Workload(
    name="qpe-one-state-wide",
    why="one state per operator on a 4096-code grid: batching gains nothing, "
    "joint arrays are 8-16 MiB and io parsing weighs; the only hsvt Trotter "
    "synthesis at size",
    params={
        "ops": "evolve --function abs --time 1 --mode qpe --bits 12 on 128 x 128; "
        "hsvt --mode qpe --bits 12 --steps 100 on 64+64 split Hamiltonians",
        "mix": "evolve hsvt hsvt",
        "spectrum": "singular values (of the coupling block) uniform in [1/8, 1]",
        "bits": 12,
        "steps": 100,
    },
    window=6,
    repeats=8,
    build=_one_state_wide,
)

DME_WALK = Workload(
    name="dme-walk",
    why="the black-box walk route: DME synthesis, 2^b sequential walk products "
    "and three Trotter-deviation evolutions; the only procrustes work at size",
    params={
        "ops": "procrustes --mode qpe --bits 12 --steps 200 on realizable 32,32,48 instances",
        "spectrum": "cross-covariance sigma_min/sigma_max of 0.5-0.65",
        "bits": 12,
        "steps": 200,
    },
    window=5,
    repeats=25,
    build=_dme_walk,
)

VERIFY_BATTERY = Workload(
    name="verify-battery",
    why="the developer gate: thousands of tiny instances dominated by generate "
    "and the oracle, where batched QR must show and pointer-route changes must not",
    params={"ops": "verify --suite all --seed s, s drawn from the workload seed"},
    window=1,
    repeats=4,
    build=_verify_battery,
)

WORKLOADS = {w.name: w for w in (MANY_STATES, ONE_STATE_WIDE, DME_WALK, VERIFY_BATTERY)}


# ---- grading ---------------------------------------------------------------


def parse_report(text: str) -> dict[str, str]:
    """``key: value`` report lines to a dict."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _number(value: str) -> complex | None:
    try:
        return complex(value)
    except ValueError:
        return None


def nonfinite_keys(report: dict[str, str]) -> list[str]:
    """Report keys whose value is a number with a NaN or inf part."""
    bad = []
    for key, value in report.items():
        z = _number(value)
        if z is not None and not (math.isfinite(z.real) and math.isfinite(z.imag)):
            bad.append(key)
    return bad


def _anchor_gap(report: dict[str, str]) -> float:
    """Largest 1 - fidelity on the battery's fixed anchors one bit short of
    the resolution ceil(log2(4 kappa)): seed-independent, so it moves only
    when the qpe route's accuracy does."""
    gaps = []
    prefix = "item.condition-number-scaling."
    for key, value in report.items():
        if key.startswith(prefix + "required_bits.kappa"):
            kappa = key.rsplit("kappa", 1)[1]
            short = int(value) - 1
            gaps.append(1.0 - float(report[f"{prefix}fidelity.kappa{kappa}.b{short}"]))
    if not gaps:
        raise KeyError("condition-number-scaling anchors missing from the report")
    return max(gaps)


GRADED: dict[str, Callable[[dict[str, str]], float]] = {
    "polar": lambda r: float(r["isometry_deviation"]),
    "evolve": lambda r: float(r["deviation"]),
    "hsvt": lambda r: float(r["deviation_vs_exact"]),
    "procrustes": lambda r: 1.0 - float(r["fidelity"]),
    "pgm": lambda r: float(r["dual_path_gap"]),
    "verify": _anchor_gap,
}


def grade(op: Op, code: int | None, stdout: str) -> tuple[float, list[str]]:
    """Graded deviation of one op and the reasons it failed (empty: passed).

    An op fails when its exit code is not 0, its verdict is not ``pass``, a
    numeric report value is NaN or inf, or its graded deviation is not
    within the workload tolerance.  The verdict alone is not trusted: the
    CLI folds errors with ``max``, which drops NaN.
    """
    report = parse_report(stdout)
    reasons = []
    if code != 0:
        reasons.append(f"exit code {code}")
    if report.get("verdict") != "pass":
        reasons.append(f"verdict {report.get('verdict')!r}")
    bad = nonfinite_keys(report)
    if bad:
        reasons.append(f"non-finite values: {', '.join(bad[:5])}")
    try:
        gap = GRADED[op.command](report)
    except (KeyError, ValueError) as exc:
        reasons.append(f"graded value unreadable: {exc}")
        return math.nan, reasons
    if not math.isfinite(gap):
        reasons.append(f"graded deviation {gap}")
    elif op.tolerance is not None and not gap <= op.tolerance:
        reasons.append(f"graded deviation {gap:.3e} above tolerance {op.tolerance:.1e}")
    return gap, reasons
