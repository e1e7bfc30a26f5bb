"""Command-line front end.

Seven commands cover every pipeline: ``polar``, ``evolve``, ``procrustes``,
``pgm``, ``hsvt``, ``verify``, ``generate``.  Each run emits one structured
key/value report (stdout, plus ``--output`` when given) whose non-timing
lines are reproducible byte for byte from the inputs, the seed and the
configuration.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage error,
3 unreadable or unwritable file, 4 malformed file content.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import os
import sys
import time
from typing import Callable

import numpy as np

from . import embedding, generate, hsvt, io, linalg, pgm, polar, procrustes, spectral, verify
from .report import Report
from .spectral import QPEConfig

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_MALFORMED = 4

_DEFAULT_TOLERANCE = 1e-9
_DEFAULT_SEED = 7

# the g of ``polar.evolve`` for each --function of evolve, and of hsvt but sign
_GENERATORS = {"abs": np.abs, "linear": lambda x: x}


class _Args(argparse.Namespace):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {value}")
    return value


def _kappa_tilde(text: str) -> float:
    """An effective condition number that ``SpectralFunction.sign_phase`` accepts."""
    value = float(text)
    try:
        spectral.SpectralFunction.sign_phase(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _dims(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"dims must be comma-separated integers, got {text!r}"
        ) from exc
    if not parts or any(p < 1 for p in parts):
        raise argparse.ArgumentTypeError(f"dims must all be >= 1, got {text!r}")
    return parts


def _env_tolerance() -> float:
    raw = os.environ.get("POLARSIM_TOLERANCE")
    if raw is None:
        return _DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(
            f"polarsim: POLARSIM_TOLERANCE must be a number, got {raw!r}"
        ) from None
    if not value > 0:
        raise SystemExit(f"polarsim: POLARSIM_TOLERANCE must be > 0, got {raw!r}")
    return value


def _add_common(
    p: argparse.ArgumentParser, state: bool = True, kappa_tilde: bool = False
) -> None:
    p.add_argument("--input", required=True, help="path of the input file")
    if state:
        p.add_argument(
            "--state",
            help="optional unit-norm state file (single-column matrix); "
            "default is the uniform state",
        )
    p.add_argument("--mode", choices=("exact", "qpe"), default="exact")
    p.add_argument("--bits", type=_positive_int, default=8, help="pointer bits")
    if kappa_tilde:  # only where a sign transform reads it
        p.add_argument(
            "--kappa-tilde",
            type=_kappa_tilde,
            default=None,
            help="flag out singular values below sigma_max/kappa_tilde",
        )
    p.add_argument(
        "--tolerance",
        type=_positive_float,
        default=None,
        help="verdict tolerance (default 1e-9 or POLARSIM_TOLERANCE)",
    )
    p.add_argument("--output", help="also write the report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="polarsim",
        description="Statevector-level simulator for polar decomposition "
        "pipelines: isometry application, singular-value evolutions, "
        "Procrustes fitting, pretty good measurements, and off-diagonal "
        "Hamiltonian transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polar", help="apply the polar (partial) isometry of A")
    _add_common(p, kappa_tilde=True)

    p = sub.add_parser("evolve", help="evolve under singular-value generators of A")
    _add_common(p)
    p.add_argument("--time", type=_finite_float, required=True, help="evolution time t")
    p.add_argument(
        "--function",
        choices=tuple(_GENERATORS),
        default="abs",
        help="abs: e^{-i|H|t} (positive polar factors); linear: e^{-iHt}",
    )

    p = sub.add_parser("procrustes", help="fit and apply the closest isometry")
    _add_common(p, kappa_tilde=True)
    p.add_argument(
        "--steps",
        type=_nonnegative_int,
        default=100,
        help="Trotter steps for the synthesized walk (0: exact walk)",
    )

    p = sub.add_parser("pgm", help="square-root measurement statistics")
    _add_common(p, state=False)
    p.add_argument("--shots", type=_positive_int, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=_DEFAULT_SEED)

    p = sub.add_parser("hsvt", help="transform the coupling block of a Hamiltonian")
    _add_common(p, kappa_tilde=True)
    p.add_argument("--split", type=_positive_int, default=None)
    p.add_argument("--time", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_positive_int, default=100)
    p.add_argument(
        "--function",
        choices=("sign", *_GENERATORS),
        default="sign",
        help="spectral function applied to the coupling block; --kappa-tilde needs sign",
    )

    p = sub.add_parser("verify", help="run the deterministic invariant battery")
    p.add_argument(
        "--suite",
        default="all",
        help="'all', 'acceptance', or comma-separated item name prefixes",
    )
    p.add_argument("--seed", type=_nonnegative_int, default=_DEFAULT_SEED)
    p.add_argument("--output", help="also write the report to this path")

    p = sub.add_parser("generate", help="write a reproducible random instance file")
    p.add_argument("--kind", choices=generate.KINDS, required=True)
    p.add_argument("--dims", type=_dims, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=_DEFAULT_SEED)
    p.add_argument("--output", required=True, help="destination file")
    p.add_argument(
        "--realizable",
        action="store_true",
        help="procrustes only: outputs are an exact isometric image",
    )
    return parser


def _tolerance(args: _Args) -> float:
    return args.tolerance if args.tolerance is not None else _env_tolerance()


def _config(args: _Args) -> QPEConfig | None:
    """The pointer setting of ``--mode qpe``; None runs the exact route."""
    return QPEConfig(bits=args.bits) if args.mode == "qpe" else None


def _state(args: _Args, dim: int, what: str) -> np.ndarray:
    """The ``--state`` file checked against ``dim``, or the uniform state without one."""
    if not getattr(args, "state", None):
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    vec = io.read_matrix(args.state)
    if vec.shape[1] != 1:
        raise io.FormatError(
            f"{args.state}: expected a single-column state, got {vec.shape[1]} columns"
        )
    if vec.shape[0] != dim:
        raise io.FormatError(
            f"{args.state}: state has dimension {vec.shape[0]}, {what} needs {dim}"
        )
    return vec[:, 0]


def _input_report(args: _Args) -> Report:
    """Report opened with the command, its input file and the echoed configuration."""
    rep = Report()
    rep.add("command", args.command)
    rep.add("input", args.input)
    rep.add("config.mode", args.mode)
    rep.add("config.bits", args.bits)
    if getattr(args, "kappa_tilde", None) is not None:
        rep.add("config.kappa_tilde", args.kappa_tilde)
    rep.add("config.tolerance", _tolerance(args))
    return rep


def _add_vector(rep: Report, key: str, vec: np.ndarray) -> None:
    for k, z in enumerate(np.asarray(vec)):
        rep.add(f"{key}.{k}", complex(z))


def _cmd_polar(args: _Args) -> tuple[Report, bool]:
    a = io.read_matrix(args.input)
    m, n = a.shape
    tol = _tolerance(args)
    rep = _input_report(args)
    rep.add("rows", m)
    rep.add("cols", n)
    config = _config(args)
    # one factorization of the dilation for the column basis and the state
    dil = polar.dilation(a)
    basis = embedding.inject_right(np.eye(n, dtype=complex), m)
    kept, flagged, diag = polar.apply_polar_isometry(dil, basis, config, args.kappa_tilde)
    u_pipe = kept[n:]
    u = verify.restricted_isometry(linalg.svd(a), args.kappa_tilde)
    deviation = float(np.linalg.norm(u_pipe - u, ord=2))
    rep.add("isometry_deviation", deviation)
    column_oracle = verify.sign_expected(u, basis, args.kappa_tilde)
    rep.add("min_column_fidelity", verify.branch_fidelity(kept, flagged, *column_oracle))
    rep.add("max_leakage", diag.leakage_norm)
    rep.add("mean_flag_probability", diag.flag_probability / n)
    passed = deviation <= tol
    if getattr(args, "state", None):
        psi = _state(args, n + m, "this dilation")
        out, flagged, diag = polar.apply_polar_isometry(dil, psi, config, args.kappa_tilde)
        expected, expected_flagged = verify.sign_expected(u, psi, args.kappa_tilde)
        state_deviation = float(np.linalg.norm(out - expected))
        rep.add("state_deviation", state_deviation)
        rep.add("state_fidelity", verify.branch_fidelity(out, flagged, expected, expected_flagged))
        rep.add("state_flag_probability", diag.flag_probability)
        _add_vector(rep, "state_output", out)
        passed = passed and state_deviation <= tol
    if m <= 8 and n <= 8:
        for i in range(m):
            for j in range(n):
                rep.add(f"isometry.{i}.{j}", complex(u_pipe[i, j]))
    return rep, passed


def _cmd_evolve(args: _Args) -> tuple[Report, bool]:
    a = io.read_matrix(args.input)
    m, n = a.shape
    tol = _tolerance(args)
    rep = _input_report(args)
    rep.add("function", args.function)
    rep.add("time", args.time)
    psi = _state(args, n + m, "this dilation")
    config = _config(args)
    g = _GENERATORS[args.function]
    out, flagged, diag = polar.evolve(polar.dilation(a), g, args.time, psi, config)
    expected = verify.evolution_expected(args.function, linalg.svd(a), args.time, psi)
    deviation = float(np.linalg.norm(out - expected))
    rep.add("deviation", deviation)
    rep.add("fidelity", verify.branch_fidelity(out, flagged, expected, None))
    rep.add("leakage", diag.leakage_norm)
    _add_vector(rep, "output", out)
    return rep, deviation <= tol


def _cmd_procrustes(args: _Args) -> tuple[Report, bool]:
    inst = io.read_procrustes_instance(args.input)
    tol = _tolerance(args)
    rep = _input_report(args)
    rep.add("pairs", inst.n_pairs)
    rep.add("input_dim", inst.input_dim)
    rep.add("output_dim", inst.output_dim)
    # one SVD gives U for the residual and U_r, its columns kept by kappa_tilde
    res = linalg.svd(inst.cross_covariance())
    u = verify.restricted_isometry(res, None)
    rep.add("residual", inst.residual(u))
    chi = _state(args, inst.input_dim, "this instance")
    n_steps = args.steps if (args.mode == "qpe" and args.steps > 0) else None
    # rho and the dilation of A once each, for the route and the trotter_deviation lines
    pair, dil = procrustes.reduced_density(inst), polar.dilation(inst.cross_covariance())
    bottom, diag = procrustes.apply_procrustes_quantum(
        inst, chi, _config(args), n_steps, args.kappa_tilde, pair, dil
    )
    if args.kappa_tilde is not None:  # the flagged rest is not mapped: grade by U_r
        u = verify.restricted_isometry(res, args.kappa_tilde)
    expected = u @ chi
    fidelity = verify.overlap_fidelity(expected, bottom)
    rep.add("fidelity", fidelity)
    # unlike the overlap fidelity, a deviation sees a global sign; a report line only
    rep.add("deviation", float(np.linalg.norm(bottom - expected)))
    rep.add("flag_probability", diag.flag_probability)
    rep.add("leakage", diag.leakage_norm)
    _add_vector(rep, "mapped_state", bottom)
    counts = sorted({10, 100, max(args.steps, 1)})
    for n, deviation in zip(counts, procrustes.dme_deviations(inst, pair, dil, 1.0, counts)):
        rep.add(f"trotter_deviation.n{n}", deviation)
    return rep, fidelity >= 1.0 - tol


def _cmd_pgm(args: _Args) -> tuple[Report, bool]:
    inst, rho = io.read_pgm_instance(args.input)
    tol = _tolerance(args)
    rep = _input_report(args)
    rep.add("dim", inst.dim)
    rep.add("n_states", inst.n_states)
    if rho is None:
        # ensemble average of the stored states
        rho = inst.gram_operator() / inst.n_states
        rep.add("rho", "ensemble-average")
    else:
        rep.add("rho", "from-file")
    rho, rho_eig = pgm.density_matrix(rho, inst.dim)
    chi = pgm.pgm_vectors(inst)
    p_direct = pgm.pgm_probabilities(inst, rho, chi)
    p_polar = pgm.pgm_via_polar(inst, rho_eig, _config(args))
    gap = float(np.max(np.abs(p_direct - p_polar)))
    completeness, reprep = verify.pgm_residuals(inst, chi)
    for j, p in enumerate(p_direct):
        rep.add(f"probability.{j}", float(p))
    rep.add("outside_span_probability", float(np.maximum(0.0, 1.0 - p_direct.sum())))
    rep.add("dual_path_gap", gap)
    rep.add("completeness_residual", completeness)
    rep.add("repreparation_error", reprep)
    if args.shots is not None:
        counts = pgm.sample_outcomes(p_direct, args.shots, args.seed)
        rep.add("shots", args.shots)
        rep.add("seed", args.seed)
        for j in range(inst.n_states):
            rep.add(f"counts.{j}", int(counts[j]))
        rep.add("counts.outside", int(counts[-1]))
    passed = gap <= tol and completeness <= max(tol, verify.PGM_COMPLETENESS_BOUND)
    passed = passed and reprep <= max(tol, verify.PGM_REPREPARATION_BOUND)
    return rep, passed


def _cmd_hsvt(args: _Args) -> tuple[Report, bool]:
    if args.kappa_tilde is not None and args.function != "sign":
        raise SystemExit("polarsim: --kappa-tilde applies to --function sign only")
    sh = io.read_split_hamiltonian(args.input, split=args.split)
    tol = _tolerance(args)
    rep = _input_report(args)
    rep.add("split", sh.split)
    rep.add("function", args.function)
    rep.add("time", args.time)
    rep.add("steps", args.steps)
    n, m = sh.top_dim, sh.bottom_dim
    rep.add("isolation_deviation", verify.isolation_error(sh))
    psi = _state(args, n + m, "this dilation")
    # the diagonal blocks never enter: only the isolated coupling is transformed.
    # Its one factorization feeds the route and the Trotter product's target,
    # which grades the product formula, not the route
    a = hsvt.isolate_offdiagonal(sh)
    dil = polar.dilation(a)
    rep.add(
        "trotter_deviation",
        hsvt.trotter_offdiagonal_evolution(sh, dil, args.time, args.steps),
    )
    rep.add("trotter_step_size", args.time / args.steps)
    config = _config(args)
    res = linalg.svd(a)
    if args.function == "sign":
        out, flagged, diag = polar.apply_polar_isometry(dil, psi, config, args.kappa_tilde)
        u = verify.restricted_isometry(res, args.kappa_tilde)
        expected, expected_flagged = verify.sign_expected(u, psi, args.kappa_tilde)
    else:
        g = _GENERATORS[args.function]
        out, flagged, diag = polar.evolve(dil, g, args.time, psi, config)
        expected = verify.evolution_expected(args.function, res, args.time, psi)
        expected_flagged = None
    deviation = float(np.linalg.norm(out - expected))
    rep.add("deviation_vs_exact", deviation)
    rep.add("fidelity", verify.branch_fidelity(out, flagged, expected, expected_flagged))
    rep.add("flag_probability", diag.flag_probability)
    _add_vector(rep, "output", out)
    return rep, deviation <= tol


def _cmd_verify(args: _Args) -> tuple[Report, bool]:
    try:
        names = verify.select_items(args.suite)
    except ValueError as exc:
        raise SystemExit(f"polarsim: {exc}") from exc
    rep = Report()
    rep.add("command", "verify")
    rep.add("suite", args.suite)
    rep.add("seed", args.seed)
    rep.add("items", len(names))
    results = verify.run_suite(names, args.seed)
    all_passed = True
    for res in results:
        rep.add(f"item.{res.name}.verdict", "pass" if res.passed else "fail")
        for key, value in res.metrics.items():
            rep.add(f"item.{res.name}.{key}", value)
        rep.add_timing(f"item.{res.name}", res.elapsed)
        all_passed = all_passed and res.passed
    return rep, all_passed


def _cmd_generate(args: _Args) -> tuple[Report, bool]:
    dims = args.dims
    expected = {"matrix": 2, "procrustes": 3, "pgm": 2, "split-hamiltonian": 2}
    if len(dims) != expected[args.kind]:
        raise SystemExit(
            f"polarsim: kind {args.kind!r} needs {expected[args.kind]} dims, "
            f"got {len(dims)}"
        )
    if args.realizable:
        if args.kind != "procrustes":
            raise SystemExit("polarsim: --realizable only applies to procrustes")
        dims = dims + (1,)
    obj = generate.generate_random_instance(args.kind, dims, args.seed)
    rep = Report()
    rep.add("command", "generate")
    rep.add("kind", args.kind)
    rep.add("dims", ",".join(str(d) for d in args.dims))
    rep.add("seed", args.seed)
    rep.add("output", args.output)
    passed = True
    if args.kind == "matrix":
        io.write_matrix(args.output, obj)
        rep.add("sigma_max", float(np.linalg.norm(obj, ord=2)))
    elif args.kind == "procrustes":
        io.write_procrustes_instance(args.output, obj)
        _, residual = procrustes.solve_procrustes_classical(obj)
        rep.add("residual", residual)
        rep.add("realizable", args.realizable)
        if args.realizable:
            passed = residual <= 1e-12
    elif args.kind == "pgm":
        io.write_pgm_instance(args.output, obj)
        norms = np.linalg.norm(obj.states, axis=0)
        worst = float(np.max(np.abs(norms - 1.0)))
        rep.add("max_norm_error", worst)
        passed = worst <= 1e-12
    else:
        io.write_split_hamiltonian(args.output, obj)
        rep.add(
            "hermiticity_error",
            float(np.linalg.norm(obj.matrix - obj.matrix.conj().T)),
        )
    return rep, passed


_COMMANDS = {
    "polar": _cmd_polar,
    "evolve": _cmd_evolve,
    "procrustes": _cmd_procrustes,
    "pgm": _cmd_pgm,
    "hsvt": _cmd_hsvt,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
}


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) of the loaded OpenBLAS's thread count, looked up once per process.

    None where no mapped shared object exports both (another BLAS, or no ``/proc``).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command with BLAS on one thread, restoring the old count after.

    A threaded BLAS sums in a thread-count-dependent order; pinned, the
    non-timing report lines do not depend on ``OPENBLAS_NUM_THREADS``.
    """
    blas = _openblas_threads()
    if blas is None:
        return _main(argv)
    get, put = blas
    old = get()
    put(1)
    try:
        return _main(argv)
    finally:
        put(old)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None or code == 0:
            return EXIT_PASS
        return EXIT_USAGE
    start = time.perf_counter()
    try:
        rep, passed = _COMMANDS[args.command](args)
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except spectral.PointerBudgetError as exc:
        print(f"polarsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except io.FormatError as exc:
        print(f"polarsim: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"polarsim: cannot read input: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except ValueError as exc:
        print(f"polarsim: invalid content: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    rep.add("verdict", "pass" if passed else "fail")
    rep.add_timing("total", time.perf_counter() - start)
    text = rep.render()
    out_path = getattr(args, "output", None)
    if out_path and args.command != "generate":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"polarsim: cannot write report: {exc}", file=sys.stderr)
            return EXIT_UNREADABLE
    sys.stdout.write(text)
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
