"""polarsim benchmark: one workload per run, closed loop, one client, one process.

Usage, from the repository root:

    python3 perfbench/run.py --workload qpe-many-states --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each op is one CLI command run in-process through ``polarsim.cli.main`` on
an input generated in set-up.  ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` runs the same loop untraced and then
traced, and reports the per-layer metrics.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
results file, with the machine record and every op, goes to
``.perfbench_out/`` at the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
BLAS_THREADS = 1  # one thread suits a 2-CPU machine and keeps runs comparable
SETUP_REPEATS = 3  # this process plus two fresh set-up probes
TRACED_SHARE = 0.6  # of --seconds, in a --trace 1 run
WORKLOAD_NAMES = ("qpe-many-states", "qpe-one-state-wide", "dme-walk", "verify-battery")


class SetupError(RuntimeError):
    """The program under test cannot be found or imported."""


def _fix_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    for var in ("POLARSIM_THREADS", "POLARSIM_TOLERANCE"):
        os.environ.pop(var, None)


def _import_program():
    """Import polarsim from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "polarsim", "cli.py")):
        raise SetupError(f"no polarsim sources under {SRC}")
    sys.path.insert(0, SRC)
    import polarsim  # noqa: F401
    import polarsim.cli

    where = os.path.dirname(os.path.abspath(polarsim.__file__))
    if where != os.path.join(SRC, "polarsim"):
        raise SetupError(f"polarsim imported from {where}, not from {SRC}")
    import workloads

    return polarsim, workloads


# ---- one op ------------------------------------------------------------------


@dataclasses.dataclass
class OpRecord:
    command: str
    latency_s: float
    gap: float
    reasons: list[str]
    lines: int
    end_s: float = 0.0  # since the start of its phase

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


def run_op(op, main, grade) -> OpRecord:
    """Run one op through ``main(argv)`` and grade its report."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(op.argv))
    except Exception:  # a crash is a failed op; the loop keeps running
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    text = out.getvalue()
    gap, reasons = grade(op, code, text)
    if reasons and err.getvalue():
        reasons.append("stderr: " + err.getvalue().strip().splitlines()[-1])
    return OpRecord(op.command, latency, gap, reasons, len(text.splitlines()))


def run_phase(ops, window, seconds, min_ops, main, grade, tracer=None) -> tuple[list[OpRecord], float]:
    """Closed loop over ``ops`` in order until ``seconds`` pass and ``min_ops`` ran.

    Returns the records and the ops per second: the median, over the
    consecutive windows of ``window`` ops (whole repetitions of the op mix),
    of each window's op count over its wall time.  The median keeps a burst
    of outside load on the machine from moving the figure.
    """
    records: list[OpRecord] = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(records) < max(min_ops, window) or time.perf_counter() < deadline:
        op = ops[len(records) % len(ops)]
        if tracer is not None:
            tracer.begin_op(len(records))
        rec = run_op(op, main, grade)
        if tracer is not None:
            tracer.end_op()
        rec.end_s = time.perf_counter() - start
        records.append(rec)
        if rec.failed:
            print(f"op {len(records) - 1} ({rec.command}) failed: {'; '.join(rec.reasons)}")
    ends = [0.0] + [records[i - 1].end_s for i in range(window, len(records) + 1, window)]
    return records, statistics.median(window / (b - a) for a, b in zip(ends, ends[1:]))


# ---- statistics --------------------------------------------------------------


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of {n} ops (fewer than 11, so no percentile has 10 beyond it)"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n} ops (10 ops beyond it)"


def end_to_end(records: list[OpRecord], ops_per_s: float, setup_s: float) -> tuple[dict, dict]:
    lat = [r.latency_s for r in records]
    tail, tail_note = tail_latency(lat)
    gaps = [r.gap for r in records]
    values = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (tail * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "oracle_gap_max": (max(gaps) if all(math.isfinite(g) for g in gaps) else None, "1"),
        "setup_s": (setup_s, "s"),
    }
    failed = sum(r.failed for r in records)
    notes = {
        "op_ms_tail": tail_note,
        "error_rate": f"{failed / len(records):.6g} ({failed} failed of {len(records)} attempted)",
    }
    return values, notes


def per_layer(tracer, tracing_layers, records, traced_ops_per_s, untraced_ops_per_s) -> dict:
    n = len(records)
    values: dict[str, tuple[float, str]] = {}

    def names(layer):
        return [k for k in tracer.calls if k.split(".", 1)[0] == layer]

    for layer in tracing_layers + ("numpy",):
        keys = names(layer)
        values[f"{layer}.self_ms_per_op"] = (sum(tracer.self_s[k] for k in keys) * 1e3 / n, "ms")
        values[f"{layer}.calls_per_op"] = (sum(tracer.calls[k] for k in keys) / n, "count")
        values[f"{layer}.raised_per_op"] = (sum(tracer.raised[k] for k in keys) / n, "count")
    c = tracer.counters
    runs = c["spectral.pipeline_runs"]
    factorizations = c["linalg.factorizations"]
    values.update(
        {
            "spectral.pipeline_runs_per_op": (runs / n, "count"),
            "spectral.states_per_pipeline_run": (c["spectral.states"] / runs if runs else 0.0, "count"),
            "spectral.pointer_cells_per_op": (c["spectral.pointer_cells"] / n, "count"),
            "spectral.joint_state_mib_max": (tracer.joint_state_bytes_max / 2**20, "MiB"),
            "spectral.walk_products_per_op": (c["spectral.walk_products"] / n, "count"),
            "linalg.factorizations_per_op": (factorizations / n, "count"),
            "linalg.distinct_factorization_ratio": (
                tracer.distinct_factorizations / factorizations if factorizations else 0.0,
                "ratio",
            ),
            "numpy.eigh_calls_per_op": (tracer.calls["numpy.linalg.eigh"] / n, "count"),
            "numpy.fft_calls_per_op": (
                (tracer.calls["numpy.fft.fft"] + tracer.calls["numpy.fft.ifft"]) / n,
                "count",
            ),
            "numpy.qr_calls_per_op": (tracer.calls["numpy.linalg.qr"] / n, "count"),
            "numpy.kernel_ms_per_op": (
                sum(tracer.total_s[k] for k in names("numpy")) * 1e3 / n,
                "ms",
            ),
            "io.input_kib_per_op": (c["io.input_bytes"] / 1024.0 / n, "KiB"),
            "procrustes.dme_steps_per_op": (c["procrustes.dme_steps"] / n, "count"),
            "hsvt.trotter_steps_per_op": (c["hsvt.trotter_steps"] / n, "count"),
            "generate.unitaries_per_op": (tracer.calls["generate.random_unitary"] / n, "count"),
            "verify.items_per_op": (tracer.calls["verify.run_item"] / n, "count"),
            "report.lines_per_op": (sum(r.lines for r in records) / n, "count"),
            "trace.overhead_ratio": (traced_ops_per_s / untraced_ops_per_s, "ratio"),
        }
    )
    return values


# ---- machine record ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime() -> dict:
    """Thread count and configuration reported by the loaded OpenBLAS, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return {}


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    runtime = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_runtime_config": runtime.get("config", "unverified"),
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_runtime": runtime.get("threads", "unverified"),
    }


# ---- the run -------------------------------------------------------------------


def setup(workload_name: str, seed: int, workdir: str):
    """Import, generate and write the inputs, and run one warm-up op."""
    polarsim, workloads = _import_program()
    wl = workloads.WORKLOADS[workload_name]
    os.makedirs(workdir, exist_ok=True)
    ops = wl.build(seed, workdir)
    warm = run_op(ops[0], polarsim.cli.main, workloads.grade)
    return polarsim, workloads, wl, ops, warm


def _setup_probe(args) -> int:
    """Fresh-process set-up only; prints its duration as the last line."""
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        setup(args.workload, args.seed, workdir)
        print(f"{time.perf_counter() - _T0!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _probe_setup_seconds(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def _print_metrics(title: str, values: dict, notes: dict) -> None:
    print(title)
    for name, (value, unit) in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"  {name:40s} {shown:>14s} {unit}{note}")
    for name, note in notes.items():
        if name not in values:
            print(f"  {name:40s} {note}")


def _contract_metrics(values: dict, section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)[section]
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in spec}


def _measure_end_to_end(args, wl, ops, main, grade, own_setup_s: float):
    """Untraced loop; set-up time is the median over this process and probes."""
    setups = [own_setup_s] + [_probe_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]
    records, ops_per_s = run_phase(ops, wl.window, args.seconds, len(ops), main, grade)
    values, notes = end_to_end(records, ops_per_s, statistics.median(setups))
    return records, values, notes, {"setup_s_samples": setups}


def _measure_per_layer(args, polarsim, wl, ops, grade):
    """Untraced, then traced loop; per-layer figures come from the traced ops."""
    import tracer as tracing

    layers = {name: importlib.import_module(f"polarsim.{name}") for name in tracing.LAYERS}
    untraced, untraced_ops_per_s = run_phase(
        ops, wl.window, args.seconds * (1 - TRACED_SHARE), wl.window, polarsim.cli.main, grade
    )
    tr = tracing.Tracer(keep_spans_ops=wl.window)
    tr.install(layers)
    try:  # polarsim.cli.main is looked up after install, so it is the wrapped one
        traced, traced_ops_per_s = run_phase(
            ops, wl.window, args.seconds * TRACED_SHARE, wl.window, polarsim.cli.main, grade, tr
        )
    finally:
        tr.uninstall()
    values = per_layer(tr, tracing.LAYERS, traced, traced_ops_per_s, untraced_ops_per_s)
    escaped = tracing.escaped_names(layers)
    notes = {
        "ops": f"{len(untraced)} untraced at {untraced_ops_per_s:.4g}/s, "
        f"{len(traced)} traced at {traced_ops_per_s:.4g}/s",
        "untraced names": "calls through these are not traced and count toward "
        "their caller: " + "; ".join(escaped),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op_id in tr.spans:
            span = {"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
            fh.write(json.dumps(span) + "\n")
    extra = {"spans_file": os.path.relpath(spans_path, ROOT), "untraced_names": escaped}
    return untraced + traced, values, notes, extra


def run_workload(args) -> int:
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        polarsim, workloads, wl, ops, warm = setup(args.workload, args.seed, workdir)
        own_setup_s = time.perf_counter() - _T0
        result = {
            "workload": {
                "name": wl.name,
                "why": wl.why,
                "params": wl.params,
                "seed": args.seed,
                "pool_ops": len(ops),
                "window_ops": wl.window,
            },
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_record(),
            "warm_up": {"latency_s": warm.latency_s, "failed": warm.reasons},
        }
        print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("machine: " + json.dumps(result["machine"]))
        print("workload: " + json.dumps(result["workload"]))
        if args.trace == 0:
            title, section = "end-to-end metrics (untraced):", "end_to_end"
            records, values, notes, extra = _measure_end_to_end(
                args, wl, ops, polarsim.cli.main, workloads.grade, own_setup_s
            )
        else:
            title, section = "per-layer metrics (traced run):", "per_layer"
            records, values, notes, extra = _measure_per_layer(args, polarsim, wl, ops, workloads.grade)
        _print_metrics(title, values, notes)
        result.update(extra)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        result["notes"] = notes
        result["ops"] = [dataclasses.asdict(r) for r in records]
        os.makedirs(OUT_DIR, exist_ok=True)
        out_path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        print(f"results file: {os.path.relpath(out_path, ROOT)}")
        failed = sum(r.failed for r in records)
        metrics = _contract_metrics(values, section)
        correct = failed == 0 and not warm.failed and all(m["value"] is not None for m in metrics.values())
        print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _fix_environment()
    try:
        if args.setup_probe:
            return _setup_probe(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
