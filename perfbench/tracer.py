"""Outside-in tracing of polarsim: spans around each layer's public functions.

The tracer replaces module attributes with timing wrappers, so it sees every
call that goes through a module attribute (``linalg.svd(...)``, or a bare
name looked up in the defining module's globals).  Two kinds of call escape:

* names bound into another module by ``from ... import`` (``hsvt`` calls
  ``procrustes.block_parity`` that way) keep the unwrapped function;
* functions stored in module-level containers at import time
  (``verify.REGISTRY`` holds the ``check_*`` items).

Escaped calls run untraced and their time counts toward the calling span.
``escaped_names`` lists them so the output can say so.

Spans carry name, start, end, parent span and op id.  Self time is a span's
duration minus the time its children cover; the calls are sequential in one
thread, so that is the sum of the children's durations.  Per-name totals are
accumulated as spans close, and the full spans of a bounded number of ops are
kept in memory for writing out when the run ends (a ``verify`` op opens
about 10^5 spans, so keeping every op's spans would cost more memory than
the program under test).
"""

from __future__ import annotations

import collections
import functools
import hashlib
import inspect
import os
import time
import types
from typing import Any, Callable

import numpy as np

LAYERS = (
    "cli",
    "io",
    "report",
    "generate",
    "linalg",
    "embedding",
    "spectral",
    "polar",
    "procrustes",
    "hsvt",
    "pgm",
    "verify",
)

# np.linalg.norm is left out on purpose: it is called ~3e4 times per
# ``verify --suite all`` and wrapping it costs about a tenth of that op.
NUMPY_KERNELS = (
    ("linalg", "eigh"),
    ("linalg", "svd"),
    ("linalg", "qr"),
    ("linalg", "eigvals"),
    ("linalg", "matrix_power"),
    ("fft", "fft"),
    ("fft", "ifft"),
)


def public_functions(module: types.ModuleType) -> dict[str, Callable]:
    """Module-level public functions defined in ``module`` itself."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def escaped_names(modules: dict[str, types.ModuleType]) -> list[str]:
    """Traced functions reachable under a name the wrappers do not replace."""
    traced = {
        fn: f"{layer}.{name}"
        for layer, mod in modules.items()
        for name, fn in public_functions(mod).items()
    }
    found = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in traced and traced[obj] != f"{layer}.{name}":
                found.append(f"{layer}.{name} (from-import of {traced[obj]})")
            elif isinstance(obj, dict):
                held = [traced[v] for v in _functions_in(obj.values()) if v in traced]
                if held:
                    found.append(f"{layer}.{name} (holds {len(held)} functions, e.g. {held[0]})")
    return sorted(found)


def _functions_in(values) -> list[Callable]:
    out = []
    for v in values:
        if inspect.isfunction(v):
            out.append(v)
        elif isinstance(v, tuple):
            out.extend(x for x in v if inspect.isfunction(x))
    return out


def _digest(a: Any) -> bytes:
    arr = np.ascontiguousarray(a, dtype=complex)
    return hashlib.blake2b(repr(arr.shape).encode() + arr.tobytes(), digest_size=16).digest()


class Tracer:
    """Span recorder plus the work counters computed from traced arguments."""

    def __init__(self, keep_spans_ops: int = 1) -> None:
        self.self_s: dict[str, float] = collections.defaultdict(float)
        self.total_s: dict[str, float] = collections.defaultdict(float)
        self.calls: dict[str, int] = collections.defaultdict(int)
        self.raised: dict[str, int] = collections.defaultdict(int)
        self.counters: dict[str, float] = collections.defaultdict(float)
        self.joint_state_bytes_max = 0
        self.distinct_factorizations = 0
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._keep_spans_ops = keep_spans_ops
        self._stack: list[list] = []  # [span index or -1, child seconds]
        self._op_id = -1
        self._op_digests: set[bytes] = set()
        self._patched: list[tuple[Any, str, Any]] = []

    # ---- op boundaries -------------------------------------------------
    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._op_digests = set()

    def end_op(self) -> None:
        self.distinct_factorizations += len(self._op_digests)
        self._op_digests = set()

    # ---- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable, probe: Callable | None) -> Callable:
        sig = inspect.signature(fn) if probe is not None else None
        keep = self._keep_spans_ops
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._op_id < keep
            index = -1
            if record:
                parent = stack[-1][0] if stack else -1
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, self._op_id))
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if probe is not None:
                    # the probe's own cost is booked as a child, so it lands
                    # in no layer's self time
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    probe(self, bound.arguments)
                    frame[1] += clock() - start
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if record:
                    s = self.spans[index]
                    self.spans[index] = (s[0], start, end, s[3], s[4])

        return traced

    def _patch(self, owner: Any, attr: str, name: str, probe: Callable | None = None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, probe))

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        for layer, mod in modules.items():
            for fname in public_functions(mod):
                self._patch(mod, fname, f"{layer}.{fname}", PROBES.get(f"{layer}.{fname}"))
        for sub, fname in NUMPY_KERNELS:
            self._patch(getattr(np, sub), fname, f"numpy.{sub}.{fname}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# ---- probes: work counters computed from the arguments of a traced call ----


def _pipeline_run(t: Tracer, a: dict) -> None:
    psi = np.asarray(a["psi"])
    k = 1 if psi.ndim == 1 else psi.shape[1]  # a (d, k) block carries k states
    cells = psi.shape[0] * a["config"].grid_size * k
    t.counters["spectral.pipeline_runs"] += 1
    t.counters["spectral.states"] += k
    t.counters["spectral.pointer_cells"] += cells
    t.joint_state_bytes_max = max(t.joint_state_bytes_max, cells * 16)


def _walk_stage(t: Tracer, a: dict) -> None:
    t.counters["spectral.walk_products"] += a["config"].grid_size - 1


def _correlate_unitary(t: Tracer, a: dict) -> None:
    _pipeline_run(t, a)
    _walk_stage(t, a)


def _factorization(key: str) -> Callable[[Tracer, dict], None]:
    def probe(t: Tracer, a: dict) -> None:
        t.counters["linalg.factorizations"] += 1
        t._op_digests.add(_digest(a[key]))

    return probe


def _input_file(t: Tracer, a: dict) -> None:
    t.counters["io.input_bytes"] += os.path.getsize(a["path"])


def _steps(counter: str) -> Callable[[Tracer, dict], None]:
    def probe(t: Tracer, a: dict) -> None:
        if a.get("mode", "qpe") == "qpe" and a["n_steps"]:
            t.counters[counter] += a["n_steps"]

    return probe


PROBES: dict[str, Callable[[Tracer, dict], None]] = {
    "spectral.qpe_correlate": _pipeline_run,
    "spectral.qpe_correlate_unitary": _correlate_unitary,
    "spectral.qpe_uncompute_unitary": _walk_stage,
    "linalg.hermitian_eig": _factorization("h"),
    "linalg.svd": _factorization("a"),
    "io.read_matrix": _input_file,
    "io.read_procrustes_instance": _input_file,
    "io.read_pgm_instance": _input_file,
    "io.read_split_hamiltonian": _input_file,
    "procrustes.apply_procrustes_quantum": _steps("procrustes.dme_steps"),
    "procrustes.effective_hamiltonian_evolution": _steps("procrustes.dme_steps"),
    "hsvt.trotter_offdiagonal_evolution": _steps("hsvt.trotter_steps"),
}
