"""Text file formats for matrices and problem instances.

All formats are JSON documents.  Complex numbers are stored as [re, im]
pairs and matrices row-major under ``rows``/``cols``/``data`` keys.  Writers
print every number with 17 significant digits so round-trips are exact;
readers accept integer and decimal literals interchangeably and reject the
non-finite literals NaN, Infinity and -Infinity.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .hsvt import SplitHamiltonian
from .pgm import PGMInstance
from .procrustes import ProcrustesInstance


class FormatError(ValueError):
    """Raised when a file parses as text but not as the expected structure."""


def _format_number(x: float) -> str:
    return "%.17g" % float(x)


def _render(value: Any) -> str:
    """Minimal JSON writer with fixed float formatting."""
    if isinstance(value, dict):
        items = ", ".join(f'"{k}": {_render(v)}' for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_number(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _matrix_payload(a: np.ndarray) -> dict[str, Any]:
    a = np.asarray(a, dtype=complex)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def _vector_payload(v: np.ndarray) -> list[list[float]]:
    v = np.asarray(v, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in v]


def _parse_entry(entry: Any, where: str) -> complex:
    if (
        not isinstance(entry, (list, tuple))
        or len(entry) != 2
        or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
        )
    ):
        raise FormatError(f"{where}: each entry must be a [re, im] pair, got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def _parse_entries(entries: list[Any], where: str) -> np.ndarray:
    """The [re, im] pairs as one complex array; NaN and infinities are rejected."""
    values = np.array([_parse_entry(e, where) for e in entries], dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{where}: entry {bad[0]} is not a finite number")
    return values


def _parse_matrix(payload: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise FormatError(f"{where}: missing field {key!r}")
    rows, cols = payload["rows"], payload["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise FormatError(f"{where}: rows/cols must be positive integers")
    data = payload["data"]
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"{where}: data must list rows*cols = {rows * cols} entries, got "
            f"{len(data) if isinstance(data, list) else type(data).__name__}"
        )
    return _parse_entries(data, where).reshape(rows, cols)


def _parse_vector(payload: Any, where: str) -> np.ndarray:
    if not isinstance(payload, list) or not payload:
        raise FormatError(f"{where}: expected a nonempty array of [re, im] pairs")
    return _parse_entries(payload, where)


def _load_document(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not a valid document ({exc})") from exc


def _write_document(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render(payload))
        fh.write("\n")


def write_matrix(path: str, a: np.ndarray) -> None:
    """Store a complex matrix row-major with 17-significant-digit entries."""
    _write_document(path, _matrix_payload(a))


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix file written by ``write_matrix`` (or by hand)."""
    return _parse_matrix(_load_document(path), where=path)


def write_procrustes_instance(path: str, inst: ProcrustesInstance) -> None:
    pairs = [
        {
            "phi": _vector_payload(inst.inputs[:, j]),
            "psi": _vector_payload(inst.outputs[:, j]),
        }
        for j in range(inst.n_pairs)
    ]
    _write_document(path, {"pairs": pairs})


def read_procrustes_instance(path: str) -> ProcrustesInstance:
    doc = _load_document(path)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise FormatError(f"{path}: missing field 'pairs'")
    pairs = doc["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise FormatError(f"{path}: 'pairs' must be a nonempty array")
    parsed = []
    for idx, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "phi" not in pair or "psi" not in pair:
            raise FormatError(f"{path}: pair {idx} must have 'phi' and 'psi'")
        parsed.append(
            (
                _parse_vector(pair["phi"], f"{path}: pair {idx} phi"),
                _parse_vector(pair["psi"], f"{path}: pair {idx} psi"),
            )
        )
    try:
        return ProcrustesInstance.from_pairs(parsed)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_pgm_instance(
    path: str, inst: PGMInstance, rho: np.ndarray | None = None
) -> None:
    payload: dict[str, Any] = {
        "states": [_vector_payload(inst.states[:, j]) for j in range(inst.n_states)]
    }
    if rho is not None:
        payload["rho"] = _matrix_payload(rho)
    _write_document(path, payload)


def read_pgm_instance(path: str) -> tuple[PGMInstance, np.ndarray | None]:
    doc = _load_document(path)
    if not isinstance(doc, dict) or "states" not in doc:
        raise FormatError(f"{path}: missing field 'states'")
    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise FormatError(f"{path}: 'states' must be a nonempty array")
    columns = [_parse_vector(s, f"{path}: state {j}") for j, s in enumerate(states)]
    dims = {c.shape[0] for c in columns}
    if len(dims) != 1:
        raise FormatError(f"{path}: states must share one dimension, got {sorted(dims)}")
    try:
        inst = PGMInstance(states=np.column_stack(columns))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    rho = None
    if "rho" in doc:
        rho = _parse_matrix(doc["rho"], where=f"{path}: rho")
    return inst, rho


def write_split_hamiltonian(path: str, sh: SplitHamiltonian) -> None:
    payload = _matrix_payload(sh.matrix)
    payload["split"] = sh.split
    _write_document(path, payload)


def read_split_hamiltonian(path: str, split: int | None = None) -> SplitHamiltonian:
    """Load a split-Hamiltonian file; an explicit ``split`` overrides the stored one."""
    doc = _load_document(path)
    mat = _parse_matrix(doc, where=path)
    if split is None:
        if not isinstance(doc, dict) or "split" not in doc:
            raise FormatError(f"{path}: missing field 'split' and no override given")
        split = doc["split"]
    if not isinstance(split, int):
        raise FormatError(f"{path}: split must be an integer, got {split!r}")
    try:
        return SplitHamiltonian(matrix=mat, split=split)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
