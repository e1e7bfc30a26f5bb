"""Text file formats for matrices and problem instances.

All formats are JSON documents.  Complex numbers are stored as [re, im]
pairs and matrices row-major under ``rows``/``cols``/``data`` keys.  Writers
print every number with 17 significant digits, so round-trips are exact up
to the sign of zero: -0.0 is written as ``-0``, an integer literal, and
reads back as +0.0.  Readers accept integer and decimal literals
interchangeably and reject the non-finite literals NaN, Infinity and
-Infinity.

Entries are handled in bulk.  A writer fills one repeated "[%.17g, %.17g]"
template with every pair at once.  A reader scans the element types and
the entry lengths once, converts the whole pair list with one
``np.fromiter`` over its flattened numbers and checks finiteness on the
array; only when that fails does it walk the entries one by one, and then
only to name the first bad one.  The procrustes and pgm readers convert
every vector of a document in that one step.  Every rejection of an entry
names its index.

Every public reader runs with the cyclic collector paused.  A 128x128
document parses to 16,384 two-element lists that stay alive through the
conversion, so young collections would traverse and promote them, and the
promotions would set off full collections across every object of numpy and
the module graph.  The lists hold only numbers and sit in no reference
cycle: reference counting frees all of them when the reader returns, before
the collector resumes, so pausing it skips that work and leaks nothing.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
from typing import Any, Callable, TypeVar

import numpy as np

from .hsvt import SplitHamiltonian
from .pgm import PGMInstance
from .procrustes import ProcrustesInstance


class FormatError(ValueError):
    """Raised when a file parses as text but not as the expected structure."""


_Reader = TypeVar("_Reader", bound=Callable[..., Any])


def _collector_paused(read: _Reader) -> _Reader:
    """``read`` with the cyclic collector disabled from the parse to the
    release of its document; the caller's collector state is restored."""

    @functools.wraps(read)
    def paused(*args: Any, **kwargs: Any) -> Any:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return read(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


def _render(value: Any) -> str:
    """Minimal JSON writer with fixed float formatting.

    A complex ndarray renders as its flattened [re, im] pairs in one step:
    one "[%.17g, %.17g]" template per entry, filled by a single ``%``.
    """
    if isinstance(value, np.ndarray):
        parts = np.ascontiguousarray(value, dtype=complex).reshape(-1).view(float)
        template = "[" + ", ".join(["[%.17g, %.17g]"] * (parts.size // 2)) + "]"
        return template % tuple(parts.tolist())
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
        return "%.17g" % float(value)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _matrix_payload(a: np.ndarray) -> dict[str, Any]:
    a = np.asarray(a, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1], "data": a.reshape(-1)}


def _bulk_pairs(entries: list[Any]) -> np.ndarray | None:
    """The entries as one complex array when every one is a pair of JSON
    numbers that fits a float, else None.

    The element types are scanned before the conversion because numpy would
    quietly read true as 1.0, "1" as 1.0 and null as nan, and the lengths
    because the conversion reads the numbers flattened, 2 per entry, into
    one preallocated array.
    """
    try:
        kinds = set(map(type, itertools.chain.from_iterable(entries)))
    except TypeError:  # an entry that is not an array
        return None
    if not kinds <= {int, float} or set(map(len, entries)) != {2}:
        return None
    numbers = itertools.chain.from_iterable(entries)
    try:
        pairs = np.fromiter(numbers, float, count=2 * len(entries))
    except OverflowError:  # an integer literal too large for a float
        return None
    return pairs.view(complex)


def _pairs_one_by_one(entries: list[Any], where: str) -> np.ndarray:
    """The per-entry reading, which names the first entry that is not a pair
    of JSON numbers or holds an integer literal too large for a float."""
    values = np.empty(len(entries), dtype=complex)
    for k, entry in enumerate(entries):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry
            )
        ):
            raise FormatError(f"{where}: entry {k} must be a [re, im] pair, got {entry!r}")
        try:
            values[k] = complex(float(entry[0]), float(entry[1]))
        except OverflowError:
            raise FormatError(f"{where}: entry {k} is not a finite number") from None
    return values


def _parse_entries(entries: list[Any], where: str) -> np.ndarray:
    """The [re, im] pairs as one complex array; NaN, infinities and integer
    literals too large for a float are rejected, naming the entry."""
    values = _bulk_pairs(entries)
    if values is None:
        values = _pairs_one_by_one(entries, where)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FormatError(f"{where}: entry {bad[0]} is not a finite number")
    return values


def _is_int(value: Any) -> bool:
    """A JSON integer literal: true and false are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_matrix(payload: Any, where: str = "matrix") -> np.ndarray:
    if not isinstance(payload, dict):
        raise FormatError(f"{where}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise FormatError(f"{where}: missing field {key!r}")
    rows, cols = payload["rows"], payload["cols"]
    if not _is_int(rows) or not _is_int(cols) or rows < 1 or cols < 1:
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


def _parse_vectors(payloads: list[Any], where: Callable[[int], str]) -> list[np.ndarray]:
    """Every vector of a document through one bulk conversion.

    ``where(k)`` names vector k.  Only when the bulk conversion fails are the
    vectors read one by one, so the first rejection in document order and its
    message are those of ``_parse_vector``.
    """
    if all(isinstance(p, list) and p for p in payloads):
        values = _bulk_pairs(list(itertools.chain.from_iterable(payloads)))
        if values is not None and np.isfinite(values).all():
            ends = np.cumsum([len(p) for p in payloads]).tolist()
            return [values[end - len(p) : end] for p, end in zip(payloads, ends)]
    return [_parse_vector(p, where(k)) for k, p in enumerate(payloads)]


def _load_document(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past Python's digit limit
        raise FormatError(f"{path}: not a valid document ({exc})") from exc


def _write_document(path: str, payload: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render(payload))
        fh.write("\n")


def write_matrix(path: str, a: np.ndarray) -> None:
    """Store a complex matrix row-major with 17-significant-digit entries."""
    _write_document(path, _matrix_payload(a))


@_collector_paused
def read_matrix(path: str) -> np.ndarray:
    """Load a matrix file written by ``write_matrix`` (or by hand)."""
    return _parse_matrix(_load_document(path), where=path)


def write_procrustes_instance(path: str, inst: ProcrustesInstance) -> None:
    pairs = [
        {"phi": inst.inputs[:, j], "psi": inst.outputs[:, j]}
        for j in range(inst.n_pairs)
    ]
    _write_document(path, {"pairs": pairs})


@_collector_paused
def read_procrustes_instance(path: str) -> ProcrustesInstance:
    doc = _load_document(path)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise FormatError(f"{path}: missing field 'pairs'")
    pairs = doc["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise FormatError(f"{path}: 'pairs' must be a nonempty array")
    vectors: list[Any] = []  # phi_0, psi_0, phi_1, ...

    def where(k: int) -> str:
        return f"{path}: pair {k // 2} {('phi', 'psi')[k % 2]}"

    for idx, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "phi" not in pair or "psi" not in pair:
            _parse_vectors(vectors, where)  # a bad entry of an earlier pair comes first
            raise FormatError(f"{path}: pair {idx} must have 'phi' and 'psi'")
        vectors += (pair["phi"], pair["psi"])
    columns = _parse_vectors(vectors, where)
    try:
        return ProcrustesInstance.from_pairs(list(zip(columns[::2], columns[1::2])))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_pgm_instance(
    path: str, inst: PGMInstance, rho: np.ndarray | None = None
) -> None:
    payload: dict[str, Any] = {
        "states": [inst.states[:, j] for j in range(inst.n_states)]
    }
    if rho is not None:
        payload["rho"] = _matrix_payload(rho)
    _write_document(path, payload)


@_collector_paused
def read_pgm_instance(path: str) -> tuple[PGMInstance, np.ndarray | None]:
    doc = _load_document(path)
    if not isinstance(doc, dict) or "states" not in doc:
        raise FormatError(f"{path}: missing field 'states'")
    states = doc["states"]
    if not isinstance(states, list) or not states:
        raise FormatError(f"{path}: 'states' must be a nonempty array")
    columns = _parse_vectors(states, lambda j: f"{path}: state {j}")
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


@_collector_paused
def read_split_hamiltonian(path: str, split: int | None = None) -> SplitHamiltonian:
    """Load a split-Hamiltonian file; an explicit ``split`` overrides the stored one."""
    doc = _load_document(path)
    mat = _parse_matrix(doc, where=path)
    if split is None:
        if not isinstance(doc, dict) or "split" not in doc:
            raise FormatError(f"{path}: missing field 'split' and no override given")
        split = doc["split"]
    if not _is_int(split):
        raise FormatError(f"{path}: split must be an integer, got {split!r}")
    try:
        return SplitHamiltonian(matrix=mat, split=split)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
