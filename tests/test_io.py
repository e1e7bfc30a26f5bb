from __future__ import annotations

import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polarsim import generate, io
from polarsim.hsvt import SplitHamiltonian
from polarsim.procrustes import ProcrustesInstance


def test_matrix_roundtrip_is_exact(tmp_path):
    rng = generate.rng_for(801)
    a = generate.random_complex_matrix(5, 3, rng) * 1e7
    path = str(tmp_path / "a.json")
    io.write_matrix(path, a)
    back = io.read_matrix(path)
    # %.17g preserves doubles exactly
    np.testing.assert_array_equal(back, a)


def test_matrix_write_is_deterministic(tmp_path):
    rng = generate.rng_for(802)
    a = generate.random_complex_matrix(4, 4, rng)
    p1, p2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    io.write_matrix(p1, a)
    io.write_matrix(p2, a.copy())
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_matrix_rejects_malformed(tmp_path):
    path = str(tmp_path / "bad.json")
    cases = [
        "not json",
        '{"rows": 2, "cols": 2}',
        '{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[1]]}',
        '{"rows": 1, "cols": 1, "data": [[true, false]]}',
        '{"rows": 1, "cols": 1, "data": [["1", "0"]]}',
        '{"rows": -1, "cols": 1, "data": []}',
        '{"rows": 1, "cols": 2, "data": [[1, 0], [NaN, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[0, Infinity]]}',
        '{"rows": 1, "cols": 1, "data": [[-Infinity, 0]]}',
        # a boolean is not an integer, though Python's bool subclasses int
        '{"rows": true, "cols": true, "data": [[0.5, 0]]}',
        '{"rows": 1, "cols": 2, "data": [[1, 0], [1%s, 0]]}' % ("0" * 400),
    ]
    for text in cases:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(io.FormatError):
            io.read_matrix(path)
    # an integer literal too large for a float is named like NaN and Infinity
    with pytest.raises(io.FormatError, match=r"bad\.json: entry 1 is not a finite number"):
        io.read_matrix(path)


def test_matrix_file_matches_golden_text(tmp_path):
    # signed zeros, the smallest subnormal, a huge finite value and an
    # integer-valued entry, each printed with %.17g
    a = np.array([[-0.0, 5e-324], [1e308, -0.0], [3.0, 0.0], [0.1, -2.5e-10]])
    path = tmp_path / "golden.json"
    io.write_matrix(str(path), a.view(complex).reshape(2, 2))
    assert path.read_text() == (
        '{"rows": 2, "cols": 2, "data": [[-0, 4.9406564584124654e-324], '
        "[1e+308, -0], [3, 0], [0.10000000000000001, -2.5000000000000002e-10]]}\n"
    )
    # "-0" reads back as the JSON integer 0: values round-trip, zero signs do not
    np.testing.assert_array_equal(io.read_matrix(str(path)), a.view(complex).reshape(2, 2))


def _malformed_documents(entry: str) -> list[tuple[str, str]]:
    """(document, prefix of its rejection) with ``entry`` as entry 2 of a
    matrix, a procrustes vector and a pgm state."""
    ok = "[1, 0], [0, 0.5]"
    return [
        ('{"rows": 1, "cols": 3, "data": [%s, %s]}' % (ok, entry), "entry 2"),
        (
            '{"pairs": [{"phi": [%s, [0, 0]], "psi": [%s, %s]}]}' % (ok, ok, entry),
            "pair 0 psi: entry 2",
        ),
        (
            '{"states": [[%s, [0, 0]], [%s, %s]]}' % (ok, ok, entry),
            "state 1: entry 2",
        ),
    ]


_NOT_A_PAIR = "must be a [re, im] pair, got "
_NOT_FINITE = "is not a finite number"


@pytest.mark.parametrize(
    "entry, message",
    [
        ("null", _NOT_A_PAIR + "None"),
        ("[[1, 0], [0, 0]]", _NOT_A_PAIR + "[[1, 0], [0, 0]]"),
        ("[1, 0, 0]", _NOT_A_PAIR + "[1, 0, 0]"),
        ("[true, 0]", _NOT_A_PAIR + "[True, 0]"),
        ('["1", 0]', _NOT_A_PAIR + "['1', 0]"),
        ('"1"', _NOT_A_PAIR + "'1'"),
        ("[NaN, 0]", _NOT_FINITE),
        ("[0, Infinity]", _NOT_FINITE),
        ("[-Infinity, 0]", _NOT_FINITE),
        ("[1%s, 0]" % ("0" * 400), _NOT_FINITE),
    ],
    ids=["null", "nested", "three", "bool", "string-part", "string", "nan", "inf",
         "-inf", "huge-int"],
)
def test_every_reader_rejection_names_the_entry(tmp_path, entry, message):
    path = tmp_path / "bad.json"
    readers = (io.read_matrix, io.read_procrustes_instance, io.read_pgm_instance)
    for reader, (text, where) in zip(readers, _malformed_documents(entry)):
        path.write_text(text)
        with pytest.raises(io.FormatError) as exc:
            reader(str(path))
        assert str(exc.value) == f"{path}: {where} {message}"


@pytest.mark.parametrize(
    "entry",
    [None, [[1, 0], [0, 0]], [1, 0, 0], [1], [True, 0], ["1", 0], "1", "10", {}, 1],
    ids=["null", "nested", "three", "one", "bool", "string-part", "string",
         "two-char-string", "object", "number"],
)
def test_bulk_conversion_leaves_every_malformed_entry_to_the_per_entry_reading(entry):
    # the one conversion reads the numbers flattened, two per entry, so an
    # entry that is not a pair of numbers must send the whole list to the
    # per-entry reading, which names it with the message pinned above
    entries = [[1, 0], [0.5, -2], entry]
    assert io._bulk_pairs(entries) is None
    with pytest.raises(io.FormatError, match=r"^f: entry 2 must be a \[re, im\] pair, got "):
        io._parse_entries(entries, "f")
    np.testing.assert_array_equal(io._bulk_pairs(entries[:2]), [1, 0.5 - 2j])


def test_bulk_conversion_fills_one_preallocated_array():
    # 16 bytes per entry for the complex values and one byte for the
    # finiteness mask; a nested conversion through an (n, 2) object pass
    # peaked at 48 bytes per entry
    entries = json.loads(json.dumps(generate.random_state(4096, generate.rng_for(809))
                                    .view(float).reshape(-1, 2).tolist()))
    io._parse_entries(entries, "f")
    tracemalloc.start()
    try:
        io._parse_entries(entries, "f")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * len(entries) + 2**13


def _reference_entries(entries, where):
    """The reading one entry at a time: the first malformed or overflowing
    entry is named, then the first non-finite one."""
    values = []
    for k, entry in enumerate(entries):
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise io.FormatError(f"{where}: entry {k} {_NOT_A_PAIR}{entry!r}")
        try:
            values.append(complex(float(entry[0]), float(entry[1])))
        except OverflowError:
            raise io.FormatError(f"{where}: entry {k} {_NOT_FINITE}") from None
    for k, z in enumerate(values):
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise io.FormatError(f"{where}: entry {k} {_NOT_FINITE}")
    return np.array(values, dtype=complex)


def test_bulk_reader_matches_the_per_entry_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    number = st.one_of(
        st.integers(-(2**80), 2**80), st.floats(allow_nan=False, allow_infinity=False)
    )
    pair = st.lists(number, min_size=2, max_size=2)
    nonfinite = st.sampled_from([math.nan, math.inf, -math.inf])
    huge = st.sampled_from([10**400, -(10**400), 2**1024])
    bad = st.one_of(
        st.none(),
        number,
        st.text(max_size=3),
        st.lists(pair, min_size=2, max_size=2),
        st.lists(number, max_size=1),
        st.lists(number, min_size=3, max_size=3),
        st.tuples(st.booleans(), number).map(list),
        st.tuples(number, st.text(max_size=3)).map(list),
        st.tuples(nonfinite, number).map(list),
        st.tuples(number, nonfinite).map(list),
        st.tuples(huge, number).map(list),
        st.tuples(number, huge).map(list),
    )
    entry_lists = st.one_of(
        st.lists(pair, min_size=1, max_size=12),
        st.lists(st.one_of(pair, bad), min_size=1, max_size=12),
    )

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(entries=entry_lists)
    def check(entries):
        # through the JSON text, so every element has the type a reader sees
        entries = json.loads(json.dumps(entries))
        try:
            expected = _reference_entries(entries, "f")
        except io.FormatError as exc:
            with pytest.raises(io.FormatError) as got:
                io._parse_entries(entries, "f")
            assert str(got.value) == str(exc)
        else:
            assert io._parse_entries(entries, "f").tobytes() == expected.tobytes()

    check()


def test_procrustes_instance_roundtrip(tmp_path):
    rng = generate.rng_for(803)
    inst = generate.random_procrustes_instance(2, 3, 4, rng)
    path = str(tmp_path / "inst.json")
    io.write_procrustes_instance(path, inst)
    back = io.read_procrustes_instance(path)
    np.testing.assert_array_equal(back.inputs, inst.inputs)
    np.testing.assert_array_equal(back.outputs, inst.outputs)


def test_procrustes_instance_from_strided_views_roundtrips(tmp_path):
    # columns of a strided view are not contiguous in memory
    rng = generate.rng_for(808)
    inst = generate.random_procrustes_instance(3, 4, 5, rng)
    wide = np.zeros((2 * inst.inputs.shape[0], 2 * inst.n_pairs), dtype=complex)
    wide[::2, 1::2] = inst.inputs
    strided = ProcrustesInstance(inputs=wide[::2, 1::2], outputs=inst.outputs)
    assert not strided.inputs[:, 0].flags.contiguous
    assert not strided.outputs[:, 0].flags.contiguous
    path = tmp_path / "strided.json"
    io.write_procrustes_instance(str(path), strided)
    back = io.read_procrustes_instance(str(path))
    assert back.inputs.tobytes() == inst.inputs.tobytes()
    assert back.outputs.tobytes() == inst.outputs.tobytes()
    io.write_procrustes_instance(str(tmp_path / "plain.json"), inst)
    assert path.read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_procrustes_instance_rejects_bad_pairs(tmp_path):
    path = str(tmp_path / "inst.json")
    with open(path, "w") as fh:
        fh.write('{"pairs": [{"phi": [[1, 0]], "psi": [[2, 0]]}]}')
    # psi is not unit norm: domain validation surfaces as a format error
    with pytest.raises(io.FormatError):
        io.read_procrustes_instance(path)
    with open(path, "w") as fh:
        fh.write('{"pairs": []}')
    with pytest.raises(io.FormatError):
        io.read_procrustes_instance(path)
    with open(path, "w") as fh:
        fh.write('{"pairs": [{"phi": [[1, 0]]}]}')
    with pytest.raises(io.FormatError):
        io.read_procrustes_instance(path)
    # non-finite literals are refused by the reader, naming the entry
    for literal in ("NaN", "Infinity", "-Infinity"):
        with open(path, "w") as fh:
            fh.write(
                '{"pairs": [{"phi": [[1, 0], [0, 0]], "psi": [[0, 0], [%s, 0]]}]}'
                % literal
            )
        with pytest.raises(io.FormatError, match="pair 0 psi: entry 1 "):
            io.read_procrustes_instance(path)


def test_first_rejection_in_document_order_is_named(tmp_path):
    # the readers convert all vectors at once; a failure still names the first
    # bad place in the document, whether an entry or a pair's structure
    path = tmp_path / "inst.json"
    ok, bad = "[[1, 0], [0, 0]]", "[[0, 0], [1, true]]"
    cases = [
        (f'{{"pairs": [{{"phi": {ok}, "psi": {bad}}}, {{"phi": {ok}}}]}}',
         "pair 0 psi: entry 1 must be a [re, im] pair"),
        (f'{{"pairs": [{{"phi": {ok}, "psi": {ok}}}, {{"phi": {ok}}}, {{"phi": {bad}}}]}}',
         "pair 1 must have 'phi' and 'psi'"),
        (f'{{"pairs": [{{"phi": {ok}, "psi": {ok}}}, {{"phi": [], "psi": {bad}}}]}}',
         "pair 1 phi: expected a nonempty array"),
        (f'{{"states": [{ok}, {bad}, [[NaN, 0]]]}}', "state 1: entry 1 must be a [re, im] pair"),
    ]
    for text, where in cases:
        path.write_text(text)
        reader = io.read_pgm_instance if '"states"' in text else io.read_procrustes_instance
        with pytest.raises(io.FormatError) as exc:
            reader(str(path))
        assert str(exc.value).startswith(f"{path}: {where}")


def test_pgm_instance_roundtrip_with_rho(tmp_path):
    rng = generate.rng_for(804)
    inst = generate.random_pgm_instance(3, 4, rng)
    rho = generate.random_density(3, rng)
    path = str(tmp_path / "pgm.json")
    io.write_pgm_instance(path, inst, rho=rho)
    back, rho_back = io.read_pgm_instance(path)
    np.testing.assert_array_equal(back.states, inst.states)
    np.testing.assert_array_equal(rho_back, rho)
    # without rho the optional field stays empty
    io.write_pgm_instance(path, inst)
    _, rho_none = io.read_pgm_instance(path)
    assert rho_none is None


def test_pgm_instance_rejects_mixed_dimensions(tmp_path):
    path = str(tmp_path / "pgm.json")
    with open(path, "w") as fh:
        fh.write('{"states": [[[1, 0]], [[1, 0], [0, 0]]]}')
    with pytest.raises(io.FormatError):
        io.read_pgm_instance(path)


def test_split_hamiltonian_roundtrip_and_override(tmp_path):
    rng = generate.rng_for(805)
    sh = generate.random_split_hamiltonian(2, 3, rng)
    path = str(tmp_path / "m.json")
    io.write_split_hamiltonian(path, sh)
    back = io.read_split_hamiltonian(path)
    np.testing.assert_array_equal(back.matrix, sh.matrix)
    assert back.split == 2
    override = io.read_split_hamiltonian(path, split=3)
    assert override.split == 3
    with pytest.raises(io.FormatError):
        io.read_split_hamiltonian(path, split=5)
    # a stored split of true is a boolean, not the integer 1
    with open(path, "w") as fh:
        fh.write('{"rows": 2, "cols": 2, "data": [[0, 0], [1, 0], [1, 0], [0, 0]], "split": true}')
    with pytest.raises(io.FormatError, match="split must be an integer"):
        io.read_split_hamiltonian(path)


def test_split_hamiltonian_requires_split_field(tmp_path):
    rng = generate.rng_for(806)
    a = generate.random_hermitian(3, rng)
    path = str(tmp_path / "plain.json")
    io.write_matrix(path, a)
    with pytest.raises(io.FormatError, match="split"):
        io.read_split_hamiltonian(path)
    sh = io.read_split_hamiltonian(path, split=1)
    assert isinstance(sh, SplitHamiltonian)


def test_non_hermitian_split_matrix_is_format_error(tmp_path):
    rng = generate.rng_for(807)
    a = generate.random_complex_matrix(3, 3, rng)
    a = a + np.eye(3)  # almost surely not Hermitian
    path = str(tmp_path / "nh.json")
    io.write_matrix(path, a)
    with pytest.raises(io.FormatError, match="Hermitian"):
        io.read_split_hamiltonian(path, split=1)


@pytest.fixture()
def collections():
    """The generation of every cyclic collection started while the test runs,
    with the collector enabled at the start and its state restored after."""
    runs: list[int] = []

    def hook(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(hook)
    yield runs
    gc.callbacks.remove(hook)
    if not enabled:
        gc.disable()


def _paused_reads(tmp_path) -> list:
    """One read of each document type, each large enough that its thousands
    of [re, im] lists would set off collections with the collector running."""
    rng = generate.rng_for(811)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("a", "sh", "pr", "pgm")}
    io.write_matrix(paths["a"], generate.random_complex_matrix(64, 64, rng))
    io.write_split_hamiltonian(paths["sh"], generate.random_split_hamiltonian(32, 32, rng))
    io.write_procrustes_instance(
        paths["pr"], generate.random_procrustes_instance(32, 32, 48, rng)
    )
    ensemble = generate.random_pgm_instance(32, 32, rng)
    io.write_pgm_instance(paths["pgm"], ensemble, ensemble.gram_operator() / 32)
    return [
        lambda: io.read_matrix(paths["a"]),
        lambda: io.read_split_hamiltonian(paths["sh"]),
        lambda: io.read_procrustes_instance(paths["pr"]),
        lambda: io.read_pgm_instance(paths["pgm"]),
    ]


def test_readers_run_no_collection(tmp_path, collections):
    # every list of a document is freed by reference counting before the
    # reader returns, so a paused collector has nothing left to traverse
    reads = _paused_reads(tmp_path)
    gc.collect()
    collections.clear()
    for read in reads:
        read()
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_readers_restore_the_collector_state(tmp_path, collections, enabled):
    reads = _paused_reads(tmp_path)
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"rows": 1, "cols": 1, "data": [[NaN, 0]]}')
    if not enabled:  # a caller who disabled the collector finds it still disabled
        gc.disable()
    for read in reads:
        read()
        assert gc.isenabled() is enabled
    with pytest.raises(io.FormatError):
        io.read_matrix(bad)
    assert gc.isenabled() is enabled
    with pytest.raises(io.FormatError):
        io.read_split_hamiltonian(bad)
    assert gc.isenabled() is enabled
