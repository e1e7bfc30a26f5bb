from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from polarsim import generate, io
from polarsim.hsvt import SplitHamiltonian


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
    ]
    for text in cases:
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(io.FormatError):
            io.read_matrix(path)


def test_procrustes_instance_roundtrip(tmp_path):
    rng = generate.rng_for(803)
    inst = generate.random_procrustes_instance(2, 3, 4, rng)
    path = str(tmp_path / "inst.json")
    io.write_procrustes_instance(path, inst)
    back = io.read_procrustes_instance(path)
    np.testing.assert_array_equal(back.inputs, inst.inputs)
    np.testing.assert_array_equal(back.outputs, inst.outputs)


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
