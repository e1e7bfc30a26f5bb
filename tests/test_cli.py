from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from polarsim import cli, generate, hsvt, io, linalg, pgm, polar, procrustes, spectral
from polarsim.report import strip_timings


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def lines_of(out: str) -> dict[str, str]:
    entries = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(": ")
        entries[key] = value
    return entries


@pytest.fixture()
def workdir(tmp_path):
    rng = generate.rng_for(900)
    io.write_matrix(str(tmp_path / "a.json"), generate.random_complex_matrix(3, 3, rng))
    io.write_matrix(str(tmp_path / "eye.json"), np.eye(2, dtype=complex))
    io.write_procrustes_instance(
        str(tmp_path / "inst.json"),
        generate.random_procrustes_instance(2, 2, 3, rng, realizable=True),
    )
    io.write_pgm_instance(
        str(tmp_path / "pgm.json"), generate.random_pgm_instance(2, 3, rng)
    )
    io.write_split_hamiltonian(
        str(tmp_path / "m.json"), generate.random_split_hamiltonian(2, 2, rng)
    )
    return tmp_path


def test_every_command_is_reachable(workdir, capsys):
    # coverage: one passing invocation per registered command
    invocations = {
        "polar": ["polar", "--input", str(workdir / "a.json")],
        "evolve": ["evolve", "--input", str(workdir / "a.json"), "--time", "0.5"],
        "procrustes": ["procrustes", "--input", str(workdir / "inst.json")],
        "pgm": ["pgm", "--input", str(workdir / "pgm.json")],
        "hsvt": ["hsvt", "--input", str(workdir / "m.json")],
        "verify": ["verify", "--suite", "core", "--seed", "3"],
        "generate": [
            "generate", "--kind", "matrix", "--dims", "2,2",
            "--seed", "1", "--output", str(workdir / "gen.json"),
        ],
    }
    assert set(invocations) == set(cli._COMMANDS)
    for name, argv in invocations.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0, f"{name} failed:\n{out}"
        assert lines_of(out)["command"] == name
        assert lines_of(out)["verdict"] == "pass"


def test_polar_identity_reports_identity_isometry(workdir, capsys):
    code, out = run_cli(capsys, "polar", "--input", str(workdir / "eye.json"))
    assert code == 0
    entries = lines_of(out)
    assert entries["min_column_fidelity"] == "1"
    assert float(entries["isometry_deviation"]) < 1e-12
    assert abs(complex(entries["isometry.0.0"]) - 1) < 1e-12
    assert abs(complex(entries["isometry.0.1"])) < 1e-12
    assert entries["verdict"] == "pass"


def test_evolve_time_zero_is_identity(workdir, capsys):
    code, out = run_cli(
        capsys, "evolve", "--input", str(workdir / "a.json"), "--time", "0"
    )
    assert code == 0
    entries = lines_of(out)
    assert float(entries["deviation"]) < 1e-12
    assert float(entries["fidelity"]) == pytest.approx(1.0, abs=1e-12)


def test_exit_codes(workdir, capsys):
    # verdict failure: qpe rounding cannot meet the default tolerance
    code, _ = run_cli(
        capsys, "polar", "--input", str(workdir / "a.json"), "--mode", "qpe",
        "--bits", "4",
    )
    assert code == 1
    # usage errors
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["polar", "--input", str(workdir / "a.json"), "--bits", "0"]) == 2
    assert cli.main(["generate", "--kind", "matrix", "--dims", "2",
                     "--seed", "1", "--output", str(workdir / "g.json")]) == 2
    # kappa_tilde is range-checked where the sign function is built, from the CLI too
    for bad in ("1", "nan", "inf", "1e12"):
        assert cli.main(["polar", "--input", str(workdir / "a.json"),
                         "--kappa-tilde", bad]) == 2, bad
    # so is the evolution time: a non-finite one is refused before any work
    for bad in ("nan", "inf", "-inf"):
        assert cli.main(["evolve", "--input", str(workdir / "a.json"), "--time", bad]) == 2, bad
        assert cli.main(["hsvt", "--input", str(workdir / "m.json"), "--time", bad]) == 2, bad
    # unreadable file
    assert cli.main(["polar", "--input", str(workdir / "missing.json")]) == 3
    # malformed content
    bad = workdir / "bad.json"
    bad.write_text("nonsense")
    assert cli.main(["polar", "--input", str(bad)]) == 4
    # content that parses but violates domain rules
    io.write_matrix(str(workdir / "nh.json"), np.ones((2, 2)) + 1j * np.eye(2))
    assert cli.main(["hsvt", "--input", str(workdir / "nh.json"), "--split", "1"]) == 4
    capsys.readouterr()


def test_oversized_pointer_is_refused_before_allocating(workdir, capsys):
    # a 40-bit pointer on the 4-dimensional dilation of a 2x2 matrix asks for
    # 16 TiB per table: usage error, and no array of that size is ever started,
    # on the exact dilation and on the synthesized walk alike
    for argv in (
        ["polar", "--input", "eye.json", "--mode", "qpe", "--bits", "40"],
        ["procrustes", "--input", "inst.json", "--mode", "qpe", "--steps", "5", "--bits", "40"],
    ):
        argv[2] = str(workdir / argv[2])
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        assert "pointer budget" in capsys.readouterr().err


def test_kappa_tilde_keeps_a_singular_value_at_the_threshold(tmp_path, capsys):
    # sigma = sigma_max/kappa_tilde exactly: the route (eigh of the dilation)
    # and the oracle (SVD) see it through different round-off, and both keep it
    rng = generate.rng_for(905)
    path = str(tmp_path / "tie.json")
    for _ in range(40):
        a = generate.matrix_with_singular_values(np.array([1.0, 0.5, 0.25]), 3, 3, rng)
        io.write_matrix(path, a)
        code, out = run_cli(capsys, "polar", "--input", path, "--kappa-tilde", "4")
        assert code == 0, out


def test_verify_report_is_deterministic(workdir, capsys):
    args = ["verify", "--suite", "acceptance", "--seed", "11"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert strip_timings(out1) == strip_timings(out2)
    assert "item.polar-oracle-equivalence.verdict: pass" in out1


def test_verify_unknown_suite_is_usage_error(capsys):
    code = cli.main(["verify", "--suite", "nonexistent-item"])
    capsys.readouterr()
    assert code == 2


def test_tolerance_env_override(workdir, capsys, monkeypatch):
    monkeypatch.setenv("POLARSIM_TOLERANCE", "0.5")
    code, out = run_cli(capsys, "polar", "--input", str(workdir / "a.json"))
    assert code == 0
    assert lines_of(out)["config.tolerance"] == "0.5"
    monkeypatch.setenv("POLARSIM_TOLERANCE", "not-a-number")
    code, _ = run_cli(
        capsys, "polar", "--input", str(workdir / "a.json")
    )
    assert code == 2


def test_output_file_matches_stdout(workdir, capsys):
    out_path = workdir / "report.txt"
    code, out = run_cli(
        capsys, "polar", "--input", str(workdir / "a.json"),
        "--output", str(out_path),
    )
    assert code == 0
    assert out_path.read_text() == out


def test_generate_files_are_reproducible(workdir, capsys):
    p1, p2 = workdir / "r1.json", workdir / "r2.json"
    for path in (p1, p2):
        code, _ = run_cli(
            capsys, "generate", "--kind", "procrustes", "--dims", "2,2,4",
            "--seed", "42", "--realizable", "--output", str(path),
        )
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    inst = io.read_procrustes_instance(str(p1))
    assert inst.n_pairs == 4


def test_generated_instances_pass_self_checks(workdir, capsys):
    for kind, dims in (
        ("matrix", "3,2"), ("pgm", "2,3"), ("split-hamiltonian", "2,2"),
    ):
        path = workdir / f"gen-{kind}.json"
        code, out = run_cli(
            capsys, "generate", "--kind", kind, "--dims", dims,
            "--seed", "5", "--output", str(path),
        )
        assert code == 0
        assert lines_of(out)["verdict"] == "pass"
    # realizable flag on the wrong kind is a usage error
    assert cli.main(["generate", "--kind", "matrix", "--dims", "2,2",
                     "--seed", "1", "--realizable",
                     "--output", str(workdir / "x.json")]) == 2
    capsys.readouterr()


def test_pgm_command_with_rho_and_shots(workdir, capsys):
    rng = generate.rng_for(901)
    inst = generate.random_pgm_instance(2, 2, rng)
    rho = generate.random_density(2, rng)
    path = workdir / "pgm-rho.json"
    io.write_pgm_instance(str(path), inst, rho=rho)
    code, out = run_cli(
        capsys, "pgm", "--input", str(path), "--shots", "500", "--seed", "9"
    )
    assert code == 0
    entries = lines_of(out)
    assert entries["rho"] == "from-file"
    counts = [int(entries[f"counts.{j}"]) for j in range(2)]
    assert sum(counts) + int(entries["counts.outside"]) == 500


def test_hsvt_command_modes(workdir, capsys):
    code, out = run_cli(
        capsys, "hsvt", "--input", str(workdir / "m.json"),
        "--function", "abs", "--time", "0.4",
    )
    assert code == 0
    assert float(lines_of(out)["isolation_deviation"]) == 0.0
    code, out = run_cli(
        capsys, "hsvt", "--input", str(workdir / "m.json"),
        "--function", "sign", "--kappa-tilde", "2.5",
    )
    assert code == 0
    assert "flag_probability" in lines_of(out)


def test_module_entrypoint_runs_in_subprocess(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "polarsim", "verify", "--suite", "hsvt",
         "--seed", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "item.hsvt-isolation.verdict: pass" in proc.stdout


def test_state_file_flows_through_polar(workdir, capsys):
    vec = np.zeros((6, 1), dtype=complex)
    vec[0, 0] = 1.0
    io.write_matrix(str(workdir / "state.json"), vec)
    code, out = run_cli(
        capsys, "polar", "--input", str(workdir / "a.json"),
        "--state", str(workdir / "state.json"),
    )
    assert code == 0
    entries = lines_of(out)
    assert "state_output.0" in entries
    # wrong dimension is malformed content
    io.write_matrix(str(workdir / "short.json"), vec[:3])
    assert cli.main(["polar", "--input", str(workdir / "a.json"),
                     "--state", str(workdir / "short.json")]) == 4
    capsys.readouterr()


def test_polar_state_output_is_graded(workdir, capsys, monkeypatch):
    io.write_matrix(
        str(workdir / "state6.json"),
        generate.random_state(6, generate.rng_for(906)).reshape(6, 1),
    )
    argv = ["polar", "--input", str(workdir / "a.json"),
            "--state", str(workdir / "state6.json")]
    for extra in ([], ["--kappa-tilde", "2"]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        assert float(lines_of(out)["state_deviation"]) < 1e-12
    # a route that corrupts only the state call, not the column basis, fails
    original = polar.apply_polar_isometry

    def corrupted(dil, psi, *args, **kwargs):
        kept, flagged, diag = original(dil, psi, *args, **kwargs)
        if np.ndim(psi) == 2:
            return kept, flagged, diag
        n = len(kept) // 2  # A is square
        return np.concatenate([kept[:n], -kept[n:]]), flagged, diag

    monkeypatch.setattr(polar, "apply_polar_isometry", corrupted)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert float(lines_of(out)["isometry_deviation"]) < 1e-12
    assert float(lines_of(out)["state_deviation"]) > 0.1


@pytest.mark.parametrize(
    "mode",
    [["--mode", "exact"], ["--mode", "qpe", "--bits", "10", "--tolerance", "0.05"]],
    ids=["exact", "qpe"],
)
def test_hsvt_grades_its_route_against_the_oracle(workdir, capsys, monkeypatch, mode):
    # the route runs once and the block swap it must match comes from verify,
    # so a route that returns a wrong block swap fails
    argv = ["hsvt", "--input", str(workdir / "m.json"), *mode]
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    original = polar.apply_polar_isometry

    def wrong_swap(dil, psi, *args, **kwargs):
        kept, flagged, diag = original(dil, psi, *args, **kwargs)
        n = len(kept) // 2  # the split is 2 + 2
        return np.concatenate([kept[:n], -kept[n:]]), flagged, diag

    monkeypatch.setattr(polar, "apply_polar_isometry", wrong_swap)
    code, out = run_cli(capsys, *argv)
    assert code == 1, out
    assert float(lines_of(out)["deviation_vs_exact"]) > 0.1


def test_procrustes_kappa_tilde_grades_against_restricted_isometry(tmp_path, capsys):
    # the flagged singular values are not mapped, so the oracle is U_r chi
    path = str(tmp_path / "p.json")
    assert cli.main(["generate", "--kind", "procrustes", "--dims", "3,4,5",
                     "--seed", "3", "--output", path]) == 0
    for extra in ([], ["--mode", "qpe", "--steps", "0", "--tolerance", "1e-3"]):
        code, out = run_cli(capsys, "procrustes", "--input", path,
                            "--kappa-tilde", "3", *extra)
        entries = lines_of(out)
        assert code == 0, out
        assert float(entries["fidelity"]) >= 0.999
        assert float(entries["flag_probability"]) > 0.1


def test_kappa_tilde_is_refused_where_it_does_not_act(workdir, capsys):
    # evolve and pgm apply no sign transform; hsvt applies one for sign only
    for argv in (
        ["evolve", "--input", "a.json", "--time", "0.5", "--kappa-tilde", "4"],
        ["pgm", "--input", "pgm.json", "--kappa-tilde", "2"],
        ["pgm", "--input", "pgm.json", "--mode", "qpe", "--kappa-tilde", "2"],
        ["hsvt", "--input", "m.json", "--function", "abs", "--kappa-tilde", "2"],
        ["hsvt", "--input", "m.json", "--function", "linear", "--kappa-tilde", "2"],
    ):
        argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
        assert cli.main(argv) == 2, argv
    assert "applies to --function sign only" in capsys.readouterr().err


def test_reports_do_not_depend_on_blas_threads(workdir):
    # a threaded BLAS sums in a thread-dependent order; the CLI pins it to one
    if cli._openblas_threads() is None:
        pytest.skip("the loaded BLAS exports no OpenBLAS thread-count entry points")
    path = workdir / "a128.json"
    io.write_matrix(str(path), generate.random_complex_matrix(128, 128, generate.rng_for(905)))
    reports = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "polarsim", "evolve", "--input", str(path),
             "--time", "1"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(strip_timings(proc.stdout))
    assert reports[0] == reports[1]


def test_nan_state_is_malformed(workdir, capsys):
    # NaN fails the unit-norm check instead of flowing into a verdict
    path = workdir / "nan-state.json"
    path.write_text(
        '{"rows": 4, "cols": 1, "data": [[NaN, 0], [1, 0], [0, 0], [0, 0]]}'
    )
    for command in (["polar"], ["evolve", "--time", "0.5"]):
        argv = command + ["--input", str(workdir / "eye.json"), "--state", str(path)]
        assert cli.main(argv) == 4
    capsys.readouterr()


def test_polar_factors_the_operator_once(workdir, capsys, count_factorizations):
    io.write_matrix(
        str(workdir / "a6.json"),
        generate.random_complex_matrix(6, 6, generate.rng_for(902)),
    )
    io.write_matrix(
        str(workdir / "state12.json"),
        generate.random_state(12, generate.rng_for(907)).reshape(12, 1),
    )
    argv = ["polar", "--input", str(workdir / "a6.json"), "--mode", "qpe",
            "--bits", "6", "--tolerance", "1"]
    # the column basis and the --state run share the dilation and the oracle SVD
    for extra in ([], ["--state", str(workdir / "state12.json")]):
        calls = count_factorizations()
        assert cli.main(argv + extra) == 0
        capsys.readouterr()
        assert calls == [("eigh", (12, 12)), ("svd", (6, 6))]


def _write_operator_and_split(path, a, rng) -> tuple[str, str]:
    # A itself, and a split Hamiltonian whose coupling is A, diagonal blocks nonzero
    m, n = a.shape
    mat = np.zeros((n + m, n + m), dtype=complex)
    mat[:n, :n] = generate.random_hermitian(n, rng)
    mat[n:, n:] = generate.random_hermitian(m, rng)
    mat[n:, :n] = a
    mat[:n, n:] = a.conj().T
    io.write_matrix(str(path / "a.json"), a)
    io.write_split_hamiltonian(str(path / "m.json"), hsvt.SplitHamiltonian(mat, split=n))
    return str(path / "a.json"), str(path / "m.json")


def test_linear_evolution_of_a_tiny_operator_is_not_zeroed(tmp_path, capsys):
    # sigma_max = 1e-13 puts every eigenvalue of the dilation inside the zero
    # band before rescaling, never after: e^{-iHt} at t = 1e13 must not be identity
    rng = generate.rng_for(904)
    a = generate.matrix_with_singular_values(np.array([1e-13, 0.6e-13, 0.3e-13]), 3, 3, rng)
    a_path, m_path = _write_operator_and_split(tmp_path, a, rng)
    for argv in (["evolve", "--input", a_path], ["hsvt", "--input", m_path]):
        code, out = run_cli(capsys, *argv, "--function", "linear", "--time", "1e13")
        assert code == 0, out
        assert float(lines_of(out)["fidelity"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mode", [(), ("--mode", "qpe", "--bits", "8")], ids=["exact", "qpe"])
def test_evolve_abs_and_hsvt_abs_take_one_path(tmp_path, capsys, mode):
    # hsvt transforms the isolated coupling, which is A bit for bit, through
    # the same evolution as evolve: their outputs agree byte for byte
    rng = generate.rng_for(905)
    a_path, m_path = _write_operator_and_split(
        tmp_path, generate.random_complex_matrix(3, 3, rng), rng
    )
    outputs = []
    for argv in (["evolve", "--input", a_path], ["hsvt", "--input", m_path]):
        _, out = run_cli(capsys, *argv, "--function", "abs", "--time", "0.7", *mode)
        outputs.append([line for line in out.splitlines()
                        if line.startswith(("output.", "fidelity:"))])
    assert len(outputs[0]) == 7 and outputs[0] == outputs[1]


def test_evolve_abs_factors_the_operator_once(workdir, capsys, count_factorizations):
    # the dilation for the route, one SVD for the oracle
    calls = count_factorizations()
    assert cli.main(["evolve", "--input", str(workdir / "a.json"), "--time", "0.5"]) == 0
    capsys.readouterr()
    assert calls == [("eigh", (6, 6)), ("svd", (3, 3))]


@pytest.mark.parametrize("d, n", [(4, 3), (5, 8)])
def test_pgm_factors_each_operator_once(tmp_path, capsys, count_factorizations, d, n):
    # the route: rho and the stacking map's dilation; the direct path: one SVD
    # of the states; the residuals: one SVD of the stacking map, never shared
    path = tmp_path / "pgm.json"
    io.write_pgm_instance(str(path), generate.random_pgm_instance(d, n, generate.rng_for(903)))
    calls = count_factorizations()
    assert cli.main(["pgm", "--input", str(path), "--mode", "qpe", "--bits", "6",
                     "--tolerance", "1"]) == 0
    capsys.readouterr()
    assert sorted(calls) == sorted(
        [("eigh", (d, d)), ("eigh", (n + d, n + d)), ("svd", (d, n)), ("svd", (n, d))]
    )


def _conditioned_ensemble(eps: float) -> pgm.PGMInstance:
    # phi_3 leans on phi_1 by an angle eps: sigma_min/sigma_max = eps/2
    q = generate.random_unitary(4, generate.rng_for(5))
    phi = np.column_stack([q[:, 0], q[:, 1], np.cos(eps) * q[:, 0] + np.sin(eps) * q[:, 2]])
    return pgm.PGMInstance(states=phi / np.linalg.norm(phi, axis=0))


@pytest.mark.parametrize("eps, cap", [(3.8e-6, 1e-10), (8.2e-8, 1e-8)], ids=["1.9e-6", "4.1e-8"])
def test_pgm_keeps_every_state_of_an_ill_conditioned_ensemble(tmp_path, capsys, eps, cap):
    # through S = Phi Phi^dag the condition number squares: at 1.9e-6 the
    # completeness residual reaches 6e-5, and at 4.1e-8 a state falls under
    # S's rank cut; the residuals must stay near eps kappa(Phi)
    path = tmp_path / "pgm.json"
    io.write_pgm_instance(str(path), _conditioned_ensemble(eps))
    code, out = run_cli(capsys, "pgm", "--input", str(path))
    entries = lines_of(out)
    assert code == 0, out
    assert float(entries["completeness_residual"]) <= cap
    assert float(entries["repreparation_error"]) <= cap


def test_pgm_paths_read_one_rho(tmp_path, capsys):
    # the reader admits an eigenvalue down to -1e-8; both paths and the
    # sampler must read that rho alike
    path = tmp_path / "pgm.json"
    rho = np.diag([1.0 + 5e-9, -5e-9, 0.0]).astype(complex)
    io.write_pgm_instance(str(path), pgm.PGMInstance(np.eye(3, 2, dtype=complex)), rho=rho)
    code, out = run_cli(capsys, "pgm", "--input", str(path))
    assert code == 0, out
    assert float(lines_of(out)["dual_path_gap"]) <= 1e-15
    code, out = run_cli(capsys, "pgm", "--input", str(path), "--shots", "100")
    assert code == 0, out
    assert lines_of(out)["counts.0"] == "100"


def test_pgm_verdict_grades_the_repreparation(tmp_path, capsys, monkeypatch):
    # a phase e^{0.3ij} on each chi_j leaves the probabilities and the
    # completeness intact; only the re-preparation U^dag|j> = chi_j sees it
    path = tmp_path / "pgm.json"
    io.write_pgm_instance(str(path), generate.random_pgm_instance(5, 4, generate.rng_for(3)))
    code, out = run_cli(capsys, "pgm", "--input", str(path))
    assert code == 0, out
    original = pgm.pgm_vectors
    monkeypatch.setattr(
        pgm, "pgm_vectors", lambda inst: original(inst) * np.exp(0.3j * np.arange(4))
    )
    code, out = run_cli(capsys, "pgm", "--input", str(path))
    entries = lines_of(out)
    assert float(entries["dual_path_gap"]) <= 1e-12
    assert float(entries["completeness_residual"]) <= 1e-12
    assert float(entries["repreparation_error"]) > 0.5
    assert (code, entries["verdict"]) == (1, "fail")


def test_pgm_checks_rho_once_under_one_rule(tmp_path, capsys, monkeypatch):
    # 4e-9i on one side of the diagonal passes the entrywise 1e-8 check and
    # must pass the route too: both paths read the Hermitian part
    rho = generate.random_density(3, generate.rng_for(11))
    rho[0, 1] += 4e-9j
    path = tmp_path / "pgm.json"
    io.write_pgm_instance(
        str(path), generate.random_pgm_instance(3, 4, generate.rng_for(12)), rho=rho
    )
    calls = []
    for owner, attr in ((linalg, "is_hermitian"), (linalg, "require_hermitian"),
                        (np.linalg, "eigvalsh")):

        def counting(mat, *args, _name=attr, _original=getattr(owner, attr), **kwargs):
            if np.shape(mat) == (3, 3):
                calls.append(_name)
            return _original(mat, *args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    code, out = run_cli(capsys, "pgm", "--input", str(path))
    assert code == 0, out
    # the reader's entrywise test and the one hermitian_eig, whose smallest
    # eigenvalue the positivity check reads and whose pairs the route pushes
    assert calls.count("is_hermitian") + calls.count("require_hermitian") <= 2
    assert calls.count("eigvalsh") == 0


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["procrustes", "--input", "inst.json", "--mode", "qpe", "--bits", "6",
          "--steps", "20", "--tolerance", "1"], 2),
        (["hsvt", "--input", "m.json", "--mode", "qpe", "--bits", "6",
          "--tolerance", "1"], 2),
        (["procrustes", "--input", "inst.json", "--mode", "qpe", "--bits", "6",
          "--steps", "20", "--kappa-tilde", "2", "--tolerance", "1"], 2),
        (["procrustes", "--input", "inst.json", "--tolerance", "1"], 2),
        (["procrustes", "--input", "inst.json", "--mode", "qpe", "--bits", "6",
          "--steps", "0", "--tolerance", "1"], 2),
    ],
)
def test_product_formulas_factor_each_generator_once(
    workdir, capsys, count_factorizations, argv, expected
):
    # procrustes: rho once for both the walk and the three trotter_deviation
    # lines, the dilation of A once for all three targets and, without a
    # walk, for the route, one SVD for the classical solution, whose columns
    # also give U_r under --kappa-tilde, and one numpy eigh of the walk's
    # Cayley transform; hsvt: M for the Trotter product,
    # the coupling's dilation once for its target and the route, and one SVD
    # for the oracle isometry
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    calls = count_factorizations()
    assert cli.main(argv) == 0
    capsys.readouterr()
    kinds = [name for name, _ in calls]
    walks = int("--steps" in argv and argv[argv.index("--steps") + 1] != "0")
    assert (kinds.count("eigh"), kinds.count("svd")) == (expected, 1)
    assert (kinds.count("np.eigh"), kinds.count("np.eig"), kinds.count("np.qr")) == (walks, 0, 0)


def test_product_formula_evolutions_make_two_factorizations(monkeypatch, count_factorizations):
    # one for the generator (rho or M), one for the exact target; the DME
    # deviations at three step counts share both, rho taken as the caller
    # factors it for the walk, and either target is the dilation of the
    # coupling as the caller factors it for the route
    rng = generate.rng_for(904)
    inst = generate.random_procrustes_instance(2, 3, 4, rng)
    sh = generate.random_split_hamiltonian(2, 3, rng)
    for evolve in (
        lambda: procrustes.dme_deviations(
            inst,
            procrustes.reduced_density(inst),
            polar.dilation(inst.cross_covariance()),
            1.0,
            [10, 100, 1000],
        ),
        lambda: hsvt.trotter_offdiagonal_evolution(
            sh, polar.dilation(hsvt.isolate_offdiagonal(sh)), 1.0, 10
        ),
    ):
        calls = count_factorizations()
        evolve()
        assert calls == [("eigh", (5, 5)), ("eigh", (5, 5))]
        monkeypatch.undo()


def test_walk_eig_makes_one_eigh(count_factorizations):
    # the Cayley transform's eigh; no general eig, no QR
    h = generate.random_hermitian(6, generate.rng_for(905))
    walk = linalg.matrix_exp_hermitian(0.9 * h / np.linalg.norm(h, ord=2), -0.5 * np.pi)
    calls = count_factorizations()
    spectral.walk_eig(walk)
    assert calls == [("np.eigh", (6, 6))]


def test_procrustes_deviation_sees_the_sign_of_a_minus_h_walk(tmp_path, capsys, monkeypatch):
    # orthonormal inputs give A one singular value, so the walk's eigenphases
    # sit on the pointer grid and the route is exact to round-off; a walk
    # that implies -H maps chi to -U chi, which an overlap cannot tell apart
    rng = generate.rng_for(906)
    inputs = generate.random_unitary(2, rng)
    path = str(tmp_path / "orth.json")
    outputs = generate.random_unitary(2, rng) @ inputs
    io.write_procrustes_instance(
        path, procrustes.ProcrustesInstance(inputs=inputs, outputs=outputs)
    )
    argv = ("procrustes", "--input", path, "--mode", "qpe", "--bits", "6", "--steps", "50")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert float(lines_of(out)["deviation"]) < 1e-12
    walk_eig = spectral.walk_eig

    def minus_h_walk_eig(walk):
        w, v = walk_eig(walk)
        return -w, v

    monkeypatch.setattr(spectral, "walk_eig", minus_h_walk_eig)
    code, out = run_cli(capsys, *argv)
    report = lines_of(out)
    assert code == 0  # the verdict grades the overlap only
    assert float(report["fidelity"]) >= 1.0 - 1e-9
    assert abs(float(report["deviation"]) - 2.0) < 1e-9


@pytest.mark.parametrize(
    "step, message",
    [
        (-np.eye(4, dtype=complex), "walk has an eigenvalue at -1 to working precision"),
        (np.full((4, 4), np.nan, dtype=complex), "walk must be a square matrix with finite"),
    ],
    ids=["minus-one", "nan"],
)
def test_bad_walk_exits_malformed(workdir, capsys, monkeypatch, step, message):
    # one DME step of -I makes W = -I; a NaN step a NaN walk
    monkeypatch.setattr(procrustes, "dme_step", lambda pair, delta_t: step)
    code = cli.main(["procrustes", "--input", str(workdir / "inst.json"),
                     "--mode", "qpe", "--bits", "4", "--steps", "1"])
    assert code == 4
    assert f"polarsim: invalid content: {message}" in capsys.readouterr().err


def test_nonfinite_pair_entry_is_malformed_without_warnings(workdir):
    # Infinity used to pass the reader and surface as a norm RuntimeWarning
    path = workdir / "inf.json"
    path.write_text(
        '{"pairs": [{"phi": [[1, 0], [0, 0]], "psi": [[Infinity, 0], [0, 0]]}]}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "polarsim", "procrustes", "--input", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 4
    assert "RuntimeWarning" not in proc.stderr
    assert "pair 0 psi: entry 0 is not a finite number" in proc.stderr


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit"
)
def test_integer_past_the_digit_limit_is_refused_naming_the_file(workdir, capsys):
    # json raises a plain ValueError, not a JSONDecodeError, for such a literal
    path = workdir / "digits.json"
    path.write_text('{"rows": 1, "cols": 1, "data": [[' + "7" * 5001 + ", 0]]}")
    assert cli.main(["polar", "--input", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"polarsim: {path}: not a valid document (")
    assert "invalid content" not in err


def test_huge_asymmetric_split_file_reports_a_finite_asymmetry(workdir, capsys):
    # mirrored couplings 1e308 and -1e308: the asymmetry norm itself overflows,
    # so the refusal reports it relative to the matrix, without a warning
    path = workdir / "huge.json"
    zero = "[0, 0]"
    data = [zero, zero, "[-1e308, 0]", zero, zero, zero, "[1e308, 0]", zero, zero]
    path.write_text(f'{{"rows": 3, "cols": 3, "split": 1, "data": [{", ".join(data)}]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["hsvt", "--input", str(path)]) == 4
    err = capsys.readouterr().err
    norm = float(err.split("asymmetry norm ")[1].split()[0])
    assert math.isfinite(norm) and norm > 1.0


@pytest.mark.parametrize(
    "mirror, refusal",
    [("-1e308", "must be Hermitian"), ("1e308", "must be positive semidefinite")],
)
def test_huge_mirrored_rho_is_refused_without_warnings(workdir, capsys, mirror, refusal):
    # rho - rho^dag, and rho + rho^dag, overflow on these couplings
    path = workdir / "huge_rho.json"
    rho = f'{{"rows": 2, "cols": 2, "data": [[0.5, 0], [1e308, 0], [{mirror}, 0], [0.5, 0]]}}'
    path.write_text(f'{{"states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "rho": {rho}}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["pgm", "--input", str(path)]) == 4
    assert f"density matrix {refusal}" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(workdir, capsys, monkeypatch):
    parsers = []
    original = argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    m = str(workdir / "m.json")
    code1, out1 = run_cli(capsys, "hsvt", "--input", m, "--kappa-tilde", "2.5")
    code2, out2 = run_cli(capsys, "hsvt", "--input", m)
    assert code1 == code2 == 0
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    assert lines_of(out1)["config.kappa_tilde"] == "2.5"
    assert "config.kappa_tilde" not in lines_of(out2)
