"""Acceptance gate.

One test per release criterion.  Each runs the corresponding battery item
from polarsim.verify at the release seed, prints a single PASS/FAIL line,
and enforces the stated runtime budget where one applies.  Run with -s to
see the lines as they go by:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

from polarsim import cli, verify
from polarsim.report import strip_timings

SEED = 7


def _gate(number: int, name: str, time_limit: float | None = None) -> None:
    res = verify.run_item(name, SEED)
    within_time = time_limit is None or res.elapsed < time_limit
    ok = res.passed and within_time
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    detail = {k: v for k, v in sorted(res.metrics.items())}
    assert res.passed, f"criterion {number} ({name}) failed: {detail}"
    assert within_time, (
        f"criterion {number} ({name}) took {res.elapsed:.2f}s, limit {time_limit}s"
    )


def test_acceptance_01_polar_oracle_equivalence():
    _gate(1, "polar-oracle-equivalence", time_limit=10.0)


def test_acceptance_02_qpe_dyadic_exactness():
    _gate(2, "qpe-dyadic-exactness", time_limit=30.0)


def test_acceptance_03_condition_number_scaling():
    _gate(3, "condition-number-scaling", time_limit=60.0)


def test_acceptance_04_positive_factor_evolution():
    _gate(4, "positive-factor-evolution", time_limit=10.0)


def test_acceptance_05_flag_semantics():
    _gate(5, "flag-semantics")


def test_acceptance_06_trotter_step_order():
    _gate(6, "trotter-step-order")


def test_acceptance_07_procrustes_optimality():
    _gate(7, "procrustes-optimality", time_limit=60.0)


def test_acceptance_08_hsvt_isolation():
    _gate(8, "hsvt-isolation")


def test_acceptance_09_pgm_dual_path():
    _gate(9, "pgm-dual-path")


def test_acceptance_10_report_determinism(capsys):
    argv = ["verify", "--suite", "all", "--seed", str(SEED)]
    code_first = cli.main(argv)
    out_first = capsys.readouterr().out
    code_second = cli.main(argv)
    out_second = capsys.readouterr().out
    ok = (
        code_first == code_second == 0
        and strip_timings(out_first).encode() == strip_timings(out_second).encode()
    )
    print(f"ACCEPTANCE 10 (report-determinism): {'PASS' if ok else 'FAIL'}")
    assert code_first == code_second == 0
    assert strip_timings(out_first).encode() == strip_timings(out_second).encode()
