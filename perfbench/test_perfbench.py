"""Tests of the benchmark itself: metric names, failure accounting, set-up.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PASSING = (
    "command: polar\n"
    "isometry_deviation: 0.001\n"
    "max_leakage: 0.01\n"
    "state_output.0: 0.5+0.25j\n"
    "verdict: pass\n"
    "timing.total: 0.1\n"
)
POLAR_OP = workloads.Op("polar", ("polar", "--input", "a.json"), 1e-2)


def _fake_main(text: str, code: int = 0):
    def main(argv):
        sys.stdout.write(text)
        return code

    return main


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    done = _bench("--workload", "dme-walk", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == spec
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(spec) <= printed


def test_workload_names_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_passing_op_counts_as_passed():
    rec = run.run_op(POLAR_OP, _fake_main(PASSING), workloads.grade)
    assert not rec.failed
    assert rec.gap == 0.001


@pytest.mark.parametrize(
    "text, code, reason",
    [
        (PASSING.replace("max_leakage: 0.01", "max_leakage: nan"), 0, "non-finite"),
        (PASSING.replace("0.5+0.25j", "nan+nanj"), 0, "non-finite"),
        (PASSING.replace("isometry_deviation: 0.001", "isometry_deviation: inf"), 0, "non-finite"),
        (PASSING.replace("verdict: pass", "verdict: fail"), 1, "verdict"),
        (PASSING.replace("verdict: pass", "verdict: fail"), 0, "verdict"),
        (PASSING, 4, "exit code"),
        (PASSING.replace("0.001", "0.02"), 0, "above tolerance"),
        (PASSING.replace("isometry_deviation: 0.001\n", ""), 0, "unreadable"),
    ],
)
def test_bad_op_counts_as_failed(text, code, reason):
    records, _ = run.run_phase([POLAR_OP], 1, 0.0, 3, _fake_main(text, code), workloads.grade)
    assert len(records) == 3
    assert all(r.failed for r in records)
    assert any(reason in why for why in records[0].reasons)


def test_crashing_op_counts_as_failed():
    def main(argv):
        raise RuntimeError("boom")

    rec = run.run_op(POLAR_OP, main, workloads.grade)
    assert rec.failed
    assert any("boom" in why for why in rec.reasons)


def test_tail_latency_leaves_ten_ops_beyond():
    value, note = run.tail_latency([float(i) for i in range(30)])
    assert value == 19.0 and "p66.7 of 30" in note
    value, note = run.tail_latency([3.0, 1.0, 2.0])
    assert value == 3.0 and "max of 3" in note


def test_from_import_names_are_reported_as_untraced():
    import importlib

    layers = {name: importlib.import_module(f"polarsim.{name}") for name in tracer.LAYERS}
    escaped = tracer.escaped_names(layers)
    assert any(e.startswith("hsvt.block_parity ") for e in escaped)
    assert any(e.startswith("verify.REGISTRY ") for e in escaped)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "dme-walk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
