"""The benchmark's own tests (run from the repository root with
``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]]
                   and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), metric["name"]
    if not trace:
        for name in ("setup_s", "ops_per_s", "op_p50_s", "op_p90_s"):
            assert result["metrics"][name]["value"] > 0


def test_a_corrupted_cell_counts_as_a_failed_op(tmp_path, monkeypatch):
    setup_solve = worker.setup_solve

    def corrupting_setup(*args):
        op, setup, program = setup_solve(*args)

        def op_with_one_bad_cell(k):
            result = op(k)
            if k == 1:
                result.cells[len(result.cells) // 2] += 1e-9
            return result

        return op_with_one_bad_cell, setup, program

    monkeypatch.setattr(worker, "setup_solve", corrupting_setup)
    out = tmp_path / "record.json"
    argv = ["--workload", "jacobi_py", "--seed", "3", "--seconds", "0.3",
            "--root", ROOT, "--work", str(tmp_path), "--out", str(out),
            "--tiny"]
    record = worker.main(argv)
    assert len(record["ops"]) > 2
    args = run.argparse.Namespace(workload="jacobi_py", seed=3, tiny=True)
    failed = run.check(args, record, run.references(args, ROOT))
    assert failed == 1
    assert failed / len(record["ops"]) > 0


def test_op_times_are_scaled_by_the_host_speed_around_them():
    # The host runs at half speed from t=5 on: calibration takes twice
    # as long there, and so would an op.
    samples = [(float(t), 0.01 if t < 5 else 0.02) for t in range(10)]
    slow, fast = hostspeed.factors([8.5, 0.5], samples)
    assert fast * 0.01 == pytest.approx(hostspeed.NOMINAL_S)
    assert slow * 0.02 == pytest.approx(hostspeed.NOMINAL_S)
    assert 0.0 < hostspeed.calibrate() < 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sor_c", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
