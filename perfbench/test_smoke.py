"""Smoke test: one checked operation of every workload, traced and untraced."""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args, "--seconds", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    assert json.loads(env_line)["environment"]["blas_threads"] == 1
    return json.loads(result_line)


@pytest.mark.parametrize("workload", ["single_solves", "cantor7", "figure"])
def test_one_operation_passes_its_checks(workload):
    result = _worker("--workload", workload, "--seed", "1", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0


def test_traced_run_reports_layers():
    result = _worker("--workload", "single_solves", "--seed", "1", "--trace", "1")
    assert result["correct"] and result["attempted"] == 2
    metrics = result["metrics"]
    assert metrics["solver.solve_problem.s"]["value"] > 0.0
    assert metrics["basis.design_matrix.calls"]["value"] >= 2.0
    assert metrics["solver.solve_least_squares.flops"]["value"] > 0.0


def test_missing_program_fails_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for src in HERE.glob("*.py"):
        (bench / src.name).write_text(src.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "single_solves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "laplace_series" in proc.stderr
