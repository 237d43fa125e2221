"""The demo scripts run end to end and write their pictures."""

import os
import pathlib
import subprocess
import sys

import pytest

from laplace_series import cantor_inner_half_sum

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("disk_demo.py", [], "disk_field.svg"),
    ("slit_demo.py", [], "slit_field.svg"),
    ("bounded_demo.py", [], "bounded_field.svg"),
    ("cantor_study.py", ["--max-level", "2", "--draw", "2"], "cantor_m2.svg"),
]


def _run(script, tmp_path, *extra):
    """Run a demo script with its output directory in tmp_path; stdout on success."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "-o", str(tmp_path), *extra],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script,extra,output", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, script, extra, output):
    _run(script, tmp_path, *extra)
    svg = (tmp_path / output).read_text()
    assert svg.startswith("<svg") and "<path" in svg


def test_cantor_study_prints_aitken_limit(tmp_path):
    stdout = _run("cantor_study.py", tmp_path, "--max-level", "4")
    s0, s1, s2 = (cantor_inner_half_sum(m) for m in (2, 3, 4))
    limit = s2 - (s2 - s1) ** 2 / ((s2 - s1) - (s1 - s0))
    assert f"Aitken limit from m=2..4: {limit:.6f}" in [line.strip() for line in stdout.splitlines()]
    # The sums settle near 0.362005 (Aitken over m = 6..8); three coarse
    # levels already land within 1e-4 of it.
    assert abs(limit - 0.362005) < 1e-4


def test_qr_kernels_times_every_kernel_on_both_cantor_paths(tmp_path):
    stdout = _run("qr_kernels.py", tmp_path, "--single", "3", "--max-level", "4", "--rounds", "1")
    assert "dgeqrf   dgeqrt(32)  dgeqrt(128)" in stdout
    assert "cantor4g 512x80" in stdout and "cantor4s 128x24" in stdout
    rows = (tmp_path / "qr_kernels.csv").read_text().splitlines()
    assert rows[0] == "source,rows,cols,kernel,round,seconds"
    # Three single-solve fits and two Cantor fits, each timed once per kernel.
    assert len(rows) == 1 + 5 * 3


def test_solve_stages_splits_every_op(tmp_path):
    stdout = _run("solve_stages.py", tmp_path, "--count", "3", "--rounds", "1")
    lines = stdout.splitlines()
    assert lines[0].startswith("single_solves stages: seed 5, 3 inputs, 1 rounds, BLAS threads 1")
    assert lines[1].split() == ["round", "us/op", "problem", "assembly", "QR", "certificate",
                                "u", "grad_u", "other"]
    for label in ("1", "median"):
        row = next(line.split() for line in lines[2:] if line.split()[0] == label)
        shares = [float(cell.rstrip("%")) for cell in row[2:]]
        assert float(row[1]) > 0 and len(shares) == 7
        assert all(s >= 0 for s in shares[:-1]) and abs(sum(shares) - 100.0) < 0.5
    rows = (tmp_path / "solve_stages.csv").read_text().splitlines()
    assert rows[0] == "round,stage,seconds_per_op" and len(rows) == 1 + 7
