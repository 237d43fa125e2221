"""The demo scripts run end to end and write their pictures."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("disk_demo.py", [], "disk_field.svg"),
    ("slit_demo.py", [], "slit_field.svg"),
    ("bounded_demo.py", [], "bounded_field.svg"),
    ("cantor_study.py", ["--max-level", "2", "--draw", "2"], "cantor_m2.svg"),
]


@pytest.mark.parametrize("script,extra,output", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_runs(tmp_path, script, extra, output):
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
    svg = (tmp_path / output).read_text()
    assert svg.startswith("<svg") and "<path" in svg
