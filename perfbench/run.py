"""Benchmark entry point for laplace_series.

    python3 perfbench/run.py --workload single_solves|cantor7|figure \\
        --seed N --seconds S --trace 0|1

Runs the workload in one fresh worker process (``worker.py``) with BLAS pinned
to one thread and prints the worker's environment line, then one JSON result
line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  ``setup_s`` is the
median wall time, over SETUP_SAMPLES fresh processes, from spawning a worker to
its exit after importing laplace_series (with numpy and scipy) and generating
the workload's first input: the start-up every ``lapseries`` call pays.  Like
the operation times, it is scaled to a nominal host speed by the reference
loop in ``hostspeed``, timed just before and after each sample.
With ``--trace 1`` the metrics are the per-layer ones from a traced worker.

Exits non-zero without a result line when a worker fails, for example when
``src/laplace_series`` is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
# Every worker is killed, and the run fails, once this much time has passed
# since the start, so a hung worker cannot hold the run past 180 s.
DEADLINE_S = 170.0
START = time.perf_counter()


def _worker(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=HERE.parent, stdout=subprocess.PIPE, check=True, text=True,
        timeout=max(START + DEADLINE_S - time.perf_counter(), 1.0),
    )


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, wall) median setup time in s over SETUP_SAMPLES fresh workers."""
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES):
        before = hostspeed.loop_ms()
        t0 = time.perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"])
        elapsed = time.perf_counter() - t0
        loop = (before + hostspeed.loop_ms()) / 2.0
        wall.append(elapsed)
        scaled.append(elapsed * hostspeed.NOMINAL_MS / loop)
    return statistics.median(scaled), statistics.median(wall)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="laplace_series benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        proc = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)])
        env_line, result_line = proc.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        if not args.trace:
            scaled, wall = setup_seconds(args.workload, args.seed)
            result["metrics"]["setup_s"] = {"value": scaled, "unit": "s"}
            info = json.loads(env_line)
            info["wall"]["wall_setup_s"] = wall
            env_line = json.dumps(info)
    except (subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(env_line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
