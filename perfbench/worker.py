"""One benchmark process: import the program, run a workload's loop, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The BLAS thread variables are set to 1 before numpy is imported; threadpoolctl
is not available to change them later.  The program is imported from ``src``
of the checkout this file sits in, never from an installed copy.

Each operation is timed on its own and checked afterwards, untimed.  An
operation that raises or fails its check counts as failed.  The loop is closed
with one caller: the next operation starts when the previous one is checked,
until ``--seconds`` have passed (at least one operation always runs).

Operation times are wall times scaled to a nominal host speed by
``hostspeed.SpeedTrack``, which times a reference loop between operations.

With ``--trace 1`` the first half of the time runs untraced and the second half
traced, on the same input sequence, so ``trace.overhead_frac`` compares the two
medians.  The spans go to ``perfbench/out/``.

The last line of standard output is the result.  The line before it records
the BLAS thread count, the CPU count, the library versions, and the unscaled
wall-time figures with the mean host-speed scale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import laplace_series  # noqa: E402
import laplace_series.cli  # noqa: E402,F401  (makes laplace_series.cli an attribute)
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

if pathlib.Path(laplace_series.__file__).resolve().parent != SRC / "laplace_series":
    sys.exit(f"laplace_series was imported from {laplace_series.__file__}, not {SRC}")

MACHINE_EPS = float(np.finfo(float).eps)


def environment() -> dict:
    def blas(config):
        deps = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
    }


def run_loop(workload, seed: int, seconds: float, state: dict, tracer=None):
    """Closed loop until ``seconds`` pass.

    Returns (wall times, host-speed-scaled times, failed count); times in s.
    """
    inputs = workload.inputs(seed)
    track = hostspeed.SpeedTrack()
    spans_s, failed = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        item = next(inputs)
        track.sample_if_due()
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
            root = tracer.begin("op")
        t0 = time.perf_counter()
        try:
            out = workload.op(laplace_series, item)
            errors = None
        except Exception as exc:  # a raising operation is a failed operation
            errors = [f"raised {exc!r}"]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.finish(root)
            tracer.active = False
        if errors is None:
            try:
                errors = workload.check(laplace_series, item, out, state)
            except Exception as exc:
                errors = [f"check raised {exc!r}"]
        spans_s.append((t0, t1))
        if errors:
            failed += 1
            if failed <= 5:
                print(f"operation {len(spans_s)} failed: {'; '.join(errors[:3])}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
    track.sample()
    wall = [t1 - t0 for t0, t1 in spans_s]
    scaled = [(t1 - t0) * track.scale(t0, t1) for t0, t1 in spans_s]
    return wall, scaled, failed


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(times, failed: int, state: dict) -> dict:
    certs = state.get("cert") or [math.nan]
    digits = statistics.median(-math.log10(max(c, MACHINE_EPS)) for c in certs)
    values = {
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p99_ms": (percentile(times, 99.0) * 1e3, "ms"),
        "ops_per_s": (len(times) / math.fsum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((len(times) - failed) / len(times), "frac"),
        "cert_digits": (digits, "digits"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def wall_summary(wall, scaled) -> dict:
    """Unscaled figures for the record, next to the mean host-speed scale."""
    return {
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_ops_per_s": len(wall) / math.fsum(wall),
        "host_speed_scale": math.fsum(scaled) / math.fsum(wall),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the first input, then exit")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        next(workload.inputs(args.seed))
        return 0

    state: dict = {}
    if not args.trace:
        wall, times, failed = run_loop(workload, args.seed, args.seconds, state)
        attempted = len(times)
        metrics = end_to_end(times, failed, state)
    else:
        _, plain, failed_plain = run_loop(workload, args.seed, args.seconds / 2.0, state)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            wall, times, failed = run_loop(workload, args.seed, args.seconds / 2.0, state, tracer)
        finally:
            uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
        metrics = spans.layer_metrics(tracer, len(times), {
            "cantor.agreement": state.get("agreement", 0.0),
            "failed_frac": (failed + failed_plain) / (len(times) + len(plain)),
            "trace.overhead_frac": statistics.median(times) / statistics.median(plain) - 1.0,
        })
        attempted = len(times) + len(plain)
        failed += failed_plain

    print(json.dumps({"environment": environment(), "wall": wall_summary(wall, times)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
