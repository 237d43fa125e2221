#!/usr/bin/env python3
"""Time the QR kernels of solve_least_squares on the fits the solver is handed.

The fits are collected, not solved, from seeded single_solves operations
(perfbench/workloads.py, default seed 9004) and from cantor_measures(m) on the
general and the symmetric path for m = 4..9.  Each fit is factored, and Q^T b
formed, by the three kernel choices of the solver: dgeqrf with dormqr, and
dgeqrt with dgemqrt in 32- and in 128-column panels (one panel on a fit
narrower than that, as dgeqrt takes no wider one).  BLAS runs on 1 thread.
The three are interleaved: every round times each fit once per kernel, in an
order that rotates with the round and the fit, on a fresh copy of the matrix.

Prints, per column-width bucket, the median time of each kernel (median over
the bucket's fits of each fit's median) and the paired ratios dgeqrt(32) /
dgeqrf and dgeqrt(128) / dgeqrt(32) (median over every fit and round, with
the share of pairs the first one wins), then the same for each Cantor fit.
The solver's switches QRT_COLUMNS and QRT_WIDE_COLUMNS are bucket edges.
Writes every timing to qr_kernels.csv in the output directory.

    python scripts/qr_kernels.py [--single 300] [--max-level 9] [--rounds 5]

The level-9 general fit is 16384 by 2561 (335 MB); it and its working copy
are the largest arrays held.
"""

import argparse
import itertools
import os
import pathlib
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402
from scipy.linalg.lapack import dgemqrt, dgeqrf, dgeqrf_lwork, dgeqrt, dormqr  # noqa: E402

import laplace_series as ls  # noqa: E402
from laplace_series import solver  # noqa: E402
from laplace_series.solver import QRT_BLOCK, QRT_COLUMNS, QRT_WIDE_BLOCK, QRT_WIDE_COLUMNS  # noqa: E402
import workloads  # noqa: E402

EDGES = sorted({1, 32, 64, QRT_COLUMNS, 128, 256, QRT_WIDE_COLUMNS, 1024})


def householder(a, b):
    a, tau, _, _ = dgeqrf(a, lwork=int(dgeqrf_lwork(*a.shape)[0]), overwrite_a=1)
    dormqr("L", "T", a, tau, b, lwork=1)


def compact_wy(panel):
    def run(a, b):
        a, t, _ = dgeqrt(min(panel, a.shape[1]), a, overwrite_a=1)
        dgemqrt(a, t, b, "L", "T")
    return run


KERNELS = {
    "dgeqrf": householder,
    f"dgeqrt({QRT_BLOCK})": compact_wy(QRT_BLOCK),
    f"dgeqrt({QRT_WIDE_BLOCK})": compact_wy(QRT_WIDE_BLOCK),
}


def collect(run):
    """The (A, b) pairs that run() hands to solve_least_squares, unsolved."""
    fits = []

    def record(A, b, overwrite_a=False):
        fits.append((np.asarray(A, dtype=float, order="F"), np.asarray(b, dtype=float)))
        return np.zeros(np.shape(A)[1])

    real, solver.solve_least_squares = solver.solve_least_squares, record
    try:
        run()
    finally:
        solver.solve_least_squares = real
    return fits


def time_fits(fits, rounds):
    """times[name][i]: the rounds' seconds of each kernel on fit i."""
    names = list(KERNELS)
    times = {name: [[] for _ in fits] for name in names}
    for r in range(rounds):
        for i, (A, b) in enumerate(fits):
            work = np.empty_like(A, order="F")
            for k in range(len(names)):
                name = names[(r + i + k) % len(names)]
                np.copyto(work, A)
                rhs = b[:, None].copy()
                t0 = time.perf_counter()
                KERNELS[name](work, rhs)
                times[name][i].append(time.perf_counter() - t0)
    return times


def ratio_summary(times, idx, num, den):
    ratios = [a / b for i in idx for a, b in zip(times[num][i], times[den][i])]
    wins = sum(q < 1.0 for q in ratios)
    return f"{statistics.median(ratios):5.2f} ({wins}/{len(ratios)})"


def report(label, times, idx):
    fit_median = {name: [statistics.median(times[name][i]) for i in idx] for name in KERNELS}
    cells = "  ".join(f"{statistics.median(v) * 1e6:11.1f}" for v in fit_median.values())
    narrow, wide, widest = KERNELS
    print(f"{label:>20} {len(idx):5d}  {cells}  {ratio_summary(times, idx, wide, narrow):>17}"
          f"  {ratio_summary(times, idx, widest, wide):>17}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--single", type=int, default=300, help="single_solves operations")
    ap.add_argument("--seed", type=int, default=9004)
    ap.add_argument("--min-level", type=int, default=4)
    ap.add_argument("--max-level", type=int, default=9)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("-o", "--outdir", default="out")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    items = itertools.islice(workloads.single_inputs(args.seed), args.single)
    fits = collect(lambda: [workloads.single_op(ls, item) for item in items])
    sources = ["single"] * len(fits)
    for m in range(args.min_level, args.max_level + 1):
        for sym in (False, True):
            fits += collect(lambda: ls.cantor_measures(m, use_symmetry=sym))
            sources.append(f"cantor{m}{'s' if sym else 'g'}")
    widths = [A.shape[1] for A, _ in fits]

    print(f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}, {args.rounds} rounds, "
          f"{len(fits)} fits; times in microseconds, factor and Q^T b; solver switches "
          f"at {QRT_COLUMNS} and {QRT_WIDE_COLUMNS} columns")
    times = time_fits(fits, args.rounds)
    names = list(KERNELS)
    head = "  ".join(f"{name:>11}" for name in names)
    print(f"\n{'columns':>20} {'fits':>5}  {head}  {'32 / f (wins)':>17}  {'128 / 32 (wins)':>17}")
    for lo, hi in zip(EDGES, EDGES[1:] + [None]):
        idx = [i for i, n in enumerate(widths) if n >= lo and (hi is None or n < hi)]
        if idx:
            report(f"{lo}-{'' if hi is None else hi - 1}", times, idx)
    print()
    for i, source in enumerate(sources):
        if source != "single":
            report(f"{source} {fits[i][0].shape[0]}x{widths[i]}", times, [i])

    with open(outdir / "qr_kernels.csv", "w") as f:
        f.write("source,rows,cols,kernel,round,seconds\n")
        for i, ((A, _), source) in enumerate(zip(fits, sources)):
            for name in names:
                for r, t in enumerate(times[name][i]):
                    f.write(f"{source},{A.shape[0]},{A.shape[1]},{name},{r},{t:.9f}\n")


if __name__ == "__main__":
    main()
