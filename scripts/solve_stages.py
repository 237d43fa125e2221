#!/usr/bin/env python3
"""Split the time of seeded single_solves operations into their stages.

Each operation is the benchmark's own single_solves op (perfbench/workloads.py,
default seed 5): build a problem, solve it with its certificate, take the
harmonic measures, and evaluate u and grad u at 4 points.  BLAS runs on 1
thread.  The stages are timed by wrapping, for the length of the run, the
functions the op and solve_problem look up when they call them:

    problem      disk, slit, Problem and green_problem (the geometry checks)
    assembly     solver.assemble_system
    QR           solver.solve_with_log_sum, or solver.solve_least_squares
                 where solve_problem calls it directly
    certificate  solver.boundary_residual
    u            eval_expansion (the evaluation plan, built on the first
                 evaluation, included)
    grad_u       eval_gradient
    other        the rest of the op: spec, expansion, solution, measures

One untimed pass over the inputs comes first; then each round runs every
input once.  Prints, per round, the mean microseconds per op and each stage's
share of the op's time, then the median over the rounds.  The wrappers add a
few tenths of a microsecond per wrapped call, about 10 calls per op.  Writes
each round's mean seconds per stage to solve_stages.csv in the output
directory.

    python scripts/solve_stages.py [--seed 5] [--count 300] [--rounds 4]
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

import laplace_series as ls  # noqa: E402
from laplace_series import solver  # noqa: E402
import workloads  # noqa: E402

STAGES = ("problem", "assembly", "QR", "certificate", "u", "grad_u")
WRAPPED = [
    ("problem", ls, ["disk", "slit", "Problem", "green_problem"]),
    ("assembly", solver, ["assemble_system"]),
    ("QR", solver, ["solve_with_log_sum", "solve_least_squares"]),
    ("certificate", solver, ["boundary_residual"]),
    ("u", ls, ["eval_expansion"]),
    ("grad_u", ls, ["eval_gradient"]),
]


class Clock:
    """Seconds spent in each stage; a call made inside a timed call (the
    least-squares solve inside solve_with_log_sum) counts only once."""

    def __init__(self):
        self.spent = dict.fromkeys(STAGES, 0.0)
        self.depth = 0

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter() - t0
                self.depth -= 1
        return timed


def install(clock):
    undo = []
    for stage, module, names in WRAPPED:
        for name in names:
            fn = getattr(module, name)
            setattr(module, name, clock.wrap(stage, fn))
            undo.append((module, name, fn))
    return undo


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--count", type=int, default=300, help="single_solves inputs")
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("-o", "--outdir", default="out")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    items = list(itertools.islice(workloads.single_inputs(args.seed), args.count))
    for item in items:
        workloads.single_op(ls, item)
    clock = Clock()
    undo = install(clock)
    rows = []
    try:
        for _ in range(args.rounds):
            clock.spent = dict.fromkeys(STAGES, 0.0)
            total = 0.0
            for item in items:
                t0 = time.perf_counter()
                workloads.single_op(ls, item)
                total += time.perf_counter() - t0
            spent = dict(clock.spent, other=total - sum(clock.spent.values()))
            rows.append({stage: s / len(items) for stage, s in spent.items()})
    finally:
        for module, name, fn in reversed(undo):
            setattr(module, name, fn)

    names = list(rows[0])
    print(f"single_solves stages: seed {args.seed}, {len(items)} inputs, {args.rounds} rounds, "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"{'round':>6} {'us/op':>8}  " + "  ".join(f"{name:>11}" for name in names))

    def line(label, row):
        op = sum(row.values())
        shares = "  ".join(f"{100 * row[name] / op:10.1f}%" for name in names)
        print(f"{label:>6} {op * 1e6:8.1f}  {shares}")

    for r, row in enumerate(rows, 1):
        line(str(r), row)
    line("median", {name: statistics.median(row[name] for row in rows) for name in names})

    with open(outdir / "solve_stages.csv", "w") as f:
        f.write("round,stage,seconds_per_op\n")
        for r, row in enumerate(rows, 1):
            for name in names:
                f.write(f"{r},{name},{row[name]:.9f}\n")


if __name__ == "__main__":
    main()
