#!/usr/bin/env python3
"""Harmonic-measure study of middle-thirds approximations.

Prints the per-slit measure tables, the inner-half sums (from the
symmetry-reduced solve) with the Aitken delta-squared estimate of their limit
once three levels are in, and wall times for the general and symmetry-reduced
solves, skipping general solves above MAX_GENERAL_LEVEL; optionally draws one
level's field.
"""

import argparse
import pathlib
import time

from laplace_series import (
    TraceOptions,
    cantor_inner_half_sum,
    cantor_measures,
    default_window,
    extract_contours,
    streamline_fan,
)
from laplace_series.cantor import MAX_GENERAL_LEVEL, cantor_solution
from laplace_series.cli import emit_svg


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-level", type=int, default=6)
    ap.add_argument("--draw", type=int, default=0, help="level to draw (0 = none)")
    ap.add_argument("-o", "--outdir", default="out")
    args = ap.parse_args()

    for m in range(1, min(args.max_level, 4) + 1):
        print(f"m={m}: " + ", ".join(f"{v:.6f}" for v in cantor_measures(m)))

    print("\ninner-half sums (measure of the right-half slits closest to 0):")
    sums = []
    for m in range(2, args.max_level + 1):
        t0 = time.perf_counter()
        sums.append(cantor_inner_half_sum(m))
        dt = time.perf_counter() - t0
        print(f"  m={m}: {sums[-1]:.6f}   ({dt:.2f} s)")
    if len(sums) >= 3:
        # Aitken's delta-squared extrapolation of the last three sums.
        s0, s1, s2 = sums[-3:]
        limit = s2 - (s2 - s1) ** 2 / ((s2 - s1) - (s1 - s0))
        print(f"  Aitken limit from m={args.max_level - 2}..{args.max_level}: {limit:.6f}")

    print("\nsymmetry-reduced vs general timing:")
    for m in range(2, args.max_level + 1):
        t0 = time.perf_counter()
        fast = cantor_measures(m, use_symmetry=True)
        t1 = time.perf_counter()
        if m > MAX_GENERAL_LEVEL:
            print(f"  m={m}: general skipped (at most level {MAX_GENERAL_LEVEL}), "
                  f"symmetric {t1 - t0:6.2f} s")
            continue
        general = cantor_measures(m)
        t2 = time.perf_counter()
        diff = max(abs(a - b) for a, b in zip(general, fast))
        print(f"  m={m}: general {t2 - t1:6.2f} s, symmetric {t1 - t0:6.2f} s, "
              f"max diff {diff:.1e}")

    if args.draw:
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        sol = cantor_solution(args.draw)
        window = (-0.2, 1.8, -1.0, 1.0)  # right half-plane closeup around the source
        levels = [-0.05 * k for k in range(1, 16)]
        polys = extract_contours(sol, levels, window, 320)
        polys += streamline_fan(sol, 64, 0.05, TraceOptions(window=window))
        path = outdir / f"cantor_m{args.draw}.svg"
        path.write_text(emit_svg(polys, sol.problem.components, window))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
