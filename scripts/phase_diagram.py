#!/usr/bin/env python3
"""Map the entangled-at-infinity region over (d_xpy, C) and check its boundary.

Writes a long-form CSV of cell statuses and prints, per d_xpy row, the last
entangled grid column against the analytic threshold
C* = 1 + 2 |d_xpy| / sqrt(lam^2 + omega^2).
"""

import argparse
import pathlib

import numpy as np

import gaussent as ge
from gaussent.cli import phase_diagram_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="phase_diagram.csv", type=pathlib.Path)
    parser.add_argument("--lam", default=0.1, type=float)
    parser.add_argument("--omega", default=1.0, type=float)
    parser.add_argument("--d-max", default=0.06, type=float)
    parser.add_argument("--n-d", default=25, type=int)
    parser.add_argument("--c-max", default=1.3, type=float)
    parser.add_argument("--n-c", default=61, type=int)
    args = parser.parse_args()

    d_values = np.linspace(0.0, args.d_max, args.n_d)
    cs = np.linspace(1.0, args.c_max, args.n_c)
    diagram = ge.asymptotic_phase_diagram(args.lam, args.omega, d_values, cs)

    args.out.write_text(phase_diagram_csv(diagram), newline="")
    print(f"wrote {args.out}")

    print("d_xpy    last entangled C    analytic C*")
    for i, d_xpy in enumerate(diagram.d_xpy_values):
        row = diagram.entangled[i] & ~diagram.unphysical[i]
        last = cs[row].max() if row.any() else float("nan")
        print(f"{d_xpy:7.4f}  {last:17.6f}  {diagram.c_thresholds[i]:12.6f}")


if __name__ == "__main__":
    main()
