#!/usr/bin/env python3
"""Generate the four benchmark (t, C) entanglement surfaces as CSV files.

Each preset initial state is swept over the reference bath (lam = 0.1,
d_xy = 0, d_xpy = 0.049) for thermal parameters C in [1, 1.5], writing one
long-form CSV per preset (as ``gauss-ent sweep``) plus its per-column phase
labels (as ``gauss-ent classify``).
"""

import argparse
import pathlib

import gaussent as ge
from gaussent.cli import classify_csv, sweep_csv


def write_surface(name: str, out_dir: pathlib.Path, t_max: float, n_t: int, n_c: int):
    spec = ge.SweepSpec(
        env_base=ge.presets.benchmark_environment(thermal_c=1.0),
        initial=ge.presets.initial_state(name),
        t_max=t_max,
        n_t=n_t,
        c_min=1.0,
        c_max=1.5,
        n_c=n_c,
    )
    result = ge.sweep(spec)

    surface_path = out_dir / f"surface_{name}.csv"
    surface_path.write_text(sweep_csv(result), newline="")

    labels_path = out_dir / f"labels_{name}.csv"
    labels = zip(map(float, result.thermal_cs), result.classifications)
    labels_path.write_text(classify_csv(labels), newline="")
    return surface_path, labels_path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="surfaces", type=pathlib.Path)
    parser.add_argument("--t-max", default=50.0, type=float)
    parser.add_argument("--n-t", default=500, type=int)
    parser.add_argument("--n-c", default=40, type=int)
    args = parser.parse_args()

    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("fig1", "fig2", "fig3", "fig4"):
        surface, labels = write_surface(name, args.out_dir, args.t_max, args.n_t, args.n_c)
        print(f"{name}: wrote {surface} and {labels}")


if __name__ == "__main__":
    main()
