#!/usr/bin/env python3
"""Run a fixed corpus of ``gauss-ent`` command lines and print one JSON line each.

Every command runs as a fresh ``python -m gaussent.cli`` process on the
source tree this script sits in (its ``src`` first on ``PYTHONPATH``), in an
empty scratch directory, so ``--out`` and ``--config`` take fixed relative
names.  Each output line holds the argv, the exit code (``"timeout"`` for a
process killed after ``TIMEOUT_S`` seconds), the SHA-256 of stdout and of the
``--out`` file (null without one), and stderr with the tree's path and ``.py``
line numbers normalised.  Two trees write the same CLI output
exactly when their corpus lines are equal:

    python scripts/cli_corpus.py > corpus.jsonl

The corpus covers every command on every preset in both formats, point
queries, grid shapes, negative cross diffusion, m * omega != 1, temperatures,
under-resolved grids, explicit states (lenient and --strict), states on either
side of the physicality slack, a failed Lyapunov residual check, overflowing
and extreme baths, configuration errors, ``--out``, ``--config`` and
``--dump-config``, baths on either side of the diffusion bound across a
thermal grid, phase diagrams with a position cross coefficient d_xy, a
crossing late enough that bisection reaches the float spacing, seeded
phase diagrams like the benchmark's, a crossing far inside a wide first
bisection bracket, grids that end at the largest float, a state whose
``nu_tilde_minus_sq`` is not a number, a time grid whose instants nearly
all round to 0 and the sweep and classification of an oscillator with
m * omega != 1 and lambda != 0.1.

``scripts/cli_corpus.jsonl`` is this script's output, checked in; a change
that alters CLI output on purpose regenerates it:

    python scripts/cli_corpus.py > scripts/cli_corpus.jsonl

``tests/test_examples.py`` runs the same argvs in process through
``cli.main`` and compares each line with that file.
"""

import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

TREE = pathlib.Path(__file__).resolve().parent.parent
PRESETS = ("vacuum", "fig1", "fig2", "fig3", "fig4")
CONFIG_FILE = "run.cfg"
OUT_FILE = "out.txt"
CONFIG_TEXT = "# a flat config file\nc=1.2\ninitial=fig2\nt = 3.5\n"
#: Seconds a command may run before it is killed and recorded as a timeout.
TIMEOUT_S = 60


def sets(*pairs: str) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


def both_formats(command: str, *pairs: str) -> list[list[str]]:
    return [[command, *sets(*pairs), "--format", fmt] for fmt in ("csv", "json")]


def corpus() -> list[list[str]]:
    lines: list[list[str]] = []
    for preset in PRESETS:
        for command in ("sweep", "classify"):
            lines += both_formats(command, f"initial={preset}")
        for t in ("7.25", "60"):
            for command in ("metrics", "evolve"):
                lines += both_formats(command, f"initial={preset}", f"t={t}")
    # defaults, grid shapes, negative d_xpy, m * omega != 1 and temperatures
    lines += both_formats("steady")
    lines += both_formats("steady", "c=1.3", "d_xy=0.01")
    lines += both_formats("phase-diagram")
    lines += both_formats("phase-diagram", "n_d=25", "c_max=1.3", "n_c=61")
    lines += both_formats("phase-diagram", "n_d=7", "n_c=300")
    lines += both_formats(
        "phase-diagram", "d_xpy_min=-0.08", "d_xpy_max=0.08", "n_d=17", "m=1.5", "omega=0.8"
    )
    lines += both_formats("phase-diagram", "d_xpy_min=0.05", "d_xpy_max=0.05", "n_d=1", "n_c=1")
    # d_xy past its diffusion bound everywhere, and d_xy alone entangling below C*+ = 1.4
    lines += both_formats("phase-diagram", "d_xy=0.3")
    lines += both_formats("phase-diagram", "d_xy=0.02", "d_xpy_max=0.04")
    lines += both_formats("sweep", "initial=fig1", "d_xpy=-0.03", "n_t=200")
    lines += both_formats("classify", "initial=fig3", "d_xpy=-0.03")
    for command in ("steady", "metrics", "sweep", "classify"):
        lines += both_formats(command, "initial=fig1", "m=1.5", "omega=0.8", "t=7.25", "n_t=200")
        lines += both_formats(command, "initial=fig2", "temperature=0.5", "t=7.25", "n_t=200")
    lines += both_formats("steady", "temperature=0")
    # under-resolved grids and short horizons warn
    lines += both_formats("sweep", "initial=fig1", "n_t=25", "n_c=2")
    lines += both_formats("classify", "initial=fig3", "t_max=5", "n_t=20", "n_c=3")
    lines += both_formats("classify", "initial=fig1", "t_max=1", "n_t=100", "n_c=2")
    # a fine grid whose horizon ends before fig2 turns entangled at t = 51.17
    lines += both_formats("classify", "initial=fig2", "c_min=1.0975", "c_max=1.0975", "n_c=1")
    # explicit states, lenient and strict
    tmsv = ("sigma_xx=1.8810978455418157", "sigma_pxpx=1.8810978455418157",
            "sigma_yy=1.8810978455418155", "sigma_pypy=1.8810978455418157",
            "sigma_xy=1.8134302039235093", "sigma_pxpy=-1.8134302039235093")
    bad = ("sigma_xx=0.5", "sigma_pxpx=0.5", "sigma_yy=0.5", "sigma_pypy=0.5", "sigma_xy=0.4")
    for state in (tmsv, bad, ("sigma_xx=0.8", "sigma_pxpx=0.4", "sigma_yy=0.8", "sigma_pypy=0.4")):
        for command in ("metrics", "evolve", "sweep"):
            lines += both_formats(command, *state, "t=2.5", "n_t=100", "n_c=3")
            lines.append([command, "--strict", *sets(*state, "t=2.5", "n_t=100", "n_c=3")])
    lines += [["metrics", "--strict", *sets(f"initial={preset}")] for preset in ("fig3", "fig4")]
    # vacuum-like states just inside and just outside the physicality slack of 1e-12
    for nu in ("0.4999999999991", "0.4999999999989"):
        diagonal = ("sigma_xx", "sigma_pxpx", "sigma_yy", "sigma_pypy")
        edge = sets(*(f"{name}={nu}" for name in diagonal))
        lines += [["metrics", *edge], ["metrics", "--strict", *edge]]
    # JSON point queries whose config values print as exponent, negative-zero
    # and subnormal text
    for command, *pairs in (
        ("metrics", "initial=fig1", "t=1e-05", "c=1.0000000000000002", "d_xy=-0.0",
         "d_xpy=5e-324"),
        ("metrics", "initial=fig1", "t=1e-05", "c=1.0000000000000002", "d_xy=-0.0",
         "d_xpy=1e-200", "t_max=5e-324", "d_xpy_max=1e+16", "n_t=1_000"),
        ("evolve", "sigma_xx=1", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1", "sigma_xy=-0.0",
         "sigma_xpy=1e-300", "t=1e+2", "d_xpy=-0.0"),
        ("steady", "temperature=5e-324", "lambda=1e-05", "d_xpy=0.0", "d_xpy_min=-5e-324",
         "c_max=1e+16", "n_c=+3"),
        ("metrics", "initial=fig2", "temperature=1e+16", "t=5e-324", "omega=1.0000000000000002"),
    ):
        lines.append([command, *sets(*pairs), "--format", "json"])
    # subnormal diffusion terms, whose steady residual bound is the smallest normal float
    lines += both_formats("steady", "d_xpy=1e-310", "lambda=1e-05")
    lines += both_formats("steady", "d_xy=5e-324", "d_xpy=0", "lambda=2.5")
    # a steady solve that fails its Lyapunov residual check
    lines += both_formats(
        "steady", "lambda=5.439204557411032e-151", "m=7.024059605703189e-118",
        "omega=2.758196771215249e+37", "d_xy=3.0351796967227864e-200", "d_xpy=0",
    )
    # overflowing, underflowing and extreme baths, grids and states
    for command, *pairs in (
        ("metrics", "sigma_xx=1e200", "sigma_pxpx=1e200"),
        ("metrics", "sigma_xx=1e160", "sigma_pxpx=1e160", "sigma_yy=1e160", "sigma_pypy=1e160"),
        ("metrics", "lambda=10", "c=1e308"),
        ("phase-diagram", "lambda=10", "c_max=1e308", "n_c=2", "n_d=2"),
        ("phase-diagram", "d_xpy_min=-1e308", "d_xpy_max=1e308", "n_c=2", "n_d=3"),
        ("steady", "m=1e-200", "omega=1e-200"),
        ("steady", "m=1e200", "omega=1e200"),
        ("steady", "lambda=1e300"),
        ("steady", "temperature=1e308"),
        ("steady", "lambda=1e-200", "omega=1e-200", "m=1e200", "d_xpy=0"),
        ("classify", "omega=1e200", "t_max=1e200", "m=1e-200", "n_c=2", "n_t=3"),
        ("evolve", "omega=1e200", "m=1e-200", "t=1e200"),
        ("evolve", "m=1e100", "t=1", "sigma_xx=1e200", "sigma_pxpx=1", "sigma_yy=1",
         "sigma_pypy=1"),
        ("metrics", "sigma_xx=1e160", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1"),
        ("phase-diagram", "lambda=1e300", "omega=1e300", "n_d=2", "n_c=2"),
        ("phase-diagram", "lambda=1e-300", "omega=1e-300", "m=1e300", "n_d=2", "n_c=2"),
        ("phase-diagram", "m=1e200", "omega=1e200", "n_d=2", "n_c=2"),
        ("phase-diagram", "d_xpy_max=1e300", "c_max=1e300", "n_d=3", "n_c=3"),
        ("phase-diagram", "d_xpy_min=-1e-300", "d_xpy_max=1e-300", "n_d=3", "n_c=2"),
        ("sweep", "c=5e77", "c_min=5e77", "c_max=5e77", "d_xpy=1e76", "n_t=3", "n_c=1"),
        ("sweep", "initial=fig1", "c=5e77", "c_min=5e77", "c_max=5e77", "d_xpy=1e76",
         "n_t=100", "n_c=1"),
        ("classify", "c=5e77", "c_min=5e77", "c_max=5e77", "d_xpy=1e76", "n_t=3", "n_c=1"),
        ("classify", "c=5e77", "c_min=5e77", "c_max=5e77", "d_xpy=1e76", "t_max=1e-10",
         "n_t=3", "n_c=1"),
        ("sweep", "c_max=1e300", "n_t=3", "n_c=2"),
        ("sweep", "m=1e200", "omega=1e-200", "n_t=3", "n_c=1"),
        ("classify", "lambda=1e-300", "n_t=3", "n_c=1"),
        ("sweep", "lambda=1e300", "n_t=3", "n_c=1"),
    ):
        lines += both_formats(command, *pairs)
    # diffusion bounds at lam = 0.1, d_xpy = 0.08: the cross bound needs C >= 1.6
    for pairs in (
        ("c=2", "d_xpy=0.08"),
        ("d_xpy=0.08", "c_min=2", "c_max=3"),
        ("c=2", "d_xpy=0.08", "c_min=1.6", "c_max=2"),
        ("d_xpy=0.08", "c_min=1.59", "c_max=2"),
        ("d_xpy=0.08", "c_min=1.6", "c_max=1.6"),
        ("temperature=3", "d_xpy=0.08", "c_min=1.7", "c_max=2"),
        ("c=1.7", "d_xpy=0.08"),
        ("lambda=1e-6", "d_xpy=1e-6", "c_min=2", "c_max=2"),
    ):
        for command in ("sweep", "classify"):
            lines += both_formats(command, *pairs, "n_t=100", "n_c=3")
    lines += both_formats("steady", "d_xpy=0.06")
    # a crossing near t = 6.8e7, where adjacent floats lie more than EVENT_TIME_TOL apart
    for command in ("sweep", "classify"):
        lines += both_formats(command, "lambda=1e-7", "d_xpy=4.9e-8", "initial=fig1",
                              "t_max=1e9", "n_t=1000", "n_c=1")
    lines += both_formats("phase-diagram", "c=1.2", "d_xpy_max=0.2", "n_d=5", "n_c=4")
    # configuration errors
    lines += [
        ["steady", *sets("lambda_typo=1")],
        ["steady", *sets("c=1.2", "temperature=0.5")],
        ["metrics", *sets("initial=fig9")],
        ["metrics", *sets("initial=fig1", "sigma_xx=1")],
        ["sweep", *sets("n_t=1000000", "n_c=2")],
        ["phase-diagram", *sets("n_d=1000", "n_c=1001")],
        ["sweep", *sets("c_min=1.5", "c_max=1.2")],
        ["phase-diagram", *sets("d_xpy_min=0.1", "d_xpy_max=0.0")],
        ["steady", *sets("lambda=0")],
        ["steady", *sets("c=nan")],
        ["steady", *sets("n_t=2.5")],
        ["steady", "--set", "c"],
        ["steady", "--format", "xml"],
        ["bogus"],
        ["metrics", "--config", "missing.cfg"],
    ]
    # no --format, --out, --config and --dump-config
    lines += [
        ["steady"],
        ["metrics", *sets("initial=fig3")],
        ["evolve", *sets("initial=fig1", "t=7.25")],
        ["sweep", *sets("initial=fig2", "n_t=50", "n_c=2", "t_max=60")],
        ["classify", *sets("initial=fig4")],
        ["phase-diagram", *sets("n_d=4", "n_c=5")],
        ["sweep", *sets("initial=fig1"), "--out", OUT_FILE],
        ["phase-diagram", *sets("n_d=25", "c_max=1.3", "n_c=61"), "--format", "json",
         "--out", OUT_FILE],
        ["metrics", "--config", CONFIG_FILE],
        ["metrics", "--config", CONFIG_FILE, *sets("c=1.0"), "--format", "json"],
        # an override drops the file's other spelling of the same setting
        ["metrics", "--config", CONFIG_FILE, *sets("temperature=0.5")],
        ["metrics", "--config", CONFIG_FILE,
         *sets("sigma_xx=1", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1")],
        ["metrics", *sets("c=1.2", "initial=fig3", "t=2.5"), "--dump-config"],
        ["sweep", "--strict", *sets("temperature=0.7", "sigma_xx=0.8"), "--dump-config"],
        ["metrics", "--form", "json", "--set=initial=fig1"],
    ]
    # phase diagrams like the benchmark's: d_xpy up to the bound at c_max = 2
    rng = random.Random(20111)
    for k in range(40):
        lam, omega = rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0)
        m = 1.0 if k % 2 else rng.uniform(0.5, 2.0)
        d_max = 0.5 * lam * 2.0
        d_min = -d_max if k % 4 == 1 else 0.0
        lines.append(
            ["phase-diagram", *sets(f"lambda={lam!r}", f"omega={omega!r}", f"m={m!r}",
                                    f"d_xpy_min={d_min!r}", f"d_xpy_max={d_max!r}", "n_d=200",
                                    "c_min=1.0", "c_max=2.0", "n_c=200")]
        )
    # a crossing near t = 4e-8 in a first bracket of 2e9, whose float spacing is 2.4e-7
    lines.append(["classify", *sets("t_max=1e12", "n_c=1")])
    # float-max grid ends, where np.linspace overflows an inner step of a finite grid
    lines.append(["sweep", *sets("t_max=1.7976931348623157e308", "n_t=4", "n_c=1")])
    lines.append(["classify", *sets("c_max=1.7976931348623157e308", "n_t=100", "n_c=4")])
    # a lenient unphysical state whose partially transposed pair is complex:
    # nu_tilde_minus_sq is written as nan (CSV) and NaN (JSON)
    lines += both_formats(
        "metrics", "sigma_xx=0.21050832388921256", "sigma_pxpx=0.7194126159259291",
        "sigma_yy=1.4112040009843405", "sigma_pypy=1.3256221275528934",
        "sigma_xy=1.2478167113324456", "sigma_pxpy=1.5660341743582724",
        "sigma_xpy=-0.7385345213846071",
    )
    # a grid whose instants nearly all round to 0 and take the initial state
    lines += both_formats("classify", "initial=fig2", "t_max=5e-324", "n_t=100", "n_c=2")
    # the time column of an oscillator with m * omega != 1 and lambda != 0.1, where
    # fig3 is not a physical state (lenient mode warns) and classify finds events
    for command in ("sweep", "classify"):
        lines += both_formats(
            command, "lambda=0.2", "m=1.5", "omega=0.8", "d_xpy=0.09", "initial=fig3",
            "n_t=60", "n_c=3", "c_max=2",
        )
    return lines


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str], code: int | str, stdout: bytes, out: pathlib.Path, stderr: str) -> str:
    """The corpus line of one run: ``out`` is the ``--out`` path, read if it
    exists, and ``stderr`` is normalised here."""
    stderr = re.sub(r"\.py:\d+", ".py:<line>", stderr.replace(str(TREE), "<tree>"))
    return json.dumps({
        "argv": argv,
        "exit": code,
        "stdout": _digest(stdout),
        "out": _digest(out.read_bytes()) if out.exists() else None,
        "stderr": stderr,
    })


def main() -> None:
    # argparse wraps its usage text at the terminal width, 80 on a pipe
    env = dict(os.environ, PYTHONPATH=str(TREE / "src"), COLUMNS="80")
    with tempfile.TemporaryDirectory() as scratch:
        work = pathlib.Path(scratch)
        out = work / OUT_FILE
        (work / CONFIG_FILE).write_text(CONFIG_TEXT, encoding="utf-8")
        for argv in corpus():
            out.unlink(missing_ok=True)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "gaussent.cli", *argv],
                    cwd=work, env=env, capture_output=True, check=False, timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired as exc:  # a hang is reported, not waited for
                code, stdout, stderr = "timeout", exc.stdout or b"", exc.stderr or b""
            else:
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            print(record(argv, code, stdout, out, stderr.decode("utf-8", "replace")), flush=True)


if __name__ == "__main__":
    main()
