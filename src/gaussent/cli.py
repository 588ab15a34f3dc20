"""Command-line interface: gauss-ent <command> [options].

Commands: evolve, steady, metrics, sweep, classify, phase-diagram.
Configuration is a flat key=value file plus repeatable --set overrides
(flags win); outputs are deterministic CSV or JSON with floats printed to 17
significant digits, so identical configurations produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 physicality violation,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    CovarianceMatrix,
    ENTRY_NAMES,
    EnvironmentSpec,
    check_physical_state,
    covariance_from_entries,
    independent_entries,
    thermal_c_from_temperature,
    thermal_environment,
    validate_diffusion,
)
from .dynamics import evolve, steady_covariance
from .entanglement import metrics
from .experiments import (
    PhaseDiagram,
    SweepResult,
    SweepSpec,
    asymptotic_phase_diagram,
    classify_phase,
    sweep,
)
from .presets import PRESET_NAMES, initial_state

COMMANDS = ("evolve", "steady", "metrics", "sweep", "classify", "phase-diagram")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PHYSICALITY = 3
EXIT_NUMERICAL = 4

#: Configuration keys besides the sigma_* entries: name -> (type, default,
#: bound), where a bound (">", x) or (">=", x) is checked after parsing.  The
#: order is that of the --help list and of the flat and JSON config.
_KEYS: dict[str, tuple[type, object, tuple[str, int] | None]] = {
    "lambda": (float, 0.1, (">", 0)),
    "m": (float, 1.0, (">", 0)),
    "omega": (float, 1.0, (">", 0)),
    "d_xy": (float, 0.0, None),
    "d_xpy": (float, 0.049, None),
    "c": (float, 1.0, (">=", 1)),
    "temperature": (float, None, (">=", 0)),
    "t": (float, 0.0, (">=", 0)),
    "t_max": (float, 50.0, (">", 0)),
    "n_t": (int, 500, (">=", 2)),
    "c_min": (float, 1.0, (">=", 1)),
    "c_max": (float, 1.5, None),
    "n_c": (int, 20, (">=", 1)),
    "d_xpy_min": (float, 0.0, None),
    "d_xpy_max": (float, 0.06, None),
    "n_d": (int, 13, (">=", 1)),
    "initial": (str, "vacuum", None),
}
_COMPARE = {">": operator.gt, ">=": operator.ge}

#: Largest grid accepted, in cells: rows * n_c, for the commands and row keys below.
MAX_GRID_CELLS = 10**6
_GRID_ROWS = {"sweep": "n_t", "classify": "n_t", "phase-diagram": "n_d"}


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or conflicting options."""


class PhysicalityError(Exception):
    """Environment or initial state fails a physicality requirement."""


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: command, configuration values and output options.

    ``values`` maps the keys of the key table to their resolved values: ``c``
    holds the thermal parameter (also when it was given as a temperature,
    which is not kept), and explicit ``sigma_*`` entries take the place of
    ``initial``.  ``cfg[key]`` reads one value.
    """

    command: str
    values: dict[str, float | int | str]
    strict: bool = False
    out: str | None = None
    fmt: str = "csv"

    def __getitem__(self, key: str):
        return self.values[key]

    def environment(self) -> EnvironmentSpec:
        v = self.values
        return thermal_environment(v["lambda"], v["c"], v["d_xy"], v["d_xpy"], v["m"], v["omega"])

    def initial_state(self) -> CovarianceMatrix:
        if "initial" in self.values:
            return initial_state(self.values["initial"])
        return covariance_from_entries(
            {name: self.values[name] for name in ENTRY_NAMES if name in self.values}
        )

    def to_flat(self) -> dict[str, str]:
        """Canonical flat form; re-parsing it reproduces this configuration."""
        return {key: str(value) for key, value in self.values.items()}


def parse_flat_file(path: str) -> dict[str, str]:
    """Read a flat key=value configuration file ('#' starts a comment)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse(key: str, raw: str):
    kind = _KEYS[key][0] if key in _KEYS else float
    if kind is str:
        return raw
    try:
        value = kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"value for {key!r} is not {what}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"value for {key!r} must be finite, got {raw!r}")
    return value


def build_config(
    command: str,
    provided: dict[str, str],
    *,
    strict: bool = False,
    out: str | None = None,
    fmt: str = "csv",
) -> RunConfig:
    """Validate raw key=value strings and resolve them into a RunConfig."""
    for key in provided:
        if key not in _KEYS and key not in ENTRY_NAMES:
            raise ConfigError(f"unknown configuration key {key!r}")
    values = {
        key: _parse(key, provided[key]) if key in provided else default
        for key, (_, default, _) in _KEYS.items()
    }
    for key, (_, _, bound) in _KEYS.items():
        value = values[key]
        if bound and value is not None and not _COMPARE[bound[0]](value, bound[1]):
            raise ConfigError(f"{key} must be {bound[0]} {bound[1]}, got {value}")

    temperature = values.pop("temperature")
    if temperature is not None:
        if "c" in provided:
            raise ConfigError("give either c= or temperature=, not both")
        values["c"] = thermal_c_from_temperature(temperature, values["omega"])

    sigma_keys = [name for name in ENTRY_NAMES if name in provided]
    if sigma_keys:
        if "initial" in provided:
            raise ConfigError("explicit sigma_* entries conflict with an initial= preset")
        del values["initial"]
        values.update((name, _parse(name, provided[name])) for name in sigma_keys)
    elif values["initial"] not in PRESET_NAMES:
        raise ConfigError(
            f"unknown initial-state preset {values['initial']!r}; "
            f"valid names: {', '.join(PRESET_NAMES)}"
        )

    rows = _GRID_ROWS.get(command)
    if rows and values[rows] * values["n_c"] > MAX_GRID_CELLS:
        cells = values[rows] * values["n_c"]
        raise ConfigError(f"{rows}*n_c = {cells} grid cells exceed the cap {MAX_GRID_CELLS}")
    if values["c_max"] < values["c_min"]:
        raise ConfigError("require c_min <= c_max")
    if values["d_xpy_max"] < values["d_xpy_min"]:
        raise ConfigError("require d_xpy_min <= d_xpy_max")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    return RunConfig(command, values, strict, out, fmt)


def _fmt(value) -> str:
    """One CSV cell: 17 significant digits, None (undefined) as nan, bools as 0/1."""
    if isinstance(value, float):
        return format(float(value), ".17g")  # numpy floats format more slowly
    return "nan" if value is None else str(int(value))


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _entries_output(cfg: RunConfig, sigma: CovarianceMatrix) -> str:
    entries = independent_entries(sigma)
    if cfg.fmt == "json":
        return _json_output(cfg, {"entries": entries})
    return _csv("entry,value", (f"{name},{_fmt(value)}" for name, value in entries.items()))


def _json_output(cfg: RunConfig, result: dict) -> str:
    return json.dumps(
        {"command": cfg.command, "config": cfg.to_flat(), "result": result}, indent=2
    ) + "\n"


def _run_metrics(cfg: RunConfig, env: EnvironmentSpec, initial: CovarianceMatrix) -> str:
    met = metrics(evolve(initial, env, cfg["t"]))
    result = {
        "simon_s": met.simon_s,
        "seralian_tilde": met.seralian_tilde,
        "nu_tilde_minus_sq": met.nu_tilde_minus_sq,
        "log_negativity": met.log_negativity,
        "defined": met.log_negativity is not None,
        "separable": met.separable,
        "boundary": met.boundary,
    }
    if cfg.fmt == "json":
        return _json_output(cfg, {"t": cfg["t"], **result})
    return _csv("quantity,value", (f"{name},{_fmt(value)}" for name, value in result.items()))


def sweep_csv(result: SweepResult) -> str:
    """CSV of a sweep: header t,c,S,L,defined and one row per cell, t-major."""
    rows = (
        f"{_fmt(t)},{_fmt(c)},{_fmt(s)},{_fmt(degree)},{int(defined)}"
        for t, c, s, degree, defined in result.rows()
    )
    return _csv("t,c,S,L,defined", rows)


def _run_sweep(cfg: RunConfig, spec: SweepSpec) -> str:
    result = sweep(spec)
    if cfg.fmt == "json":
        rows = [
            [t, c, s, degree, int(defined)]
            for t, c, s, degree, defined in result.rows()
        ]
        return _json_output(
            cfg,
            {
                "t": [float(v) for v in result.times],
                "c": [float(v) for v in result.thermal_cs],
                "rows": rows,
            },
        )
    return sweep_csv(result)


def classify_csv(results) -> str:
    """CSV of phase labels from (c, PhaseClassification) pairs: header
    c,label,event_times, with the event times separated by semicolons."""
    rows = (
        f"{_fmt(c)},{phase.label},{';'.join(_fmt(t) for t in phase.event_times)}"
        for c, phase in results
    )
    return _csv("c,label,event_times", rows)


def _run_classify(cfg: RunConfig, spec: SweepSpec) -> str:
    results = [
        (c, classify_phase(spec.initial, spec.environment_at(c), spec.t_max, spec.n_t))
        for c in map(float, spec.thermal_cs())
    ]
    if cfg.fmt == "json":
        return _json_output(
            cfg,
            {
                "rows": [
                    {
                        "c": c,
                        "label": phase.label,
                        "event_times": list(phase.event_times),
                        "s_infinity_sign": phase.s_infinity_sign,
                    }
                    for c, phase in results
                ]
            },
        )
    return classify_csv(results)


def phase_diagram_csv(diagram: PhaseDiagram) -> str:
    """CSV of a phase diagram: header d_xpy,c,status and one row per cell."""
    rows = (
        f"{_fmt(d)},{_fmt(c)},{diagram.status(i, j)}"
        for i, d in enumerate(diagram.d_xpy_values)
        for j, c in enumerate(diagram.thermal_cs)
    )
    return _csv("d_xpy,c,status", rows)


def _run_phase_diagram(cfg: RunConfig) -> str:
    d_xpy_values = np.linspace(cfg["d_xpy_min"], cfg["d_xpy_max"], cfg["n_d"])
    if not np.isfinite(d_xpy_values).all():  # the width d_xpy_max - d_xpy_min overflowed
        raise OverflowError(f"d_xpy grid is not finite: {d_xpy_values.tolist()}")
    diagram = asymptotic_phase_diagram(
        cfg["lambda"],
        cfg["omega"],
        d_xpy_values,
        np.linspace(cfg["c_min"], cfg["c_max"], cfg["n_c"]),
        m=cfg["m"],
    )
    if cfg.fmt == "json":
        return _json_output(
            cfg,
            {
                "d_xpy": [float(v) for v in diagram.d_xpy_values],
                "c": [float(v) for v in diagram.thermal_cs],
                "rows": [
                    [float(d), float(c), diagram.status(i, j)]
                    for i, d in enumerate(diagram.d_xpy_values)
                    for j, c in enumerate(diagram.thermal_cs)
                ],
            },
        )
    return phase_diagram_csv(diagram)


def run(cfg: RunConfig) -> str:
    """Execute a resolved configuration and return the output text.

    Raises ConfigError / PhysicalityError / numpy.linalg.LinAlgError /
    ArithmeticError (overflow, or division by an underflowed value); the
    caller maps those to exit codes.
    """
    if cfg.command == "phase-diagram":
        return _run_phase_diagram(cfg)

    env = cfg.environment()
    report = validate_diffusion(env)
    if not report.passed:
        failed = ", ".join(
            f"{check.name} (margin {check.margin:.3e})" for check in report.failures()
        )
        raise PhysicalityError(f"diffusion coefficients violate positivity bounds: {failed}")

    if cfg.command == "steady":
        return _entries_output(cfg, steady_covariance(env))

    initial = cfg.initial_state()
    state_report = check_physical_state(initial)
    if not state_report.physical:
        detail = f"min eigenvalue of rescaled sigma + i Omega/2 {state_report.min_eigenvalue:.6g}"
        if cfg.strict:
            raise PhysicalityError(f"unphysical initial state ({detail})")
        print(
            f"warning: unphysical initial state ({detail}); proceeding in lenient mode",
            file=sys.stderr,
        )

    if cfg.command == "evolve":
        return _entries_output(cfg, evolve(initial, env, cfg["t"]))
    if cfg.command == "metrics":
        return _run_metrics(cfg, env, initial)
    spec = SweepSpec(
        env, initial, cfg["t_max"], cfg["n_t"], cfg["c_min"], cfg["c_max"], cfg["n_c"]
    )
    if cfg.command == "sweep":
        return _run_sweep(cfg, spec)
    if cfg.command == "classify":
        return _run_classify(cfg, spec)
    raise ConfigError(f"unknown command {cfg.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gauss-ent",
        description=(
            "Evolve the covariance matrix of two damped oscillator modes in a "
            "common thermal bath and quantify their entanglement."
        ),
        epilog=(
            "Configuration keys (key=value, via --config file or --set): "
            f"{', '.join(_KEYS)}.  Give c or temperature, not both; initial is "
            f"one of {'|'.join(PRESET_NAMES)}, or give explicit sigma_* entries."
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="flat key=value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one configuration key (repeatable; wins over --config)",
    )
    parser.add_argument("--out", metavar="PATH", help="write the result to PATH instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="reject unphysical initial states instead of warning",
    )
    parser.add_argument(
        "--dump-config",
        action="store_true",
        help="print the resolved configuration as key=value lines and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        provided: dict[str, str] = {}
        if args.config:
            provided.update(parse_flat_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            provided[key.strip()] = value.strip()
        cfg = build_config(
            args.command, provided, strict=args.strict, out=args.out, fmt=args.format
        )
        if args.dump_config:
            flat = cfg.to_flat()
            for key in sorted(flat):
                print(f"{key}={flat[key]}")
            return EXIT_OK
        # overflow is reported once, as exit code 4, not also as numpy warnings;
        # numpy's det divides by zero on singular matrices and returns 0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            text = run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
