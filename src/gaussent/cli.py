"""Command-line interface: gauss-ent <command> [options].

Commands: evolve, steady, metrics, sweep, classify, phase-diagram.
Configuration is a flat key=value file plus repeatable --set overrides
(flags win); outputs are deterministic CSV (floats to 17 significant digits)
or JSON (shortest round-trip floats): identical configurations, identical bytes.
Exact option spellings (``--set VALUE``, ``--format json``, ...) are parsed
directly; abbreviations, ``--opt=value``, ``--help`` and usage errors go
through argparse, with the same results.

Exit codes: 0 success, 2 configuration error, 3 physicality violation,
4 numerical failure.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

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
from .presets import PRESET_NAMES, initial_state

if TYPE_CHECKING:  # experiments, with numpy, loads only for the grid commands
    import argparse

    from .experiments import SweepResult, SweepSpec

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
    except (OSError, UnicodeDecodeError) as exc:
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
    """Header and rows as CSV text; a row may be a block of lines (one grid row)."""
    return "\n".join([header, *rows]) + "\n"


def _json(value, pad: str = "\n") -> str:
    """``value`` as json.dumps(value, indent=2) writes it, with ``pad`` the
    newline and indentation of the line it starts on: dicts with str keys,
    lists, str, float, int, bool and None; any other type raises TypeError."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, of which bool is a subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_output(cfg: RunConfig, result: dict) -> str:
    return _json({"command": cfg.command, "config": cfg.to_flat(), "result": result}) + "\n"


def _pairs(cfg: RunConfig, header: str, values: dict, result: dict) -> str:
    """A name/value table: one ``name,value`` CSV line per pair, or JSON of ``result``."""
    if cfg.fmt == "json":
        return _json_output(cfg, result)
    return _csv(header, (f"{name},{_fmt(value)}" for name, value in values.items()))


def _grid(names: tuple[str, str, str], axes, rows, cfg: RunConfig | None = None) -> str:
    """A grid, row-major, from the cell texts of each grid row: CSV with the
    header ``names`` and a ``row,column,cell`` line per cell, or for a JSON
    ``cfg`` both axes under the first two names and a [row, column, *cell] list
    per cell, as json.dumps(..., indent=2) writes them.  Each axis is formatted
    once, for all the cells that repeat it, and every cell fills one template.
    JSON floats are written as repr, which json shares for finite floats only."""
    if cfg is None or cfg.fmt == "csv":
        row_axis, columns = ([format(v, ".17g") for v in axis.tolist()] for axis in axes)
        blocks = (
            "\n".join([f"{r},{c},{cell}" for c, cell in zip(columns, cells)])
            for r, cells in zip(row_axis, rows)
        )
        return _csv(",".join(names), blocks)
    row_axis, columns = ([repr(v) for v in axis.tolist()] for axis in axes)
    body = ",\n".join(
        f"      [\n        {r},\n        {c},\n        {cell}\n      ]"
        for r, cells in zip(row_axis, rows)
        for c, cell in zip(columns, cells)
    )
    head = _json({"command": cfg.command, "config": cfg.to_flat()})[:-2]
    lists = ",\n".join(
        f'    "{name}": [\n      ' + ",\n      ".join(axis) + "\n    ]"
        for name, axis in zip(names, (row_axis, columns))
    )
    return f'{head},\n  "result": {{\n{lists},\n    "rows": [\n{body}\n    ]\n  }}\n}}\n'


def _sweep_text(result: SweepResult, cfg: RunConfig | None = None) -> str:
    """A sweep as ``_grid`` text: S, L and the 0/1 defined flag per cell, an
    undefined L as nan in CSV and null in JSON.  Raises ``OverflowError`` if S
    or a defined L is not finite, which the JSON template cannot write."""
    import numpy as np

    if not (np.isfinite(result.simon).all() and np.isfinite(result.log_neg[result.defined]).all()):
        raise OverflowError("a sweep value to write is not finite")
    grids = (result.simon.tolist(), result.log_neg.tolist(), result.defined.tolist())
    cells = (zip(*row) for row in zip(*grids))
    if cfg is not None and cfg.fmt == "json":
        sep = ",\n        "  # one value per line, as in the cell template of _grid
        rows = (
            [f"{s!r}{sep}{d!r}{sep}1" if ok else f"{s!r}{sep}null{sep}0" for s, d, ok in row]
            for row in cells
        )
    else:
        rows = (
            [f"{s:.17g},{degree:.17g},1" if ok else f"{s:.17g},nan,0" for s, degree, ok in row]
            for row in cells
        )
    return _grid(("t", "c", "S,L,defined"), (result.times, result.thermal_cs), rows, cfg)


def sweep_csv(result: SweepResult) -> str:
    """CSV of a sweep: header t,c,S,L,defined and one row per cell, t-major."""
    return _sweep_text(result)


def classify_csv(results) -> str:
    """CSV of phase labels from (c, PhaseClassification) pairs: header
    c,label,event_times, with the event times separated by semicolons."""
    rows = (
        f"{_fmt(c)},{phase.label},{';'.join(_fmt(t) for t in phase.event_times)}"
        for c, phase in results
    )
    return _csv("c,label,event_times", rows)


def _run_classify(cfg: RunConfig, spec: SweepSpec) -> str:
    from .experiments import classify_phase

    results = [
        (c, classify_phase(spec.initial, spec.environment_at(c), spec.t_max, spec.n_t))
        for c in map(float, spec.thermal_cs())
    ]
    if cfg.fmt == "csv":
        return classify_csv(results)
    rows = [
        dict(c=c, label=phase.label, event_times=list(phase.event_times),
             s_infinity_sign=phase.s_infinity_sign)
        for c, phase in results
    ]
    return _json_output(cfg, {"rows": rows})


def _run_phase_diagram(cfg: RunConfig) -> str:
    import numpy as np

    from .experiments import asymptotic_phase_diagram

    with np.errstate(over="ignore", invalid="ignore"):  # reported once, as exit code 4
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
    statuses = diagram.statuses()
    if cfg.fmt == "json":
        statuses = [[f'"{status}"' for status in row] for row in statuses]
    axes = (diagram.d_xpy_values, diagram.thermal_cs)
    return _grid(("d_xpy", "c", "status"), axes, statuses, cfg)


def run(cfg: RunConfig) -> str:
    """Execute a resolved configuration and return the output text.

    Raises ConfigError / PhysicalityError / numpy.linalg.LinAlgError /
    ArithmeticError (overflow, or division by an underflowed value); the
    caller maps those to exit codes.  Only the grid commands load numpy.
    """
    if cfg.command == "phase-diagram":
        return _run_phase_diagram(cfg)

    env = cfg.environment()
    failed = [f"{c.name} (margin {c.margin:.3e})" for c in validate_diffusion(env) if not c.passed]
    if failed:
        raise PhysicalityError(
            f"diffusion coefficients violate positivity bounds: {', '.join(failed)}"
        )

    if cfg.command == "steady":
        entries = independent_entries(steady_covariance(env))
        return _pairs(cfg, "entry,value", entries, {"entries": entries})

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
        entries = independent_entries(evolve(initial, env, cfg["t"]))
        return _pairs(cfg, "entry,value", entries, {"entries": entries})
    if cfg.command == "metrics":
        met = metrics(evolve(initial, env, cfg["t"]))
        values = {
            "simon_s": met.simon_s,
            "seralian_tilde": met.seralian_tilde,
            "nu_tilde_minus_sq": met.nu_tilde_minus_sq,
            "log_negativity": met.log_negativity,
            "defined": met.log_negativity is not None,
            "separable": met.separable,
            "boundary": met.boundary,
        }
        return _pairs(cfg, "quantity,value", values, {"t": cfg["t"], **values})
    from .experiments import SweepSpec, sweep

    spec = SweepSpec(
        env, initial, cfg["t_max"], cfg["n_t"], cfg["c_min"], cfg["c_max"], cfg["n_c"]
    )
    if cfg.command == "sweep":
        return _sweep_text(sweep(spec), cfg)
    if cfg.command == "classify":
        return _run_classify(cfg, spec)
    raise ConfigError(f"unknown command {cfg.command!r}")


@functools.cache  # argparse copies the --set default list on each parse
def _build_parser() -> argparse.ArgumentParser:
    import argparse  # only argvs that _parse_args declines need it

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


_VALUED = {"--set": "overrides", "--config": "config", "--out": "out", "--format": "format"}
_FLAGS = {"--strict": "strict", "--dump-config": "dump_config"}


def _parse_args(argv: list[str]) -> dict | None:
    """``vars(_build_parser().parse_args(argv))`` for an argv of one command,
    exact option spellings and values that do not start with ``-``; None for
    any other argv, which argparse then parses or rejects."""
    args = dict(command=None, config=None, overrides=[], out=None, format="csv",
                strict=False, dump_config=False)
    tokens = iter(argv)
    for token in tokens:
        if token in _FLAGS:
            args[_FLAGS[token]] = True
        elif token in _VALUED:
            value = next(tokens, "-")  # a missing value is declined like "-..."
            if value.startswith("-") or token == "--format" and value not in ("csv", "json"):
                return None
            if token == "--set":
                args["overrides"].append(value)
            else:
                args[_VALUED[token]] = value
        elif token in COMMANDS and args["command"] is None:
            args["command"] = token
        else:
            return None
    return args if args["command"] else None


def _numerical_errors() -> tuple[type[Exception], ...]:
    """Exit code 4's exceptions: ArithmeticError, and numpy's LinAlgError once
    numpy is loaded, as only numpy code raises it.  An ``except`` clause calls
    this when an exception reaches it, so numpy is not imported to catch."""
    numpy = sys.modules.get("numpy")
    return (ArithmeticError, numpy.linalg.LinAlgError) if numpy else (ArithmeticError,)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv) or vars(_build_parser().parse_args(argv))
    try:
        provided: dict[str, str] = {}
        if args["config"]:
            provided.update(parse_flat_file(args["config"]))
        for item in args["overrides"]:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            provided[key.strip()] = value.strip()
        cfg = build_config(
            args["command"], provided, strict=args["strict"], out=args["out"], fmt=args["format"]
        )
        if args["dump_config"]:
            flat = cfg.to_flat()
            for key in sorted(flat):
                print(f"{key}={flat[key]}")
            return EXIT_OK
        text = run(cfg)
        if cfg.out:
            try:
                with open(cfg.out, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write output file {cfg.out!r}: {exc}") from exc
            print(f"wrote {cfg.out}")
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhysicalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except _numerical_errors() as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
