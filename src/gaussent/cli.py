"""Command-line interface: gauss-ent <command> [options].

Commands: evolve, steady, metrics, sweep, classify, phase-diagram.
Configuration is a flat key=value file plus repeatable --set overrides
(flags win); outputs are deterministic CSV (floats to 17 significant digits)
or JSON (shortest round-trip floats): identical configurations, identical bytes.
One table, ``_OPTIONS``, declares every option.  Exact spellings (``--set
VALUE``, ``--format json``, ...) are parsed directly, with argparse's results;
abbreviations, ``--opt=value``, ``--help`` and usage errors go through argparse.

Exit codes: 0 success, 2 configuration error, 3 physicality violation,
4 numerical failure.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections import namedtuple

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

TYPE_CHECKING = False  # as typing names it; typing itself is not imported
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
#: The key table read once: every key a config may give, the default values in
#: table order, and each bounded key with its comparison.
_KNOWN = frozenset(_KEYS).union(ENTRY_NAMES)
_DEFAULTS = {key: default for key, (_, default, _) in _KEYS.items()}
_BOUNDED = tuple(
    (key, _COMPARE[bound[0]], bound) for key, (_, _, bound) in _KEYS.items() if bound
)

#: The other spellings of a key's setting, which an override drops from the config file.
_SPELLINGS = {
    "c": ("temperature",), "temperature": ("c",), "initial": ENTRY_NAMES,
    **dict.fromkeys(ENTRY_NAMES, ("initial",)),
}

#: Largest grid accepted, in cells: rows * n_c, for the commands and row keys below.
MAX_GRID_CELLS = 10**6
_GRID_ROWS = {"sweep": "n_t", "classify": "n_t", "phase-diagram": "n_d"}

#: Every option, in --help order: flag -> (dest, default, further argparse keywords).
_OPTIONS: dict[str, tuple[str, object, dict]] = {
    "--config": ("config", None, dict(metavar="FILE", help="flat key=value configuration file")),
    "--set": ("overrides", [], dict(
        metavar="KEY=VALUE", action="append",
        help="override one configuration key (repeatable; wins over --config)")),
    "--out": ("out", None, dict(metavar="PATH", help="write the result to PATH instead of stdout")),
    "--format": ("format", "csv", dict(choices=("csv", "json"))),
    "--strict": ("strict", False, dict(
        action="store_true", help="reject unphysical initial states instead of warning")),
    "--dump-config": ("dump_config", False, dict(
        action="store_true", help="print the resolved configuration as key=value lines and exit")),
}
#: The table read once, for the direct parser and for RunConfig.
_ARGS = {"command": None, **{dest: default for dest, default, _ in _OPTIONS.values()}}
_READS = {flag: (d, kw.get("action"), kw.get("choices")) for flag, (d, _, kw) in _OPTIONS.items()}
_APPENDS = tuple(dest for dest, action, _ in _READS.values() if action == "append")
_FORMATS = _OPTIONS["--format"][2]["choices"]
_RUN_DEFAULTS = (_ARGS["strict"], _ARGS["out"], _ARGS["format"])


class ConfigError(Exception):
    """Invalid configuration: unknown key, bad value, or conflicting options."""


class PhysicalityError(Exception):
    """Environment or initial state fails a physicality requirement."""


class RunConfig(
    namedtuple("RunConfig", "command values strict out fmt", defaults=_RUN_DEFAULTS)
):
    """A fully resolved run: command, configuration values and output options.

    ``values`` maps the keys of the key table to their resolved values: ``c``
    holds the thermal parameter (also when it was given as a temperature,
    which is not kept), and explicit ``sigma_*`` entries take the place of
    ``initial``.  ``cfg[key]`` reads one value.  Every value is a finite
    float, an int or a validated preset name, whose ``str`` needs no JSON
    escaping.  The JSON config block relies on that and writes them
    unescaped: a key with other str values must change its template too.
    It is an immutable named tuple whose ``command`` and ``fmt`` are checked
    on construction, ``_make`` and ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if self.fmt not in _FORMATS:
            raise ConfigError(f"format must be {' or '.join(_FORMATS)}, got {self.fmt!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> RunConfig:
        return cls(*iterable)

    def __getitem__(self, key: str):
        return self.values[key]

    def environment(self) -> EnvironmentSpec:
        """The bath at ``c``, or for sweep and classify, which read no ``c``, at
        their first column ``c_min``, where the diffusion bounds are tightest."""
        v = self.values
        c = v["c_min"] if self.command in ("sweep", "classify") else v["c"]
        return thermal_environment(v["lambda"], c, v["d_xy"], v["d_xpy"], v["m"], v["omega"])

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
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is not text
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
    strict: bool = _ARGS["strict"],
    out: str | None = _ARGS["out"],
    fmt: str = _ARGS["format"],
) -> RunConfig:
    """Validate raw key=value strings and resolve them into a RunConfig, whose
    values are finite floats, ints and a preset name from ``PRESET_NAMES``."""
    for key in provided:
        if key not in _KNOWN:
            raise ConfigError(f"unknown configuration key {key!r}")
    values = _DEFAULTS.copy()
    for key in _DEFAULTS:
        if key in provided:
            values[key] = _parse(key, provided[key])
    for key, compare, bound in _BOUNDED:
        value = values[key]
        if value is not None and not compare(value, bound[1]):
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
    return RunConfig(command, values, strict, out, fmt)


def _fmt(value) -> str:
    """One CSV cell: 17 significant digits, None (undefined) as nan, bools as 0/1."""
    if isinstance(value, float):
        return format(float(value), ".17g")  # numpy floats format more slowly
    return "nan" if value is None else str(int(value))


def _csv(header: str, rows) -> str:
    """Header and rows as CSV text, in one join."""
    return "\n".join([header, *rows, ""])


@functools.cache  # json, and the re and enum it imports, load with the first JSON output
def _quote():
    """json's string quoting, which writes non-ASCII characters as escapes."""
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii


@functools.lru_cache
def _object(keys: tuple, pad: str, slot: str) -> str:
    """A JSON object of ``keys`` laid out as json.dumps(indent=2) writes it from
    the line of newline and indentation ``pad``, with ``slot`` in place of each
    value for one ``%`` to fill, and a ``%`` in a key written ``%%``."""
    if not keys:
        return "{}"
    inner = pad + "  "
    quote = _quote()
    items = [quote(key).replace("%", "%%") + ": " + slot for key in keys]
    return "{" + inner + ("," + inner).join(items) + pad + "}"


def _json(value, pad: str = "\n") -> str:
    """``value`` as json.dumps(value, indent=2) writes it, with ``pad`` the
    newline and indentation of the line it starts on: dicts with str keys,
    lists, str, float, int, bool and None; any other type raises TypeError.
    A dict fills the cached ``_object`` template of its keys with its values."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return _quote()(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, of which bool is a subclass
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        return _object(tuple(value), pad, "%s") % tuple([_json(v, inner) for v in value.values()])
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_output(cfg: RunConfig, result: dict) -> str:
    """A run's JSON output: command, config as ``to_flat`` strings and ``result``.
    The ``'"%s"'`` slot applies ``str`` to each config value, as ``to_flat`` does."""
    values = cfg.values
    config = _object(tuple(values), "\n  ", '"%s"') % tuple(values.values())
    top = _object(("command", "config", "result"), "\n", "%s")
    return top % (_quote()(cfg.command), config, _json(result, "\n  ")) + "\n"


def _pairs(cfg: RunConfig, header: str, values: dict, result: dict) -> str:
    """A name/value table: one ``name,value`` CSV line per pair, or JSON of ``result``."""
    if cfg.fmt == "json":
        return _json_output(cfg, result)
    return _csv(header, (f"{name},{_fmt(value)}" for name, value in values.items()))


def _grid(names, axes, kinds, codes, fills=None, cfg: RunConfig | None = None) -> str:
    """A grid, row-major: CSV with the header ``names`` and a ``row,column,cell``
    line per cell, or for a JSON ``cfg`` both axes under the first two names
    and a [row, column, *cell] list per cell, as json.dumps(..., indent=2)
    writes them (floats as repr, which json shares for finite floats only).
    Each column has one template per cell kind: its text and that kind's fields
    in ``kinds``.  One fancy index with the integer array ``codes`` picks every
    cell's template, one join per row writes the row, and one ``%`` fills it
    from its values in ``fills`` where the fields hold conversions.  No text is
    built per cell, and the rows are joined into the output once."""
    import numpy as np

    json = cfg is not None and cfg.fmt == "json"
    text = repr if json else "{:.17g}".format
    row_axis, columns = ([text(v) for v in axis.tolist()] for axis in axes)
    if json:
        opening, sep, closing, between = "      [\n        ", ",\n        ", "\n      ]", ",\n"
        result = {names[0]: axes[0].tolist(), names[1]: axes[1].tolist(), "rows": []}
        start, _, end = _json_output(cfg, result).rpartition("[]")  # around the empty rows
        head, tail = start + "[\n", "\n    ]" + end
    else:
        opening, sep, closing, between = "", ",", "", "\n"
        head, tail = ",".join(names) + "\n", "\n"
    table = [[sep + c + sep + sep.join(kind) + closing for kind in kinds] for c in columns]
    cells = np.array(table, dtype=object)[np.arange(len(columns)), codes].tolist()
    lines = []
    for r, row, fill in zip(row_axis, cells, fills or [None] * len(cells)):
        row[0] = opening + r + row[0]
        line = (between + opening + r).join(row)
        lines.append(line if fill is None else line % tuple(fill))
    lines[0] = head + lines[0]
    lines[-1] += tail
    return between.join(lines)


def _sweep_text(result: SweepResult, cfg: RunConfig | None = None) -> str:
    """A sweep as ``_grid`` text: S, L and the 0/1 defined flag per cell, an
    undefined L as nan in CSV and null in JSON.  Raises ``OverflowError`` if S
    or a defined L is not finite, which the JSON template cannot write."""
    import numpy as np

    defined = result.defined
    if not (np.isfinite(result.simon).all() and np.isfinite(result.log_neg[defined]).all()):
        raise OverflowError("a sweep value to write is not finite")
    number, missing = ("%r", "null") if cfg is not None and cfg.fmt == "json" else ("%.17g", "nan")
    # each row's (S, L) pairs; an undefined cell's NaN L fills a %.0s, which writes nothing
    fills = np.stack([result.simon, result.log_neg], axis=2).reshape(len(defined), -1).tolist()
    kinds = ((number, "%.0s" + missing, "0"), (number, number, "1"))
    axes = (result.times, result.thermal_cs)
    return _grid(("t", "c", "S,L,defined"), axes, kinds, defined.astype(int), fills, cfg)


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

    if cfg["t_max"] * cfg["lambda"] < 5.0 or cfg["n_t"] < 100:
        print(f"warning: classification grid is below the recommended resolution (t_max >= "
              f"{5.0 / cfg['lambda']:.3g} and n_t >= 100); the result may miss crossings",
              file=sys.stderr)
    results = [
        (c, classify_phase(spec.initial, spec.environment_at(c), spec.t_max, spec.n_t))
        for c in map(float, spec.thermal_cs())
    ]
    # columns whose last sample disagrees with S∞, read as PhaseClassification says
    short = sum((p.s_initial_sign < 0) ^ len(p.event_times) % 2 ^ (p.s_infinity_sign < 0)
                for _, p in results)
    if short:
        print(f"warning: final sampled Simon sign disagrees with the asymptotic sign in {short} "
              f"of {len(results)} columns; the sampling horizon is probably too short",
              file=sys.stderr)
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

    from .experiments import _linspace, asymptotic_phase_diagram

    d_xpy_values = _linspace(cfg["d_xpy_min"], cfg["d_xpy_max"], cfg["n_d"])
    if not np.isfinite(d_xpy_values).all():  # the width d_xpy_max - d_xpy_min overflowed
        raise OverflowError(f"d_xpy grid is not finite: {d_xpy_values.tolist()}")
    diagram = asymptotic_phase_diagram(
        cfg["lambda"],
        cfg["omega"],
        d_xpy_values,
        _linspace(cfg["c_min"], cfg["c_max"], cfg["n_c"]),  # c_min >= 1: the width is finite
        m=cfg["m"],
        d_xy=cfg["d_xy"],
    )
    statuses = ("separable", "entangled", "unphysical")  # codes 0, 1, 2
    kinds = [(f'"{status}"' if cfg.fmt == "json" else status,) for status in statuses]
    codes = np.where(diagram.unphysical, 2, diagram.entangled)
    axes = (diagram.d_xpy_values, diagram.thermal_cs)
    return _grid(("d_xpy", "c", "status"), axes, kinds, codes, cfg=cfg)


def run(cfg: RunConfig) -> str:
    """Execute a resolved configuration and return the output text.

    Raises PhysicalityError / ArithmeticError (overflow, division by an
    underflowed value, or a failed Lyapunov check); the caller maps those to
    exit codes.  numpy loads for the grid commands and for the
    eigenvalue quoted on an unphysical initial state.
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
        v = state_report.rescaled  # rescaled only where all four variances are positive
        matrix = "rescaled sigma" if min(v[0], v[4], v[7], v[9]) > 0.0 else "sigma"
        detail = f"min eigenvalue of {matrix} + i Omega/2 {state_report.min_eigenvalue:.6g}"
        if cfg.strict:
            raise PhysicalityError(f"unphysical initial state ({detail})")
        print(f"warning: unphysical initial state ({detail}); proceeding in lenient mode",
              file=sys.stderr)

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
    return _run_classify(cfg, spec)


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
    for flag, (dest, default, keywords) in _OPTIONS.items():
        parser.add_argument(flag, dest=dest, default=default, **keywords)
    return parser


def _parse_args(argv: list[str]) -> dict | None:
    """``vars(_build_parser().parse_args(argv))`` for an argv of one command,
    exact option spellings and values that do not start with ``-``; None for
    any other argv, which argparse then parses or rejects."""
    args = _ARGS.copy()
    for dest in _APPENDS:  # a new list to append to, not the table's default
        args[dest] = [*args[dest]]
    tokens = iter(argv)
    for token in tokens:
        if token in _READS:
            dest, action, choices = _READS[token]
            if action == "store_true":
                args[dest] = True
            elif (value := next(tokens, "-")).startswith("-") or choices and value not in choices:
                return None  # a missing value reads as "-", so it is declined too
            elif action == "append":
                args[dest].append(value)
            else:
                args[dest] = value
        elif token in COMMANDS and args["command"] is None:
            args["command"] = token
        else:
            return None
    return args if args["command"] else None


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv) or vars(_build_parser().parse_args(argv))
    try:
        provided = parse_flat_file(args["config"]) if args["config"] else {}
        overrides: dict[str, str] = {}
        for item in args["overrides"]:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        if provided:
            for key in overrides.keys() & _SPELLINGS:
                for other in _SPELLINGS[key]:
                    provided.pop(other, None)
        provided.update(overrides)
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
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
