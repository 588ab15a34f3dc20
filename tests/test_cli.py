import ast
import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import ENTRY_NAMES, independent_entries, validate_diffusion
from gaussent.entanglement import simon_function
from gaussent.experiments import _LABELS
from gaussent.cli import (
    _KEYS,
    _OPTIONS,
    COMMANDS,
    ConfigError,
    RunConfig,
    _build_parser,
    _json,
    _parse_args,
    _sweep_text,
    build_config,
    main,
    parse_flat_file,
    run,
    sweep_csv,
)
from gaussent.presets import PRESET_NAMES
from helpers import (
    diffusion_matrix,
    drift_matrix,
    last_sample_disagrees_oracle,
    lyapunov_oracle,
    phase_diagram_csv_oracle,
    phase_diagram_rows_oracle,
    random_physical_cm,
    reference_bath,
    sweep_csv_oracle,
    sweep_rows_oracle,
    temperature_from_thermal_c,
    two_mode_squeezer,
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def test_library_modules_neither_warn_nor_print():
    # the CLI alone writes to stderr: a caveat is a "warning:" line that cli
    # builds from what the library returns, so no other module imports
    # warnings, calls into it or prints
    found, checked = [], []
    for path in sorted(Path(ge.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        checked.append(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                bad = any(alias.name.split(".")[0] == "warnings" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] == "warnings"
            elif isinstance(node, ast.Call):
                func = node.func
                bad = isinstance(func, ast.Name) and func.id == "print" or (
                    isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id == "warnings"
                )
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert {"core", "dynamics", "entanglement", "experiments", "presets"} <= set(checked)
    assert found == []


class TestSteadyCommand:
    def test_benchmark_table(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--set", "c=1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["entry", "value"]
        values = {name: float(value) for name, value in rows}
        assert set(values) == set(ENTRY_NAMES)
        assert values["sigma_xpy"] == pytest.approx(0.0049 / 1.01, abs=1e-15)
        assert values["sigma_xx"] == pytest.approx(0.5, rel=1e-12)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "steady", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "steady"
        assert payload["result"]["entries"]["sigma_xpy"] == pytest.approx(
            0.0049 / 1.01, abs=1e-15
        )


class TestMetricsCommand:
    def test_entangled_preset_lenient_warning(self, capsys):
        code, out, err = run_cli(capsys, "metrics", "--set", "initial=fig3")
        assert code == 0
        assert "unphysical initial state" in err
        _, rows = parse_csv(out)
        values = dict(rows)
        assert float(values["simon_s"]) == pytest.approx(-133.0 / 576.0, rel=1e-14)
        assert values["log_negativity"] == "nan"
        assert values["defined"] == "0"
        assert values["separable"] == "0"

    def test_strict_rejects_entangled_presets(self, capsys):
        for preset in ("fig3", "fig4"):
            code, _, err = run_cli(
                capsys, "metrics", "--strict", "--set", f"initial={preset}"
            )
            assert code == 3
            assert "unphysical initial state" in err

    def test_strict_accepts_two_mode_squeezed_vacuum(self, capsys):
        # S S^T / 2 for the r = 1 two-mode squeezer, as rounded in floats: a
        # pure state, nu_- = 1/2 up to rounding
        s = two_mode_squeezer(1.0)
        sigma = 0.5 * s @ s.T
        names = ("sigma_xx", "sigma_xy", "sigma_pxpx", "sigma_pxpy", "sigma_yy", "sigma_pypy")
        entries = dict(zip(names, sigma[[0, 0, 1, 1, 2, 3], [0, 2, 1, 3, 2, 3]].tolist()))
        assert entries["sigma_yy"] != entries["sigma_xx"]  # the rounding is part of the case
        sets = [arg for name, value in entries.items() for arg in ("--set", f"{name}={value!r}")]
        code, _, err = run_cli(capsys, "metrics", "--strict", *sets)
        assert code == 0
        assert err == ""

    def test_strict_rejects_badly_scaled_unphysical_state(self, capsys):
        # a pure squeezed x mode with entries ~5e11 next to a y mode with
        # sigma_yy * sigma_pypy = 1e-4 < 1/4
        entries = dict(sigma_xx=5e11, sigma_pxpx=2e-12, sigma_yy=0.01, sigma_pypy=0.01)
        sets = [arg for name, value in entries.items() for arg in ("--set", f"{name}={value}")]
        code, _, err = run_cli(capsys, "metrics", "--strict", *sets)
        assert code == 3
        assert "unphysical initial state" in err

    def test_lenient_accepts_physical_preset_silently(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "--set", "initial=fig1")
        assert code == 0
        assert "unphysical" not in err

    def test_json_null_for_undefined_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, "metrics", "--set", "initial=fig4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["log_negativity"] is None
        assert payload["result"]["defined"] is False

    def test_overflow_is_a_numerical_failure(self, capsys):
        for command, *entries in (
            ("metrics", "sigma_xx=1e200", "sigma_pxpx=1e200"),
            # a physical thermal state whose invariants overflow
            ("metrics", "sigma_xx=1e160", "sigma_pxpx=1e160",
             "sigma_yy=1e160", "sigma_pypy=1e160"),
            # environments, bounds and grids that overflow or underflow
            ("metrics", "lambda=10", "c=1e308"),
            ("phase-diagram", "lambda=10", "c_max=1e308", "n_c=2", "n_d=2"),
            ("phase-diagram", "d_xpy_min=-1e308", "d_xpy_max=1e308", "n_c=2", "n_d=3"),
            ("steady", "m=1e-200", "omega=1e-200"),
            ("steady", "m=1e200", "omega=1e200"),
            ("steady", "lambda=1e300"),
            ("steady", "temperature=1e308"),
            ("steady", "lambda=1e-200", "omega=1e-200", "m=1e200", "d_xpy=0"),
            ("classify", "omega=1e200", "t_max=1e200", "m=1e-200", "n_c=2", "n_t=3"),
            # states whose evolution or PT spectrum overflows
            ("evolve", "omega=1e200", "m=1e-200", "t=1e200"),
            ("evolve", "m=1e100", "t=1",
             "sigma_xx=1e200", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1"),
            ("metrics", "sigma_xx=1e160", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1"),
        ):
            sets = [arg for entry in entries for arg in ("--set", entry)]
            code, out, err = run_cli(capsys, command, *sets)
            assert code == 4
            assert out == ""
            assert "Traceback" not in err
            # the first state has sigma_yy = sigma_pypy = 0, so the lenient
            # warning is correct there; the others are physical
            assert ("unphysical" in err) is (entries[0] == "sigma_xx=1e200")
            assert err.splitlines()[-1].startswith("error: numerical failure:")

    def test_evaluates_at_time(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", "--set", "initial=fig1", "--set", "t=30")
        assert code == 0
        values = dict(parse_csv(out)[1])
        env = ge.presets.benchmark_environment()
        state = ge.evolve(ge.presets.initial_state("fig1"), env, 30.0)
        assert float(values["simon_s"]) == pytest.approx(simon_function(state), abs=0)


class TestEvolveCommand:
    def test_zero_time_returns_initial(self, capsys):
        code, out, _ = run_cli(capsys, "evolve", "--set", "initial=fig1")
        assert code == 0
        values = {name: float(v) for name, v in parse_csv(out)[1]}
        expected = independent_entries(ge.presets.initial_state("fig1"))
        assert values == pytest.approx(expected)

    def test_explicit_entries(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evolve",
            "--set", "sigma_xx=0.75", "--set", "sigma_pxpx=0.3333333333333333",
            "--set", "sigma_yy=0.75", "--set", "sigma_pypy=0.3333333333333333",
            "--set", "t=5",
        )
        assert code == 0
        values = {name: float(v) for name, v in parse_csv(out)[1]}
        env = ge.presets.benchmark_environment()
        expected = ge.evolve(ge.presets.initial_state("fig1"), env, 5.0)
        assert values == pytest.approx(independent_entries(expected), abs=1e-15)


class TestSweepCommand:
    def test_row_count_and_header(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--set", "initial=fig1", "--set", "n_t=40", "--set", "n_c=3",
            "--out", str(out_file),
        )
        assert code == 0
        assert f"wrote {out_file}" in out
        header, rows = parse_csv(out_file.read_text())
        assert header == ["t", "c", "S", "L", "defined"]
        assert len(rows) == 40 * 3
        # t-major ordering: the first n_c rows share t = 0
        assert all(row[0] == rows[0][0] for row in rows[:3])
        assert {row[4] for row in rows} <= {"0", "1"}

    def test_undefined_markers_in_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--set", "initial=fig3", "--set", "n_t=30", "--set", "n_c=1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][3] == "nan" and rows[0][4] == "0"
        assert rows[-1][4] == "1"


class TestClassifyCommand:
    def test_schema_and_labels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--set", "initial=fig1", "--set", "n_c=3", "--set", "c_max=1.5",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["c", "label", "event_times"]
        assert len(rows) == 3
        assert rows[0][1] in _LABELS[False] + _LABELS[True]
        assert rows[0][2]  # benchmark generates entanglement: events present
        for event in rows[0][2].split(";"):
            float(event)

    def test_json_rows_match_the_classifications(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--set", "initial=fig3", "--set", "n_c=3", "--set", "c_max=2.0", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        initial, env = ge.presets.initial_state("fig3"), reference_bath
        expected = [(c, ge.classify_phase(initial, env(c), 50.0, 500)) for c in (1.0, 1.5, 2.0)]
        assert rows == [
            {
                "c": c,
                "label": phase.label,
                "event_times": list(phase.event_times),
                "s_infinity_sign": phase.s_infinity_sign,
            }
            for c, phase in expected
        ]
        assert {row["s_infinity_sign"] for row in rows} == {-1, 1}

    def test_short_grid_warns(self, capsys):
        resolution = (
            "warning: classification grid is below the recommended resolution "
            "(t_max >= {} and n_t >= 100); the result may miss crossings\n"
        )
        for sets, floor in (
            (["--set", "t_max=10", "--set", "n_t=200"], "50"),
            (["--set", "n_t=99"], "50"),
            (["--set", "lambda=0.3", "--set", "t_max=16", "--set", "d_xpy=0"], "16.7"),
        ):
            code, out, err = run_cli(capsys, "classify", "--set", "initial=fig1", *sets)
            assert code == 0 and out.startswith("c,label,event_times\n")
            assert err.startswith(resolution.format(floor)), err
        # the defaults cover 5 dissipation times with 500 samples: nothing to say
        assert run_cli(capsys, "classify", "--set", "initial=fig1")[2] == ""

    def test_horizon_count_matches_the_resampled_last_sign(self, capsys):
        # 100 seeded runs of 20 columns: presets and random physical states on
        # random thermal baths, horizons 0.5-100 and grids of 3-300 samples
        rng = np.random.default_rng(20261019)
        horizon = re.compile(
            r"^warning: final sampled Simon sign disagrees with the asymptotic sign in "
            r"(\d+) of 20 columns; the sampling horizon is probably too short$", re.M
        )
        counts, coarse = [], 0
        while len(counts) < 100:
            lam, c_min = rng.uniform(0.02, 0.5), rng.uniform(1.0, 1.6)
            keys = {
                "lambda": lam, "omega": rng.uniform(0.3, 3.0), "m": rng.choice([1.0, 1.7]).item(),
                "d_xpy": rng.uniform(-0.6, 0.6) * lam, "c_min": c_min,
                "c_max": c_min + rng.uniform(0.0, 1.0), "n_c": 20,
                "t_max": math.exp(rng.uniform(math.log(0.5), math.log(100.0))),
                "n_t": 3 if len(counts) % 10 == 0 else int(rng.integers(3, 301)),
            }
            if len(counts) % 2:
                state = random_physical_cm(rng, 1.2)
                keys.update(zip(ENTRY_NAMES, state[np.triu_indices(4)].tolist()))
            else:
                keys["initial"] = PRESET_NAMES[len(counts) // 2 % len(PRESET_NAMES)]
            cfg = build_config("classify", {k: v if isinstance(v, str) else repr(v)
                                            for k, v in keys.items()})
            if not all(check.passed for check in validate_diffusion(cfg.environment())):
                continue
            spec = ge.SweepSpec(cfg.environment(), cfg.initial_state(), cfg["t_max"],
                                cfg["n_t"], cfg["c_min"], cfg["c_max"], cfg["n_c"])
            expected = sum(
                last_sample_disagrees_oracle(spec.initial, spec.environment_at(c), spec.t_max,
                                             spec.n_t)
                for c in spec.thermal_cs().tolist()
            )
            argv = [arg for item in cfg.to_flat().items() for arg in ("--set", "=".join(item))]
            code, out, err = run_cli(capsys, "classify", *argv)
            assert code == 0 and out.startswith("c,label,event_times\n"), err
            lines = horizon.findall(err)
            assert lines == ([str(expected)] if expected else []), (keys, err)
            counts.append(expected)
            short = cfg["t_max"] * cfg["lambda"] < 5.0
            assert ("below the recommended resolution" in err) == (short or cfg["n_t"] < 100)
            coarse += short and cfg["n_t"] == 3
        # coarse grids, and runs where none, some and all columns disagree
        assert coarse > 0 and {0, 20} <= set(counts) and any(0 < k < 20 for k in counts)


class TestPhaseDiagramCommand:
    def test_schema_and_statuses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phase-diagram",
            "--set", "n_d=3", "--set", "n_c=4",
            "--set", "d_xpy_min=0", "--set", "d_xpy_max=0.06",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["d_xpy", "c", "status"]
        assert len(rows) == 12
        statuses = {row[2] for row in rows}
        assert statuses <= {"entangled", "separable", "unphysical"}
        assert "unphysical" in statuses  # d_xpy = 0.06 needs c >= 1.2

    def test_negative_cross_coefficient_is_bounded_by_magnitude(self, capsys):
        # lam/2 * c <= 0.075 < |d_xpy| on the whole c grid, as for metrics
        code, out, _ = run_cli(
            capsys,
            "phase-diagram",
            "--set", "d_xpy_min=-0.2", "--set", "d_xpy_max=-0.2",
            "--set", "n_d=1", "--set", "n_c=2",
        )
        assert code == 0
        assert [row[2] for row in parse_csv(out)[1]] == ["unphysical", "unphysical"]
        assert run_cli(capsys, "metrics", "--set", "d_xpy=-0.2")[0] == 3

    def test_position_cross_is_read(self, capsys):
        # (lambda/2) c <= 0.075 < d_xy = 0.3 on the whole grid: steady exits 3 there
        code, out, _ = run_cli(capsys, "phase-diagram", "--set", "d_xy=0.3")
        assert code == 0
        assert {row[2] for row in parse_csv(out)[1]} == {"unphysical"}
        assert run_cli(capsys, "steady", "--set", "d_xy=0.3")[0] == 3
        # d_xy = 0.02 alone makes the asymptote entangled below C*+ = 1 + 2 m omega d_xy / lambda
        code, out, _ = run_cli(
            capsys, "phase-diagram", "--set", "d_xy=0.02", "--set", "d_xpy_max=0.04"
        )
        assert code == 0
        row = [(float(c), status) for d, c, status in parse_csv(out)[1] if float(d) == 0.0]
        assert len(row) == 20
        assert all(status == ("entangled" if c < 1.4 else "separable") for c, status in row)

    def test_overflowing_threshold_warns_nothing(self, capsys):
        # C* = 1 + 2|d_xpy| / hypot(lambda, omega) overflows at d_xpy = 1e200,
        # whose cells are all unphysical
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "phase-diagram",
                "--set", "lambda=1e-200", "--set", "omega=1e-200",
                "--set", "d_xpy_max=1e200", "--set", "c_max=1e300",
                "--set", "n_d=2", "--set", "n_c=2",
            )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == [
            "0,1,separable",
            "0,1.0000000000000001e+300,separable",
            "9.9999999999999997e+199,1,unphysical",
            "9.9999999999999997e+199,1.0000000000000001e+300,unphysical",
        ]

    @pytest.mark.parametrize(
        "command, key, sizes",
        [("phase-diagram", "c_max", ["n_c=4"]), ("sweep", "t_max", ["n_t=4", "n_c=1"])],
    )
    def test_float_max_grid_ends_warn_nothing(self, capsys, command, key, sizes):
        # np.linspace overflows an inner product of these ranges; the grids are finite
        pairs = [f"{key}={sys.float_info.max!r}", *sizes]
        code, out, err = run_cli(capsys, command, *(arg for p in pairs for arg in ("--set", p)))
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split(",")[:2] in (
            ["0.059999999999999998", "1.7976931348623157e+308"],
            ["1.7976931348623157e+308", "1"],
        )


class TestConfigHandling:
    def test_unknown_key(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--set", "lambda_typo=1")
        assert code == 2
        assert "unknown configuration key" in err

    def test_set_without_value(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--set", "lambda")
        assert code == 2
        assert "KEY=VALUE" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "steady", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert "cannot read config file" in err

    def test_config_file_not_utf8(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"lambda=0.1\n# temp\xe9rature\n")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "cannot read config file" in err and "utf-8" in err

    def test_config_file_with_a_byte_order_mark(self, capsys, tmp_path):
        # a UTF-8 file may start with U+FEFF, which is no part of the first key
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("c=1.2\ninitial=fig2\n", encoding="utf-8")
        marked.write_text("c=1.2\ninitial=fig2\n", encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert parse_flat_file(str(marked)) == {"c": "1.2", "initial": "fig2"}
        expected = run_cli(capsys, "metrics", "--config", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, "metrics", "--config", str(marked)) == expected

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_path(self, capsys, tmp_path, target):
        out = tmp_path / target  # a missing directory, or a directory itself
        code, stdout, err = run_cli(capsys, "steady", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write output file {str(out)!r}")

    def test_bad_number(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--set", "lambda=fast")
        assert code == 2
        assert "not a number" in err

    def test_c_and_temperature_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "steady", "--set", "c=1.2", "--set", "temperature=3"
        )
        assert code == 2
        assert "not both" in err

    def test_preset_conflicts_with_entries(self, capsys):
        code, _, err = run_cli(
            capsys, "evolve", "--set", "initial=fig1", "--set", "sigma_xx=1"
        )
        assert code == 2
        assert "conflict" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "metrics", "--set", "initial=fig9")
        names = "vacuum, fig1, fig2, fig3, fig4"
        message = f"unknown initial-state preset 'fig9'; valid names: {names}"
        assert (code, err) == (2, f"error: {message}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ge.presets.initial_state("fig9")

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="^format must be csv or json, got 'xml'$"):
            build_config("steady", {}, fmt="xml")

    def test_run_config_checks_its_command_and_format(self):
        values = build_config("classify", {"n_c": "1", "n_t": "100"}).values
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            run(RunConfig("bogus", values))
        with pytest.raises(ConfigError, match="^format must be csv or json, got 'xml'$"):
            run(RunConfig("classify", values, fmt="xml"))
        cfg = RunConfig("classify", values)
        with pytest.raises(ConfigError, match="^unknown command 'bogus'$"):
            cfg._replace(command="bogus")
        with pytest.raises(ConfigError, match="^format must be csv or json, got 'xml'$"):
            RunConfig._make(["classify", values, False, None, "xml"])
        assert type(cfg._replace(fmt="json")) is RunConfig
        assert cfg._replace(fmt="json") == ("classify", values, False, None, "json")

    def test_unknown_command_is_rejected_before_numpy_loads(self):
        # -S: no .pth file loads numpy; RunConfig rejects the command, and
        # nothing that resolves the values before it loads numpy
        script = (
            "import sys\n"
            "from gaussent.cli import ConfigError, build_config\n"
            "try:\n"
            "    build_config('bogus', {})\n"
            "except ConfigError as exc:\n"
            "    print(exc, 'numpy' in sys.modules)\n"
        )
        proc = _python("-S", "-c", script)
        assert proc.stdout == "unknown command 'bogus' False\n", proc.stderr

    def test_domain_errors(self, capsys):
        assert run_cli(capsys, "steady", "--set", "lambda=0")[0] == 2
        assert run_cli(capsys, "steady", "--set", "c=0.5")[0] == 2
        assert run_cli(capsys, "sweep", "--set", "n_t=1")[0] == 2

    def test_grid_cap(self, capsys):
        for command, key in (("sweep", "n_t"), ("classify", "n_t"), ("phase-diagram", "n_d")):
            code, out, err = run_cli(capsys, command, "--set", f"{key}=100000000")
            assert code == 2
            assert out == ""
            assert err.splitlines() == [err.strip()]
            assert err.startswith(f"error: {key}*n_c = ") and "grid cells exceed the cap" in err
        # a command is capped only on the grid it builds
        for command, key in (("steady", "n_t"), ("steady", "n_d"), ("phase-diagram", "n_t")):
            argv = (command, "--set", f"{key}=100000000", "--dump-config")
            assert run_cli(capsys, *argv)[0] == 0
        argv = ("metrics", "--set", "n_t=100000000", "--set", "n_d=100000000")
        assert run_cli(capsys, *argv)[0] == 0
        # the cap itself is allowed; --dump-config stops before any grid is built
        code, _, _ = run_cli(
            capsys, "sweep", "--set", "n_t=50000", "--set", "n_c=20", "--dump-config"
        )
        assert code == 0

    def test_temperature_key_matches_thermal_c(self, capsys):
        c = 1.4
        temperature = temperature_from_thermal_c(c)
        code_a, out_a, _ = run_cli(capsys, "steady", "--set", f"c={c}")
        code_b, out_b, _ = run_cli(capsys, "steady", "--set", f"temperature={temperature}")
        assert code_a == code_b == 0
        for (_, left), (_, right) in zip(
            parse_csv(out_a)[1], parse_csv(out_b)[1]
        ):
            assert float(left) == pytest.approx(float(right), rel=1e-9)

    def test_malformed_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# bath\nc=1.2\nlambda 0.2\n")
        code, out, err = run_cli(capsys, "steady", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"{cfg}:3: expected key=value, got 'lambda 0.2'" in err

    def test_config_file_with_comments(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# benchmark point\nc=1.2  # thermal parameter\ninitial=fig1\n")
        code, out, _ = run_cli(capsys, "metrics", "--config", str(cfg))
        assert code == 0
        assert "simon_s" in out

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c=1.2\n")
        code, out, _ = run_cli(
            capsys, "steady", "--config", str(cfg), "--set", "c=1.0"
        )
        assert code == 0
        values = {name: float(v) for name, v in parse_csv(out)[1]}
        assert values["sigma_xx"] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize(
        "file_text, sets",
        [
            ("temperature=0.5\n", ["c=1.2"]),
            ("c=1.2\n", ["temperature=0.5"]),
            ("initial=fig2\n", ["sigma_xx=1", "sigma_pxpx=1", "sigma_yy=1", "sigma_pypy=1"]),
            ("sigma_xx=1\nsigma_pxpx=1\nsigma_yy=1\nsigma_pypy=1\n", ["initial=fig2"]),
        ],
    )
    def test_override_drops_the_files_other_spelling(self, capsys, tmp_path, file_text, sets):
        # c and temperature, and initial and sigma_*, spell one setting two ways
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t=3.5\n" + file_text)
        argv = [arg for pair in ["t=3.5", *sets] for arg in ("--set", pair)]
        expected = run_cli(capsys, "metrics", *argv)
        assert expected[0] == 0
        flags = [arg for pair in sets for arg in ("--set", pair)]
        assert run_cli(capsys, "metrics", "--config", str(cfg), *flags) == expected

    @pytest.mark.parametrize(
        "file_text, sets, message",
        [
            ("c=1.2\ntemperature=0.5\n", [], "not both"),
            ("c=1.1\n", ["c=1.2", "temperature=0.5"], "not both"),
            ("initial=fig1\nsigma_xx=1\n", [], "conflict"),
            ("sigma_xx=1\n", ["initial=fig1", "sigma_yy=1"], "conflict"),
        ],
    )
    def test_both_spellings_in_one_source_conflict(
        self, capsys, tmp_path, file_text, sets, message
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(file_text)
        flags = [arg for pair in sets for arg in ("--set", pair)]
        code, out, err = run_cli(capsys, "metrics", "--config", str(cfg), *flags)
        assert (code, out) == (2, "")
        assert message in err

    def test_diffusion_gate(self, capsys):
        code, _, err = run_cli(capsys, "steady", "--set", "d_xpy=0.06")
        assert code == 3
        assert "positivity" in err

    @pytest.mark.parametrize(
        "bath, expected",
        [
            # zero temperature: C = 1 lies on the xx_pxpx bound, margin -1.8e-12
            (
                {
                    "lambda": "254.33690594811654",
                    "m": "22.92299472423106",
                    "omega": "0.021130766041079933",
                },
                0,
            ),
            # |d_xpy| is twice lam*C/2, but the margin is only -7.5e-13
            ({"lambda": "1e-6", "d_xpy": "1e-6"}, 3),
        ],
    )
    def test_diffusion_gate_scales_with_the_bath(self, capsys, bath, expected):
        sets = [arg for key, value in bath.items() for arg in ("--set", f"{key}={value}")]
        code, _, err = run_cli(capsys, "steady", *sets)
        assert code == expected
        assert ("xx_pypy (margin -7.500e-13), yy_pxpx" in err) == (expected == 3)

    @pytest.mark.parametrize("command", ["sweep", "classify"])
    @pytest.mark.parametrize(
        "sets, expected",
        [
            # lam = 0.1, d_xpy = 0.08: the cross bound needs C >= 1.6, and the
            # columns span [c_min, c_max] whatever c is
            (["c=2", "d_xpy=0.08"], 3),
            (["d_xpy=0.08", "c_min=2", "c_max=3"], 0),
        ],
    )
    def test_grid_commands_check_the_bath_they_sweep(self, capsys, command, sets, expected):
        code, _, err = run_cli(capsys, command, *[arg for item in sets for arg in ("--set", item)])
        assert code == expected
        assert ("xx_pypy" in err) == (expected == 3)

    @pytest.mark.parametrize("command", ["sweep", "classify"])
    @pytest.mark.parametrize("c_min", [1.2, 1.59999999, 1.5999999999999, 1.6, 1.6000000000001, 1.7])
    def test_grid_commands_fail_exactly_when_a_column_does(self, capsys, command, c_min):
        # c = 1 fails the bound at d_xpy = 0.08 but is no column of the grid
        columns = np.linspace(c_min, 2.0, 3).tolist()
        baths = [ge.thermal_environment(0.1, c, 0.0, 0.08) for c in columns]
        failing = any(not check.passed for env in baths for check in validate_diffusion(env))
        sets = [f"c_min={c_min!r}", "c_max=2", "n_c=3", "d_xpy=0.08", "n_t=100"]
        code, _, _ = run_cli(capsys, command, *[arg for item in sets for arg in ("--set", item)])
        assert code == (3 if failing else 0)

    def test_wide_scale_bath_solves(self, capsys):
        # passes every diffusion bound; its steady entries reach 1.2e4
        bath = {
            "lambda": 0.00155802009969208, "c": 353.4674449606105, "d_xy": 0.0014877321118279,
            "d_xpy": 0.09562513753226638, "m": 0.16360936656934003, "omega": 424.2797507214071,
        }
        args = [arg for key, value in bath.items() for arg in ("--set", f"{key}={value!r}")]
        code, out, err = run_cli(capsys, "steady", *args)
        assert (code, err) == (0, "")
        values = {name: float(v) for name, v in parse_csv(out)[1]}
        assert values["sigma_pxpx"] == pytest.approx(12268.173045757179, rel=1e-12)


class TestDeterminism:
    def test_dump_config_roundtrip(self, capsys, tmp_path):
        args = ["metrics", "--set", "c=1.2", "--set", "initial=fig3", "--set", "t=2.5"]
        code, dumped, _ = run_cli(capsys, *args, "--dump-config")
        assert code == 0
        cfg = tmp_path / "dumped.cfg"
        cfg.write_text(dumped)
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, "metrics", "--config", str(cfg))
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_dump_config_roundtrip_explicit_entries(self, capsys, tmp_path):
        args = [
            "metrics",
            "--set", "sigma_xx=0.8", "--set", "sigma_pxpx=0.4",
            "--set", "sigma_yy=0.8", "--set", "sigma_pypy=0.4",
            "--set", "t=3.0",
        ]
        code, dumped, _ = run_cli(capsys, *args, "--dump-config")
        assert code == 0
        assert "sigma_xx=0.8" in dumped
        assert "initial=" not in dumped
        cfg = tmp_path / "dumped.cfg"
        cfg.write_text(dumped)
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, "metrics", "--config", str(cfg))
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize(
        "args",
        [
            ("steady", "--set", "c=1"),
            ("metrics", "--set", "initial=fig3", "--format", "json"),
            ("sweep", "--set", "initial=fig1", "--set", "n_t=25", "--set", "n_c=2"),
            ("classify", "--set", "initial=fig1", "--set", "n_c=2"),
            ("phase-diagram", "--set", "n_d=2", "--set", "n_c=3"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, tmp_path, args):
        first = tmp_path / "first.out"
        second = tmp_path / "second.out"
        assert run_cli(capsys, *args, "--out", str(first))[0] == 0
        assert run_cli(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()


#: A lenient unphysical state whose partially transposed pair is complex:
#: metrics writes its nu_tilde_minus_sq as NaN.
_NAN_NU_STATE = {
    "sigma_xx": "0.21050832388921256",
    "sigma_pxpx": "0.7194126159259291",
    "sigma_yy": "1.4112040009843405",
    "sigma_pypy": "1.3256221275528934",
    "sigma_xy": "1.2478167113324456",
    "sigma_pxpy": "1.5660341743582724",
    "sigma_xpy": "-0.7385345213846071",
}


def _bench_like_grid(seed: int) -> dict[str, str]:
    """A seeded 200 x 200 phase-diagram grid like the benchmark's, where every
    status occurs: d_xpy up to the diffusion bound at c_max = 2."""
    rng = random.Random(seed)
    lam, omega = rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0)
    return {"lambda": repr(lam), "omega": repr(omega), "d_xpy_max": repr(lam),
            "c_max": "2.0", "n_d": "200", "n_c": "200"}


_ALL_STATUSES = {"entangled", "separable", "unphysical"}


def _json_text_oracle(cfg, axes: dict, rows: list) -> str:
    """A grid's JSON output as json.dumps(..., indent=2) writes it."""
    result = {"command": cfg.command, "config": cfg.to_flat(), "result": {**axes, "rows": rows}}
    return json.dumps(result, indent=2) + "\n"


#: Config value texts for point queries, each of which resolves to a physical
#: bath and a finite result: their ``str`` differs from the text or takes an
#: exponent, a negative zero or a subnormal.  d_xy and d_xpy are always given
#: and about zero, so every lambda and c pass the diffusion bounds.
_ZERO_TEXTS = ("-0.0", "0", "0.0", "1e-200", "-1E-200", "5e-324", "-5e-324")
_DIFFUSION_TEXTS = {"d_xy": _ZERO_TEXTS, "d_xpy": _ZERO_TEXTS}
_CONFIG_TEXTS = {
    "lambda": ("0.1", "1e-05", "1.0000000000000002", "2.5E0"),
    "m": ("1", "0.5", "1.0000000000000002", "1e+2"),
    "omega": ("1", "2.", "1.0000000000000002", ".5"),
    "t": ("-0.0", "0", "5e-324", "1e-05", "7.25", "1e+2"),
    "t_max": ("1e+16", "5e-324", "50"),
    "n_t": ("2", "+7", "1_000", "0020"),
    "n_c": ("1", "20", "1_0"),
    "n_d": ("1", "13", "+3"),
    "c_min": ("1", "1.0000000000000002"),
    "c_max": ("1.5", "1e+16"),
    "d_xpy_min": ("-0.0", "-1e+16", "-5e-324"),
    "d_xpy_max": ("0", "5e-324", "1e+16"),
}
_C_TEXTS = ("1", "1.0000000000000002", "1.5", "1e+16")
_TEMPERATURE_TEXTS = ("0", "-0.0", "5e-324", "0.5", "1e+16")
_SIGMA_TEXTS = ("0.5", "1", "-0.25", "-0.0", "5e-324", "1e-300", "1.0000000000000002", "1e+16")


class TestWriters:
    """The grid writers against the cell-by-cell oracles, byte for byte."""

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_sweep_csv_matches_cell_oracle(self, preset):
        cfg = build_config("sweep", {"initial": preset})
        spec = ge.SweepSpec(cfg.environment(), cfg.initial_state())
        result = ge.sweep(spec)
        # fig3 and fig4 start entangled: their early cells have no degree
        assert (~result.defined).sum() == {"fig3": 173, "fig4": 20}.get(preset, 0)
        assert sweep_csv(result) == sweep_csv_oracle(result)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_sweep_json_matches_cell_oracle(self, preset):
        cfg = build_config("sweep", {"initial": preset}, fmt="json")
        result = ge.sweep(ge.SweepSpec(cfg.environment(), cfg.initial_state()))
        written = json.loads(run(cfg))["result"]
        rows = sweep_rows_oracle(result)
        assert written["rows"] == [[*row[:4], int(row[4])] for row in rows]
        assert {type(row[4]) for row in written["rows"]} == {int}  # 0/1, not false/true
        assert written["t"] == result.times.tolist()
        assert written["c"] == result.thermal_cs.tolist()
        # undefined degrees are null, never dropped
        undefined = sum(row[3] is None for row in written["rows"])
        assert undefined == {"fig3": 173, "fig4": 20}.get(preset, 0)

    def test_phase_diagram_matches_cell_oracle(self):
        cfg = build_config("phase-diagram", {})
        diagram = ge.asymptotic_phase_diagram(
            cfg["lambda"],
            cfg["omega"],
            np.linspace(cfg["d_xpy_min"], cfg["d_xpy_max"], cfg["n_d"]),
            np.linspace(cfg["c_min"], cfg["c_max"], cfg["n_c"]),
            m=cfg["m"],
        )
        rows = phase_diagram_rows_oracle(diagram)
        assert {row[2] for row in rows} == {"entangled", "separable", "unphysical"}
        assert run(cfg) == phase_diagram_csv_oracle(diagram)
        json_cfg = build_config("phase-diagram", {}, fmt="json")
        result = json.loads(run(json_cfg))["result"]
        assert result["rows"] == rows
        assert result["d_xpy"] == diagram.d_xpy_values.tolist()
        assert result["c"] == diagram.thermal_cs.tolist()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "keys,statuses",
        [
            (_bench_like_grid(11), _ALL_STATUSES),
            ({"n_d": "1", "n_c": "1"}, {"separable"}),
            ({"d_xpy_min": "-0.06", "d_xpy_max": "-0.01", "n_c": "7"}, _ALL_STATUSES),
            ({"d_xpy_min": "-0.06", "n_d": "9", "c_max": "1.3", "n_c": "7"}, _ALL_STATUSES),
        ],
    )
    def test_phase_diagram_grids_match_cell_oracle(self, keys, statuses, fmt):
        cfg = build_config("phase-diagram", keys, fmt=fmt)
        diagram = ge.asymptotic_phase_diagram(
            cfg["lambda"],
            cfg["omega"],
            np.linspace(cfg["d_xpy_min"], cfg["d_xpy_max"], cfg["n_d"]),
            np.linspace(cfg["c_min"], cfg["c_max"], cfg["n_c"]),
            m=cfg["m"],
        )
        rows = phase_diagram_rows_oracle(diagram)
        assert len(rows) == cfg["n_d"] * cfg["n_c"]
        assert {row[2] for row in rows} == statuses
        if fmt == "csv":
            expected = phase_diagram_csv_oracle(diagram)
        else:
            axes = {"d_xpy": diagram.d_xpy_values.tolist(), "c": diagram.thermal_cs.tolist()}
            expected = _json_text_oracle(cfg, axes, rows)
        assert run(cfg) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("keys", [{"n_t": "2"}, {"n_c": "1"}])
    def test_sweep_grids_with_undefined_cells_match_cell_oracle(self, keys, fmt):
        cfg = build_config("sweep", {"initial": "fig3", **keys}, fmt=fmt)
        spec = ge.SweepSpec(cfg.environment(), cfg.initial_state(), n_t=cfg["n_t"],
                            n_c=cfg["n_c"])
        result = ge.sweep(spec)
        assert result.simon.shape == (cfg["n_t"], cfg["n_c"])
        assert (~result.defined).any() and result.defined.any()
        if fmt == "csv":
            expected = sweep_csv_oracle(result)
        else:
            rows = [[*row[:4], int(row[4])] for row in sweep_rows_oracle(result)]
            axes = {"t": result.times.tolist(), "c": result.thermal_cs.tolist()}
            expected = _json_text_oracle(cfg, axes, rows)
        assert run(cfg) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writers_refuse_values_that_are_not_finite(self, fmt):
        # json writes NaN and Infinity, the templates would write nan and inf
        cfg = build_config("sweep", {"initial": "fig3", "n_t": "100", "n_c": "2"}, fmt=fmt)
        result = ge.sweep(ge.SweepSpec(cfg.environment(), cfg.initial_state(), n_t=100, n_c=2))
        # an undefined L is NaN by design, and is written as nan or null
        assert (~result.defined).any()
        assert _sweep_text(result, cfg) == run(cfg)
        simon, log_neg = result.simon.copy(), result.log_neg.copy()
        simon[1, 1] = math.nan
        log_neg[tuple(np.argwhere(result.defined)[0])] = math.inf
        for bad in (
            result._replace(simon=simon),
            result._replace(log_neg=log_neg),
        ):
            with pytest.raises(OverflowError, match="not finite"):
                _sweep_text(bad, cfg)

    @pytest.mark.parametrize(
        "command,keys",
        [
            ("sweep", {"initial": "fig3", "n_t": "40", "n_c": "3"}),
            ("phase-diagram", {"n_d": "4", "n_c": "5", "d_xpy_min": "-0.01"}),
            ("steady", {}),
            ("evolve", {"initial": "fig3"}),
            ("metrics", {"initial": "fig3"}),  # t = 0: L undefined, null
            ("metrics", _NAN_NU_STATE),  # nu_tilde_minus_sq NaN
            ("classify", {"initial": "fig1", "n_c": "3"}),  # with events
            ("classify", {"c_min": "2", "c_max": "3", "n_c": "3"}),  # "event_times": []
            ("metrics", {"temperature": "0.5", "initial": "fig2", "t": "3"}),
            ("evolve", {**_NAN_NU_STATE, "t": "2"}),  # explicit sigma_* entries
        ],
    )
    def test_grid_json_is_what_json_dumps_writes(self, command, keys):
        cfg = build_config(command, keys, fmt="json")
        written = run(cfg)
        payload = json.loads(written)
        assert json.dumps(payload, indent=2) + "\n" == written

    @given(
        value=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(10**40), max_value=10**40),
                st.floats(allow_subnormal=True),
                st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
                st.text(),
                st.sampled_from(['"', "\\", "\n\t\x00\x1f", "\u00e9\u03bd\U0001f600"]),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=4), children, max_size=4),
            ),
            max_leaves=20,
        )
    )
    @example(value={})
    @example(value=[])
    # keys that are % conversions: the object templates must escape them
    @example(value={"%s": [{"%%": {"a%(b)s": "%s"}}, {}], "a%(b)s": [[], {"%s": None}], "%%": 1.5})
    @example(value=[{"%%": "%(b)s", "%s": [{"a%(b)s": [{"%s": "%%"}]}]}])
    @settings(max_examples=500, deadline=None)
    def test_json_writer_is_json_dumps(self, value):
        assert _json(value, "\n") == json.dumps(value, indent=2)

    def test_json_writer_rejects_what_json_dumps_rejects(self):
        value = object()
        with pytest.raises(TypeError) as rejected:
            json.dumps(value)
        with pytest.raises(TypeError, match=f"^{re.escape(str(rejected.value))}$"):
            _json(value)

    @given(
        command=st.sampled_from(["steady", "evolve", "metrics"]),
        keys=st.fixed_dictionaries(
            {key: st.sampled_from(texts) for key, texts in _DIFFUSION_TEXTS.items()},
            optional={key: st.sampled_from(texts) for key, texts in _CONFIG_TEXTS.items()},
        ),
        thermal=st.one_of(
            st.just({}),
            st.sampled_from(_C_TEXTS).map(lambda text: {"c": text}),
            st.sampled_from(_TEMPERATURE_TEXTS).map(lambda text: {"temperature": text}),
        ),
        initial=st.one_of(
            st.just({}),
            st.sampled_from(PRESET_NAMES).map(lambda name: {"initial": name}),
            st.dictionaries(st.sampled_from(ENTRY_NAMES), st.sampled_from(_SIGMA_TEXTS),
                            min_size=1),
        ),
    )
    @example(  # the config values print as exponent, negative-zero and subnormal text
        command="metrics",
        keys={"t": "1e-05", "d_xy": "-0.0", "d_xpy": "1e-200", "t_max": "5e-324", "n_t": "1_000"},
        thermal={"c": "1.0000000000000002"},
        initial={"initial": "fig1"},
    )
    @settings(max_examples=200, deadline=None)
    def test_point_json_config_is_json_dumps_of_to_flat(self, command, keys, thermal, initial):
        cfg = build_config(command, {**keys, **thermal, **initial}, fmt="json")
        written = run(cfg)
        payload = {"command": command, "config": cfg.to_flat(),
                   "result": json.loads(written)["result"]}
        assert written == json.dumps(payload, indent=2) + "\n"


def _python(*args, timeout=None):
    """The finished process of ``python *args`` in a new interpreter that imports this gaussent;
    ``subprocess.TimeoutExpired`` once it runs past ``timeout`` seconds."""
    src = os.path.dirname(os.path.dirname(ge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
        timeout=timeout,
    )


def _fresh_process(argv, out_file):
    """Exit code, stdout, stderr and --out file text of argv run in a new interpreter."""
    proc = _python("-m", "gaussent.cli", *argv)
    return proc.returncode, proc.stdout, proc.stderr, _take(out_file)


def _take(path):
    if not path.exists():
        return None
    text = path.read_text()
    path.unlink()
    return text


#: Point queries on physical states: fig1 is pure, on the physicality boundary.
_POINT_ARGVS = [
    [*argv, "--format", fmt]
    for argv in (
        ["steady"],
        ["evolve", "--set", "initial=fig1", "--set", "t=7.25"],
        ["metrics", "--set", "initial=fig1", "--set", "t=7.25"],
        ["metrics", "--set", "initial=fig2", "--set", "c=1.2", "--set", "t=3"],
    )
    for fmt in ("csv", "json")
]


class TestPointQueriesWithoutNumpy:
    def test_point_commands_do_not_import_numpy(self, capsys):
        # the lenient warning quotes the smallest eigenvalue, which numpy
        # computes: that run comes after the check.  argparse loads only for
        # argvs that the direct parser declines.
        lenient = ["metrics", "--set", "initial=fig3"]
        script = (
            "import json, sys\n"
            "from gaussent.cli import main\n"
            f"codes = [main(argv) for argv in {_POINT_ARGVS!r}]\n"
            "loaded = sorted(name for name in sys.modules if name.split('.')[0]\n"
            "                in ('numpy', 'argparse', 'dataclasses', 'inspect'))\n"
            f"codes.append(main({lenient!r}))\n"
            "print(json.dumps([codes, loaded]))\n"
        )
        proc = _python("-c", script)
        assert proc.returncode == 0, proc.stderr
        *outputs, last = proc.stdout.splitlines(keepends=True)
        codes, loaded = json.loads(last)
        assert loaded == []
        assert codes == [0] * (len(_POINT_ARGVS) + 1)
        expected = [run_cli(capsys, *argv) for argv in [*_POINT_ARGVS, lenient]]
        assert "".join(outputs) == "".join(out for _, out, _ in expected)
        assert proc.stderr == "".join(err for _, _, err in expected)
        assert "warning: unphysical initial state" in proc.stderr

    def test_point_commands_load_no_heavy_module_without_site(self):
        # -S: no .pth file of site-packages loads typing, re or enum first.
        # CSV output needs no json, nor the re and enum that json imports.
        csv = [argv for argv in _POINT_ARGVS if argv[-1] == "csv"]
        script = (
            "import sys\n"
            "from gaussent.cli import main\n"
            "def loaded(*names):\n"
            "    return sorted(name for name in sys.modules if name.split('.')[0] in names)\n"
            f"codes = [main(argv) for argv in {csv!r}]\n"
            "after_csv = loaded('json', 're', 'enum')\n"
            f"codes += [main(argv) for argv in {_POINT_ARGVS!r}]\n"
            "print(codes, after_csv, loaded('numpy', 'argparse', 'dataclasses', 'inspect', 'typing'))\n"
        )
        proc = _python("-S", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * (len(csv) + len(_POINT_ARGVS))} [] []"

    def test_grid_commands_do_not_import_dataclasses(self):
        # -S, with numpy's directory on the path: no .pth file loads anything
        site = os.path.dirname(os.path.dirname(np.__file__))
        grids = [
            ["sweep", "--set", "initial=fig1", "--set", "n_t=100", "--set", "n_c=2"],
            ["classify", "--set", "initial=fig3", "--set", "n_t=100", "--set", "n_c=2"],
            ["phase-diagram", "--set", "n_d=3", "--set", "n_c=3", "--format", "json"],
        ]
        script = (
            "import sys\n"
            f"sys.path.append({site!r})\n"
            "from gaussent.cli import main\n"
            f"codes = [main(argv) for argv in {grids!r}]\n"
            "print(codes, 'numpy' in sys.modules, 'dataclasses' in sys.modules)\n"
        )
        proc = _python("-S", "-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0] True False"

    def test_numerical_failures_exit_4_without_loading_numpy(self):
        # -S: no .pth file loads numpy.  A failed Lyapunov residual check, an
        # underflowed steady-state divisor and an overflowing phase omega*t are
        # each an ArithmeticError, which main catches without numpy.
        bath = {
            "lambda": "5.439204557411032e-151",
            "m": "7.024059605703189e-118",
            "omega": "2.758196771215249e+37",
            "d_xy": "3.0351796967227864e-200",
            "d_xpy": "0",
        }
        argv = ["steady"]
        for key, value in bath.items():
            argv += ["--set", f"{key}={value}"]
        failures = [
            argv,
            ["steady", "--set", "lambda=1e-200", "--set", "omega=1e-200", "--set", "m=1e200",
             "--set", "d_xpy=0"],
            ["evolve", "--set", "omega=1e200", "--set", "m=1e-200", "--set", "t=1e200"],
        ]
        script = (
            "import sys\n"
            "from gaussent.cli import main\n"
            f"codes = [main(argv) for argv in {failures!r}]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        proc = _python("-S", "-c", script)
        assert proc.stdout == "[4, 4, 4] False\n", proc.stderr
        assert proc.stderr == (
            "error: numerical failure: Lyapunov solve residual 1.491e-92 exceeds 1.491e-104\n"
            "error: numerical failure: 2(lambda^2 + omega^2) underflows to 0"
            " (lam=1e-200, omega=1e-200)\n"
            "error: numerical failure: oscillator phase omega*t overflows at t = 1e+200\n"
        )


#: Baths with a subnormal diffusion term, where the steady solve's relative
#: residual bound underflows: its floor, the smallest normal float, passes the
#: subnormal residuals of these correct solves.
_SUBNORMAL_ARGVS = [
    ["metrics", "--set", "initial=fig1", "--set", "t=1e-05", "--set", "d_xpy=5e-324"],
    ["steady", "--set", "d_xpy=1e-310", "--set", "lambda=1e-05"],
    ["steady", "--set", "d_xy=5e-324", "--set", "d_xpy=0", "--set", "lambda=2.5"],
]


class TestSubnormalDiffusion:
    @pytest.mark.parametrize("argv", _SUBNORMAL_ARGVS)
    def test_steady_solve_passes_its_residual_check(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        if argv[0] == "steady":
            cfg = build_config("steady", dict(pair.split("=") for pair in argv[2::2]))
            env = cfg.environment()
            dense = lyapunov_oracle(drift_matrix(env), diffusion_matrix(env))
            printed = dict(line.split(",") for line in out.splitlines()[1:])
            entries = [float(printed[name]) for name in ENTRY_NAMES]
            np.testing.assert_allclose(entries, dense[np.triu_indices(4)], rtol=0, atol=1.2e-16)


class TestLateCrossing:
    # the crossing lies near t = 6.8e7, where adjacent floats are 1.5e-8 apart,
    # more than EVENT_TIME_TOL: bisection must stop at the float spacing
    SETS = ["--set", "lambda=1e-7", "--set", "d_xpy=4.9e-8", "--set", "initial=fig1",
            "--set", "t_max=1e9", "--set", "n_t=1000", "--set", "n_c=1"]

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_grid_commands_finish(self, command):
        # a fresh process with a timeout, so a stalled bisection fails the test
        proc = _python("-m", "gaussent.cli", command, *self.SETS, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        if command == "classify":
            row = "1,generation_persistent,68287071.607478708"
            assert proc.stdout == f"c,label,event_times\n{row}\n"


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the terminal width
        out_file = tmp_path / "metrics.json"
        sequence = [
            ["metrics", "--set", "t=3", "--format", "json", "--strict", "--out", str(out_file)],
            ["metrics"],
            ["metrics", "--dump-config"],
            ["metrics", "--no-such-flag"],
            ["--help"],
            ["metrics"],
        ]
        in_process = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits on --help and usage errors
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err, _take(out_file)))
        assert [outcome[0] for outcome in in_process] == [0, 0, 0, 2, 0, 0]
        assert "t=0.0\n" in in_process[2][1]  # the first call's --set did not stick
        for argv, outcome in zip(sequence, in_process):
            assert outcome == _fresh_process(argv, out_file), argv


#: Tokens that reach every case argparse handles alone: abbreviations, --opt=value,
#: --, help, values that start with "-", an invalid --format choice, repeated
#: commands; a trailing option misses its value.
_ARGV_TOKENS = [
    *COMMANDS,
    *COMMANDS,
    *_OPTIONS,
    *("--form", "--se", "--s", "--str", "--set=k=v", "--", "-h", "--help", "-"),
    *("-5", "-x y", "", "fig1", "initial=fig1", "t=3", "csv", "json", "xml"),
]
_ARGV_PAIRS = [["--set", "t=3"], ["--format", "json"], ["--out", "fig1"], ["--config", ""]]


class TestDirectParser:
    @given(
        chunks=st.lists(
            st.one_of(st.sampled_from(_ARGV_TOKENS).map(lambda token: [token]),
                      st.sampled_from(_ARGV_PAIRS)),
            max_size=6,
        )
    )
    @example(chunks=[["metrics", "--strict", "--dump-config"], *_ARGV_PAIRS])
    @settings(max_examples=1000, deadline=None)
    def test_matches_argparse(self, chunks):
        argv = [token for chunk in chunks for token in chunk]
        direct = _parse_args(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = vars(_build_parser().parse_args(argv))
            except SystemExit:
                assert direct is None, argv
                return
        assert direct in (None, expected), argv


_GRID_KEYS = ("n_t", "n_c", "n_d")
_VALUE_KEYS = [key for key in _KEYS if key not in _GRID_KEYS] + [*ENTRY_NAMES, "lambda_typo"]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# floats over the whole double range, weighted so that most examples get
# past the configuration checks, plus non-finite values and junk text
_VALUES = st.one_of(
    _FLOATS,
    _FLOATS.map(lambda text: text.lstrip("-")),
    st.sampled_from(["inf", "-inf", "nan", *PRESET_NAMES]),
    st.text(max_size=8),
)
# small grids keep each example fast; 10**7 rows exceed the cell cap
_GRID_VALUES = st.sampled_from([1, 2, 3, 4, 2, 3, 4, 10**7]).map(str)


#: README's exit-code list: each quantity whose failure exits 4, and the text
#: by which its message names it.
_EXIT_4_QUANTITIES = (
    ("a failed Lyapunov residual check", "Lyapunov solve residual"),
    ("a steady solve that is not finite", "Lyapunov solve is not finite"),
    ("the environment's diffusion coefficients", "thermal diffusion coefficients overflow"),
    ("the diffusion bounds", "diffusion bounds are not finite"),
    ("C from a temperature", "thermal parameter overflows at temperature"),
    ("omega^2 in the drift and the steady state", "omega^2 overflows"),
    ("lambda^2 in the drift and the steady state", "lam^2 overflows"),
    ("2(lambda^2 + omega^2) in the steady state", "2(lambda^2 + omega^2) underflows"),
    ("the phase omega t", "oscillator phase omega*t overflows"),
    ("the evolved state", "evolved covariance matrix is not finite"),
    ("the rescaled initial state", "covariance matrix overflows when its modes are rescaled"),
    ("the d_xpy grid", "d_xpy grid is not finite"),
    ("the Simon function", "Simon function is not finite"),
    ("the PT symplectic spectrum", "PT symplectic spectrum overflows"),
)


def _names_a_quantity(err: str) -> bool:
    """Whether the last stderr line is an exit-4 message naming a quantity."""
    line = err.splitlines()[-1] if err else ""
    head, _, message = line.partition("error: numerical failure: ")
    return not head and any(text in message for _, text in _EXIT_4_QUANTITIES)


class TestArgvProperty:
    @pytest.mark.parametrize(
        "message",
        ["float division by zero", "math domain error", "(34, 'Numerical result out of range')"],
    )
    def test_bare_messages_name_no_quantity(self, message):
        assert not _names_a_quantity(f"error: numerical failure: {message}\n")
        assert _names_a_quantity("error: numerical failure: Simon function is not finite (inf)\n")

    @given(
        command=st.sampled_from(COMMANDS),
        values=st.dictionaries(st.sampled_from(_VALUE_KEYS), _VALUES, max_size=4),
        grid=st.fixed_dictionaries({key: _GRID_VALUES for key in _GRID_KEYS}),
        flags=st.lists(st.sampled_from(["--strict", "--format=json"]), unique=True),
    )
    @example(  # 2(lambda^2 + omega^2) underflows to 0 in the steady solve
        command="steady",
        values={"lambda": "1e-200", "omega": "1e-200", "m": "1e200", "d_xpy": "0"},
        grid={key: "2" for key in _GRID_KEYS},
        flags=[],
    )
    @settings(max_examples=500, deadline=None)
    def test_exit_code_is_documented(self, command, values, grid, flags):
        argv = [command, *flags]
        for key, value in {**values, **grid}.items():
            argv += ["--set", f"{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                assert exc.code == 2
                return
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 4:
            assert _names_a_quantity(err.getvalue()), (argv, err.getvalue())
