import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import ENTRY_NAMES, independent_entries
from gaussent.entanglement import simon_function
from gaussent.experiments import LABELS
from gaussent.cli import (
    _KEYS,
    COMMANDS,
    _build_parser,
    _json,
    _parse_args,
    _sweep_text,
    build_config,
    main,
    run,
    sweep_csv,
)
from gaussent.presets import PRESET_NAMES
from helpers import (
    phase_diagram_csv_oracle,
    phase_diagram_rows_oracle,
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

    @pytest.mark.filterwarnings("ignore:classification grid is below the recommended resolution")
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
        env = ge.presets.benchmark_environment(thermal_c=1.0)
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
        env = ge.presets.benchmark_environment(thermal_c=1.0)
        expected = ge.evolve(ge.presets.initial_state("fig1"), env, 5.0)
        assert values == pytest.approx(independent_entries(expected), abs=1e-15)


class TestSweepCommand:
    @pytest.mark.filterwarnings("ignore:classification grid is below the recommended resolution")
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

    @pytest.mark.filterwarnings("ignore:classification grid is below the recommended resolution")
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
        assert rows[0][1] in LABELS
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
        initial, env = ge.presets.initial_state("fig3"), ge.presets.benchmark_environment
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
        assert code == 2
        assert "unknown initial-state preset" in err

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
            pytest.param(
                ("sweep", "--set", "initial=fig1", "--set", "n_t=25", "--set", "n_c=2"),
                marks=pytest.mark.filterwarnings(
                    "ignore:classification grid is below the recommended resolution"
                ),
            ),
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
            dataclasses.replace(result, simon=simon),
            dataclasses.replace(result, log_neg=log_neg),
        ):
            with pytest.raises(OverflowError, match="not finite"):
                _sweep_text(bad, cfg)

    @pytest.mark.filterwarnings("ignore:classification grid is below the recommended resolution")
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
    @settings(max_examples=500, deadline=None)
    def test_json_writer_is_json_dumps(self, value):
        assert _json(value, "\n") == json.dumps(value, indent=2)


def _python(*args):
    """The finished process of ``python *args`` in a new interpreter that imports this gaussent."""
    src = os.path.dirname(os.path.dirname(ge.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
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
            "loaded = sorted(name for name in sys.modules\n"
            "                if name.split('.')[0] in ('numpy', 'argparse'))\n"
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

    def test_numpy_errors_map_to_exit_4_when_numpy_loads_late(self):
        # this Lyapunov solve fails its residual check, and the LinAlgError
        # it raises is the first thing that imports numpy
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
        script = (
            "import sys\n"
            "from gaussent.cli import main\n"
            "assert 'numpy' not in sys.modules\n"
            f"raise SystemExit(main({argv!r}))\n"
        )
        proc = _python("-c", script)
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == (
            "error: numerical failure: Lyapunov solve residual 1.491e-92 exceeds 1.491e-104\n"
        )


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
    *("--set", "--config", "--out", "--format", "--strict", "--dump-config"),
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


class TestArgvProperty:
    @given(
        command=st.sampled_from(COMMANDS),
        values=st.dictionaries(st.sampled_from(_VALUE_KEYS), _VALUES, max_size=4),
        grid=st.fixed_dictionaries({key: _GRID_VALUES for key in _GRID_KEYS}),
        flags=st.lists(st.sampled_from(["--strict", "--format=json"]), unique=True),
    )
    @settings(max_examples=500, deadline=None)
    # drawn grids are coarse and drawn horizons may be short
    @pytest.mark.filterwarnings("ignore:classification grid is below the recommended resolution")
    @pytest.mark.filterwarnings("ignore:final sampled Simon sign disagrees")
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
