import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussent as ge
from gaussent.core import ENTRY_NAMES, independent_entries, temperature_from_thermal_c
from gaussent.entanglement import simon_function
from gaussent.experiments import LABELS
from gaussent.cli import _KEYS, COMMANDS, main
from gaussent.presets import PRESET_NAMES
from helpers import two_mode_squeezer


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
        assert rows[0][1] in LABELS
        assert rows[0][2]  # benchmark generates entanglement: events present
        for event in rows[0][2].split(";"):
            float(event)


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
