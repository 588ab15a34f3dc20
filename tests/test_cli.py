import json
import math

import numpy as np
import pytest

import gaussent as ge
from gaussent.core import ENTRY_NAMES, independent_entries, temperature_from_thermal_c
from gaussent.entanglement import simon_function
from gaussent.experiments import LABELS
from gaussent.cli import main


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
        for entries in (
            ("sigma_xx=1e200", "sigma_pxpx=1e200"),
            # a physical thermal state whose invariants overflow
            ("sigma_xx=1e160", "sigma_pxpx=1e160", "sigma_yy=1e160", "sigma_pypy=1e160"),
        ):
            sets = [arg for entry in entries for arg in ("--set", entry)]
            code, out, err = run_cli(capsys, "metrics", *sets)
            assert code == 4
            assert out == ""
            assert "Traceback" not in err
            assert "unphysical" not in err
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
