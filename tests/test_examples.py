"""The scripts and the README's library sketch run against the current package.

The scripts must write exactly what the CLI commands with the same keys
write, and the README sketch must run as printed.
"""

import contextlib
import io
import re
import runpy
import sys
from pathlib import Path

from gaussent.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent


def _run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")


def _cli_bytes(tmp_path, command, **keys):
    out = tmp_path / f"cli_{command}.csv"
    sets = [arg for key, value in keys.items() for arg in ("--set", f"{key}={value}")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([command, *sets, "--out", str(out)]) == 0
    return out.read_bytes()


def test_surfaces_script_matches_sweep_and_classify(monkeypatch, tmp_path):
    _run_script(
        monkeypatch, "entanglement_surfaces.py",
        "--out-dir", str(tmp_path), "--t-max", "50", "--n-t", "100", "--n-c", "2",
    )
    for name in ("fig1", "fig2", "fig3", "fig4"):
        keys = dict(initial=name, t_max=50, n_t=100, c_min=1, c_max=1.5, n_c=2)
        surface = (tmp_path / f"surface_{name}.csv").read_bytes()
        labels = (tmp_path / f"labels_{name}.csv").read_bytes()
        assert surface == _cli_bytes(tmp_path, "sweep", **keys)
        assert labels == _cli_bytes(tmp_path, "classify", **keys)


def test_readme_library_sketch_runs_as_printed():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        exec(compile(code, "README.md", "exec"), {})
    # a '# value...' comment on a print line gives the leading digits it prints
    printed = iter(output.getvalue().splitlines())
    for line in code.splitlines():
        if line.startswith("print("):
            shown = next(printed)
            comment = re.search(r"#\s*(\S+?)\.\.\.$", line)
            if comment:
                assert shown.startswith(comment.group(1)), (line, shown)


def test_cli_corpus_runs_every_command_in_both_formats_once_per_line():
    corpus = runpy.run_path(str(ROOT / "scripts" / "cli_corpus.py"))["corpus"]()
    assert len({tuple(argv) for argv in corpus}) == len(corpus)
    for command in COMMANDS:
        for fmt in ("csv", "json"):
            assert any(argv[0] == command and argv[-2:] == ["--format", fmt] for argv in corpus)
