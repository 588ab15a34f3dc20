"""The scripts and the README's library sketch run against the current package.

The scripts must write exactly what the CLI commands with the same keys
write, the README sketch must run as printed, the CLI corpus must write
what ``scripts/cli_corpus.jsonl`` records, every public name of the
package must be read somewhere outside the tests, and every option of a
public function must be passed somewhere outside them.  The sources parse
as the oldest Python that ``pyproject.toml`` admits, and numpy is imported
only where a test below lists it.
"""

import ast
import contextlib
import importlib
import io
import json
import pkgutil
import re
import runpy
import signal
import sys
from pathlib import Path

import pytest

import gaussent
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


_COUNTS = dict(zip("two three four five six seven eight nine ten eleven".split(), range(2, 12)))


def test_readme_lists_every_named_tuple_record():
    # the sentence "All <n> records are immutable named tuples: `A` and `B` in
    # `gaussent.x`, ..." names each record class with its module, and no other
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = r"All (\w+) records are immutable named tuples: (.*?)\. "
    count, listing = re.search(sentence, text).groups()
    listed = {
        name: module
        for names, module in re.findall(r"(.*?) in `(gaussent\.\w+)`", listing)
        for name in re.findall(r"`(\w+)`", names)
    }
    records = {}
    for info in pkgutil.iter_modules(gaussent.__path__, "gaussent."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields"):
                if value.__module__ == info.name:
                    records[name] = info.name
    assert listed == records
    assert _COUNTS[count] == len(records) == 9


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    """Public module-level functions, classes and constants: name -> statement."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _read(node: ast.AST) -> set[str]:
    """Every name ``node`` reads: loaded names, attributes, imported names and
    string constants, which ``__all__`` and lazy imports hold."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_public_name_is_read_outside_the_tests():
    # a public name that only tests read is a second name for what src/
    # already names: it is read in its own module outside its definition, by
    # another module of the package, by a script, by the benchmark or in README
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "src" / "gaussent").glob("*.py"))}
    readers = [*ROOT.joinpath("scripts").glob("*.py"), *ROOT.joinpath("bench").glob("*.py")]
    outside = set().union(*(_read(ast.parse(path.read_text(encoding="utf-8"))) for path in readers))
    readme = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    unread, checked = [], 0
    for path, tree in modules.items():
        others = set().union(*(_read(other) for p, other in modules.items() if p != path))
        for name, definition in _defined(tree).items():
            own = set().union(*(_read(node) for node in tree.body if node is not definition))
            checked += 1
            if name not in own | others | outside | readme:
                unread.append(f"{path.stem}.{name}")
    assert checked > 30
    assert unread == []


def _options(tree: ast.Module) -> dict[str, list[tuple[int | None, str]]]:
    """Defaulted and keyword-only parameters of the public module-level
    functions: name -> [(position, or None if keyword-only, parameter)]."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            out[node.name] = [(k, a.arg) for k, a in enumerate(positional) if k >= first]
            out[node.name] += [(None, a.arg) for a in args.kwonlyargs]
    return out


def _passed(tree: ast.AST) -> set[tuple[str, int | str]]:
    """(callee name, position or keyword) of every argument a call passes; a
    ``*`` or ``**`` argument counts as passing every position or keyword."""
    out = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for k, arg in enumerate(call.args):
                out.add((name, "*" if isinstance(arg, ast.Starred) else k))
            out.update((name, keyword.arg or "**") for keyword in call.keywords)
    return out


def test_every_option_is_passed_outside_the_tests():
    # a defaulted or keyword-only parameter that only tests set is a knob with
    # one value in use: some call in the package, a script, the benchmark or
    # a README python block passes it, by position or by name
    package = [path.read_text(encoding="utf-8") for path in ROOT.joinpath("src").glob("*/*.py")]
    readers = [*ROOT.joinpath("scripts").glob("*.py"), *ROOT.joinpath("bench").glob("*.py")]
    sources = package + [path.read_text(encoding="utf-8") for path in readers]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"```python\n(.*?)```", readme, re.S)
    passed = set().union(*(_passed(ast.parse(source)) for source in sources))
    options = [
        (name, position, parameter)
        for source in package
        for name, params in _options(ast.parse(source)).items()
        for position, parameter in params
    ]
    unpassed = [
        (name, parameter)
        for name, position, parameter in options
        if not {(name, parameter), (name, "**")} & passed
        and (position is None or not {(name, position), (name, "*")} & passed)
    ]
    assert len(options) > 10
    assert unpassed == []


def _numpy_imports(tree: ast.Module) -> set[str]:
    """Qualified names of the functions that import numpy, with ``<module>``
    for an import at module level."""
    out = set()

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                if isinstance(child, ast.Import):
                    names = [alias.name for alias in child.names]
                else:
                    names = [child.module or ""]
                if any(name.partition(".")[0] == "numpy" for name in names):
                    out.add(".".join(scope) or "<module>")
            else:
                visit(child, scope)

    visit(tree, [])
    return out


def test_numpy_is_imported_only_where_listed():
    # experiments owns the time-column arrays, so it imports numpy at module
    # level; dynamics imports it only to return the 4x4 propagator and
    # entanglement not at all, so a point request stays numpy-free
    sites = {
        path.stem: _numpy_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted((ROOT / "src" / "gaussent").glob("*.py"))
    }
    assert sites == {
        "__init__": set(),
        "cli": {"_grid", "_sweep_text", "_run_phase_diagram"},
        "core": {
            "CovarianceMatrix.__init__", "CovarianceMatrix.entries",
            "CovarianceMatrix.__array__", "StateReport.min_eigenvalue",
        },
        "dynamics": {"propagator"},
        "entanglement": set(),
        "experiments": {"<module>"},
        "presets": set(),
    }


def test_sources_parse_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # no interpreter that old need be installed: ast checks the grammar alone
    major, minor = map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups())
    paths = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("scripts").rglob("*.py")])
    assert len(paths) >= 9
    for path in paths:
        ast.parse(path.read_bytes(), filename=str(path), feature_version=(major, minor))


def test_cli_corpus_runs_every_command_in_both_formats_once_per_line():
    corpus = runpy.run_path(str(ROOT / "scripts" / "cli_corpus.py"))["corpus"]()
    assert len({tuple(argv) for argv in corpus}) == len(corpus)
    for command in COMMANDS:
        for fmt in ("csv", "json"):
            assert any(argv[0] == command and argv[-2:] == ["--format", fmt] for argv in corpus)


@contextlib.contextmanager
def _time_limit(seconds, argv):
    # a POSIX interval timer that fails the test naming ``argv``, so a hang fails
    # instead of stalling the run; the previous SIGALRM handler is restored
    def expire(signum, frame):
        pytest.fail(f"{argv} still ran after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_corpus_in_process_matches_the_recorded_digests(monkeypatch, tmp_path):
    # the recorded lines come from fresh processes (scripts/cli_corpus.py);
    # each argv runs here through cli.main, from a scratch directory holding
    # the config file, and within the script's time limit per argv
    script = runpy.run_path(str(ROOT / "scripts" / "cli_corpus.py"))
    recorded = (ROOT / "scripts" / "cli_corpus.jsonl").read_text(encoding="utf-8").splitlines()
    corpus = script["corpus"]()
    assert [json.loads(line)["argv"] for line in recorded] == corpus
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse's usage width on a pipe
    (tmp_path / script["CONFIG_FILE"]).write_text(script["CONFIG_TEXT"], encoding="utf-8")
    out = tmp_path / script["OUT_FILE"]
    changed = []
    for argv, line in zip(corpus, recorded):
        out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with (
            _time_limit(script["TIMEOUT_S"], argv),
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        text = stderr.getvalue()
        if script["record"](argv, code, stdout.getvalue().encode(), out, text) != line:
            changed.append(argv)
    assert changed == []
