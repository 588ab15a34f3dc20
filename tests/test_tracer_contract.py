"""The benchmark's tracer wraps package functions by name; they must exist.

``bench/tracer.py`` replaces each function listed in its ``TRACED`` table
under every name a ``gaussent`` module holds it by, and its ``classify_phase``
hook binds the call's ``n_t`` argument.  A renamed function or parameter would
only show up when the traced benchmark runs, so the table is read from the
file (without importing the benchmark) and checked here.
"""

import ast
import importlib
import inspect
from pathlib import Path

from gaussent.core import CovarianceMatrix
from gaussent.experiments import classify_phase

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        targets = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_traced_functions_exist():
    traced = _traced()
    assert traced
    for layer, names in traced.items():
        module = importlib.import_module(f"gaussent.{layer}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"gaussent.{layer}.{name}"


def test_package_names_follow_their_module(monkeypatch):
    # the tracer swaps module attributes for the length of a trace; a copy
    # cached in the package namespace would keep the wrapper after it ends
    import gaussent
    import gaussent.experiments

    def patched(*args, **kwargs):
        return None

    monkeypatch.setattr(gaussent.experiments, "classify_phase", patched)
    assert gaussent.classify_phase is patched
    monkeypatch.undo()
    assert gaussent.classify_phase is classify_phase
    assert "classify_phase" not in vars(gaussent)
    assert len(gaussent.__all__) == 11
    assert set(gaussent.__all__) <= set(dir(gaussent))
    for name in gaussent.__all__:
        assert getattr(gaussent, name) is not None


def test_wrapped_signatures():
    # the classify hook reads bound.arguments["n_t"]; __init__ is wrapped on the class
    assert "n_t" in inspect.signature(classify_phase).parameters
    assert "__init__" in vars(CovarianceMatrix)
