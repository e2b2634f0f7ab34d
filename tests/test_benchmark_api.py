"""The benchmark under perfbench/ imports names from mvfa; removing one from
the package must fail here, not only when the benchmark runs."""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _imported_names():
    """(module, name) for every `from mvfa... import name` in the benchmark."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                    and node.module.split(".")[0] == "mvfa":
                for alias in node.names:
                    yield node.module, alias.name


NAMES = sorted(set(_imported_names()))


def test_benchmark_imports_something():
    assert ("mvfa", "invert_at") in NAMES


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_benchmark_import_resolves(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule such as mvfa.cli
