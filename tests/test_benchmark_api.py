"""The benchmark under perfbench/ imports names from mvfa and calls them;
removing one from the package, or a parameter that the benchmark passes,
must fail here, not only when the benchmark runs."""

import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _trees():
    """(file name, syntax tree) of each benchmark module."""
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """{local name: (module, name)} for each `from mvfa... import name`."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and node.module.split(".")[0] == "mvfa":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    return imported


def _imported_names():
    """(module, name) for every `from mvfa... import name` in the benchmark."""
    for _, tree in _trees():
        yield from _imports(tree).values()


NAMES = sorted(set(_imported_names()))


def test_benchmark_imports_something():
    assert ("mvfa", "invert_at") in NAMES


@pytest.mark.parametrize("module, name", NAMES, ids=[f"{m}.{n}" for m, n in NAMES])
def test_benchmark_import_resolves(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):
        importlib.import_module(f"{module}.{name}")  # a submodule such as mvfa.cli


def _resolve(module, name):
    mod = importlib.import_module(module)
    return getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")


def _calls():
    """(where, (module, name), attribute or None, positional count, keyword
    names) for each call in the benchmark of an imported mvfa name, or of an
    attribute of one, such as `cli.main` or `KstRep.load`; a call that
    unpacks * or ** is skipped."""
    for filename, tree in _trees():
        imported = _imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, attr = node.func, None
            if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                func, attr = func.value, func.attr
            if not isinstance(func, ast.Name) or func.id not in imported:
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords):
                continue
            label = f"{filename}:{node.lineno}:{node.col_offset}:{func.id}" \
                    f"{'.' + attr if attr else ''}"
            yield (label, imported[func.id], attr, len(node.args),
                   [k.arg for k in node.keywords])


CALLS = sorted(_calls(), key=lambda call: call[0])


def test_benchmark_calls_decompose_by_keyword():
    assert any(label.endswith(":decompose") and "iters" in kws
               for label, *_, kws in CALLS)


@pytest.mark.parametrize("label, imported, attr, positional, keywords", CALLS,
                         ids=[c[0] for c in CALLS])
def test_benchmark_call_binds(label, imported, attr, positional, keywords):
    callee = _resolve(*imported)
    if attr is not None:
        callee = getattr(callee, attr)
    inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_benchmark_solve_defaults_exist():
    from mvfa import solve

    params = inspect.signature(solve).parameters
    keys = [node.slice.value for _, tree in _trees() for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "SOLVE_DEFAULTS"]
    assert keys
    for key in keys:
        assert key in params and params[key].default is not inspect.Parameter.empty, key
