"""Every name a module of ``src/stepweaver`` imports is used in that module.

A name counts as used when it is read as a ``Name`` (which covers the base of
an ``Attribute``) or appears in a quoted annotation such as
``"TreeFold | None"`` or ``"np.random.Generator"``.  ``__init__.py`` is left
out: its imports are the package's public names.  An import that the
benchmark's tracer patches in that module (``perfbench/tracing.py``
``TARGETS``) is read there, so it counts as used; once the tracer drops the
target, the import must go.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stepweaver"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def traced_names():
    """``{(module, name)}`` of every name the benchmark's tracer patches."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, name) for _, module, name, _ in tracing.TARGETS}


def imported_names(tree):
    """``{bound name: line}`` of every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree):
    """Every annotation node: of arguments, of returns and of annotated assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for note in annotations(tree):
        for const in ast.walk(note):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                quoted = ast.parse(const.value, mode="eval")
                used |= {node.id for node in ast.walk(quoted) if isinstance(node, ast.Name)}
    return used


def unused_imports(path):
    """``{name: line}`` of the module's imports that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    return {name: line for name, line in imported_names(tree).items() if name not in used}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    traced = {name for module, name in traced_names() if module == f"stepweaver.{path.stem}"}
    unused = {name: line for name, line in unused_imports(path).items() if name not in traced}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_only_these_imports_are_read_by_the_tracer_alone():
    """The imports kept only for the tracer, each marked "not called here"."""
    kept = {(path.stem, name) for path in MODULES for name in unused_imports(path)}
    assert kept == {
        ("verify", "raw_run"),
        ("verify", "run"),
        ("verify", "reverse"),
        ("optimizer", "join"),
        ("builders", "join"),
        ("dsl", "join"),
    }


def test_quoted_annotations_count_as_uses():
    tree = ast.parse(
        "import numpy as np\nfrom .schedule import TreeFold\n"
        'def f(rng: "np.random.Generator", fold: "TreeFold | None" = None): pass\n'
    )
    assert set(imported_names(tree)) <= used_names(tree)
    assert "json" not in used_names(ast.parse("import json\n"))
