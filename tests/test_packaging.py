"""The package imports nothing outside itself and the standard library, no
name it never reads, no parameter it never reads, no private definition it
never reads, and neither dataclasses nor typing for the CLI."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "heckeseries"


def imported_modules(path):
    """Top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_stdlib_only():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"heckeseries"}
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_modules(path)
        if name not in allowed
    }
    assert not foreign, sorted(foreign)


def unused_imports(path):
    """Names one source file imports and never reads.  The base of an
    attribute chain is a Name node too, and annotations are parsed even
    under ``from __future__ import annotations``, so both count as reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_unused_imports():
    # __init__.py imports to re-export
    sources = sorted(set(PACKAGE_DIR.rglob("*.py")) - {PACKAGE_DIR / "__init__.py"})
    assert sources
    unused = {f"{path.name}: {name}" for path in sources for name in unused_imports(path)}
    assert not unused, sorted(unused)


def unread_parameters(path):
    """Parameters of the functions in one source file that their bodies never
    read.  Dunder methods are left out: a protocol fixes their signatures.
    A zero-argument ``super()`` reads the first parameter."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = set()
        for sub in (sub for stmt in node.body for sub in ast.walk(stmt)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "super" and not sub.args:
                read.update(arg.arg for arg in [*args.posonlyargs, *args.args][:1])
        yield from (f"{node.name}: {arg.arg}" for arg in params if arg and arg.arg not in read)


def test_no_unread_parameters():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources
    unread = {f"{path.name}: {name}" for path in sources for name in unread_parameters(path)}
    assert not unread, sorted(unread)


@pytest.mark.parametrize("module", ["dataclasses", "typing"])
def test_cli_import_leaves_out_dataclasses(module):
    # -S keeps site's own imports out of the count (a site module may load
    # typing itself); src/ comes from PYTHONPATH
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    code = f"import sys, heckeseries.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_cli_import_leaves_out_verify_and_golden():
    # only verify-all and table read them, and import them where they run
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    code = "import sys, heckeseries.cli; print([m for m in ('heckeseries.verify', 'heckeseries.golden') if m in sys.modules])"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def unread_private_definitions(paths):
    """Non-dunder ``_``-prefixed functions, methods and classes defined in the
    given source files that no source file reads, as a Name or an Attribute,
    outside the definition itself: a recursive call does not count."""
    trees = [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]

    def reads(node):
        return Counter(
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)
        )

    total = sum((reads(tree) for _, tree in trees), Counter())
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if total[name] == reads(node)[name]:
                yield f"{path.name}: {name}"


def test_no_unread_private_definitions():
    sources = sorted(PACKAGE_DIR.rglob("*.py"))
    assert sources
    unread = set(unread_private_definitions(sources))
    assert not unread, sorted(unread)
