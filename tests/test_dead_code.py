"""Source guard: no definition and no import under ``src/mirpath`` is left
unused.

A module-level ``def`` or ``class`` whose name starts with ``_`` must be
referenced somewhere in the package outside its own body, and every name an
import binds must be used by its module, listed in its ``__all__``, or
imported from it by another module.  The PEP 562 ``__getattr__`` of the
package is called by the interpreter, not by name, and is exempt.  Every
``def`` and ``class`` at any depth, methods included, must be referenced by
name in ``src``, ``tests`` or ``bench`` outside its own body, or be listed in
an ``__all__``; dunders are called by the interpreter and are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import mirpath

EXEMPT = {"__getattr__"}
REPO = Path(__file__).resolve().parents[1]


def _modules() -> dict[str, ast.Module]:
    package = Path(mirpath.__file__).parent
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }


def _reads(node: ast.AST) -> Counter:
    """How often ``node`` reads each identifier, as a name or an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads: names and attribute names."""
    return set(_reads(node))


def _all_strings(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
    return set()


def _imported_from(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) for every ``from .module import name`` in the package."""
    out = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, alias.name) for alias in node.names)
    return out


def test_every_private_helper_is_referenced():
    modules = _modules()
    imported = _imported_from(modules)
    # (module, top-level definition) -> the names read in that statement
    reads = {
        (name, getattr(stmt, "name", None), n): _names(stmt)
        for name, tree in modules.items()
        for n, stmt in enumerate(tree.body)
    }
    unused = []
    for name, tree in modules.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not stmt.name.startswith("_") or stmt.name in EXEMPT:
                continue
            elsewhere = any(
                stmt.name in names
                for (module, owner, _n), names in reads.items()
                if (module, owner) != (name, stmt.name)
            )
            if not elsewhere and (name, stmt.name) not in imported:
                unused.append(f"{name}.{stmt.name}")
    assert unused == []


def test_every_import_is_used():
    modules = _modules()
    imported = _imported_from(modules)
    unused = []
    for name, tree in modules.items():
        used = _names(tree) | _all_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used and (name, bound) not in imported:
                    unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_definition_is_referenced():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "tests", "bench")
        for path in sorted((REPO / top).rglob("*.py"))
        if not any(part.startswith(".") for part in path.relative_to(REPO).parts)
    }
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    listed = set().union(*(_all_strings(tree) for tree in trees.values()))
    unused = []
    for path, tree in trees.items():
        if path.parent != REPO / "src" / "mirpath":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in listed:
                continue
            if reads[name] <= _reads(node)[name]:  # read only in its own body
                unused.append(f"{path.stem}: {name} (line {node.lineno})")
    assert unused == []

