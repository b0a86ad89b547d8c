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
Every parameter with a default, of a function or method at any depth, must
be passed, by keyword or by position, by some call in ``src``, ``tests`` or
``bench``: a default nothing overrides is a setting nobody uses.  Every
name the package exports, every public module-level ``def`` and ``class``,
and every public method of a package class, must be read in the package
outside its own definition or be named in backticks in ``README.md``: what
only a test calls is a test's.

A second guard holds ``FormalSum._of`` to its contract: the sum keeps the
dict it is given, so every ``FormalSum._of(…)`` call in the package, and
every ``cls._of(…)`` call in ``FormalSum``, must sit in a ``return``
statement, where no later line can touch that dict.
"""

from __future__ import annotations

import ast
import re
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
    """The names the ``__all__`` of ``tree`` lists: the strings of a literal
    list, or the row of ``mirpath._EXPORTS`` that a layer's ``__all__`` reads."""
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            strings = {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
            if "_EXPORTS" in _names(stmt.value):
                return set().union(*(mirpath._EXPORTS[s] for s in strings))
            return strings
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


def _repo_trees() -> dict[Path, ast.Module]:
    """Every Python file under ``src``, ``tests`` and ``bench``, parsed."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in ("src", "tests", "bench")
        for path in sorted((REPO / top).rglob("*.py"))
        if not any(part.startswith(".") for part in path.relative_to(REPO).parts)
    }


def test_every_definition_is_referenced():
    trees = _repo_trees()
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


def _defaulted(fn: ast.FunctionDef, method: bool) -> dict[str, int | None]:
    """Each parameter of ``fn`` with a default -> its position in a call
    (``self`` or ``cls`` not counted), or None if it is keyword-only."""
    positional = [*fn.args.posonlyargs, *fn.args.args]
    first = len(positional) - len(fn.args.defaults)
    skip = 1 if method else 0
    out = {p.arg: n - skip for n, p in enumerate(positional) if n >= first}
    for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            out[p.arg] = None
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` sets the parameter ``name`` at ``position``; a
    ``*args`` or ``**kwargs`` argument may set any of them."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(
        isinstance(a, ast.Starred) or n == position for n, a in enumerate(call.args)
    )


def test_every_defaulted_parameter_is_passed():
    trees = _repo_trees()
    calls: dict[str, list[ast.Call]] = {}
    bases: dict[str, set[str]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.ClassDef):
                bases[node.name] = {b.id for b in node.bases if isinstance(b, ast.Name)}

    def with_subclasses(cls: str) -> set[str]:
        out = {cls}
        while grown := {c for c, b in bases.items() if b & out} - out:
            out |= grown
        return out

    unpassed = []

    def visit(node: ast.AST, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner)
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            # a constructor is called through its class or a subclass
            names = {child.name}
            if owner is not None and child.name in ("__init__", "__new__"):
                names = with_subclasses(owner)
            found = [call for n in names for call in calls.get(n, ())]
            for param, position in _defaulted(child, owner is not None and not static).items():
                if not any(_passes(call, param, position) for call in found):
                    unpassed.append(f"{child.name}: {param}")
            visit(child, None)

    for path, tree in trees.items():
        if path.parent == REPO / "src" / "mirpath":
            visit(tree, None)
    assert unpassed == []


def test_every_public_name_is_read_in_the_package_or_documented():
    modules = _modules()
    reads = sum((_reads(tree) for tree in modules.values()), Counter())
    # each public name -> what its own defining statements read
    own: dict[str, Counter] = {name: Counter() for name in mirpath._MODULE_OF}
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own.setdefault(stmt.name, Counter()).update(_reads(stmt))
            elif isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name) and t.id in own:
                        own[t.id].update(_reads(stmt))
            if isinstance(stmt, ast.ClassDef):  # and the public methods of a class
                for method in stmt.body:
                    if isinstance(method, ast.FunctionDef):
                        own.setdefault(method.name, Counter()).update(_reads(method))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    documented = {
        word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)
    }
    unread = sorted(
        name
        for name, counts in own.items()
        if not name.startswith("_") and reads[name] <= counts[name] and name not in documented
    )
    assert unread == []


def _formal_sum_of_calls(tree: ast.Module) -> list[ast.Call]:
    """The ``FormalSum._of(…)`` calls in ``tree`` and the ``cls._of(…)``
    calls in its ``FormalSum`` class."""
    owners = [(tree, "FormalSum")] + [
        (node, "cls")
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "FormalSum"
    ]
    return [
        node
        for owner, receiver in owners
        for node in ast.walk(owner)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_of"
        and getattr(node.func.value, "id", None) == receiver
    ]


def test_every_formal_sum_of_call_returns_its_result_at_once():
    calls, loose = 0, []
    for name, tree in _modules().items():
        returned = {
            id(node)
            for ret in ast.walk(tree)
            if isinstance(ret, ast.Return)
            for node in ast.walk(ret)
        }
        for call in _formal_sum_of_calls(tree):
            calls += 1
            if id(call) not in returned:
                loose.append(f"{name}: line {call.lineno}")
    assert calls > 0  # the guard matches the call sites it is meant for
    assert loose == []
