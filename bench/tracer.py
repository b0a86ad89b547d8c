"""Traced replay of mirpath CLI calls, one child process per pipeline stage.

Run as ``python3 bench/tracer.py JOB.json`` from the stage's working
directory with ``src`` on ``PYTHONPATH``.  The job file holds
``{"calls": [[cli args...], ...], "out": "spans.json"}``.  The process
imports the package, wraps every public function of each layer module
(``algebra``, ``grammar``, ``group``, ``lifts``, ``fields``,
``translation``, ``solver``, ``verify``, ``cli``) plus the two grid lookups,
runs ``mirpath.cli.main`` once per call, and writes every span it saw.

Each wrapper is installed under every name that refers to the original in
any loaded ``mirpath`` module, so calls from inside the package (for
example ``solver`` calling ``log_element``) are traced too.  Nothing under
``src`` is changed.

Span analysis (:func:`layer_totals`) lives here as well; it uses only the
standard library so ``run.py`` can import it without importing mirpath.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "algebra", "grammar", "group", "lifts", "fields",
    "translation", "solver", "verify", "cli",
)

# Methods that are not in any ``__all__`` but that the per-layer table names.
LOOKUPS = (
    ("group", "RoughPathGrid", "index_of"),
    ("solver", "FlowSolution", "value_at"),
)


class Tracer:
    """Spans kept in memory as ``[name_id, start, end, parent_index]``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.bytes: dict[str, int] = {}
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, *, route=None, size=None):
        """Return ``fn`` recording one span per call.

        ``route(args, kwargs)`` appends a suffix to the span name;
        ``size(args, result)`` adds a byte count under ``name``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if route is None else self.name_id(f"{name}.{route(args, kwargs)}")
            index = len(spans)
            span = [nid, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if size is not None:
                self.bytes[name] = self.bytes.get(name, 0) + size(args, result)
            return result

        return traced


def _coproduct_route(args, kwargs) -> str:
    return kwargs.get("route", args[2] if len(args) > 2 else "direct")


SPECIAL = {
    "translation.coproduct_minus": {"route": _coproduct_route},
    "lifts.grid_to_json": {"size": lambda args, result: len(result)},
    "lifts.grid_from_json": {"size": lambda args, result: len(args[0])},
}


def install(tracer: Tracer):
    """Wrap the public functions of every layer; return ``mirpath.cli``."""
    importlib.import_module("mirpath")
    replacement: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"mirpath.{layer}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isclass(obj) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replacement[id(obj)] = tracer.wrap(name, obj, **SPECIAL.get(name, {}))
    for layer, cls_name, method in LOOKUPS:
        cls = getattr(importlib.import_module(f"mirpath.{layer}"), cls_name)
        setattr(cls, method, tracer.wrap("solver.lookup", getattr(cls, method)))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "mirpath" and not mod_name.startswith("mirpath."):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replacement.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)
    return sys.modules["mirpath.cli"]


def _star_cache_info():
    """Hit/miss counts of the exact structure-constant cache, if it exists."""
    star = getattr(sys.modules.get("mirpath.algebra"), "_star_basis", None)
    info = getattr(star, "cache_info", None)
    if info is None:
        return None
    got = info()
    return {"hits": got.hits, "misses": got.misses, "entries": got.currsize}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer()
    cli = install(tracer)
    codes = []
    for argv in job["calls"]:
        try:
            codes.append(cli.main(list(argv)))
        except SystemExit as exc:
            codes.append(exc.code if isinstance(exc.code, int) else 1)
    payload = {
        "names": tracer.names,
        "spans": tracer.spans,
        "bytes": tracer.bytes,
        "star_cache": _star_cache_info(),
        "codes": codes,
    }
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return max((abs(c) for c in codes), default=0)


# ---------------------------------------------------------------------------
# analysis, standard library only
# ---------------------------------------------------------------------------


def layer_totals(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` (span minus direct child spans)
    and ``top_s`` (time in spans whose parent is a ``cli`` span)."""
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for index, (nid, start, end, parent) in enumerate(spans):
        row = out.setdefault(names[nid], {"calls": 0, "self_s": 0.0, "top_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[index]
        if parent >= 0 and names[spans[parent][0]].startswith("cli."):
            row["top_s"] += end - start
    return out


def count_under(trace: dict, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    names, spans = trace["names"], trace["spans"]
    count = 0
    for nid, _start, _end, parent in spans:
        if names[nid] != name:
            continue
        while parent >= 0:
            if names[spans[parent][0]] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
