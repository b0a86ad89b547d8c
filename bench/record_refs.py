"""Record the reference output summaries that ``run.py`` checks against.

Run once on the commit whose outputs are the reference (the seed commit of
the benchmark), from the repository root::

    python3 bench/record_refs.py [WORKLOAD ...]

It runs the named workloads (default: all) once per input set and size and
writes their entries of ``bench/references.json``, keeping the others.  A
later change that alters outputs on purpose must say so; re-recording is not
a way to make a failing check pass.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads as wl


def record(size: str, workload: str, k: int) -> dict:
    work = run.WORK / f"record-{size}-{workload}-{k}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        (work / "inputs").mkdir(parents=True)
        (work / "rep").mkdir()
        values = wl.write_inputs(workload, k, size, work / "inputs")
        stages = wl.stages(workload, size, values)
        codes, walls, _total, _rss, _cpu = run.run_sequence(stages, work / "rep")
        if any(code != 0 for code in codes.values()) or len(codes) != len(stages):
            raise SystemExit(f"{workload} input set {k} ({size}) failed: {codes}")
        out = {}
        for stage, _args in stages:
            name, kind = wl.OUTPUTS[stage]
            out[stage] = wl.summarize(kind, work / "rep" / name)
        print(f"{size} {workload} {k}: " + ", ".join(f"{s} {w:.2f}s" for s, w in walls.items()),
              file=sys.stderr)
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names: list[str]) -> int:
    unknown = set(names) - set(wl.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    refs: dict = {}
    if names and run.REFERENCES.is_file():
        refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))
    for size, count in wl.INPUT_SETS.items():
        for workload in names or wl.WORKLOADS:
            for k in range(count):
                refs.setdefault(size, {}).setdefault(workload, {})[str(k)] = record(size, workload, k)
    run.REFERENCES.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
