"""Self-test of the benchmark itself, at the tiny ``smoke`` size.

Run from the repository root::

    python3 bench/selftest.py

It checks that:

* every workload, untraced and traced, prints every metric that
  ``BENCHMARK.json`` names, with its unit, and passes every output check;
* a deliberately corrupted output is counted in ``failed`` and
  ``fail_frac``, both by the reference check and by the traced-versus-
  untraced comparison;
* without the program sources the benchmark exits nonzero and prints no
  result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads as wl


def bench(*flags: str, cwd=run.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--size", "smoke", "--seed", "0", "--seconds", "1", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    spec = run.load_spec()
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for workload in wl.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench("--workload", workload, "--trace", str(trace))
            label = f"{workload} trace {trace}"
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{label}: exit 0, every check passes")
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{label}: every {section} metric with its unit")
            if trace == 0:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{label}: end-to-end metrics are positive")
        code, result = bench("--workload", workload, "--trace", "1", "--corrupt")
        expect(code != 0 and result is not None and not result["correct"]
               and result["failed"] >= 2 and result["metrics"]["fail_frac"]["value"] > 0,
               f"{workload}: a corrupted output fails the reference and traced-equals-untraced checks")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH.iterdir():
            if path.is_file():
                shutil.copy2(path, bare / "bench")
        code, result = bench("--workload", "bm-flow", "--trace", "0", cwd=bare)
        expect(code != 0 and result is None, "no program sources: nonzero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
