"""mirpath benchmark: seeded CLI pipelines, timed end to end or traced per layer.

Usage, from the repository root::

    python3 bench/run.py --workload bm-flow --seed 3 --seconds 40 --trace 0

``--trace 0`` runs the workload's subcommands as a user would, one fresh
``mirpath`` process per subcommand, repeating the whole sequence until
``--seconds`` is used up (at least twice), and prints the end-to-end
metrics: child CPU seconds scaled to a reference speed (``speed.py``).
``--trace 1`` runs the sequence once untraced and once under
``tracer.py``, and prints the per-layer metrics.  Every output is checked
against the reference recorded from the seed commit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

CLI_LAUNCH = ["-c", "import sys; from mirpath.cli import main; sys.exit(main())"]
SETUP_LAUNCH = ["-c", "from mirpath.cli import main; main(['--version'])"]
SETUP_LAUNCHES = 9
MIN_REPS = 2
MAX_REPS = 40
STAGE_TIMEOUT = 120.0
RUN_DEADLINE = 150.0
TIMED_OUT = -1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], cwd: Path,
          probes: list[float] | None = None) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS MB,
    CPU seconds).  Peak RSS and CPU time are the child's own, from its
    rusage.  With ``probes``, append to it a ``speed.probe()`` every
    ``speed.GAP`` seconds while the child runs, at least one."""
    with open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > STAGE_TIMEOUT:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    timed_out = True
                    break
                if probes is None:
                    time.sleep(0.002)
                else:
                    probes.append(speed.probe())
                    time.sleep(speed.GAP)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = TIMED_OUT
            raise
        wall = time.perf_counter() - start
    if probes == []:
        probes.append(speed.probe())
    proc.returncode = code = TIMED_OUT if timed_out else os.waitstatus_to_exitcode(status)
    return code, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def run_sequence(stages: list[tuple[str, list[str]]], rep_dir: Path, probed: bool = False):
    """Each stage in a fresh ``mirpath`` process, stopping at the first
    failure: (exit codes, stage walls, sequence wall, peak RSS MB, scaled
    CPU seconds of the sequence).  Unless ``probed`` the last is 0."""
    codes, walls, rss, cpu = {}, {}, 0.0, 0.0
    start = time.perf_counter()
    for stage, args in stages:
        probes = [] if probed else None
        codes[stage], walls[stage], peak, stage_cpu = spawn([*CLI_LAUNCH, *args], rep_dir, probes)
        rss = max(rss, peak)
        if probed:
            cpu += speed.scaled(stage_cpu, probes)
        if codes[stage] != 0:
            break
    return codes, walls, time.perf_counter() - start, rss, cpu


class Checks:
    """Counts checks; a check fails on a nonzero exit, a timeout, or an output
    outside the reference tolerance."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what} {detail}".rstrip(), file=sys.stderr)
        return ok


def last_line(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines() if path.is_file() else []
    return lines[-1] if lines else ""


def digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


class Run:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.workload = args.workload
        self.size = args.size
        self.seed = args.seed
        self.k = wl.input_set(args.seed, args.size)
        self.work = work
        self.checks = Checks()
        inputs = work / "inputs"
        inputs.mkdir(parents=True)
        values = wl.write_inputs(self.workload, self.k, self.size, inputs)
        self.stages = wl.stages(self.workload, self.size, values)
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.refs = refs.get(self.size, {}).get(self.workload, {}).get(str(self.k))
        self.corrupt = args.corrupt

    # -- one pass of the command sequence ---------------------------------

    def rep(self, name: str, probed: bool = False) -> dict:
        """Run every stage once in a fresh directory; check exit codes and
        outputs.  Returns stage walls, the sequence wall, peak RSS and the
        scaled CPU seconds of the sequence."""
        rep_dir = self.work / name
        rep_dir.mkdir()
        codes, walls, total, rss, cpu = run_sequence(self.stages, rep_dir, probed)
        for stage, code in codes.items():
            self.checks.record(code == 0, f"{stage} exit code", f"{code}: {last_line(rep_dir / 'stderr.txt')}")
        if self.corrupt:
            wl.corrupt(rep_dir / wl.OUTPUTS[self.stages[-1][0]][0])
        for stage, _args in self.stages:
            self.check_output(stage, rep_dir / wl.OUTPUTS[stage][0])
        return {"dir": rep_dir, "walls": walls, "wall": total, "rss": rss, "cpu": cpu}

    def check_output(self, stage: str, path: Path, subset: bool = False) -> dict | None:
        kind = wl.OUTPUTS[stage][1]
        want = (self.refs or {}).get(stage)
        try:
            got = wl.summarize(kind, path)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.checks.record(False, f"{stage} output", f"unreadable: {exc}")
            return None
        if want is None:
            self.checks.record(False, f"{stage} output",
                               f"no reference for input set {self.k} ({self.size})")
            return got
        bad = wl.compare(kind, got, want, subset=subset)
        self.checks.record(not bad, f"{stage} output", "; ".join(bad))
        return got

    def same_bytes(self, stage: str, a: Path, b: Path) -> None:
        name = wl.OUTPUTS[stage][0]
        da, db = digest(a / name), digest(b / name)
        self.checks.record(da is not None and da == db, f"{stage} rerun byte-identical")

    # -- trace 0 -------------------------------------------------------------

    def setup_times(self) -> list[float]:
        """A fresh interpreter importing mirpath.cli and building the parser,
        in scaled CPU seconds.  One unmeasured warm-up launch fills the
        bytecode cache first."""
        setup_dir = self.work / "setup"
        setup_dir.mkdir()
        out = []
        for n in range(SETUP_LAUNCHES + 1):
            probes: list[float] = []
            code, _wall, _rss, cpu = spawn(SETUP_LAUNCH, setup_dir, probes)
            self.checks.record(code == 0, "setup launch exit code", f"{code}")
            if n:
                out.append(speed.scaled(cpu, probes))
        return out

    def end_to_end(self, seconds: float) -> dict:
        # children inherit the core, so the probes measure the core they run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        setups = self.setup_times()
        reps: list[dict] = []
        start = time.perf_counter()
        while len(reps) < MAX_REPS:
            reps.append(self.rep(f"rep{len(reps)}", probed=True))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall"] for r in reps)
            if len(reps) >= MIN_REPS and elapsed + typical > seconds:
                break
            if elapsed + typical > RUN_DEADLINE:
                break
        for r in reps[1:]:
            for stage, _args in self.stages:
                self.same_bytes(stage, reps[0]["dir"], r["dir"])
        return {
            "cpu_s": statistics.median(r["cpu"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["rss"] for r in reps),
        }

    # -- trace 1 -------------------------------------------------------------

    def traced_rep(self, plain: dict) -> tuple[dict, list[dict]]:
        """Replay the sequence under the tracer, one process per stage; the
        outputs must pass the same checks and equal the untraced ones."""
        rep_dir = self.work / "traced"
        rep_dir.mkdir()
        walls, traces = {}, []
        for stage, args in self.stages:
            calls = [args]
            if stage == "verify":
                calls = [[*args[:-1], f"verify-{suite}.json", "--suite", suite]
                         for suite in SUITES]
            job = rep_dir / f"job-{stage}.json"
            job.write_text(json.dumps({"calls": calls, "out": f"spans-{stage}.json"}),
                           encoding="utf-8")
            code, wall, _rss, _cpu = spawn([str(BENCH / "tracer.py"), job.name], rep_dir)
            walls[stage] = wall
            spans = rep_dir / f"spans-{stage}.json"
            if self.checks.record(code == 0 and spans.is_file(), f"traced {stage} exit code", f"{code}"):
                trace = json.loads(spans.read_text(encoding="utf-8"))
            else:
                trace = {"names": [], "spans": [], "bytes": {}, "star_cache": None}
            trace["stage"] = stage
            traces.append(trace)
        for stage, _args in self.stages:
            if stage == "verify":
                plain_suites = wl.summarize("verify", plain["dir"] / "verify.json")["suites"]
                for suite in SUITES:
                    got = self.check_output(stage, rep_dir / f"verify-{suite}.json", subset=True)
                    self.checks.record(
                        got is not None and got["suites"].get(suite) == plain_suites.get(suite),
                        f"traced suite {suite} equals untraced")
            else:
                self.check_output(stage, rep_dir / wl.OUTPUTS[stage][0])
                self.same_bytes(stage, plain["dir"], rep_dir)
        return walls, traces

    def per_layer(self) -> dict:
        plain = self.rep("plain")
        walls, traces = self.traced_rep(plain)
        WORK.mkdir(exist_ok=True)
        spans_file = WORK / f"spans-{self.workload}-seed{self.seed}.json"
        spans_file.write_text(json.dumps(
            {"workload": self.workload, "seed": self.seed, "stages": traces},
            separators=(",", ":")), encoding="utf-8")
        return layer_metrics(self, plain, walls, traces)


SUITES = (
    "graft-prelie", "graft-nap", "star-associative", "deshuffle-coalgebra",
    "bialgebra", "insertion-prelie", "coproduct-routes", "adjointness",
    "translate-identity", "translate-morphism", "translate-population",
    "exp-log", "chen", "upsilon-morphism", "upsilon-leibniz",
)

FUNCTIONS = (
    "group.chen_compose", "group.log_element", "group.exp_element",
    "solver.logode_step", "solver.davie_expansion", "solver.lookup",
    "fields.upsilon",
    "lifts.lift_piecewise_linear", "lifts.lift_brownian",
    "lifts.grid_to_json", "lifts.grid_from_json",
    "grammar.parse_multi_index",
    "algebra.prelie_graft", "algebra.gl_product",
    "algebra.graft_simultaneous", "algebra.deshuffle",
    "translation.coproduct_minus.direct", "translation.coproduct_minus.transpose",
    "translation.translate", "translation.m_ell", "translation.translate_roughpath",
)

STAGES = ("lift", "solve", "davie", "translate", "verify")


def layer_metrics(run: Run, plain: dict, walls: dict, traces: list[dict]) -> dict:
    totals: dict[str, dict[str, float]] = {}
    by_stage = {}
    for trace in traces:
        stage_totals = tracer.layer_totals(trace)
        by_stage[trace["stage"]] = (trace, stage_totals)
        for name, row in stage_totals.items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]

    def chen_in(stage: str) -> int:
        return by_stage[stage][1].get("group.chen_compose", {}).get("calls", 0)

    def plain_count(stage: str, field: str, minus: int = 0) -> int:
        """A size read from the untraced output of ``stage``; 0 if absent."""
        name, kind = wl.OUTPUTS[stage]
        try:
            return wl.summarize(kind, plain["dir"] / name)[field] - minus
        except (OSError, ValueError, KeyError):
            return 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["group.chen_per_step"] = 0.0
    out["group.chen_per_pair"] = 0.0
    if "solve" in by_stage:
        out["group.chen_per_step"] = ratio(chen_in("solve"), plain_count("solve", "n", 1))
    if "davie" in by_stage:
        under = tracer.count_under(by_stage["davie"][0], "group.chen_compose",
                                   "solver.davie_residual_report")
        out["group.chen_per_pair"] = ratio(under, plain_count("davie", "n_rows"))
    out["lifts.segment_s"] = 0.0
    lift_row = by_stage.get("lift", (None, {}))[1].get("lifts.lift_piecewise_linear")
    if lift_row:
        out["lifts.segment_s"] = ratio(lift_row["self_s"], plain_count("lift", "n", 1))
    out["lifts.grid_to_json.bytes_out"] = sum(t["bytes"].get("lifts.grid_to_json", 0) for t in traces)
    out["lifts.grid_from_json.bytes_in"] = sum(t["bytes"].get("lifts.grid_from_json", 0) for t in traces)
    caches = [t["star_cache"] for t in traces if t["star_cache"] is not None]
    lookups = sum(c["hits"] + c["misses"] for c in caches)
    out["algebra.star_cache.entries"] = max((c["entries"] for c in caches), default=0)
    out["algebra.star_cache.hit_ratio"] = ratio(sum(c["hits"] for c in caches), lookups)

    suite_runs = []
    if "verify" in by_stage:
        trace = by_stage["verify"][0]
        names = trace["names"]
        suite_runs = [end - start for nid, start, end, _p in trace["spans"]
                      if names[nid] == "verify.run_all_suites"]
    for i, suite in enumerate(SUITES):
        out[f"verify.{suite}.elapsed_s"] = suite_runs[i] if i < len(suite_runs) else 0.0
        checked = 0
        path = run.work / "traced" / f"verify-{suite}.json"
        if path.is_file():
            checked = wl.summarize("verify", path)["suites"].get(suite, [0])[0]
        out[f"verify.{suite}.checked"] = checked

    for stage in STAGES:
        self_s = 0.0
        if stage in by_stage:
            layer_time = sum(row["top_s"] for row in by_stage[stage][1].values())
            self_s = walls[stage] - layer_time
        out[f"cli.{stage}.self_s"] = self_s
        out[f"cli.{stage}.wall_s"] = plain["walls"].get(stage, 0.0)
    out["trace.overhead_s"] = sum(walls.values()) - plain["wall"]
    out["fail_frac"] = run.checks.failed / run.checks.attempted
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(wl.SIZES), default="full",
                        help="'smoke' is a tiny size for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="damage one output before it is checked (self-test)")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (SRC / "mirpath" / "cli.py").is_file():
        print(f"error: no mirpath sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(args, work)
        values = run.per_layer() if args.trace else run.end_to_end(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checks = run.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
