"""Benchmark runner: one workload, one seed, every metric.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Each measurement runs ``perfbench/worker.py`` in a fresh interpreter
against ``src/``.  With ``--trace 0`` the runner times set-up in
``SETUP_RUNS`` fresh interpreters (the middle one goes on to the timed
work) and reports every end-to-end metric of ``BENCHMARK.json``.  With
``--trace 1`` it makes one untraced and one traced run and reports every
per-layer metric, the per-layer self times and the tracing overhead.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "sweep", "serve")
#: Fresh interpreters that time set-up in an untraced run.
SETUP_RUNS = 3
#: Wall-clock budget of one invocation; children get what is left.
BUDGET_S = 170.0

def load_spec(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit(root: Path) -> str:
    """The checkout's commit, when it is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float
                 ) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        base = root / ".perfbench"
        self.work = base / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONPYCACHEPREFIX"] = str(base / "pycache")
        self.env["PYTHONHASHSEED"] = "0"
        # Set-up is timed with the bytecode cached, as an installed
        # package runs; compiling 26k lines on each start would hide
        # the import cost behind the compile cost.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # SQLite and tempfile put their scratch files here, inside the
        # checkout.
        self.env["TMPDIR"] = self.env["SQLITE_TMPDIR"] = str(self.work / "tmp")
        self.pycache_ready = (base / "pycache").is_dir()

    def child(self, mode: str, trace: int, index: int) -> dict:
        """Run worker.py once in a fresh interpreter; return its result."""
        out = self.work / f"result-{index}.json"
        remaining = BUDGET_S - (time.monotonic() - self.started)
        # The run's --seconds of load are shared out over the fresh
        # interpreters (on serve, each runs the load loop).
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", str(self.seconds / SETUP_RUNS), "--mode", mode,
               "--trace", str(trace), "--work", str(self.work / str(index)),
               "--out", str(out)]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              stdout=sys.stderr, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(
                f"worker {self.workload}/{mode} exited {proc.returncode}")
        return json.loads(out.read_text(encoding="utf-8"))

    def warm_bytecode(self) -> None:
        """Compile the program's bytecode once, so that no timed set-up
        pays for it (a later run in this checkout finds it cached)."""
        if self.pycache_ready:
            return
        subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, repro.corpus.store, repro.continuum, "
             "repro.stats.fanout, repro.serve, repro.pipeline.study"],
            cwd=self.root, env=self.env, check=True, timeout=300)

    def run(self, trace: int) -> tuple[dict, list[dict]]:
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        try:
            self.warm_bytecode()
            if trace:
                runs = [self.child("run", 0, 0), self.child("run", 1, 1)]
                spans = self.work / "1" / "spans.ndjson"
                spans.replace(self.work.parent
                              / f"spans-{self.workload}-{self.seed}.ndjson")
            else:
                # Set-up is timed before and after the measured run, so
                # its median samples the machine over the whole run.
                before = (SETUP_RUNS - 1) // 2
                runs = [self.child("run" if i == before else "setup", 0, i)
                        for i in range(SETUP_RUNS)]
                runs.append(runs.pop(before))   # the measured run last
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return runs[-1], runs


def summarize(main: dict, runs: list[dict], trace: int, spec: dict) -> dict:
    """The result object (last output line) of one invocation."""
    if trace:
        untraced = runs[0]
        # work_s is the timed work (per request on serve workloads), so
        # the ratio is the traced run's slowdown.
        metrics = {m["name"]: {"value": float(main["layers"].get(m["name"], 0.0)),
                               "unit": m["unit"]} for m in spec["per_layer"]}
        overhead = (main["work_s"] / untraced["work_s"] - 1.0) * 100.0
        metrics["trace.overhead_pct"]["value"] = overhead
        correct = all(run["checks"] and all(run["checks"].values()) for run in runs)
    else:
        # Each figure is the median over the fresh interpreters that
        # measured it: set-up figures in every one, the timed work's
        # figures in the measured run (on serve, the load's in every one).
        values = {}
        for part in ("setup", "metrics"):
            for key in main[part]:
                values[key] = statistics.median(
                    run[part][key] for run in runs if key in run[part])
        metrics = {m["name"]: {"value": float(values[m["name"]]),
                               "unit": m["unit"]} for m in spec["end_to_end"]}
        correct = bool(main["checks"]) and all(main["checks"].values())
    return {
        "correct": correct,
        "attempted": int(sum(run["attempted"] for run in runs)) or 1,
        "failed": int(sum(run["failed"] for run in runs)),
        "metrics": metrics,
    }


def report(workload: str, seed: int, trace: int, main: dict, runs: list[dict],
           result: dict, root: Path) -> None:
    """Human-readable lines, printed before the result object."""
    print(f"== workload {workload}  seed {seed}  trace {trace}")
    env = dict(main["environment"], commit=git_commit(root))
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if not trace:
        setups = [run["setup"]["setup_s"] for run in runs]
        print("setup_s per fresh interpreter: "
              + ", ".join(f"{s:.3f}" for s in setups))
    for name, (value, unit) in main["named"].items():
        print(f"  {name:<24} {value:>14.4f} {unit}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.4f} {entry['unit']}")
    checks: dict[str, bool] = {}
    for run in runs:
        for name, ok in run["checks"].items():
            checks[name] = checks.get(name, True) and ok
    for name, ok in sorted(checks.items()):
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    print("named: " + json.dumps({"workload": workload, "seed": seed,
                                  "named": main["named"]}))


def run_one(root: Path, spec: dict, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    runner = Runner(root, workload, seed, seconds)
    main, runs = runner.run(trace)
    result = summarize(main, runs, trace, spec)
    report(workload, seed, trace, main, runs, result, root)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Stopped from outside, unwind as on an error: the running worker is
    # killed and waited for, and its run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: no src/repro here; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.workload != "all":
        result = run_one(root, spec, args.workload, args.seed, args.seconds,
                         args.trace)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(root, spec, workload, args.seed, args.seconds,
                         args.trace)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
