"""Steadiness report: repeated runs, medians and quartiles against bounds.

Run from the root of a source checkout::

    python3 perfbench/steady.py --workloads corpus,sweep --seeds 1-10 \\
        --out .perfbench/steady-a.json
    python3 perfbench/steady.py --report .perfbench/steady-a.json \\
        --compare .perfbench/steady-b.json

For every workload and seed it runs ``perfbench/run.py`` once (untraced)
and keeps the result.  For every end-to-end metric it prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``: a spread within the bound passes, and a spread
within a third of it is the margin the benchmark aims for.  With
``--compare`` it also prints how far the second set's median moved from
the first one's, in the metric's worse direction, against the bound.
The figures under the workloads' own names (``ingest_rps``, ``mc_s``,
...) are listed with their quartiles too; they have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def collect(workloads: list[str], seeds: list[int], seconds: float) -> dict:
    runs: dict[str, list] = {w: [] for w in workloads}
    for workload in workloads:
        for seed in seeds:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr[-2000:])
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            named = next(json.loads(line[len("named: "):]) for line in lines
                         if line.startswith("named: "))
            result = json.loads(lines[-1])
            runs[workload].append({"seed": seed, "result": result,
                                   "named": named["named"]})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"in {time.monotonic() - started:.0f} s",
                  file=sys.stderr, flush=True)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def table(runs: dict, spec: dict, other: dict | None) -> bool:
    """Print the report; return whether every spread is within its bound."""
    ok = True
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload, entries in runs.items():
        print(f"\n== {workload}: {len(entries)} runs, seeds "
              f"{[e['seed'] for e in entries]}")
        print(f"  {'metric':<14}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict"
              + ("    moved" if other else ""))
        for name, meta in bounds.items():
            values = [e["result"]["metrics"][name]["value"] for e in entries]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            bound = meta["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict, ok = "TOO NOISY", False
            line = (f"  {name:<14}{meta['unit']:>6}{med:>12.4f}{q1:>12.4f}"
                    f"{q3:>12.4f}{spread:>9.3f}{bound:>7.2f}  {verdict}")
            if other and workload in other:
                base = statistics.median(
                    e["result"]["metrics"][name]["value"] for e in other[workload])
                worse = (med - base) / base
                if meta["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= bound else "WORSE"
                ok &= worse <= bound
                line += f"  {worse:+.3f} {flag}"
            print(line)
        print("  named figures (no bound):")
        for name, (_, unit) in entries[0]["named"].items():
            values = [e["named"][name][0] for e in entries]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"    {name:<16}{unit:>10}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}")
        failed = sum(e["result"]["failed"] for e in entries)
        attempted = sum(e["result"]["attempted"] for e in entries)
        correct = all(e["result"]["correct"] for e in entries)
        print(f"  all outputs correct: {correct}; operations failed "
              f"{failed} of {attempted}")
        ok &= correct
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, help="save the runs here")
    parser.add_argument("--report", type=Path,
                        help="report saved runs instead of running")
    parser.add_argument("--compare", type=Path,
                        help="saved runs of a second set, to compare against")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.report:
        runs = json.loads(args.report.read_text(encoding="utf-8"))
    else:
        seconds = args.seconds or spec["run_seconds"]
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in spec["workloads"]])
        runs = collect(workloads, seeds_of(args.seeds), seconds)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(runs), encoding="utf-8")
    other = None
    if args.compare:
        other = json.loads(args.compare.read_text(encoding="utf-8"))
    return 0 if table(runs, spec, other) else 1


if __name__ == "__main__":
    sys.exit(main())
