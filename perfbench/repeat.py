"""Repeat mode: run workloads on several seeds and report run-to-run spread.

    python3 perfbench/repeat.py --runs 10 [--workloads sum_em,sum_long] [--seconds 20]

Runs perfbench/run.py once per seed (1..runs, or --first-seed onwards) and
workload, one run at a time.  For each end-to-end metric it prints the
median, the quartiles and the spread, (Q3 - Q1) / median with quartiles as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json.  A spread above the bound makes the metric unusable
for regression checks; below a third of the bound is the target.  The
summary is also written to .perfbench_out/repeat-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(Path(__file__).with_name("run.py")),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    return result


def spread(values: "list[float]") -> "tuple[float, float, float, float]":
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("quartiles need at least 4 runs")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    worst = 0.0
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        print(f"\n{workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        print(f"{'metric':<20}{'median':>12}{'Q1':>12}{'Q3':>12}{'spread':>9}{'bound':>8}  verdict")
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(values)
            if name == "setup_s":
                verdict = "not gated"
            else:
                verdict = "ok" if sp <= bound / 3 else ("within bound" if sp <= bound else "TOO WIDE")
                worst = max(worst, sp / bound)
            print(f"{name:<20}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{sp:>9.2%}{bound:>8.2%}  {verdict}")
            summary[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bound}
        (out_dir / f"repeat-{workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nwidest spread: {worst:.2f} of its bound")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
