#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

From the repository root:

    python3 perfbench/spread.py --workloads simulate-s3 --seeds 1-5 --seconds 40
    python3 perfbench/spread.py --seeds 1-10 --trace 0 1 --out perfbench/baseline.json

For each workload and metric it prints the median and the spread, the
distance between the first and third quartiles (``statistics.quantiles``,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    return {"seed": seed, **json.loads(lines[-1])}, env


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--out", type=Path, help="write runs and summaries as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        for trace in args.trace:
            runs = []
            for seed in args.seeds:
                run, env = one_run(workload, seed, args.seconds, trace)
                runs.append(run)
                print(f"{workload} trace={trace} seed={seed} correct={runs[-1]['correct']} "
                      f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
            summary = summarise(runs, bounds)
            doc["workloads"].setdefault(workload, {})[f"trace{trace}"] = {
                "summary": summary, "runs": runs,
            }
            for name, s in summary.items():
                spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
                bound = "" if s["bound"] is None else f"  bound {s['bound']}"
                print(f"  {name:42s} {s['median']:.6g} {s['unit']:6s} spread {spread}{bound}")
    doc["env"] = env
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
