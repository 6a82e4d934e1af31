#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and judge each end-to-end metric.

    git archive <parent> | tar -x -C PARENT_DIR
    python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload simulate-s3 --pairs 10

Pair i (1..N) runs ``perfbench/run.py --seed i --trace 0`` once in each tree,
at the ``run_seconds`` that BENCHMARK.json fixes; odd pairs run the parent
first and even pairs the change first. The script exits 1, naming the run,
when any run is not ``correct`` or has ``failed > 0``.

For each end-to-end metric in BENCHMARK.json it prints every run's value, the
parent median with its quartiles [q1, q3], the change median, the pairs the
change wins (ties count for neither) and one status from the metric's
``better`` direction and relative ``bound``:

- ``worse``: the change median is worse than the parent median by more than
  the bound;
- ``unresolved``: the parent's quartile distance over its median exceeds the
  bound, and not every change run beats every parent run;
- ``ok``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, parent quartiles, wins per pair and the status of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_median, c_median = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    worse_by = sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    spread = (q3 - q1) / abs(p_median) if p_median else 0.0
    clear_win = max(sign * c for c in change) < min(sign * p for p in parent)
    if worse_by > bound:
        status = "worse"
    elif spread > bound and not clear_win:
        status = "unresolved"
    else:
        status = "ok"
    return {
        "parent_median": p_median,
        "quartiles": (q1, q3),
        "change_median": c_median,
        "wins": sum(sign * c < sign * p for p, c in zip(parent, change)),
        "status": status,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            name = f"{side} pair {seed} ({args.workload}, seed {seed})"
            try:
                result = run_once(trees[side], args.workload, seed, bench["run_seconds"])
            except (RuntimeError, ValueError, IndexError) as exc:
                print(f"{name}: run failed: {exc}", file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"] > 0:
                print(f"{name}: correct {result['correct']}, failed {result['failed']}",
                      file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values[side].setdefault(metric, []).append(entry["value"])
            print(f"{name}: done", flush=True)

    for spec in bench["end_to_end"]:
        parent, change = values["parent"].get(spec["name"]), values["change"].get(spec["name"])
        if not parent or not change:
            continue
        s = summarize(parent, change, spec["better"], spec["bound"])
        print(f"{spec['name']} ({spec['unit']}, {spec['better']} is better, bound {spec['bound']})")
        print("  parent " + " ".join(f"{v:.6g}" for v in parent))
        print("  change " + " ".join(f"{v:.6g}" for v in change))
        q1, q3 = s["quartiles"]
        print(
            f"  parent median {s['parent_median']:.6g} [{q1:.6g}, {q3:.6g}]  "
            f"change median {s['change_median']:.6g}  change wins "
            f"{s['wins']}/{len(parent)}  {s['status']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
