#!/usr/bin/env python3
"""Fit a fixed panel of samples and compare the fits of two code versions.

    python scripts/fit_panel.py --output panel.json
    python scripts/fit_panel.py --compare before.json after.json

The panel is Studies 1-3, four datasets each, adaptive and fixed-bandwidth
fits, and max_iterations 1, 3 and 500: 72 fits. ``--output`` writes every
field of each FitResult, plus each component tabulated on the fit's grid, as
full-precision JSON. ``--compare`` prints the largest difference per field
over the panel and exits 1 when any discrete field differs (iterations,
converged, frozen_at, bandwidths, grid, degenerate_rows, the other
diagnostics, an error) or when the two panels do not hold the same fits.
"""

import argparse
import json
import sys

import numpy as np

from mslmix import fit_adaptive, fit_fixed_bandwidth
from mslmix.engine import FitConfig
from mslmix.simulation import STUDIES
from mslmix.smoothing import eval_on_grid

FIXED_BANDWIDTHS = {"1": [0.6, 0.8], "2": [4.92, 11.08], "3": [0.6, 0.8]}
DATASETS = 4
BUDGETS = (1, 3, 500)

DISCRETE = (
    "error",
    "iterations",
    "converged",
    "frozen_at",
    "bandwidths",
    "grid",
    "degenerate_rows",
    "diagnostics",
)
CONTINUOUS = ("weights", "loglik_trace", "fixed_point_gap", "bandwidth_trace", "densities")


def record(result) -> dict:
    diagnostics = dict(result.diagnostics)
    g = result.grid
    return {
        "iterations": result.iterations,
        "converged": result.converged,
        "frozen_at": diagnostics.pop("frozen_at", None),
        "bandwidths": result.bandwidths.tolist(),
        "grid": [g.x0, g.dx, g.count],
        "degenerate_rows": diagnostics.pop("degenerate_rows"),
        "diagnostics": diagnostics,
        "weights": result.weights.tolist(),
        "loglik_trace": result.loglik_trace.tolist(),
        "fixed_point_gap": result.fixed_point_gap,
        "bandwidth_trace": None
        if result.bandwidth_trace is None
        else result.bandwidth_trace.tolist(),
        "densities": [eval_on_grid(c, g).values.tolist() for c in result.components],
    }


def panel() -> dict:
    fits = {}
    for sid, hs in FIXED_BANDWIDTHS.items():
        for d in range(DATASETS):
            sample = STUDIES[sid].sample(np.random.default_rng([int(sid), d]))
            for budget in BUDGETS:
                config = FitConfig(seed=d, max_iterations=budget)
                for mode in ("adaptive", "fixed"):
                    try:
                        if mode == "adaptive":
                            result = fit_adaptive(sample, config)
                        else:
                            result = fit_fixed_bandwidth(sample, hs, config)
                        entry = record(result)
                    except Exception as exc:  # recorded, compared as a field
                        entry = {"error": f"{type(exc).__name__}: {exc}"}
                    fits[f"study{sid}/data{d}/{mode}/max{budget}"] = entry
    return fits


def largest_difference(a, b) -> tuple[float, float] | None:
    """(max abs, max relative) difference of two equal-shape numeric values,
    or None when the shapes differ. Equal infinities count as no difference;
    an infinity against any other value is an infinite relative difference."""
    if a is None or b is None:
        return (0.0, 0.0) if a is b else None
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return None
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.abs(np.subtract(a, b, out=np.zeros(a.shape), where=~same))
    if not diff.size:
        return 0.0, 0.0
    scale = np.maximum(np.abs(a), np.abs(b))
    differ = diff > 0
    rel = np.divide(
        diff, scale, out=np.where(differ, np.inf, 0.0), where=differ & np.isfinite(scale)
    )
    return float(diff.max()), float(rel.max())


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    failed = False
    if a.keys() != b.keys():
        print(f"fits only in one panel: {sorted(a.keys() ^ b.keys())}")
        failed = True
    keys = sorted(a.keys() & b.keys())
    print(f"{len(keys)} fits compared")
    for name in DISCRETE:
        bad = [k for k in keys if a[k].get(name) != b[k].get(name)]
        failed |= bool(bad)
        shown = f"  e.g. {bad[0]}" if bad else ""
        print(f"{name:<17} {'identical' if not bad else f'{len(bad)} differ'}{shown}")
    for name in CONTINUOUS:
        worst_abs = worst_rel = 0.0
        at = ""
        for k in keys:
            if name not in a[k] or name not in b[k]:
                continue  # an error entry, reported above
            d = largest_difference(a[k][name], b[k][name])
            if d is None:
                print(f"{name:<17} shape differs at {k}")
                failed = True
                continue
            if d[0] > worst_abs:
                at = f"  at {k}"
            worst_abs, worst_rel = max(worst_abs, d[0]), max(worst_rel, d[1])
        print(f"{name:<17} max abs {worst_abs:.3g}  max rel {worst_rel:.3g}{at}")
    print("discrete fields differ" if failed else "discrete fields identical")
    return int(failed)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--output", metavar="PANEL_JSON")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    with open(args.output, "w") as f:
        json.dump(panel(), f)


if __name__ == "__main__":
    main()
