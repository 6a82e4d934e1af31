# Batch front end: CSV ingestion, fitting, simulation, and plot-ready
# outputs. Every run either writes its artifacts and exits 0, or writes
# error.json and exits nonzero.

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .bandwidth import fit_adaptive
from .data import MixtureSample
from .engine import FitConfig, FitResult, fit_fixed_bandwidth
from .kernels import GridDensity, trapezoid
from .simulation import STUDIES, run_replications
from .smoothing import eval_on_grid

__all__ = ["ingest_csv", "write_sample_csv", "cmd_fit", "cmd_simulate", "main"]

ROW_SUM_INGEST_TOL = 1e-6
MASS_TOL = 1e-6


def ingest_csv(path: str | Path, expected_components: int | None = None) -> MixtureSample:
    """Read observations with explicit mixing proportions.

    The header must be ``x,alpha_1,...,alpha_M``; every alpha row must sum
    to 1 within 1e-6 (and is renormalized exactly on ingest), and every x
    must be finite. Malformed rows are reported with their line number.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        expected_header = ["x"] + [f"alpha_{j + 1}" for j in range(len(header) - 1)]
        if len(header) < 2 or header != expected_header:
            raise ValueError(
                f"{path}: header must be x,alpha_1,...,alpha_M, got {','.join(header)}"
            )
        M = len(header) - 1
        if expected_components is not None and expected_components != M:
            raise ValueError(
                f"{path}: expected {expected_components} components, header has {M}"
            )
        xs = []
        alphas = []
        for row in reader:
            line = reader.line_num
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != M + 1:
                raise ValueError(
                    f"{path}:{line}: expected {M + 1} fields, got {len(row)}"
                )
            try:
                values = [float(c) for c in row]
            except ValueError:
                raise ValueError(f"{path}:{line}: non-numeric field in {row}")
            if not np.isfinite(values[0]):
                raise ValueError(f"{path}:{line}: x must be finite, got {row[0].strip()}")
            a = np.array(values[1:])
            if not np.all((a >= 0) & (a <= 1 + ROW_SUM_INGEST_TOL)):
                raise ValueError(
                    f"{path}:{line}: proportions must lie in [0, 1]"
                )
            total = a.sum()
            if abs(total - 1.0) > ROW_SUM_INGEST_TOL:
                raise ValueError(
                    f"{path}:{line}: proportions sum to {total:.9g}, not 1"
                )
            xs.append(values[0])
            alphas.append(a / total)
    if not xs:
        raise ValueError(f"{path}: no data rows")
    return MixtureSample(np.array(xs), np.array(alphas))


def write_sample_csv(sample: MixtureSample, path: str | Path) -> None:
    """Write a sample in the ingestion format, round-trippable to full
    float precision."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        M = sample.n_components
        fh.write("x," + ",".join(f"alpha_{j + 1}" for j in range(M)) + "\n")
        for x, row in zip(sample.xs, sample.alphas):
            fh.write(f"{x:.17g}," + ",".join(f"{a:.17g}" for a in row) + "\n")


def _write_error(outdir: Path, exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    (outdir / "error.json").write_text(json.dumps(doc, indent=2) + "\n")


def _resolve_seed(arg_seed: int | None) -> int:
    if arg_seed is not None:
        return arg_seed
    return int(np.random.SeedSequence().entropy)


def _config(args, seed: int | None = None) -> FitConfig:
    """The fit settings of the flags every command shares."""
    return FitConfig(
        tolerance=args.tol,
        max_iterations=args.max_iter,
        grid_size=args.grid_size,
        seed=seed,
    )


def _fit_bundle(result: FitResult, mode: str, config: FitConfig, input_path) -> dict:
    col_sums = result.weights.sum(axis=0)
    input_path = Path(input_path)
    return {
        "command": "fit",
        "mode": mode,
        "seed": config.seed,
        # the file's name and content, not where it lives
        "input": {
            "name": input_path.name,
            "sha256": hashlib.sha256(input_path.read_bytes()).hexdigest(),
        },
        "config": {
            k: getattr(config, k) for k in ("tolerance", "max_iterations", "grid_size")
        },
        "converged": result.converged,
        "iterations": result.iterations,
        "bandwidths": [float(h) for h in result.bandwidths],
        "fixed_point_gap": result.fixed_point_gap,
        "loglik_trace": [float(v) for v in result.loglik_trace],
        "bandwidth_trace": None
        if result.bandwidth_trace is None
        else [[float(h) for h in row] for row in result.bandwidth_trace],
        "grid": {
            "x0": result.grid.x0,
            "dx": result.grid.dx,
            "count": result.grid.count,
        },
        "weights_summary": {
            "column_sums": [float(v) for v in col_sums],
            "degenerate_rows": result.diagnostics.get("degenerate_rows", []),
        },
        "diagnostics": {
            k: v for k, v in result.diagnostics.items() if k != "degenerate_rows"
        },
    }


def cmd_fit(args) -> None:
    outdir = Path(args.output)
    sample = ingest_csv(args.input, args.components)
    config = _config(args, _resolve_seed(args.seed))
    if args.bandwidth is not None:
        if len(args.bandwidth) != sample.n_components:
            raise ValueError(
                f"--bandwidth needs {sample.n_components} values, "
                f"got {len(args.bandwidth)}"
            )
        result = fit_fixed_bandwidth(sample, args.bandwidth, config)
        mode = "fixed"
    else:
        result = fit_adaptive(sample, config)
        mode = "adaptive"

    densities = [eval_on_grid(c, result.grid) for c in result.components]
    for j, d in enumerate(densities):
        mass = trapezoid(d)
        if np.any(d.values < 0) or abs(mass - 1.0) > MASS_TOL:
            raise RuntimeError(
                f"fitted component {j + 1} is not a valid density "
                f"(grid mass {mass:.9g})"
            )
    _write_densities_csv(outdir / "densities.csv", result, densities)
    bundle = _fit_bundle(result, mode, config, args.input)
    bundle["components"] = [
        {"bandwidth": float(h), "grid_mass": trapezoid(d)}
        for h, d in zip(result.bandwidths, densities)
    ]
    (outdir / "result.json").write_text(json.dumps(bundle, indent=2) + "\n")


def _write_densities_csv(path: Path, result: FitResult, densities: list[GridDensity]):
    M = len(densities)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("grid_x," + ",".join(f"f_{j + 1}" for j in range(M)) + "\n")
        points = result.grid.points
        cols = [d.values for d in densities]
        for k in range(result.grid.count):
            fh.write(
                f"{points[k]:.17g},"
                + ",".join(f"{c[k]:.17g}" for c in cols)
                + "\n"
            )


def cmd_simulate(args) -> None:
    outdir = Path(args.output)
    if args.study not in STUDIES:
        raise ValueError(f"unknown study {args.study!r}; choose 1, 2, or 3")
    design = STUDIES[args.study]
    estimators = tuple(args.estimators.split(","))
    seed = _resolve_seed(args.seed)
    report = run_replications(
        design,
        args.reps,
        config=_config(args),
        estimators=estimators,
        master_seed=seed,
    )
    (outdir / "report.csv").write_text(report.to_csv())
    (outdir / "report.json").write_text(report.to_json() + "\n")


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mslmix",
        description=(
            "Estimate mixture component densities from observations with "
            "known per-observation mixing proportions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", required=True, help="output directory")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--tol", type=float, default=1e-5)
    common.add_argument("--max-iter", type=int, default=500)
    common.add_argument("--grid-size", type=int, default=1024)

    fit = sub.add_parser("fit", parents=[common], help="fit component densities")
    fit.add_argument("--input", required=True, help="CSV with x,alpha_1,...,alpha_M")
    fit.add_argument(
        "--bandwidth",
        type=_float_list,
        default=None,
        metavar="H1,H2,...",
        help="fixed bandwidths; omit for adaptive selection",
    )
    fit.add_argument("--components", type=int, default=None)

    sim = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo study")
    sim.add_argument("--study", required=True, choices=sorted(STUDIES))
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--estimators", default="proposed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "fit":
            cmd_fit(args)
        else:
            cmd_simulate(args)
    except Exception as exc:
        _write_error(outdir, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
