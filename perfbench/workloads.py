"""The benchmark workloads: inputs drawn from a seed, the timed call, and checks.

Every workload calls mslmix through module attributes (``bandwidth.fit_adaptive``,
``cli.main``), so the fit probe and the tracer see each call. Inputs are made
in ``prepare``, outside the timed call.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from mslmix import bandwidth, cli, kernels, metrics, simulation, smoothing
from mslmix.engine import FitConfig

#: Weights lie in [0, 1]; at the default tolerance 1e-5 the extra-update
#: change stays near 1e-3 on these designs (the test suite's 1e-3 bound is
#: calibrated on single datasets), so 1e-2 flags a fit that stopped early.
GAP_MAX = 1e-2
#: Consecutive log-likelihood drops over the frozen tail larger than this
#: share of |loglik| count as a broken ascent (float rounding is ~1e-14).
MONOTONE_RTOL = 1e-12
WARM_UP = 2**31  # input index reserved for the warm-up call


def rng(*keys: int) -> np.random.Generator:
    return np.random.default_rng(list(keys))


def fit_failures(result) -> list[str]:
    """Output checks shared by every fit: convergence, ascent, fixed point,
    and components that are densities on the fit's grid."""
    errors = []
    if not result.converged:
        errors.append("fit did not converge")
    tail = np.asarray(result.loglik_trace[result.diagnostics.get("frozen_at") or 0 :])
    if tail.size > 1 and np.diff(tail).min() < -MONOTONE_RTOL * np.abs(tail).max():
        errors.append(f"loglik fell by {-np.diff(tail).min():.3g} over the frozen tail")
    if not result.fixed_point_gap < GAP_MAX:
        errors.append(f"fixed_point_gap {result.fixed_point_gap:.3g} >= {GAP_MAX}")
    for j, component in enumerate(result.components):
        density = smoothing.eval_on_grid(component, result.grid)
        mass = kernels.trapezoid(density)
        if density.values.min() < 0 or abs(mass - 1.0) > cli.MASS_TOL:
            errors.append(f"component {j + 1}: min {density.values.min():.3g}, mass {mass:.12g}")
    return errors


def component_ise(result, design: simulation.StudyDesign) -> list[float]:
    """ISE of each fitted component against the study truth, on the grid
    ``run_replications`` uses: the truth window widened to every kernel window."""
    xs = result.components[0].xs
    reach = kernels.QUARTIC.half_width * float(np.max(result.bandwidths)) + 1e-9
    grid = kernels.Grid.over(
        min(design.eval_range[0], float(xs.min()) - reach),
        max(design.eval_range[1], float(xs.max()) + reach),
        1024,
    )
    return [
        metrics.ise(
            metrics.DensityPair.from_callable(smoothing.eval_on_grid(c, grid), truth)
        )
        for c, truth in zip(result.components, design.truths)
    ]


class FitLarge:
    """``fit_adaptive`` on Study 1 at n = 6400, one fit per operation.

    A run holds only a few fits of several seconds, and the ISE of one fit
    varies by about half between datasets, so the datasets come from a fixed
    panel (fit i uses panel entry i); ``--seed`` sets each fit's starting
    weights. The warm-up fit is at n = 400, so set-up stays short and the
    first timed fit's peak RSS is its own.
    """

    name = "fit-large"
    n = 6400
    panel_seed = 6400
    panel_size = 16
    design = simulation.STUDIES["1"]
    fits_per_op = 1
    ise_ops = min_ops = 3
    tail_percentile = 100  # a run holds too few fits to leave 10 beyond any lower one

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        self.run(self.prepare(WARM_UP))

    def prepare(self, i: int):
        if i == WARM_UP:
            sample = simulation.gen_study1(400, rng(self.seed, i))
        else:
            sample = simulation.gen_study1(self.n, rng(self.panel_seed, i % self.panel_size))
        return sample, FitConfig(seed=int(rng(self.seed, i, 1).integers(2**63)))

    def run(self, job) -> None:
        bandwidth.fit_adaptive(*job)

    def check(self, i: int, job, fits) -> tuple[list[str], list[float]]:
        (_, result), = fits
        errors = fit_failures(result)
        ises = component_ise(result, self.design) if i < self.ise_ops else []
        return errors, ises


class SimulateS3:
    """``mslmix simulate --study 3 --estimators proposed,simple`` in-process.

    Call i uses master seed ``seeds[i % distinct]``, so from call
    ``distinct`` on every report has an earlier same-seed report to match
    byte for byte.
    """

    name = "simulate-s3"
    reps = 10
    distinct = 12
    fits_per_op = reps
    ise_ops = distinct
    min_ops = distinct + 1
    tail_percentile = 90  # about 200 fits per 30 s run

    def __init__(self, seed: int, workdir: Path):
        self.seeds = [int(rng(seed, k).integers(2**31)) for k in range(self.distinct)]
        self.warm_seed = int(rng(seed, WARM_UP).integers(2**31))
        self.workdir = workdir
        self.first_csv: dict[int, bytes] = {}

    def _argv(self, reps: int, seed: int, outdir: Path) -> list[str]:
        return [
            "simulate", "--study", "3", "--estimators", "proposed,simple",
            "--reps", str(reps), "--seed", str(seed), "--output", str(outdir),
        ]

    def warm_up(self) -> None:
        if cli.main(self._argv(1, self.warm_seed, self.workdir / "warm-up")) != 0:
            raise RuntimeError("warm-up simulate call failed")

    def prepare(self, i: int):
        k = i % self.distinct
        return k, self._argv(self.reps, self.seeds[k], self.workdir / f"seed-{k}")

    def run(self, job) -> None:
        self.status = cli.main(job[1])

    def check(self, i: int, job, fits) -> tuple[list[str], list[float]]:
        k, argv = job
        outdir = Path(argv[-1])
        if self.status != 0:
            return [f"simulate exited {self.status}"], []
        errors = []
        csv = (outdir / "report.csv").read_bytes()
        if self.first_csv.setdefault(k, csv) != csv:
            errors.append(f"report.csv differs from the earlier run of seed {self.seeds[k]}")
        report = json.loads((outdir / "report.json").read_text())
        if report["failures"]:
            errors.append(f"report.failures: {report['failures']}")
        ises = [v for row in report["per_replicate_ise"]["proposed"] for v in row]
        if not all(v is not None and math.isfinite(v) for v in ises):
            errors.append("non-finite proposed ISE in report.json")
        if len(fits) != self.reps:
            errors.append(f"{len(fits)} fits for {self.reps} replicates")
        for _, result in fits:
            errors += fit_failures(result)
        return errors, (ises if i < self.ise_ops and not errors else [])


def make(name: str, seed: int, workdir: Path):
    if name == SimulateS3.name:
        return SimulateS3(seed, workdir)
    return FitLarge(seed)
