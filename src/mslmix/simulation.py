# Data generators for the three Monte Carlo studies, the subtraction
# baseline, and a deterministic replication harness that aggregates
# integrated squared errors per component.

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from .bandwidth import fit_adaptive, plugin_bandwidth
from .data import MixtureSample
from .engine import FitConfig
from .kernels import QUARTIC, Grid, GridDensity, Kernel
from .metrics import DensityPair, ise, l1_distance
from .smoothing import WeightedKernelDensity, eval_on_grid

__all__ = [
    "StudyDesign",
    "STUDIES",
    "gen_study1",
    "gen_study2",
    "gen_study3",
    "simple_estimator",
    "ReplicationReport",
    "run_replications",
]

STUDY3_N1 = 211
STUDY3_N2 = 81
STUDY3_PROPS = (0.677, 0.323)


def _ratio_alphas(n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows (a, 1-a) with a = u1 / (u1 + u2) from independent uniforms."""
    u = rng.uniform(size=(n, 2))
    a1 = u[:, 0] / (u[:, 0] + u[:, 1])
    return np.column_stack([a1, 1.0 - a1])


def _mix_draws(
    rng: np.random.Generator,
    alphas: np.ndarray,
    samplers: Sequence[Callable[[int, np.random.Generator], np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw each observation from the component picked by its alpha row."""
    n = alphas.shape[0]
    labels = (rng.random(n) >= alphas[:, 0]).astype(int)
    draws = np.column_stack([s(n, rng) for s in samplers])
    return draws[np.arange(n), labels], labels


def _std_normal(mean: float, sd: float):
    return lambda n, rng: mean + sd * rng.standard_normal(n)


def _scaled_t(loc: float, scale: float, df: float):
    return lambda n, rng: loc + scale * rng.standard_t(df, n)


def _study3_component2(n: int, rng: np.random.Generator) -> np.ndarray:
    pick = rng.random(n) < 0.48
    a = 5.68 + np.sqrt(1.04) * rng.standard_normal(n)
    b = 9.17 + np.sqrt(0.78) * rng.standard_normal(n)
    return np.where(pick, a, b)


def gen_study1(n: int, rng: np.random.Generator) -> MixtureSample:
    """Two standard-normal components with ratio-of-uniforms proportions."""
    alphas = _ratio_alphas(n, rng)
    xs, _ = _mix_draws(rng, alphas, [_std_normal(0, 1), _std_normal(0, 1)])
    return MixtureSample(xs, alphas)


def gen_study2(n: int, rng: np.random.Generator) -> MixtureSample:
    """Normal(10, var 25) vs t(df 4, center 20, scale 10) components."""
    alphas = _ratio_alphas(n, rng)
    xs, _ = _mix_draws(
        rng, alphas, [_std_normal(10, 5), _scaled_t(20, 10, 4)]
    )
    return MixtureSample(xs, alphas)


def gen_study3(rng: np.random.Generator) -> MixtureSample:
    """Two-block design: 211 mixture rows with proportions (0.677, 0.323)
    followed by 81 rows drawn purely from the second component."""
    alphas = np.vstack(
        [
            np.tile(STUDY3_PROPS, (STUDY3_N1, 1)),
            np.tile((0.0, 1.0), (STUDY3_N2, 1)),
        ]
    )
    samplers = [_std_normal(10.77, np.sqrt(1.19)), _study3_component2]
    xs, _ = _mix_draws(rng, alphas, samplers)
    return MixtureSample(xs, alphas)


def _study3_truth2(x: np.ndarray) -> np.ndarray:
    return 0.48 * stats.norm.pdf(x, 5.68, np.sqrt(1.04)) + 0.52 * stats.norm.pdf(
        x, 9.17, np.sqrt(0.78)
    )


@dataclass(frozen=True)
class StudyDesign:
    """One simulation setting: generator, true component pdfs, and the
    truth-support window (means +- 4 sd) used for error integration."""

    study_id: str
    default_n: int
    truths: tuple[Callable[[np.ndarray], np.ndarray], ...]
    eval_range: tuple[float, float]
    fixed_n: bool = False
    pure_block: int | None = None
    mixture_props: tuple[float, float] | None = None

    def sample(self, rng: np.random.Generator, n: int | None = None) -> MixtureSample:
        n = self.default_n if n is None else int(n)
        if self.fixed_n and n != self.default_n:
            raise ValueError(
                f"study {self.study_id} has a fixed design of n={self.default_n}"
            )
        if self.study_id == "1":
            return gen_study1(n, rng)
        if self.study_id == "2":
            return gen_study2(n, rng)
        return gen_study3(rng)


STUDIES: dict[str, StudyDesign] = {
    "1": StudyDesign(
        study_id="1",
        default_n=400,
        truths=(lambda x: stats.norm.pdf(x), lambda x: stats.norm.pdf(x)),
        eval_range=(-4.0, 4.0),
    ),
    "2": StudyDesign(
        study_id="2",
        default_n=400,
        truths=(
            lambda x: stats.norm.pdf(x, 10, 5),
            lambda x: stats.t.pdf(x, 4, loc=20, scale=10),
        ),
        eval_range=(10 - 4 * 5.0, 20 + 4 * 10 * np.sqrt(2.0)),
    ),
    "3": StudyDesign(
        study_id="3",
        default_n=STUDY3_N1 + STUDY3_N2,
        truths=(
            lambda x: stats.norm.pdf(x, 10.77, np.sqrt(1.19)),
            _study3_truth2,
        ),
        eval_range=(5.68 - 4 * np.sqrt(1.04), 10.77 + 4 * np.sqrt(1.19)),
        fixed_n=True,
        pure_block=STUDY3_N2,
        mixture_props=STUDY3_PROPS,
    ),
}


def simple_estimator(
    mixture_xs: np.ndarray,
    pure_xs: np.ndarray,
    grid: Grid,
    proportions: tuple[float, float] = STUDY3_PROPS,
    kernel: Kernel = QUARTIC,
) -> tuple[GridDensity, GridDensity]:
    """Linear-unmixing baseline for a two-block design.

    The second component is a plain plug-in KDE of the pure block; the first
    is recovered by subtracting it from the mixture-block KDE, so it
    integrates to 1 but may go negative.
    """
    mixture_xs = np.asarray(mixture_xs, dtype=float)
    pure_xs = np.asarray(pure_xs, dtype=float)
    if mixture_xs.size < 2 or pure_xs.size < 2:
        raise ValueError("both blocks need at least 2 observations")
    p1, p2 = proportions
    f2 = eval_on_grid(
        WeightedKernelDensity(
            pure_xs, np.ones_like(pure_xs), plugin_bandwidth(pure_xs, kernel), kernel
        ),
        grid,
    )
    r = eval_on_grid(
        WeightedKernelDensity(
            mixture_xs,
            np.ones_like(mixture_xs),
            plugin_bandwidth(mixture_xs, kernel),
            kernel,
        ),
        grid,
    )
    f1 = GridDensity(grid, (r.values - p2 * f2.values) / p1)
    return f1, f2


@dataclass
class ReplicationReport:
    """Aggregated Monte Carlo errors, reproducible bit-for-bit from
    (master_seed, replications, config)."""

    study_id: str
    replications: int
    master_seed: int
    n: int
    estimator_names: tuple[str, ...]
    mean_ise: dict[str, list[float]]
    se_ise: dict[str, list[float]]
    per_replicate_ise: dict[str, np.ndarray]
    per_replicate_l1: dict[str, np.ndarray]
    replicate_seeds: list[int]
    failures: list[dict]
    config: dict
    extras: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = ["study,estimator,component,mean_ise,se_ise,R,seed"]
        for name in self.estimator_names:
            ok = self.replications - sum(
                1 for f in self.failures if f["estimator"] == name
            )
            for j, (m, s) in enumerate(zip(self.mean_ise[name], self.se_ise[name])):
                lines.append(
                    f"{self.study_id},{name},{j + 1},{m:.17g},{s:.17g},"
                    f"{ok},{self.master_seed}"
                )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        def clean(arr: np.ndarray):
            return [
                [None if not np.isfinite(v) else float(v) for v in row]
                for row in arr
            ]

        doc = {
            "study": self.study_id,
            "replications": self.replications,
            "master_seed": self.master_seed,
            "n": self.n,
            "estimators": list(self.estimator_names),
            "mean_ise": self.mean_ise,
            "se_ise": self.se_ise,
            "per_replicate_ise": {
                k: clean(v) for k, v in self.per_replicate_ise.items()
            },
            "per_replicate_l1": {
                k: clean(v) for k, v in self.per_replicate_l1.items()
            },
            "replicate_seeds": self.replicate_seeds,
            "failures": self.failures,
            "config": self.config,
            "extras": self.extras,
        }
        return json.dumps(doc, indent=2)


def _config_snapshot(config: FitConfig, n: int) -> dict:
    doc = dataclasses.asdict(config)
    doc["init_weights"] = None
    doc["n"] = n
    return doc


def _failure(r: int, estimator: str, exc: Exception) -> dict:
    return {
        "replicate": r,
        "estimator": estimator,
        "error": type(exc).__name__,
        "message": str(exc),
    }


def run_replications(
    design: StudyDesign,
    replications: int,
    config: FitConfig | None = None,
    estimators: Sequence[str] = ("proposed",),
    n: int | None = None,
    master_seed: int = 0,
    kernel: Kernel = QUARTIC,
) -> ReplicationReport:
    """Run the study design R times and aggregate per-component errors.

    Replicate r draws its data from a stream keyed by (master_seed, r) and
    its fit initialization from (master_seed, r, 1), so reports are
    reproducible and independent of execution order. Replicates whose fit
    fails are recorded and excluded from the averages, never dropped
    silently.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    config = config or FitConfig()
    names = tuple(estimators)
    for name in names:
        if name not in ("proposed", "simple"):
            raise ValueError(f"unknown estimator {name!r}")
    if "simple" in names and design.pure_block is None:
        raise ValueError(
            "the simple estimator needs a design with a pure block"
        )
    n_eff = design.default_n if n is None else int(n)
    M = len(design.truths)
    L = kernel.half_width

    ise_acc = {name: np.full((replications, M), np.nan) for name in names}
    l1_acc = {name: np.full((replications, M), np.nan) for name in names}
    min_f1 = []
    failures: list[dict] = []
    seeds: list[int] = []

    for r in range(replications):
        data_rng = np.random.default_rng([master_seed, r])
        fit_seed = int(np.random.default_rng([master_seed, r, 1]).integers(2**63))
        seeds.append(fit_seed)
        sample = design.sample(data_rng, n_eff)
        xs = sample.xs

        fitted = None
        h_needed = 0.0
        if "proposed" in names:
            try:
                rep_config = dataclasses.replace(config, seed=fit_seed)
                fitted = fit_adaptive(sample, rep_config, kernel)
                h_needed = max(h_needed, float(fitted.bandwidths.max()))
            except Exception as exc:  # recorded, not fatal
                failures.append(_failure(r, "proposed", exc))
        simple_blocks = None
        if "simple" in names:
            split = sample.n - design.pure_block
            simple_blocks = (xs[:split], xs[split:])
            try:
                h_needed = max(
                    h_needed,
                    plugin_bandwidth(simple_blocks[0], kernel),
                    plugin_bandwidth(simple_blocks[1], kernel),
                )
            except Exception as exc:
                failures.append(_failure(r, "simple", exc))
                simple_blocks = None

        lo = min(design.eval_range[0], float(xs.min()) - L * h_needed - 1e-9)
        hi = max(design.eval_range[1], float(xs.max()) + L * h_needed + 1e-9)
        grid = Grid.over(lo, hi, config.grid_size)

        if fitted is not None:
            for j in range(M):
                pair = DensityPair.from_callable(
                    eval_on_grid(fitted.components[j], grid), design.truths[j]
                )
                ise_acc["proposed"][r, j] = ise(pair)
                l1_acc["proposed"][r, j] = l1_distance(pair)
        if simple_blocks is not None:
            try:
                f1, f2 = simple_estimator(
                    simple_blocks[0],
                    simple_blocks[1],
                    grid,
                    design.mixture_props,
                    kernel,
                )
            except Exception as exc:
                failures.append(_failure(r, "simple", exc))
            else:
                min_f1.append(float(f1.values.min()))
                for j, est in enumerate((f1, f2)):
                    pair = DensityPair.from_callable(est, design.truths[j])
                    ise_acc["simple"][r, j] = ise(pair)
                    l1_acc["simple"][r, j] = l1_distance(pair)

    mean_ise = {}
    se_ise = {}
    for name in names:
        vals = ise_acc[name]
        ok = ~np.isnan(vals[:, 0])
        kept = vals[ok]
        if kept.shape[0] == 0:
            raise RuntimeError(f"every replicate failed for estimator {name!r}")
        mean_ise[name] = [float(v) for v in kept.mean(axis=0)]
        spread = kept.std(axis=0, ddof=1) if kept.shape[0] > 1 else np.zeros(M)
        se_ise[name] = [float(v) for v in spread / np.sqrt(kept.shape[0])]

    extras = {}
    if min_f1:
        extras["simple_min_f1"] = min_f1
        extras["simple_negative_fraction"] = float(
            np.mean([v < 0 for v in min_f1])
        )

    return ReplicationReport(
        study_id=design.study_id,
        replications=replications,
        master_seed=master_seed,
        n=n_eff,
        estimator_names=names,
        mean_ise=mean_ise,
        se_ise=se_ise,
        per_replicate_ise=ise_acc,
        per_replicate_l1=l1_acc,
        replicate_seeds=seeds,
        failures=failures,
        config=_config_snapshot(config, n_eff),
        extras=extras,
    )
