# Posterior weights, the density updating operator, and the one fitting
# loop behind both the fixed-bandwidth and the adaptive fits.
#
# Each pass replaces the component densities by weighted kernel densities
# whose weights are the posterior shares of the smoothed likelihood. At
# fixed bandwidths the update never decreases the smoothed log-likelihood.
# An optional re-selection step may move the bandwidths after each pass
# until they settle; from then on they are frozen, and iteration stops when
# the likelihood change drops below tolerance. A fixed-bandwidth fit is the
# same loop frozen from the start.

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .data import MixtureSample
from .kernels import QUARTIC, Grid, Kernel, build_grid
from .smoothing import DiscretizedKernel, WeightedKernelDensity, floored_log

__all__ = [
    "ComponentVanishedError",
    "FitConfig",
    "FitResult",
    "posterior_weights",
    "mm_update",
    "fit_fixed_bandwidth",
]

#: Consecutive-pass bandwidth change below which re-selection stops and the
#: bandwidths are frozen (after _FREEZE_RUNS such passes in a row).
BANDWIDTH_FREEZE_TOL = 1e-6
_FREEZE_RUNS = 2


class ComponentVanishedError(RuntimeError):
    """All posterior weight drained out of one component."""

    def __init__(self, j: int):
        super().__init__(
            f"component {j} has zero total weight; it cannot be updated"
        )
        self.component = j


@dataclass
class FitConfig:
    """Knobs for the fitting loop.

    ``init_weights`` supplies a starting (n, M) weight matrix; when None the
    start is drawn row-wise from uniform[0, 1] and normalized, using ``seed``.
    """

    tolerance: float = 1e-5
    max_iterations: int = 500
    grid_size: int = 1024
    pad_fraction: float = 0.1
    grid_range: tuple[float, float] | None = None
    seed: int | None = None
    init_weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")


@dataclass
class FitResult:
    """Fitted components plus everything needed to audit the run."""

    components: list[WeightedKernelDensity]
    bandwidths: np.ndarray
    weights: np.ndarray
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    fixed_point_gap: float
    grid: Grid
    bandwidth_trace: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def posterior_weights(sample: MixtureSample, smoothed: np.ndarray) -> np.ndarray:
    """Posterior share of each component at each observation.

    w_ij = alpha_ij * smoothed_ij / sum_k alpha_ik * smoothed_ik. Rows whose
    denominator vanishes fall back to their alpha row so the update stays
    total; callers track such rows via the zero mixture density.
    """
    smoothed = np.asarray(smoothed, dtype=float)
    if smoothed.shape != sample.alphas.shape:
        raise ValueError("smoothed matrix must have shape (n, M)")
    if np.any(smoothed < 0):
        raise ValueError("smoothed values must be nonnegative")
    num = sample.alphas * smoothed
    den = num.sum(axis=1)
    ok = den > 0
    W = np.empty_like(num)
    W[ok] = num[ok] / den[ok, None]
    W[~ok] = sample.alphas[~ok]
    return W


def mm_update(
    sample: MixtureSample,
    W: np.ndarray,
    bandwidths: Sequence[float],
    kernel: Kernel = QUARTIC,
) -> list[WeightedKernelDensity]:
    """One density update: component j becomes the W[:, j]-weighted KDE."""
    W = np.asarray(W, dtype=float)
    components = []
    for j, h in enumerate(bandwidths):
        if not W[:, j].sum() > 0:
            raise ComponentVanishedError(j)
        components.append(
            WeightedKernelDensity(sample.xs, W[:, j], float(h), kernel)
        )
    return components


def _initial_weights(sample: MixtureSample, config: FitConfig) -> np.ndarray:
    if config.init_weights is not None:
        W = np.asarray(config.init_weights, dtype=float)
        if W.shape != sample.alphas.shape:
            raise ValueError(
                f"init_weights shape {W.shape} does not match ({sample.n}, "
                f"{sample.n_components})"
            )
        if not np.all((W >= 0) & (W <= 1)):
            raise ValueError("init_weights must lie in [0, 1]")
        return W.copy()
    rng = np.random.default_rng(config.seed)
    W = rng.uniform(size=sample.alphas.shape)
    return W / W.sum(axis=1, keepdims=True)


def _smoothed_matrix(
    sample: MixtureSample,
    W: np.ndarray,
    discs: Sequence[DiscretizedKernel],
) -> np.ndarray:
    """Matrix of smoothed component densities at the sample points."""
    n, M = W.shape
    out = np.empty((n, M))
    for j in range(M):
        if not W[:, j].sum() > 0:
            raise ComponentVanishedError(j)
        f = discs[j].density_on_grid(W[:, j])
        out[:, j] = discs[j].smooth_log(floored_log(f))
    return out


def _loglik(sample: MixtureSample, smoothed: np.ndarray) -> tuple[float, np.ndarray]:
    p = (sample.alphas * smoothed).sum(axis=1)
    dead = np.flatnonzero(p <= 0)
    if dead.size:
        return float("-inf"), dead
    return float(np.log(p).sum()), dead


def run_fit(
    sample: MixtureSample,
    bandwidths: Sequence[float],
    config: FitConfig,
    kernel: Kernel = QUARTIC,
    reselect: Callable[[np.ndarray], tuple[np.ndarray, dict]] | None = None,
) -> FitResult:
    """The smoothed-likelihood iteration behind every fit (package-internal).

    ``reselect`` maps the new weights of each pass to (bandwidths,
    diagnostics) until two consecutive passes move the bandwidths by less
    than BANDWIDTH_FREEZE_TOL; without it the bandwidths are frozen from
    pass 0. Convergence is tested only while frozen, so the first frozen
    pass compares against the last adaptive likelihood, and a freeze on the
    last budgeted pass still gets one frozen pass.
    """

    def discretize(hs: np.ndarray, grid: Grid | None = None, discs=()):
        # operators for hs; the grid is rebuilt only when a window leaves it,
        # and an operator is rebuilt only when its bandwidth or grid changed
        reach = kernel.half_width * hs.max()
        lo, hi = float(sample.xs.min()) - reach, float(sample.xs.max()) + reach
        if grid is None or not grid.covers(lo, hi):
            grid = build_grid(
                sample.xs,
                float(hs.max()),
                kernel,
                count=config.grid_size,
                pad_fraction=config.pad_fraction,
                span=config.grid_range,
            )
        built = {d.bandwidth: d for d in discs if d.grid == grid}
        for h in hs:
            if h not in built:
                built[h] = DiscretizedKernel(kernel, sample.xs, h, grid)
        return grid, [built[h] for h in hs]

    hs = np.array(bandwidths, dtype=float)
    grid, discs = discretize(hs)
    W = _initial_weights(sample, config)
    trace: list[float] = []
    h_trace = [hs]
    degenerate: set[int] = set()
    selection: dict = {}
    frozen_at = 0 if reselect is None else None
    freeze_run = 0
    converged = False
    while len(trace) < config.max_iterations or len(trace) == frozen_at:
        smoothed = _smoothed_matrix(sample, W, discs)
        ll, dead = _loglik(sample, smoothed)
        degenerate.update(dead.tolist())
        if not trace and np.isneginf(ll):
            raise RuntimeError(
                "smoothed likelihood is -inf at initialization; the "
                "bandwidths are too small for the data spacing (some "
                "observation has zero smoothed mixture density)"
            )
        trace.append(ll)
        W_next = posterior_weights(sample, smoothed)
        # a change involving -inf is inf or nan, never below tolerance
        if (
            frozen_at is not None
            and len(trace) > 1
            and abs(trace[-1] - trace[-2]) < config.tolerance
        ):
            converged = True
            break
        W = W_next
        if frozen_at is None:
            new_hs, selection = reselect(W)
            h_trace.append(new_hs)
            if np.max(np.abs(new_hs - hs)) < BANDWIDTH_FREEZE_TOL:
                freeze_run += 1
            else:
                freeze_run = 0
            if np.any(new_hs != hs):
                hs = new_hs
                grid, discs = discretize(hs, grid, discs)
            if freeze_run >= _FREEZE_RUNS:
                frozen_at = len(trace)
    if not converged:
        W_next = posterior_weights(sample, _smoothed_matrix(sample, W, discs))

    diagnostics = {"degenerate_rows": sorted(degenerate)}
    if reselect is not None:
        diagnostics.update(selection, frozen_at=frozen_at)
    diagnostics["denseness"] = component_denseness(sample, hs, kernel)
    return FitResult(
        components=mm_update(sample, W, hs, kernel),
        bandwidths=hs,
        weights=W,
        loglik_trace=np.asarray(trace),
        iterations=len(trace),
        converged=converged,
        fixed_point_gap=float(np.max(np.abs(W_next - W))),
        grid=grid,
        bandwidth_trace=None if reselect is None else np.asarray(h_trace),
        diagnostics=diagnostics,
    )


def fit_fixed_bandwidth(
    sample: MixtureSample,
    bandwidths: Sequence[float],
    config: FitConfig | None = None,
    kernel: Kernel = QUARTIC,
) -> FitResult:
    """Maximize the smoothed log-likelihood at fixed bandwidths.

    Starts from random (or supplied) weights, applies the updating operator
    until the likelihood change is below ``config.tolerance``, and reports
    the trace, the final weight matrix, and the max-norm change of one
    further update (the fixed-point gap; small at a maximizer).

    Raises ComponentVanishedError if a component loses all weight, and
    RuntimeError when the very first likelihood is -inf, which signals
    bandwidths below the data spacing.
    """
    bandwidths = [float(h) for h in bandwidths]
    if len(bandwidths) != sample.n_components:
        raise ValueError("need one bandwidth per component")
    if min(bandwidths) <= 0:
        raise ValueError("bandwidths must be positive")
    return run_fit(sample, bandwidths, config or FitConfig(), kernel)


def component_denseness(
    sample: MixtureSample,
    bandwidths: Sequence[float],
    kernel: Kernel = QUARTIC,
) -> list[bool]:
    """Whether every point of the data range has an in-window observation
    with positive mixing proportion, per component.

    This is the condition under which the smoothed likelihood is strictly
    concave (unique maximizer); reported as a diagnostic only.
    """
    out = []
    span = np.linspace(float(sample.xs.min()), float(sample.xs.max()), 512)
    for j, h in enumerate(bandwidths):
        carriers = np.sort(sample.xs[sample.alphas[:, j] > 0])
        if carriers.size == 0:
            out.append(False)
            continue
        idx = np.searchsorted(carriers, span)
        left = np.abs(span - carriers[np.clip(idx - 1, 0, carriers.size - 1)])
        right = np.abs(carriers[np.clip(idx, 0, carriers.size - 1)] - span)
        out.append(bool(np.all(np.minimum(left, right) <= kernel.half_width * h)))
    return out
