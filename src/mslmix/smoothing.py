# Weighted kernel densities, the geometric-mean smoothing operator, and the
# smoothed log-likelihood of a mixture sample.
#
# The smoothing operator maps a density f to exp(int K_h(u-x) log f(u) du).
# With the conventions 0*log 0 = 0 and exp(-inf) = 0, the result is exactly 0
# wherever the kernel window overlaps a zero of f.
#
# The discretized kernel stores each observation's window only: a start node
# and a fixed number of kernel values, so memory and every apply are
# O(n * w) for a window of w grid nodes, never O(n * grid.count).

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MixtureSample
from .kernels import QUARTIC, Grid, GridDensity, GridCoverageError, Kernel

__all__ = [
    "WeightedKernelDensity",
    "DiscretizedKernel",
    "eval_on_grid",
    "log_density",
    "nonlinear_smooth",
    "mixture_density_at_sample",
    "smoothed_loglik",
]

#: Density values at or below this are treated as exact zeros when taking logs,
#: so compact-support zeros never turn into subnormal-noise NaNs.
ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class WeightedKernelDensity:
    """A density sum_i w_i K_h(x - x_i) / sum_i w_i.

    This is the closed family the fitting iteration lives in: nonnegative
    weights in [0, 1] attached to the sample locations, one bandwidth, one
    kernel.
    """

    xs: np.ndarray
    weights: np.ndarray
    bandwidth: float
    kernel: Kernel = QUARTIC

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if xs.ndim != 1 or w.shape != xs.shape:
            raise ValueError("xs and weights must be 1-d arrays of equal length")
        if not np.all((w >= 0) & (w <= 1)):
            raise ValueError("weights must lie in [0, 1]")
        if not w.sum() > 0:
            raise ValueError("weights must have positive sum")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "weights", w)

    def evaluate(self, x) -> np.ndarray:
        """Pointwise analytic values (no grid involved)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = (x[:, None] - self.xs[None, :]) / self.bandwidth
        vals = self.kernel(t) @ self.weights / (self.bandwidth * self.weights.sum())
        return vals

    def support(self) -> tuple[float, float]:
        active = self.xs[self.weights > 0]
        L = self.kernel.half_width * self.bandwidth
        return float(active.min()) - L, float(active.max()) + L


class DiscretizedKernel:
    """Kernel rows K_h(grid - x_i), each scaled to unit trapezoid mass.

    One instance serves both directions of the fitting iteration: tabulating
    a weighted kernel density on the grid and evaluating the smoothing
    operator at the sample points. Sharing the same mass-normalized rows for
    both keeps every tabulated density at exactly unit grid mass and makes
    the update an exact ascent step on the discretized objective, so the
    likelihood trace is monotone up to float rounding rather than up to
    quadrature error.

    The rows are stored as a band. Row i holds the kernel values at the
    ``width`` consecutive grid nodes from ``start[i]``; every node outside
    that window has kernel value exactly 0. The width is ceil(2 L h / dx)
    nodes plus one node of margin on each side, so that rounding at the
    window ends never drops a nonzero node, clipped to the grid. Memory and
    each apply are O(n * width) rather than O(n * grid.count).
    """

    def __init__(self, kernel: Kernel, centers: np.ndarray, bandwidth: float, grid: Grid):
        centers = np.asarray(centers, dtype=float)
        L = kernel.half_width * bandwidth
        if not grid.covers(float(centers.min()) - L, float(centers.max()) + L):
            raise GridCoverageError(
                f"kernel windows [x +- {L:g}] extend beyond grid "
                f"[{grid.x0:g}, {grid.x_end:g}]"
            )
        width = min(int(np.ceil(2 * L / grid.dx)) + 2, grid.count)
        first = np.floor((centers - L - grid.x0) / grid.dx)
        start = np.clip(first, 0, grid.count - width).astype(np.intp)
        index = start[:, None] + np.arange(width)
        tau = grid.trapezoid_weights[index]
        rows = kernel((grid.points[index] - centers[:, None]) / bandwidth) / bandwidth
        mass = np.einsum("ij,ij->i", rows, tau)
        if np.any(mass <= 0):
            raise GridCoverageError(
                f"bandwidth {bandwidth:g} is below the grid spacing {grid.dx:g}; "
                "no grid node falls inside some kernel window"
            )
        rows /= mass[:, None]
        self.grid = grid
        self.bandwidth = float(bandwidth)
        self.start = start
        self.rows = rows
        self._smoother = rows * tau  # rows sum to 1
        self._index = index

    def density_on_grid(self, weights: np.ndarray) -> np.ndarray:
        """Values of the weighted kernel density at the grid nodes."""
        total = weights.sum()
        if not total > 0:
            raise ValueError("weights must have positive sum")
        scattered = np.bincount(
            self._index.ravel(),
            weights=(weights[:, None] * self.rows).ravel(),
            minlength=self.grid.count,
        )
        return scattered / total

    def smooth_log(self, log_values: np.ndarray) -> np.ndarray:
        """exp of the trapezoid integral of K_h(u - x_i) log f(u) per center.

        -inf entries in ``log_values`` mark zeros of f; any window giving
        positive weight to one yields exactly 0.
        """
        finite = np.isfinite(log_values)
        logs = np.where(finite, log_values, 0.0)[self._index]
        vals = np.exp(np.einsum("ij,ij->i", self._smoother, logs))
        # only rows whose band holds a zero of f need the exact test
        zeros_before = np.concatenate(([0], np.cumsum(~finite)))
        end = self.start + self.rows.shape[1]
        near = np.flatnonzero(zeros_before[end] > zeros_before[self.start])
        hit = (self._smoother[near] > 0) & ~finite[self._index[near]]
        vals[near[hit.any(axis=1)]] = 0.0
        return vals


def eval_on_grid(f: WeightedKernelDensity, grid: Grid) -> GridDensity:
    """Tabulate f on the grid; the trapezoid mass of the result is exactly 1."""
    active = f.weights > 0
    disc = DiscretizedKernel(f.kernel, f.xs[active], f.bandwidth, grid)
    return GridDensity(grid, disc.density_on_grid(f.weights[active]))


def floored_log(values: np.ndarray, floor: float = ZERO_FLOOR) -> np.ndarray:
    """Elementwise log with the zero-density sentinel -inf at or below ``floor``."""
    positive = values > floor
    return np.where(positive, np.log(np.where(positive, values, 1.0)), -np.inf)


def log_density(g: GridDensity, floor: float = ZERO_FLOOR) -> GridDensity:
    """Log values with the zero-density sentinel -inf below ``floor``."""
    return GridDensity(g.grid, floored_log(g.values, floor))


def nonlinear_smooth(
    log_f: GridDensity,
    bandwidth: float,
    points: np.ndarray,
    kernel: Kernel = QUARTIC,
) -> np.ndarray:
    """Smoothed density exp(int K_h(u - x) log f(u) du) at the given points.

    ``log_f`` tabulates log f on its grid with -inf marking zeros. Every
    query window [x - L h, x + L h] must lie inside the grid; clipping is a
    configuration bug, not something to silently truncate.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    disc = DiscretizedKernel(kernel, points, bandwidth, log_f.grid)
    return disc.smooth_log(log_f.values)


def mixture_density_at_sample(sample: MixtureSample, smoothed: np.ndarray) -> np.ndarray:
    """Per-observation mixture values sum_j alpha_ij * smoothed[i, j]."""
    smoothed = np.asarray(smoothed, dtype=float)
    if smoothed.shape != sample.alphas.shape:
        raise ValueError(
            f"smoothed matrix shape {smoothed.shape} does not match "
            f"alphas shape {sample.alphas.shape}"
        )
    return (sample.alphas * smoothed).sum(axis=1)


def _component_on_grid(component, grid: Grid) -> np.ndarray:
    if isinstance(component, GridDensity):
        if component.grid != grid:
            raise ValueError("all components must share one grid")
        return component.values
    return eval_on_grid(component, grid).values


def smoothed_loglik(
    sample: MixtureSample,
    components: Sequence,
    bandwidths: Sequence[float] | None = None,
    grid: Grid | None = None,
    kernel: Kernel = QUARTIC,
    grid_size: int = 1024,
) -> float:
    """Smoothed log-likelihood of the sample under the given components.

    Components are WeightedKernelDensity instances (their own bandwidths are
    the smoothing bandwidths unless ``bandwidths`` overrides them) or
    GridDensity tabulations on a common grid (then ``bandwidths`` is
    required). Returns -inf when some observation has zero smoothed mixture
    density; that is a value, not an error.
    """
    components = list(components)
    if bandwidths is None:
        try:
            bandwidths = [c.bandwidth for c in components]
        except AttributeError:
            raise ValueError("bandwidths are required for GridDensity components")
    if len(bandwidths) != len(components) or len(components) != sample.n_components:
        raise ValueError("need one component and one bandwidth per alpha column")
    if grid is None:
        grids = {c.grid for c in components if isinstance(c, GridDensity)}
        if len(grids) > 1:
            raise ValueError("all components must share one grid")
        if grids:
            grid = grids.pop()
        else:
            from .kernels import build_grid

            grid = build_grid(sample.xs, max(bandwidths), kernel, count=grid_size)

    smoothed = np.empty((sample.n, len(components)))
    for j, (component, h) in enumerate(zip(components, bandwidths)):
        values = _component_on_grid(component, grid)
        logf = log_density(GridDensity(grid, values))
        smoothed[:, j] = nonlinear_smooth(logf, float(h), sample.xs, kernel)
    p = mixture_density_at_sample(sample, smoothed)
    if np.any(p <= 0):
        return float("-inf")
    return float(np.log(p).sum())
