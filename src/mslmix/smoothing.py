# Weighted kernel densities, the geometric-mean smoothing operator, and the
# smoothed log-likelihood of a mixture sample, computed in one place
# (mixture_loglik) for both the fitting loop and smoothed_loglik.
#
# The smoothing operator maps a density f to exp(int K_h(u-x) log f(u) du).
# With the conventions 0*log 0 = 0 and exp(-inf) = 0, the result is exactly 0
# wherever the kernel window overlaps a zero of f.
#
# The discretized kernel is one sparse row-stochastic matrix S per bandwidth,
# stored as each observation's window of w grid nodes: tabulating a weighted
# kernel density is one product with S^T and smoothing one product with S,
# so memory and every apply are O(n * w), never O(n * grid.count).

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.sparse import csr_array

from .data import MixtureSample
from .kernels import QUARTIC, Grid, GridDensity, GridCoverageError, Kernel, build_grid

__all__ = [
    "WeightedKernelDensity",
    "DiscretizedKernel",
    "eval_on_grid",
    "log_density",
    "nonlinear_smooth",
    "mixture_loglik",
    "smoothed_loglik",
]

#: Density values at or below this are treated as exact zeros when taking logs,
#: so compact-support zeros never turn into subnormal-noise NaNs.
ZERO_FLOOR = 1e-300


@dataclass(frozen=True)
class WeightedKernelDensity:
    """A density sum_i w_i K_h(x - x_i) / sum_i w_i.

    This is the closed family the fitting iteration lives in: nonnegative
    weights in [0, 1] attached to the sample locations, one bandwidth, and
    the quartic kernel.
    """

    xs: np.ndarray
    weights: np.ndarray
    bandwidth: float

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
        vals = QUARTIC(t) @ self.weights / (self.bandwidth * self.weights.sum())
        return vals


class DiscretizedKernel:
    """The smoothing operator of one bandwidth as a sparse row-stochastic matrix.

    Row i of S holds the kernel K_h(grid - x_i) times the trapezoid weights,
    scaled to unit sum. One S serves both directions of the fitting
    iteration, each as one sparse product: tabulating a weighted kernel
    density on the grid, (S^T w) / (sum(w) * tau), and the smoothing
    operator at the sample points, exp(S log f). Sharing S keeps every
    tabulated density at exactly unit grid mass and makes the update an
    exact ascent step on the discretized objective, so the likelihood trace
    is monotone up to float rounding rather than up to quadrature error.

    Row i is nonzero only in a window of ``width`` consecutive grid nodes:
    ceil(2 L h / dx) nodes plus one node of margin on each side, so that
    rounding at the window ends never drops a nonzero node, clipped to the
    grid. ``band`` holds the (n, width) window values and ``columns`` their
    grid indices; ``matrix`` is the n x grid.count ``csr_array`` over these
    arrays and ``indptr``, without a copy. Memory and each apply are
    O(n * width) rather than O(n * grid.count).
    """

    def __init__(self, kernel: Kernel, centers: np.ndarray, bandwidth: float, grid: Grid):
        centers = np.asarray(centers, dtype=float)
        L = kernel.half_width * bandwidth
        if not grid.covers(float(centers.min()) - L, float(centers.max()) + L):
            raise GridCoverageError(
                f"kernel windows [x +- {L:g}] extend beyond grid "
                f"[{grid.x0:g}, {grid.x_end:g}]"
            )
        n, count = centers.size, grid.count
        width = min(int(np.ceil(2 * L / grid.dx)) + 2, count)
        first = np.floor((centers - L - grid.x0) / grid.dx)
        start = np.clip(first, 0, count - width).astype(np.intp)
        t = sliding_window_view(grid.points, width)[start]
        t -= centers[:, None]
        t /= bandwidth
        band = kernel(t)
        del t
        # trapezoid weights over dx: 1/2 on the two end nodes of the grid, 1
        # elsewhere; dx, like the kernel's 1/h, cancels in the row sums
        band[start == 0, 0] *= 0.5
        band[start == count - width, -1] *= 0.5
        mass = band.sum(axis=1)
        if np.any(mass <= 0):
            raise GridCoverageError(
                f"bandwidth {bandwidth:g} is below the grid spacing {grid.dx:g}; "
                "no grid node falls inside some kernel window"
            )
        band /= mass[:, None]
        # int32 indices, which scipy keeps as they are rather than copying
        columns = start.astype(np.int32)[:, None] + np.arange(width, dtype=np.int32)
        indptr = np.arange(0, n * width + 1, width, dtype=np.int32)
        self.grid = grid
        self.bandwidth = float(bandwidth)
        self.band = band
        self.columns = columns
        self.indptr = indptr
        self.matrix = csr_array((band.ravel(), columns.ravel(), indptr), shape=(n, count))

    def density_on_grid(self, weights: np.ndarray) -> np.ndarray:
        """Values of the weighted kernel density at the grid nodes."""
        total = weights.sum()
        if not total > 0:
            raise ValueError("weights must have positive sum")
        return (self.matrix.T @ weights) / (total * self.grid.trapezoid_weights)

    def smooth_log(self, log_values: np.ndarray) -> np.ndarray:
        """exp of the trapezoid integral of K_h(u - x_i) log f(u) per center.

        -inf entries in ``log_values`` mark zeros of f; any window giving
        positive weight to one yields exactly 0.
        """
        # One product, exact: with -inf replaced by the most negative float,
        # the band's explicit zeros add -0.0 (S >= 0), which leaves every sum
        # bit-identical. A positive entry of S is a kernel value of at least
        # 2^-106 over a row mass below grid.count (about 1e-35 on 1024
        # nodes), so a row weighting a zero of f sums below -1e270 on any
        # grid of up to 10^6 nodes, or to -inf, and exp gives exactly 0.0.
        # log f never holds +inf, so no NaN arises.
        return np.exp(self.matrix @ np.maximum(log_values, -np.finfo(float).max))


def eval_on_grid(f: WeightedKernelDensity, grid: Grid) -> GridDensity:
    """Tabulate f on the grid; the trapezoid mass of the result is exactly 1.

    Every point of f is tabulated, zero-weight points included, as the
    fitting loop does, so a fit's components on the fit's grid are exactly
    the densities it maximized. The grid must therefore cover the kernel
    window of every point of f.
    """
    disc = DiscretizedKernel(QUARTIC, f.xs, f.bandwidth, grid)
    return GridDensity(grid, disc.density_on_grid(f.weights))


def floored_log(values: np.ndarray, floor: float = ZERO_FLOOR) -> np.ndarray:
    """Elementwise log with the zero-density sentinel -inf at or below ``floor``."""
    positive = values > floor
    return np.where(positive, np.log(np.where(positive, values, 1.0)), -np.inf)


def log_density(g: GridDensity, floor: float = ZERO_FLOOR) -> GridDensity:
    """Log values with the zero-density sentinel -inf below ``floor``."""
    return GridDensity(g.grid, floored_log(g.values, floor))


def nonlinear_smooth(
    log_f: GridDensity, bandwidth: float, points: np.ndarray
) -> np.ndarray:
    """Smoothed density exp(int K_h(u - x) log f(u) du) at the given points.

    ``log_f`` tabulates log f on its grid with -inf marking zeros. Every
    query window [x - L h, x + L h] must lie inside the grid; clipping is a
    configuration bug, not something to silently truncate.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    disc = DiscretizedKernel(QUARTIC, points, bandwidth, log_f.grid)
    return disc.smooth_log(log_f.values)


def mixture_loglik(
    sample: MixtureSample, smoothed: np.ndarray
) -> tuple[float, np.ndarray]:
    """The smoothed log-likelihood sum_i log sum_j alpha_ij * smoothed[i, j].

    ``smoothed`` holds the smoothed component densities at the sample points,
    one column per component. Returns the likelihood and the indices of the
    rows whose mixture density is zero; any such row makes the likelihood
    -inf, which is a value, not an error.
    """
    smoothed = np.asarray(smoothed, dtype=float)
    if smoothed.shape != sample.alphas.shape:
        raise ValueError(
            f"smoothed matrix shape {smoothed.shape} does not match "
            f"alphas shape {sample.alphas.shape}"
        )
    p = (sample.alphas * smoothed).sum(axis=1)
    dead = np.flatnonzero(p <= 0)
    if dead.size:
        return float("-inf"), dead
    return float(np.log(p).sum()), dead


def smoothed_loglik(
    sample: MixtureSample,
    components: Sequence,
    bandwidths: Sequence[float] | None = None,
    grid: Grid | None = None,
) -> float:
    """Smoothed log-likelihood of the sample under the given components.

    Components are WeightedKernelDensity instances (their own bandwidths are
    the smoothing bandwidths unless ``bandwidths`` overrides them) or
    GridDensity tabulations on a common grid (then ``bandwidths`` is
    required). A WeightedKernelDensity is tabulated over all of its points,
    as the fitting loop does, so a fit's components on the fit's grid give
    its last likelihood exactly. Returns -inf when some observation has zero
    smoothed mixture density; that is a value, not an error.
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
        grid = grids.pop() if grids else build_grid(sample.xs, max(bandwidths))

    smoothed = np.empty((sample.n, len(components)))
    for j, (component, h) in enumerate(zip(components, bandwidths)):
        if not isinstance(component, GridDensity):
            component = eval_on_grid(component, grid)
        elif component.grid != grid:
            raise ValueError("all components must share one grid")
        disc = DiscretizedKernel(QUARTIC, sample.xs, float(h), grid)
        smoothed[:, j] = disc.smooth_log(floored_log(component.values))
    return mixture_loglik(sample, smoothed)[0]
