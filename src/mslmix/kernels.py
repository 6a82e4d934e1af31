# Kernel primitives and uniform-grid quadrature shared by all estimation code.
#
# Every integral over x in this package is a composite trapezoid rule on a
# uniform grid; grids are always built wide enough that no kernel window is
# ever clipped.

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Kernel",
    "QUARTIC",
    "Grid",
    "GridDensity",
    "GridCoverageError",
    "trapezoid",
    "build_grid",
]


class GridCoverageError(ValueError):
    """A kernel window or requested range falls outside the grid."""


@dataclass(frozen=True)
class Kernel:
    """Symmetric pdf kernel supported on [-half_width, half_width]."""

    name: str
    half_width: float
    second_moment: float
    roughness: float  # integral of K^2
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, t) -> np.ndarray:
        return self.fn(np.asarray(t, dtype=float))

    @property
    def canonical_delta(self) -> float:
        """Canonical bandwidth factor (roughness / second_moment^2)^(1/5)."""
        return float((self.roughness / self.second_moment**2) ** 0.2)


def _quartic(t: np.ndarray) -> np.ndarray:
    # |t| >= 1 (and NaN) clamp to 1, where the polynomial is exactly 0
    u = np.fmin(np.abs(t), 1.0)
    return 0.9375 * (1.0 - u * u) ** 2


#: The quartic (biweight) kernel, (15/16)(1 - t^2)^2 on [-1, 1].
QUARTIC = Kernel(
    name="quartic",
    half_width=1.0,
    second_moment=1.0 / 7.0,
    roughness=5.0 / 7.0,
    fn=_quartic,
)


@dataclass(frozen=True)
class Grid:
    """Uniform grid x0 + dx * {0, ..., count-1}."""

    x0: float
    dx: float
    count: int

    def __post_init__(self):
        if not (self.dx > 0):
            raise ValueError(f"grid spacing must be positive, got {self.dx}")
        if self.count < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.count}")

    @property
    def x_end(self) -> float:
        return self.x0 + self.dx * (self.count - 1)

    @property
    def points(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.count)

    @property
    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.count, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    def covers(self, lo: float, hi: float, slack: float = 1e-12) -> bool:
        eps = slack * max(1.0, abs(self.x0), abs(self.x_end))
        return self.x0 - eps <= lo and hi <= self.x_end + eps

    @classmethod
    def over(cls, lo: float, hi: float, count: int) -> "Grid":
        if not hi > lo:
            raise ValueError(f"need hi > lo, got [{lo}, {hi}]")
        return cls(x0=float(lo), dx=(float(hi) - float(lo)) / (count - 1), count=count)


@dataclass(frozen=True)
class GridDensity:
    """Values tabulated on a grid; may hold a density or a log-density."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.count,):
            raise ValueError(
                f"values shape {values.shape} does not match grid count {self.grid.count}"
            )
        if np.any(np.isnan(values)) or np.any(np.isposinf(values)):
            raise ValueError("values must be free of NaN and +inf")
        object.__setattr__(self, "values", values)


def trapezoid(g: GridDensity) -> float:
    """Composite trapezoid integral of the tabulated values."""
    return float(g.grid.trapezoid_weights @ g.values)


def build_grid(
    xs: np.ndarray,
    h_max: float,
    kernel: Kernel = QUARTIC,
    count: int = 1024,
    pad_fraction: float = 0.1,
    span: tuple[float, float] | None = None,
) -> Grid:
    """Grid covering the sample plus every kernel window of bandwidth <= h_max.

    The span is [min(xs) - L*h_max - pad, max(xs) + L*h_max + pad] with
    pad = pad_fraction * data range, unless an explicit span is forced; a
    forced span that fails to cover the kernel windows raises
    GridCoverageError.
    """
    xs = np.asarray(xs, dtype=float)
    margin = kernel.half_width * float(h_max)
    need_lo = float(xs.min()) - margin
    need_hi = float(xs.max()) + margin
    if span is None:
        pad = pad_fraction * float(xs.max() - xs.min())
        grid = Grid.over(need_lo - pad, need_hi + pad, count)
    else:
        grid = Grid.over(span[0], span[1], count)
    if not grid.covers(need_lo, need_hi):
        raise GridCoverageError(
            f"grid [{grid.x0}, {grid.x_end}] does not cover required range "
            f"[{need_lo}, {need_hi}] (bandwidth {h_max})"
        )
    return grid
