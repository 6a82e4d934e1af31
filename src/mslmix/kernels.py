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
    "window_span",
    "build_grid",
]

#: Extra span on each side of a built grid, as a fraction of the data range.
PAD_FRACTION = 0.1
#: Relative slack for rounding when testing that a grid covers an interval.
_COVER_SLACK = 1e-12


class GridCoverageError(ValueError):
    """A kernel window falls outside the grid or holds no grid node."""


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
    # |t| >= 1 (and NaN) clamp to 1, where the polynomial is exactly 0;
    # 0.9375 * (1 - u^2)^2 is evaluated in place in the one output array
    u = np.abs(t, out=np.empty_like(t))
    np.fmin(u, 1.0, out=u)
    np.multiply(u, u, out=u)
    np.subtract(1.0, u, out=u)
    np.multiply(u, u, out=u)
    u *= 0.9375
    return u


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

    def covers(self, lo: float, hi: float) -> bool:
        eps = _COVER_SLACK * max(1.0, abs(self.x0), abs(self.x_end))
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


def window_span(xs: np.ndarray, h: float) -> tuple[float, float]:
    """The interval [min(xs) - L*h, max(xs) + L*h] that holds the kernel
    window of every point of xs at bandwidth h; a grid must cover it."""
    reach = QUARTIC.half_width * float(h)
    return float(np.min(xs)) - reach, float(np.max(xs)) + reach


def build_grid(xs: np.ndarray, h_max: float, count: int = 1024) -> Grid:
    """Grid covering the sample plus every kernel window of bandwidth <= h_max.

    The span is window_span(xs, h_max) widened on each side by PAD_FRACTION
    of the data range.
    """
    xs = np.asarray(xs, dtype=float)
    lo, hi = window_span(xs, h_max)
    pad = PAD_FRACTION * float(xs.max() - xs.min())
    return Grid.over(lo - pad, hi + pad, count)
