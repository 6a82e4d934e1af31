# Data-driven bandwidths: a two-stage direct plug-in selector for kernel
# density estimation, per-component observation subsets, and the adaptive
# policy that re-selects bandwidths as the component weights evolve. The
# iteration itself is the shared loop in engine.py.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import MixtureSample
from .engine import FitConfig, FitResult, run_fit
from .kernels import QUARTIC

__all__ = [
    "DegenerateScaleError",
    "SubsetSelection",
    "plugin_bandwidth",
    "select_component_subsets",
    "fit_adaptive",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
_SQRT_PI = np.sqrt(np.pi)
#: Linear-binning nodes for the plug-in selector's functional estimates.
_BIN_COUNT = 401


class DegenerateScaleError(ValueError):
    """Data whose scale estimate is zero cannot drive bandwidth selection."""


def _linear_bin(x: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    """Linear binning: each point splits its unit mass between the two
    nearest grid nodes."""
    delta = (hi - lo) / (size - 1)
    pos = (x - lo) / delta
    left = np.floor(pos).astype(int)
    frac = pos - left
    counts = np.zeros(size)
    np.add.at(counts, np.clip(left, 0, size - 1), 1.0 - frac)
    np.add.at(counts, np.clip(left + 1, 0, size - 1), frac)
    return counts


def _hermite_gauss(r: int, u: np.ndarray) -> np.ndarray:
    """r-th derivative of the standard normal pdf, up to sign: He_r(u) phi(u)."""
    if r == 4:
        poly = u**4 - 6.0 * u**2 + 3.0
    elif r == 6:
        poly = u**6 - 15.0 * u**4 + 45.0 * u**2 - 15.0
    else:
        raise ValueError(f"unsupported derivative order {r}")
    return poly * np.exp(-0.5 * u * u) / _SQRT_2PI


def _binned_psi(counts: np.ndarray, delta: float, g: float, r: int) -> float:
    """Density functional psi_r = n^-2 sum_ij phi_g^(r)(x_i - x_j) on bins."""
    size = counts.size
    kern = _hermite_gauss(r, np.arange(size) * delta / g)
    lags = np.correlate(counts, counts, mode="full")[size - 1 :]
    n = counts.sum()
    total = lags[0] * kern[0] + 2.0 * float(lags[1:] @ kern[1:])
    return total / (n * n * g ** (r + 1))


def plugin_bandwidth(xs: np.ndarray) -> float:
    """Two-stage direct plug-in bandwidth for a kernel density estimate.

    Normal-scale start for the eighth-derivative functional, two stages of
    Gaussian functional estimation on linearly binned, standardized data,
    then the AMISE formula with the quartic kernel's canonical factor. The
    result is exactly scale-equivariant and translation-invariant.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.size
    if n < 2:
        raise DegenerateScaleError("need at least 2 observations")
    sd = float(np.std(xs, ddof=1))
    q75, q25 = np.quantile(xs, [0.75, 0.25])
    scale = min(sd, (q75 - q25) / 1.349)
    if not scale > 0:
        raise DegenerateScaleError(
            "scale estimate is zero; the data have no spread"
        )
    z = (xs - xs.mean()) / scale
    lo, hi = float(z.min()), float(z.max())
    counts = _linear_bin(z, lo, hi, _BIN_COUNT)
    delta = (hi - lo) / (_BIN_COUNT - 1)

    psi8 = 105.0 / (32.0 * _SQRT_PI)  # normal-scale, unit variance
    g6 = (30.0 / (_SQRT_2PI * psi8 * n)) ** (1.0 / 9.0)
    psi6 = _binned_psi(counts, delta, g6, 6)
    if psi6 >= 0:  # numerically possible on pathological data
        psi6 = -15.0 / (16.0 * _SQRT_PI)
    g4 = (6.0 / (_SQRT_2PI * (-psi6) * n)) ** (1.0 / 7.0)
    psi4 = _binned_psi(counts, delta, g4, 4)
    if psi4 <= 0:
        psi4 = 3.0 / (8.0 * _SQRT_PI)
    return scale * QUARTIC.canonical_delta * (psi4 * n) ** (-0.2)


@dataclass(frozen=True)
class SubsetSelection:
    """Per-component observation subsets used for bandwidth selection.

    ``target_counts[j]`` is the rounded expected count of component-j
    observations; ``members[j]`` holds the indices of the target_counts[j]
    largest weights in column j, with threshold ties included.
    """

    target_counts: np.ndarray
    members: list[np.ndarray]
    thresholds: np.ndarray


def select_component_subsets(sample: MixtureSample, W: np.ndarray) -> SubsetSelection:
    """Pick, per component, the observations most likely to belong to it.

    The target count is the column sum of the mixing proportions rounded to
    the nearest integer (half rounds up); membership takes every weight at
    or above the target-count-th largest, so ties may enlarge a subset.
    """
    W = np.asarray(W, dtype=float)
    if W.shape != sample.alphas.shape:
        raise ValueError("weight matrix must have shape (n, M)")
    target = np.floor(sample.alphas.sum(axis=0) + 0.5).astype(int)
    members = []
    thresholds = np.empty(sample.n_components)
    for j, nj in enumerate(target):
        if nj < 2:
            raise ValueError(
                f"component {j} is effectively empty (target count {nj})"
            )
        order = np.sort(W[:, j])[::-1]
        thresholds[j] = order[nj - 1]
        members.append(np.flatnonzero(W[:, j] >= thresholds[j]))
    return SubsetSelection(target, members, thresholds)


def fit_adaptive(sample: MixtureSample, config: FitConfig | None = None) -> FitResult:
    """Fit components while re-selecting bandwidths from the evolving weights.

    Each pass computes posterior weights, re-selects each bandwidth by the
    plug-in rule on that component's most-likely observations, and rebuilds
    the component densities under the new bandwidths. Once the bandwidths
    stop moving (change below 1e-6 on two consecutive passes) they are
    frozen and the loop reduces to the fixed-bandwidth iteration, which is
    run until the likelihood change drops below ``config.tolerance``.

    The returned result carries the bandwidth trace; its likelihood trace is
    only guaranteed monotone over the frozen tail, because changing the
    bandwidths changes the objective.
    """
    h0 = plugin_bandwidth(sample.xs)
    # reject effectively empty components before any fitting
    select_component_subsets(sample, np.ones_like(sample.alphas))

    def reselect(W: np.ndarray) -> tuple[np.ndarray, dict]:
        selection = select_component_subsets(sample, W)
        hs = np.array([plugin_bandwidth(sample.xs[m]) for m in selection.members])
        return hs, {
            "target_counts": selection.target_counts.tolist(),
            "subset_sizes": [len(m) for m in selection.members],
        }

    return run_fit(
        sample, np.full(sample.n_components, h0), config or FitConfig(), reselect
    )
