# Container for mixture observations with known per-observation mixing
# proportions.

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MixtureSample"]

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MixtureSample:
    """Observations x_i with an (n, M) matrix of known mixing proportions.

    Each row of ``alphas`` holds the probabilities that the corresponding
    observation came from each of the M subpopulations; rows must sum to 1
    and every column must have positive total mass (a component that never
    appears cannot be estimated).
    """

    xs: np.ndarray
    alphas: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        alphas = np.asarray(self.alphas, dtype=float)
        if xs.ndim != 1 or xs.size < 1:
            raise ValueError("xs must be a nonempty 1-d array")
        if alphas.ndim != 2 or alphas.shape[0] != xs.size or alphas.shape[1] < 1:
            raise ValueError(
                f"alphas must have shape (n, M) with n={xs.size}, got {alphas.shape}"
            )
        if not np.all(np.isfinite(xs)):
            raise ValueError("xs must be finite")
        if not np.all((alphas >= 0) & (alphas <= 1)):
            raise ValueError("mixing proportions must lie in [0, 1]")
        row_err = np.abs(alphas.sum(axis=1) - 1.0)
        if np.any(row_err > ROW_SUM_TOL):
            i = int(np.argmax(row_err))
            raise ValueError(
                f"row {i} of alphas sums to {alphas[i].sum():.12g}, not 1"
            )
        col = alphas.sum(axis=0)
        if np.any(col <= 0):
            j = int(np.argmin(col))
            raise ValueError(f"alpha column {j} has zero total mass")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "alphas", alphas)

    @property
    def n(self) -> int:
        return self.xs.size

    @property
    def n_components(self) -> int:
        return self.alphas.shape[1]
