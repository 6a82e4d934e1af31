"""Maximum smoothed likelihood estimation of mixture component densities
when each observation carries its own known mixing proportions.

The package root holds the API the README documents; every other name is
importable from its submodule.
"""

from .bandwidth import DegenerateScaleError, fit_adaptive, plugin_bandwidth
from .data import MixtureSample
from .engine import ComponentVanishedError, FitConfig, FitResult, fit_fixed_bandwidth
from .kernels import GridCoverageError
from .metrics import DensityPair, hellinger_distance, ise, l1_distance
from .simulation import STUDIES, run_replications

__version__ = "0.1.0"

__all__ = [
    "ComponentVanishedError",
    "DegenerateScaleError",
    "DensityPair",
    "FitConfig",
    "FitResult",
    "GridCoverageError",
    "MixtureSample",
    "STUDIES",
    "fit_adaptive",
    "fit_fixed_bandwidth",
    "hellinger_distance",
    "ise",
    "l1_distance",
    "plugin_bandwidth",
    "run_replications",
]
