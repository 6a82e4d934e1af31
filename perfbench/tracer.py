"""Spans and counters around the public functions of the mslmix modules.

The benchmark measures the package from outside: it rebinds each traced
function to a wrapper in every mslmix module that holds it, because
``bandwidth``, ``simulation``, ``cli`` and the package root import their
functions by value, and a wrapper set only on the defining module would
miss those calls. ``uninstall`` puts every original binding back.

A span records (name, start, end, parent). A layer's self time is the sum of
its spans' durations minus the parts covered by child spans. Counters are
derived from call arguments and return values, and only while installed.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from mslmix import bandwidth



def mslmix_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "mslmix" or name.startswith("mslmix."))
    ]


def rebind(current, replacement) -> list:
    """Point every mslmix module name bound to ``current`` at ``replacement``.

    Returns the (module, attribute) sites changed.
    """
    sites = [
        (m, attr)
        for m in mslmix_modules()
        for attr, value in vars(m).items()
        if value is current
    ]
    for m, attr in sites:
        setattr(m, attr, replacement)
    return sites


class FitProbe:
    """Times every ``fit_adaptive`` call and keeps its result, traced or not.

    The cost is two clock reads and one append per fit, so end-to-end
    numbers keep it; it lets the benchmark check the fits that
    ``run_replications`` makes internally.
    """

    def __init__(self):
        self.fits: list[tuple[float, object]] = []
        rebind(bandwidth.fit_adaptive, self._wrap(bandwidth.fit_adaptive))

    def _wrap(self, fn):
        fits = self.fits

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            fits.append((time.perf_counter() - t0, result))
            return result

        return timed

    def take(self) -> list[tuple[float, object]]:
        out = list(self.fits)
        self.fits.clear()
        return out


def _operator_bytes(op) -> int:
    """Bytes of array state the smoothing operator holds (what one apply may touch)."""
    return sum(v.nbytes for v in vars(op).values() if isinstance(v, np.ndarray))


class Tracer:
    """In-memory spans and counters for one traced run."""

    # span name -> (module, attribute path)
    TARGETS = {
        "kernels.build_grid": ("kernels", "build_grid"),
        "smoothing.kernel_build": ("smoothing", "DiscretizedKernel.__init__"),
        "smoothing.density_on_grid": ("smoothing", "DiscretizedKernel.density_on_grid"),
        "smoothing.smooth_log": ("smoothing", "DiscretizedKernel.smooth_log"),
        "smoothing.eval_on_grid": ("smoothing", "eval_on_grid"),
        "engine.posterior_weights": ("engine", "posterior_weights"),
        "bandwidth.plugin_bandwidth": ("bandwidth", "plugin_bandwidth"),
        "bandwidth.select_component_subsets": ("bandwidth", "select_component_subsets"),
        "bandwidth.fit_adaptive": ("bandwidth", "fit_adaptive"),
        "simulation.run_replications": ("simulation", "run_replications"),
        "simulation.simple_estimator": ("simulation", "simple_estimator"),
        "metrics.ise": ("metrics", "ise"),
        "metrics.l1_distance": ("metrics", "l1_distance"),
        "cli.main": ("cli", "main"),
    }

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.nodes_per_window = float("inf")  # minimum 2*L*h/dx over builds
        self.unconverged_fits = 0
        self._stack: list[int] = []
        self._seen_builds: set = set()
        self._undo: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, path) in self.TARGETS.items():
            module = sys.modules[f"mslmix.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:  # a method: the class attribute serves every caller
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                self._undo.append(lambda o=owner, a=attr, f=original: setattr(o, a, f))
                continue
            current = getattr(module, attr)
            wrapped = self._wrap(name, current)
            if not rebind(current, wrapped):
                raise RuntimeError(f"no binding of {name} found")
            self._undo.append(lambda c=current, w=wrapped: rebind(w, c))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before = self._BEFORE.get(name)
        after = self._AFTER.get(name)
        # every counted parameter is required, so zipping names with the
        # positional arguments binds them all (cheaper than Signature.bind)
        names = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(self, {**dict(zip(names, args)), **kwargs})
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                after(self, result)
            return result

        return traced

    # -- counters derived from arguments and results ------------------------

    def _kernel_build(self, a) -> None:
        centers = np.asarray(a["centers"], dtype=float)
        grid, h = a["grid"], float(a["bandwidth"])
        self.counts["smoothing.kernel_build.bytes"] += 2 * centers.size * grid.count * 8
        key = (hashlib.blake2b(centers.tobytes(), digest_size=16).digest(), h, grid)
        if key not in self._seen_builds:
            self._seen_builds.add(key)
            self.counts["smoothing.kernel_build.new"] += 1
        nodes = 2 * a["kernel"].half_width * h / grid.dx
        self.nodes_per_window = min(self.nodes_per_window, nodes)

    def _apply(self, a) -> None:
        self.counts["smoothing.apply_bytes"] += _operator_bytes(a["self"])

    def _smooth_log(self, a) -> None:
        self._apply(a)
        if np.isneginf(a["log_values"]).any():
            self.counts["smoothing.smooth_log.zero_path"] += 1

    def _fit_done(self, result) -> None:
        self.counts["engine.iterations"] += result.iterations
        self.counts["bandwidth.adaptive_iterations"] += result.diagnostics["frozen_at"] or 0
        self.unconverged_fits += not result.converged

    _BEFORE = {
        "smoothing.kernel_build": _kernel_build,
        "smoothing.density_on_grid": _apply,
        "smoothing.smooth_log": _smooth_log,
    }
    _AFTER = {"bandwidth.fit_adaptive": _fit_done}

    # -- results -------------------------------------------------------------

    def layer_times(self) -> tuple[dict, dict]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - covered
        return calls, self_s

    def open_spans(self) -> int:
        return len(self._stack)
