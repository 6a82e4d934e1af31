import numpy as np
import pytest
from scipy.special import eval_hermitenorm
from scipy.stats import norm

from mslmix.bandwidth import (
    DegenerateScaleError,
    fit_adaptive,
    plugin_bandwidth,
    select_component_subsets,
)
from mslmix.data import MixtureSample
from mslmix.engine import FitConfig, posterior_weights
from mslmix.simulation import gen_study1, gen_study3
from mslmix.smoothing import (
    WeightedKernelDensity,
    eval_on_grid,
    log_density,
    nonlinear_smooth,
)

SQRT_2PI = np.sqrt(2 * np.pi)
SQRT_PI = np.sqrt(np.pi)


def dpi_oracle(x: np.ndarray) -> float:
    """Straightforward exact-double-sum version of the two-stage direct
    plug-in recipe: normal-scale psi_8, Gaussian functional estimation at
    both stages, quartic canonical factor."""
    x = np.asarray(x, dtype=float)
    n = x.size
    sd = np.std(x, ddof=1)
    q75, q25 = np.quantile(x, [0.75, 0.25])
    scale = min(sd, (q75 - q25) / 1.349)
    z = (x - x.mean()) / scale
    diffs = z[:, None] - z[None, :]

    def psi(g: float, r: int) -> float:
        u = diffs / g
        return float(np.sum(eval_hermitenorm(r, u) * norm.pdf(u))) / (
            n * n * g ** (r + 1)
        )

    psi8 = 105.0 / (32.0 * SQRT_PI)
    g6 = (30.0 / (SQRT_2PI * psi8 * n)) ** (1.0 / 9.0)
    p6 = psi(g6, 6)
    g4 = (6.0 / (SQRT_2PI * (-p6) * n)) ** (1.0 / 7.0)
    p4 = psi(g4, 4)
    return scale * 35.0**0.2 * (p4 * n) ** (-0.2)


class TestPluginBandwidth:
    def test_matches_exact_sum_oracle(self):
        for seed in (0, 1, 2):
            x = np.random.default_rng(seed).standard_normal(1000)
            h = plugin_bandwidth(x)
            assert abs(h / dpi_oracle(x) - 1) < 0.1

    def test_positive_and_reasonable_scale(self):
        x = np.random.default_rng(3).standard_normal(500)
        h = plugin_bandwidth(x)
        # quartic-kernel bandwidths for standard normal data sit near
        # 35^(1/5) * (psi4 * n)^(-1/5)
        rough = 35.0**0.2 * ((3 / (8 * SQRT_PI)) * 500) ** (-0.2)
        assert 0.5 * rough < h < 2.0 * rough

    def test_exact_scale_equivariance(self):
        x = np.random.default_rng(4).standard_normal(400)
        c = 3.7
        assert plugin_bandwidth(c * x) == pytest.approx(
            c * plugin_bandwidth(x), rel=1e-10
        )

    def test_translation_invariance(self):
        x = np.random.default_rng(5).standard_normal(400)
        assert plugin_bandwidth(x + 1234.5) == pytest.approx(
            plugin_bandwidth(x), rel=1e-9
        )

    def test_degenerate_scale_raises(self):
        with pytest.raises(DegenerateScaleError):
            plugin_bandwidth(np.full(25, 1.3))

    def test_too_few_points_raise(self):
        with pytest.raises(DegenerateScaleError):
            plugin_bandwidth(np.array([1.0]))


class TestSelectComponentSubsets:
    def sample_with_column_sums(self, col1: float, n: int) -> MixtureSample:
        a1 = np.full(n, col1 / n)
        alphas = np.column_stack([a1, 1 - a1])
        return MixtureSample(np.linspace(0, 1, n), alphas)

    def test_nearest_integer_rounding(self):
        s = self.sample_with_column_sums(200.4, 400)
        sel = select_component_subsets(s, np.ones((400, 2)))
        assert sel.target_counts[0] == 200
        assert sel.target_counts[1] == 200  # 199.6 rounds to 200

    def test_half_rounds_up(self):
        s = self.sample_with_column_sums(2.5, 5)
        sel = select_component_subsets(s, np.ones((5, 2)))
        assert sel.target_counts[0] == 3

    def test_total_tie_takes_everything(self):
        s = self.sample_with_column_sums(3.0, 6)
        W = np.full((6, 2), 0.5)
        sel = select_component_subsets(s, W)
        assert len(sel.members[0]) == 6

    def test_top_k_by_weight(self):
        s = self.sample_with_column_sums(2.0, 4)
        W = np.column_stack([[0.9, 0.8, 0.1, 0.05], [0.1, 0.2, 0.9, 0.95]])
        sel = select_component_subsets(s, W)
        assert set(sel.members[0]) == {0, 1}
        assert set(sel.members[1]) == {2, 3}

    def test_target_counts_sum_near_n(self):
        rng = np.random.default_rng(6)
        n = 137
        a = rng.uniform(size=(n, 3))
        a /= a.sum(axis=1, keepdims=True)
        s = MixtureSample(rng.normal(size=n), a)
        sel = select_component_subsets(s, a.copy())
        assert n - 3 <= sel.target_counts.sum() <= n + 3

    def test_relabeling_observations_is_irrelevant(self):
        rng = np.random.default_rng(7)
        n = 50
        a = rng.uniform(size=(n, 2))
        a /= a.sum(axis=1, keepdims=True)
        s = MixtureSample(rng.normal(size=n), a)
        W = rng.uniform(size=(n, 2))
        W /= W.sum(axis=1, keepdims=True)
        sel = select_component_subsets(s, W)
        perm = rng.permutation(n)
        s2 = MixtureSample(s.xs[perm], a[perm])
        sel2 = select_component_subsets(s2, W[perm])
        values = np.sort(s.xs[sel.members[0]])
        values2 = np.sort(s2.xs[sel2.members[0]])
        assert np.array_equal(values, values2)

    def test_empty_component_raises(self):
        s = self.sample_with_column_sums(1.0, 4)
        with pytest.raises(ValueError, match="effectively empty"):
            select_component_subsets(s, np.ones((4, 2)))


class TestFitAdaptive:
    def test_single_component_reduces_to_plugin_plus_kde(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=80)
        s = MixtureSample(xs, np.ones((80, 1)))
        res = fit_adaptive(s, FitConfig(seed=3))
        assert res.converged
        assert res.bandwidths[0] == plugin_bandwidth(xs)
        plain = WeightedKernelDensity(xs, np.ones(80), res.bandwidths[0])
        assert np.array_equal(
            eval_on_grid(res.components[0], res.grid).values,
            eval_on_grid(plain, res.grid).values,
        )

    def test_bandwidths_stabilize_quickly_on_block_design(self):
        rng = np.random.default_rng(9)
        s = gen_study3(rng)
        res = fit_adaptive(s, FitConfig(seed=10))
        assert res.converged
        trace = res.bandwidth_trace
        changes = np.max(np.abs(np.diff(trace, axis=0)), axis=1)
        settled = np.flatnonzero(changes < 1e-6)
        assert settled.size > 0
        first = settled[0]
        assert first <= 10
        assert np.all(changes[first:] < 1e-6)

    def test_monotone_after_freeze(self):
        rng = np.random.default_rng(10)
        s = gen_study1(300, rng)
        res = fit_adaptive(s, FitConfig(seed=2))
        assert res.converged
        frozen_at = res.diagnostics["frozen_at"]
        assert frozen_at is not None
        tail = res.loglik_trace[frozen_at:]
        assert np.min(np.diff(tail)) >= -1e-10

    def test_bandwidth_trace_recorded(self):
        rng = np.random.default_rng(11)
        s = gen_study1(150, rng)
        res = fit_adaptive(s, FitConfig(seed=1))
        assert res.bandwidth_trace is not None
        assert res.bandwidth_trace.shape[1] == 2
        assert np.all(res.bandwidth_trace > 0)
        assert np.array_equal(res.bandwidth_trace[-1], res.bandwidths)
        assert list(res.diagnostics) == [
            "degenerate_rows",
            "target_counts",
            "subset_sizes",
            "frozen_at",
            "denseness",
        ]

    def test_budget_exhausted_before_freeze(self):
        s = gen_study1(200, np.random.default_rng(12))
        res = fit_adaptive(s, FitConfig(seed=3, max_iterations=1))
        assert not res.converged
        assert res.iterations == 1
        assert res.diagnostics["frozen_at"] is None
        # the reported gap is one more update through the public operations
        logs = [log_density(eval_on_grid(c, res.grid)) for c in res.components]
        smoothed = np.column_stack(
            [
                nonlinear_smooth(logs[j], float(res.bandwidths[j]), s.xs)
                for j in range(2)
            ]
        )
        gap = np.max(np.abs(posterior_weights(s, smoothed) - res.weights))
        assert res.fixed_point_gap == pytest.approx(gap, rel=1e-9, abs=1e-12)

    def test_freeze_on_last_budgeted_pass_gets_one_frozen_pass(self):
        s = gen_study1(200, np.random.default_rng(13))
        full = fit_adaptive(s, FitConfig(seed=4))
        frozen_at = full.diagnostics["frozen_at"]
        assert full.converged and frozen_at is not None
        res = fit_adaptive(s, FitConfig(seed=4, max_iterations=frozen_at))
        assert res.diagnostics["frozen_at"] == frozen_at
        assert res.iterations == frozen_at + 1
        assert np.array_equal(res.loglik_trace, full.loglik_trace[: frozen_at + 1])
