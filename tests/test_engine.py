import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslmix.bandwidth import fit_adaptive
from mslmix.data import MixtureSample
from mslmix.engine import (
    ComponentVanishedError,
    FitConfig,
    fit_fixed_bandwidth,
    mm_update,
    posterior_weights,
)
from mslmix.kernels import Grid
from mslmix.metrics import DensityPair, l1_distance
from mslmix.simulation import gen_study1, gen_study3
from mslmix.smoothing import WeightedKernelDensity, eval_on_grid, smoothed_loglik


def two_component_sample(n=40, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=n)
    u = rng.uniform(size=n)
    return MixtureSample(xs, np.column_stack([u, 1 - u]))


class TestPosteriorWeights:
    def test_pure_row_stays_pure(self):
        s = MixtureSample(
            np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.2, 0.8]])
        )
        W = posterior_weights(s, np.array([[0.5, 0.9], [0.5, 0.5]]))
        assert np.allclose(W[0], [1.0, 0.0])

    def test_identical_components_return_alphas(self):
        s = two_component_sample()
        smoothed = np.tile(np.array([[0.37]]), (s.n, 2))
        W = posterior_weights(s, smoothed)
        assert np.allclose(W, s.alphas, atol=1e-15)

    def test_direct_substitution(self):
        s = MixtureSample(
            np.array([0.0, 1.0]), np.array([[0.5, 0.5], [0.5, 0.5]])
        )
        W = posterior_weights(s, np.array([[0.2, 0.4], [1.0, 1.0]]))
        assert np.allclose(W[0], [1.0 / 3.0, 2.0 / 3.0])

    def test_degenerate_row_falls_back_to_alphas(self):
        s = MixtureSample(
            np.array([0.0, 1.0]), np.array([[0.3, 0.7], [0.5, 0.5]])
        )
        W = posterior_weights(s, np.array([[0.0, 0.0], [0.5, 0.5]]))
        assert np.allclose(W[0], [0.3, 0.7])
        assert np.allclose(W[1], [0.5, 0.5])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_rows_sum_to_one_and_zero_alpha_stays_zero(self, seed):
        rng = np.random.default_rng(seed)
        n = 17
        a = rng.uniform(size=(n, 3))
        a[0, 2] = 0.0
        a /= a.sum(axis=1, keepdims=True)
        s = MixtureSample(rng.normal(size=n), a)
        smoothed = rng.uniform(size=(n, 3))
        W = posterior_weights(s, smoothed)
        assert np.all(W >= 0) and np.all(W <= 1)
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-9)
        assert W[0, 2] == 0.0


class TestMMUpdate:
    def test_uniform_column_is_plain_kde(self):
        s = two_component_sample(n=25)
        W = np.ones((25, 2))
        comps = mm_update(s, W, [0.8, 0.8])
        grid = Grid.over(s.xs.min() - 1, s.xs.max() + 1, 512)
        plain = WeightedKernelDensity(s.xs, np.ones(25), 0.8)
        assert np.array_equal(
            eval_on_grid(comps[0], grid).values, eval_on_grid(plain, grid).values
        )

    def test_concentrated_weights_give_single_bump(self):
        s = two_component_sample(n=10)
        W = np.zeros((10, 2))
        W[3, 0] = 1.0
        W[:, 1] = 1.0
        comps = mm_update(s, W, [0.5, 0.5])
        peak = comps[0].evaluate(s.xs[3])[0]
        assert peak == pytest.approx(0.9375 / 0.5, rel=1e-12)

    def test_vanished_component_raises(self):
        s = two_component_sample(n=10)
        W = np.ones((10, 2))
        W[:, 1] = 0.0
        with pytest.raises(ComponentVanishedError, match="component 1"):
            mm_update(s, W, [0.5, 0.5])


class TestFitFixedBandwidth:
    def test_single_component_reduces_to_plain_kde(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=60)
        s = MixtureSample(xs, np.ones((60, 1)))
        res = fit_fixed_bandwidth(s, [0.7], FitConfig(seed=11))
        assert res.converged
        assert np.array_equal(res.weights, np.ones((60, 1)))
        plain = WeightedKernelDensity(xs, np.ones(60), 0.7)
        assert np.array_equal(
            eval_on_grid(res.components[0], res.grid).values,
            eval_on_grid(plain, res.grid).values,
        )

    def test_monotone_trace_on_study_data(self):
        rng = np.random.default_rng(77)
        s = gen_study1(200, rng)
        for seed in (0, 1, 2):
            res = fit_fixed_bandwidth(s, [1.0, 1.0], FitConfig(seed=seed))
            assert res.converged
            assert np.min(np.diff(res.loglik_trace)) >= -1e-10
            assert abs(res.loglik_trace[-1] - res.loglik_trace[-2]) < 1e-5

    def test_denseness_diagnostic_reported(self):
        rng = np.random.default_rng(88)
        s = gen_study1(200, rng)
        res = fit_fixed_bandwidth(s, [1.0, 1.0], FitConfig(seed=0))
        # normal data at this bandwidth leave no uncovered stretch
        assert res.diagnostics["denseness"] == [True, True]
        assert list(res.diagnostics) == ["degenerate_rows", "denseness"]
        assert res.bandwidth_trace is None
        tiny = fit_fixed_bandwidth(s, [0.02, 0.02], FitConfig(seed=0))
        assert tiny.diagnostics["denseness"] == [False, False]

    def test_fixed_point_gap_small_at_convergence(self):
        rng = np.random.default_rng(5)
        s = gen_study1(300, rng)
        res = fit_fixed_bandwidth(s, [0.9, 0.9], FitConfig(seed=4))
        assert res.converged
        # threshold calibrated on this design; the gap scales with tolerance
        assert res.fixed_point_gap < 1e-3

    def test_final_likelihood_independent_of_start(self):
        rng = np.random.default_rng(31)
        s = gen_study1(200, rng)
        results = [
            fit_fixed_bandwidth(s, [1.0, 1.0], FitConfig(seed=seed))
            for seed in range(5)
        ]
        finals = [r.loglik_trace[-1] for r in results]
        assert max(finals) - min(finals) < 10 * 1e-5
        grid = results[0].grid
        for j in range(2):
            tabulated = [
                eval_on_grid(r.components[j], grid) for r in results
            ]
            for other in tabulated[1:]:
                pair = DensityPair(tabulated[0], other)
                assert l1_distance(pair) < 1e-2

    def test_component_permutation_equivariance(self):
        s = two_component_sample(n=50, seed=9)
        rng = np.random.default_rng(123)
        W0 = rng.uniform(size=(50, 2))
        W0 /= W0.sum(axis=1, keepdims=True)
        res = fit_fixed_bandwidth(
            s, [0.8, 1.1], FitConfig(init_weights=W0)
        )
        swapped = MixtureSample(s.xs, s.alphas[:, ::-1])
        res_sw = fit_fixed_bandwidth(
            swapped, [1.1, 0.8], FitConfig(init_weights=W0[:, ::-1])
        )
        assert np.array_equal(res.weights, res_sw.weights[:, ::-1])
        assert np.array_equal(res.loglik_trace, res_sw.loglik_trace)
        vals = eval_on_grid(res.components[0], res.grid).values
        vals_sw = eval_on_grid(res_sw.components[1], res_sw.grid).values
        assert np.array_equal(vals, vals_sw)

    def test_iterates_stay_in_kernel_family(self):
        s = two_component_sample(n=30, seed=1)
        res = fit_fixed_bandwidth(s, [0.9, 0.9], FitConfig(seed=0))
        for comp, h in zip(res.components, res.bandwidths):
            assert isinstance(comp, WeightedKernelDensity)
            assert comp.bandwidth == h
            assert np.shares_memory(comp.xs, s.xs) or np.array_equal(comp.xs, s.xs)
            assert np.all(comp.weights >= 0) and np.all(comp.weights <= 1)

    def test_minus_inf_at_init_raises_with_guidance(self):
        xs = np.array([0.0, 0.1, 0.2, 10.0])
        alphas = np.column_stack([np.full(4, 0.9), np.full(4, 0.1)])
        s = MixtureSample(xs, alphas)
        W0 = np.ones((4, 2))
        W0[3] = 0.0  # nothing covers the isolated point
        with pytest.raises(RuntimeError, match="too small for the data spacing"):
            fit_fixed_bandwidth(s, [0.5, 0.5], FitConfig(init_weights=W0))

    def test_nan_init_weights_rejected(self):
        s = two_component_sample(n=10)
        W0 = np.full((10, 2), 0.5)
        W0[4] = np.nan
        with pytest.raises(ValueError, match="init_weights must lie in"):
            fit_fixed_bandwidth(s, [0.5, 0.5], FitConfig(init_weights=W0))

    def test_budget_exhausted_is_not_converged(self):
        s = gen_study1(200, np.random.default_rng(77))
        config = FitConfig(seed=0, max_iterations=2)
        res = fit_fixed_bandwidth(s, [1.0, 1.0], config)
        assert not res.converged
        assert res.iterations == config.max_iterations
        assert res.fixed_point_gap > 0
        # the returned fit is the last pass evaluated, not one update past it
        assert smoothed_loglik(s, res.components, grid=res.grid) == res.loglik_trace[-1]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)

    def test_bandwidth_count_mismatch(self):
        s = two_component_sample(n=10)
        with pytest.raises(ValueError, match="one bandwidth per component"):
            fit_fixed_bandwidth(s, [0.5])

    @pytest.mark.parametrize("bandwidths", [[0.0, 1.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_nonpositive_or_nonfinite_bandwidth_rejected(self, bandwidths):
        s = two_component_sample(n=10)
        with pytest.raises(ValueError, match="bandwidths must be positive and finite, got"):
            fit_fixed_bandwidth(s, bandwidths)


BUDGET_SAMPLES = {
    "study1": gen_study1(200, np.random.default_rng(5)),
    "study3": gen_study3(np.random.default_rng(6)),
}


@settings(max_examples=20, deadline=None)
@given(
    study=st.sampled_from(sorted(BUDGET_SAMPLES)),
    adaptive=st.booleans(),
    budget=st.integers(1, 12),
    seed=st.integers(0, 3),
)
def test_every_exit_returns_the_pass_it_evaluated(study, adaptive, budget, seed):
    s = BUDGET_SAMPLES[study]
    config = FitConfig(seed=seed, max_iterations=budget)
    if adaptive:
        res = fit_adaptive(s, config)
    else:
        res = fit_fixed_bandwidth(s, [0.6, 0.8], config)
    assert res.iterations <= budget
    assert res.converged or res.iterations == budget
    assert smoothed_loglik(s, res.components, grid=res.grid) == res.loglik_trace[-1]
    if adaptive:
        assert np.array_equal(res.bandwidths, res.bandwidth_trace[-1])
