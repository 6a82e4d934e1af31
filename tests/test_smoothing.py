import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from mslmix.data import MixtureSample
from mslmix.kernels import QUARTIC, Grid, GridCoverageError, GridDensity, trapezoid
from mslmix.smoothing import (
    DiscretizedKernel,
    WeightedKernelDensity,
    eval_on_grid,
    log_density,
    mixture_density_at_sample,
    nonlinear_smooth,
    smoothed_loglik,
)


class TestMixtureSample:
    def test_valid_sample(self):
        s = MixtureSample(np.array([0.0, 1.0]), np.array([[0.3, 0.7], [1.0, 0.0]]))
        assert s.n == 2
        assert s.n_components == 2

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            MixtureSample(np.array([0.0]), np.array([[0.6, 0.3]]))

    def test_rejects_out_of_range_alpha(self):
        with pytest.raises(ValueError, match="lie in"):
            MixtureSample(np.array([0.0]), np.array([[1.2, -0.2]]))
        with pytest.raises(ValueError, match="lie in"):
            MixtureSample(np.array([0.0]), np.array([[0.2, np.nan, np.nan]]))

    def test_rejects_empty_column(self):
        with pytest.raises(ValueError, match="column 1"):
            MixtureSample(
                np.array([0.0, 1.0]), np.array([[1.0, 0.0], [1.0, 0.0]])
            )

    def test_rejects_nonfinite_xs(self):
        with pytest.raises(ValueError, match="finite"):
            MixtureSample(np.array([np.inf]), np.array([[1.0]]))


class TestWeightedKernelDensity:
    def test_single_kernel_peak(self):
        f = WeightedKernelDensity(np.array([0.0]), np.array([1.0]), 1.0)
        assert f.evaluate(0.0)[0] == pytest.approx(0.9375, abs=1e-12)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError, match="positive sum"):
            WeightedKernelDensity(np.array([0.0]), np.array([0.0]), 1.0)

    def test_rejects_weight_above_one(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightedKernelDensity(np.array([0.0]), np.array([1.5]), 1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            WeightedKernelDensity(np.array([0.0, 1.0]), np.array([1.0, np.nan]), 1.0)

    def test_grid_mass_is_one(self):
        rng = np.random.default_rng(42)
        xs = rng.normal(size=30)
        w = rng.uniform(size=30)
        f = WeightedKernelDensity(xs, w, 0.4)
        grid = Grid.over(xs.min() - 1, xs.max() + 1, 1024)
        assert trapezoid(eval_on_grid(f, grid)) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_pair_is_symmetric(self):
        f = WeightedKernelDensity(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0)
        grid = Grid.over(-2.5, 2.5, 501)
        vals = eval_on_grid(f, grid).values
        assert np.allclose(vals, vals[::-1], atol=1e-12)


class TestNonlinearSmooth:
    def test_uniform_inside_window_gives_one(self):
        grid = Grid.over(-1.0, 2.0, 601)
        logf = GridDensity(grid, np.where(
            (grid.points >= 0) & (grid.points <= 1), 0.0, -np.inf
        ))
        out = nonlinear_smooth(logf, 0.1, np.array([0.5]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_identity(self):
        # The analytic claim: smoothing the standard normal multiplies it by
        # exp(-h^2 mu2 / 2). Verify the claim itself by fine quadrature first,
        # then hold the implementation to it.
        h = 0.5
        mu2 = QUARTIC.second_moment
        for x in (-1.0, 0.0, 0.7):
            exact, _ = integrate.quad(
                lambda u: QUARTIC(np.array([(u - x) / h]))[0]
                / h
                * stats.norm.logpdf(u),
                x - h,
                x + h,
                limit=200,
            )
            claimed = stats.norm.pdf(x) * np.exp(-h * h * mu2 / 2.0)
            assert np.exp(exact) == pytest.approx(claimed, rel=1e-9)

        grid = Grid.over(-8.0, 8.0, 1024)
        logf = GridDensity(grid, stats.norm.logpdf(grid.points))
        pts = np.linspace(-2, 2, 50)
        got = nonlinear_smooth(logf, h, pts)
        want = stats.norm.pdf(pts) * np.exp(-h * h * mu2 / 2.0)
        assert np.max(np.abs(got / want - 1)) < 1e-4
        # spot value at x=0
        at_zero = nonlinear_smooth(logf, h, np.array([0.0]))[0]
        assert at_zero == pytest.approx(0.39188, abs=5e-5)

    def test_zero_region_in_window_gives_exact_zero(self):
        f = WeightedKernelDensity(
            np.array([0.0, 10.0]), np.array([1.0, 1.0]), 1.0
        )
        grid = Grid.over(-3.0, 13.0, 2048)
        logf = log_density(eval_on_grid(f, grid))
        out = nonlinear_smooth(logf, 1.0, np.array([0.0, 1.5, 10.0]))
        assert out[0] > 0
        assert out[1] == 0.0
        assert out[2] > 0

    def test_window_clipping_is_an_error(self):
        grid = Grid.over(0.0, 1.0, 101)
        logf = GridDensity(grid, np.zeros(101))
        with pytest.raises(GridCoverageError):
            nonlinear_smooth(logf, 0.5, np.array([0.9]))

    def test_jensen_bound_pointwise(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=25)
        f = WeightedKernelDensity(xs, rng.uniform(size=25), 0.5)
        grid = Grid.over(xs.min() - 2, xs.max() + 2, 1024)
        fvals = eval_on_grid(f, grid).values
        interior = grid.points[
            (grid.points > grid.x0 + 1.0) & (grid.points < grid.x_end - 1.0)
        ]
        disc = DiscretizedKernel(QUARTIC, interior, 1.0, grid)
        smoothed = disc.smooth_log(log_density(GridDensity(grid, fvals)).values)
        # linear smoothing with the same mass-normalized trapezoid rows
        tau = grid.trapezoid_weights
        rows = QUARTIC(grid.points[None, :] - interior[:, None]) * tau
        convolved = (rows / rows.sum(axis=1, keepdims=True)) @ fvals
        assert np.all(smoothed <= convolved + 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), h=st.sampled_from([0.05, 0.2, 1.0]))
    def test_smoothed_mass_at_most_one(self, seed, h):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 3, size=rng.integers(2, 40))
        w = rng.uniform(size=xs.size)
        if w.sum() == 0:
            w[0] = 1.0
        f = WeightedKernelDensity(xs, w, float(rng.uniform(0.1, 1.0)))
        grid = Grid.over(-2.5, 5.5, 1024)
        logf = log_density(eval_on_grid(f, grid))
        inner = Grid.over(-1.2, 4.2, 768)
        vals = nonlinear_smooth(logf, h, inner.points)
        assert trapezoid(GridDensity(inner, vals)) <= 1.0 + 1e-6

    def test_translation_equivariance(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=20)
        w = rng.uniform(size=20)
        shift = 3.75
        f0 = WeightedKernelDensity(xs, w, 0.6)
        f1 = WeightedKernelDensity(xs + shift, w, 0.6)
        g0 = Grid.over(-5.0, 5.0, 800)
        g1 = Grid.over(-5.0 + shift, 5.0 + shift, 800)
        pts = np.linspace(-1, 1, 7)
        v0 = nonlinear_smooth(log_density(eval_on_grid(f0, g0)), 0.4, pts)
        v1 = nonlinear_smooth(log_density(eval_on_grid(f1, g1)), 0.4, pts + shift)
        assert np.allclose(v0, v1, rtol=1e-9, atol=1e-12)


class TestMixtureDensity:
    def test_single_component_passthrough(self):
        s = MixtureSample(np.array([0.0, 1.0]), np.ones((2, 1)))
        smoothed = np.array([[0.3], [0.8]])
        assert np.allclose(mixture_density_at_sample(s, smoothed), [0.3, 0.8])

    def test_degenerate_proportion_row(self):
        s = MixtureSample(
            np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.5, 0.5]])
        )
        # second entry of row 0 must not contribute even if huge
        got = mixture_density_at_sample(s, np.array([[0.4, 9.9], [0.2, 0.2]]))
        assert got[0] == 0.4

    def test_direct_substitution(self):
        s = MixtureSample(np.array([0.0]), np.array([[0.5, 0.5]]))
        got = mixture_density_at_sample(s, np.array([[0.2, 0.4]]))[0]
        assert got == pytest.approx(0.3, abs=1e-15)


class TestSmoothedLoglik:
    def test_single_observation_single_component(self):
        s = MixtureSample(np.array([0.2]), np.ones((1, 1)))
        f = WeightedKernelDensity(np.array([0.2]), np.array([1.0]), 1.0)
        grid = Grid.over(-2.0, 2.4, 2048)
        logf = log_density(eval_on_grid(f, grid))
        expected = np.log(nonlinear_smooth(logf, 1.0, np.array([0.2]))[0])
        got = smoothed_loglik(s, [f], grid=grid)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_uniform_component_gives_constant_log(self):
        width = 6.0
        grid = Grid.over(-4.0, 4.0, 1601)
        vals = np.where(np.abs(grid.points) <= width / 2, 1.0 / width, 0.0)
        uniform = GridDensity(grid, vals)
        xs = np.array([-1.0, 0.0, 0.5, 1.5])
        s = MixtureSample(xs, np.ones((4, 1)))
        got = smoothed_loglik(s, [uniform], bandwidths=[0.2])
        assert got == pytest.approx(4 * np.log(1.0 / width), rel=1e-12)

    def test_two_component_fine_quadrature_oracle(self):
        rng = np.random.default_rng(12)
        xs = np.sort(rng.normal(size=25))
        u = rng.uniform(size=(25, 2))
        alphas = np.column_stack([u[:, 0], 1 - u[:, 0]])
        alphas /= alphas.sum(axis=1, keepdims=True)
        s = MixtureSample(xs, alphas)
        comps = [
            WeightedKernelDensity(xs, rng.uniform(size=25), 0.7),
            WeightedKernelDensity(xs, rng.uniform(size=25), 1.1),
        ]
        grid = Grid.over(xs.min() - 2.0, xs.max() + 2.0, 1024)

        # oracle: analytic component values on a 10x finer grid, raw trapezoid
        fine = Grid.over(grid.x0, grid.x_end, 10 * (grid.count - 1) + 1)
        tau = fine.trapezoid_weights
        smoothed = np.empty((25, 2))
        for j, f in enumerate(comps):
            fv = f.evaluate(fine.points)
            logf = np.where(fv > 0, np.log(np.where(fv > 0, fv, 1.0)), -np.inf)
            for i, x in enumerate(xs):
                kern = QUARTIC((fine.points - x) / f.bandwidth) / f.bandwidth
                mask = kern > 0
                if np.any(np.isneginf(logf[mask])):
                    smoothed[i, j] = 0.0
                else:
                    smoothed[i, j] = np.exp(
                        np.sum(tau[mask] * kern[mask] * logf[mask])
                    )
        p = (alphas * smoothed).sum(axis=1)
        oracle = float(np.log(p).sum())

        got = smoothed_loglik(s, comps, grid=grid)
        assert got == pytest.approx(oracle, rel=1e-4)

    def test_minus_inf_is_a_value(self):
        xs = np.array([0.0, 30.0])
        s = MixtureSample(xs, np.ones((2, 1)))
        f = WeightedKernelDensity(xs, np.array([1.0, 0.0]), 1.0)
        grid = Grid.over(-3.0, 33.0, 4096)
        assert smoothed_loglik(s, [f], grid=grid) == -np.inf

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=40)
        u = rng.uniform(size=40)
        alphas = np.column_stack([u, 1 - u])
        s = MixtureSample(xs, alphas)
        comps = [
            WeightedKernelDensity(xs, rng.uniform(size=40), 0.8),
            WeightedKernelDensity(xs, rng.uniform(size=40), 0.8),
        ]
        grid = Grid.over(xs.min() - 1.5, xs.max() + 1.5, 1024)
        base = smoothed_loglik(s, comps, grid=grid)
        perm = rng.permutation(40)
        s2 = MixtureSample(xs[perm], alphas[perm])
        got = smoothed_loglik(s2, comps, grid=grid)
        assert got == pytest.approx(base, rel=1e-10)

    def test_upper_bound(self):
        rng = np.random.default_rng(8)
        xs = rng.normal(size=30)
        u = rng.uniform(size=30)
        s = MixtureSample(xs, np.column_stack([u, 1 - u]))
        hs = [0.3, 0.9]
        comps = [
            WeightedKernelDensity(xs, rng.uniform(size=30), hs[0]),
            WeightedKernelDensity(xs, rng.uniform(size=30), hs[1]),
        ]
        bound = 30 * np.log(0.9375 / min(hs))
        assert smoothed_loglik(s, comps) <= bound + 1e-6
