"""The sparse DiscretizedKernel against a dense n x G reference built here."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mslmix import engine
from mslmix.bandwidth import fit_adaptive
from mslmix.data import MixtureSample
from mslmix.kernels import QUARTIC, Grid, GridCoverageError, GridDensity, trapezoid
from mslmix.simulation import gen_study1, gen_study3
from mslmix.smoothing import DiscretizedKernel


def dense_rows(centers, h, grid):
    """Mass-normalized kernel rows over every grid node, and rows * tau."""
    tau = grid.trapezoid_weights
    rows = QUARTIC((grid.points[None, :] - centers[:, None]) / h) / h
    rows /= (rows @ tau)[:, None]
    return rows, rows * tau


def dense_smooth_log(smoother, log_values):
    finite = np.isfinite(log_values)
    vals = np.exp(smoother @ np.where(finite, log_values, 0.0))
    vals[(smoother[:, ~finite] > 0).any(axis=1)] = 0.0
    return vals


def embedded(disc):
    """The stored band written back into an n x G matrix."""
    out = np.zeros((disc.band.shape[0], disc.grid.count))
    np.put_along_axis(out, disc.columns, disc.band, axis=1)
    return out


def assert_matches_dense(disc, centers, h, grid, rng):
    rows, smoother = dense_rows(centers, h, grid)
    band = embedded(disc)
    assert np.array_equal(disc.matrix.toarray(), band)
    # every nonzero of the dense matrix lies inside the band, and nothing else
    assert np.array_equal(band > 0, smoother > 0)
    np.testing.assert_allclose(band, smoother, rtol=1e-13, atol=0)

    weights = rng.uniform(size=centers.size)
    weights[rng.integers(centers.size)] = 1.0
    f = disc.density_on_grid(weights)
    np.testing.assert_allclose(f, weights @ rows / weights.sum(), rtol=1e-13, atol=0)
    assert trapezoid(GridDensity(grid, f)) == pytest.approx(1.0, abs=1e-12)

    logs = rng.uniform(-5.0, 2.0, size=grid.count)
    logs[rng.random(grid.count) < 0.05] = -np.inf
    got = disc.smooth_log(logs)
    want = dense_smooth_log(smoother, logs)
    assert np.array_equal(got == 0, want == 0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


@st.composite
def operators(draw):
    count = draw(st.integers(4, 300))
    dx = draw(st.floats(1e-3, 2.0))
    grid = Grid(x0=draw(st.floats(-50.0, 50.0)), dx=dx, count=count)
    h = draw(st.floats(dx, dx * (count - 1) / 2))
    lo, hi = grid.x0 + h, grid.x_end - h
    fracs = draw(
        st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=40)
    )
    centers = np.clip(lo + np.array(fracs) * (hi - lo), lo, hi)
    return centers, h, grid, draw(st.integers(0, 2**32 - 1))


class TestBandAgainstDense:
    @settings(max_examples=150, deadline=None)
    @given(operators())
    def test_band_matches_dense_reference(self, op):
        centers, h, grid, seed = op
        disc = DiscretizedKernel(QUARTIC, centers, h, grid)
        assert_matches_dense(disc, centers, h, grid, np.random.default_rng(seed))

    def test_window_wider_than_grid(self):
        grid = Grid.over(0.0, 1.0, 11)
        centers = np.array([0.5])
        disc = DiscretizedKernel(QUARTIC, centers, 0.5, grid)
        assert disc.band.shape == (1, grid.count)
        assert_matches_dense(disc, centers, 0.5, grid, np.random.default_rng(0))

    def test_centers_at_first_and_last_covered_node(self):
        grid = Grid(x0=0.0, dx=0.125, count=81)
        centers = np.array([1.0, 9.0])  # windows end exactly on the grid ends
        disc = DiscretizedKernel(QUARTIC, centers, 1.0, grid)
        assert disc.columns[:, 0].tolist() == [0, grid.count - disc.band.shape[1]]
        assert_matches_dense(disc, centers, 1.0, grid, np.random.default_rng(1))

    def test_single_center(self):
        grid = Grid.over(-3.0, 3.0, 257)
        centers = np.array([0.3])
        disc = DiscretizedKernel(QUARTIC, centers, 0.7, grid)
        assert_matches_dense(disc, centers, 0.7, grid, np.random.default_rng(2))

    def test_bandwidth_below_grid_spacing_raises(self):
        grid = Grid(x0=0.0, dx=1.0, count=6)
        with pytest.raises(GridCoverageError, match="below the grid spacing"):
            DiscretizedKernel(QUARTIC, np.array([2.5]), 0.3, grid)

    def test_minus_inf_at_zero_kernel_window_edge_is_ignored(self):
        # window of the center 1.0 is [0.5, 1.5]: nodes 4 and 12, kernel 0
        grid = Grid(x0=0.0, dx=0.125, count=17)
        disc = DiscretizedKernel(QUARTIC, np.array([1.0]), 0.5, grid)
        smoother = dense_rows(np.array([1.0]), 0.5, grid)[1]
        assert smoother[0, 4] == smoother[0, 12] == 0.0
        logs = np.zeros(grid.count)
        logs[[4, 12]] = -np.inf
        assert disc.smooth_log(logs)[0] == pytest.approx(1.0, rel=1e-13)
        assert dense_smooth_log(smoother, logs)[0] > 0
        logs[11] = -np.inf  # strictly inside the window
        assert disc.smooth_log(logs)[0] == 0.0


@settings(max_examples=100, deadline=None)
@given(operators())
def test_applies_are_adjoint(op):
    # sum_g tau_g f_g l_g sum(w) = sum_i w_i (S l)_i: the M-step's tabulation
    # and the smoothing operator use one matrix, which the exact ascent needs
    centers, h, grid, seed = op
    rng = np.random.default_rng(seed)
    disc = DiscretizedKernel(QUARTIC, centers, h, grid)
    weights = rng.uniform(size=centers.size)
    weights[rng.integers(centers.size)] = 1.0
    logs = rng.uniform(-5.0, 2.0, size=grid.count)
    f = disc.density_on_grid(weights)
    grid_side = np.sum(grid.trapezoid_weights * f * logs) * weights.sum()
    point_side = weights @ np.log(disc.smooth_log(logs))
    scale = weights @ np.log(disc.smooth_log(np.abs(logs)))
    assert abs(grid_side - point_side) <= 1e-13 * scale


@settings(max_examples=100, deadline=None)
@given(operators())
def test_zero_at_smallest_entry_zeroes_exactly_its_rows(op):
    # -inf where S is smallest but positive still zeroes every row that
    # weights it; every other row matches the product with that node at 0
    centers, h, grid, seed = op
    disc = DiscretizedKernel(QUARTIC, centers, h, grid)
    S = embedded(disc)
    column = np.unravel_index(np.argmin(np.where(S > 0, S, np.inf)), S.shape)[1]
    logs = np.random.default_rng(seed).uniform(-5.0, 2.0, size=grid.count)
    logs[column] = 0.0
    reference = disc.smooth_log(logs)
    logs[column] = -np.inf
    got = disc.smooth_log(logs)
    hit = S[:, column] > 0
    assert np.all(got[hit] == 0.0)
    assert np.all(got[~hit] > 0)
    assert np.array_equal(got[~hit], reference[~hit])


def test_operator_holds_only_the_band():
    n = 3000
    centers = np.random.default_rng(6).normal(size=n)
    grid = Grid.over(-6.0, 6.0, 1024)
    disc = DiscretizedKernel(QUARTIC, centers, 0.4, grid)
    width = disc.band.shape[1]
    arrays = [v for v in vars(disc).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) <= 16 * n * width + 16 * (n + 1)
    # the sparse matrix wraps those arrays rather than copying them
    for part in (disc.matrix.data, disc.matrix.indices, disc.matrix.indptr):
        assert any(np.shares_memory(part, a) for a in arrays)


class DenseKernel:
    """The smoothing operator as a dense n x G matrix, from its definition."""

    def __init__(self, kernel, centers, bandwidth, grid):
        self.grid = grid
        self.bandwidth = float(bandwidth)
        self.rows, self.smoother = dense_rows(np.asarray(centers), bandwidth, grid)

    def density_on_grid(self, weights):
        return weights @ self.rows / weights.sum()

    def smooth_log(self, log_values):
        return dense_smooth_log(self.smoother, log_values)


@pytest.mark.parametrize(
    "make", [lambda rng: gen_study1(200, rng), gen_study3], ids=["study1", "study3"]
)
def test_fit_matches_dense_operator_fit(monkeypatch, make):
    sample = make(np.random.default_rng(8))
    sparse = fit_adaptive(sample, engine.FitConfig(seed=2))
    monkeypatch.setattr(engine, "DiscretizedKernel", DenseKernel)
    dense = fit_adaptive(sample, engine.FitConfig(seed=2))
    assert sparse.iterations == dense.iterations
    assert sparse.diagnostics["frozen_at"] == dense.diagnostics["frozen_at"]
    assert np.array_equal(sparse.bandwidths, dense.bandwidths)
    np.testing.assert_allclose(sparse.weights, dense.weights, rtol=0, atol=1e-12)


def test_no_dense_array_is_allocated():
    n, count = 2000, 8192
    centers = np.linspace(1.0, 9.0, n)
    grid = Grid.over(0.0, 10.0, count)
    tracemalloc.start()
    try:
        disc = DiscretizedKernel(QUARTIC, centers, 0.02, grid)
        logs = np.log(disc.density_on_grid(np.ones(n)) + 1e-3)
        disc.smooth_log(np.where(np.arange(count) % 7, logs, -np.inf))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * count  # less than even a boolean n x G mask


def test_fit_builds_each_operator_once(monkeypatch):
    built = []

    class Counting(DiscretizedKernel):
        def __init__(self, kernel, centers, bandwidth, grid):
            built.append((bandwidth, grid))
            super().__init__(kernel, centers, bandwidth, grid)

    monkeypatch.setattr(engine, "DiscretizedKernel", Counting)
    rng = np.random.default_rng(4)
    xs = rng.normal(size=80)
    u = rng.uniform(size=80)
    sample = MixtureSample(xs, np.column_stack([u, 1 - u]))
    engine.fit_fixed_bandwidth(sample, [0.9, 0.9], engine.FitConfig(seed=1))
    assert [h for h, _ in built] == [0.9]

    # one component's bandwidth settles a pass before the other's
    built.clear()
    fit_adaptive(gen_study3(np.random.default_rng(0)), engine.FitConfig(seed=1))
    assert len(built) == len(set(built)) > 2
