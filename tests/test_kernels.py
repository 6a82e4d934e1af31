import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from mslmix.kernels import (
    QUARTIC,
    Grid,
    GridDensity,
    build_grid,
    trapezoid,
    window_span,
)
from mslmix.smoothing import DiscretizedKernel


def quartic_moment_oracle(power: int) -> float:
    """Symbolic integral of t^power * K(t) over the support."""
    t = sympy.Symbol("t")
    expr = sympy.Rational(15, 16) * (1 - t**2) ** 2
    return float(sympy.integrate(t**power * expr, (t, -1, 1)))


class TestQuarticKernel:
    @pytest.mark.parametrize(
        "t, expected",
        [(0.0, 0.9375), (1.0, 0.0), (-1.0, 0.0), (0.5, 0.52734375), (2.0, 0.0)],
    )
    def test_pointwise_values(self, t, expected):
        assert QUARTIC(np.array([t]))[0] == pytest.approx(expected, abs=1e-15)

    def test_unit_integral(self):
        val, _ = integrate.quad(lambda u: QUARTIC(np.array([u]))[0], -1, 1)
        assert abs(val - 1.0) < 1e-9

    def test_second_moment_against_symbolic_oracle(self):
        oracle = quartic_moment_oracle(2)
        assert oracle == pytest.approx(1.0 / 7.0, rel=1e-12)
        quad, _ = integrate.quad(lambda u: u * u * QUARTIC(np.array([u]))[0], -1, 1)
        assert quad == pytest.approx(oracle, rel=1e-10)
        assert QUARTIC.second_moment == pytest.approx(oracle, rel=1e-12)

    def test_first_moment_vanishes(self):
        assert quartic_moment_oracle(1) == 0.0

    def test_roughness_against_symbolic_oracle(self):
        t = sympy.Symbol("t")
        expr = (sympy.Rational(15, 16) * (1 - t**2) ** 2) ** 2
        oracle = float(sympy.integrate(expr, (t, -1, 1)))
        assert oracle == pytest.approx(5.0 / 7.0, rel=1e-12)
        quad, _ = integrate.quad(lambda u: QUARTIC(np.array([u]))[0] ** 2, -1, 1)
        assert quad == pytest.approx(oracle, rel=1e-10)
        assert QUARTIC.roughness == pytest.approx(oracle, rel=1e-12)

    def test_symmetry_and_nonnegativity(self):
        t = np.linspace(-1.5, 1.5, 64)
        vals = QUARTIC(t)
        assert np.allclose(vals, QUARTIC(-t), atol=0)
        assert np.all(vals >= 0)
        assert np.all(vals[np.abs(t) > 1] == 0)

    def test_canonical_delta(self):
        assert QUARTIC.canonical_delta == pytest.approx(35.0**0.2, rel=1e-12)


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid.over(0.0, 1.0, 101)
        assert g.count == 101
        assert np.allclose(np.diff(g.points), g.dx)
        assert g.x_end == pytest.approx(1.0)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            Grid(0.0, -0.1, 10)
        with pytest.raises(ValueError):
            Grid(0.0, 0.1, 1)
        with pytest.raises(ValueError):
            Grid.over(1.0, 1.0, 16)

    @settings(max_examples=200, deadline=None)
    @given(
        xs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        ratio=st.floats(0.2, 10.0),
        count=st.integers(8, 2048),
    )
    def test_build_grid_covers_kernel_windows(self, xs, ratio, count):
        xs = np.array(xs)
        h = ratio * max(float(np.ptp(xs)), 1e-3)
        lo, hi = window_span(xs, h)
        assert (lo, hi) == (xs.min() - h, xs.max() + h)
        g = build_grid(xs, h_max=h, count=count)
        assert g.count == count
        assert g.covers(lo, hi)
        DiscretizedKernel(QUARTIC, xs, h, g)


class TestTrapezoid:
    def test_exact_for_constants(self):
        g = Grid.over(0.0, 1.0, 101)
        assert trapezoid(GridDensity(g, np.ones(101))) == pytest.approx(1.0, abs=1e-14)

    def test_exact_for_linear(self):
        g = Grid.over(0.0, 1.0, 101)
        assert trapezoid(GridDensity(g, g.points)) == pytest.approx(0.5, abs=1e-14)

    def test_normal_pdf_matches_cdf_difference(self):
        g = Grid.over(-8.0, 8.0, 1024)
        val = trapezoid(GridDensity(g, stats.norm.pdf(g.points)))
        expected = stats.norm.cdf(8.0) - stats.norm.cdf(-8.0)
        assert abs(val - expected) < 1e-8

    @given(
        a=st.floats(-5, 5, allow_nan=False),
        b=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_linearity(self, a, b, seed):
        g = Grid.over(-1.0, 2.0, 64)
        rng = np.random.default_rng(seed)
        v1 = rng.uniform(size=64)
        v2 = rng.uniform(size=64)
        combined = trapezoid(GridDensity(g, a * v1 + b * v2))
        parts = a * trapezoid(GridDensity(g, v1)) + b * trapezoid(GridDensity(g, v2))
        assert combined == pytest.approx(parts, abs=1e-12)


class TestGridDensity:
    def test_shape_mismatch(self):
        g = Grid.over(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridDensity(g, np.ones(9))

    def test_rejects_nan(self):
        g = Grid.over(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            GridDensity(g, np.full(10, np.nan))

    def test_allows_minus_inf_log_values(self):
        g = Grid.over(0.0, 1.0, 10)
        vals = np.full(10, -np.inf)
        vals[3] = 0.0
        GridDensity(g, vals)
