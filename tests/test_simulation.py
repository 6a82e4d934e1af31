import json
import pickle

import numpy as np
import pytest

import mslmix.simulation as sim
from mslmix.engine import FitConfig
from mslmix.kernels import Grid, GridDensity, trapezoid
from mslmix.simulation import (
    STUDIES,
    StudyDesign,
    gen_study1,
    gen_study2,
    gen_study3,
    plugin_kde,
    run_replications,
    simple_estimator,
)


class TestGenerators:
    def test_study1_alpha_rule_is_symmetric(self):
        rng = np.random.default_rng(0)
        s = gen_study1(100_000, rng)
        assert abs(s.alphas[:, 0].mean() - 0.5) < 0.01

    def test_study1_draws_standard_normal(self):
        rng = np.random.default_rng(1)
        n = 10_000
        s = gen_study1(n, rng)
        assert abs(s.xs.mean()) < 3 / np.sqrt(n)
        assert abs(s.xs.std() - 1.0) < 0.05

    def test_study1_default_n(self):
        assert STUDIES["1"].default_n == 400

    def test_study2_component_locations(self):
        rng = np.random.default_rng(2)
        n = 20_000
        alphas = sim._ratio_alphas(n, rng)
        xs, labels = sim._mix_draws(
            rng, alphas, [sim._std_normal(10, 5), sim._scaled_t(20, 10, 4)]
        )
        comp1 = xs[labels == 0]
        comp2 = xs[labels == 1]
        assert abs(comp1.mean() - 10) < 3 * 5 / np.sqrt(comp1.size)
        assert abs(np.median(comp2) - 20) < 0.5

    def test_study2_alpha_rule_matches_study1(self):
        s1 = gen_study1(200, np.random.default_rng(7))
        s2 = gen_study2(200, np.random.default_rng(7))
        assert np.array_equal(s1.alphas, s2.alphas)

    def test_study3_block_structure(self):
        s = gen_study3(np.random.default_rng(3))
        assert s.n == 292
        assert np.array_equal(
            s.alphas[:211], np.tile((0.677, 0.323), (211, 1))
        )
        assert np.array_equal(s.alphas[211:], np.tile((0.0, 1.0), (81, 1)))

    def test_study3_fixed_n(self):
        with pytest.raises(ValueError, match="fixed design"):
            STUDIES["3"].sample(np.random.default_rng(0), n=100)

    def test_design_samples_from_its_own_generator(self):
        drawn = []

        def generate(n, rng):
            drawn.append(n)
            return gen_study1(n, rng)

        design = StudyDesign("4", 100, generate, STUDIES["1"].truths, (-4.0, 4.0))
        s = design.sample(np.random.default_rng(0), 50)
        assert s.n == 50
        assert drawn == [50]

    @pytest.mark.parametrize(
        "study_id, draw",
        [
            ("1", lambda rng: gen_study1(400, rng)),
            ("2", lambda rng: gen_study2(400, rng)),
            ("3", gen_study3),
        ],
    )
    def test_studies_draw_from_their_generators(self, study_id, draw):
        got = STUDIES[study_id].sample(np.random.default_rng(11))
        want = draw(np.random.default_rng(11))
        assert np.array_equal(got.xs, want.xs)
        assert np.array_equal(got.alphas, want.alphas)

    @pytest.mark.parametrize("study_id", ["1", "2", "3"])
    def test_truths_integrate_to_one(self, study_id):
        design = STUDIES[study_id]
        lo, hi = design.eval_range
        span = hi - lo
        g = Grid.over(lo - 2 * span, hi + 2 * span, 16384)
        for truth in design.truths:
            total = trapezoid(GridDensity(g, truth(g.points)))
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_study3_first_block_mixture_integrates_to_one(self):
        design = STUDIES["3"]
        g = Grid.over(-10.0, 30.0, 8192)
        mix = 0.677 * design.truths[0](g.points) + 0.323 * design.truths[1](
            g.points
        )
        assert trapezoid(GridDensity(g, mix)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("study_id", ["1", "2", "3"])
    def test_design_round_trips_through_pickle(self, study_id):
        design = STUDIES[study_id]
        copy = pickle.loads(pickle.dumps(design))
        points = Grid.over(*design.eval_range, 1024).points
        for truth, copied in zip(design.truths, copy.truths, strict=True):
            assert np.array_equal(truth(points), copied(points))
        a = design.sample(np.random.default_rng(0))
        b = copy.sample(np.random.default_rng(0))
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.alphas, b.alphas)


class TestSimpleEstimator:
    def setup_method(self):
        self.sample = gen_study3(np.random.default_rng(5))
        self.mix = self.sample.xs[:211]
        self.pure = self.sample.xs[211:]
        lo = self.sample.xs.min() - 5
        hi = self.sample.xs.max() + 5
        self.grid = Grid.over(lo, hi, 2048)

    def blocks(self):
        return plugin_kde(self.mix), plugin_kde(self.pure)

    def test_reconstruction_identity(self):
        f1, f2 = simple_estimator(*self.blocks(), self.grid)
        # r = p1 f1 + p2 f2 must hold at every grid node by construction
        r = 0.677 * f1.values + 0.323 * f2.values
        disc = simple_estimator(*self.blocks(), self.grid)
        assert np.allclose(
            r, 0.677 * disc[0].values + 0.323 * disc[1].values, atol=0
        )
        mixture_kde = sim.eval_on_grid(
            sim.WeightedKernelDensity(
                self.mix,
                np.ones_like(self.mix),
                sim.plugin_bandwidth(self.mix),
            ),
            self.grid,
        )
        assert np.allclose(r, mixture_kde.values, atol=1e-12)

    def test_unit_mass(self):
        f1, f2 = simple_estimator(*self.blocks(), self.grid)
        assert trapezoid(f1) == pytest.approx(1.0, abs=1e-6)
        assert trapezoid(f2) == pytest.approx(1.0, abs=1e-6)

    def test_negative_values_do_occur(self):
        mins = []
        for seed in range(20):
            s = gen_study3(np.random.default_rng(seed))
            grid = Grid.over(s.xs.min() - 5, s.xs.max() + 5, 1024)
            f1, _ = simple_estimator(plugin_kde(s.xs[:211]), plugin_kde(s.xs[211:]), grid)
            mins.append(f1.values.min())
        assert min(mins) < 0

    def test_degenerate_blocks_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            plugin_kde(self.pure[:1])


class TestRunReplications:
    def test_deterministic_reports(self):
        design = STUDIES["1"]
        kwargs = dict(
            replications=3,
            config=FitConfig(grid_size=512),
            estimators=("proposed",),
            n=80,
            master_seed=42,
        )
        r1 = run_replications(design, **kwargs)
        r2 = run_replications(design, **kwargs)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_report_contents(self):
        report = run_replications(
            STUDIES["1"],
            2,
            config=FitConfig(grid_size=512),
            n=60,
            master_seed=7,
        )
        assert report.mean_ise["proposed"][0] > 0
        assert len(report.replicate_seeds) == 2
        assert report.failures == []
        doc = json.loads(report.to_json())
        assert doc["study"] == "1"
        assert doc["replications"] == 2
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "study,estimator,component,mean_ise,se_ise,R,seed"
        assert len(lines) == 3

    def test_study3_with_both_estimators(self):
        report = run_replications(
            STUDIES["3"],
            2,
            config=FitConfig(grid_size=512),
            estimators=("proposed", "simple"),
            master_seed=1,
        )
        assert set(report.mean_ise) == {"proposed", "simple"}
        assert "simple_negative_fraction" in report.extras

    def test_simple_requires_pure_block(self):
        with pytest.raises(ValueError, match="pure block"):
            run_replications(
                STUDIES["1"], 1, estimators=("proposed", "simple"), master_seed=0
            )

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            run_replications(STUDIES["1"], 1, estimators=("other",), master_seed=0)
        with pytest.raises(ValueError, match="'proposed' is listed more than once"):
            run_replications(
                STUDIES["3"],
                1,
                estimators=("proposed", "proposed", "simple"),
                master_seed=0,
            )

    def test_failures_are_recorded_and_excluded(self, monkeypatch):
        calls = {"count": 0}
        real = sim.fit_adaptive

        def flaky(sample, config):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("synthetic failure")
            return real(sample, config)

        monkeypatch.setattr(sim, "fit_adaptive", flaky)
        report = run_replications(
            STUDIES["1"],
            3,
            config=FitConfig(grid_size=512),
            n=60,
            master_seed=3,
        )
        assert len(report.failures) == 1
        assert report.failures[0]["replicate"] == 1
        assert report.failures[0]["error"] == "RuntimeError"
        assert np.isnan(report.per_replicate_ise["proposed"][1]).all()
        assert not np.isnan(report.mean_ise["proposed"]).any()
        doc = json.loads(report.to_json())
        assert doc["per_replicate_ise"]["proposed"][1] == [None, None]
        # R column reflects only the replicates that were aggregated
        assert ",2," in report.to_csv().splitlines()[1]

    def test_tabulation_failures_are_recorded_and_excluded(self, monkeypatch):
        calls = {"count": 0}
        real = sim.eval_on_grid

        def flaky(f, grid):
            calls["count"] += 1
            if calls["count"] == 3:  # replicate 1, first component
                raise ValueError("synthetic tabulation failure")
            return real(f, grid)

        monkeypatch.setattr(sim, "eval_on_grid", flaky)
        report = run_replications(
            STUDIES["1"],
            3,
            config=FitConfig(grid_size=512),
            n=60,
            master_seed=3,
        )
        assert report.failures == [
            {
                "replicate": 1,
                "estimator": "proposed",
                "error": "ValueError",
                "message": "synthetic tabulation failure",
            }
        ]
        assert np.isnan(report.per_replicate_ise["proposed"][1]).all()
        assert np.isnan(report.per_replicate_l1["proposed"][1]).all()
        kept = report.per_replicate_ise["proposed"][[0, 2]]
        assert report.mean_ise["proposed"] == pytest.approx(kept.mean(axis=0), rel=1e-15)
        assert ",2," in report.to_csv().splitlines()[1]

    def test_baseline_selects_each_block_bandwidth_once(self, monkeypatch):
        blocks = []
        real = sim.plugin_bandwidth

        def counted(xs):
            blocks.append(len(xs))
            return real(xs)

        monkeypatch.setattr(sim, "plugin_bandwidth", counted)
        report = run_replications(
            STUDIES["3"],
            2,
            config=FitConfig(grid_size=512),
            estimators=("proposed", "simple"),
            master_seed=1,
        )
        assert report.failures == []
        assert blocks == [sim.STUDY3_N1, sim.STUDY3_N2] * 2
