import csv
import hashlib
import json

import numpy as np
import pytest

from mslmix.cli import ingest_csv, main, write_sample_csv
from mslmix.data import MixtureSample
from mslmix.simulation import gen_study1


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestIngestCsv:
    def test_well_formed_file(self, tmp_path):
        p = tmp_path / "data.csv"
        write_lines(
            p,
            [
                "x,alpha_1,alpha_2",
                "0.5,0.3,0.7",
                "1.5,0.6,0.4",
                "-0.25,1,0",
            ],
        )
        s = ingest_csv(p)
        assert s.n == 3
        assert s.n_components == 2
        assert s.xs[2] == -0.25

    def test_row_sum_error_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3,0.7", "1.0,0.6,0.3"])
        with pytest.raises(ValueError, match="bad.csv:3"):
            ingest_csv(p)
        p = tmp_path / "nan.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3,0.7", "0.2,nan,nan"])
        with pytest.raises(ValueError, match="nan.csv:3: proportions must lie in"):
            ingest_csv(p)

    def test_near_one_row_sum_is_normalized(self, tmp_path):
        p = tmp_path / "ok.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3000001,0.7", "1,0.5,0.5"])
        s = ingest_csv(p)
        assert s.alphas[0].sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_alpha_column_names_component(self, tmp_path):
        p = tmp_path / "zero.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,1,0", "1.5,1,0"])
        with pytest.raises(ValueError, match="column 1"):
            ingest_csv(p)

    def test_malformed_field_names_line(self, tmp_path):
        p = tmp_path / "mal.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3,0.7", "oops,0.5,0.5"])
        with pytest.raises(ValueError, match="mal.csv:3"):
            ingest_csv(p)

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_nonfinite_x_names_line(self, tmp_path, x):
        p = tmp_path / "nonfinite.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3,0.7", f"{x},0.5,0.5"])
        with pytest.raises(ValueError, match=f"nonfinite.csv:3: x must be finite, got {x}"):
            ingest_csv(p)

    def test_wrong_field_count_names_line(self, tmp_path):
        p = tmp_path / "short.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.3"])
        with pytest.raises(ValueError, match="short.csv:2"):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(p)

    def test_header_enforced(self, tmp_path):
        p = tmp_path / "hdr.csv"
        write_lines(p, ["value,w1,w2", "0.5,0.5,0.5"])
        with pytest.raises(ValueError, match="header"):
            ingest_csv(p)

    def test_component_count_override(self, tmp_path):
        p = tmp_path / "data.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.4,0.6", "0.1,0.5,0.5"])
        with pytest.raises(ValueError, match="expected 3 components"):
            ingest_csv(p, expected_components=3)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        sample = gen_study1(50, rng)
        p = tmp_path / "rt.csv"
        write_sample_csv(sample, p)
        back = ingest_csv(p)
        assert np.allclose(back.xs, sample.xs, rtol=1e-12, atol=0)
        assert np.allclose(back.alphas, sample.alphas, rtol=1e-12, atol=1e-15)


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(8)
    sample = gen_study1(120, rng)
    p = tmp_path / "sample.csv"
    write_sample_csv(sample, p)
    return p


class TestCmdFit:
    def test_adaptive_fit_writes_outputs(self, sample_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "fit",
                "--input",
                str(sample_csv),
                "--output",
                str(out),
                "--seed",
                "123456",
                "--grid-size",
                "512",
            ]
        )
        assert code == 0
        assert not (out / "error.json").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "adaptive"
        assert result["converged"]
        assert result["seed"] == 123456
        assert len(result["bandwidths"]) == 2
        with open(out / "densities.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["grid_x", "f_1", "f_2"]
        assert len(rows) - 1 == result["grid"]["count"]
        values = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.all(values[:, 1:] >= 0)
        dx = result["grid"]["dx"]
        for col in (1, 2):
            ends = values[0, col] + values[-1, col]
            mass = dx * (values[:, col].sum() - 0.5 * ends)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_seeded_runs_are_identical(self, sample_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "fit",
                        "--input",
                        str(sample_csv),
                        "--output",
                        str(out),
                        "--seed",
                        "9",
                        "--grid-size",
                        "512",
                    ]
                )
                == 0
            )
            outs.append(out)
        assert (outs[0] / "result.json").read_bytes() == (
            outs[1] / "result.json"
        ).read_bytes()
        assert (outs[0] / "densities.csv").read_bytes() == (
            outs[1] / "densities.csv"
        ).read_bytes()

    def test_result_does_not_depend_on_input_location(self, sample_csv, tmp_path):
        moved = tmp_path / "elsewhere" / sample_csv.name
        moved.parent.mkdir()
        moved.write_bytes(sample_csv.read_bytes())
        outs = [tmp_path / "a", tmp_path / "b"]
        for path, out in zip((sample_csv, moved), outs):
            argv = ["fit", "--input", str(path), "--output", str(out), "--seed", "9"]
            assert main(argv + ["--grid-size", "512"]) == 0
        first = (outs[0] / "result.json").read_bytes()
        assert first == (outs[1] / "result.json").read_bytes()
        assert json.loads(first)["input"] == {
            "name": "sample.csv",
            "sha256": hashlib.sha256(sample_csv.read_bytes()).hexdigest(),
        }

    def test_fixed_bandwidth_mode(self, sample_csv, tmp_path):
        out = tmp_path / "fixed"
        code = main(
            [
                "fit",
                "--input",
                str(sample_csv),
                "--output",
                str(out),
                "--bandwidth",
                "0.832,1.127",
                "--seed",
                "1",
                "--grid-size",
                "512",
            ]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert result["mode"] == "fixed"
        assert result["bandwidths"] == [0.832, 1.127]

    def test_unseeded_run_records_drawn_seed(self, sample_csv, tmp_path):
        out = tmp_path / "unseeded"
        code = main(
            [
                "fit",
                "--input",
                str(sample_csv),
                "--output",
                str(out),
                "--grid-size",
                "512",
            ]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert isinstance(result["seed"], int)

    def test_single_component_file(self, tmp_path):
        rng = np.random.default_rng(4)
        xs = rng.normal(size=60)
        sample = MixtureSample(xs, np.ones((60, 1)))
        p = tmp_path / "one.csv"
        write_sample_csv(sample, p)
        out = tmp_path / "oneout"
        code = main(
            ["fit", "--input", str(p), "--output", str(out), "--seed", "2"]
        )
        assert code == 0
        result = json.loads((out / "result.json").read_text())
        assert len(result["bandwidths"]) == 1

    def test_error_writes_artifact_and_nonzero_exit(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["x,alpha_1,alpha_2", "0.5,0.9,0.3"])
        out = tmp_path / "err"
        code = main(["fit", "--input", str(p), "--output", str(out)])
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError"
        assert "bad.csv:2" in err["message"]

    def test_bandwidth_count_mismatch_is_error(self, sample_csv, tmp_path):
        out = tmp_path / "mismatch"
        code = main(
            [
                "fit",
                "--input",
                str(sample_csv),
                "--output",
                str(out),
                "--bandwidth",
                "0.8",
            ]
        )
        assert code == 1
        assert (out / "error.json").exists()

    def test_nonfinite_bandwidth_is_error(self, sample_csv, tmp_path):
        out = tmp_path / "nan"
        code = main(
            ["fit", "--input", str(sample_csv), "--output", str(out), "--bandwidth", "nan,1"]
        )
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError"
        assert err["message"] == "bandwidths must be positive and finite, got [nan, 1.0]"


class TestCmdSimulate:
    def test_simulate_writes_report(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--study",
                "3",
                "--reps",
                "2",
                "--seed",
                "5",
                "--output",
                str(out),
                "--grid-size",
                "512",
                "--estimators",
                "proposed,simple",
            ]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["study"] == "3"
        assert set(report["mean_ise"]) == {"proposed", "simple"}
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 estimators x 2 components

    def test_simple_on_study_one_is_error(self, tmp_path):
        out = tmp_path / "bad"
        code = main(
            [
                "simulate",
                "--study",
                "1",
                "--reps",
                "1",
                "--seed",
                "5",
                "--output",
                str(out),
                "--estimators",
                "proposed,simple",
            ]
        )
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert "pure block" in err["message"]

    def test_duplicate_estimator_is_error(self, tmp_path):
        out = tmp_path / "dup"
        code = main(
            [
                "simulate",
                "--study",
                "3",
                "--reps",
                "2",
                "--seed",
                "5",
                "--output",
                str(out),
                "--estimators",
                "proposed,proposed,simple",
            ]
        )
        assert code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ValueError"
        assert "'proposed' is listed more than once" in err["message"]
        assert not (out / "report.csv").exists()
