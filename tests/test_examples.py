"""The documented entry points run as written: the README's library example
and the experiment scripts."""

import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import mslmix

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["result"].converged
    assert namespace["values"].shape == (200,)
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "script, header",
    [
        ("run_table1.py", "method Study I f1 f2 Study II f1 f2".split()),
        ("run_study3_comparison.py", "estimator 100*ISE f1 100*ISE f2".split()),
    ],
)
def test_experiment_script_runs(script, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--reps", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert header in [line.split() for line in done.stdout.splitlines()]


def test_fit_panel_compare(tmp_path, monkeypatch, capsys):
    fit = {
        "iterations": 3,
        "converged": True,
        "frozen_at": 1,
        "bandwidths": [0.5, 0.7],
        "grid": [0.0, 0.1, 11],
        "degenerate_rows": [],
        "diagnostics": {"denseness": [True, True]},
        "weights": [[0.25, 0.75]],
        "loglik_trace": [-3.0, float("-inf"), -2.5],
        "fixed_point_gap": 1e-9,
        "bandwidth_trace": None,
        "densities": [[0.0, 1.0]],
    }
    panels = {
        "base": {"study1/data0/adaptive/max3": fit},
        "close": {"study1/data0/adaptive/max3": dict(fit, weights=[[0.25, 0.75 + 2**-40]])},
        "moved": {"study1/data0/adaptive/max3": dict(fit, iterations=4)},
        "finite": {"study1/data0/adaptive/max3": dict(fit, loglik_trace=[-3.0, -2.75, -2.5])},
        "other": {"study1/data1/adaptive/max3": fit},
    }
    paths = {}
    for name, panel in panels.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(panel))

    fit_panel = load_script("fit_panel")

    def compare(a, b):
        monkeypatch.setattr(sys, "argv", ["fit_panel.py", "--compare", str(a), str(b)])
        with pytest.raises(SystemExit) as exit_:
            fit_panel.main()
        return exit_.value.code, capsys.readouterr().out

    code, out = compare(paths["base"], paths["close"])
    assert code == 0, out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert lines["iterations"] == ["identical"]
    assert lines["weights"][:4] == ["max", "abs", f"{2**-40:.3g}", "max"]
    assert lines["loglik_trace"][:3] == ["max", "abs", "0"]

    code, out = compare(paths["base"], paths["finite"])
    assert code == 0, out
    lines = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert lines["loglik_trace"][:6] == ["max", "abs", "inf", "max", "rel", "inf"]

    code, out = compare(paths["base"], paths["moved"])
    assert code == 1
    assert "iterations        1 differ" in out

    code, out = compare(paths["base"], paths["other"])
    assert code == 1
    assert "fits only in one panel" in out


def test_readme_library_list_is_the_package_root():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    # the bulleted list, continuation lines included; the example code is not
    listed = [line for line in section.splitlines() if line.startswith(("- ", "  "))]
    assert set(re.findall(r"`(\w+)`", "\n".join(listed))) == set(mslmix.__all__)


@pytest.mark.parametrize(
    "parent, change, better, status, wins",
    [
        # parent spread 0.02, change 10% slower: inside the 0.25 bound
        ([1.0, 0.99, 1.01, 1.0, 0.98, 1.02], [1.1, 1.09, 1.11, 1.1, 1.08, 1.12], "lower", "ok", 0),
        # change median 40% slower
        ([1.0, 0.99, 1.01, 1.0, 0.98, 1.02], [1.4, 1.39, 1.41, 1.4, 1.38, 1.42], "lower", "worse", 0),
        # fewer per second by 40% when higher is better
        ([10.0, 10.1, 9.9, 10.0, 10.2, 9.8], [6.0, 6.1, 5.9, 6.0, 6.2, 5.8], "higher", "worse", 0),
        # parent spread 0.5 of its median, change runs interleave with it
        ([0.5, 1.0, 1.5, 0.6, 1.4, 1.0], [0.9, 1.2, 0.8, 1.1, 1.0, 0.95], "lower", "unresolved", 3),
        # same spread, but every change run beats every parent run
        ([0.5, 1.0, 1.5, 0.6, 1.4, 1.0], [0.4, 0.45, 0.42, 0.41, 0.44, 0.43], "lower", "ok", 6),
    ],
)
def test_bench_pairs_summary(parent, change, better, status, wins):
    summary = load_script("bench_pairs").summarize(parent, change, better, 0.25)
    assert summary["status"] == status
    assert summary["wins"] == wins
    assert summary["parent_median"] == statistics.median(parent)
    assert summary["change_median"] == statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    assert summary["quartiles"] == (q1, q3)
