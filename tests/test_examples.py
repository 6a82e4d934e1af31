"""The documented entry points run as written: the README's library example
and the experiment scripts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mslmix

ROOT = Path(__file__).resolve().parents[1]


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


def test_readme_library_list_is_the_package_root():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    # the bulleted list, continuation lines included; the example code is not
    listed = [line for line in section.splitlines() if line.startswith(("- ", "  "))]
    assert set(re.findall(r"`(\w+)`", "\n".join(listed))) == set(mslmix.__all__)
