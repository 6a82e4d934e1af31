#!/usr/bin/env python3
"""mslmix benchmark: one workload per run, one closed-loop caller in one process.

Run from the repository root:

    python3 perfbench/run.py --workload simulate-s3 --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
gives the per-layer metrics: it runs each input twice, once untraced and once
traced, in alternating order, and reports the difference as the tracing
overhead. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it record
the environment and the samples behind each figure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fit-large", "simulate-s3")
SETUP_PROBES = 2  # fresh processes that time set-up, besides the measuring one


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def memory_kb(field: str) -> int:
    """VmRSS (current) or VmHWM (peak) of this process, in kB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} not in /proc/self/status")


def set_up(name: str, seed: int, workdir: Path):
    """Import mslmix, make the workload's inputs and make one warm-up call.

    Returns (workload, fit probe, seconds taken).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import mslmix

    if not Path(mslmix.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mslmix imported from {mslmix.__file__}, not {SRC}")
    import tracer
    import workloads

    probe = tracer.FitProbe()
    workload = workloads.make(name, seed, workdir)
    workload.warm_up()
    probe.take()
    return workload, probe, time.perf_counter() - start


def probe_set_up(args, workdir: Path) -> float:
    """Set-up time measured in a fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe", str(workdir),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def attempt(workload, probe, i: int, job, tracer=None):
    """One timed call and its checks. Returns (seconds, fits, errors, ises)."""
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        workload.run(job)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    fits = probe.take()
    if error:
        return seconds, fits, [error], []
    try:
        errors, ises = workload.check(i, job, fits)
    except Exception as exc:
        errors, ises = [f"check raised {type(exc).__name__}: {exc}"], []
    return seconds, fits, errors, ises


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """(linearly interpolated p-th percentile, samples above it)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(v > value for v in ordered)


def end_to_end(args, workdir: Path) -> tuple:
    setups = [probe_set_up(args, workdir / f"probe-{k}") for k in range(SETUP_PROBES)]
    workload, probe, seconds = set_up(args.workload, args.seed, workdir)
    setups.append(seconds)

    op_seconds, fit_seconds, ises = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < args.seconds:
        job = workload.prepare(i)
        if i == 0:
            rss_kb = memory_kb("VmRSS")
        seconds, fits, errors, op_ises = attempt(workload, probe, i, job)
        if i == 0:
            peak_kb = memory_kb("VmHWM") - rss_kb
        op_seconds.append(seconds)
        fit_seconds += [s for s, _ in fits]
        ises += op_ises
        attempted += 1
        failed += bool(errors)
        for e in errors[:3]:
            print(f"failed op {i}: {e}")
        i += 1

    tail_s, beyond = percentile(fit_seconds, workload.tail_percentile)
    print(f"setup_s samples: {sorted(round(s, 4) for s in setups)}")
    print(f"fit_s: {len(fit_seconds)} fits in {len(op_seconds)} ops; "
          f"fit_s_tail is p{workload.tail_percentile} with {beyond} samples beyond it")
    print(f"ise_mean over {len(ises)} components of the first {workload.ise_ops} ops")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "fit_s_p50": (statistics.median(fit_seconds), "s"),
        "fit_s_tail": (tail_s, "s"),
        "reps_per_s": (len(fit_seconds) / sum(op_seconds), "1/s"),
        "peak_mem_mb": (peak_kb / 1024, "MiB"),
        "ise_mean": (statistics.fmean(ises) if ises else 0.0, "ISE"),
    }
    return attempted, failed, [] if ises else ["no ISE samples"], metrics


def traced(args, workdir: Path) -> tuple:
    workload, probe, _ = set_up(args.workload, args.seed, workdir)
    import tracer as tracing

    tr = tracing.Tracer()
    wall = {False: 0.0, True: 0.0}
    attempted = failed = traced_ops = 0
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < args.seconds:
        job = workload.prepare(i)
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            seconds, _, errors, _ = attempt(
                workload, probe, i, job, tr if with_trace else None
            )
            wall[with_trace] += seconds
            traced_ops += with_trace
            attempted += 1
            failed += bool(errors)
            for e in errors[:3]:
                print(f"failed op {i}: {e}")
        i += 1

    calls, self_s = tr.layer_times()
    counts = tr.counts
    overhead = wall[True] - wall[False]
    self_sum = sum(self_s.values())
    problems = []
    fit_spans = calls["bandwidth.fit_adaptive"]
    if fit_spans != traced_ops * workload.fits_per_op:
        problems.append(f"{fit_spans} fit spans for {traced_ops * workload.fits_per_op} fits")
    if calls["engine.posterior_weights"] != counts["engine.iterations"] + tr.unconverged_fits:
        problems.append(
            f"posterior_weights called {calls['engine.posterior_weights']} times for "
            f"{counts['engine.iterations']:.0f} iterations"
        )
    if tr.open_spans():
        problems.append(f"{tr.open_spans()} spans left open")
    if abs(wall[True] - self_sum) > max(abs(overhead), 1e-3 * wall[True]):
        problems.append(
            f"self times sum to {self_sum:.6f} s, traced wall {wall[True]:.6f} s, "
            f"overhead {overhead:.6f} s"
        )
    for p in problems:
        print(f"tracer self-check: {p}")
    print(f"tracer: {traced_ops} traced ops, wall {wall[True]:.4f} s, self sum "
          f"{self_sum:.4f} s, untraced {wall[False]:.4f} s")

    def share(part: str, whole: str) -> float:
        return counts[part] / calls[whole] if calls[whole] else 0.0

    metrics = {}
    for name in tracing.Tracer.TARGETS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s[name], "s")
    metrics.update({
        "smoothing.kernel_build.bytes": (counts["smoothing.kernel_build.bytes"], "B"),
        "smoothing.kernel_build.useful_frac": (
            share("smoothing.kernel_build.new", "smoothing.kernel_build"), "ratio"),
        "smoothing.smooth_log.zero_path_frac": (
            share("smoothing.smooth_log.zero_path", "smoothing.smooth_log"), "ratio"),
        "smoothing.apply_bytes": (counts["smoothing.apply_bytes"], "B"),
        "smoothing.nodes_per_window": (
            tr.nodes_per_window if calls["smoothing.kernel_build"] else 0.0, "nodes"),
        "engine.iterations": (counts["engine.iterations"], "count"),
        "bandwidth.adaptive_iterations": (counts["bandwidth.adaptive_iterations"], "count"),
        "tracer.ops": (traced_ops, "count"),
        "tracer.wall_s": (wall[True], "s"),
        "tracer.overhead_s": (overhead, "s"),
    })
    return attempted, failed, problems, metrics


def environment() -> dict:
    import hashlib
    import platform

    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "mslmix" / "__init__.py").is_file():
        print(f"error: no mslmix sources under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads may not exceed nproc; set before numpy loads, children inherit.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc())

    if args.setup_probe:
        workdir = Path(args.setup_probe)
        workdir.mkdir(parents=True, exist_ok=True)
        print(json.dumps({"setup_s": set_up(args.workload, args.seed, workdir)[2]}))
        return 0

    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, problems, metrics = run(args, workdir)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
