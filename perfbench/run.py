#!/usr/bin/env python3
"""Benchmark of the ``hfpc`` command and the public ``hfpc.cchm`` functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of the workload runs in a fresh
Python process (``worker.py``) on the default install: the sources under
``src/``, whatever scan backend they select, and one search worker.  Passes
repeat while another one fits in S seconds; at least one always runs.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the time
untraced and half traced, and reports the per-layer metrics plus the tracing
overhead.  Every output is checked against recorded expected values.  The
last line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit); the line before it records the
environment and the sample counts.  Traces go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table6", "tqu7", "first-deep", "verify-cchm")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # workers still running then are killed


class WorkerFailed(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile, lowered until at least ten samples lie
    beyond it, but never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(min(math.ceil(q / 100 * n), n - 10), math.ceil(n / 2), 1)
    return ordered[rank - 1]


def spawn(workload: str, seed: int, mode: str, deadline: float,
          trace_file: str = "") -> tuple[float, dict]:
    """Run one worker; returns (set-up seconds, its report).  The worker is
    killed if it is still running at ``deadline`` (a perf_counter time)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv + ([trace_file] if trace_file else []),
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    lines = rest.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerFailed("%s %s worker exited with %s" % (workload, mode, proc.returncode))
    return setup_s, json.loads(lines[-1])


def passes(workload: str, seed: int, mode: str, seconds: float, deadline: float,
           trace_dir: Path | None = None) -> list[tuple[float, dict]]:
    """Passes while another one of average length still fits in ``seconds``;
    at least one."""
    out = []
    start = time.perf_counter()
    elapsed = 0.0
    while not out or elapsed * (len(out) + 1) / len(out) <= seconds:
        trace_file = ""
        if trace_dir is not None:
            trace_file = str(trace_dir / ("%s-seed%d-%d.jsonl" % (workload, seed, len(out))))
        out.append(spawn(workload, seed, mode, deadline, trace_file))
        elapsed = time.perf_counter() - start
    return out


def environment(backend: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "absent"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or "absent"
    return {
        "backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": commit,
    }


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, list[dict], dict]:
    runs = passes(workload, seed, "run", seconds, deadline)
    setups = [s for s, _ in runs]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline)[0])
    reports = [r for _, r in runs]
    latencies = [x for r in reports for x in r["latencies"]]
    n = len(latencies)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reports), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in reports) / 1024, "MB"),
        "req_p50_ms": (1000 * percentile(latencies, 50), "ms"),
        "req_p99_ms": (1000 * percentile(latencies, 99), "ms"),
    }
    samples = {"passes": len(reports), "setups": len(setups), "requests": n}
    return metrics, reports, samples


def traced(workload: str, seed: int, seconds: float,
           deadline: float) -> tuple[dict, list[dict], dict]:
    trace_dir = ROOT / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    plain = [r for _, r in passes(workload, seed, "run", seconds / 2, deadline)]
    with_trace = [r for _, r in passes(workload, seed, "trace", seconds / 2, deadline,
                                       trace_dir)]
    names = with_trace[0]["layers"].keys()
    metrics = {}
    for name in names:
        values = [r["layers"][name] for r in with_trace]
        value = "absent" if "absent" in values else statistics.median(values)
        metrics[name] = (value, unit_of(name))
    samples = {"passes": len(plain), "traced_passes": len(with_trace),
               "wall_s": statistics.median(r["wall_s"] for r in plain),
               "traced_wall_s": statistics.median(r["wall_s"] for r in with_trace)}
    metrics["trace.overhead_s"] = (samples["traced_wall_s"] - samples["wall_s"], "s")
    return metrics, plain + with_trace, samples


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last == "cand_per_s":
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    if last.endswith("_bytes"):
        return "B"
    return "count"


def trace_problems(reports: list[dict]) -> list[str]:
    """Per-layer numbers that contradict the traced wall time."""
    problems = []
    for r in reports:
        problems += r.get("trace_problems", [])
        layers = r.get("layers")
        if not layers:
            continue
        busy = sum(v for k, v in layers.items()
                   if k in ("scan.two_gen.busy_s", "scan.quaternion.busy_s",
                            "families.assemble.busy_s", "hadamard.profile.busy_s")
                   and v != "absent")
        if busy > r["wall_s"]:
            problems.append("layer busy time %.3fs exceeds wall %.3fs" % (busy, r["wall_s"]))
    return problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hfpc" / "cli.py").is_file():
        sys.stderr.write("perfbench: no hfpc sources under %s\n" % (ROOT / "src"))
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    measure = traced if args.trace else end_to_end
    try:
        metrics, reports, samples = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = trace_problems(reports)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "fail_frac": failed / attempted,
        "samples": samples,
        "environment": environment(reports[0]["backend"]),
        "trace_problems": problems,
    }
    print(json.dumps(info))
    for name, (value, unit) in metrics.items():
        text = format(value, ".10g") if isinstance(value, float) else str(value)
        sys.stderr.write("%-36s %16s %s\n" % (name, text, unit))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
