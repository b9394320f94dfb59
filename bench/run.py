"""kportrait benchmark: one workload, one seed, one result.

    python3 bench/run.py --workload portraits --seed 1 --seconds 10 --trace 0

Workloads: analysis and cli (listed in BENCHMARK.json); portraits, cycles,
scan and s2-surface show known defects (see bench/README.md).  The
program is loaded from ``src/`` of the checkout this file sits in; with no
program there the run exits 2 without a result.

With ``--trace 0`` operations run back to back for ``--seconds`` seconds
and the end-to-end metrics are reported.  With ``--trace 1`` a fixed list of
operations runs once untraced and once traced, and the per-layer metrics
are reported.  The full report (machine block, metrics named after the
workload, failure reasons) is printed first; the last line of standard
output is the JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench-work"
SETUP_PROBES = 11


def load_program():
    """Import kportrait from this checkout's ``src``, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import kportrait

    if not Path(kportrait.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"kportrait was found at {kportrait.__file__}, outside {SRC}")
    return kportrait


def execute(wl: workloads.Workload, item, timed_region=contextlib.nullcontext):
    """Run and check one operation; returns (seconds, verdict).

    An exception from the program or from a check on garbage output is a
    failed operation, not a crashed benchmark.
    """
    with timed_region():
        t0 = time.perf_counter()
        try:
            raw = wl.run(item)
        except Exception as exc:
            raw = exc
        seconds = time.perf_counter() - t0
    if isinstance(raw, Exception):
        return seconds, workloads.Verdict([("raised", f"{type(raw).__name__}: {raw}")])
    try:
        return seconds, wl.check(item, raw)
    except Exception as exc:
        return seconds, workloads.Verdict([("check-raised", f"{type(exc).__name__}: {exc}")])


def probe_setup(name: str, seed: int) -> float:
    """Seconds to import kportrait and run one operation, in a fresh process."""
    work_dir = WORK_ROOT / f"probe-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe_setup.py"), name, str(seed), str(work_dir)],
            capture_output=True,
            text=True,
            timeout=170,
            check=False,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine(threads: str | None) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_commit": git_commit(),
        "kportrait_threads": {"was_set": threads is not None, "value": threads, "cleared": True},
    }


def timed_run(wl, items, seconds: float, seed: int):
    execute(wl, items[0])  # warm-up
    tally = workloads.Tally(len(items))
    setup: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not tally.attempted or time.perf_counter() < deadline:
        # Set-up probes are spread evenly over the run, so that their median
        # samples the same phases of a shared machine as the operations do;
        # the run is extended by the time they take.
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + len(setup) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setup.append(probe_setup(wl.name, seed))
            deadline += time.perf_counter() - t0
        index = tally.attempted % len(items)
        tally.add(index, *execute(wl, items[index]))
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(wl.name, seed))
    # Each input's fastest attempt: inputs recur across the run, so this
    # filters the seconds-long slow phases of a shared machine, and the
    # spread across inputs still shows the slow inputs.
    best = tally.best_ms()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "op_ms_p50": {"value": workloads.percentile(best, 50), "unit": "ms"},
        "op_ms_p90": {"value": workloads.percentile(best, 90), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
    }
    named = {
        **wl.summary(tally),
        "failed_frac": tally.failed / tally.attempted,
        "setup_s": statistics.median(setup),
        "setup_s_samples": setup,
        "peak_rss_mb": peak_rss_mb,
    }
    return tally, metrics, named


def traced_run(wl, items):
    ops = [items[k % len(items)] for k in range(wl.trace_ops)]
    execute(wl, ops[0])  # warm-up
    base = sum(execute(wl, item)[0] for item in ops)
    tally = workloads.Tally(len(ops))
    traced = 0.0
    tracer = layertrace.Tracer()
    tracer.install()
    wl.untraced = tracer.paused
    try:
        for index, item in enumerate(ops):
            seconds, verdict = execute(wl, item, tracer.recording)
            traced += seconds
            tally.add(index, seconds, verdict)
    finally:
        tracer.uninstall()
    per_layer = tracer.metrics()
    per_layer["trace.overhead_ratio"] = traced / base
    metrics = {name: {"value": per_layer[name], "unit": layertrace.unit(name)} for name in layertrace.metric_names()}
    named = {"absent_layers": tracer.absent, "spans": len(tracer.spans)}
    return tally, metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # KPORTRAIT_THREADS silently overrides --jobs, so it must not leak in
    threads = os.environ.pop("KPORTRAIT_THREADS", None)
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot load kportrait from {SRC}: {exc}", file=sys.stderr)
        return 2

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](str(work_dir))
        items = wl.inputs(args.seed)
        if args.trace:
            tally, metrics, named = traced_run(wl, items)
        else:
            tally, metrics, named = timed_run(wl, items, args.seconds, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(threads),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "named_metrics": named,
    }
    print(json.dumps(report, indent=1))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
