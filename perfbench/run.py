"""End-to-end search benchmark: paper workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload conx-mbv2 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` makes a separate run with spans wrapped around each layer's
public functions and reports the per-layer metrics.  The last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it are a table and a ``record`` line with
the run's provenance and sample counts.  Scratch files go under
``.perfbench/`` in the repository and are removed on exit.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

#: End-to-end metric -> unit (every workload reports all of them).
END_TO_END = {
    "setup_s": "s",
    "search_s": "s",
    "best_cost": "cycles",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
}
#: Measured and printed beside them, but not gated: a store hit takes a
#: tenth of a millisecond and its run median swings ~2x with host load.
UNGATED = {"hit_ms_p50": "ms"}


def measure_setup(workload, seed: int, workdir: str, report) -> None:
    """Median of ``SETUP_PROBES`` fresh-interpreter set-ups."""
    from workloads import ServiceWorkload

    if isinstance(workload, ServiceWorkload):
        kind = "service"
        payload = json.dumps({"max_concurrent": workload.max_concurrent,
                              "executor": workload.executor,
                              "workers": workload.workers})
    else:
        kind = "search"
        payload = workload.specs(seed)[0].to_json(indent=None)
    times = []
    for _ in range(SETUP_PROBES):
        root = tempfile.mkdtemp(dir=workdir)
        report.attempted += 1
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
                 kind, payload, root],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                check=True)
            times.append(float(done.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as error:
            report.fail(f"setup probe failed: {error!r}")
    if times:
        report.put("setup_s", statistics.median(times), len(times))


def host_speed_s() -> float:
    """Seconds for a fixed pure-Python loop: a snapshot of how fast this
    host runs the interpreter right now (it swings ~2x with the load
    other tenants put on the machine)."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The workloads close their pools, but a worker left by a failed path
    is terminated here.  The shared-memory resource tracker that a
    process pool starts would otherwise outlive this process by a
    moment; it stops once every holder of its pipe has ended, so it is
    stopped last.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def provenance(seed: int, started_at: str, host_speed) -> dict:
    """Enough context to tell host drift from a code change."""
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (KeyError, TypeError):
        blas = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {key: os.environ.get(key) for key in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "REPRO_EXECUTOR", "REPRO_WORKERS", "REPRO_KERNEL")},
        "started_at": started_at,
        "host_speed_s": host_speed,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from layers import PER_LAYER
    from workloads import WORKLOADS, Report, run_workload

    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    workload = WORKLOADS[name]
    workdir = tempfile.mkdtemp(dir=WORKDIR)
    try:
        report = Report()
        if not trace:
            measure_setup(workload, seed, workdir, report)
        host_speed = [host_speed_s()]
        measured = run_workload(workload, seed, seconds, trace, workdir)
        host_speed.append(host_speed_s())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.metrics.update(measured.metrics)
    report.samples.update(measured.samples)
    report.attempted += measured.attempted
    report.failures.extend(measured.failures)

    units = ({m.name: m.unit for m in PER_LAYER} if trace else END_TO_END)
    missing = [metric for metric in units if metric not in report.metrics]
    for metric in missing:
        report.fail(f"metric {metric} was not measured")
    print(f"perfbench {name} seed={seed} trace={int(trace)}")
    shown = {**units, **({} if trace else UNGATED)}
    for metric, unit in shown.items():
        if metric in report.metrics:
            print(f"  {metric:<30} {report.metrics[metric]:>16.6g} "
                  f"{unit:<6} n={report.samples.get(metric, 1)}")
    error_frac = report.failed / max(1, report.attempted)
    print(f"  {'error_frac':<30} {error_frac:>16.6g} frac   "
          f"n={report.attempted}")
    for failure in report.failures:
        print(f"  FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"record": {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "provenance": provenance(seed, started_at, host_speed),
        "samples": report.samples, "error_frac": error_frac,
        "failures": report.failures}}))
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": {metric: {"value": report.metrics[metric], "unit": unit}
                    for metric, unit in units.items()
                    if metric in report.metrics},
    }))
    return 0


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh interpreter, one combined table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"perfbench {name}: exited {done.returncode}")
            combined["correct"] = False
            combined["attempted"] += 1
            combined["failed"] += 1
            continue
        print("\n".join(line for line in lines[:-1]
                        if not line.startswith('{"record"')))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # Temporary files of this process and its children (worker pools,
    # set-up probes) stay inside the checkout.
    WORKDIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR)
    tempfile.tempdir = str(WORKDIR)
    try:
        if args.workload == "all":
            return run_all(list(WORKLOADS), args.seed, args.seconds,
                           bool(args.trace))
        return run_one(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    finally:
        stop_children()
        try:
            WORKDIR.rmdir()
        except OSError:  # still in use by a concurrent run
            pass


if __name__ == "__main__":
    sys.exit(main())
