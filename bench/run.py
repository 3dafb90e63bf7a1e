"""qlocc benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload {scan_grid,basis_requests,simulate_runs} \
        --seed N --seconds S --trace {0,1}

Run from the repository root (or any copy of it holding `src/qlocc`).  The
package is imported from `src/`; nothing needs to be installed.

Each run starts fresh single-threaded worker processes (`bench/worker.py`):
SETUP_PROBES that only set up, then one that measures.  With `--trace 0` the
last line of stdout is a JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run instead.  Lines
before it repeat every metric by name with its unit, the names the workload
uses for them (points_per_s, requests_per_s, ...), failed_ratio and the
environment.  A record of the run is written to bench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
WORKLOADS = ("scan_grid", "basis_requests", "simulate_runs")
SETUP_PROBES = 6  # set-up-only processes; the measuring process makes one more sample
RUN_TIMEOUT_S = 170  # every worker of a run must end within this
# the worker processes stay single-threaded, whatever BLAS numpy links
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"{mode} worker printed no result ({exc}):\n"
                          f"{proc.stdout[-500:]}\n{proc.stderr.strip()}") from exc


def git_commit() -> str:
    """HEAD of the repository at ROOT, or 'unknown' outside a git checkout.
    The search for a repository stops at ROOT."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timings(res: dict, key: str) -> tuple[float, float, float]:
    """(median pass throughput, request p50 ms, request p99 ms) from the
    per-request times under `key`: reference_ms or latencies_ms (raw)."""
    passes = res[key]
    rate = statistics.median(res["items_per_pass"] / (sum(p) / 1e3) for p in passes)
    every = sorted(x for p in passes for x in p)
    return rate, percentile(every, 50), percentile(every, 99)


def end_to_end(setups: list[dict], res: dict) -> dict:
    rate, p50, p99 = timings(res, "reference_ms")
    return {
        # set-up is too short to calibrate on its own; the measuring process's
        # median speed converts it
        "setup_s": (statistics.median(s["setup_s"] for s in setups)
                    * res["calibration"]["median_scale"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "items_per_s": (rate, "1/s"),
        "request_p50_ms": (p50, "ms"),
        "request_p99_ms": (p99, "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qlocc" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'qlocc'}; "
              "run from a copy of the repository", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if args.trace:
            setups = []
            res = run_worker(args, "trace", deadline)
        else:
            setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_PROBES)]
            res = run_worker(args, "measure", deadline)
            setups.append(res)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = dict(res["env"], git_commit=git_commit())
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and not res["selfcheck_failures"]
    print(f"qlocc benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = res["per_layer"]
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
        print(f"  ({res['traced_passes']} traced passes; spans in {res['span_file']})")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(setups, res).items()}
        for name, m in metrics.items():
            print(f"  {name:20s} {m['value']:.6g} {m['unit']}")
        # the workload's own name for items_per_s: points_per_s, requests_per_s, ...
        throughput = res["item_name"].replace(" ", "_") + "_per_s"
        print(f"  {throughput:20s} {metrics['items_per_s']['value']:.6g} 1/s"
              f"  ({res['passes']} passes of {res['items_per_pass']} {res['item_name']})")
        rate, p50, p99 = timings(res, "latencies_ms")
        print(f"  raw wall time: {throughput} {rate:.6g} 1/s,"
              f" request_p50_ms {p50:.6g}, request_p99_ms {p99:.6g},"
              f" setup_s {statistics.median(s['setup_s'] for s in setups):.6g}")
        print(f"  calibration: {res['calibration']['samples']} kernel samples, median"
              f" {res['calibration']['median_scale']:.4f} reference s per wall s;"
              f" {sum(len(p) for p in res['latencies_ms'])} requests timed")
    print(f"  failed_ratio         {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for line in res["problems"] + res["selfcheck_failures"]:
        print("  FAIL " + line)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setup_samples_s": [s["setup_s"] for s in setups],
              "passes": res["passes"], "failed_ratio": failed / attempted,
              "problems": res["problems"], "selfcheck_failures": res["selfcheck_failures"],
              "metrics": metrics}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
