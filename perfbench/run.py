"""qpl benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload scan-small --seed 1 --seconds 18 --trace 0

Run from the root of a qpl checkout.  Times the set-up of several fresh
interpreters, then runs the workload in one more fresh process
(worker.py) and prints every metric with its unit.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A results file with provenance goes to .perfbench_out/results/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from spans import UNITS as LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3        # set-up-only interpreters before and after the worker
WORKER_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("QPL_")}
    # numpy's thread pools must not exceed the machine's cores; qpl's
    # integer kernels do not use them.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(root, *args, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root, *args]
    t0 = _clock()
    proc = subprocess.run(cmd, env=_child_env(), cwd=root, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    return t0, proc.stdout


def _percentile(sorted_values, q):
    """Nearest-rank percentile of a sorted list."""
    k = max(0, -(-q * len(sorted_values) // 100) - 1)
    return sorted_values[int(k)]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _end_to_end(ops, setup, peak_rss_kb, key="time_s"):
    """End-to-end metrics from nominal ("time_s") or raw ("wall_s") op
    times; a failed op counts as +inf in the latency percentiles."""
    ok = [op for op in ops if op["status"] == "ok"]
    lat = sorted(op[key] if op["status"] == "ok" else float("inf") for op in ops)
    busy = sum(op[key] for op in ops)
    return {
        "setup_s": statistics.median(setup),
        "rows_per_s": sum(op["rows"] for op in ok) / busy,
        "queries_per_s": len(ok) / busy,
        "query_p50_ms": 1000 * _percentile(lat, 50),
        "query_p90_ms": 1000 * _percentile(lat, 90),
        "peak_rss_mb": peak_rss_kb / 1024,
        "ok_frac": len(ok) / len(ops),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qpl", "cli.py")):
        sys.exit("error: run from the root of a qpl checkout (no src/qpl/cli.py here)")
    work = os.path.join(root, ".perfbench_out")
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(work, "worker-%s.json" % tag)

    def setup_probes():
        for _ in range(SETUP_REPEATS):
            ref0 = speed.reference_s()
            t0, out = _worker(root, "--setup-only", timeout=60)
            wall = float(out) - t0
            setup_walls.append(wall)
            setup.append(speed.nominal(wall, (ref0 + speed.reference_s()) / 2))

    setup, setup_walls = [], []
    setup_probes()
    _worker(root, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--result", result_path, timeout=WORKER_TIMEOUT_S)
    with open(result_path) as fh:
        res = json.load(fh)
    os.remove(result_path)
    setup_probes()
    if not os.path.abspath(res["qpl_file"]).startswith(os.path.join(root, "src")):
        sys.exit("error: imported qpl from %s, not from this checkout" % res["qpl_file"])

    ops = res["ops"]
    failed = [op for op in ops if op["status"] != "ok"]
    if args.trace:
        metrics, units = res["metrics"], LAYER_UNITS
    else:
        metrics, units = _end_to_end(ops, setup, res["peak_rss_kb"]), E2E_UNITS
        wall_metrics = _end_to_end(ops, setup_walls, res["peak_rss_kb"], key="wall_s")

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": res["numpy"],
        "git_commit": _git_commit(root),
        "setup_samples_s": setup, "setup_samples_wall_s": setup_walls,
        "ref_nominal_s": speed.REF_NOMINAL_S,
        "latency_samples": len(ops),
        "latency_samples_beyond_p90": None if args.trace else sum(
            1000 * op["time_s"] > metrics["query_p90_ms"] or op in failed
            for op in ops),
        "spans_file": res.get("spans_file"),
    }
    with open(os.path.join(work, "results", "%s-%d.json" % (tag, time.time_ns())), "w") as fh:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "wall_metrics": None if args.trace else wall_metrics,
                   "attempted": len(ops), "failed": len(failed),
                   "failures": failed[:20],
                   "digests": [op["digest"] for op in ops]}, fh, indent=1)

    for op in failed[:5]:
        print("%s %s: %s" % (op["status"], op["argv0"], op["detail"]))
    for name in sorted(metrics):
        print("%-32s %16.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": all(op["status"] != "mismatch" for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
