"""One workload in one fresh interpreter.

Started by run.py.  Imports qpl from the checkout's src/, builds the
parser once (the set-up the parent times), then calls qpl.cli.main(argv)
in-process for each generated operation, timing each call and checking
its output.  With --setup-only it stops after the set-up and prints the
CLOCK_MONOTONIC time at which it was ready.

An operation's time is its wall time rescaled to nominal machine speed
(speed.py); where the workload repeats each operation, the fastest
repeat counts.  Operations run until --seconds of their wall time have
passed; a traced run covers a fixed number of units, each op once per pass.
"""

import argparse
import bisect
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

import speed

OP_TIMEOUT_S = 30        # an operation running longer counts as failed
PIN_SEED = 1             # the seed whose digests digests.json pins
HERE = os.path.dirname(os.path.abspath(__file__))


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("operation exceeded %d s" % OP_TIMEOUT_S)


def run_op(cli, op, out_dir):
    """Run one op; returns [wall_s, status, digest, detail] with status
    "ok", "failed" (nonzero exit or exception) or "mismatch"; the caller
    appends the nominal time."""
    out, err = io.StringIO(), io.StringIO()
    argv = op.argv + ["--out-dir", out_dir]
    rc, detail = None, ""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:        # argparse usage errors
        rc = exc.code
    except Exception as exc:         # any crash is one failed op
        detail = "%s: %s" % (type(exc).__name__, exc)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    if rc != 0:
        return [wall, "failed", None,
                detail or "exit %r: %s" % (rc, err.getvalue().strip())]
    manifest = os.path.join(out_dir, "qpl_manifest_%s.json" % op.argv[0].replace("-", "_"))
    try:
        with open(manifest) as fh:
            digest = json.load(fh)["digest"]
        os.remove(manifest)
    except (OSError, ValueError, KeyError) as exc:
        return [wall, "mismatch", None, "no manifest digest: %s" % exc]
    payload = out.getvalue()
    if op.fmt == "json":
        payload = payload[:-1]       # print() added the newline
    if hashlib.sha256(payload.encode()).hexdigest() != digest:
        return [wall, "mismatch", digest, "manifest digest != sha256(stdout)"]
    try:
        op.check(out.getvalue())
    except Exception as exc:         # Mismatch, or output that fails to parse
        return [wall, "mismatch", digest, "%s: %s" % (type(exc).__name__, exc)]
    return [wall, "ok", digest, ""]


class Runner:
    """Runs ops one after another, with a reference-loop measurement
    before the first and after each.  finish() appends to every result
    its nominal time: wall time rescaled by the median of the reference
    times measured within REF_WINDOW_S of the op."""

    def __init__(self, cli, out_dir):
        self.cli = cli
        self.out_dir = out_dir
        self.refs = []           # (clock, reference time)
        self.starts = []         # clock at the start of each op
        self._ref()
        self.results = []

    def _ref(self):
        self.refs.append((time.perf_counter(), speed.reference_s()))

    def run(self, op):
        self.starts.append(time.perf_counter())
        res = run_op(self.cli, op, self.out_dir)
        self._ref()
        self.results.append(res)
        return res

    def run_for(self, units, seconds, repeats):
        """Run whole units, each op `repeats` times back to back, until
        `seconds` of program wall time have passed.  Returns (ops,
        executions), with one list of executions per op."""
        ops, execs = [], []
        busy = 0.0
        for unit in units:
            if busy >= seconds:
                break
            for op in unit:
                ops.append(op)
                execs.append([self.run(op) for _ in range(repeats)])
                busy += sum(e[0] for e in execs[-1])
        return ops, execs

    def finish(self):
        clocks = [c for c, _ in self.refs]
        for start, res in zip(self.starts, self.results):
            lo = bisect.bisect_left(clocks, start - speed.REF_WINDOW_S)
            hi = bisect.bisect_right(clocks, start + res[0] + speed.REF_WINDOW_S)
            ref = statistics.median(r for _, r in self.refs[lo:hi])
            res.append(speed.nominal(res[0], ref))


def fastest(execs):
    """One op's result from its repeats: a failed or wrong repeat if there
    is one, a mismatch if the repeats' digests differ, else the fastest."""
    for e in execs:
        if e[1] != "ok":
            return e
    if len({e[2] for e in execs}) > 1:
        return [execs[0][0], "mismatch", execs[0][2],
                "digest differs between repeats", execs[0][4]]
    return min(execs, key=lambda e: e[4])


def check_digests(results, pins):
    """A successful op must give its pinned digest, where there is a pin."""
    for r, pin in zip(results, pins):
        if r[1] == "ok" and pin and r[2] != pin:
            r[1] = "mismatch"
            r[3] = "digest %s, expected %s" % (r[2], pin)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    import qpl.cli as cli
    cli.build_parser()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(repr(ready))
        return 0

    import numpy
    import spans
    from workloads import WORKLOADS
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = WORKLOADS[args.workload]
    pins = []
    if args.seed == PIN_SEED:
        with open(os.path.join(HERE, "digests.json")) as fh:
            pins = json.load(fh)["workloads"].get(args.workload, [])
    work = os.path.join(args.root, ".perfbench_out")
    out_dir = tempfile.mkdtemp(prefix="manifests-", dir=work)
    result = {"numpy": numpy.__version__, "qpl_file": cli.__file__}
    try:
        runner = Runner(cli, out_dir)
        for op in next(workload.units(args.seed, tag="warmup")):
            runner.run(op)
        if args.trace:
            ops = list(itertools.chain.from_iterable(itertools.islice(
                workload.units(args.seed), spans.units_for(workload, args.seconds))))
            # Each op runs untraced and traced back to back, so both see
            # the same machine state and their difference is the tracing
            # overhead; which runs first alternates, since a repeat is warmer.
            tracer = spans.Tracer()
            plain, traced = [], []
            for i, op in enumerate(ops):
                for with_trace in ((False, True) if i % 2 else (True, False)):
                    if not with_trace:
                        plain.append(runner.run(op))
                        continue
                    tracer.install()
                    try:
                        traced.append(runner.run(op))
                    finally:
                        tracer.uninstall()
            runner.finish()
            result["metrics"] = spans.layer_metrics(tracer, ops, plain, traced)
            result["spans_file"] = os.path.join(
                work, "spans-%s-seed%d.csv" % (args.workload, args.seed))
            tracer.write(result["spans_file"])
            check_digests(plain, pins)
            check_digests(traced, pins)
            ops, results = ops + ops, plain + traced
        else:
            ops, execs = runner.run_for(workload.units(args.seed), args.seconds,
                                        workload.repeats)
            runner.finish()
            results = [fastest(e) for e in execs]
            check_digests(results, pins)
        result["ops"] = [
            {"argv0": op.argv[0], "rows": op.rows, "large": op.large,
             "wall_s": r[0], "time_s": r[4], "status": r[1], "digest": r[2],
             "detail": r[3]}
            for op, r in zip(ops, results)]
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
