"""Rewrite digests.json: the manifest digests of the first operations of
every workload at the pinned seed, which runs at that seed must repeat.

    python3 perfbench/pin.py        # from the root of a qpl checkout

Run it only for a change that alters qpl's output on purpose, and say
in that change why the output changed.
"""

import itertools
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import PIN_SEED, _on_alarm, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Enough to cover the first round of a 20 s run at the seed commit.
PIN_OPS = {"scan-small": 150, "scan-wide": 150, "sieve": 100, "queries": 320}


def main():
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import qpl.cli as cli
    signal.signal(signal.SIGALRM, _on_alarm)
    work = os.path.join(root, ".perfbench_out")
    os.makedirs(work, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="pin-", dir=work)
    pins = {}
    try:
        for name, workload in WORKLOADS.items():
            ops = itertools.islice(
                itertools.chain.from_iterable(workload.units(PIN_SEED)), PIN_OPS[name])
            pins[name] = []
            for op in ops:
                _, status, digest, detail = run_op(cli, op, out_dir)
                if status == "mismatch":
                    sys.exit("error: %s %s: %s" % (name, op.argv[0], detail))
                pins[name].append(digest)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump({"seed": PIN_SEED, "workloads": pins}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main()
