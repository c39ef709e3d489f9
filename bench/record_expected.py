"""Record the correctness gate's values for the default seed into expected.json.

Run from the repository root at a commit whose outputs are trusted::

    python3 bench/record_expected.py

Each workload's operations run once at seed 0; the values ``check.Gate``
compares (digest, cycles, per-level reads/writes/words, trace energy) are
written for every operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from check import DEFAULT_SEED, EXPECTED_PATH, Gate
from workloads import WORKLOADS, build, plan_path


def main() -> int:
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    from probe import SpeedProbe
    from spikesim import cli

    recorded = {}
    for workload in WORKLOADS:
        plans, ops = build(workload, DEFAULT_SEED)
        work = run.ROOT / ".bench_work" / f"record-{workload}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            for plan, doc in plans.items():
                plan_path(work, plan).write_text(json.dumps(doc))
            gate = Gate(None)
            _, failed = run.run_pass(cli, ops, work, gate, SpeedProbe())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if failed:
            print(f"{workload}: {failed} call(s) failed; nothing recorded", file=sys.stderr)
            return 1
        recorded[workload] = gate.summaries
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {sum(len(v) for v in recorded.values())} operations in {EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
