"""Golden bytes: the sha256 of every CLI artifact of four fixed plans.

Reports (JSON and CSV, of ``run`` and ``compare``), the access trace, the
output bitstream, the routing table and the calibration dumps are pinned
byte for byte on the default MoE plan, the default MHA plan, a ragged
multi-head plan and a twelve-expert MoE plan.  A change that only makes the
simulator faster must leave every hash as it is.  Re-record only when the
output changes on purpose (a schema bump), from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

from spikesim.cli import main

GOLDEN = Path(__file__).with_name("golden_sha256.json")

PLANS = {
    "moe": {"kind": "moe", "input": {"seed": 0}},
    "mha": {"kind": "mha", "input": {"seed": 0}},
    "mha_ragged": {
        "kind": "mha",
        "model": {"n": 7, "t": 3, "h": 3, "d": 5},
        "hardware": {"cores": 2, "attention_array": {"rows": 4, "cols": 3}},
        "input": {"spike_prob": 0.6, "seed": 11},
    },
    # Twelve experts, so unit names sort differently as strings and as numbers
    # (expert10 before expert2); idle experts send nothing to the merge.
    "moe_e12": {
        "kind": "moe",
        "model": {"n": 48, "t": 2, "d_in": 12, "d_out": 10, "e": 12},
        "hardware": {"cores": 3, "expert_array": {"rows": 4, "cols": 6}, "routing_array": {"rows": 4, "cols": 5}},
        "input": {"spike_prob": 0.5, "seed": 1},
    },
}


def _calls(kind: str) -> list[list[str]]:
    """CLI calls on ``plan.json``; every path is relative to the plan's directory."""
    run = ["run", "plan.json", "--output", "run.json", "--trace", "trace.csv", "--dump-output", "output.bin",
           "--dump-calibration", "run_calibration.json"]
    if kind == "moe":
        run += ["--dump-routing", "routing.csv"]
    return [
        run,
        ["run", "plan.json", "--format", "csv", "--output", "run.csv"],
        ["compare", "plan.json", "--output", "compare.json", "--dump-calibration", "compare_calibration.json"],
        ["compare", "plan.json", "--format", "csv", "--output", "compare.csv"],
    ]


def artifact_hashes(root: Path) -> dict[str, str]:
    """Run every call of every plan under ``root``; sha256 of each file written, by "plan/file"."""
    hashes = {}
    home = os.getcwd()
    for name, doc in PLANS.items():
        work = root / name
        work.mkdir()
        (work / "plan.json").write_text(json.dumps(doc))
        os.chdir(work)
        try:
            for argv in _calls(doc["kind"]):
                assert main(argv) == 0, argv
        finally:
            os.chdir(home)
        for path in sorted(work.iterdir()):
            if path.name != "plan.json":
                hashes[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_every_artifact_matches_its_golden_hash(tmp_path):
    assert artifact_hashes(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(artifact_hashes(Path(scratch)), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
