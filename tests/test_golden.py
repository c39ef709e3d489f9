"""Golden bytes: the sha256 of every CLI artifact of fourteen fixed plans.

Reports (JSON and CSV, of ``run`` and ``compare``), the access trace, the
output bitstream, the routing table and the calibration dumps are pinned
byte for byte on the default MoE plan, the default MHA plan, a ragged
multi-head plan, a twelve-head plan on a ragged array, two more plans on
arrays ragged on both axes (eight timesteps, and one), a twelve-expert MoE
plan, four plans at the edges of the int16 bounds that decide whether an
integration is clamped, a MoE plan whose busy experts fit one row tile each,
and the benchmark's two large plans at its seed 0.
A change that only makes the simulator faster must leave every hash as it is.
Re-record only when the output changes on purpose (a schema bump), from the
repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from spikesim.cli import main
from spikesim.runner import parse_workload, run_experiment

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
    # Twelve heads share one walk, so the trace orders them by name inside
    # that walk (attn10 before attn2); the array is ragged on both axes.
    "mha_h12": {
        "kind": "mha",
        "model": {"n": 9, "t": 2, "h": 12, "d": 3},
        "hardware": {"cores": 5, "attention_array": {"rows": 4, "cols": 5}},
        "input": {"spike_prob": 0.5, "seed": 2},
    },
    # Eight timesteps of five heads: the run walks one (head, timestep) group
    # and repeats it; 11 tokens leave edge tiles on both axes of the 4x3 array.
    "mha_t8": {
        "kind": "mha",
        "model": {"n": 11, "t": 8, "h": 5, "d": 3},
        "hardware": {"cores": 2, "attention_array": {"rows": 4, "cols": 3}},
        "input": {"spike_prob": 0.4, "seed": 3},
    },
    # One timestep: the walked group is the whole run.
    "mha_t1_ragged": {
        "kind": "mha",
        "model": {"n": 10, "t": 1, "h": 3, "d": 4},
        "hardware": {"cores": 3, "attention_array": {"rows": 3, "cols": 4}},
        "input": {"spike_prob": 0.5, "seed": 4},
    },
    # All-one Q, K and V make every entry of Q (K^T V) equal n * d: 32767
    # fits int16 and is cast, 32768 clamps every entry.
    "mha_nd32767": {
        "kind": "mha",
        "model": {"n": 1057, "t": 1, "h": 1, "d": 31},
        "hardware": {"attention_array": {"rows": 64, "cols": 64}},
        "input": {"spike_prob": 1.0, "seed": 0},
    },
    "mha_nd32768": {
        "kind": "mha",
        "model": {"n": 1024, "t": 1, "h": 1, "d": 32},
        "hardware": {"attention_array": {"rows": 64, "cols": 64}},
        "input": {"spike_prob": 1.0, "seed": 0},
    },
    # Binary spikes times int8 weights fit int16 up to d_in = 256; one more
    # input takes the clamp-and-count path.
    "moe_d256": {
        "kind": "moe",
        "model": {"n": 32, "t": 2, "d_in": 256, "d_out": 16, "e": 3},
        "input": {"spike_prob": 1.0, "seed": 0},
    },
    "moe_d257": {
        "kind": "moe",
        "model": {"n": 32, "t": 2, "d_in": 257, "d_out": 16, "e": 3},
        "input": {"spike_prob": 1.0, "seed": 0},
    },
    # Three busy experts, an idle one between them, each d_out within one
    # row tile of the default 16-row expert array: each expert's weights
    # stream in on its own first tile, though its rows are the previous tile's.
    "moe_row_tile": {
        "kind": "moe",
        "model": {"n": 24, "t": 2, "d_in": 20, "d_out": 12, "e": 4},
        "hardware": {"cores": 2},
        "input": {"spike_prob": 0.5, "seed": 1},
    },
    # Two plans at benchmark scale: the spike draw takes two chunks, the
    # busiest expert integrates in three row blocks, and the attention trace
    # (~165k rows) is written in many chunks.
    "moe_large": {
        "kind": "moe",
        "model": {"n": 1024, "t": 8, "d_in": 256, "d_out": 256, "e": 8, "k": 1},
        "input": {"spike_prob": 0.2, "seed": 1654615998},
    },
    "mha_tiled": {
        "kind": "mha",
        "model": {"n": 512, "t": 4, "h": 8, "d": 32},
        "hardware": {"attention_array": {"rows": 16, "cols": 16}},
        "input": {"spike_prob": 0.2, "seed": 1654615998},
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
    got, golden = artifact_hashes(tmp_path), json.loads(GOLDEN.read_text())
    # Names, not two whole dicts, so that a failure lists every artifact that changed.
    changes = {
        "moved": sorted(name for name in got.keys() & golden.keys() if got[name] != golden[name]),
        "missing": sorted(golden.keys() - got.keys()),
        "new": sorted(got.keys() - golden.keys()),
    }
    assert not any(changes.values()), "\n".join(f"{label}: {names}" for label, names in changes.items() if names)


def test_row_tile_plan_routes_tokens_to_two_experts_of_one_row_tile_each():
    # The plan pins the expert walk's weight restart at an expert boundary
    # only while two experts get tokens and d_out fits one row tile.
    plan = parse_workload(PLANS["moe_row_tile"])
    tokens = np.bincount(run_experiment(plan).routing_table.assignments, minlength=plan.model.experts)
    assert np.count_nonzero(tokens) >= 2
    assert plan.model.d_out <= plan.hardware.expert_rows


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text(json.dumps(artifact_hashes(Path(scratch)), indent=2, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
