"""Workloads: plan documents and CLI operations generated from a workload seed.

Each workload is a list of operations, one pass.  An operation is one
``spikesim`` CLI call on one plan.  The benchmark repeats whole passes, so
every pass of a workload does the same mix of work whatever the seed; the
seed only draws the plans' input seeds and, in the sweep, the plan order.

* ``moe_large``: one large mixture-of-experts plan.  The expert and routing
  matmuls dominate and access events are few.
* ``mha_tiled``: one large attention plan on the default 16x16 array.  It
  emits ~165k access events and materializes the t x n x n coincidence map.
* ``sweep_small``: a design-space sweep of default-size plans over a grid of
  core counts and array geometries.  Per-call fixed costs carry a large share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("moe_large", "mha_tiled", "sweep_small")

# Metric each operation's host time feeds.
RUN, COMPARE, TRACE = "run_s", "compare_s", "trace_s"


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``id`` is stable across seeds and keys the recorded values."""

    id: str
    plan: str
    metric: str
    fmt: str = "json"
    dump_routing: bool = False
    dump_output: bool = False
    dump_calibration: bool = False

    @property
    def command(self) -> str:
        return "compare" if self.metric == COMPARE else "run"

    @property
    def trace(self) -> bool:
        return self.metric == TRACE

    def argv(self, work: Path) -> list[str]:
        paths = artifact_paths(work, self)
        argv = [self.command, str(plan_path(work, self.plan)), "--format", self.fmt, "--output", str(paths["report"])]
        for flag, key in (
            ("--trace", "trace"),
            ("--dump-routing", "routing"),
            ("--dump-output", "output"),
            ("--dump-calibration", "calibration"),
        ):
            if key in paths:
                argv += [flag, str(paths[key])]
        return argv


def plan_path(work: Path, plan: str) -> Path:
    return work / f"{plan}.json"


def artifact_paths(work: Path, op: Op) -> dict[str, Path]:
    """Files an operation writes; each later call overwrites the previous one's."""
    paths = {"report": work / f"report.{op.fmt}"}
    if op.trace:
        paths["trace"] = work / "trace.csv"
    if op.dump_routing:
        paths["routing"] = work / "routing.csv"
    if op.dump_output:
        paths["output"] = work / "output.bin"
    if op.dump_calibration:
        paths["calibration"] = work / "calibration.json"
    return paths


def _plan(kind: str, model: dict, hardware: dict, seed: int) -> dict:
    return {"kind": kind, "model": model, "hardware": hardware, "input": {"spike_prob": 0.2, "seed": seed}}


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[Op]]:
    """Plan documents by plan id, and the operations of one pass."""
    rng = random.Random(seed)
    if workload == "moe_large":
        model = {"n": 1024, "t": 8, "d_in": 256, "d_out": 256, "e": 8, "k": 1}
        plans = {"moe_large": _plan("moe", model, {}, rng.randrange(2**31))}
        return plans, _large_ops("moe_large")
    if workload == "mha_tiled":
        model = {"n": 512, "t": 4, "h": 8, "d": 32}
        hardware = {"attention_array": {"rows": 16, "cols": 16}}
        plans = {"mha_tiled": _plan("mha", model, hardware, rng.randrange(2**31))}
        return plans, _large_ops("mha_tiled")
    if workload == "sweep_small":
        return _sweep(rng)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _large_ops(plan: str) -> list[Op]:
    return [Op("run", plan, RUN), Op("compare", plan, COMPARE), Op("trace", plan, TRACE)]


_CORES = (1, 2, 4)
_EXPERT_ARRAYS = ((8, 64), (16, 128), (32, 256))
_ATTENTION_ARRAYS = ((8, 8), (16, 16), (32, 32))


def _sweep(rng: random.Random) -> tuple[dict[str, dict], list[Op]]:
    """Default-size plans over cores x array geometry, moe and mha alternating.

    Flags are fixed per grid point, not drawn, so every seed runs the same
    mix: per kind, a third of the ``run`` calls write the access trace, a
    third dump the routing table (moe), the output bitstream and the
    calibration, and half of the ``compare`` calls report in CSV.
    """
    grids = {
        "moe": [(c, r, k) for c in _CORES for r, k in _EXPERT_ARRAYS],
        "mha": [(c, r, k) for c in _CORES for r, k in _ATTENTION_ARRAYS],
    }
    orders = {}
    for kind, grid in grids.items():
        order = list(enumerate(grid))
        rng.shuffle(order)
        orders[kind] = order
    plans: dict[str, dict] = {}
    ops: list[Op] = []
    for pair in zip(orders["moe"], orders["mha"]):
        for kind, (i, (cores, rows, cols)) in zip(("moe", "mha"), pair):
            plan = f"{kind}-c{cores}-{rows}x{cols}"
            array = "expert_array" if kind == "moe" else "attention_array"
            hardware = {"cores": cores, array: {"rows": rows, "cols": cols}}
            plans[plan] = _plan(kind, {}, hardware, rng.randrange(2**31))
            variant = i % 3
            if variant == 0:
                ops.append(Op(f"{plan}.run", plan, RUN))
            elif variant == 1:
                ops.append(Op(f"{plan}.trace", plan, TRACE, fmt="csv"))
            else:
                ops.append(
                    Op(f"{plan}.run", plan, RUN, dump_routing=kind == "moe", dump_output=True, dump_calibration=True)
                )
            if i % 2 == 0:
                ops.append(Op(f"{plan}.compare", plan, COMPARE))
            else:
                ops.append(Op(f"{plan}.compare", plan, COMPARE, fmt="csv", dump_calibration=True))
    return plans, ops
