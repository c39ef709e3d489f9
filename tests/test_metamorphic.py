"""Metamorphic relations: how the reports of two related plans must agree.

Each relation changes one hardware field of a plan that the model defines
not to reach a quantity, and checks that the quantity is unchanged.  The
core count only decides how units are scheduled, and the extract ports only
how many cycles a tile takes to drain; neither changes what is computed or
what is moved.  So changing either leaves the output digest and the whole
``memory`` section (per-level accesses, words and energy, trace totals,
capacity verdicts) as they are, to the byte.

Each relation runs on 100 random small plans of each kind, two runs per
plan: 800 runs in all, about 2 s on a 2-core VM (budget: 15 s).  Each
test also asserts that the changed field did move the cycles of some of its
plans, so the relation is checked where it could fail; the attention array
is timed without extract ports, so on MHA plans that field moves nothing.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from spikesim import parse_workload, run_experiment

PLANS_PER_KIND = 100


def _small_plans(kind: str, seed: int):
    """``PLANS_PER_KIND`` random small plans of ``kind`` and the generator that drew them."""
    rng = np.random.default_rng(seed)

    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    plans = []
    for _ in range(PLANS_PER_KIND):
        hardware = {"cores": draw(1, 6)}
        if kind == "moe":
            model = {"n": draw(1, 24), "t": draw(1, 3), "d_in": draw(1, 40), "d_out": draw(1, 40), "e": draw(1, 12)}
            hardware["expert_array"] = {"rows": draw(1, 12), "cols": draw(1, 40)}
            hardware["routing_array"] = {"rows": draw(1, 9), "cols": draw(1, 9)}
        else:
            model = {"n": draw(1, 20), "t": draw(1, 3), "h": draw(1, 6), "d": draw(1, 12)}
            hardware["attention_array"] = {"rows": draw(1, 9), "cols": draw(1, 9)}
        if rng.random() < 0.5:
            hardware["extract_ports"] = draw(1, 12)
        doc = {
            "kind": kind,
            "model": model,
            "hardware": hardware,
            "calibration": {"source": "builtin3d" if rng.random() < 0.5 else "builtin2d"},
            "input": {"spike_prob": float(rng.random()), "seed": draw(0, 10**6)},
        }
        plans.append(parse_workload(doc))
    return plans, rng


def _invariant_part(result) -> str:
    """The output digest and the ``memory`` section, as exact text."""
    doc = result.to_dict()
    return json.dumps({"output_digest": doc["output_digest"], "memory": doc["memory"]}, sort_keys=True)


def _check_relation(plans, change) -> int:
    """Assert that ``change(plan)`` keeps each plan's digest and memory section; count the plans whose cycles moved."""
    moved = 0
    for plan in plans:
        changed = change(plan)
        base, other = run_experiment(plan), run_experiment(changed)
        assert _invariant_part(other) == _invariant_part(base), (plan, changed.hardware)
        moved += other.system_cycles.total_cycles != base.system_cycles.total_cycles
    return moved


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_cores_leave_digest_and_memory_unchanged(kind):
    plans, rng = _small_plans(kind, 2101 if kind == "moe" else 2102)

    def other_cores(plan):
        cores = plan.hardware.cores
        while cores == plan.hardware.cores:
            cores = int(rng.integers(1, 9))
        return replace(plan, hardware=replace(plan.hardware, cores=cores))

    assert _check_relation(plans, other_cores) >= PLANS_PER_KIND // 4


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_extract_ports_leave_digest_and_memory_unchanged(kind):
    plans, rng = _small_plans(kind, 2103 if kind == "moe" else 2104)

    def other_ports(plan):
        # None (one port per array row) or a count, past the array's size too.
        ports = plan.hardware.extract_ports
        while ports == plan.hardware.extract_ports:
            ports = None if rng.random() < 0.2 else int(rng.integers(1, 13))
        return replace(plan, hardware=replace(plan.hardware, extract_ports=ports))

    moved = _check_relation(plans, other_ports)
    # The attention array's timing has no extract ports, so on MHA plans the field moves nothing.
    assert moved >= PLANS_PER_KIND // 4 if kind == "moe" else moved == 0
