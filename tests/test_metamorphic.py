"""Metamorphic relations: how the reports of two related plans must agree.

Two relations change one hardware field of a plan that the model defines
not to reach a quantity, and check that the quantity is unchanged.  The
core count only decides how units are scheduled, and the extract ports only
how many cycles a tile takes to drain; neither changes what is computed or
what is moved.  So changing either leaves the output digest and the whole
``memory`` section (per-level accesses, words and energy, trace totals,
capacity verdicts) as they are, to the byte.

The calibration relation doubles one level's access power in a calibration
file.  Energy is words * power * latency, and doubling a float is exact, so
that level's energy doubles exactly and nothing else moves but the total
and the echoed path.  The schedule relation gives every scheduled unit a
core of its own: the system then takes the router overhead plus the
slowest unit, and its utilization is the summed operations over the
cycles of every core's widest-unit array.

The geometry relation redraws the rows and columns of every array the plan
times (expert and routing, or attention): the arrays only time and count
the work, so the output digest is unchanged.  The silence relation sets the
spike probability to 0: no input spikes, so no neuron integrates anything,
the output is all zero, and no expert performs an accumulation.

Each relation runs on 100 random small plans of each kind: 2,200 runs in
all, about 3.5 s on a 2-core VM (budget: 15 s).  Each test also asserts that
the change did reach some of its plans, so the relation is checked where it
could fail.  The attention array is timed without extract ports, so an MHA
plan that sets them is refused by the run itself, not only by the parser.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from spikesim import WorkloadValidationError, builtin_calibration, dump_calibration, parse_workload, run_experiment

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
            ports = draw(1, 12)  # drawn for both kinds, so each kind's plans stay the same
            if kind == "moe":  # attention plans refuse the setting
                hardware["extract_ports"] = ports
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

    if kind == "moe":
        assert _check_relation(plans, other_ports) >= PLANS_PER_KIND // 4
        return
    # The attention array's timing has no extract ports, so a run refuses an
    # attention plan that sets them, also one built without parse_workload.
    refused = 0
    for plan in plans:
        changed = other_ports(plan)
        if changed.hardware.extract_ports is None:
            assert _invariant_part(run_experiment(changed)) == _invariant_part(run_experiment(plan))
            continue
        with pytest.raises(WorkloadValidationError) as exc:
            run_experiment(changed)
        assert exc.value.violations == [
            f"hardware.extract_ports applies only to kind 'moe', got {changed.hardware.extract_ports} for kind 'mha'"
        ]
        refused += 1
    assert refused >= PLANS_PER_KIND // 2


def _calibration_files(tmp_path, kind: str) -> dict:
    """Files by (design, level): each built-in calibration as dumped (level None) or with one level's power doubled."""
    files = {}
    for design in ("2d", "3d"):
        doc = dump_calibration(builtin_calibration(kind, design))
        for level in (None, *(entry["id"] for entry in doc["levels"])):
            levels = [
                {**entry, "power_mw": 2 * entry["power_mw"]} if entry["id"] == level else entry for entry in doc["levels"]
            ]
            path = tmp_path / f"{design}-{level}.json"
            path.write_text(json.dumps({**doc, "levels": levels}))
            files[design, level] = str(path)
    return files


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_doubled_level_power_doubles_that_level_energy(kind, tmp_path):
    plans, rng = _small_plans(kind, 2105 if kind == "moe" else 2106)
    files = _calibration_files(tmp_path, kind)
    levels = sorted(level for _, level in files if level)
    busy = 0
    for plan in plans:
        design = "3d" if plan.calibration_source == "builtin3d" else "2d"
        level = levels[int(rng.integers(len(levels)))]
        base, doubled = (
            run_experiment(replace(plan, calibration_source="file", calibration_path=files[design, key])).to_dict()
            for key in (None, level)
        )
        base_mem, doubled_mem = base.pop("memory"), doubled.pop("memory")
        # Outside ``memory`` only the calibration path echoed in the config differs.
        doubled["config"]["calibration"]["path"] = files[design, None]
        assert doubled == base, (plan, level)
        base_levels, doubled_levels = base_mem.pop("levels"), doubled_mem.pop("levels")
        base_totals, doubled_totals = base_mem.pop("trace_totals"), doubled_mem.pop("trace_totals")
        assert doubled_mem == base_mem, (plan, level)  # the calibration echo and the capacity verdicts
        assert list(doubled_levels) == list(base_levels)
        for name, fields in base_levels.items():
            if name == level:
                fields = {**fields, "access_power_mw": 2 * fields["access_power_mw"]}
                fields["energy_fj"] = 2 * fields["energy_fj"]
            assert doubled_levels[name] == fields, (plan, level, name)
        total = 0.0
        for fields in doubled_levels.values():
            total += fields["energy_fj"]
        assert doubled_totals == {**base_totals, "total_energy_fj": total}, (plan, level)
        busy += base_levels[level]["energy_fj"] > 0
    assert busy >= PLANS_PER_KIND // 4


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_a_core_per_unit_takes_overhead_plus_slowest_unit(kind):
    plans, rng = _small_plans(kind, 2107 if kind == "moe" else 2108)
    overridden = 0
    for plan in plans:
        m = plan.model
        units = [f"expert{e}" for e in range(m.experts)] if kind == "moe" else [f"attn{h}" for h in range(m.heads)]
        cores = len(units) + int(rng.integers(0, 3))
        # Absent, zero or a count: the plan's override replaces the kind's default whenever it is given.
        draw = rng.random()
        overhead = None if draw < 0.4 else 0 if draw < 0.6 else int(rng.integers(1, 60))
        hardware = replace(plan.hardware, cores=cores, router_overhead_cycles=overhead)
        result = run_experiment(replace(plan, hardware=hardware))
        if overhead is None:
            overhead = m.t * m.d_in + 16 + m.experts if kind == "moe" else 0
        else:
            overridden += 1
        stats = [result.unit_cycles[unit] for unit in units]
        system = result.system_cycles
        assert system.total_cycles == overhead + max(s.total_cycles for s in stats), plan
        capacity = system.total_cycles * cores * max(s.pe_count for s in stats)
        assert system.utilization == sum(s.mac_ops for s in stats) / capacity, plan
    assert overridden >= PLANS_PER_KIND // 4


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_array_geometry_leaves_digest_unchanged(kind):
    plans, rng = _small_plans(kind, 2109 if kind == "moe" else 2110)
    arrays = ("expert", "routing") if kind == "moe" else ("attention",)
    moved = 0
    for plan in plans:
        hardware = plan.hardware
        while hardware == plan.hardware:
            dims = {f"{array}_{dim}": int(rng.integers(1, 41)) for array in arrays for dim in ("rows", "cols")}
            hardware = replace(plan.hardware, **dims)
        base, other = run_experiment(plan), run_experiment(replace(plan, hardware=hardware))
        assert other.output_digest == base.output_digest, (plan, hardware)
        moved += other.system_cycles.total_cycles != base.system_cycles.total_cycles
    assert moved >= PLANS_PER_KIND // 4


@pytest.mark.parametrize("kind", ["moe", "mha"])
def test_no_input_spikes_give_no_output_and_no_expert_work(kind):
    plans, _ = _small_plans(kind, 2111 if kind == "moe" else 2112)
    busy = 0
    for plan in plans:
        base, silent = run_experiment(plan), run_experiment(replace(plan, spike_prob=0.0))
        experts = [f"expert{e}" for e in range(plan.model.experts)] if kind == "moe" else []
        assert not silent.s_out.data.any(), plan
        assert [silent.unit_cycles[unit].mac_ops for unit in experts] == [0] * len(experts), plan
        busy += base.s_out.data.any() and (not experts or any(base.unit_cycles[unit].mac_ops for unit in experts))
    assert busy >= PLANS_PER_KIND // 4
