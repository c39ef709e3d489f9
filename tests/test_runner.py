"""Workload parsing, end-to-end runs, design comparison, report serialization."""

import csv
import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from spikesim import dataflow, mha, runner
from spikesim import (
    ConfigError,
    HardwareParams,
    LifParams,
    MhaModel,
    MoeModel,
    QuantWeightMatrix,
    SpikeTensor,
    WorkloadValidationError,
    compare_designs,
    dump_calibration,
    builtin_calibration,
    emit_report,
    expert_forward,
    mem_report,
    parse_workload,
    run_experiment,
)
from spikesim.runner import (
    SCHEMA_VERSION,
    load_report_csv,
    report_csv_bytes,
    report_json_bytes,
    resolve_calibration,
    write_routing_csv,
)

from object_model import count_accesses, trace_events
from oracles import lpt_makespan

MOE_DOC = {"kind": "moe", "N": 24, "T": 2, "D_in": 48, "D_out": 32, "E": 4, "seed": 11}
MHA_DOC = {"kind": "mha", "N": 16, "T": 2, "H": 2, "d": 16, "seed": 5}


class TestParseWorkload:
    def test_flat_moe_doc(self):
        plan = parse_workload(dict(MOE_DOC))
        assert plan.kind == "moe"
        assert plan.model == MoeModel(n=24, t=2, d_in=48, d_out=32, experts=4, k=1)
        assert plan.seed == 11
        assert plan.spike_prob == 0.2
        assert plan.calibration_source == "builtin2d"
        assert plan.hardware == HardwareParams()

    def test_flat_and_nested_agree(self):
        nested = {
            "kind": "moe",
            "model": {"n": 24, "t": 2, "d_in": 48, "d_out": 32, "e": 4},
            "input": {"seed": 11},
        }
        assert parse_workload(nested) == parse_workload(dict(MOE_DOC))

    def test_mha_doc_with_d_model(self):
        plan = parse_workload({"kind": "mha", "N": 8, "T": 1, "H": 4, "D": 64})
        assert plan.model == MhaModel(n=8, t=1, heads=4, d_head=16)
        assert plan.model.d_model == 64

    def test_mha_default_width(self):
        plan = parse_workload({"kind": "mha"})
        assert plan.model == MhaModel(n=64, t=4, heads=8, d_head=16)
        # A null head or model width is derived like an absent one.
        assert parse_workload({"kind": "mha", "H": 4, "model": {"d": None, "d_model": None}}).model.d_head == 32

    def test_all_violations_reported_at_once(self):
        doc = {"kind": "moe", "N": 0, "bogus": 1, "spike_prob": 7.0}
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload(doc)
        text = " | ".join(exc.value.violations)
        assert len(exc.value.violations) == 3
        assert "model.n" in text and "bogus" in text and "spike_prob" in text

    def test_unknown_kind(self):
        with pytest.raises(WorkloadValidationError, match="kind"):
            parse_workload({"kind": "cnn"})

    def test_topk_beyond_one_is_refused(self):
        with pytest.raises(WorkloadValidationError, match="not supported"):
            parse_workload({"kind": "moe", "K": 2, "E": 4})
        with pytest.raises(WorkloadValidationError, match="cannot exceed"):
            parse_workload({"kind": "moe", "K": 5, "E": 4})

    def test_head_width_divisibility(self):
        with pytest.raises(WorkloadValidationError, match="not divisible"):
            parse_workload({"kind": "mha", "H": 3, "D": 128})
        with pytest.raises(WorkloadValidationError, match="contradicts"):
            parse_workload({"kind": "mha", "H": 4, "d": 16, "D": 32})

    def test_unknown_model_key(self):
        with pytest.raises(WorkloadValidationError, match="d_head"):
            parse_workload({"kind": "moe", "model": {"d_head": 8}})

    def test_booleans_are_not_integers(self):
        with pytest.raises(WorkloadValidationError, match="model.n"):
            parse_workload({"kind": "moe", "N": True})

    def test_file_calibration_requires_path(self):
        with pytest.raises(WorkloadValidationError, match="path"):
            parse_workload({"kind": "moe", "calibration": {"source": "file"}})

    def test_negative_seed(self):
        with pytest.raises(WorkloadValidationError, match="seed"):
            parse_workload({"kind": "moe", "seed": -3})

    def test_seed_override_checked_like_input_seed(self):
        assert parse_workload({"kind": "moe", "seed": 4}, seed=9).seed == 9
        assert parse_workload({"kind": "moe", "seed": 4}, seed=None).seed == 4
        for bad in (-1, True, 2.0, "3"):
            with pytest.raises(WorkloadValidationError) as info:
                parse_workload({"kind": "moe"}, seed=bad)
            assert info.value.violations == [f"--seed must be {'>= 0' if bad == -1 else 'an integer'}, got {bad!r}"]

    def test_non_mapping_doc(self):
        with pytest.raises(WorkloadValidationError):
            parse_workload([1, 2, 3])

    def test_non_mapping_sections_listed(self):
        doc = {"kind": "mha", "model": [1, 2], "hardware": "big", "calibration": 3, "input": [["seed", 1]]}
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload(doc)
        assert exc.value.violations == [
            "model must be a mapping, got [1, 2]",
            "hardware must be a mapping, got 'big'",
            "calibration must be a mapping, got 3",
            "input must be a mapping, got [['seed', 1]]",
        ]
        # An absent, null or empty section still reads as the defaults.
        assert parse_workload({"kind": "mha", "model": None, "hardware": {}, "input": None}) == parse_workload({"kind": "mha"})

    @pytest.mark.parametrize(
        "path,value",
        [
            ("model", 0),
            ("hardware", False),
            ("calibration", []),
            ("input", ""),
            ("hardware.expert_array", []),
            ("hardware.routing_array", 0),
            ("hardware.attention_array", ""),
        ],
    )
    def test_falsy_non_mapping_section_refused(self, path, value):
        doc = {"kind": "moe"}
        *parents, name = path.split(".")
        section = doc
        for parent in parents:
            section = section.setdefault(parent, {})
        section[name] = value
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload(doc)
        assert exc.value.violations == [f"{path} must be a mapping, got {value!r}"]
        # Only an absent key or null means the defaults.
        section[name] = None
        assert parse_workload(doc) == parse_workload({"kind": "moe"})

    def test_calibration_path_must_be_a_string(self):
        with pytest.raises(WorkloadValidationError, match=r"calibration.path must be a string, got \{'kind': 'moe'\}"):
            parse_workload({"kind": "moe", "calibration": {"source": "file", "path": {"kind": "moe"}}})

    def test_router_overhead_bounded(self):
        doc = {"kind": "moe", "hardware": {"router_overhead_cycles": runner.MAX_ROUTER_OVERHEAD_CYCLES}}
        assert parse_workload(doc).hardware.router_overhead_cycles == 2**53
        doc["hardware"]["router_overhead_cycles"] += 1
        with pytest.raises(WorkloadValidationError, match="router_overhead_cycles must be <= 9007199254740992"):
            parse_workload(doc)

    def test_hardware_overrides(self):
        doc = {
            "kind": "moe",
            "hardware": {
                "cores": 2,
                "expert_array": {"rows": 8, "cols": 32},
                "extract_ports": 4,
                "router_overhead_cycles": 7,
            },
        }
        hw = parse_workload(doc).hardware
        assert (hw.cores, hw.expert_rows, hw.expert_cols) == (2, 8, 32)
        assert hw.extract_ports == 4
        assert hw.router_overhead_cycles == 7

    def test_config_echo_round_trips(self):
        plan = parse_workload(dict(MOE_DOC))
        assert parse_workload(plan.to_dict()) == plan


# (kind, field, value, every other accepted spelling of the field, in the
# order the parser lists them).  A dotted spelling sits in the field's
# section; any other is a top-level alias.
SPELLINGS = [
    ("moe", "model.n", 12, ("N",)),
    ("moe", "model.t", 3, ("T",)),
    ("moe", "model.d_in", 16, ("D_in",)),
    ("moe", "model.d_out", 24, ("D_out",)),
    ("moe", "model.e", 3, ("model.experts", "E")),
    ("moe", "model.k", 1, ("K",)),
    ("mha", "model.n", 12, ("N",)),
    ("mha", "model.t", 3, ("T",)),
    ("mha", "model.h", 2, ("model.heads", "H")),
    ("mha", "model.d", 8, ("model.d_head", "d")),
    ("mha", "model.d_model", 32, ("D",)),
    ("moe", "input.seed", 7, ("seed",)),
    ("mha", "input.seed", 7, ("seed",)),
    ("moe", "input.spike_prob", 0.5, ("spike_prob",)),
    ("mha", "input.spike_prob", 0.5, ("spike_prob",)),
]


def _spelled(kind: str, values: dict) -> dict:
    """A plan document giving each {spelling: value} where its spelling puts it."""
    doc = {"kind": kind}
    for spelling, value in values.items():
        section, _, key = spelling.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


class TestPlanSpellings:
    @pytest.mark.parametrize(
        "kind,field,value,spelling",
        [(kind, field, value, spelling) for kind, field, value, others in SPELLINGS for spelling in others],
    )
    def test_spelling_parses_like_its_key(self, kind, field, value, spelling):
        plan = parse_workload(_spelled(kind, {field: value}))
        section, key = field.split(".")
        assert plan.to_dict()[section][key] == value
        assert parse_workload(_spelled(kind, {spelling: value})) == plan

    @pytest.mark.parametrize(
        "kind,field,value,pair",
        [
            (kind, field, value, pair)
            for kind, field, value, others in SPELLINGS
            for pair in itertools.combinations((field, *others), 2)
        ],
    )
    def test_two_spellings_are_one_violation(self, kind, field, value, pair):
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload(_spelled(kind, dict.fromkeys(pair, value)))
        assert exc.value.violations == [f"{field} is given more than once: as {', '.join(pair)}"]

    def test_three_spellings_are_one_violation(self):
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload({"kind": "moe", "E": 3, "model": {"e": 4, "experts": 2}})
        assert exc.value.violations == ["model.e is given more than once: as model.e, model.experts, E"]

    def test_alias_of_the_other_kind_is_unknown(self):
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload({"kind": "moe", "H": 2, "model": {"heads": 2}})
        assert exc.value.violations == ["unknown top-level key 'H'", "unknown model key 'heads' for kind 'moe'"]

    def test_unknown_kind_still_consumes_model_spellings(self):
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload({"kind": "cnn", "N": 4, "E": 2, "H": 2, "D": 8})
        assert exc.value.violations == ["kind must be 'moe' or 'mha', got 'cnn'"]

    @pytest.mark.parametrize("source", ["builtin2d", "builtin3d"])
    def test_calibration_path_needs_source_file(self, source):
        doc = {"kind": "moe", "calibration": {"source": source, "path": "/does/not/exist.json"}}
        with pytest.raises(WorkloadValidationError) as exc:
            parse_workload(doc)
        assert exc.value.violations == [f"calibration.path is read only with source 'file', got source {source!r}"]
        # The echo of a built-in plan carries a null path, which still parses.
        assert parse_workload({"kind": "moe", "calibration": {"source": source, "path": None}}).calibration_path is None

    def test_non_string_path_is_one_violation_under_any_source(self):
        for source in ("builtin3d", "file"):
            with pytest.raises(WorkloadValidationError) as exc:
                parse_workload({"kind": "moe", "calibration": {"source": source, "path": 5}})
            assert exc.value.violations == ["calibration.path must be a string, got 5"]


class TestPlanSizeCap:
    # Shapes that must run: the benchmark's large plans, the long-sequence
    # MHA plan, and the defaults on the smallest sweep arrays.
    ADMITTED = [
        {"kind": "moe", "model": {"n": 1024, "t": 8, "d_in": 256, "d_out": 256, "e": 8, "k": 1}},
        {"kind": "mha", "model": {"n": 512, "t": 4, "h": 8, "d": 32}, "hardware": {"attention_array": {"rows": 16, "cols": 16}}},
        {"kind": "mha", "model": {"n": 2048, "t": 4, "h": 8, "d": 32}},
        {"kind": "moe", "hardware": {"cores": 1, "expert_array": {"rows": 8, "cols": 64}}},
        {"kind": "mha", "hardware": {"cores": 1, "attention_array": {"rows": 8, "cols": 8}}},
    ]

    @pytest.mark.parametrize("doc", ADMITTED)
    def test_admitted(self, doc):
        assert runner.plan_bytes(parse_workload(doc)) <= runner.MAX_PLAN_BYTES

    def test_huge_plan_refused_before_synthesis(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesized inputs for a plan over the size cap")

        monkeypatch.setattr(runner, "_synth_spikes", refuse)
        plan = parse_workload({"kind": "mha", "model": {"n": 65536, "t": 4, "h": 8, "d": 32}})
        with pytest.raises(WorkloadValidationError, match="over the 1073741824-byte cap") as exc:
            run_experiment(plan)
        assert exc.value.violations == [
            f"plan needs an estimated {runner.plan_bytes(plan)} bytes, over the 1073741824-byte cap"
        ]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"kind": "mha", "N": 65536, "T": 4, "H": 8, "d": 32}))
        from spikesim.cli import main

        for command in ("run", "compare"):
            assert main([command, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("invalid configuration (1 problem(s)):") and "byte cap" in err

    def test_many_expert_scores_refused_before_synthesis(self, monkeypatch):
        # The n x e routing score arrays dominate here, not tiles or spikes.
        def refuse(*args, **kwargs):
            raise AssertionError("synthesized inputs for a plan over the size cap")

        monkeypatch.setattr(runner, "_synth_spikes", refuse)
        doc = {"kind": "moe", "model": {"n": 131072, "t": 1, "d_in": 1, "d_out": 1, "e": 1024, "k": 1},
               "hardware": {"routing_array": {"rows": 1048576, "cols": 1024}}}
        plan = parse_workload(doc)
        assert runner.plan_bytes(plan) >= 131072 * 1024 * runner._SCORE_BYTES
        with pytest.raises(WorkloadValidationError, match="byte cap"):
            run_experiment(plan)

    @pytest.mark.parametrize("doc", [MOE_DOC, MHA_DOC])
    def test_cap_is_inclusive(self, doc, monkeypatch):
        plan = parse_workload(dict(doc))
        monkeypatch.setattr(runner, "MAX_PLAN_BYTES", runner.plan_bytes(plan))
        run_experiment(plan)
        monkeypatch.setattr(runner, "MAX_PLAN_BYTES", runner.plan_bytes(plan) - 1)
        with pytest.raises(WorkloadValidationError, match="byte cap"):
            run_experiment(plan)

    def test_estimate_covers_oversized_hardware(self):
        base = parse_workload({"kind": "moe"})
        cores = replace(base, hardware=replace(base.hardware, cores=2**40))
        assert runner.plan_bytes(cores) > runner.MAX_PLAN_BYTES
        tiny = replace(base, hardware=replace(base.hardware, expert_rows=1, expert_cols=1))
        assert runner.plan_bytes(tiny) > runner.plan_bytes(base)


class TestDeterminism:
    def test_identical_reports(self):
        plan = parse_workload(dict(MOE_DOC))
        a = report_json_bytes(run_experiment(plan).to_dict())
        b = report_json_bytes(run_experiment(plan).to_dict())
        assert a == b

    def test_seed_changes_output(self):
        base = run_experiment(parse_workload(dict(MOE_DOC)))
        other = run_experiment(parse_workload({**MOE_DOC, "seed": 12}))
        assert base.output_digest != other.output_digest

    def test_mha_identical_reports(self):
        plan = parse_workload(dict(MHA_DOC))
        a = report_json_bytes(run_experiment(plan).to_dict())
        b = report_json_bytes(run_experiment(plan).to_dict())
        assert a == b


class TestFunctionalPath:
    def test_single_expert_run_matches_replicated_synthesis(self):
        doc = {"kind": "moe", "N": 12, "T": 3, "D_in": 40, "D_out": 24, "E": 1, "seed": 9}
        result = run_experiment(parse_workload(doc))
        rng = np.random.default_rng(9)
        s_in = SpikeTensor(rng.random((12, 3, 40)) < 0.2)
        rng.integers(-127, 128, size=(40, 1), dtype=np.int8)  # routing weights
        w0 = QuantWeightMatrix(rng.integers(-127, 128, size=(40, 24), dtype=np.int8), 1.0)
        expected = expert_forward(s_in, w0, LifParams())
        digest = "sha256:" + hashlib.sha256(expected.to_bytes()).hexdigest()
        assert result.output_digest == digest
        assert list(result.routing_table.expert_tokens[0]) == list(range(12))

    def test_output_digest_matches_payload(self):
        result = run_experiment(parse_workload(dict(MHA_DOC)))
        digest = "sha256:" + hashlib.sha256(result.s_out.to_bytes()).hexdigest()
        assert result.output_digest == digest
        assert result.s_out.data.shape == (16, 2, 32)


class TestSystemComposition:
    def test_moe_system_is_overhead_plus_makespan(self):
        plan = parse_workload(dict(MOE_DOC))
        result = run_experiment(plan)
        loads = [result.unit_cycles[f"expert{e}"].total_cycles for e in range(4)]
        overhead = 2 * 48 + 16 + 4  # t * d_in + 16 + experts
        assert result.system_cycles.total_cycles == overhead + lpt_makespan(loads, 4)
        assert result.system_cycles.per_phase["router"] == overhead

    def test_router_overhead_override(self):
        doc = {**MOE_DOC, "hardware": {"router_overhead_cycles": 0, "cores": 1}}
        result = run_experiment(parse_workload(doc))
        loads = [result.unit_cycles[f"expert{e}"].total_cycles for e in range(4)]
        assert result.system_cycles.total_cycles == sum(loads)

    def test_core_assignment_partitions_experts(self):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        placed = sorted(i for core in result.core_assignment for i in core)
        assert placed == [0, 1, 2, 3]
        assert len(result.core_assignment) == 4

    def test_routing_unit_reported_but_not_scheduled(self):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        assert "router" in result.unit_cycles
        assert result.unit_cycles["router"].total_cycles > 0

    def test_trace_sorted_and_ends_at_system_total(self):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        trace = trace_events(result.merged_trace)
        keys = [(e.cycle, e.unit) for e in trace]
        assert keys == sorted(keys)
        assert max(e.cycle for e in trace) == result.system_cycles.total_cycles
        writes_out = [e for e in trace if e.unit == "merge" and e.level == "act_glb"]
        assert len(writes_out) == 1

    def test_weight_glb_alternates_with_expert_parity(self):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        for e in trace_events(result.merged_trace):
            if e.unit.startswith("expert") and e.level.startswith("weight_glb"):
                parity = int(e.unit[len("expert"):]) % 2
                assert e.level == f"weight_glb{parity}"

    def test_mha_utilizations(self):
        result = run_experiment(parse_workload(dict(MHA_DOC)))
        assert 0.0 < result.system_cycles.utilization < 1.0
        for h in range(2):
            assert 0.0 < result.unit_cycles[f"attn{h}"].utilization < 1.0

    def test_mha_heads_identical_cycles(self):
        result = run_experiment(parse_workload(dict(MHA_DOC)))
        cycles = {result.unit_cycles[f"attn{h}"].total_cycles for h in range(2)}
        assert len(cycles) == 1


class TestCalibrationResolution:
    def test_builtin_sources(self):
        plan = parse_workload({**MOE_DOC, "calibration": {"source": "builtin3d"}})
        assert resolve_calibration(plan).design == "3d"

    def test_file_source(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(dump_calibration(builtin_calibration("moe", "3d"))))
        plan = parse_workload({**MOE_DOC, "calibration": {"source": "file", "path": str(path)}})
        cal = resolve_calibration(plan)
        assert (cal.kind, cal.design) == ("moe", "3d")

    def test_file_kind_mismatch(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(dump_calibration(builtin_calibration("mha", "3d"))))
        plan = parse_workload({**MOE_DOC, "calibration": {"source": "file", "path": str(path)}})
        with pytest.raises(ConfigError, match="kind"):
            resolve_calibration(plan)


class TestCompareDesigns:
    def test_moe_compare_smoke(self):
        report = compare_designs(parse_workload(dict(MOE_DOC)))
        assert report.functional_equal
        assert report.run_2d.output_digest == report.run_3d.output_digest
        assert (
            report.run_2d.system_cycles.total_cycles
            == report.run_3d.system_cycles.total_cycles
        )
        # Reductions follow directly from the aggregate tables.
        assert report.reductions_pct["memory_access_latency_ps"] == pytest.approx(
            (202.0 - 172.0) / 202.0 * 100.0
        )
        assert report.reductions_pct["effective_frequency_ghz"] < 0  # stacking speeds it up

    def test_compare_refuses_pinned_calibration(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(dump_calibration(builtin_calibration("moe", "2d"))))
        plan = parse_workload({**MOE_DOC, "calibration": {"source": "file", "path": str(path)}})
        with pytest.raises(ConfigError):
            compare_designs(plan)



class TestSinglePassCompare:
    @pytest.mark.parametrize(
        "doc",
        [{"kind": "moe"}, {"kind": "mha"}, {"kind": "moe", "E": 12, "hardware": {"cores": 1}}],
        ids=["moe", "mha", "moe-e12-c1"],
    )
    def test_halves_equal_independent_runs(self, doc):
        plan = parse_workload(doc)
        report = compare_designs(plan)
        for half, source in ((report.run_2d, "builtin2d"), (report.run_3d, "builtin3d")):
            alone = run_experiment(replace(plan, calibration_source=source))
            assert report_json_bytes(half.to_dict()) == report_json_bytes(alone.to_dict())


def _refuse(*args, **kwargs):
    raise AssertionError("built an access trace on the run path")


class TestRunPathWork:
    def test_no_trace_unless_requested(self, monkeypatch):
        monkeypatch.setattr(dataflow.AccessEvent, "__post_init__", _refuse)
        for doc in (MOE_DOC, MHA_DOC):
            plan = parse_workload(dict(doc))
            compare_designs(plan)
            result = run_experiment(plan)
            with pytest.raises(AssertionError, match="access trace"):
                trace_events(result.merged_trace)

    def test_attention_map_never_built(self, monkeypatch):
        def refuse_map(*args, **kwargs):
            raise AssertionError("built the t x n x n attention map on the run path")

        monkeypatch.setattr(mha, "spiking_attention_map", refuse_map)
        monkeypatch.setattr(mha, "attention_weighted_integration", refuse_map)
        monkeypatch.setattr(mha.AttentionMap, "__post_init__", refuse_map)
        plan = parse_workload({**MHA_DOC, "H": 4})
        assert run_experiment(plan).to_dict()["kind"] == "mha"
        assert compare_designs(plan).functional_equal

    def test_trace_built_once_on_first_access(self):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        assert result.merged_trace is result.merged_trace

    def test_compare_runs_one_functional_pass_and_one_head_walk(self, monkeypatch):
        calls = {"mha_forward": 0, "attention_walk": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(runner, "mha_forward")
        counted(dataflow, "attention_walk")
        compare_designs(parse_workload({**MHA_DOC, "H": 4}))
        assert calls == {"mha_forward": 1, "attention_walk": 1}


def _random_doc(rng: np.random.Generator, kind: str) -> dict:
    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    hardware = {"cores": draw(1, 4)}
    if kind == "moe":
        model = {"n": draw(1, 24), "t": draw(1, 3), "d_in": draw(1, 40), "d_out": draw(1, 40), "e": draw(1, 13)}
        hardware["expert_array"] = {"rows": draw(1, 12), "cols": draw(1, 40)}
        hardware["routing_array"] = {"rows": draw(1, 9), "cols": draw(1, 9)}
    else:
        model = {"n": draw(1, 20), "t": draw(1, 3), "h": draw(1, 4), "d": draw(1, 12)}
        hardware["attention_array"] = {"rows": draw(1, 9), "cols": draw(1, 9)}
    if rng.random() < 0.5:
        hardware["extract_ports"] = draw(1, 8)
    if rng.random() < 0.3:
        hardware["router_overhead_cycles"] = draw(0, 50)
    return {
        "kind": kind,
        "model": model,
        "hardware": hardware,
        "calibration": {"source": "builtin3d" if rng.random() < 0.5 else "builtin2d"},
        "input": {"spike_prob": float(rng.random()), "seed": draw(0, 10**6)},
    }


class TestFoldEqualsTrace:
    """The run path's counts equal the counts of the materialized trace, exactly."""

    @pytest.mark.parametrize("kind", ["moe", "mha"])
    def test_random_plans(self, kind):
        rng = np.random.default_rng(2024 if kind == "moe" else 2025)
        seen = set()
        for _ in range(120):
            plan = parse_workload(_random_doc(rng, kind))
            result = run_experiment(plan)
            cal = resolve_calibration(plan)
            replayed = mem_report(count_accesses(trace_events(result.merged_trace)), cal, result.mem.capacity)
            assert replayed.to_dict()["levels"] == result.mem.to_dict()["levels"]
            # The level order fixes the energy total's summation order.
            assert list(result.mem.levels) == list(replayed.levels)
            assert replayed.total_energy_fj == result.mem.total_energy_fj
            assert replayed.total_words == result.mem.total_words

            hw, m = plan.hardware, plan.model
            if hw.extract_ports is not None:
                seen.add("extract_ports")
            if kind == "moe":
                if m.experts >= 10:
                    seen.add("e>=10")
                if any(len(tokens) == 0 for tokens in result.routing_table.expert_tokens):
                    seen.add("idle expert")
                if m.d_out % hw.expert_rows or (m.n * m.t) % hw.expert_cols:
                    seen.add("ragged tiles")
            else:
                if m.heads > 1:
                    seen.add("heads>1")
                if m.n % hw.attention_rows or m.n % hw.attention_cols:
                    seen.add("ragged tiles")
        wanted = {"extract_ports", "ragged tiles"} | ({"e>=10", "idle expert"} if kind == "moe" else {"heads>1"})
        assert wanted <= seen


def _reverse_keys(doc):
    """``doc`` with every dict's insertion order reversed; lists keep their order."""
    if isinstance(doc, dict):
        return {key: _reverse_keys(doc[key]) for key in reversed(list(doc))}
    if isinstance(doc, list):
        return [_reverse_keys(item) for item in doc]
    return doc


class TestReportSerialization:
    def test_schema_version_present(self):
        doc = run_experiment(parse_workload(dict(MOE_DOC))).to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["kind"] == "moe"

    def test_json_is_canonical(self):
        doc = run_experiment(parse_workload(dict(MHA_DOC))).to_dict()
        blob = report_json_bytes(doc)
        assert blob.endswith(b"\n")
        assert json.loads(blob) == doc
        assert blob == report_json_bytes(json.loads(blob))

    @pytest.mark.parametrize("doc_source", ["moe", "mha"])
    def test_csv_round_trip_is_exact(self, doc_source):
        base = MOE_DOC if doc_source == "moe" else MHA_DOC
        doc = run_experiment(parse_workload(dict(base))).to_dict()
        assert load_report_csv(report_csv_bytes(doc)) == doc

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_serializers_fix_key_order(self, command):
        plan = parse_workload(dict(MOE_DOC))
        doc = (run_experiment if command == "run" else compare_designs)(plan).to_dict()
        flipped = _reverse_keys(doc)
        assert json.dumps(flipped) != json.dumps(doc)
        assert report_json_bytes(flipped) == report_json_bytes(doc)
        assert report_csv_bytes(flipped) == report_csv_bytes(doc)

    def test_compare_csv_round_trip(self):
        doc = compare_designs(parse_workload(dict(MHA_DOC))).to_dict()
        assert load_report_csv(report_csv_bytes(doc)) == doc

    def test_csv_shape(self):
        doc = {"a": {"b": 1}, "c": [True, None], "d": {}, "e": []}
        rows = report_csv_bytes(doc).decode().splitlines()
        assert rows[0] == "field,value"
        assert "a.b,1" in rows
        assert "c.0,true" in rows and "c.1,null" in rows
        assert "d,{}" in rows and "e,[]" in rows
        assert load_report_csv(report_csv_bytes(doc)) == doc

    def test_bad_format(self):
        with pytest.raises(ConfigError):
            emit_report({}, "yaml")
        with pytest.raises(ValueError):
            load_report_csv(b"not,the,header\n")


class TestRoutingCsv:
    def test_round_readable(self, tmp_path):
        result = run_experiment(parse_workload(dict(MOE_DOC)))
        path = tmp_path / "routing.csv"
        write_routing_csv(result.routing_table, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["token_id", "rank", "expert_id", "score"]
        assert len(rows) == 1 + 24  # one rank-0 row per token
        table = result.routing_table
        for i, row in enumerate(rows[1:]):
            assert row[0] == str(i) and row[1] == "0"
            assert int(row[2]) == int(table.assignments[i, 0])
            assert int(row[3]) == int(table.assignment_scores[i, 0])
