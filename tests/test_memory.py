"""Calibration tables, access counting, capacity verdicts, energy reports."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from spikesim import (
    AccessEvent,
    ArrayGeometry,
    CalibrationValidationError,
    ConfigError,
    MemCalibration,
    MemLevelSpec,
    TraceError,
    WorkloadShape,
    builtin_calibration,
    capacity_check,
    dump_calibration,
    load_calibration,
    mem_report,
    plan_expert_tiles,
)
from spikesim.dataflow import Records, expert_walks
from spikesim.levels import (
    ACT_BUFFER,
    ACT_GLB,
    ACT_LB,
    LEVEL_GEOMETRY,
    WEIGHT_BANKS,
    WEIGHT_BUFFER,
    WEIGHT_GLB0,
    WEIGHT_GLB1,
    WEIGHT_LB,
    level_width_bits,
)
from spikesim.memory import KINDS, count_walks

from object_model import count_accesses, record_rows, records_from_rows

MOE_LEVELS, MHA_LEVELS = KINDS["moe"].levels, KINDS["mha"].levels


def ev(level, direction, words, cycle=0, unit="u"):
    return AccessEvent(cycle, unit, level, direction, words, 128)


def small_shape(kind):
    return WorkloadShape(kind=kind, n=4, t=2, d_in=8, d_out=8, experts=2, heads=2, d_head=4)


def priced(counts, cal):
    """``mem_report`` of ``counts`` with the capacity verdict of a small plan of the calibration's kind."""
    return mem_report(counts, cal, capacity_check(small_shape(cal.kind), cal))


# (kind, design) -> {level: (latency_ps, power_mw)}
LEVEL_PINS = {
    ("moe", "2d"): {
        ACT_GLB: (148.0, 2.36),
        WEIGHT_GLB0: (241.0, 3.87),
        WEIGHT_GLB1: (147.0, 4.05),
        ACT_LB: (68.0, 1.1),
        WEIGHT_LB: (77.0, 0.47),
        ACT_BUFFER: (40.0, 1.66),
        WEIGHT_BUFFER: (77.0, 1.5),
    },
    ("moe", "3d"): {
        ACT_GLB: (117.0, 1.84),
        WEIGHT_GLB0: (94.0, 2.03),
        WEIGHT_GLB1: (71.0, 2.01),
        ACT_LB: (19.0, 0.77),
        WEIGHT_LB: (18.0, 0.09),
        ACT_BUFFER: (19.0, 0.27),
        WEIGHT_BUFFER: (18.0, 0.39),
    },
    ("mha", "2d"): {
        ACT_GLB: (220.0, 10.9),
        ACT_LB: (24.0, 1.13),
        WEIGHT_LB: (82.0, 0.46),
        ACT_BUFFER: (40.0, 1.92),
        WEIGHT_BUFFER: (28.0, 1.01),
    },
    ("mha", "3d"): {
        ACT_GLB: (209.0, 7.56),
        ACT_LB: (16.0, 0.76),
        WEIGHT_LB: (26.0, 0.1),
        ACT_BUFFER: (16.0, 0.52),
        WEIGHT_BUFFER: (26.0, 0.17),
    },
}

# (kind, design) -> (freq_ghz, area_mm2, cells, internal, switching, leakage,
#                    total_mw, mem_latency_ps, mem_power_mw)
AGG_PINS = {
    ("mha", "2d"): (2.13, 5.53, 169046, 863.0, 30.0, 19.0, 912.0, 160.0, 6.23),
    ("mha", "3d"): (2.24, 3.36, 167983, 859.0, 18.0, 18.0, 896.0, 112.0, 4.41),
    ("moe", "2d"): (1.69, 2.97, 339846, 6777.0, 67.0, 144.0, 6989.0, 202.0, 7.11),
    ("moe", "3d"): (1.74, 1.75, 339693, 5716.0, 116.0, 111.0, 5983.0, 172.0, 5.2),
}


class TestCalibrationTables:
    @pytest.mark.parametrize("kind,design", sorted(LEVEL_PINS))
    def test_per_level_figures(self, kind, design):
        cal = builtin_calibration(kind, design)
        assert set(cal.levels) == set(LEVEL_PINS[(kind, design)])
        for level, (latency, power) in LEVEL_PINS[(kind, design)].items():
            assert vars(cal.levels[level]) == {"id": level, "latency_ps": latency, "power_mw": power}

    @pytest.mark.parametrize("kind,design", sorted(AGG_PINS))
    def test_aggregate_figures(self, kind, design):
        agg = builtin_calibration(kind, design).aggregate
        got = (
            agg.effective_frequency_ghz,
            agg.area_mm2,
            agg.num_cells,
            agg.internal_power_mw,
            agg.switching_power_mw,
            agg.leakage_power_mw,
            agg.total_power_mw,
            agg.memory_access_latency_ps,
            agg.memory_access_power_mw,
        )
        assert got == AGG_PINS[(kind, design)]

    def test_sram_geometry(self):
        assert LEVEL_GEOMETRY[ACT_GLB] == (8192, 128)
        assert LEVEL_GEOMETRY[WEIGHT_GLB0] == (8192, 128)
        assert LEVEL_GEOMETRY[ACT_LB] == (3072, 128)
        assert LEVEL_GEOMETRY[ACT_BUFFER] == (96, 128)
        assert level_width_bits(ACT_GLB) == 128

    @pytest.mark.parametrize("kind,design", sorted(LEVEL_PINS))
    def test_price_table_lists_its_kinds_levels_in_order(self, kind, design):
        levels = KINDS[kind].levels
        cal = builtin_calibration(kind, design)
        assert tuple(cal.levels) == levels
        # Reports follow that order: an idle report lists its levels (and sums
        # their energy) in it, and the capacity check gives its verdicts in it.
        assert tuple(priced(count_walks([]), cal).levels) == levels
        assert tuple(capacity_check(small_shape(kind), cal).verdicts) == levels

    def test_attention_design_has_no_weight_globals(self):
        assert WEIGHT_GLB0 not in MHA_LEVELS and WEIGHT_GLB1 not in MHA_LEVELS
        assert set(MOE_LEVELS) - set(MHA_LEVELS) == {WEIGHT_GLB0, WEIGHT_GLB1}

    def test_unknown_flavor_rejected(self):
        with pytest.raises(ConfigError):
            builtin_calibration("cnn", "2d")
        with pytest.raises(ConfigError):
            builtin_calibration("moe", "2.5d")


class TestCalibrationValidation:
    def test_level_set_must_match_kind(self):
        base = builtin_calibration("moe", "2d")
        short = {k: v for k, v in base.levels.items() if k != WEIGHT_GLB1}
        with pytest.raises(ConfigError):
            MemCalibration(kind="moe", design="2d", levels=short, aggregate=base.aggregate)
        extra = dict(builtin_calibration("mha", "2d").levels)
        extra[WEIGHT_GLB0] = base.levels[WEIGHT_GLB0]
        with pytest.raises(ConfigError):
            MemCalibration(kind="mha", design="2d", levels=extra, aggregate=base.aggregate)

    def test_aggregate_required(self):
        base = builtin_calibration("moe", "2d")
        with pytest.raises(ConfigError):
            MemCalibration(kind="moe", design="2d", levels=dict(base.levels), aggregate=None)

    def test_level_spec_validation(self):
        with pytest.raises(ConfigError):
            MemLevelSpec("x", 0.0, 1.0)
        with pytest.raises(ConfigError):
            MemLevelSpec("x", 10.0, -0.5)
        for latency, power in ((float("inf"), 1.0), (10.0, float("nan")), (10.0, float("inf"))):
            with pytest.raises(ConfigError, match="finite"):
                MemLevelSpec("x", latency, power)


class TestCountAccesses:
    def test_empty_trace(self):
        assert count_accesses([]) == {}

    def test_hand_counts(self):
        trace = [
            ev(ACT_LB, "read", 4),
            ev(ACT_LB, "read", 1),
            ev(ACT_LB, "read", 2),
            ev(ACT_LB, "write", 10),
            ev(ACT_LB, "write", 3),
        ]
        counts = count_accesses(trace)
        assert counts == {ACT_LB: {"reads": 3, "writes": 2, "words_read": 7, "words_written": 13}}

    def test_additive_over_concatenation(self):
        a = [ev(ACT_GLB, "read", 5), ev(ACT_LB, "write", 2)]
        b = [ev(ACT_GLB, "write", 7), ev(WEIGHT_LB, "read", 1)]
        whole = count_accesses(a + b)

        def words(counts):
            return sum(c["words_read"] + c["words_written"] for c in counts.values())

        assert words(whole) == words(count_accesses(a)) + words(count_accesses(b))
        assert sum(c["reads"] + c["writes"] for c in whole.values()) == 4

    def test_unknown_level(self):
        with pytest.raises(TraceError, match="dram"):
            count_accesses([ev("dram", "read", 1, cycle=17, unit="expert3")])


class TestCountWalks:
    """``count_walks`` on hand-built walks; every level is 128 bits wide."""

    def test_hand_walks(self):
        # Kinds listed out of emission order: the walk first touches act_glb.
        shared = Records(
            ((ACT_LB, "write", "spike"), (ACT_GLB, "read", "spike")),
            *(np.array(column, np.int64) for column in ([0, 3, 5], [1, 0, 1], [256, 129, 1])),
        )
        late = records_from_rows([(0, WEIGHT_LB, "read", 128, "weight"), (1, ACT_GLB, "write", 128, "spike")])
        walks = [(("expert2",), late), (("expert0",), records_from_rows([])), (("expert10", "expert11"), shared)]
        table = count_walks(walks)
        # The idle expert0 touches nothing, and expert10 sorts before expert2,
        # so the shared walk's levels lead, in the order it first touches them.
        assert list(table) == [ACT_GLB, ACT_LB, WEIGHT_LB]
        # Two units share one walk, so its counts double.
        assert table == {
            ACT_GLB: {"reads": 4, "writes": 1, "words_read": 6, "words_written": 1},
            ACT_LB: {"reads": 0, "writes": 2, "words_read": 0, "words_written": 4},
            WEIGHT_LB: {"reads": 1, "writes": 0, "words_read": 1, "words_written": 0},
        }

    def test_recurring_rows_count_once_per_copy(self):
        # A walk of one row that occurs once, then a walk of the same units
        # whose two rows recur three times, 10 cycles apart.
        kinds = ((ACT_GLB, "read", "spike"), (ACT_LB, "write", "spike"))
        once = Records(kinds, *(np.array(column, np.int64) for column in ([0], [0], [256])))
        walk = Records(kinds, *(np.array(column, np.int64) for column in ([1, 4], [1, 0], [129, 1])), repeats=3, period=10)
        assert (len(once), len(walk)) == (1, 6)
        full = walk.expand()
        assert full.cycle.tolist() == [1, 4, 11, 14, 21, 24]
        assert full.kind.tolist() == [1, 0, 1, 0, 1, 0]
        assert full.bits.tolist() == [129, 1, 129, 1, 129, 1]
        assert walk.recur(np.array([6, 7])).tolist() == [6, 7, 6, 7, 6, 7]
        assert walk.recur(np.array([6, 7]), 100).tolist() == [6, 7, 106, 107, 206, 207]
        units = ("attn0", "attn1")
        table = count_walks([(units, once), (units, walk)])
        assert list(table.items()) == list(count_walks([(units, once), (units, full)]).items())
        assert table == {
            ACT_GLB: {"reads": 8, "writes": 0, "words_read": 10, "words_written": 0},
            ACT_LB: {"reads": 0, "writes": 6, "words_read": 0, "words_written": 12},
        }

    def test_bad_record_names_the_walks_units(self):
        bad = records_from_rows([(0, ACT_GLB, "read", 128, "spike"), (7, "dram", "read", 128, "spike")])
        walks = [(("expert1", "expert2"), bad), (("expert0",), records_from_rows([(0, ACT_LB, "read", 1, "spike")]))]
        with pytest.raises(TraceError, match=r"unknown level 'dram' \(record at cycle 7 of unit\(s\) expert1, expert2\)"):
            count_walks(walks)

    @pytest.mark.parametrize("kind", [-1, 2, 2**62])
    def test_kind_outside_the_walks_kinds_refused(self, kind):
        # -1 would index the last kind, and 2 or more no kind at all.
        kinds = ((ACT_GLB, "read", "spike"), (ACT_LB, "write", "spike"))
        bad = Records(kinds, *(np.array(column, np.int64) for column in ([0, 3, 5], [0, kind, 1], [128, 128, 128])))
        match = rf"record kind {kind} is not an index into the walk's 2 kinds \(record at cycle 3 of unit\(s\) expert1\)"
        with pytest.raises(TraceError, match=match):
            count_walks([(("expert0",), records_from_rows([])), (("expert1",), bad)])


class TestCapacity:
    def test_default_moe_shape_fits(self):
        shape = WorkloadShape(kind="moe", n=64, t=4, d_in=128, d_out=128, experts=8)
        report = capacity_check(shape, builtin_calibration("moe", "2d"))
        assert report.fits
        assert report.overflowing == []
        assert report.verdicts[ACT_GLB].required_bits == 64 * 4 * (128 + 128)

    def test_absurd_feature_width_names_weight_lb(self):
        shape = WorkloadShape(kind="moe", n=4, t=1, d_in=10**6, d_out=8, experts=2)
        report = capacity_check(shape, builtin_calibration("moe", "3d"))
        assert not report.fits
        assert WEIGHT_LB in report.overflowing
        verdict = report.verdicts[WEIGHT_LB]
        assert verdict.required_bits > verdict.capacity_bits

    def test_zero_workload_fits(self):
        shape = WorkloadShape(kind="moe", n=0, t=1, d_in=0, d_out=0, experts=0)
        assert capacity_check(shape, builtin_calibration("moe", "2d")).fits

    def test_mha_shape(self):
        shape = WorkloadShape(kind="mha", n=16, t=4, heads=8, d_head=16)
        report = capacity_check(shape, builtin_calibration("mha", "3d"))
        assert report.fits
        assert report.verdicts[ACT_GLB].required_bits == 16 * 4 * 4 * 8 * 16
        assert report.verdicts[WEIGHT_LB].required_bits == 0

    @pytest.mark.parametrize("kind,design", sorted(LEVEL_PINS))
    def test_capacities_are_the_level_geometry(self, kind, design):
        # A flavor prices accesses and never resizes a level.
        shape = WorkloadShape(kind=kind, n=64, t=4, d_in=128, d_out=128, experts=8, heads=8, d_head=16)
        verdicts = capacity_check(shape, builtin_calibration(kind, design)).verdicts
        assert {level: v.capacity_bits for level, v in verdicts.items()} == {
            level: math.prod(LEVEL_GEOMETRY[level]) for level in KINDS[kind].levels
        }

    @pytest.mark.parametrize("experts", range(1, 6))
    def test_each_bank_holds_the_weight_blocks_its_experts_preload(self, experts):
        # Every expert routed one token: each weight bank's residency is the
        # weight-preload bits the expert walks read from that bank.
        g = ArrayGeometry(16, 128, "expert")
        t, d_in, d_out = 2, 24, 20
        walks = expert_walks(plan_expert_tiles([1] * experts, t, d_in, d_out, g), g, [t * d_in] * experts)
        read = dict.fromkeys(WEIGHT_BANKS, 0)
        for _, records in walks:
            for _, level, direction, bits, _ in record_rows(records):
                if level in WEIGHT_BANKS:
                    assert direction == "read"
                    read[level] += bits
        shape = WorkloadShape(kind="moe", n=experts, t=t, d_in=d_in, d_out=d_out, experts=experts)
        verdicts = capacity_check(shape, builtin_calibration("moe", "2d")).verdicts
        assert {bank: verdicts[bank].required_bits for bank in WEIGHT_BANKS} == read

    def test_kind_mismatch(self):
        shape = WorkloadShape(kind="mha", n=16, t=4, heads=8, d_head=16)
        with pytest.raises(ConfigError):
            capacity_check(shape, builtin_calibration("moe", "2d"))

    def test_report_dict_shape(self):
        shape = WorkloadShape(kind="mha", n=8, t=2, heads=2, d_head=8)
        doc = capacity_check(shape, builtin_calibration("mha", "2d")).to_dict()
        assert doc["fits"] is True
        assert doc["overflowing"] == []
        assert set(doc["levels"]) == set(MHA_LEVELS)
        assert set(doc["levels"][ACT_GLB]) == {"required_bits", "capacity_bits", "fits"}


class TestMemReport:
    def test_zero_traffic_lists_every_level(self):
        report = priced(count_accesses([]), builtin_calibration("moe", "3d"))
        assert set(report.levels) == set(MOE_LEVELS)
        assert report.total_energy_fj == 0.0
        assert all(v["reads"] == 0 and v["writes"] == 0 for v in report.levels.values())

    def test_energy_proxy_pin(self):
        # 1000 words through the 3D attention act LB: 1000 * 0.76 mW * 16 ps.
        counts = count_accesses([ev(ACT_LB, "read", 1000)])
        report = priced(counts, builtin_calibration("mha", "3d"))
        assert report.levels[ACT_LB]["energy_fj"] == pytest.approx(12160.0)
        assert report.total_energy_fj == pytest.approx(12160.0)

    @pytest.mark.parametrize("kind", ["moe", "mha"])
    def test_stacked_design_cheaper_per_level(self, kind):
        levels = KINDS[kind].levels
        trace = [ev(level, "read", 50) for level in levels]
        counts = count_accesses(trace)
        flat = priced(counts, builtin_calibration(kind, "2d"))
        stacked = priced(counts, builtin_calibration(kind, "3d"))
        for level in levels:
            assert stacked.levels[level]["energy_fj"] < flat.levels[level]["energy_fj"]

    def test_trace_level_missing_from_calibration(self):
        counts = count_accesses([ev(WEIGHT_GLB0, "read", 4)])
        with pytest.raises(TraceError, match="weight_glb0"):
            priced(counts, builtin_calibration("mha", "2d"))

    def test_conservation(self):
        trace = [
            ev(ACT_GLB, "read", 6),
            ev(ACT_LB, "write", 6),
            ev(ACT_LB, "read", 2),
            ev(ACT_BUFFER, "write", 2),
        ]
        counts = count_accesses(trace)
        report = priced(counts, builtin_calibration("mha", "2d"))
        assert report.total_words == 16
        by_level = sum(v["words_read"] + v["words_written"] for v in report.levels.values())
        assert by_level == report.total_words
        assert report.total_energy_fj == pytest.approx(
            sum(v["energy_fj"] for v in report.levels.values())
        )

    def test_energy_overflow_rejected(self):
        cal = builtin_calibration("mha", "2d")
        huge = {level: replace(spec, latency_ps=1e154, power_mw=1.5e154) for level, spec in cal.levels.items()}
        # One level past the float range, named.
        counts = count_accesses([ev(ACT_GLB, "read", 1), ev(ACT_LB, "read", 2)])
        with pytest.raises(ConfigError, match=r"not finite for level act_lb$"):
            priced(counts, replace(cal, levels={**cal.levels, ACT_LB: huge[ACT_LB]}))
        # Every level finite, their sum not.
        counts = count_accesses([ev(ACT_GLB, "read", 1), ev(ACT_LB, "read", 1)])
        with pytest.raises(ConfigError, match=r"not finite for the total$"):
            priced(counts, replace(cal, levels={**cal.levels, ACT_GLB: huge[ACT_GLB], ACT_LB: huge[ACT_LB]}))

    def test_dict_includes_capacity_when_given(self):
        shape = WorkloadShape(kind="mha", n=8, t=2, heads=2, d_head=8)
        cal = builtin_calibration("mha", "2d")
        cap = capacity_check(shape, cal)
        doc = mem_report(count_accesses([]), cal, capacity=cap).to_dict()
        assert doc["capacity"] == cap.to_dict() and cap.fits
        assert doc["calibration"]["kind"] == "mha"
        assert doc["trace_totals"]["total_words"] == 0


class TestCalibrationSerialization:
    @pytest.mark.parametrize("kind,design", sorted(LEVEL_PINS))
    def test_round_trip(self, kind, design):
        cal = builtin_calibration(kind, design)
        assert load_calibration(dump_calibration(cal)) == cal

    def test_kind_inferred_from_levels(self):
        doc = dump_calibration(builtin_calibration("moe", "3d"))
        del doc["kind"]
        assert load_calibration(doc).kind == "moe"
        doc = dump_calibration(builtin_calibration("mha", "3d"))
        del doc["kind"]
        assert load_calibration(doc).kind == "mha"

    def test_kindless_file_is_checked_as_the_kind_sharing_most_levels(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        del doc["kind"]
        doc["levels"] = [entry for entry in doc["levels"] if entry["id"] != WEIGHT_GLB0]
        with pytest.raises(CalibrationValidationError) as exc:
            load_calibration(doc)
        assert exc.value.violations == [
            "calibration level set mismatch for kind 'moe': missing ['weight_glb0'], unexpected []"
        ]

    @pytest.mark.parametrize("kind", ["cnn", [], {}], ids=["name", "list", "mapping"])
    def test_unknown_kind_listed(self, kind):
        message = f"kind must be one of ('moe', 'mha'), got {kind!r}"
        doc = {**dump_calibration(builtin_calibration("moe", "2d")), "kind": kind}
        with pytest.raises(CalibrationValidationError) as exc:
            load_calibration(doc)
        assert exc.value.violations == [message]
        with pytest.raises(ConfigError) as exc:
            builtin_calibration(kind, "2d")
        assert str(exc.value) == message

    def test_load_from_path(self, tmp_path):
        cal = builtin_calibration("mha", "2d")
        path = tmp_path / "cal.json"
        path.write_text(json.dumps(dump_calibration(cal)))
        assert load_calibration(str(path)) == cal
        assert load_calibration(path) == cal
        path.write_text("{")
        with pytest.raises(CalibrationValidationError, match=f"calibration file {str(path)!r} is not valid JSON"):
            load_calibration(path)

    def test_missing_sections(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        del doc["aggregate"]
        with pytest.raises(ConfigError, match="aggregate"):
            load_calibration(doc)
        with pytest.raises(ConfigError):
            load_calibration(["not", "a", "mapping"])

    @pytest.mark.parametrize("design", [None, 5, True, ["3d"]])
    def test_design_must_be_a_string(self, design):
        doc = dump_calibration(builtin_calibration("moe", "3d"))
        doc["design"] = design
        with pytest.raises(CalibrationValidationError) as info:
            load_calibration(doc)
        assert info.value.violations == [f"calibration design must be a string, got {design!r}"]

    def test_unknown_keys_listed(self):
        # A mistyped override key is listed, not silently ignored.
        doc = dump_calibration(builtin_calibration("moe", "3d"))
        doc["levels"][1]["latency_ns"] = 1.0
        doc["aggregate"]["area_um2"] = 5.0
        doc["colour"] = "red"
        doc[7] = None
        with pytest.raises(CalibrationValidationError) as info:
            load_calibration(doc)
        assert sorted(info.value.violations) == [
            "calibration aggregate has unknown key 'area_um2'",
            "calibration document has unknown key 'colour'",
            "calibration document has unknown key 7",
            "calibration level 1 has unknown key 'latency_ns'",
        ]

    def test_missing_aggregate_field(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        del doc["aggregate"]["area_mm2"]
        with pytest.raises(ConfigError, match="area_mm2"):
            load_calibration(doc)

    def test_all_problems_collected(self):
        doc = dump_calibration(builtin_calibration("mha", "3d"))
        doc["levels"][0] = "not a mapping"
        doc["levels"][1]["latency_ps"] = 0
        doc["levels"][2]["power_mw"] = None
        doc["levels"][3]["words"] = 3072
        doc["aggregate"]["num_cells"] = "many"
        with pytest.raises(CalibrationValidationError) as info:
            load_calibration(doc)
        assert len(info.value.violations) == 5
        assert "level 0 must be a mapping" in info.value.violations[0]
        assert "access latency must be positive" in info.value.violations[1]
        assert info.value.violations[3] == "calibration level 3 has unknown key 'words'"

    def test_non_finite_duplicate_and_geometry_listed(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        by_id = {entry["id"]: entry for entry in doc["levels"]}
        by_id[ACT_LB]["power_mw"] = float("nan")
        by_id[WEIGHT_LB]["latency_ps"] = float("-inf")
        # Geometry is the architecture's: a level giving it is listed, whatever the value.
        by_id[ACT_GLB]["width_bits"] = 128
        by_id[WEIGHT_GLB1]["words"] = 4096
        doc["levels"].append({**by_id[ACT_BUFFER], "power_mw": 999.0})
        doc["aggregate"]["area_mm2"] = float("inf")
        with pytest.raises(CalibrationValidationError) as info:
            load_calibration(doc)
        violations = info.value.violations
        assert len(violations) == 6
        order = [entry["id"] for entry in doc["levels"]]
        assert f"calibration level {order.index(ACT_LB)} field 'power_mw' must be finite, got nan" in violations
        assert f"calibration level {order.index(WEIGHT_LB)} field 'latency_ps' must be finite, got -inf" in violations
        assert "calibration aggregate field 'area_mm2' must be finite, got inf" in violations
        assert f"calibration level 7 repeats level id 'act_buffer' of level {order.index(ACT_BUFFER)}" in violations
        assert f"calibration level {order.index(ACT_GLB)} has unknown key 'width_bits'" in violations
        assert f"calibration level {order.index(WEIGHT_GLB1)} has unknown key 'words'" in violations

    def test_integer_fields_take_json_integers(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        for value in (339846.9, 339846.0, True, "339846"):
            doc["aggregate"]["num_cells"] = value
            with pytest.raises(CalibrationValidationError) as info:
                load_calibration(doc)
            assert info.value.violations == [f"calibration aggregate field 'num_cells' must be an integer, got {value!r}"]

    def test_number_and_string_fields_take_their_json_type(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        by_id = {entry["id"]: entry for entry in doc["levels"]}
        by_id[ACT_GLB]["latency_ps"] = "148"
        by_id[ACT_GLB]["power_mw"] = True
        by_id[ACT_LB]["power_mw"] = False
        by_id[WEIGHT_LB]["id"] = 5
        doc["aggregate"]["area_mm2"] = "0.5"
        doc["aggregate"]["total_power_mw"] = None
        with pytest.raises(CalibrationValidationError) as info:
            load_calibration(doc)
        order = [entry["id"] for entry in doc["levels"]]
        assert info.value.violations == [
            f"calibration level {order.index(ACT_GLB)} field 'latency_ps' must be a number, got '148'",
            f"calibration level {order.index(ACT_GLB)} field 'power_mw' must be a number, got True",
            f"calibration level {order.index(ACT_LB)} field 'power_mw' must be a number, got False",
            f"calibration level {order.index(5)} field 'id' must be a string, got 5",
            "calibration aggregate field 'area_mm2' must be a number, got '0.5'",
            "calibration aggregate field 'total_power_mw' must be a number, got None",
        ]

    def test_number_fields_take_json_integers(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        for entry in doc["levels"]:
            entry["latency_ps"] = int(entry["latency_ps"]) + 1
        doc["aggregate"]["area_mm2"] = 2
        cal = load_calibration(doc)
        assert all(isinstance(spec.latency_ps, float) for spec in cal.levels.values())
        assert cal.aggregate.area_mm2 == 2.0 and isinstance(cal.aggregate.area_mm2, float)

    def test_levels_must_be_a_list(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        doc["levels"] = {"act_glb": {}}
        with pytest.raises(CalibrationValidationError, match="levels must be a list"):
            load_calibration(doc)

    def test_level_set_still_enforced(self):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        doc["levels"] = [entry for entry in doc["levels"] if entry["id"] != ACT_BUFFER]
        with pytest.raises(ConfigError):
            load_calibration(doc)

