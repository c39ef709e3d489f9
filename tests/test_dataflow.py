"""Tiling, systolic cycle accounting, access events, multi-core scheduling."""

import csv
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from spikesim import (
    AccessEvent,
    ArrayGeometry,
    ConfigError,
    CycleStats,
    ShapeError,
    TraceError,
    SparsityStats,
    expert_parallel_schedule,
    plan_attention_tiles,
    plan_expert_tiles,
    simulate_attention_array,
    simulate_expert_array,
    simulate_routing_array,
)
from spikesim.dataflow import (
    TRACE_CHUNK_ROWS,
    TRACE_COLUMNS,
    Records,
    _digit_groups,
    _plain_field,
    attention_walk,
    expert_walk,
    extraction_cycle_count,
    fill_cycles,
    write_trace_csv,
)
from spikesim.levels import LEVEL_GEOMETRY
from spikesim.memory import count_walks
from spikesim.runner import parse_workload, run_experiment

from object_model import (
    Tile,
    count_accesses,
    merge_traces,
    merged_events,
    records_from_rows,
    schedule,
    tiles,
    validate,
)
from oracles import (
    lpt_makespan,
    stepped_attention_cycles,
    stepped_expert_cycles,
    stepped_extraction_cycles,
    stepped_routing_cycles,
    stepped_systolic_cycles,
)

EXPERT16x128 = ArrayGeometry(16, 128, "expert")
ROUTING16x8 = ArrayGeometry(16, 8, "routing")
ATTN16x16 = ArrayGeometry(16, 16, "attention")


class TestGeometryAndTiles:
    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            ArrayGeometry(0, 4, "expert")
        with pytest.raises(ConfigError):
            ArrayGeometry(4, 4, "dsp")
        assert ArrayGeometry(4, 8, "expert").pe_count == 32

    def test_tile_validation(self):
        # A schedule checks its columns: each tile a non-empty block with a positive reduction.
        with pytest.raises(ShapeError):
            schedule([Tile(2, 2, 0, 4, 8, "compute")], 4, 4)
        with pytest.raises(ShapeError):
            schedule([Tile(0, 2, 0, 4, 0, "compute")], 4, 4)
        ts = schedule([Tile(0, 3, 4, 9, 8, "compute")], 3, 9)
        assert (ts.rows_used.tolist(), ts.cols_used.tolist()) == ([3], [5])

    def test_schedule_coverage_check(self):
        good = schedule((Tile(0, 2, 0, 2, 4, "compute"), Tile(0, 2, 2, 4, 4, "compute")), row_extent=2, col_extent=4)
        validate(good)
        missing = schedule((Tile(0, 2, 0, 2, 4, "compute"),), 2, 4)
        with pytest.raises(ShapeError):
            validate(missing)
        overlapping = schedule((Tile(0, 2, 0, 3, 4, "compute"), Tile(0, 2, 2, 4, 4, "compute")), row_extent=2, col_extent=4)
        with pytest.raises(ShapeError):
            validate(overlapping)
        beyond = schedule((Tile(0, 2, 0, 5, 4, "compute"),), 2, 4)
        with pytest.raises(ShapeError):
            validate(beyond)

    def test_schedule_must_be_a_partition(self):
        # The areas sum to the 2x2 space, but cell (0, 0) is covered twice and cell (1, 1) never.
        l_shape = schedule((Tile(0, 2, 0, 1, 4, "compute"), Tile(0, 1, 0, 2, 4, "compute")), 2, 2)
        with pytest.raises(ShapeError, match=r"group None phase compute covers cell \(row 0, col 0\) 2 times"):
            validate(l_shape)
        # The same tiles in different groups or phases are checked apart.
        split = schedule((Tile(0, 2, 0, 2, 4, "phase1", (0, 0)), Tile(0, 2, 0, 2, 4, "phase2", (0, 0)),
                          Tile(0, 2, 0, 2, 4, "phase1", (0, 1)), Tile(0, 2, 0, 2, 4, "phase1", (1, 0))), 2, 2)
        validate(split)
        doubled = schedule(tiles(split) + [Tile(1, 2, 1, 2, 4, "phase1", (0, 1))], 2, 2)
        with pytest.raises(ShapeError, match=r"group \(0, 1\) phase phase1 covers cell \(row 1, col 1\) 2 times"):
            validate(doubled)

    def test_schedule_must_cover_every_group_meta_names(self):
        # One tile per phase: the group's whole phase 2 is its second tile.
        ts = plan_attention_tiles(4, 2, 1, 1, ArrayGeometry(4, 4, "attention"))
        assert [t.phase for t in tiles(ts)] == ["phase1", "phase2"]
        with pytest.raises(ShapeError, match=r"no tile covers group \(0, 0\) phase phase2"):
            validate(schedule(tiles(ts)[:1], ts.row_extent, ts.col_extent, ts.meta))
        # t = 2 with only timestep 0's tiles.
        ts = plan_attention_tiles(5, 3, 2, 1, ArrayGeometry(2, 3, "attention"))
        step0 = [t for t in tiles(ts) if t.group == (0, 0)]
        with pytest.raises(ShapeError, match=r"no tile covers group \(0, 1\) phase phase1"):
            validate(schedule(step0, ts.row_extent, ts.col_extent, ts.meta))
        # A group meta does not name: head 1 of a one-head schedule.
        extra = [t._replace(group=(1, 0)) for t in step0]
        with pytest.raises(ShapeError, match=r"group \(1, 0\) phase phase1 lie outside"):
            validate(schedule(tiles(ts) + extra, ts.row_extent, ts.col_extent, ts.meta))
        # An expert schedule with tokens must have its compute tiles; one without has none.
        ts = plan_expert_tiles(3, 2, 4, 5, ArrayGeometry(2, 4, "expert"))
        with pytest.raises(ShapeError, match="no tile covers group None phase compute"):
            validate(schedule([], ts.row_extent, ts.col_extent, ts.meta))
        validate(plan_expert_tiles(0, 2, 4, 5, ArrayGeometry(2, 4, "expert")))
        validate(plan_attention_tiles(9, 2, 4, 3, ArrayGeometry(4, 2, "attention")))

    def test_planned_schedules_validate(self):
        rng = np.random.default_rng(58)
        residue = 0
        for ts in _planned_schedules(rng, 80):
            validate(ts)
            residue += len(set(ts.rows_used.tolist())) > 1 or len(set(ts.cols_used.tolist())) > 1
        assert residue >= 40

    def test_broken_partitions_rejected(self):
        # Dropping, duplicating or shifting one tile by a column breaks the partition.
        rng = np.random.default_rng(59)
        partition_errors = 0
        for ts in _planned_schedules(rng, 60):
            rows = tiles(ts)
            i = int(rng.integers(len(rows)))
            tile = rows[i]
            shift = 1 if tile.col_stop < ts.col_extent or tile.col_start == 0 else -1
            moved = tile._replace(col_start=tile.col_start + shift, col_stop=tile.col_stop + shift)
            for mutant in (rows[:i] + rows[i + 1:], rows[: i + 1] + rows[i:], rows[:i] + [moved] + rows[i + 1:]):
                with pytest.raises(ShapeError) as info:
                    validate(schedule(mutant, ts.row_extent, ts.col_extent, ts.meta))
                partition_errors += "covers cell" in str(info.value)
        assert partition_errors >= 150

    def test_cycle_stats_validation(self):
        with pytest.raises(ValueError):
            CycleStats(-1, {}, 0, 0, 0.0, 0, 1)
        with pytest.raises(ValueError):
            CycleStats(1, {}, 0, 0, 1.5, 0, 1)

    def test_access_event_validation(self):
        with pytest.raises(ValueError):
            AccessEvent(-1, "u", "act_lb", "read", 1, 128)
        with pytest.raises(ValueError):
            AccessEvent(0, "u", "act_lb", "peek", 1, 128)
        with pytest.raises(ValueError):
            AccessEvent(0, "u", "act_lb", "read", 0, 128)

    def test_sparsity_stats(self):
        with pytest.raises(ValueError):
            SparsityStats(5, 4)


def _planned_schedules(rng, count):
    """Planner schedules on random shapes, each with two or more tiles per (group, phase)."""
    for case in range(count):
        rows, cols = (int(x) for x in rng.integers(1, 7, 2))
        if case % 2:
            n_e, t, d_in = (int(x) for x in rng.integers(1, [12, 4, 20]))
            yield plan_expert_tiles(n_e, t, d_in, int(rng.integers(rows + 1, 30)), ArrayGeometry(rows, cols, "expert"))
        else:
            d, t, heads = (int(x) for x in rng.integers(1, [6, 3, 3]))
            yield plan_attention_tiles(int(rng.integers(max(rows, cols) + 1, 20)), d, t, heads, ArrayGeometry(rows, cols, "attention"))


class TestFillFormula:
    def test_hand_values(self):
        assert fill_cycles(128, 16, 128) == 271
        assert fill_cycles(512, 16, 4) == 531
        assert fill_cycles(16, 16, 16) == 47
        assert fill_cycles(1, 1, 1) == 2

    def test_matches_stepped_wavefront(self):
        rng = np.random.default_rng(50)
        for _ in range(60):
            red = int(rng.integers(1, 40))
            ru = int(rng.integers(1, 9))
            cu = int(rng.integers(1, 9))
            assert fill_cycles(red, ru, cu) == stepped_systolic_cycles(red, ru, cu)

    def test_extraction_matches_stepped_drain(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            values = int(rng.integers(0, 300))
            ports = int(rng.integers(1, 20))
            assert extraction_cycle_count(values, ports) == stepped_extraction_cycles(values, ports)
        with pytest.raises(ConfigError):
            extraction_cycle_count(4, 0)

    def test_array_forms_match_scalar(self):
        # The walkers call these on whole tile columns; each entry equals the scalar result.
        rng = np.random.default_rng(52)
        red, ru, cu = (rng.integers(1, 40, 50) for _ in range(3))
        values = rng.integers(0, 300, 50)
        assert fill_cycles(red, ru, cu).tolist() == [fill_cycles(*map(int, x)) for x in zip(red, ru, cu)]
        for ports in (1, 7, 299, 2**70):
            expected = [stepped_extraction_cycles(int(v), min(ports, 300)) for v in values]
            assert extraction_cycle_count(values, ports).tolist() == expected


class TestExpertTiling:
    def test_perfect_fit_single_tile(self):
        ts = plan_expert_tiles(32, 4, 64, 16, EXPERT16x128)  # 128 columns, 16 rows
        assert ts.tile_count == 1
        validate(ts)

    def test_column_residue(self):
        ts = plan_expert_tiles(65, 2, 64, 16, EXPERT16x128)  # 130 columns
        assert ts.tile_count == 2
        assert [t.cols_used for t in tiles(ts)] == [128, 2]
        validate(ts)

    def test_row_by_column_grid(self):
        ts = plan_expert_tiles(16, 4, 128, 128, EXPERT16x128)  # 64 cols, 8 row tiles
        assert ts.tile_count == 8
        validate(ts)

    def test_empty_workload(self):
        ts = plan_expert_tiles(0, 4, 64, 16, EXPERT16x128)
        assert ts.tile_count == 0

    def test_row_outer_column_inner_order(self):
        g = ArrayGeometry(4, 8, "expert")
        ts = plan_expert_tiles(4, 4, 8, 8, g)  # 2 row tiles x 2 col tiles
        spans = [(t.row_start, t.col_start) for t in tiles(ts)]
        assert spans == [(0, 0), (0, 8), (4, 0), (4, 8)]

    def test_role_check(self):
        with pytest.raises(ConfigError):
            plan_expert_tiles(4, 4, 8, 8, ROUTING16x8)


class TestExpertArray:
    def test_single_tile_399(self):
        ts = plan_expert_tiles(32, 4, 128, 16, EXPERT16x128)
        stats, _ = simulate_expert_array(ts, EXPERT16x128, SparsityStats(0, 16384))
        assert stats.total_cycles == 399
        assert stats.per_phase == {"compute": 271, "extract": 128}

    def test_empty_schedule(self):
        ts = plan_expert_tiles(0, 4, 128, 16, EXPERT16x128)
        stats, events = simulate_expert_array(ts, EXPERT16x128, SparsityStats(0, 1))
        assert stats.total_cycles == 0 and events == []

    def test_doubling_reduction_adds_reduction(self):
        a = plan_expert_tiles(32, 4, 128, 16, EXPERT16x128)
        b = plan_expert_tiles(32, 4, 256, 16, EXPERT16x128)
        sa, _ = simulate_expert_array(a, EXPERT16x128, SparsityStats(0, 1))
        sb, _ = simulate_expert_array(b, EXPERT16x128, SparsityStats(0, 1))
        assert sb.total_cycles - sa.total_cycles == 128

    def test_mac_ops_follow_spike_count(self):
        ts = plan_expert_tiles(8, 2, 16, 24, ArrayGeometry(8, 16, "expert"))
        stats, _ = simulate_expert_array(ts, ArrayGeometry(8, 16, "expert"), SparsityStats(37, 256))
        assert stats.mac_ops == 37 * 24

    def test_weight_block_loaded_once_per_row_tile(self):
        # 2 row tiles x 3 column tiles: weights stream twice, never six times.
        g = ArrayGeometry(16, 16, "expert")
        ts = plan_expert_tiles(10, 4, 32, 32, g)
        assert ts.tile_count == 6
        _, events = simulate_expert_array(ts, g, SparsityStats(0, 1))
        wbuf_reads = [e for e in events if e.level == "weight_buffer" and e.direction == "read"]
        assert len(wbuf_reads) == 2
        # The streamed words cover the whole weight block exactly once.
        assert sum(e.words for e in wbuf_reads) == 32 * 32 * 8 // 128

    def test_weight_glb_selection(self):
        ts = plan_expert_tiles(4, 2, 8, 8, ArrayGeometry(8, 8, "expert"))
        _, events = simulate_expert_array(
            ts, ArrayGeometry(8, 8, "expert"), SparsityStats(0, 1), weight_glb="weight_glb1"
        )
        glb_levels = {e.level for e in events if e.level.startswith("weight_glb")}
        assert glb_levels == {"weight_glb1"}

    def test_matches_stepped_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            g = ArrayGeometry(rows, cols, "expert")
            n_e = int(rng.integers(0, 10))
            t = int(rng.integers(1, 4))
            d_in = int(rng.integers(1, 20))
            d_out = int(rng.integers(1, 15))
            ports = int(rng.integers(1, 6))
            ts = plan_expert_tiles(n_e, t, d_in, d_out, g)
            stats, _ = simulate_expert_array(ts, g, SparsityStats(0, 1), extract_ports=ports)
            total, compute, extract = stepped_expert_cycles(n_e, t, d_in, d_out, rows, cols, ports)
            assert stats.total_cycles == total
            assert stats.per_phase == {"compute": compute, "extract": extract}

    def test_utilization_strictly_below_one(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            g = ArrayGeometry(int(rng.integers(1, 6)), int(rng.integers(1, 6)), "expert")
            n_e = int(rng.integers(1, 9))
            t = int(rng.integers(1, 4))
            d_in = int(rng.integers(1, 12))
            d_out = int(rng.integers(1, 12))
            ts = plan_expert_tiles(n_e, t, d_in, d_out, g)
            bits = n_e * t * d_in
            stats, _ = simulate_expert_array(ts, g, SparsityStats(bits, bits))
            assert 0.0 < stats.utilization < 1.0

    def test_more_tokens_never_fewer_cycles(self):
        rng = np.random.default_rng(54)
        for _ in range(15):
            g = ArrayGeometry(int(rng.integers(1, 6)), int(rng.integers(1, 6)), "expert")
            t = int(rng.integers(1, 4))
            d_in = int(rng.integers(1, 12))
            d_out = int(rng.integers(1, 12))
            n = int(rng.integers(0, 10))
            a = plan_expert_tiles(n, t, d_in, d_out, g)
            b = plan_expert_tiles(n + 1, t, d_in, d_out, g)
            sa, _ = simulate_expert_array(a, g, SparsityStats(0, 1))
            sb, _ = simulate_expert_array(b, g, SparsityStats(0, 1))
            assert sb.total_cycles >= sa.total_cycles

    def test_oversized_tile_rejected(self):
        ts = plan_expert_tiles(8, 2, 8, 8, ArrayGeometry(8, 16, "expert"))
        with pytest.raises(ConfigError):
            simulate_expert_array(ts, ArrayGeometry(4, 4, "expert"), SparsityStats(0, 1))


class TestRoutingArray:
    def test_single_tile_example(self):
        # 16 tokens, 4 experts, reduction 512: fill 531 plus extraction 4.
        stats, _ = simulate_routing_array(16, 4, 128, 4, ROUTING16x8)
        assert stats.per_phase == {"compute": 531, "extract": 4}
        assert stats.total_cycles == 535
        assert stats.tile_count == 1

    def test_zero_tokens(self):
        stats, events = simulate_routing_array(0, 4, 128, 4, ROUTING16x8)
        assert stats.total_cycles == 0 and events == []

    def test_row_tiling(self):
        stats, _ = simulate_routing_array(33, 2, 16, 8, ROUTING16x8)
        assert stats.tile_count == 3

    def test_many_experts_tile_columns(self):
        stats, _ = simulate_routing_array(8, 2, 16, 9, ROUTING16x8)
        assert stats.tile_count == 2

    def test_dense_mac_count(self):
        stats, _ = simulate_routing_array(20, 3, 16, 5, ROUTING16x8)
        assert stats.mac_ops == 20 * 5 * 3 * 16

    def test_weight_column_loaded_once(self):
        _, events = simulate_routing_array(40, 2, 16, 4, ROUTING16x8)
        glb_reads = [e for e in events if e.level == "weight_glb0"]
        assert len(glb_reads) == 1 and glb_reads[0].cycle == 0

    def test_matches_stepped_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 5))
            g = ArrayGeometry(rows, cols, "routing")
            n = int(rng.integers(1, 20))
            t = int(rng.integers(1, 4))
            d_in = int(rng.integers(1, 13))
            e = int(rng.integers(1, 9))
            ports = int(rng.integers(1, 6))
            stats, _ = simulate_routing_array(n, t, d_in, e, g, extract_ports=ports)
            total, compute, extract = stepped_routing_cycles(n, t, d_in, e, rows, cols, ports)
            assert stats.total_cycles == total
            assert stats.per_phase == {"compute": compute, "extract": extract}


class TestAttentionTiling:
    def test_single_tile_per_group(self):
        ts = plan_attention_tiles(16, 16, 1, 1, ATTN16x16)
        assert [t.phase for t in tiles(ts)] == ["phase1", "phase2"]
        validate(ts)

    def test_group_product_count(self):
        ts = plan_attention_tiles(16, 16, 2, 2, ATTN16x16)
        assert sum(t.phase == "phase1" for t in tiles(ts)) == 4
        validate(ts)

    def test_map_grid_for_32_tokens(self):
        ts = plan_attention_tiles(32, 16, 1, 1, ATTN16x16)
        assert sum(t.phase == "phase1" for t in tiles(ts)) == 4
        groups = {t.group for t in tiles(ts)}
        assert groups == {(0, 0)}
        validate(ts)

    def test_phase2_reduction_is_key_range(self):
        ts = plan_attention_tiles(20, 8, 1, 1, ATTN16x16)
        p2 = [t for t in tiles(ts) if t.phase == "phase2"]
        assert sorted({t.reduction for t in p2}) == [4, 16]


class TestAttentionArray:
    def test_single_tile_example(self):
        ts = plan_attention_tiles(16, 16, 1, 1, ATTN16x16)
        stats, _ = simulate_attention_array(ts, ATTN16x16)
        assert stats.per_phase == {"phase1": 47, "phase2": 32}
        assert stats.total_cycles == 79
        assert stats.extraction_cycles == 0

    def test_exact_event_list_single_tile(self):
        # Hand-enumerated trace for one head, one timestep, one map tile.
        ts = plan_attention_tiles(16, 16, 1, 1, ATTN16x16)
        _, events = simulate_attention_array(ts, ATTN16x16)
        got = [(e.cycle, e.level, e.direction, e.words, e.tag) for e in events]
        assert got == [
            (0, "act_glb", "read", 6, "spike"),
            (0, "act_lb", "write", 6, "spike"),
            (0, "act_lb", "read", 6, "spike"),
            (0, "act_buffer", "write", 6, "spike"),
            (0, "act_buffer", "read", 2, "spike"),
            (0, "act_buffer", "read", 2, "spike"),
            (47, "act_buffer", "read", 2, "spike"),
            (79, "act_buffer", "write", 32, "integration"),
            (79, "act_buffer", "read", 32, "integration"),
            (79, "act_lb", "write", 2, "spike"),
        ]

    def test_partial_blocks_pay_read_modify_write(self):
        ts = plan_attention_tiles(32, 16, 1, 1, ATTN16x16)
        stats, events = simulate_attention_array(ts, ATTN16x16)
        integ_reads = [e for e in events if e.tag == "integration" and e.direction == "read"]
        integ_writes = [e for e in events if e.tag == "integration" and e.direction == "write"]
        # 2 row blocks x 2 key tiles: one write per phase-2 tile, one extra
        # read per second contribution, one completion read per block.
        assert len(integ_writes) == 4
        assert len(integ_reads) == 4

    def test_no_map_traffic(self):
        # Every event is spike or integration payload; the map moves nothing.
        ts = plan_attention_tiles(32, 16, 2, 2, ATTN16x16)
        _, events = simulate_attention_array(ts, ATTN16x16)
        assert {e.tag for e in events} == {"spike", "integration"}

    def test_matches_stepped_oracle(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            g = ArrayGeometry(rows, cols, "attention")
            n = int(rng.integers(1, 15))
            d = int(rng.integers(1, 12))
            t = int(rng.integers(1, 3))
            heads = int(rng.integers(1, 3))
            ts = plan_attention_tiles(n, d, t, heads, g)
            stats, _ = simulate_attention_array(ts, g)
            total, p1, p2 = stepped_attention_cycles(n, d, t, heads, rows, cols)
            assert stats.total_cycles == total
            assert stats.per_phase == {"phase1": p1, "phase2": p2}

    def test_mac_count(self):
        ts = plan_attention_tiles(24, 8, 2, 3, ATTN16x16)
        stats, _ = simulate_attention_array(ts, ATTN16x16)
        assert stats.mac_ops == 2 * 3 * 2 * 24 * 24 * 8


class TestExpertParallelSchedule:
    def _stats(self, cycles, macs=0, tiles=0, pes=16):
        return CycleStats(cycles, {"compute": cycles}, tiles, macs, 0.0, 0, pes)

    def test_perfect_balance(self):
        loads = [self._stats(100)] * 4
        total, assignment = expert_parallel_schedule(loads, 4, 10)
        assert total.total_cycles == 110
        assert sorted(len(a) for a in assignment) == [1, 1, 1, 1]

    def test_lpt_hand_case(self):
        loads = [self._stats(c) for c in (10, 1, 1, 1, 1)]
        total, _ = expert_parallel_schedule(loads, 4, 0)
        assert total.total_cycles == 10

    def test_single_core_serializes(self):
        loads = [self._stats(c) for c in (3, 7, 5)]
        total, assignment = expert_parallel_schedule(loads, 1, 2)
        assert total.total_cycles == 17
        assert assignment == [[1, 2, 0]]

    def test_empty_workloads(self):
        total, assignment = expert_parallel_schedule([], 4, 9)
        assert total.total_cycles == 9
        assert assignment == [[], [], [], []]

    def test_matches_lpt_oracle(self):
        rng = np.random.default_rng(57)
        for _ in range(30):
            cores = int(rng.integers(1, 6))
            loads = [int(c) for c in rng.integers(0, 50, size=int(rng.integers(0, 9)))]
            stats = [self._stats(c) for c in loads]
            total, assignment = expert_parallel_schedule(stats, cores, 5)
            assert total.total_cycles == 5 + lpt_makespan(loads, cores)
            placed = sorted(i for core in assignment for i in core)
            assert placed == list(range(len(loads)))

    @staticmethod
    def _min_scan(workloads, cores):
        """Reference placement: scan every core for the least load, ties to the lowest id."""
        order = sorted(range(len(workloads)), key=lambda i: (-workloads[i].total_cycles, i))
        loads = [0] * cores
        assignment = [[] for _ in range(cores)]
        for i in order:
            core = min(range(cores), key=lambda c: (loads[c], c))
            assignment[core].append(i)
            loads[core] += workloads[i].total_cycles
        return assignment, max(loads)

    def test_matches_min_scan_reference(self):
        # Few distinct loads force ties, zero loads are idle experts, and up
        # to 12 cores for at most 9 workloads leaves cores empty.
        rng = np.random.default_rng(58)
        for _ in range(500):
            cores = int(rng.integers(1, 13))
            stats = [
                self._stats(int(c), macs=int(c), tiles=int(t), pes=int(p))
                for c, t, p in rng.integers(0, 4, size=(int(rng.integers(0, 10)), 3)) * (3, 2, 8) + (0, 0, 1)
            ]
            total, assignment = expert_parallel_schedule(stats, cores, 7)
            expected, makespan = self._min_scan(stats, cores)
            assert assignment == expected
            assert total.total_cycles == 7 + makespan
            assert total.per_phase == {"router": 7, "compute": makespan}
            assert total.mac_ops == sum(w.mac_ops for w in stats)
            assert total.tile_count == sum(w.tile_count for w in stats)
            assert total.pe_count == cores * max((w.pe_count for w in stats), default=0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            expert_parallel_schedule([], 0, 0)
        with pytest.raises(ConfigError):
            expert_parallel_schedule([], 1, -1)


class TestTraces:
    def test_merge_orders_by_cycle_then_unit(self):
        a = [AccessEvent(5, "b", "act_lb", "read", 1, 128), AccessEvent(9, "b", "act_lb", "read", 1, 128)]
        b = [AccessEvent(5, "a", "act_lb", "write", 1, 128), AccessEvent(2, "c", "act_glb", "read", 1, 128)]
        merged = merge_traces(a, b)
        assert [(e.cycle, e.unit) for e in merged] == [(2, "c"), (5, "a"), (5, "b"), (9, "b")]

    def test_trace_csv_round_readable(self, tmp_path):
        g = ArrayGeometry(8, 16, "expert")
        ts = plan_expert_tiles(8, 2, 16, 8, g)
        walks = [(("expert0",), expert_walk(ts, g, SparsityStats(0, 1))[1])]
        events = merged_events(walks)
        assert events == simulate_expert_array(ts, g, SparsityStats(0, 1))[1]
        path = tmp_path / "trace.csv"
        write_trace_csv(walks, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(TRACE_COLUMNS)
        assert len(rows) == len(events) + 1
        for row, ev in zip(rows[1:], events):
            assert row == [str(ev.cycle), ev.unit, ev.level, ev.direction, str(ev.words), str(ev.width_bits)]

    def test_trace_equals_merge_traces(self, tmp_path):
        # A shared walk whose unit names sort differently as strings and as
        # numbers, interleaved on equal cycles with a second walk.
        ts = plan_attention_tiles(5, 3, 2, 1, ATTN16x16)
        heads = ("attn2", "attn10", "attn1")
        egress = [(0, "act_glb", "write", 7, "spike"), (4, "act_lb", "read", 300, "spike")]
        walks = [(heads, attention_walk(ts, ATTN16x16)[1]), (("merge", "attn0"), records_from_rows(egress))]
        per_unit = [simulate_attention_array(ts, ATTN16x16, unit=unit)[1] for unit in heads]
        per_unit += [[AccessEvent(c, unit, level, d, -(-bits // 128), 128, tag) for c, level, d, bits, tag in egress]
                     for unit in ("merge", "attn0")]
        assert merged_events(walks) == merge_traces(*per_unit)
        assert _written(walks, tmp_path) == _csv_writer_bytes(merge_traces(*per_unit))

    def test_merge_of_nothing(self, tmp_path):
        assert _written([], tmp_path) == b"cycle,unit,level,direction,words,width_bits\r\n"
        assert _written([], tmp_path) == _csv_writer_bytes([])

    @pytest.mark.parametrize(
        "record,problem",
        [
            ((-1, "act_lb", "read", 8, "spike"), "cycle cannot be negative"),
            ((3, "act_lb", "fetch", 8, "spike"), "direction must be read or write"),
            ((3, "act_dram", "read", 8, "spike"), "unknown level 'act_dram'"),
            ((3, "act_lb", "write", 0, "spike"), "at least one word"),
        ],
    )
    def test_bad_walker_records_rejected(self, record, problem, tmp_path):
        good = (0, "act_glb", "read", 8, "spike")
        path = tmp_path / "trace.csv"
        with pytest.raises(TraceError, match=problem) as info:
            write_trace_csv([(("attn0", "attn1"), records_from_rows([good, record]))], str(path))
        assert "attn0, attn1" in str(info.value)
        assert not path.exists()


def _csv_writer_bytes(events) -> bytes:
    """``AccessEvent`` rows as csv.writer writes them: the writer's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(TRACE_COLUMNS)
    for ev in events:
        writer.writerow([ev.cycle, ev.unit, ev.level, ev.direction, ev.words, ev.width_bits])
    return buf.getvalue().encode()


def _written(walks, tmp_path) -> bytes:
    path = tmp_path / "trace.csv"
    write_trace_csv(walks, str(path))
    return path.read_bytes()


def _reference(walks) -> bytes:
    """The walks' per-unit events merged by ``merge_traces``, written by csv.writer."""
    return _csv_writer_bytes(merged_events(walks))


# 0, each 10**k - 1 / 10**k digit boundary, 2**53 and the int64 maximum.
BOUNDARY_CYCLES = [0] + [c for k in range(1, 19) for c in (10**k - 1, 10**k)] + [2**53, 2**63 - 1]
UNITS = ("e9", "e10", "router", "merge")


_RANDOM_KINDS = (
    ("act_glb", "read", "spike"),
    ("act_lb", "write", "spike"),
    ("weight_buffer", "read", "weight"),
    ("act_buffer", "write", "integration"),
)


def _random_records(rng, rows, cycles, repeats=1, period=0) -> Records:
    """``rows`` rows on cycles drawn from ``cycles`` in no order, with random kinds and bursts."""
    return Records(
        _RANDOM_KINDS, rng.choice(cycles, rows), rng.integers(0, 4, rows), rng.integers(1, 700, rows), repeats, period
    )


def _random_walks(seed) -> list:
    """A seeded walk list that exercises the copy rule and the writer's runs.

    Unsorted walks on few cycles, so runs are long and cross chunk edges; a
    walk whose recurring copies coincide (period 0) and one whose copies
    interleave (period below the span), each with a short walk of its units
    that occurs once (a head ingress's shape); "u2" in four walks and "u10"
    twice in two; cycles 0 and 2**63 - 1; and a walk with no records.
    """
    rng = np.random.default_rng(seed)
    few = np.arange(0, 60, 3)
    walks = [
        (("u10", "u2", "u10"), _random_records(rng, int(rng.integers(0, 50)), few)),
        (("u10", "u2", "u10"), _random_records(rng, 900, few, 3, 0)),
        (("u2",), _random_records(rng, int(rng.integers(0, 50)), few)),
        (("u2",), _random_records(rng, 1200, few, 4, int(rng.integers(1, 30)))),
        (("merge", "u1"), _random_records(rng, 1500, np.array([0, 7, 30, 2**63 - 1]))),
        (("idle",), _random_records(rng, 0, few)),
        (("u3", "u1"), _random_records(rng, 600, few)),
    ]
    rng.shuffle(walks)
    return walks


@pytest.mark.parametrize("seed", range(6))
def test_copy_rule_counts_every_record(seed):
    # Each row of a walk occurs ``repeats`` times for each of its units: the
    # fold of the rows equals a fold of the merged trace, event by event.
    walks = _random_walks(seed)
    assert count_walks(walks) == count_accesses(merged_events(walks))


def _rows(cycles) -> list[tuple]:
    kinds = [("act_glb", "read"), ("act_lb", "write"), ("weight_buffer", "read"), ("act_buffer", "write")]
    return [(c, *kinds[i % 4], 1 + 37 * i % 900, "spike") for i, c in enumerate(cycles)]


class TestTraceWriter:
    """``write_trace_csv`` against csv.writer over the walks' merged ``AccessEvent`` rows, byte for byte."""

    @pytest.mark.parametrize("cycle", BOUNDARY_CYCLES)
    def test_digit_boundary_alone(self, cycle, tmp_path):
        walks = [(UNITS, records_from_rows(_rows([cycle, cycle])))]
        assert _written(walks, tmp_path) == _reference(walks)

    def test_digit_boundaries_in_one_chunk(self, tmp_path):
        # Every row is padded to the 5 digit groups of the largest cycle.
        walks = [(UNITS, records_from_rows(_rows(BOUNDARY_CYCLES)))]
        written = _written(walks, tmp_path)
        assert written.count(b"\r\n") == 1 + 4 * len(BOUNDARY_CYCLES)
        assert written == _reference(walks)

    # The edges of the first chunk and of the second.
    @pytest.mark.parametrize("rows", [k * TRACE_CHUNK_ROWS + d for k in (1, 2) for d in (-1, 0, 1)])
    def test_chunk_edges(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        # Three units share one walk, "merge" has its own, so any row count is reachable.
        shared = rows // 3 - 1
        cycles = np.sort(rng.integers(0, 10**6, rows - 2 * shared)).tolist()
        cycles[-1] = 2**63 - 1  # the last row, which needs more digit groups than the rest
        walks = [(UNITS[:3], records_from_rows(_rows(cycles[:shared]))),
                 (UNITS[3:], records_from_rows(_rows(cycles[shared:])))]
        lines = _written(walks, tmp_path).split(b"\r\n")
        assert len(lines) == rows + 2 and lines[-2].startswith(b"%d," % (2**63 - 1))
        assert b"\r\n".join(lines) == _reference(walks)

    # Each largest cycle takes one more 4-digit group, so a 4-, 8-, 12-, 16- and 20-byte digit field.
    @pytest.mark.parametrize("largest, width", [(9, 4), (10**4, 8), (10**8, 12), (10**12, 16), (2**63 - 1, 20)])
    def test_digit_field_at_every_group_count(self, largest, width, tmp_path):
        # A chunk and one row; the shared walk's names differ in length, so rows are NUL-padded inside.
        assert 4 * -(-len(str(largest)) // 4) == width
        rng = np.random.default_rng(width)
        shared = TRACE_CHUNK_ROWS // 3
        cycles = rng.integers(0, largest, TRACE_CHUNK_ROWS + 1 - 2 * shared, endpoint=True).tolist()
        cycles[:2] = [0, largest]
        walks = [(("e9", "router", "e10"), records_from_rows(_rows(cycles[:shared]))),
                 (("merge",), records_from_rows(_rows(cycles[shared:])))]
        written = _written(walks, tmp_path)
        assert written.count(b"\r\n") == TRACE_CHUNK_ROWS + 2
        assert written == _reference(walks)

    def test_units_and_walks_interleaved(self, tmp_path):
        # "e9" appears in two walks, so its records are not one contiguous range.
        walks = [(("e9", "e10"), records_from_rows(_rows([0, 5, 12]))),
                 (("router",), records_from_rows(_rows([5, 99999, 100000]))),
                 (("e9", "merge"), records_from_rows(_rows([7, 10**9])[::-1]))]
        assert _written(walks, tmp_path) == _reference(walks)

    def test_unit_without_rows(self, tmp_path):
        walks = [(("idle",), records_from_rows([])), (UNITS, records_from_rows(_rows([3, 4])))]
        assert _written(walks, tmp_path) == _reference(walks)
        assert _written(walks[:1], tmp_path) == _csv_writer_bytes([])

    def test_every_plain_ascii_character(self, tmp_path):
        # csv.writer quotes none of these, and an empty name is an empty field.
        plain = "".join(chr(c) for c in range(1, 128) if chr(c) not in '",\r\n')
        walks = [(("", " ", plain, "e 1\t"), records_from_rows(_rows([1, 2])))]
        assert _written(walks, tmp_path) == _reference(walks)

    @pytest.mark.parametrize("char", ["\0", ",", '"', "\r", "\n", "\u00e9", "\u2028"])
    def test_names_that_need_quoting_refused(self, char, tmp_path):
        path = tmp_path / "trace.csv"
        # A unit is checked whether or not it has rows, and nothing is written.
        for records in (_rows([1]), []):
            walks = [(("e1",), records_from_rows(_rows([0]))), (("e2", f"e{char}2"), records_from_rows(records))]
            with pytest.raises(TraceError, match="must be ASCII with no NUL, comma, double quote, CR or LF"):
                write_trace_csv(walks, str(path))
            assert not path.exists()

    def test_level_names_are_plain(self):
        # Levels and directions are not checked per trace: Records.words admits
        # only these levels and read or write, which need no quoting.
        for name in (*LEVEL_GEOMETRY, "read", "write"):
            assert _plain_field(name) == name

    def test_negative_cycle_refused(self, tmp_path):
        # A bad record in a later walk still leaves no file.
        path = tmp_path / "trace.csv"
        walks = [(("e1",), records_from_rows(_rows([0, 1]))), (("e2",), records_from_rows(_rows([-1])))]
        with pytest.raises(TraceError, match="cycle cannot be negative"):
            write_trace_csv(walks, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("kind", [-1, len(_RANDOM_KINDS)])
    def test_kind_outside_the_walks_kinds_refused(self, kind, tmp_path):
        # -1 would take the last kind's width, and 4 no kind at all; nothing is written.
        path = tmp_path / "trace.csv"
        bad = Records(_RANDOM_KINDS, *(np.array(column, np.int64) for column in ([0, 2], [0, kind], [5, 5])), 3, 10)
        walks = [(("e1",), records_from_rows(_rows([0, 1]))), (("e2", "e3"), bad)]
        match = rf"record kind {kind} is not an index into the walk's 4 kinds \(record at cycle 2 of unit\(s\) e2, e3\)"
        with pytest.raises(TraceError, match=match):
            write_trace_csv(walks, str(path))
        assert not path.exists()

    def test_digit_table_not_built_at_import(self):
        probe = "import spikesim.cli, spikesim.dataflow as d; print(d._digit_groups.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "0"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_walk_lists(self, seed, tmp_path):
        walks = _random_walks(seed)
        events = merged_events(walks)
        cycles = [ev.cycle for ev in events]
        assert any(cycles[k - 1] == cycles[k] for k in range(TRACE_CHUNK_ROWS, len(cycles), TRACE_CHUNK_ROWS))
        assert _written(walks, tmp_path) == _csv_writer_bytes(events)

    def test_cycle_longer_than_two_chunks(self, tmp_path):
        # Cycle 5 holds more than two chunks of rows from three walks, one of
        # 48 units, so chunks start and end inside it and clip its groups.
        rng = np.random.default_rng(7)
        walks = [
            (tuple(f"h{i}" for i in range(48)), _random_records(rng, TRACE_CHUNK_ROWS // 20, np.array([5, 5, 5, 9]))),
            (("solo",), _random_records(rng, TRACE_CHUNK_ROWS * 11 // 10, np.array([5, 2]))),
            (("h7",), _random_records(rng, 50, np.array([5, 11]))),
        ]
        events = merged_events(walks)
        assert sum(ev.cycle == 5 for ev in events) > 2 * TRACE_CHUNK_ROWS
        assert _written(walks, tmp_path) == _csv_writer_bytes(events)

    def test_peak_is_per_record_plus_per_chunk(self):
        # 657k rows of 82k records: the 8 heads share one walk.  The writer
        # holds under 64 bytes per record and, per chunk row, under 512 bytes of
        # grid, mask, kept bytes and indices.  Sorting int64 columns per row
        # holds 56 bytes per row, more than twice this bound.
        walks = run_experiment(parse_workload({"kind": "mha", "model": {"n": 1024, "t": 4, "h": 8, "d": 32}})).walks
        rows = sum(len(units) * len(records) for units, records in walks)
        bound = 64 * sum(len(records) for _, records in walks) + 512 * TRACE_CHUNK_ROWS
        assert rows >= 500_000 and 2 * bound <= 56 * rows
        _digit_groups()  # built once per process
        tracemalloc.start()
        try:
            write_trace_csv(walks, os.devnull)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound
