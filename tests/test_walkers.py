"""The columnar walkers against scalar per-tile reference walkers.

Each reference below steps one tile at a time and emits records in the order
the per-tile body reaches them, over the schedule's rows as ``Tile`` tuples
(``object_model.tiles``); the walkers under test compute the whole tile grid
with numpy.  Record sequences and cycle stats must be equal for random
shapes, residue tiles, extract port counts, empty workloads and hand-built
schedules in other tile orders.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from spikesim import ArrayGeometry, SparsityStats, TileSchedule, dataflow, plan_attention_tiles, plan_expert_tiles
from spikesim.cli import main
from spikesim.levels import level_width_bits, width_words
from spikesim.dataflow import (
    _stats,
    attention_walk,
    expert_walk,
    expert_walks,
    fill_cycles,
    repeat_timesteps,
    routing_walk,
    write_trace_csv,
)
from spikesim.memory import count_walks

from object_model import Tile, record_rows, records_from_rows, schedule, tiles, validate


def reference_expert_walk(ts, g, sparsity, extract_ports=None, weight_glb="weight_glb0"):
    ports = g.rows if extract_ports is None else extract_ports
    if not ts.tile_count:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g.pe_count), []
    d_in, d_out = ts.meta["d_in"], ts.row_extent
    records = [
        (0, weight_glb, "read", d_in * d_out * 8, "weight"),
        (0, "weight_lb", "write", d_in * d_out * 8, "weight"),
        (0, "act_glb", "read", ts.col_extent * d_in, "spike"),
        (0, "act_lb", "write", ts.col_extent * d_in, "spike"),
    ]
    cycle = compute = extract_total = 0
    current_row_tile = None
    for tile in tiles(ts):
        ru, cu = tile.rows_used, tile.cols_used
        if (tile.row_start, tile.row_stop) != current_row_tile:
            current_row_tile = (tile.row_start, tile.row_stop)
            wbits = ru * tile.reduction * 8
            records += [
                (cycle, "weight_lb", "read", wbits, "weight"),
                (cycle, "weight_buffer", "write", wbits, "weight"),
                (cycle, "weight_buffer", "read", wbits, "weight"),
            ]
        sbits = cu * tile.reduction
        records += [
            (cycle, "act_lb", "read", sbits, "spike"),
            (cycle, "act_buffer", "write", sbits, "spike"),
            (cycle, "act_buffer", "read", sbits, "spike"),
        ]
        fills = fill_cycles(tile.reduction, ru, cu)
        ext = math.ceil(ru * cu / ports)
        records += [
            (cycle + fills, "act_buffer", "write", ru * cu * 16, "integration"),
            (cycle + fills + ext, "act_buffer", "read", ru * cu * 16, "integration"),
            (cycle + fills + ext, "act_lb", "write", ru * cu, "spike"),
        ]
        cycle += fills + ext
        compute += fills
        extract_total += ext
    stats = _stats(cycle, {"compute": compute, "extract": extract_total}, ts.tile_count, sparsity.ones * d_out, extract_total, g.pe_count)
    return stats, records


def reference_routing_walk(n, t, d_in, e, g, extract_ports=None):
    ports = g.rows if extract_ports is None else extract_ports
    if n == 0:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g.pe_count), []
    reduction = t * d_in
    records = [(0, "weight_glb0", "read", d_in * e * 8, "weight"), (0, "weight_lb", "write", d_in * e * 8, "weight")]
    cycle = compute = extract_total = tiles = mac_ops = 0
    for r0 in range(0, n, g.rows):
        r1 = min(r0 + g.rows, n)
        for c0 in range(0, e, g.cols):
            c1 = min(c0 + g.cols, e)
            ru, cu = r1 - r0, c1 - c0
            fills = fill_cycles(reduction, ru, cu)
            ext = math.ceil(ru * cu / ports)
            records += [
                (cycle, "weight_lb", "read", cu * d_in * 8, "weight"),
                (cycle, "act_glb", "read", ru * reduction, "spike"),
                (cycle + fills, "act_buffer", "write", ru * cu * 16, "score"),
            ]
            cycle += fills + ext
            compute += fills
            extract_total += ext
            tiles += 1
            mac_ops += ru * cu * reduction
    return _stats(cycle, {"compute": compute, "extract": extract_total}, tiles, mac_ops, extract_total, g.pe_count), records


def reference_attention_walk(ts, g):
    if not ts.tile_count:
        return _stats(0, {"phase1": 0, "phase2": 0}, 0, 0, 0, g.pe_count), []
    d, n, t_steps = ts.meta["d"], ts.meta["n"], ts.meta["t"]
    key_tiles_per_row = math.ceil(n / g.cols)
    records = []
    cycle = phase1 = phase2 = mac_ops = 0
    seen_heads, seen_groups, contributions = set(), set(), {}
    for tile in tiles(ts):
        head, _step = tile.group
        if head not in seen_heads:
            seen_heads.add(head)
            records += [(cycle, "act_glb", "read", 3 * n * t_steps * d, "spike"), (cycle, "act_lb", "write", 3 * n * t_steps * d, "spike")]
        if tile.group not in seen_groups:
            seen_groups.add(tile.group)
            records += [(cycle, "act_lb", "read", 3 * n * d, "spike"), (cycle, "act_buffer", "write", 3 * n * d, "spike")]
        ru, cu = tile.rows_used, tile.cols_used
        if tile.phase == "phase1":
            records += [(cycle, "act_buffer", "read", ru * d, "spike"), (cycle, "act_buffer", "read", cu * d, "spike")]
            fills = fill_cycles(tile.reduction, ru, cu)
            cycle += fills
            phase1 += fills
            mac_ops += ru * cu * d
        else:
            records.append((cycle, "act_buffer", "read", cu * d, "spike"))
            block = (tile.group, tile.row_start, tile.row_stop)
            ordinal = contributions.get(block, 0)
            xbits = ru * d * 16
            if ordinal > 0:
                records.append((cycle, "act_buffer", "read", xbits, "integration"))
            cycles_here = d + (ru - 1) + 1
            records.append((cycle + cycles_here, "act_buffer", "write", xbits, "integration"))
            contributions[block] = ordinal + 1
            if contributions[block] == key_tiles_per_row:
                records += [
                    (cycle + cycles_here, "act_buffer", "read", xbits, "integration"),
                    (cycle + cycles_here, "act_lb", "write", ru * d, "spike"),
                ]
            cycle += cycles_here
            phase2 += cycles_here
            mac_ops += ru * d * cu
    return _stats(cycle, {"phase1": phase1, "phase2": phase2}, ts.tile_count, mac_ops, 0, g.pe_count), records


def _assert_same(walked, reference):
    (stats, records), (ref_stats, ref_records) = walked, reference
    assert stats == ref_stats
    assert record_rows(records) == ref_records
    assert len(set(records.kinds)) == len(records.kinds)
    for column in (records.cycle, records.kind, records.bits):
        assert column.dtype == np.int64


def _shuffled(ts, rng):
    """The same tiles in a random order, built by hand."""
    order = rng.permutation(ts.tile_count)
    rows = tiles(ts)
    return schedule([rows[i] for i in order], ts.row_extent, ts.col_extent, ts.meta)


def test_expert_walk_matches_reference():
    rng = np.random.default_rng(70)
    seen = set()
    for case in range(160):
        g = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 12)), "expert")
        n_e = int(rng.integers(0, 12)) if case % 8 else 0
        t, d_in, d_out = (int(x) for x in rng.integers(1, [4, 20, 25]))
        ports = None if rng.random() < 0.3 else int(rng.integers(1, 40))
        glb = "weight_glb0" if rng.random() < 0.5 else "weight_glb1"
        bits = n_e * t * d_in
        sparsity = SparsityStats(int(rng.integers(0, bits + 1)), bits)
        ts = plan_expert_tiles(n_e, t, d_in, d_out, g)
        if case % 5 == 4 and ts.tile_count > 1:
            ts = _shuffled(ts, rng)
            seen.add("shuffled")
        if ts.tile_count and (d_out % g.rows or (n_e * t) % g.cols):
            seen.add("residue")
        seen.add("empty" if n_e == 0 else "tokens")
        _assert_same(expert_walk(ts, g, sparsity, ports, glb), reference_expert_walk(ts, g, sparsity, ports, glb))
    assert seen == {"shuffled", "residue", "empty", "tokens"}


def test_expert_walks_match_the_reference_expert_by_expert():
    # A layer's experts planned and walked in one pass: each expert's
    # (CycleStats, Records) equals a scalar walk of its own schedule, from
    # cycle 0, with its own preloads, its own first row tile and the GLB
    # bank of its id's parity.
    rng = np.random.default_rng(75)
    seen = set()
    for case in range(240):
        g = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 12)), "expert")
        if case % 12 == 0:
            g = ArrayGeometry(1, 1, "expert")
        elif case % 12 == 1:
            g = ArrayGeometry(2**70 if case % 24 == 1 else 64, 2**70 if case % 24 == 1 else 256, "expert")
        e = int(rng.integers(1, 7))
        t, d_in, d_out = (int(x) for x in rng.integers(1, [4, 20, 25]))
        if case % 3 == 0:
            d_out = int(rng.integers(1, min(g.rows, 24) + 1))  # one row tile per expert
        counts = rng.integers(0, 12, size=e)
        counts[rng.random(e) < 0.3] = int(rng.integers(0, 2))  # idle and one-token experts
        ports = (None, int(rng.integers(1, 5)), 2**70, g.rows * g.cols + int(rng.integers(0, 9)))[case % 4]
        ones = [int(rng.integers(0, n_e * t * d_in + 1)) for n_e in counts.tolist()]
        ts = plan_expert_tiles(counts, t, d_in, d_out, g)
        walks = expert_walks(ts, g, np.array(ones, dtype=float) if case % 2 else ones, ports)
        assert len(walks) == e
        schedules = [plan_expert_tiles(n_e, t, d_in, d_out, g) for n_e in counts.tolist()]
        assert tiles(ts) == [tile for one in schedules for tile in tiles(one)]
        assert ts.meta["tiles"].tolist() == [one.tile_count for one in schedules]
        for i, (one, walk) in enumerate(zip(schedules, walks)):
            bank = f"weight_glb{i % 2}"
            sparsity = SparsityStats(ones[i], int(counts[i]) * t * d_in)
            _assert_same(walk, reference_expert_walk(one, g, sparsity, ports, bank))
            assert walk[1].kinds[0] == (bank, "read", "weight")
            seen.add("idle" if counts[i] == 0 else "one token" if counts[i] == 1 else "tokens")
            if one.tile_count and (d_out % min(g.rows, d_out) or (counts[i] * t) % min(g.cols, counts[i] * t)):
                seen.add("ragged")
        if (counts > 0).sum() > 1:
            seen.add("one row tile, busy experts" if d_out <= g.rows else "row tiles, busy experts")
        seen.add({0: "default ports", 1: "few ports", 2: "huge ports", 3: "ports above every area"}[case % 4])
        if g.pe_count == 1 or g.rows >= d_out and g.cols >= counts.max() * t:
            seen.add("1x1" if g.pe_count == 1 else "array beyond the layer")
    assert seen == {
        "idle", "one token", "tokens", "ragged", "one row tile, busy experts", "row tiles, busy experts",
        "default ports", "few ports", "huge ports", "ports above every area", "1x1", "array beyond the layer",
    }


def test_routing_walk_matches_reference():
    rng = np.random.default_rng(71)
    for case in range(150):
        g = ArrayGeometry(int(rng.integers(1, 9)), int(rng.integers(1, 6)), "routing")
        n = int(rng.integers(0, 30)) if case % 10 else 0
        t, d_in, e = (int(x) for x in rng.integers(1, [4, 16, 12]))
        ports = None if rng.random() < 0.3 else int(rng.integers(1, 30))
        _assert_same(routing_walk(n, t, d_in, e, g, ports), reference_routing_walk(n, t, d_in, e, g, ports))


def test_attention_walk_matches_reference():
    rng = np.random.default_rng(72)
    shuffled = 0
    for case in range(150):
        g = ArrayGeometry(int(rng.integers(1, 7)), int(rng.integers(1, 7)), "attention")
        n, d, t, heads = (int(x) for x in rng.integers(1, [16, 10, 4, 4]))
        ts = plan_attention_tiles(n, d, t, heads, g)
        if case % 3 == 0:
            # Hand-built: phase-2 tiles may come before their phase-1 tile,
            # groups and heads interleave, blocks complete out of order.
            ts = _shuffled(ts, rng)
            shuffled += 1
        _assert_same(attention_walk(ts, g), reference_attention_walk(ts, g))
    assert shuffled >= 50


def test_repeated_group_equals_a_walk_of_the_whole_head(tmp_path):
    # A run walks one (head, timestep) group and repeats it over the t
    # timesteps, with the head ingress as a walk of its own listed first:
    # their stats, level table, records and trace equal a walk of the head's
    # whole schedule.
    rng = np.random.default_rng(74)
    seen = set()
    for case in range(120):
        g = ArrayGeometry(*(int(x) for x in rng.integers(1, 7, size=2)), "attention")
        if case % 8 == 0:
            g = ArrayGeometry(1, 1, "attention")
        n, d, t = (int(x) for x in rng.integers(1, [16, 10, 7]))
        if case % 6 == 0:
            t = 1
        seen |= {"1x1" if g.pe_count == 1 else "array", "t=1" if t == 1 else "timesteps"}
        if n % g.rows and n % g.cols and n > max(g.rows, g.cols):
            seen.add("ragged on both axes")
        group, whole = plan_attention_tiles(n, d, 1, 1, g), plan_attention_tiles(n, d, t, 1, g)
        validate(group)
        stats, ingress, records = repeat_timesteps(*attention_walk(group, g), t)
        full_stats, full = attention_walk(whole, g)
        assert stats == full_stats
        assert len(ingress) + len(records) == len(full)
        expanded = records.expand()
        assert ingress.kinds == expanded.kinds == full.kinds
        for column in ("cycle", "kind", "bits"):
            assert getattr(ingress, column).dtype == getattr(expanded, column).dtype == np.int64
            joined = np.concatenate((getattr(ingress, column), getattr(expanded, column)))
            assert np.array_equal(joined, getattr(full, column)), column
        units = ("attn0", "attn10", "attn2")
        walks = [(units, ingress), (units, records)]
        assert list(count_walks(walks).items()) == list(count_walks([(units, full)]).items())
        if case % 4 == 0:
            assert ingress.events("attn1") + records.events("attn1") == full.events("attn1")
            write_trace_csv(walks, tmp_path / "repeated.csv")
            write_trace_csv([(units, full)], tmp_path / "full.csv")
            assert (tmp_path / "repeated.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert seen == {"1x1", "array", "t=1", "timesteps", "ragged on both axes"}


@pytest.mark.parametrize("period", [2**30 + 1, 2**47 // 7])
def test_repeated_group_offsets_stay_exact_in_int64(period):
    # The copy rule shifts copy s by s * period in int64: past 2**31 and up to
    # the 2**48 that repeat_timesteps' bound allows, every copy's cycle is exact.
    g, t = ArrayGeometry(2, 3, "attention"), 7
    stats, records = attention_walk(plan_attention_tiles(5, 4, 1, 1, g), g)
    stats = dataclasses.replace(stats, total_cycles=period)
    scaled, _, group = repeat_timesteps(stats, records, t)
    assert scaled.total_cycles == t * period
    body = group.cycle.tolist()
    assert group.expand().cycle.tolist() == [cycle + s * period for s in range(t) for cycle in body]


def test_attention_walk_sparse_group_ids():
    # Hand-built groups with sparse, large head and step ids, in a random
    # tile order: distinct (head, step) pairs stay distinct groups.
    rng = np.random.default_rng(73)
    head_ids, step_ids = [0, 5, 2**40, 2**62], [0, 3, 2**61, 2**62 + 7]
    for _ in range(30):
        g = ArrayGeometry(int(rng.integers(1, 5)), int(rng.integers(1, 5)), "attention")
        n, d, t, heads = (int(x) for x in rng.integers(1, [9, 6, 5, 5]))
        ts = plan_attention_tiles(n, d, t, heads, g)
        rows = [tile._replace(group=(head_ids[tile.group[0]], step_ids[tile.group[1]])) for tile in tiles(ts)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        ts = schedule(rows, ts.row_extent, ts.col_extent, ts.meta)
        _assert_same(attention_walk(ts, g), reference_attention_walk(ts, g))


def test_attention_walk_single_tile_records():
    g = ArrayGeometry(16, 16, "attention")
    _, records = attention_walk(plan_attention_tiles(16, 16, 1, 1, g), g)
    assert record_rows(records) == [
        (0, "act_glb", "read", 768, "spike"),
        (0, "act_lb", "write", 768, "spike"),
        (0, "act_lb", "read", 768, "spike"),
        (0, "act_buffer", "write", 768, "spike"),
        (0, "act_buffer", "read", 256, "spike"),
        (0, "act_buffer", "read", 256, "spike"),
        (47, "act_buffer", "read", 256, "spike"),
        (79, "act_buffer", "write", 4096, "integration"),
        (79, "act_buffer", "read", 4096, "integration"),
        (79, "act_lb", "write", 256, "spike"),
    ]


def test_oversized_extract_ports_and_arrays():
    # Port counts and array extents beyond int64 behave like the largest useful ones.
    big = 2**70
    g = ArrayGeometry(big, big, "expert")
    ts = plan_expert_tiles(3, 2, 5, 7, g)
    assert ts.tile_count == 1
    _assert_same(expert_walk(ts, g, SparsityStats(0, 1), big), reference_expert_walk(ts, g, SparsityStats(0, 1), big))
    routing = ArrayGeometry(big, big, "routing")
    _assert_same(routing_walk(9, 2, 3, 4, routing, big), reference_routing_walk(9, 2, 3, 4, routing, big))
    attention = ArrayGeometry(big, big, "attention")
    ts = plan_attention_tiles(5, 3, 2, 1, attention)
    _assert_same(attention_walk(ts, attention), reference_attention_walk(ts, attention))


def test_zero_extract_ports_refused():
    # extraction_cycle_count holds the one ports check; every walker reaches it, with tiles to walk or none.
    expert, routing = ArrayGeometry(4, 4, "expert"), ArrayGeometry(4, 4, "routing")
    zero = "^extract ports must be >= 1, got 0$"
    for n_e in (3, 0):
        ts = plan_expert_tiles(n_e, 2, 5, 7, expert)
        with pytest.raises(dataflow.ConfigError, match=zero):
            expert_walks(ts, expert, [n_e], 0)
        with pytest.raises(dataflow.ConfigError, match=zero):
            dataflow.simulate_expert_array(ts, expert, SparsityStats(0, 1), 0)
    for n in (9, 0):
        with pytest.raises(dataflow.ConfigError, match=zero):
            routing_walk(n, 2, 3, 4, routing, 0)
        with pytest.raises(dataflow.ConfigError, match=zero):
            dataflow.simulate_routing_array(n, 2, 3, 4, routing, 0)


def test_schedule_columns_round_trip_tiles():
    g = ArrayGeometry(3, 4, "attention")
    ts = plan_attention_tiles(7, 2, 2, 2, g)
    again = schedule(tiles(ts), ts.row_extent, ts.col_extent, ts.meta)
    assert tiles(again) == tiles(ts)
    assert tiles(ts)[0] == Tile(0, 3, 0, 4, 2, "phase1", (0, 0))
    assert tiles(ts)[1] == Tile(0, 3, 0, 4, 4, "phase2", (0, 0))


def test_bad_schedules_rejected():
    g = ArrayGeometry(4, 4, "attention")
    # Phase 3 indexes past TILE_PHASES.
    with pytest.raises(dataflow.ShapeError, match="degenerate tile 0: .* phase 3 "):
        TileSchedule(*[np.array([value], np.int64) for value in (0, 1, 0, 1, 1, 3, -1, -1)], 1, 1)
    compute = schedule([Tile(0, 1, 0, 1, 1, "compute", (0, 0))], 1, 1, {"d": 1, "n": 1, "t": 1})
    with pytest.raises(dataflow.ConfigError, match="unknown attention phase 'compute'"):
        attention_walk(compute, g)
    ts = plan_expert_tiles(4, 1, 2, 2, ArrayGeometry(4, 4, "expert"))
    with pytest.raises(dataflow.ShapeError, match="degenerate tile 0"):
        TileSchedule(ts.row_stop, ts.row_start, ts.col_start, ts.col_stop, ts.reduction, ts.phase, ts.head, ts.step, 2, 4)
    # An expert schedule whose meta cuts another number of tiles into experts.
    g1 = ArrayGeometry(1, 1, "expert")
    ts = plan_expert_tiles([2, 0, 3], 1, 2, 2, g1)
    with pytest.raises(dataflow.ShapeError, match="^the schedule has 4 tiles, its meta cuts 10 into experts$"):
        expert_walks(schedule(tiles(ts)[:4], ts.row_extent, ts.col_extent, ts.meta), g1, [0, 0, 0])
    # A group is two non-negative ints, or -1 in both columns for none.
    for head, step in [(-1, 0), (0, -1), (-2, 3), (-2, -2)]:
        columns = [np.array([value], np.int64) for value in (0, 1, 0, 1, 1, 1, head, step)]
        with pytest.raises(dataflow.ShapeError, match=rf"degenerate tile 0: .* group \({head}, {step}\)"):
            TileSchedule(*columns, 1, 1)


def test_words_are_exact_integer_ceilings():
    # Equal to math.ceil(bits / width) below 2**53; exact above, where the float quotient rounds.
    bits = [1, 127, 128, 129, 2**53 - 1, 2**53 + 1, 2**62 + 1]
    words = records_from_rows([(0, "act_lb", "read", b, "spike") for b in bits]).words(("u",)).tolist()
    assert words == [-(-b // 128) for b in bits]
    assert words == [width_words(b, level_width_bits("act_lb")) for b in bits]
    assert words[:5] == [math.ceil(b / 128) for b in bits[:5]]
    assert words[-1] != math.ceil(bits[-1] / 128)


def test_first_bad_record_is_named():
    rows = [(0, "act_glb", "read", 8, "spike"), (5, "act_lb", "read", 0, "spike"), (-1, "act_dram", "peek", 8, "spike")]
    with pytest.raises(dataflow.TraceError, match=r"^events must move at least one word .* at cycle 5 of unit\(s\) expert3\)$"):
        records_from_rows(rows).words(("expert3",))
    with pytest.raises(dataflow.TraceError, match=r"^trace references unknown level 'act_dram' \(record at cycle -1"):
        records_from_rows(rows[::2]).words(("expert3",))


def test_run_compare_and_trace_build_no_tiles(tmp_path, capsys):
    docs = {
        "moe": {"kind": "moe", "N": 24, "T": 2, "D_in": 16, "D_out": 40, "E": 5, "seed": 2,
                "hardware": {"expert_array": {"rows": 8, "cols": 6}, "routing_array": {"rows": 4, "cols": 2}}},
        "mha": {"kind": "mha", "N": 20, "T": 2, "H": 3, "d": 4, "seed": 2,
                "hardware": {"attention_array": {"rows": 6, "cols": 7}}},
    }
    for kind, doc in docs.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 0
        assert main(["compare", str(path)]) == 0
        trace = tmp_path / f"{kind}.csv"
        assert main(["run", str(path), "--trace", str(trace)]) == 0
        assert trace.read_bytes().count(b"\r\n") > 10
    capsys.readouterr()
