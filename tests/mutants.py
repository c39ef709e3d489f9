"""Hand mutants: the bounds and invariants the fast paths rely on, each with a test that bites.

Each row breaks one invariant with one exact edit: ``snippet``, which must
occur exactly once in ``path``, becomes ``replacement``.  Applied alone to a
copy of the repository, the edit must make every test in ``kills`` fail.
Tier-1 checks only that each snippet still occurs exactly once
(``tests/test_mutants.py``), so the table cannot silently go stale; the full
gate applies each mutant to a temporary copy and runs its tests, from the
repository root::

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 7        # rows 3 and 7 (0-based)
    python tests/mutants.py dataflow.py  # the rows whose path holds "dataflow.py"

It exits 1 if a mutant survives, that is if a listed test passes under it.
A change that mutation-tests its own code adds its rows here.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    invariant: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    kills: tuple[str, ...]  # pytest node ids that must fail under the mutant


_LIF = "tests/test_lif_kernel.py"
_SERIAL = "tests/test_runner.py::TestReportSerialization"
_GOLDEN = "tests/test_golden.py::test_every_artifact_matches_its_golden_hash"
_JSON_EQUALS_DUMPS = f"{_SERIAL}::test_json_bytes_are_json_dumps"
_CSV_EQUALS_DUMPS = f"{_SERIAL}::test_csv_bytes_are_csv_of_json_dumps"
_CORE_PER_UNIT = "tests/test_metamorphic.py::test_a_core_per_unit_takes_overhead_plus_slowest_unit"
_DOUBLED_POWER = "tests/test_metamorphic.py::test_doubled_level_power_doubles_that_level_energy"
_PORTS_LISTED = "tests/test_cli.py::TestErrorPaths::test_attention_plan_with_extract_ports_listed"
_DRAW = "tests/test_runner.py::TestChunkedDraw"
_LAYER = "tests/test_moe.py::TestExpertOrderedLayer::test_equals_the_per_expert_path"
_SCORES = "tests/test_moe.py::TestExpertScores"
_ROUTE = "tests/test_moe.py::TestRouteTopk"
_TABLE = "tests/test_moe.py::TestRoutingTableRecord"
_WALKS = "tests/test_walkers.py::test_expert_walks_match_the_reference_expert_by_expert"
_MATMUL = "tests/test_exact_kernels.py::TestExactMatmul"
_BANK_RESIDENCY = "tests/test_memory.py::TestCapacity::test_each_bank_holds_the_weight_blocks_its_experts_preload"
_LEVEL_ORDER = "tests/test_memory.py::TestCalibrationTables::test_price_table_lists_its_kinds_levels_in_order"
_DIGIT_FIELD = tuple(
    f"tests/test_dataflow.py::TestTraceWriter::test_digit_field_at_every_group_count[{case}]"
    for case in ("9-4", "10000-8", "100000000-12", "1000000000000-16", "9223372036854775807-20")
)
# The layer cases with more than one busy expert; with one, its slice is the whole buffer.
_LAYER_SPLIT = tuple(
    f"{_LAYER}[{case}]" for case in ("24-3-10-7-6-idle", "4-2-6-4-7-random", "29-1-12-9-5-random", "61-3-8-6-5-random")
)

MUTANTS = (
    Mutant(
        "the LIF kernel runs in int16 only when its bound is at most INT16_MAX",
        "src/spikesim/tensors.py",
        "if peak <= INT16_MAX:",
        "if peak <= INT16_MAX + 1:",
        tuple(
            f"{_LIF}::TestInt16Edge::test_upward_drive_at_the_edge[32768-{threshold}]"
            for threshold in ("1.0", "32766.5", "32767", "32767.5", "32768", "40000.0", "1e+300")
        ),
    ),
    Mutant(
        "lif_run's x_peak is the larger of -min and max of the integration",
        "src/spikesim/tensors.py",
        "x_peak = max(-int(x.data.min()), int(x.data.max())) if x.data.size else 0",
        "x_peak = int(x.data.max()) if x.data.size else 0",
        (
            f"{_LIF}::TestBoundEdge::test_int64_at_two_to_the_31",
            f"{_LIF}::TestBoundEdge::test_upward_drive_matches_references[2147483648]",
            f"{_LIF}::TestInt16Edge::test_downward_drive_to_minus_int16_max",
            f"{_LIF}::TestInt16Edge::test_peak_of_int16_min_data_is_two_to_the_15",
            f"{_LIF}::TestInt16Edge::test_downward_drive_past_int16_min_with_a_small_maximum",
        ),
    ),
    Mutant(
        "a token's ones are counted in a type that holds t * d_in",
        "src/spikesim/runner.py",
        "dtype=np.min_scalar_type(m.t * m.d_in))",
        "dtype=np.uint8)",
        (_GOLDEN, "tests/test_runner.py::TestFunctionalPath::test_expert_mac_ops_count_each_input_one"),
    ),
    Mutant(
        "the JSON emitter writes a float inline only when it is finite",
        "src/spikesim/runner.py",
        "elif cls is float and -_INF < item < _INF:\n                out.append(",
        "elif cls is float:\n                out.append(",
        (_JSON_EQUALS_DUMPS,),
    ),
    Mutant(
        "the CSV emitter writes a float inline only when it is finite",
        "src/spikesim/runner.py",
        "elif cls is float and -_INF < item < _INF:\n                rows.append(",
        "elif cls is float:\n                rows.append(",
        (_CSV_EQUALS_DUMPS,),
    ),
    Mutant(
        "the JSON emitter writes only an exact int inline, never a bool",
        "src/spikesim/runner.py",
        "if cls is int:\n                out.append(",
        "if isinstance(item, int):\n                out.append(",
        (_JSON_EQUALS_DUMPS, _GOLDEN, "tests/test_runner.py::TestRunPathWork::test_reports_skip_the_json_encoder"),
    ),
    Mutant(
        "the CSV emitter writes only an exact int inline, never a bool",
        "src/spikesim/runner.py",
        "if cls is int:\n                rows.append(",
        "if isinstance(item, int):\n                rows.append(",
        (_CSV_EQUALS_DUMPS, _GOLDEN),
    ),
    Mutant(
        "a CSV row holding a double quote goes through csv.writer",
        "src/spikesim/runner.py",
        """if "," in both or '"' in both or "\\r" in both or "\\n" in both:""",
        """if "," in both or "\\r" in both or "\\n" in both:""",
        (_CSV_EQUALS_DUMPS, _GOLDEN),
    ),
    Mutant(
        "CSV rows are sorted stably by path alone",
        "src/spikesim/runner.py",
        "rows.sort(key=itemgetter(0))",
        "rows.sort()",
        (_CSV_EQUALS_DUMPS,),
    ),
    Mutant(
        "the core count leaves the digest and the memory section unchanged",
        "src/spikesim/runner.py",
        "np.array([*out_bits, layer.s_out.data.size], np.int64),",
        "np.array([*out_bits, layer.s_out.data.size * plan.hardware.cores], np.int64),",
        tuple(f"tests/test_metamorphic.py::test_cores_leave_digest_and_memory_unchanged[{kind}]" for kind in ("moe", "mha")),
    ),
    Mutant(
        "the extract ports leave the digest and the memory section unchanged",
        "src/spikesim/dataflow.py",
        "bits[:, 12] = area\n",
        "bits[:, 12] = end - filled\n",
        ("tests/test_metamorphic.py::test_extract_ports_leave_digest_and_memory_unchanged[moe]",),
    ),
    Mutant(
        "utilization is 0.0 when cycles x processing elements is zero, not only when cycles are",
        "src/spikesim/dataflow.py",
        "mac_ops / capacity if capacity else 0.0",
        "mac_ops / capacity if cycles else 0.0",
        ("tests/test_dataflow.py::TestExpertParallelSchedule::test_empty_workloads",),
    ),
    Mutant(
        "every core counts the widest unit's processing elements",
        "src/spikesim/dataflow.py",
        "cores * max((w.pe_count for w in workloads), default=0),",
        "max((w.pe_count for w in workloads), default=0),",
        tuple(f"{_CORE_PER_UNIT}[{kind}]" for kind in ("moe", "mha")),
    ),
    Mutant(
        "a given router overhead replaces the kind's default, zero too",
        "src/spikesim/runner.py",
        "layer.overhead if overhead is None else overhead",
        "overhead or layer.overhead",
        (
            f"{_CORE_PER_UNIT}[moe]",
            "tests/test_runner.py::TestSystemComposition::test_router_overhead_override",
        ),
    ),
    Mutant(
        "an attention plan refuses a non-null extract_ports and takes null",
        "src/spikesim/runner.py",
        "if not model.EXTRACT_PORTS and hardware.extract_ports is not None:",
        "if not model.EXTRACT_PORTS and hardware.extract_ports is None:",
        (
            "tests/test_runner.py::TestParseWorkload::test_attention_plan_refuses_extract_ports",
            *(f"{_PORTS_LISTED}[{command}]" for command in ("run", "compare")),
            "tests/test_metamorphic.py::test_extract_ports_leave_digest_and_memory_unchanged[mha]",
        ),
    ),
    Mutant(
        "zero access power is +0.0, so no level reports -0.0 energy",
        "src/spikesim/memory.py",
        'object.__setattr__(self, "power_mw", 0.0)',
        'object.__setattr__(self, "power_mw", self.power_mw)',
        ("tests/test_cli.py::TestRunCommand::test_negative_zero_power_prices_and_echoes_as_zero",),
    ),
    Mutant(
        "each level is priced with its own calibrated access power",
        "src/spikesim/memory.py",
        "energy = words * spec.power_mw * spec.latency_ps",
        "energy = words * cal.aggregate.memory_access_power_mw * spec.latency_ps",
        tuple(f"{_DOUBLED_POWER}[{kind}]" for kind in ("moe", "mha")),
    ),
    Mutant(
        "a chunk of the spike draw ends at the draw's last element",
        "src/spikesim/runner.py",
        "hi = min(lo + _DRAW_CHUNK, size)",
        "hi = min(lo + _DRAW_CHUNK, size - 1)",
        (
            *(f"{_DRAW}::test_equals_one_draw_around_the_chunk[0.3-{size}]" for size in ("chunk+1", "3chunk+5")),
            f"{_DRAW}::test_equals_one_draw_one_past_the_real_chunk",
        ),
    ),
    Mutant(
        "the spike draw takes a chunk for every element, a last one-element chunk too",
        "src/spikesim/runner.py",
        "for lo in range(0, size, _DRAW_CHUNK):",
        "for lo in range(0, size - 1, _DRAW_CHUNK):",
        (f"{_DRAW}::test_equals_one_draw_around_the_chunk[0.3-chunk+1]", f"{_DRAW}::test_equals_one_draw_one_past_the_real_chunk"),
    ),
    Mutant(
        "the input draw is seeded by the plan's seed alone, never by its array geometry",
        "src/spikesim/runner.py",
        "rng = np.random.default_rng(plan.seed)\n        # Synthesis order is part",
        "rng = np.random.default_rng([plan.seed, hw.expert_rows])\n        # Synthesis order is part",
        ("tests/test_metamorphic.py::test_array_geometry_leaves_digest_unchanged[moe]",),
    ),
    Mutant(
        "an expert's accumulations count the ones of its input rows, not every position",
        "src/spikesim/runner.py",
        "ones = np.bincount(table.assignments, token_ones, m.experts)",
        "ones = np.bincount(table.assignments, None, m.experts) * (m.t * m.d_in)",
        ("tests/test_metamorphic.py::test_no_input_spikes_give_no_output_and_no_expert_work[moe]",),
    ),
    Mutant(
        "each expert's cycles start at 0, not where the previous expert's end",
        "src/spikesim/dataflow.py",
        "end = sums[0, 1:] - sums[0, bounds[:-1]][expert]",
        "end = sums[0, 1:]",
        (_WALKS, _GOLDEN),
    ),
    Mutant(
        "each expert's preload slots go on its own first tile",
        "src/spikesim/dataflow.py",
        "mask[:, :4] = first[:, None]",
        "mask[1:, :4] = False",
        (_WALKS, _GOLDEN),
    ),
    Mutant(
        "an expert's first tile streams its weight block in, even on the previous tile's rows",
        "src/spikesim/dataflow.py",
        "first[1:] |= (ts.row_start[1:] != ts.row_start[:-1])",
        "first[1:] = (ts.row_start[1:] != ts.row_start[:-1])",
        (_WALKS, _GOLDEN),  # golden plan moe_row_tile: its busy experts fit one row tile each
    ),
    Mutant(
        "an even expert reads its weights from weight GLB0, an odd one from weight GLB1",
        "src/spikesim/dataflow.py",
        "_EXPERT_BANKS[e % len(_EXPERT_BANKS)]",
        "_EXPERT_BANKS[(e + 1) % len(_EXPERT_BANKS)]",
        (_WALKS, _GOLDEN),
    ),
    Mutant(
        "each expert's accumulations count its own routed ones",
        "src/spikesim/dataflow.py",
        "int(ones[e]) * d_out",
        "int(ones[0]) * d_out",
        (_WALKS, _GOLDEN),
    ),
    Mutant(
        "the one pass cuts the records at each expert's kept-record count, not at every slot of its tiles",
        "src/spikesim/dataflow.py",
        "np.cumsum(mask.sum(axis=1), out=sums[2, 1:])",
        "np.cumsum(np.full(ts.tile_count, mask.shape[1]), out=sums[2, 1:])",
        (_WALKS, _GOLDEN),
    ),
    Mutant(
        "each expert integrates into its own slice of the layer's int16 buffer",
        "src/spikesim/moe.py",
        "out=x[lo:hi]",
        "out=x[:hi - lo]",
        _LAYER_SPLIT,
    ),
    Mutant(
        "the scatter un-permutes by the same order the gather permuted by",
        "src/spikesim/moe.py",
        "merged[table.order] = fired.data",
        "merged[np.sort(table.order)] = fired.data",
        _LAYER_SPLIT,
    ),
    Mutant(
        "the layer refuses k != 1 before it scores or integrates anything",
        "src/spikesim/moe.py",
        "if cfg.k != 1:",
        "if cfg.k > cfg.experts:",
        ("tests/test_moe.py::TestLayerConfig::test_k2_layer_refuses_before_any_work",),
    ),
    Mutant(
        "a score tie goes to the lower expert id: the first maximum, not the last",
        "src/spikesim/moe.py",
        "ids = scores.argmax(axis=1)",
        "ids = scores.shape[1] - 1 - scores[:, ::-1].argmax(axis=1)",
        (f"{_ROUTE}::test_tie_goes_to_lowest_id", f"{_ROUTE}::test_matches_sort_oracle"),
    ),
    Mutant(
        "the layer's order keeps each expert's tokens in ascending order, by a stable sort",
        "src/spikesim/moe.py",
        'order = np.argsort(ids, kind="stable")',
        "order = np.argsort(ids)",
        (f"{_TABLE}::test_order_is_stable_under_many_ties",),
    ),
    Mutant(
        "the offsets hold a slice for every expert, trailing idle ones too",
        "src/spikesim/moe.py",
        "np.bincount(ids, minlength=self.experts)",
        "np.bincount(ids)",
        (f"{_TABLE}::test_trailing_idle_experts_keep_their_empty_slices",),
    ),
    Mutant(
        "the routing table checks its scores against the int64 range before the cast",
        "src/spikesim/moe.py",
        '_check_integers(scores, -INT64_MAX - 1, INT64_MAX, "routing scores must be integers that fit in int64")',
        "pass",
        (f"{_SCORES}::test_values_outside_int64_refused_before_the_cast",),
    ),
    Mutant(
        "the score matrix stays writable, so argmax reads it in place instead of copying it",
        "src/spikesim/moe.py",
        "    return _exact_matmul(counts, w_r.w_r.data, 128 * s_in.t * w_r.d_in).astype(np.int64)",
        "    scores = _exact_matmul(counts, w_r.w_r.data, 128 * s_in.t * w_r.d_in).astype(np.int64)\n"
        "    scores.setflags(write=False)\n"
        "    return scores",
        (f"{_SCORES}::test_score_stage_holds_the_matrix_once", f"{_SCORES}::test_scores_are_a_writable_int64_matrix"),
    ),
    Mutant(
        "a token's routing spike counts are summed in a type that holds t",
        "src/spikesim/moe.py",
        "dtype=np.min_scalar_type(s_in.t))",
        "dtype=np.uint8)",
        ("tests/test_exact_kernels.py::TestInt16CastEdges::test_routing_counts[256-uint16]",),
    ),
    Mutant(
        "attention map entries are checked against the int32 range before the cast",
        "src/spikesim/mha.py",
        "min(self.d_head, np.iinfo(np.int32).max)",
        "self.d_head",
        ("tests/test_mha.py::TestAttentionMap::test_entries_above_int32_refused_before_the_cast",),
    ),
    Mutant(
        "capacity checks each kind against its own residency",
        "src/spikesim/memory.py",
        "WEIGHT_BUFFER), _required_bits_moe),\n    \"mha\": KindMemory((ACT_GLB, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER), _required_bits_mha)",
        "WEIGHT_BUFFER), _required_bits_mha),\n    \"mha\": KindMemory((ACT_GLB, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER), _required_bits_moe)",
        (
            "tests/test_memory.py::TestCapacity::test_default_moe_shape_fits",
            "tests/test_memory.py::TestCapacity::test_mha_shape",
            *(f"{_LEVEL_ORDER}[{kind}-{design}]" for kind in ("mha", "moe") for design in ("2d", "3d")),
            _GOLDEN,
        ),
    ),
    Mutant(
        "each weight bank holds the blocks of the experts the walks read from it, no more",
        "src/spikesim/memory.py",
        "len(range(b, e, len(WEIGHT_BANKS)))",
        "-(-e // len(WEIGHT_BANKS))",
        tuple(f"{_BANK_RESIDENCY}[{experts}]" for experts in (1, 3, 5)),
    ),
    Mutant(
        "a run checks capacity once, and every flavor's report carries that one verdict",
        "src/spikesim/runner.py",
        "mem=memory.mem_report(counts, cal, capacity),",
        "mem=memory.mem_report(counts, cal, memory.capacity_check(layer.shape, cal)),",
        tuple(f"tests/test_runner.py::TestSinglePassCompare::test_compare_checks_capacity_once[{kind}]" for kind in ("moe", "mha")),
    ),
    Mutant(
        "a plan or calibration file that gives a key twice in one object is refused, not read as its last value",
        "src/spikesim/memory.py",
        "        if key in doc:\n",
        "        if False:\n",
        (
            *(f"tests/test_cli.py::TestErrorPaths::test_repeated_plan_key_refused[{case}]" for case in ("model-key", "section")),
            "tests/test_cli.py::TestErrorPaths::test_calibration_file_with_a_repeated_key",
        ),
    ),
    Mutant(
        "a kindless calibration file ties to the kind with fewer levels, so a whole attention file reads as one",
        "src/spikesim/memory.py",
        "-len(KINDS[name].levels)))",
        "len(KINDS[name].levels)))",
        ("tests/test_memory.py::TestCalibrationSerialization::test_kind_inferred_from_levels",),
    ),
    Mutant(
        "a plan's kind is looked up by tuple membership, so a list or mapping kind is listed, not a TypeError",
        "src/spikesim/runner.py",
        "KINDS[kind] if kind in tuple(KINDS) else None",
        "KINDS[kind] if kind in KINDS else None",
        tuple(
            f"tests/test_runner.py::TestPlanSpellings::test_unhashable_kind_still_consumes_model_spellings[{case}]"
            for case in ("list", "mapping")
        ),
    ),
    Mutant(
        "a calibration's kind is looked up by tuple membership, so a list or mapping kind is listed, not a TypeError",
        "src/spikesim/memory.py",
        "if self.kind not in tuple(KINDS):",
        "if self.kind not in KINDS:",
        tuple(
            f"tests/test_memory.py::TestCalibrationSerialization::test_unknown_kind_listed[{case}]"
            for case in ("list", "mapping")
        ),
    ),
    Mutant(
        "a product runs in float32 only while its bound is below 2**24, where float32 holds every partial sum",
        "src/spikesim/tensors.py",
        "if bound < _F32_EXACT:",
        "if bound < _F32_EXACT + 2:",
        (f"{_MATMUL}::test_float64_keeps_the_integer_float32_would_round",),
    ),
    Mutant(
        "a product whose bound reaches 2**53 is refused, not run inexactly in float64",
        "src/spikesim/tensors.py",
        "elif bound < _F64_EXACT:",
        "elif bound < _F64_EXACT + 2:",
        (f"{_MATMUL}::test_refuses_past_float64",),
    ),
    Mutant(
        "the LIF kernel runs in int32 only when its bound is at most INT32_MAX",
        "src/spikesim/tensors.py",
        "wide = peak > INT32_MAX",
        "wide = peak > INT32_MAX + 1",
        (
            f"{_LIF}::TestBoundEdge::test_int64_at_two_to_the_31",
            f"{_LIF}::TestBoundEdge::test_upward_drive_matches_references[2147483648]",
        ),
    ),
    Mutant(
        "the LIF kernel refuses a step whose int64 candidate could pass INT64_MAX, one step past it too",
        "src/spikesim/tensors.py",
        "INT32_MAX + 1 + x_peak + abs(p.v_leak) > INT64_MAX:",
        "INT32_MAX + 1 + x_peak + abs(p.v_leak) > INT64_MAX + 1:",
        tuple(f"{_LIF}::TestOverflowParity::test_step_input_at_the_int64_edge[{leak}]" for leak in ("0", "-5")),
    ),
    Mutant(
        "an accumulator is cast to int16 without a clamp only when its whole range fits int16",
        "src/spikesim/tensors.py",
        "if INT16_MIN <= lo and hi <= INT16_MAX:",
        "if True:",
        (_GOLDEN, "tests/test_moe.py::TestExpertOrderedLayer::test_clamped_integrations_fire_as_the_dense_reference"),
    ),
    Mutant(
        "an adopted array is made read-only, so no carrier's data changes after it is built",
        "src/spikesim/tensors.py",
        "    data.setflags(write=False)\n    carrier.data = data",
        "    carrier.data = data",
        ("tests/test_tensors.py::TestCarrierOwnership::test_adopted_arrays_are_read_only",),
    ),
    Mutant(
        "the copy rule shifts a row's copies in int64, so repeat_timesteps' offsets past 2**31 stay exact",
        "src/spikesim/dataflow.py",
        "shift * np.arange(self.repeats, dtype=np.int64)",
        "shift * np.arange(self.repeats, dtype=np.int32)",
        tuple(
            f"tests/test_walkers.py::test_repeated_group_offsets_stay_exact_in_int64[{period}]"
            for period in (2**30 + 1, 2**47 // 7)
        ),
    ),
    Mutant(
        "the trace writer sorts the records stably on cycle, so a cycle's rows keep walk and emission order",
        "src/spikesim/dataflow.py",
        'order = cycle.argsort(kind="stable")',
        "order = cycle.argsort()",
        (
            "tests/test_dataflow.py::TestTraces::test_trace_equals_merge_traces",
            "tests/test_dataflow.py::TestTraceWriter::test_cycle_longer_than_two_chunks",
            _GOLDEN,
        ),
    ),
    Mutant(
        "a tail row's digit bytes are as many as a record's digits, 4 per digit group",
        "src/spikesim/dataflow.py",
        "blank = bytes(4 * groups)",
        "blank = bytes(4 * groups - 1)",
        _DIGIT_FIELD,
    ),
    Mutant(
        "each row's digits are its own record's, not those at its tail's index",
        "src/spikesim/dataflow.py",
        "lead[:n] = digits[rec]",
        "lead[:n] = digits[at]",
        _DIGIT_FIELD,
    ),
    Mutant(
        "the digit store steps one whole grid row per row",
        "src/spikesim/dataflow.py",
        "digits.dtype, grid, 0, (grid.shape[1],))",
        "digits.dtype, grid, 0, (grid.shape[1] - 1,))",
        _DIGIT_FIELD,
    ),
    Mutant(
        "a calibration level that still gives its geometry is refused key by key, not read with the keys ignored",
        "src/spikesim/memory.py",
        "_unknown_keys(entry, {name for name, _ in fields}, where)",
        '_unknown_keys(entry, {name for name, _ in fields} | {"words", "width_bits"}, where)',
        (
            "tests/test_cli.py::TestErrorPaths::test_calibration_geometry_override",
            "tests/test_memory.py::TestCalibrationSerialization::test_non_finite_duplicate_and_geometry_listed",
        ),
    ),
    Mutant(
        "extraction_cycle_count, the one extract ports check, refuses fewer than one port",
        "src/spikesim/dataflow.py",
        "if ports < 1:",
        "if ports < 0:",
        (
            "tests/test_walkers.py::test_zero_extract_ports_refused",
            "tests/test_dataflow.py::TestFillFormula::test_extraction_matches_stepped_drain",
        ),
    ),
    Mutant(
        "each built-in level takes its (latency_ps, power_mw) from the price table in that order",
        "src/spikesim/memory.py",
        "MemLevelSpec(level, *prices)",
        "MemLevelSpec(level, *prices[::-1])",
        (
            *(f"tests/test_memory.py::TestCalibrationTables::test_per_level_figures[{kind}-{design}]"
              for kind in ("mha", "moe") for design in ("2d", "3d")),
            _GOLDEN,
        ),
    ),
)


def _run(index: int, mutant: Mutant) -> bool:
    """Apply ``mutant`` to a fresh copy of the repository; True if every listed test fails."""
    with tempfile.TemporaryDirectory(prefix="spikesim-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*")
        )
        target = copy / mutant.path
        text = target.read_text()
        if text.count(mutant.snippet) != 1:
            print(f"[{index}] snippet does not occur exactly once in {mutant.path}")
            return False
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *mutant.kills],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    failed = set(re.findall(r"^FAILED (\S+)", proc.stdout, re.MULTILINE))
    survivors = [test for test in mutant.kills if test not in failed]
    print(f"[{index}] {'killed' if not survivors else 'SURVIVED'}: {mutant.invariant}")
    for test in survivors:
        print(f"      passed under the mutant: {test}")
    return not survivors


def select(args: list[str]) -> list[int]:
    """The rows ``args`` name, in order: a row number, or a path substring for every row of the files it matches.

    No argument names every row; a substring that matches no row's path is an error.
    """
    rows = []
    for arg in args:
        matched = [int(arg)] if arg.isdigit() else [i for i, mutant in enumerate(MUTANTS) if arg in mutant.path]
        if not matched:
            raise SystemExit(f"no mutant row's path holds {arg!r}")
        rows += matched
    return rows or list(range(len(MUTANTS)))


def main(argv: list[str]) -> int:
    rows = select(argv)
    start = time.perf_counter()
    killed = [_run(i, MUTANTS[i]) for i in rows]
    print(f"{sum(killed)} of {len(killed)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 0 if all(killed) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
