"""Cycle and memory-traffic model for the three systolic arrays.

Timing model
------------
All arrays are modeled with dense streaming: cycle counts depend only on the
tile shapes, never on spike values.  Sparsity shows up exclusively in the
accumulation-operation count (``mac_ops``) used for utilization and energy
accounting.

For a tile with reduction depth r occupying ``ru`` rows and ``cu`` columns of
the array:

* fill/skew cycles  = r + (ru - 1) + (cu - 1) + 1
* extraction cycles = ceil(ru * cu / extract_ports), ports default to the
  array row count (one vertical readout port per row)

The expert array (weights x spikes) and the routing score array both follow
this shape.  The attention array works in two phases per tile: phase 1 builds
a coincidence-map tile with reduction d and the fill/skew formula above; the
map then stays pinned in the processing-element registers while phase 2
streams d value columns through it, costing d + (ru - 1) + 1 cycles per
output block.  Because the map never leaves the registers, no memory traffic
is ever emitted for it.

Event model
-----------
Access events are emitted in level-width words.  Data movement between two
SRAM levels emits a read at the source and a write at the destination; a
stream into the array emits a read at the last buffer level; array output
emits a write.  Concretely, per expert run:

* weight path: weight GLB -> weight LB once per expert (the GLB bank
  alternates with the expert id), then weight LB -> weight buffer -> array
  once per row tile.  Weights are never reloaded per column tile; they are
  reused across tokens and timesteps inside the array.
* spike path: act GLB -> act LB once per expert (the routed token set), then
  act LB -> act buffer -> array per tile (spikes are re-streamed for every
  row tile).
* results: each tile's integration block is written to the staging buffer,
  read back by the spike generators, and the generated spikes land in the
  act LB.

The routing array loads its weight column once from weight GLB0 and reads
token spikes straight from the act GLB; score blocks are staged through the
act buffer toward the selection logic.  The attention array stages
query/key/value slabs GLB -> LB -> buffer per (head, timestep) and reads
operands from the buffer per tile; partial output blocks that span several
key tiles cost one extra read-modify-write on the staging buffer per extra
contribution.

Each array has one walker (``expert_walk``, ``routing_walk``,
``attention_walk``): a generator that yields ``(cycle, level, direction,
bits, tag)`` records in emission order and returns the run's cycle stats.
``simulate_*`` turn the records into ``AccessEvent`` lists.  A run folds the
records straight into per-level counts instead, so the merged trace is built
only when it is requested.  Attention heads run identical schedules, so a run
walks one head and counts it once per head; ``compare`` runs the pipeline
once and prices that one count set under both calibrations.

Trace merge
-----------
``merge_walks`` builds the merged trace without per-event objects.  It
drains each distinct walk once and validates each distinct record once,
with the checks ``AccessEvent`` and ``count_accesses`` make; units that
share a walk differ only in their unit name, so that is the same as checking
every copy.  The rows are then index arrays (cycle, unit rank, record) in
concatenation order: walks in order, the units of a walk in order, records
in emission order, which is the order ``merge_traces`` receives the
per-unit traces in.  The unit rank is the unit's position in sorted name
order (``attn10`` before ``attn2``), so one stable
``np.lexsort((unit_rank, cycle))`` gives exactly ``merge_traces``' stable
``(cycle, unit)`` sort.  ``write_trace_csv`` streams those rows out in
fixed-size chunks; ``MergedTrace.events`` gives the same rows as
``AccessEvent`` objects for library callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, TraceError
from .levels import (
    ACT_BUFFER,
    ACT_GLB,
    ACT_LB,
    LEVEL_GEOMETRY,
    WEIGHT_BUFFER,
    WEIGHT_GLB0,
    WEIGHT_LB,
    level_width_bits,
    level_words,
)

ARRAY_ROLES = ("expert", "routing", "attention")

TRACE_COLUMNS = ("cycle", "unit", "level", "direction", "words", "width_bits")

# Trace rows formatted and written per chunk, which bounds the text held at once.
TRACE_CHUNK_ROWS = 1 << 14


@dataclass(frozen=True)
class ArrayGeometry:
    """Physical processing-element grid and its role."""

    rows: int
    cols: int
    role: str

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"array must have positive extent, got {self.rows}x{self.cols}")
        if self.role not in ARRAY_ROLES:
            raise ConfigError(f"unknown array role {self.role!r}, expected one of {ARRAY_ROLES}")

    @property
    def pe_count(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class Tile:
    """One mapped block of work: output rows x output cols with a reduction depth."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    reduction: int
    phase: str
    group: tuple[int, int] | None = None  # (head, timestep) for attention tiles

    def __post_init__(self):
        if not (0 <= self.row_start < self.row_stop and 0 <= self.col_start < self.col_stop):
            raise ShapeError(f"degenerate tile rows [{self.row_start},{self.row_stop}) cols [{self.col_start},{self.col_stop})")
        if self.reduction < 1:
            raise ShapeError(f"tile reduction must be >= 1, got {self.reduction}")

    @property
    def rows_used(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols_used(self) -> int:
        return self.col_stop - self.col_start


@dataclass(frozen=True)
class TileSchedule:
    """Ordered tiles plus the iteration space they must cover per phase."""

    tiles: tuple[Tile, ...]
    row_extent: int
    col_extent: int
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check that per (group, phase) the tiles partition the iteration space."""
        buckets: dict[tuple, list[Tile]] = {}
        for tile in self.tiles:
            buckets.setdefault((tile.group, tile.phase), []).append(tile)
        for (group, phase), tiles in buckets.items():
            covered = 0
            spans = []
            for tile in tiles:
                if tile.row_stop > self.row_extent or tile.col_stop > self.col_extent:
                    raise ShapeError(f"tile exceeds iteration space in group {group} phase {phase}")
                spans.append((tile.row_start, tile.row_stop, tile.col_start, tile.col_stop))
                covered += tile.rows_used * tile.cols_used
            if covered != self.row_extent * self.col_extent:
                raise ShapeError(
                    f"group {group} phase {phase} covers {covered} cells, "
                    f"expected {self.row_extent * self.col_extent}"
                )
            spans.sort()
            for i in range(1, len(spans)):
                a, b = spans[i - 1], spans[i]
                if a[0] == b[0] and a[1] == b[1] and b[2] < a[3] and a[2] < b[3]:
                    raise ShapeError(f"overlapping tiles in group {group} phase {phase}")

    @property
    def tile_count(self) -> int:
        return len(self.tiles)


@dataclass(frozen=True)
class CycleStats:
    """Cycle and work accounting for one array run or a whole schedule."""

    total_cycles: int
    per_phase: dict
    tile_count: int
    mac_ops: int
    utilization: float
    extraction_cycles: int
    pe_count: int

    def __post_init__(self):
        if self.total_cycles < 0 or self.extraction_cycles < 0:
            raise ValueError("cycle counts cannot be negative")
        if not 0.0 <= self.utilization <= 1.0:
            raise ValueError(f"utilization must lie in [0, 1], got {self.utilization}")

    def to_dict(self) -> dict:
        return {
            "total_cycles": self.total_cycles,
            "per_phase": dict(sorted(self.per_phase.items())),
            "tile_count": self.tile_count,
            "mac_ops": self.mac_ops,
            "utilization": self.utilization,
            "extraction_cycles": self.extraction_cycles,
            "pe_count": self.pe_count,
        }


@dataclass(frozen=True)
class AccessEvent:
    """One memory access burst: ``words`` words of ``width_bits`` at ``level``."""

    cycle: int
    unit: str
    level: str
    direction: str  # "read" | "write"
    words: int
    width_bits: int
    tag: str = ""  # payload kind: weight | spike | integration | score

    def __post_init__(self):
        if self.cycle < 0:
            raise ValueError("event cycle cannot be negative")
        if self.direction not in ("read", "write"):
            raise ValueError(f"direction must be read or write, got {self.direction!r}")
        if self.words < 1 or self.width_bits < 1:
            raise ValueError("events must move at least one word of at least one bit")


@dataclass(frozen=True)
class SparsityStats:
    """Spike statistics of a streamed operand: set bits out of total bits."""

    ones: int
    total: int

    def __post_init__(self):
        if not 0 <= self.ones <= self.total:
            raise ValueError(f"need 0 <= ones <= total, got ones={self.ones} total={self.total}")

    @property
    def density(self) -> float:
        return self.ones / self.total if self.total else 0.0


def access_event(unit: str, record: tuple) -> AccessEvent:
    """The trace event of one walker record ``(cycle, level, direction, bits, tag)``."""
    cycle, level, direction, bits, tag = record
    return AccessEvent(cycle, unit, level, direction, level_words(bits, level), level_width_bits(level), tag)


def drain(walk) -> tuple[CycleStats | None, list[tuple]]:
    """Run a walker to its end: the CycleStats it returns and its records in emission order."""
    records = []
    while True:
        try:
            records.append(next(walk))
        except StopIteration as done:
            return done.value, records


def _checked_record(units: tuple, record: tuple) -> tuple:
    """A walker record as ``(level, direction, words, width_bits, tag)``.

    Raises TraceError on what ``AccessEvent`` or ``count_accesses`` would
    refuse: a negative cycle, a direction other than read or write, an
    unknown level, or a burst of no words or no bits.
    """
    cycle, level, direction, bits, tag = record
    problem = None
    if level not in LEVEL_GEOMETRY:
        problem = f"trace references unknown level {level!r}"
    elif cycle < 0:
        problem = "event cycle cannot be negative"
    elif direction not in ("read", "write"):
        problem = f"direction must be read or write, got {direction!r}"
    else:
        words, width = level_words(bits, level), level_width_bits(level)
        if words < 1 or width < 1:
            problem = "events must move at least one word of at least one bit"
    if problem:
        raise TraceError(f"{problem} (record at cycle {cycle} of unit(s) {', '.join(units)})")
    return level, direction, words, width, tag


@dataclass(frozen=True)
class MergedTrace:
    """The merged access trace as index arrays over its distinct records.

    Row ``i`` is an access at cycle ``cycle[i]`` by unit ``units[unit[i]]``
    carrying ``records[record[i]]`` = ``(level, direction, words,
    width_bits, tag)``; rows are in the (cycle, unit) order of
    ``merge_traces``.
    """

    units: tuple
    records: list
    cycle: np.ndarray
    unit: np.ndarray
    record: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    def events(self) -> list[AccessEvent]:
        """The rows as ``AccessEvent`` objects."""
        units, records = self.units, self.records
        rows = zip(self.cycle.tolist(), self.unit.tolist(), self.record.tolist())
        return [AccessEvent(cycle, units[unit], *records[rec]) for cycle, unit, rec in rows]


def merge_walks(walks) -> MergedTrace:
    """Merge ``(units, walker factory)`` pairs into one (cycle, unit)-ordered trace.

    Each walk is drained and its records validated once, however many units
    share it.
    """
    names = sorted({unit for units, _ in walks for unit in units})
    rank = {unit: i for i, unit in enumerate(names)}
    records: list[tuple] = []
    cycles, ranks, record_ids = [np.empty(0, np.int64)], [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for units, make_walk in walks:
        _, walked = drain(make_walk())
        first = len(records)
        records += [_checked_record(units, rec) for rec in walked]
        # Unit-major, record-minor: the order merge_traces concatenates them in.
        cycles.append(np.tile(np.fromiter((rec[0] for rec in walked), np.int64, len(walked)), len(units)))
        ranks.append(np.repeat(np.array([rank[unit] for unit in units], np.intp), len(walked)))
        record_ids.append(np.tile(np.arange(first, len(records), dtype=np.intp), len(units)))
    cycle, unit, record = (np.concatenate(parts) for parts in (cycles, ranks, record_ids))
    order = np.lexsort((unit, cycle))  # stable: ties keep concatenation order
    return MergedTrace(tuple(names), records, cycle[order], unit[order], record[order])


def fill_cycles(reduction: int, rows_used: int, cols_used: int) -> int:
    """Systolic fill/skew: reduction + (ru - 1) + (cu - 1) + 1."""
    return reduction + (rows_used - 1) + (cols_used - 1) + 1


def extraction_cycle_count(values: int, ports: int) -> int:
    if ports < 1:
        raise ConfigError(f"extract ports must be >= 1, got {ports}")
    return math.ceil(values / ports)


def _check_schedule_fits(ts: TileSchedule, g: ArrayGeometry) -> None:
    for tile in ts.tiles:
        if tile.rows_used > g.rows or tile.cols_used > g.cols:
            raise ConfigError(
                f"tile {tile.rows_used}x{tile.cols_used} does not fit the {g.rows}x{g.cols} array"
            )


def _stats(cycles: int, per_phase: dict, tiles: int, mac_ops: int, extraction: int, g: ArrayGeometry) -> CycleStats:
    utilization = mac_ops / (cycles * g.pe_count) if cycles else 0.0
    return CycleStats(cycles, per_phase, tiles, mac_ops, utilization, extraction, g.pe_count)


def plan_expert_tiles(n_e: int, t: int, d_in: int, d_out: int, g: ArrayGeometry) -> TileSchedule:
    """Tile one expert's workload onto the expert array.

    Columns enumerate the n_e * t token-timesteps, rows enumerate output
    features, and the reduction runs over d_in.  Row tiles are the outer loop
    so a weight block is loaded once and reused across every column tile.
    """
    if g.role != "expert":
        raise ConfigError(f"expected an expert-role array, got {g.role!r}")
    if n_e < 0 or t < 1 or d_in < 1 or d_out < 1:
        raise ConfigError(f"bad workload shape n_e={n_e} t={t} d_in={d_in} d_out={d_out}")
    col_extent = n_e * t
    meta = {"d_in": d_in, "t": t, "n_tokens": n_e, "d_out": d_out}
    if col_extent == 0:
        return TileSchedule((), 0, 0, meta)
    tiles = []
    for r0 in range(0, d_out, g.rows):
        r1 = min(r0 + g.rows, d_out)
        for c0 in range(0, col_extent, g.cols):
            c1 = min(c0 + g.cols, col_extent)
            tiles.append(Tile(r0, r1, c0, c1, d_in, "compute"))
    return TileSchedule(tuple(tiles), d_out, col_extent, meta)


def expert_walk(
    ts: TileSchedule, g: ArrayGeometry, sparsity: SparsityStats, extract_ports: int | None = None, weight_glb: str = WEIGHT_GLB0
):
    """Walk an expert tile schedule: yield its access records, return its CycleStats."""
    if g.role != "expert":
        raise ConfigError(f"expected an expert-role array, got {g.role!r}")
    _check_schedule_fits(ts, g)
    ports = g.rows if extract_ports is None else extract_ports
    if ports < 1:
        raise ConfigError(f"extract ports must be >= 1, got {ports}")
    if not ts.tiles:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g)

    d_in = ts.meta["d_in"]
    d_out = ts.row_extent
    # Preload: the expert's full weight block and its routed token set.
    yield (0, weight_glb, "read", d_in * d_out * 8, "weight")
    yield (0, WEIGHT_LB, "write", d_in * d_out * 8, "weight")
    yield (0, ACT_GLB, "read", ts.col_extent * d_in, "spike")
    yield (0, ACT_LB, "write", ts.col_extent * d_in, "spike")

    cycle = 0
    compute = 0
    extract_total = 0
    current_row_tile = None
    for tile in ts.tiles:
        ru, cu = tile.rows_used, tile.cols_used
        if (tile.row_start, tile.row_stop) != current_row_tile:
            # New row tile: stream its weight block in once.
            current_row_tile = (tile.row_start, tile.row_stop)
            wbits = ru * tile.reduction * 8
            yield (cycle, WEIGHT_LB, "read", wbits, "weight")
            yield (cycle, WEIGHT_BUFFER, "write", wbits, "weight")
            yield (cycle, WEIGHT_BUFFER, "read", wbits, "weight")
        sbits = cu * tile.reduction
        yield (cycle, ACT_LB, "read", sbits, "spike")
        yield (cycle, ACT_BUFFER, "write", sbits, "spike")
        yield (cycle, ACT_BUFFER, "read", sbits, "spike")

        fills = fill_cycles(tile.reduction, ru, cu)
        ext = extraction_cycle_count(ru * cu, ports)
        xbits = ru * cu * 16
        yield (cycle + fills, ACT_BUFFER, "write", xbits, "integration")
        yield (cycle + fills + ext, ACT_BUFFER, "read", xbits, "integration")
        yield (cycle + fills + ext, ACT_LB, "write", ru * cu, "spike")
        cycle += fills + ext
        compute += fills
        extract_total += ext

    per_phase = {"compute": compute, "extract": extract_total}
    return _stats(cycle, per_phase, ts.tile_count, sparsity.ones * d_out, extract_total, g)


def simulate_expert_array(
    ts: TileSchedule,
    g: ArrayGeometry,
    sparsity: SparsityStats,
    extract_ports: int | None = None,
    unit: str = "expert0",
    weight_glb: str = WEIGHT_GLB0,
) -> tuple[CycleStats, list[AccessEvent]]:
    """Walk an expert tile schedule, producing cycles and access events."""
    stats, records = drain(expert_walk(ts, g, sparsity, extract_ports, weight_glb))
    return stats, [access_event(unit, rec) for rec in records]


def routing_walk(n: int, t: int, d_in: int, e: int, g: ArrayGeometry, extract_ports: int | None = None):
    """Walk the routing array: yield its access records, return its CycleStats."""
    if g.role != "routing":
        raise ConfigError(f"expected a routing-role array, got {g.role!r}")
    if n < 0 or t < 1 or d_in < 1 or e < 1:
        raise ConfigError(f"bad routing shape n={n} t={t} d_in={d_in} e={e}")
    ports = g.rows if extract_ports is None else extract_ports
    if ports < 1:
        raise ConfigError(f"extract ports must be >= 1, got {ports}")
    if n == 0:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g)

    reduction = t * d_in
    yield (0, WEIGHT_GLB0, "read", d_in * e * 8, "weight")
    yield (0, WEIGHT_LB, "write", d_in * e * 8, "weight")

    cycle = 0
    compute = 0
    extract_total = 0
    tiles = 0
    mac_ops = 0
    for r0 in range(0, n, g.rows):
        r1 = min(r0 + g.rows, n)
        for c0 in range(0, e, g.cols):
            c1 = min(c0 + g.cols, e)
            ru, cu = r1 - r0, c1 - c0
            yield (cycle, WEIGHT_LB, "read", cu * d_in * 8, "weight")
            yield (cycle, ACT_GLB, "read", ru * reduction, "spike")
            fills = fill_cycles(reduction, ru, cu)
            ext = extraction_cycle_count(ru * cu, ports)
            yield (cycle + fills, ACT_BUFFER, "write", ru * cu * 16, "score")
            cycle += fills + ext
            compute += fills
            extract_total += ext
            tiles += 1
            mac_ops += ru * cu * reduction

    return _stats(cycle, {"compute": compute, "extract": extract_total}, tiles, mac_ops, extract_total, g)


def simulate_routing_array(
    n: int,
    t: int,
    d_in: int,
    e: int,
    g: ArrayGeometry,
    extract_ports: int | None = None,
    unit: str = "router",
) -> tuple[CycleStats, list[AccessEvent]]:
    """Score every token against every expert on the routing array.

    Rows tile the tokens, columns tile the experts, and the reduction runs
    over all t * d_in spike positions of a token (the routing weight column
    repeats every timestep).
    """
    stats, records = drain(routing_walk(n, t, d_in, e, g, extract_ports))
    return stats, [access_event(unit, rec) for rec in records]


def plan_attention_tiles(n: int, d: int, t: int, heads: int, g: ArrayGeometry) -> TileSchedule:
    """Tile coincidence-map blocks for every (head, timestep).

    Per (head, timestep) the n x n map is cut into row tiles (query tokens)
    and column tiles (key tokens).  Each map tile is immediately followed by
    its phase-2 tile, which streams the d value columns through the pinned
    map block; phase-2 reduction is the tile's key range.
    """
    if g.role != "attention":
        raise ConfigError(f"expected an attention-role array, got {g.role!r}")
    if n < 1 or d < 1 or t < 1 or heads < 1:
        raise ConfigError(f"bad attention shape n={n} d={d} t={t} heads={heads}")
    tiles = []
    for h in range(heads):
        for step in range(t):
            group = (h, step)
            for q0 in range(0, n, g.rows):
                q1 = min(q0 + g.rows, n)
                for k0 in range(0, n, g.cols):
                    k1 = min(k0 + g.cols, n)
                    tiles.append(Tile(q0, q1, k0, k1, d, "phase1", group))
                    tiles.append(Tile(q0, q1, k0, k1, k1 - k0, "phase2", group))
    meta = {"d": d, "n": n, "t": t, "heads": heads}
    return TileSchedule(tuple(tiles), n, n, meta)


def attention_walk(ts: TileSchedule, g: ArrayGeometry):
    """Walk an attention tile schedule: yield its access records, return its CycleStats.

    The coincidence map lives in processing-element registers between phase 1
    and phase 2, so no record ever moves map data through the memory levels.
    Output blocks that collect several key tiles pay one extra staging-buffer
    read per extra contribution (read-modify-write accumulation).
    """
    if g.role != "attention":
        raise ConfigError(f"expected an attention-role array, got {g.role!r}")
    _check_schedule_fits(ts, g)
    if not ts.tiles:
        return _stats(0, {"phase1": 0, "phase2": 0}, 0, 0, 0, g)

    d = ts.meta["d"]
    n = ts.meta["n"]
    t_steps = ts.meta["t"]
    key_tiles_per_row = math.ceil(n / g.cols)

    cycle = 0
    phase1 = 0
    phase2 = 0
    mac_ops = 0
    seen_heads: set[int] = set()
    seen_groups: set[tuple[int, int]] = set()
    contributions: dict[tuple, int] = {}
    for tile in ts.tiles:
        head, _step = tile.group
        if head not in seen_heads:
            # Head ingress: query/key/value slabs for all timesteps.
            seen_heads.add(head)
            qkv_bits = 3 * n * t_steps * d
            yield (cycle, ACT_GLB, "read", qkv_bits, "spike")
            yield (cycle, ACT_LB, "write", qkv_bits, "spike")
        if tile.group not in seen_groups:
            # Stage this timestep's operand slabs into the bottom-tier buffer.
            seen_groups.add(tile.group)
            step_bits = 3 * n * d
            yield (cycle, ACT_LB, "read", step_bits, "spike")
            yield (cycle, ACT_BUFFER, "write", step_bits, "spike")

        ru, cu = tile.rows_used, tile.cols_used
        if tile.phase == "phase1":
            yield (cycle, ACT_BUFFER, "read", ru * d, "spike")
            yield (cycle, ACT_BUFFER, "read", cu * d, "spike")
            fills = fill_cycles(tile.reduction, ru, cu)
            cycle += fills
            phase1 += fills
            mac_ops += ru * cu * d
        elif tile.phase == "phase2":
            yield (cycle, ACT_BUFFER, "read", cu * d, "spike")
            block = (tile.group, tile.row_start, tile.row_stop)
            ordinal = contributions.get(block, 0)
            xbits = ru * d * 16
            if ordinal > 0:
                yield (cycle, ACT_BUFFER, "read", xbits, "integration")
            cycles_here = d + (ru - 1) + 1
            yield (cycle + cycles_here, ACT_BUFFER, "write", xbits, "integration")
            contributions[block] = ordinal + 1
            if contributions[block] == key_tiles_per_row:
                # Block complete: the spike generators consume it.
                yield (cycle + cycles_here, ACT_BUFFER, "read", xbits, "integration")
                yield (cycle + cycles_here, ACT_LB, "write", ru * d, "spike")
            cycle += cycles_here
            phase2 += cycles_here
            mac_ops += ru * d * cu
        else:
            raise ConfigError(f"unknown attention phase {tile.phase!r}")

    return _stats(cycle, {"phase1": phase1, "phase2": phase2}, ts.tile_count, mac_ops, 0, g)


def simulate_attention_array(
    ts: TileSchedule,
    g: ArrayGeometry,
    unit: str = "attn0",
) -> tuple[CycleStats, list[AccessEvent]]:
    """Walk an attention tile schedule, producing cycles and access events."""
    stats, records = drain(attention_walk(ts, g))
    return stats, [access_event(unit, rec) for rec in records]


def expert_parallel_schedule(
    workloads: list[CycleStats], cores: int, router_overhead: int
) -> tuple[CycleStats, list[list[int]]]:
    """Longest-processing-time-first assignment of workloads onto cores.

    Workloads are placed in descending cycle order onto the currently
    least-loaded core (ties toward the lower core id).  System cycles are the
    router overhead plus the busiest core's load.
    """
    if cores < 1:
        raise ConfigError(f"core count must be >= 1, got {cores}")
    if router_overhead < 0:
        raise ConfigError(f"router overhead cannot be negative, got {router_overhead}")
    order = sorted(range(len(workloads)), key=lambda i: (-workloads[i].total_cycles, i))
    loads = [0] * cores
    assignment: list[list[int]] = [[] for _ in range(cores)]
    for i in order:
        core = min(range(cores), key=lambda c: (loads[c], c))
        assignment[core].append(i)
        loads[core] += workloads[i].total_cycles
    makespan = max(loads) if workloads else 0
    total = router_overhead + makespan
    mac_ops = sum(w.mac_ops for w in workloads)
    pe_unit = max((w.pe_count for w in workloads), default=0)
    capacity = total * cores * pe_unit
    utilization = mac_ops / capacity if capacity else 0.0
    stats = CycleStats(
        total_cycles=total,
        per_phase={"router": router_overhead, "compute": makespan},
        tile_count=sum(w.tile_count for w in workloads),
        mac_ops=mac_ops,
        utilization=utilization,
        extraction_cycles=sum(w.extraction_cycles for w in workloads),
        pe_count=cores * pe_unit,
    )
    return stats, assignment


def merge_traces(*traces: list[AccessEvent]) -> list[AccessEvent]:
    """Merge per-unit traces into one deterministic (cycle, unit) ordering."""
    merged = [ev for trace in traces for ev in trace]
    merged.sort(key=lambda ev: (ev.cycle, ev.unit))
    return merged


def write_trace_csv(trace: MergedTrace, path: str) -> None:
    """Write a merged trace as CSV, streamed in chunks of ``TRACE_CHUNK_ROWS`` rows.

    The bytes are those ``csv.writer`` writes in its default dialect: unit,
    level and direction names are fixed identifiers and every other field is
    an integer, so no field ever needs quoting, and lines end in ``\\r\\n``.
    Each line is ``cycle,unit`` plus a suffix formatted once per distinct
    record.
    """
    units = np.array(trace.units, dtype=object)
    suffixes = np.array(
        [f",{level},{direction},{words},{width}\r\n" for level, direction, words, width, _tag in trace.records],
        dtype=object,
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, len(trace), TRACE_CHUNK_ROWS):
            rows = slice(start, start + TRACE_CHUNK_ROWS)
            lines = zip(trace.cycle[rows].tolist(), units[trace.unit[rows]].tolist(), suffixes[trace.record[rows]].tolist())
            fh.write("".join([f"{cycle},{unit}{suffix}" for cycle, unit, suffix in lines]))
