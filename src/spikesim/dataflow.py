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

Each array has one walker (``expert_walks``, ``routing_walk``,
``attention_walk``).  It returns a run's cycle stats and its access records
as ``Records``: int64 columns ``cycle``, ``kind`` and ``bits`` in emission
order, where ``kind`` indexes a small tuple of distinct ``(level,
direction, tag)``.  A ``TileSchedule`` likewise holds its tiles as int64
columns.  ``expert_walks`` walks all experts of a layer in one pass and
returns one run per expert; ``expert_walk`` is its one-expert case.

A walker computes the whole tile grid at once.  The per-tile body is a
fixed template of record slots, in the order the body emits them: attention
has 9 (head ingress x2, group staging x2, operand read, second operand read
or read-modify-write read, integration write, completion read, LB write),
the expert array 4 preload slots then 9 body slots, the routing array 2
then 3.  Preload records precede everything else exactly once, so they are
leading slots kept on the first tile only (of each expert).  A slot's
condition and values depend only on its tile and on a prefix of the tiles
before it, which numpy computes for every tile at once: start cycles
are an exclusive cumulative sum of tile costs, "first tile of a head or
group" is a first occurrence, "new row tile" is a compare with the previous
tile, and a phase-2 tile's contribution ordinal is its rank among the
earlier tiles of its output block after one stable sort.  Filling a
(tiles x slots) grid and flattening it tile-major and slot-minor under the
slots' conditions therefore lists exactly the records a per-tile loop emits,
in the same order.

``simulate_*`` turn the records into ``AccessEvent`` lists.  A run folds the
same ``(units, Records)`` walks that ``write_trace_csv`` merges straight into
the report's per-level table instead (``memory.count_walks``), so the merged
trace is built only when it is written.  The writer fills fixed-width,
NUL-padded rows a chunk at a time, by one take of whole rows from a table of
formatted tails and one store of each row's cycle digits, and writes the
rows' non-NUL bytes.  Attention heads run identical schedules, and so do a
head's timesteps, so a run walks one (head, timestep) group, repeats it over
the timesteps (``repeat_timesteps``) and counts it once per head; ``compare``
runs the pipeline once and prices that one table under both calibrations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import ConfigError, ShapeError, TraceError
from .levels import (
    ACT_BUFFER,
    ACT_GLB,
    ACT_LB,
    LEVEL_GEOMETRY,
    WEIGHT_BANKS,
    WEIGHT_BUFFER,
    WEIGHT_GLB0,
    WEIGHT_LB,
    level_width_bits,
    width_words,
)

ARRAY_ROLES = ("expert", "routing", "attention")

# The phases a tile can run in; a TileSchedule's phase column indexes this tuple.
TILE_PHASES = ("compute", "phase1", "phase2")
_PHASE1, _PHASE2 = TILE_PHASES.index("phase1"), TILE_PHASES.index("phase2")

TRACE_COLUMNS = ("cycle", "unit", "level", "direction", "words", "width_bits")

# Trace rows formatted and written per chunk, which bounds the bytes held at once.
TRACE_CHUNK_ROWS = 1 << 13

# NUL pads the writer's grid; csv.writer would quote a field holding any of the others.
_UNPLAIN = '\0,"\r\n'

# The last digit group of cycle 0: "0" after three NUL.
_ZERO_GROUP = np.frombuffer(b"\0\0\x000", "<u4")[0]


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


@dataclass(frozen=True, eq=False)
class TileSchedule:
    """Ordered tiles as int64 columns over a ``row_extent`` x ``col_extent`` space.

    The ``i``-th tile covers rows ``[row_start[i], row_stop[i])`` and columns
    ``[col_start[i], col_stop[i])`` with reduction depth ``reduction[i]`` in
    phase ``TILE_PHASES[phase[i]]``; ``head[i]`` and ``step[i]`` name its
    (head, timestep) group, -1 for none.  ``meta`` holds the workload
    dimensions the walkers read.
    """

    row_start: np.ndarray
    row_stop: np.ndarray
    col_start: np.ndarray
    col_stop: np.ndarray
    reduction: np.ndarray
    phase: np.ndarray
    head: np.ndarray
    step: np.ndarray
    row_extent: int
    col_extent: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        # Each tile is a non-empty block in the non-negative quadrant with a
        # positive reduction and a known phase.
        ok = (0 <= self.row_start) & (self.row_start < self.row_stop) & (0 <= self.col_start)
        ok &= (self.col_start < self.col_stop) & (self.reduction >= 1)
        ok &= (0 <= self.phase) & (self.phase < len(TILE_PHASES))
        # A (head, timestep) group is two non-negative ints; -1 in both is none.
        ok &= ((self.head == -1) & (self.step == -1)) | ((self.head >= 0) & (self.step >= 0))
        if not ok.all():
            i = int(np.argmin(ok))
            raise ShapeError(
                f"degenerate tile {i}: rows [{self.row_start[i]},{self.row_stop[i]}) "
                f"cols [{self.col_start[i]},{self.col_stop[i]}) reduction {self.reduction[i]} phase {self.phase[i]} "
                f"group ({self.head[i]}, {self.step[i]})"
            )

    @property
    def tile_count(self) -> int:
        return len(self.row_start)

    @property
    def rows_used(self) -> np.ndarray:
        return self.row_stop - self.row_start

    @property
    def cols_used(self) -> np.ndarray:
        return self.col_stop - self.col_start


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


@dataclass(frozen=True, eq=False)
class Records:
    """A walk's access records as int64 columns, in emission order.

    Row ``i`` moves ``bits[i]`` bits at cycle ``cycle[i]``; its level,
    direction and payload tag are ``kinds[kind[i]]``.  Every row recurs
    ``repeats`` times (1 by default), copy ``r`` shifted by ``r * period``
    cycles (``period`` >= 0): a walk of ``repeats`` identical groups keeps
    one group.  ``recur`` lays a per-row column out over every record, and
    ``expand`` gives the walk one row per record.
    """

    kinds: tuple  # distinct (level, direction, tag)
    cycle: np.ndarray
    kind: np.ndarray
    bits: np.ndarray
    repeats: int = 1
    period: int = 0

    def __len__(self) -> int:
        """The number of records, every copy of a row counted."""
        return self.repeats * len(self.cycle)

    def recur(self, column: np.ndarray, shift: int = 0) -> np.ndarray:
        """Per-row ``column`` per record: copy ``r`` of the rows' values plus ``r * shift``."""
        if self.repeats == 1:
            return column
        return (column + shift * np.arange(self.repeats, dtype=np.int64)[:, None]).ravel()

    def expand(self) -> Records:
        """The same records, one row each."""
        if self.repeats == 1:
            return self
        return Records(self.kinds, self.recur(self.cycle, self.period), self.recur(self.kind), self.recur(self.bits))

    def words(self, units) -> np.ndarray:
        """Words each row moves at its level's width, after checking every record.

        Raises TraceError on a record whose kind is not an index into
        ``kinds``, that names a level outside ``LEVEL_GEOMETRY`` or that
        ``AccessEvent`` would refuse: a negative cycle, a direction other than
        read or write, or a burst of no words.  Each distinct kind is checked
        once; the error names the first bad record's cycle and ``units``.  A
        row's copies move the same words at cycles no earlier than its own,
        so checking the rows checks every record.
        """
        # Width 0 marks an unknown level or direction, or a stray kind (clipped onto an appended 0); 1+ bits: 1+ words.
        table = [LEVEL_GEOMETRY.get(lv, (0, 0))[1] * (d in ("read", "write")) for lv, d, _ in self.kinds]
        stray = len(self.kind) and not 0 <= self.kind.min() <= self.kind.max() < len(table)
        width = np.array(table + [0], dtype=np.int64)[self.kind.clip(-1, len(table)) if stray else self.kind]
        if stray or len(width) and (0 in table and width.min() == 0 or self.cycle.min() < 0 or self.bits.min() < 1):
            i = int(np.argmax((width == 0) | (self.cycle < 0) | (self.bits < 1)))
            cycle, kind = int(self.cycle[i]), int(self.kind[i])
            if not 0 <= kind < len(table):
                problem = f"record kind {kind} is not an index into the walk's {len(table)} kinds"
            elif (level := self.kinds[kind][0]) not in LEVEL_GEOMETRY:
                problem = f"trace references unknown level {level!r}"
            elif cycle < 0:
                problem = "event cycle cannot be negative"
            elif (direction := self.kinds[kind][1]) not in ("read", "write"):
                problem = f"direction must be read or write, got {direction!r}"
            else:
                problem = "events must move at least one word of at least one bit"
            raise TraceError(f"{problem} (record at cycle {cycle} of unit(s) {', '.join(units)})")
        return width_words(self.bits, width)

    def events(self, unit: str) -> list[AccessEvent]:
        """The records as ``unit``'s ``AccessEvent`` list."""
        full = self.expand()
        words = full.words((unit,)).tolist()
        kinds = [(level, direction, level_width_bits(level), tag) for level, direction, tag in full.kinds]
        return [
            AccessEvent(cycle, unit, kinds[k][0], kinds[k][1], w, kinds[k][2], kinds[k][3])
            for cycle, k, w in zip(full.cycle.tolist(), full.kind.tolist(), words)
        ]


def fill_cycles(reduction, rows_used, cols_used):
    """Systolic fill/skew: reduction + (ru - 1) + (cu - 1) + 1, per tile for arrays."""
    return reduction + (rows_used - 1) + (cols_used - 1) + 1


def extraction_cycle_count(values, ports: int):
    """ceil(values / ports): cycles to drain ``values`` results, an int or an int array.

    Ports beyond the largest value drain everything in one cycle, so they are
    capped there, which keeps an oversized port count out of int64.
    """
    if ports < 1:
        raise ConfigError(f"extract ports must be >= 1, got {ports}")
    return -(-values // min(ports, int(np.max(values, initial=1))))


def _grid(tile: np.ndarray, row_extent: int, row_step: int, col_extent, col_step: int) -> tuple[np.ndarray, ...]:
    """Start and stop columns of the tiles numbered ``tile`` in the row-major grid of ``row_step`` x
    ``col_step`` tiles over [0, row_extent) x [0, col_extent), ``col_extent`` an int or one per tile."""
    # A step beyond the extent gives the same single tile and stays in int64.
    row_step, col_step = min(row_step, row_extent), min(col_step, int(np.max(col_extent, initial=1)))
    row, col = np.divmod(tile, -(-col_extent // col_step))
    row_start, col_start = row * row_step, col * col_step
    return row_start, np.minimum(row_start + row_step, row_extent), col_start, np.minimum(col_start + col_step, col_extent)


def _first_occurrences(key: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key no earlier entry has."""
    first = np.zeros(len(key), dtype=bool)
    first[np.unique(key, return_index=True)[1]] = True
    return first


def _check_fits(rows: np.ndarray, cols: np.ndarray, g: ArrayGeometry) -> None:
    """Refuse a schedule with a tile of ``rows`` x ``cols`` beyond the array."""
    if len(rows) and (rows.max() > g.rows or cols.max() > g.cols):
        i = int(np.argmax((rows > g.rows) | (cols > g.cols)))
        raise ConfigError(f"tile {rows[i]}x{cols[i]} does not fit the {g.rows}x{g.cols} array")


def _stats(cycles: int, per_phase: dict, tiles: int, mac_ops: int, extraction: int, pe_count: int) -> CycleStats:
    capacity = cycles * pe_count
    return CycleStats(cycles, per_phase, tiles, mac_ops, mac_ops / capacity if capacity else 0.0, extraction, pe_count)


def _slot_grid(tiles: int, slots: np.ndarray, preload: int = 0) -> tuple[np.ndarray, ...]:
    """Cycle, bits, kind and mask grids for ``tiles`` x ``len(slots)`` records.

    Slot ``j`` of every tile has kind ``slots[j]``.  The first ``preload``
    slots are kept on the first tile only, every other slot on every tile
    until the walker masks it; cycles and bits are left for the walker.
    """
    shape = (tiles, len(slots))
    kind = np.empty(shape, np.int64)
    kind[:] = slots
    mask = np.ones(shape, dtype=bool)
    mask[1:, :preload] = False
    return np.empty(shape, np.int64), np.empty(shape, np.int64), kind, mask


def plan_expert_tiles(n_e, t: int, d_in: int, d_out: int, g: ArrayGeometry) -> TileSchedule:
    """Cut an expert's workload, or each expert's of a layer in expert order, into tiles on the expert array.

    ``n_e`` is a token count, or one per expert; ``meta["tiles"]`` holds each
    expert's tile count.  Columns enumerate an expert's n_e * t token-timesteps,
    rows its output features, and the reduction runs over d_in.  Row tiles are
    the outer loop so a weight block is loaded once and reused across every column tile.
    """
    if g.role != "expert":
        raise ConfigError(f"expected an expert-role array, got {g.role!r}")
    counts = np.asarray(n_e, np.int64).reshape(-1)
    listed = counts.tolist()
    if min(listed, default=0) < 0 or t < 1 or d_in < 1 or d_out < 1:
        raise ConfigError(f"bad workload shape n_e={n_e} t={t} d_in={d_in} d_out={d_out}")
    cols, widest = counts * t, max(listed, default=0) * t
    col_step = min(g.cols, max(widest, 1))
    tiles = -(-d_out // min(g.rows, d_out)) * -(-cols // col_step)
    expert = np.repeat(np.arange(len(tiles)), tiles)
    grid = _grid(np.arange(len(expert)) - (tiles.cumsum() - tiles)[expert], d_out, g.rows, cols[expert], col_step)
    reduction, compute, no_group = (np.full(len(expert), v, np.int64) for v in (d_in, TILE_PHASES.index("compute"), -1))
    meta = {"d_in": d_in, "t": t, "n_tokens": n_e, "d_out": d_out, "tiles": tiles}
    return TileSchedule(*grid, reduction, compute, no_group, no_group, d_out, widest, meta)


# Expert walk: the 13 slots of a tile.  Slots 0-3 preload the expert's
# weight block (kind 0 reads expert e's bank of ``WEIGHT_BANKS``, in
# ``_EXPERT_BANKS``) and its routed token set, and are kept on its first
# tile only; slots 4-12 are a tile's body.
_EXPERT_KINDS = (
    (WEIGHT_LB, "write", "weight"),
    (ACT_GLB, "read", "spike"),
    (ACT_LB, "write", "spike"),
    (WEIGHT_LB, "read", "weight"),
    (WEIGHT_BUFFER, "write", "weight"),
    (WEIGHT_BUFFER, "read", "weight"),
    (ACT_LB, "read", "spike"),
    (ACT_BUFFER, "write", "spike"),
    (ACT_BUFFER, "read", "spike"),
    (ACT_BUFFER, "write", "integration"),
    (ACT_BUFFER, "read", "integration"),
)
_EXPERT_SLOTS = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3], dtype=np.int64)
_EXPERT_BANKS = tuple(((bank, "read", "weight"), *_EXPERT_KINDS) for bank in WEIGHT_BANKS)


def expert_walks(ts: TileSchedule, g: ArrayGeometry, ones, extract_ports: int | None = None) -> list[tuple]:
    """Walk every expert of a ``plan_expert_tiles`` schedule in one pass: a (CycleStats, Records) each.

    ``ts.meta["tiles"]`` cuts the tiles into the experts' runs, and
    ``ones[e]`` counts the set bits of expert e's routed tokens.  Expert e
    walks as if alone: from cycle 0, its preloads and a new row tile on its
    first tile, its weights from its bank in ``WEIGHT_BANKS``.  Exactness: a plan
    under ``MAX_PLAN_BYTES`` has under 2**22 tiles (352 bytes each) and d_in,
    d_out, n * t below 2**30, so a tile costs under 2**32 cycles and the one
    cumulative sum over all tiles, which every expert's cycles come from,
    stays below 2**54 in int64.
    """
    if g.role != "expert":
        raise ConfigError(f"expected an expert-role array, got {g.role!r}")
    ru, cu = ts.rows_used, ts.cols_used
    _check_fits(ru, cu, g)
    ports = g.rows if extract_ports is None else extract_ports
    tiles, d_in, d_out = ts.meta["tiles"], ts.meta["d_in"], ts.row_extent
    bounds = np.concatenate(([0], tiles.cumsum()))
    if bounds[-1] != ts.tile_count:
        raise ShapeError(f"the schedule has {ts.tile_count} tiles, its meta cuts {bounds[-1]} into experts")
    expert = np.repeat(np.arange(len(tiles)), tiles)
    # Each expert's first tile; an idle expert's bound is the next one's first tile, or the end.
    first = np.bincount(bounds, minlength=ts.tile_count + 1)[:-1] > 0
    reduction, area = ts.reduction, ru * cu
    fills = fill_cycles(reduction, ru, cu)
    # One call caps the ports at the layer's largest tile area, not each
    # expert's; ceil(v / min(p, M)) is ceil(v / p) for p < v and 1 otherwise,
    # for any M >= v, so each tile drains as in a walk of its expert alone.
    ext = extraction_cycle_count(area, ports)
    # Running sums over all tiles of cycles, compute cycles and kept records; an expert's share spans its bounds.
    sums, cost = np.zeros((3, ts.tile_count + 1), np.int64), fills + ext
    np.cumsum(cost, out=sums[0, 1:])
    np.cumsum(fills, out=sums[1, 1:])
    end = sums[0, 1:] - sums[0, bounds[:-1]][expert]
    start = end - cost

    cycle, bits, kind, mask = _slot_grid(ts.tile_count, _EXPERT_SLOTS)
    cycle[:, :10] = start[:, None]
    cycle[:, 10] = start + fills
    cycle[:, 11:] = end[:, None]
    bits[:, :2] = d_in * d_out * 8
    bits[:, 2:4] = np.repeat(np.reshape(ts.meta["n_tokens"], -1) * (ts.meta["t"] * d_in), tiles)[:, None]
    bits[:, 4:7] = (ru * reduction * 8)[:, None]
    bits[:, 7:10] = (cu * reduction)[:, None]
    bits[:, 10:12] = (area * 16)[:, None]
    bits[:, 12] = area
    mask[:, :4] = first[:, None]
    # A new row tile, or an expert's first, streams its weight block in once.
    first[1:] |= (ts.row_start[1:] != ts.row_start[:-1]) | (ts.row_stop[1:] != ts.row_stop[:-1])
    mask[:, 4:7] = first[:, None]

    np.cumsum(mask.sum(axis=1), out=sums[2, 1:])
    at = sums[:, bounds].T.tolist()
    cycle, kind, bits = cycle[mask], kind[mask], bits[mask]
    walks = []
    for e, (n_tiles, (t0, c0, lo), (t1, c1, hi)) in enumerate(zip(tiles.tolist(), at, at[1:])):
        compute, extract = c1 - c0, t1 - t0 - (c1 - c0)
        per_phase = {"compute": compute, "extract": extract}
        stats = _stats(t1 - t0, per_phase, n_tiles, int(ones[e]) * d_out, extract, g.pe_count)
        walks.append((stats, Records(_EXPERT_BANKS[e % len(_EXPERT_BANKS)], cycle[lo:hi], kind[lo:hi], bits[lo:hi])))
    return walks


def expert_walk(
    ts: TileSchedule, g: ArrayGeometry, sparsity: SparsityStats, extract_ports: int | None = None, weight_glb: str = WEIGHT_GLB0
) -> tuple[CycleStats, Records]:
    """Walk one expert's tile schedule: its CycleStats and its access records, its weights read from ``weight_glb``."""
    [(stats, records)] = expert_walks(ts, g, [sparsity.ones], extract_ports)
    return stats, Records(((weight_glb, "read", "weight"), *_EXPERT_KINDS), records.cycle, records.kind, records.bits)


def simulate_expert_array(
    ts: TileSchedule,
    g: ArrayGeometry,
    sparsity: SparsityStats,
    extract_ports: int | None = None,
    unit: str = "expert0",
    weight_glb: str = WEIGHT_GLB0,
) -> tuple[CycleStats, list[AccessEvent]]:
    """Walk an expert tile schedule, producing cycles and access events."""
    stats, records = expert_walk(ts, g, sparsity, extract_ports, weight_glb)
    return stats, records.events(unit)


# Routing walk: the 5 slots of a tile.  Slots 0-1 load the routing weight
# column, on the first tile only; slots 2-4 are a tile's body.
_ROUTING_KINDS = (
    (WEIGHT_GLB0, "read", "weight"),
    (WEIGHT_LB, "write", "weight"),
    (WEIGHT_LB, "read", "weight"),
    (ACT_GLB, "read", "spike"),
    (ACT_BUFFER, "write", "score"),
)
_ROUTING_SLOTS = np.arange(len(_ROUTING_KINDS), dtype=np.int64)


def routing_walk(
    n: int, t: int, d_in: int, e: int, g: ArrayGeometry, extract_ports: int | None = None
) -> tuple[CycleStats, Records]:
    """Walk the routing array: its CycleStats and its access records."""
    if g.role != "routing":
        raise ConfigError(f"expected a routing-role array, got {g.role!r}")
    if n < 0 or t < 1 or d_in < 1 or e < 1:
        raise ConfigError(f"bad routing shape n={n} t={t} d_in={d_in} e={e}")
    ports = g.rows if extract_ports is None else extract_ports
    reduction = t * d_in
    count = -(-n // g.rows) * -(-e // g.cols)
    row_start, row_stop, col_start, col_stop = _grid(np.arange(count, dtype=np.int64), n, g.rows, e, g.cols)
    ru, cu = row_stop - row_start, col_stop - col_start
    area = ru * cu
    # Tiles run back to back, each filling and then draining through the ports.
    fills, ext = fill_cycles(reduction, ru, cu), extraction_cycle_count(area, ports)
    start = np.cumsum(fills + ext) - fills - ext
    compute, extract = int(fills.sum()), int(ext.sum())
    per_phase = {"compute": compute, "extract": extract}
    stats = _stats(compute + extract, per_phase, count, int(area.sum()) * reduction, extract, g.pe_count)

    cycle, bits, kind, mask = _slot_grid(count, _ROUTING_SLOTS, preload=2)
    cycle[:, :4] = start[:, None]
    cycle[:, 4] = start + fills
    bits[:, :2] = d_in * e * 8
    bits[:, 2] = cu * d_in * 8
    bits[:, 3] = ru * reduction
    bits[:, 4] = area * 16
    return stats, Records(_ROUTING_KINDS, cycle[mask], kind[mask], bits[mask])


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
    stats, records = routing_walk(n, t, d_in, e, g, extract_ports)
    return stats, records.events(unit)


def plan_attention_tiles(n: int, d: int, t: int, heads: int, g: ArrayGeometry) -> TileSchedule:
    """Cut the coincidence maps of every (head, timestep) into tiles.

    Per (head, timestep) the n x n map is cut into row tiles (query tokens)
    and column tiles (key tokens).  Each map tile is immediately followed by
    its phase-2 tile, which streams the d value columns through the pinned
    map block; phase-2 reduction is the tile's key range.
    """
    if g.role != "attention":
        raise ConfigError(f"expected an attention-role array, got {g.role!r}")
    if n < 1 or d < 1 or t < 1 or heads < 1:
        raise ConfigError(f"bad attention shape n={n} d={d} t={t} heads={heads}")
    # Groups in (head, timestep) order; per group, each map tile twice.
    per_group = 2 * -(-n // g.rows) * -(-n // g.cols)
    group, within = np.divmod(np.arange(heads * t * per_group, dtype=np.int64), per_group)
    tile, second = np.divmod(within, 2)
    row_start, row_stop, col_start, col_stop = _grid(tile, n, g.rows, n, g.cols)
    phase = np.where(second == 0, _PHASE1, _PHASE2)
    reduction = np.where(second == 0, d, col_stop - col_start)
    head, step = np.divmod(group, t)
    meta = {"d": d, "n": n, "t": t, "heads": heads}
    return TileSchedule(row_start, row_stop, col_start, col_stop, reduction, phase, head, step, n, n, meta)


# Attention walk: the 9 slots of a tile's body.  Slots 0-1 are a head's
# ingress, kept on its first tile only.  Slot 5 is phase 1's second operand
# read (kind 4) or phase 2's read-modify-write read (kind 5).
_ATTENTION_KINDS = (
    (ACT_GLB, "read", "spike"),
    (ACT_LB, "write", "spike"),
    (ACT_LB, "read", "spike"),
    (ACT_BUFFER, "write", "spike"),
    (ACT_BUFFER, "read", "spike"),
    (ACT_BUFFER, "read", "integration"),
    (ACT_BUFFER, "write", "integration"),
)
_ATTENTION_SLOTS = np.array([0, 1, 2, 3, 4, 4, 6, 5, 1], dtype=np.int64)
_HEAD_INGRESS = 2


def attention_walk(ts: TileSchedule, g: ArrayGeometry) -> tuple[CycleStats, Records]:
    """Walk an attention tile schedule: its CycleStats and its access records.

    The coincidence map lives in processing-element registers between phase 1
    and phase 2, so no record ever moves map data through the memory levels.
    Output blocks that collect several key tiles pay one extra staging-buffer
    read per extra contribution (read-modify-write accumulation).
    """
    if g.role != "attention":
        raise ConfigError(f"expected an attention-role array, got {g.role!r}")
    ru, cu = ts.rows_used, ts.cols_used
    _check_fits(ru, cu, g)
    if not ts.tile_count:
        empty = np.empty(0, np.int64)
        return _stats(0, {"phase1": 0, "phase2": 0}, 0, 0, 0, g.pe_count), Records(_ATTENTION_KINDS, empty, empty, empty)
    unknown = (ts.phase != _PHASE1) & (ts.phase != _PHASE2)
    if unknown.any():
        raise ConfigError(f"unknown attention phase {TILE_PHASES[ts.phase[np.argmax(unknown)]]!r}")
    if ts.head.min() < 0:
        raise ConfigError("attention tiles need a (head, timestep) group")

    d = ts.meta["d"]
    n = ts.meta["n"]
    t_steps = ts.meta["t"]
    key_tiles_per_row = -(-n // g.cols)
    phase1 = ts.phase == _PHASE1
    cost = np.where(phase1, fill_cycles(ts.reduction, ru, cu), d + ru)
    end = np.cumsum(cost)
    start = end - cost
    # One int per (head, timestep) group, from the dense ranks of each, so
    # any head and step values in the schedule give distinct keys in int64.
    heads = np.unique(ts.head, return_inverse=True)[1].reshape(-1)
    steps, step_rank = np.unique(ts.step, return_inverse=True)
    group = heads * len(steps) + step_rank.reshape(-1)

    # A phase-2 tile's ordinal is the number of earlier phase-2 tiles of its
    # output block (group, row_start, row_stop): its rank within the block
    # after a stable sort by block.
    phase2 = np.flatnonzero(~phase1)
    order = phase2[np.lexsort((ts.row_stop[phase2], ts.row_start[phase2], group[phase2]))]
    block = group[order], ts.row_start[order], ts.row_stop[order]
    new_block = np.ones(len(order), dtype=bool)
    new_block[1:] = (block[0][1:] != block[0][:-1]) | (block[1][1:] != block[1][:-1]) | (block[2][1:] != block[2][:-1])
    rank = np.arange(len(order))
    ordinal = np.zeros(ts.tile_count, np.int64)
    ordinal[order] = rank - np.maximum.accumulate(np.where(new_block, rank, 0))

    cycle, bits, kind, mask = _slot_grid(ts.tile_count, _ATTENTION_SLOTS)
    cycle[:, :6] = start[:, None]
    cycle[:, 6:] = end[:, None]
    xbits = ru * d * 16
    bits[:, :2] = 3 * n * t_steps * d  # head ingress: query/key/value slabs for all timesteps
    bits[:, 2:4] = 3 * n * d  # this timestep's operand slabs, staged into the bottom-tier buffer
    bits[:, 4] = np.where(phase1, ru * d, cu * d)
    bits[:, 5] = np.where(phase1, cu * d, xbits)
    bits[:, 6:8] = xbits[:, None]
    bits[:, 8] = ru * d
    kind[:, 5] = np.where(phase1, 4, 5)
    mask[:, :_HEAD_INGRESS] = _first_occurrences(ts.head)[:, None]
    mask[:, 2:4] = _first_occurrences(group)[:, None]
    mask[:, 5] = phase1 | (ordinal > 0)
    mask[:, 6] = ~phase1
    # Block complete: the spike generators consume it.
    mask[:, 7:] = (~phase1 & (ordinal + 1 == key_tiles_per_row))[:, None]
    records = Records(_ATTENTION_KINDS, cycle[mask], kind[mask], bits[mask])

    per_phase = {"phase1": int(cost[phase1].sum()), "phase2": int(cost[~phase1].sum())}
    mac_ops = int((ru * cu).sum()) * d
    return _stats(int(end[-1]), per_phase, ts.tile_count, mac_ops, 0, g.pe_count), records


def repeat_timesteps(stats: CycleStats, records: Records, t: int) -> tuple[CycleStats, Records, Records]:
    """A head's walk over ``t`` timesteps, from ``attention_walk`` of its first (head, timestep) group.

    ``stats`` and ``records`` walk ``plan_attention_tiles(n, d, 1, 1, g)``.
    The whole head, ``plan_attention_tiles(n, d, t, 1, g)``, runs those
    tiles once per timestep, and a tile's cost, slots and bits depend only
    on its shape and on the earlier tiles of its group, so timestep ``s``
    emits the group's records ``s * stats.total_cycles`` cycles later.  The
    one exception is the head ingress, the first tile's first two slots:
    only the head's first tile emits them, and they move the query, key and
    value slabs of all ``t`` timesteps, ``t`` times the group's bits.  So
    the head is two walks, which in this order lay out, count and trace as
    one: the ingress (the two leading records, not a kind: kind 1 is also
    the block-complete LB write) once, then the group's other records ``t``
    times at a period of ``stats.total_cycles``.  Cycles, phases, tiles and
    operations are ``t`` times the group's, through ``_stats``, so
    ``utilization`` divides the same integers as the whole head's walk.

    Exactness: a plan under ``MAX_PLAN_BYTES`` has n * t * d < 2**24 (its
    inputs are charged 96 bytes per element) and 2 * t * ceil(n / rows) *
    ceil(n / cols) < 2**22 tiles (352 bytes each).  A tile costs at most
    d + 2n - 1 < 2**26 cycles, so the head's t * period cycles, and with
    them every copy's offset s * period and every copy's record cycle, are
    below 2**48, and the ingress's 3 * n * t * d bits below 2**26: int64
    holds every value, as in a walk of the whole head.
    """
    lead, rest = slice(_HEAD_INGRESS), slice(_HEAD_INGRESS, None)
    ingress = Records(records.kinds, records.cycle[lead], records.kind[lead], t * records.bits[lead])
    group = Records(records.kinds, records.cycle[rest], records.kind[rest], records.bits[rest], t, stats.total_cycles)
    per_phase = {phase: t * cycles for phase, cycles in stats.per_phase.items()}
    scaled = _stats(
        t * stats.total_cycles, per_phase, t * stats.tile_count, t * stats.mac_ops, t * stats.extraction_cycles,
        stats.pe_count,
    )
    return scaled, ingress, group


def simulate_attention_array(
    ts: TileSchedule,
    g: ArrayGeometry,
    unit: str = "attn0",
) -> tuple[CycleStats, list[AccessEvent]]:
    """Walk an attention tile schedule, producing cycles and access events."""
    stats, records = attention_walk(ts, g)
    return stats, records.events(unit)


def expert_parallel_schedule(
    workloads: list[CycleStats], cores: int, router_overhead: int
) -> tuple[CycleStats, list[list[int]]]:
    """Longest-processing-time-first assignment of workloads onto cores.

    Workloads are placed in descending cycle order onto the currently
    least-loaded core (ties toward the lower core id).  System cycles are the
    router overhead plus the busiest core's load; every core counts the
    widest workload's processing elements.
    """
    if cores < 1:
        raise ConfigError(f"core count must be >= 1, got {cores}")
    if router_overhead < 0:
        raise ConfigError(f"router overhead cannot be negative, got {router_overhead}")
    order = sorted(range(len(workloads)), key=lambda i: (-workloads[i].total_cycles, i))
    # A heap of (load, core); placement j lands on a core with id <= j, the rest stay idle.
    loads = [(0, core) for core in range(min(cores, len(workloads)))]
    assignment: list[list[int]] = [[] for _ in range(cores)]
    for i in order:
        load, core = loads[0]
        assignment[core].append(i)
        heapq.heapreplace(loads, (load + workloads[i].total_cycles, core))
    makespan = max(loads, default=(0, 0))[0]
    total = router_overhead + makespan
    stats = _stats(
        total,
        {"router": router_overhead, "compute": makespan},
        sum(w.tile_count for w in workloads),
        sum(w.mac_ops for w in workloads),
        sum(w.extraction_cycles for w in workloads),
        cores * max((w.pe_count for w in workloads), default=0),
    )
    return stats, assignment


def write_trace_csv(walks, path: str) -> None:
    """Merge ``(units, Records)`` walks into one trace and write it as CSV.

    Rows go by (cycle, unit name), ties by walk, then unit position, then
    emission order.  A row is a (record, slot) pair, a slot being a unit's
    (walk, position); ranking slots by (unit name, walk, position) encodes
    the tie order (``attn10`` before ``attn2``).  Each walk is checked once
    (``Records.words``) before the file is opened.  The records of all
    walks (``Records.recur``) are sorted once, stably on cycle, so a run of
    one cycle comes walk by walk; in a run, rows go by slot rank, then
    record.  One sort (words, then kind) finds each walk's distinct (kind,
    words) pairs; a ``,unit,level,direction,words,width_bits`` tail is
    formatted once per unit and pair, cycle digits once per record.

    A chunk of at most ``TRACE_CHUNK_ROWS`` rows orders the (run, slot)
    groups of the runs it touches by one stable sort on (run index in the
    chunk * slots + slot rank), which fits int64 (each run after the first
    holds a row of the chunk; fewer than 2**48 slots fit in memory), and
    clips its first and last runs: a run's order does not depend on where a
    chunk starts.  A row of the reused grid holds the cycle's digits in
    ``4 * groups`` bytes, ``groups`` being the largest cycle's 4-digit groups,
    then ``,unit`` and the end, each NUL-padded to its widest.  A tail table
    row is a whole grid row whose digit bytes are NUL, so one contiguous take
    by each row's tail writes every byte of the chunk, and one strided store
    of each row's record's digits, a single ``V{4 * groups}`` item, writes
    exactly the digit bytes; the non-NUL bytes are written.  No array with an
    entry per row outlives its chunk.

    That is exact: no grid byte keeps a value of an earlier chunk, and no
    field holds a NUL or needs quoting.  Cycles, words and widths are digits,
    levels ``LEVEL_GEOMETRY`` names, directions read or write, and a unit name
    with a non-ASCII character, NUL, comma, double quote, CR or LF
    (``csv.writer`` quotes those) raises TraceError.
    """
    rank = {unit: i for i, unit in enumerate(sorted({_plain_field(unit) for units, _ in walks for unit in units}))}
    kinds = [kind for _, walk in walks for kind in walk.kinds]
    first_kind = np.cumsum([0] + [len(walk.kinds) for _, walk in walks]).tolist()
    words = np.concatenate([np.empty(0, np.int64)] + [walk.words(units) for units, walk in walks])
    kind = np.concatenate([np.empty(0, np.int64)] + [walk.kind + first_kind[w] for w, (_, walk) in enumerate(walks)])
    order = words.argsort()
    order = order[kind[order].astype(np.min_scalar_type(first_kind[-1])).argsort(kind="stable")]
    kind, words, new = kind[order], words[order], np.ones(len(order), bool)
    new[1:] = (kind[1:] != kind[:-1]) | (words[1:] != words[:-1])
    pair = np.empty(len(order), np.intp)
    pair[order] = new.cumsum() - 1
    walk_pairs = kind[new].searchsorted(first_kind).tolist()
    ends = [f",{lv},{d},{n},{level_width_bits(lv)}\r\n" for k, n in zip(kind[new].tolist(), words[new].tolist())
            for lv, d, _ in (kinds[k],)]
    hw, ew = 1 + max(map(len, rank), default=0), max(map(len, ends), default=0)  # a tail's ``,unit`` and its end
    ends = [end.ljust(ew, "\0").encode() for end in ends]
    tails, slots, cycles, bases, row = [], [], [np.empty(0, np.int64)], [np.empty(0, np.intp)], 0
    for w, ((units, walk), p0, p1) in enumerate(zip(walks, walk_pairs, walk_pairs[1:])):
        slots += [(rank[unit], w, j * (p1 - p0)) for j, unit in enumerate(units)]  # with its tail offset
        cycles.append(walk.recur(walk.cycle, walk.period))
        bases.append(walk.recur(pair[row : row + len(walk.cycle)] + (len(tails) - p0)))
        row += len(walk.cycle)
        tails += [f",{u}".ljust(hw, "\0").encode() + end for u in units for end in ends[p0:p1]]
    del kind, words, order, new, pair
    cycle = np.concatenate(cycles)
    order = cycle.argsort(kind="stable")
    cycle, base = cycle[order], np.concatenate(bases)[order]
    del cycles, bases
    walk_of = np.arange(len(walks)).repeat([len(walk) for _, walk in walks])[order]
    # A segment is one walk's records of a run.  ``edge`` marks run starts, then walk changes; a last column ends both.
    edge = np.ones((2, len(cycle) + 1), bool)
    np.not_equal(cycle[1:], cycle[:-1], out=edge[0, 1:-1])
    np.not_equal(walk_of[1:], walk_of[:-1], out=edge[1, 1:-1])
    seg = (edge[0] | edge[1]).nonzero()[0]  # each segment's first record, then the record count
    new_run = edge[0, seg]  # where a run starts, and a closing True
    run_first, seg_walk = new_run.nonzero()[0], walk_of[seg[:-1]]  # each run's first segment, then the count
    del order, walk_of, edge
    groups = -(-len(str(int(cycle[-1]) if len(cycle) else 0)) // 4)
    digits, zeros, table = np.empty((len(cycle), 4 * groups), np.uint8), cycle.searchsorted(1), _digit_groups()
    for j in reversed(range(groups)):
        cycle, group = np.divmod(cycle, 10000)
        np.add(group, 10000, out=group, where=cycle > 0)  # zero-padded below a nonzero group
        digits.view("<u4")[:, j] = table[group]
    digits.view("<u4")[:zeros, -1] = _ZERO_GROUP  # all of 0's digits are leading zeros but one
    digits = digits.view(f"V{4 * groups}")[:, 0]  # one item per record
    del cycle, group
    blank = bytes(4 * groups)  # a tail row is a whole grid row: NUL digits, ``,unit`` and the end
    tail = np.frombuffer(b"".join(blank + t for t in tails), np.uint8).reshape(len(tails), len(blank) + hw + ew)
    del tails
    units_of = np.array([len(units) for units, _ in walks], np.intp)
    # Per segment: its record count, its walk's unit count and first slot, and its run.
    seg_len, seg_units = seg[1:] - seg[:-1], units_of[seg_walk]
    seg_slot, seg_run = (units_of.cumsum() - units_of)[seg_walk], new_run[:-1].cumsum()
    seg_end = np.concatenate(([0], (seg_len * seg_units).cumsum()))  # rows before each segment
    slot_rank = np.argsort(sorted(range(len(slots)), key=slots.__getitem__)).astype(np.intp)
    slot_tail = np.array([s[2] for s in slots], np.intp)
    grid = np.empty((min(int(seg_end[-1]), TRACE_CHUNK_ROWS), tail.shape[1]), np.uint8)
    lead = np.ndarray(len(grid), digits.dtype, grid, 0, (grid.shape[1],))  # each grid row's digit bytes, one item
    mask = np.empty(grid.shape, bool)

    def fill(start: int, stop: int) -> int:
        run = run_first.searchsorted(seg_end.searchsorted([start, stop - 1], "right") - 1, "right")
        first, last = run_first[run[0] - 1], run_first[run[1]]
        per = seg_units[first:last]
        g_seg = np.arange(first, last).repeat(per)
        g_slot = np.arange(len(g_seg)) + (seg_slot[first:last] - per.cumsum() + per).repeat(per)
        order = ((seg_run[g_seg] - seg_run[first]) * len(slots) + slot_rank[g_slot]).argsort(kind="stable")
        g_seg, g_slot = g_seg[order], g_slot[order]
        high, size = seg[1:][g_seg], seg_len[g_seg]  # each group's record end and record count
        end = size.cumsum() + seg_end[first]  # each group's last row + 1
        count = np.maximum(np.minimum(end, stop) - np.maximum(end - size, start), 0)
        n = stop - start
        rec = np.arange(n)
        rec += (high - end + start).repeat(count)  # each row's record
        at = base[rec]
        at += slot_tail[g_slot].repeat(count)  # each row's tail
        tail.take(at, 0, grid[:n], "clip")  # a contiguous out and mode "clip" spare take a buffered copy
        lead[:n] = digits[rec]  # over the NUL digit bytes the take wrote
        return n

    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")
        for start in range(0, int(seg_end[-1]), TRACE_CHUNK_ROWS):
            n = fill(start, min(start + TRACE_CHUNK_ROWS, int(seg_end[-1])))
            np.not_equal(grid[:n], 0, out=mask[:n])
            fh.write(grid[:n][mask[:n]])


def _plain_field(value) -> str:
    """``value`` as text, refusing what a NUL-stripped, unquoted CSV field cannot hold."""
    text = str(value)
    if not text.isascii() or any(ch in text for ch in _UNPLAIN):
        raise TraceError(f"trace field {text!r} must be ASCII with no NUL, comma, double quote, CR or LF")
    return text


@cache
def _digit_groups() -> np.ndarray:
    """ASCII 4-digit groups as little-endian uint32, built on first use.

    Entry ``v`` (``v`` < 10000) holds ``v``'s digits right-aligned with its
    leading zeros as NUL, so entry 0 is all NUL: a number's leading group.
    Entry ``10000 + v`` holds them zero-padded: any later group.
    """
    v = np.arange(10000, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    digits = v // place % 10 + ord("0")
    table = np.concatenate([np.where(v >= place, digits, 0), digits]).astype(np.uint8).view("<u4").ravel()
    table.flags.writeable = False
    return table
