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
``attention_walk``).  It returns the run's cycle stats and its access
records as ``Records``: int64 columns ``cycle``, ``kind`` and ``bits`` in
emission order, where ``kind`` indexes a small tuple of distinct
``(level, direction, tag)``.  A ``TileSchedule`` likewise holds its tiles
as int64 columns.

A walker computes the whole tile grid at once.  The per-tile body is a
fixed template of record slots, in the order the body emits them: attention
has 9 (head ingress x2, group staging x2, operand read, second operand read
or read-modify-write read, integration write, completion read, LB write),
the expert array 4 preload slots then 9 body slots, the routing array 2
then 3.  Preload records precede everything else exactly once, so they are
leading slots kept on the first tile only.  A slot's condition and values
depend only on its tile and on a prefix of the tiles before it, which numpy
computes for every tile at once: start cycles
are an exclusive cumulative sum of tile costs, "first tile of a head or
group" is a first occurrence, "new row tile" is a compare with the previous
tile, and a phase-2 tile's contribution ordinal is its rank among the
earlier tiles of its output block after one stable sort.  Filling a
(tiles x slots) grid and flattening it tile-major and slot-minor under the
slots' conditions therefore lists exactly the records a per-tile loop emits,
in the same order.

``simulate_*`` turn the records into ``AccessEvent`` lists.  A run folds the
same ``(units, Records)`` walks that the trace merges straight into the
report's per-level table instead (``memory.count_walks``), so the merged
trace is built only when it is requested.  Attention heads run identical
schedules, so a run walks one head and counts it once per head; ``compare``
runs the pipeline once and prices that one table under both calibrations.

Trace merge
-----------
``merge_walks`` builds the merged trace from ``(units, Records)`` pairs
without per-event objects.  It validates each walk's records once
(``Records.words``: each distinct kind once, cycles and word counts as
arrays); units that share a walk differ only in their unit name, so that is
the same as checking every copy.  Each distinct (kind, words) pair of a walk
becomes one record entry.  The rows are index arrays (cycle, unit rank,
record) in concatenation order: walks in order, the units of a walk in
order, records in emission order.  The unit rank is the unit's position in
sorted name order (``attn10`` before ``attn2``), so one stable
``np.lexsort((unit_rank, cycle))`` orders the rows by (cycle, unit name)
with ties in concatenation order: the order a stable sort of the
concatenated per-unit event lists on ``(cycle, unit)`` gives.

``write_trace_csv`` writes those rows in fixed-size chunks with no Python
per row.  Each chunk is a NUL-padded byte grid, one row per line: the cycle
as 4-digit ASCII groups gathered from a table (leading zeros as NUL), then
the ``,unit,level,direction,words,width_bits\r\n`` tail gathered from a
table formatted once per (unit, record) pair.  The file gets the grid's
non-NUL bytes.  That is exact because no field can hold a NUL: digits never
do, and each distinct unit, level and direction name is checked once to be
ASCII without NUL.  The same check refuses a comma, a double quote, CR and
LF, so no field needs the quoting ``csv.writer`` would add, and the bytes
are those ``csv.writer`` writes.
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
TRACE_CHUNK_ROWS = 1 << 14

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
    """Ordered tiles as int64 columns, plus the iteration space they must cover per phase.

    The ``i``-th tile covers rows ``[row_start[i], row_stop[i])`` and columns
    ``[col_start[i], col_stop[i])`` with reduction depth ``reduction[i]`` in
    phase ``TILE_PHASES[phase[i]]``; ``head[i]`` and ``step[i]`` name its
    (head, timestep) group, -1 for none.
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

    def validate(self) -> None:
        """Check that the tiles cover the groups ``meta`` names, each partitioned once.

        One lexsort groups the tiles by (head, step, phase).  An attention
        ``meta`` names every head < ``heads`` and step < ``t`` in both
        phases, and an expert ``meta`` the one ungrouped compute phase when
        its space is not empty; the groups that have tiles must be exactly
        those.  Within a group, the tiles' row and column boundaries (with 0
        and the extents) cut the space into cells, and a 2-D difference array
        over those cells counts how many tiles cover each one; every count
        must be exactly 1.  It builds no per-tile object.
        """
        beyond = (self.row_stop > self.row_extent) | (self.col_stop > self.col_extent)
        if beyond.any():
            i = int(np.argmax(beyond))
            raise ShapeError(f"tile {i} exceeds iteration space {self.row_extent}x{self.col_extent} in {self._where(i)}")
        order = np.lexsort((self.phase, self.step, self.head))
        keys = self.head[order], self.step[order], self.phase[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (keys[0][1:] != keys[0][:-1]) | (keys[1][1:] != keys[1][:-1]) | (keys[2][1:] != keys[2][:-1])
        required = self._required_groups()
        present = np.stack([key[new] for key in keys], axis=1)
        if required is not None and not np.array_equal(present, required):
            have, want = set(map(tuple, present.tolist())), set(map(tuple, required.tolist()))
            if want - have:
                raise ShapeError(f"no tile covers {self._name(*min(want - have))}, which the schedule's meta requires")
            raise ShapeError(f"tiles in {self._name(*min(have - want))} lie outside the groups the schedule's meta names")
        for members in np.split(order, np.flatnonzero(new)[1:]):
            r0, r1, c0, c1 = (column[members] for column in (self.row_start, self.row_stop, self.col_start, self.col_stop))
            rows = np.unique(np.concatenate(([0, self.row_extent], r0, r1)))
            cols = np.unique(np.concatenate(([0, self.col_extent], c0, c1)))
            r0, r1 = np.searchsorted(rows, r0), np.searchsorted(rows, r1)
            c0, c1 = np.searchsorted(cols, c0), np.searchsorted(cols, c1)
            diff = np.zeros((len(rows), len(cols)), np.int64)
            for r, c, sign in ((r0, c0, 1), (r0, c1, -1), (r1, c0, -1), (r1, c1, 1)):
                np.add.at(diff, (r, c), sign)
            cover = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
            if (cover != 1).any():
                r, c = np.unravel_index(np.argmax(cover != 1), cover.shape)
                raise ShapeError(
                    f"{self._where(members[0])} covers cell (row {rows[r]}, col {cols[c]}) {cover[r, c]} times, expected once"
                )

    def _required_groups(self) -> np.ndarray | None:
        """The (head, step, phase) rows ``meta`` says the tiles must cover, sorted; None if it does not say."""
        if "heads" in self.meta:
            grid = np.meshgrid(np.arange(self.meta["heads"]), np.arange(self.meta["t"]), [_PHASE1, _PHASE2], indexing="ij")
            return np.stack([axis.ravel() for axis in grid], axis=1)
        if "n_tokens" in self.meta:
            groups = [(-1, -1, TILE_PHASES.index("compute"))] if self.row_extent and self.col_extent else []
            return np.array(groups, dtype=np.int64).reshape(-1, 3)
        return None

    @staticmethod
    def _name(head, step, phase) -> str:
        """A (head, step, phase) group, for error messages."""
        group = None if head < 0 else (int(head), int(step))
        return f"group {group} phase {TILE_PHASES[phase]}"

    def _where(self, i) -> str:
        """The group and phase of tile ``i``, for error messages."""
        return self._name(self.head[i], self.step[i], self.phase[i])

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

    Record ``i`` moves ``bits[i]`` bits at cycle ``cycle[i]``; its level,
    direction and payload tag are ``kinds[kind[i]]``.
    """

    kinds: tuple  # distinct (level, direction, tag)
    cycle: np.ndarray
    kind: np.ndarray
    bits: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)

    def words(self, units) -> np.ndarray:
        """Words each record moves at its level's width, after checking every record.

        Raises TraceError on a record that names a level outside
        ``LEVEL_GEOMETRY`` or that ``AccessEvent`` would refuse: a negative
        cycle, a direction other than read or write, or a burst of no words.
        Each distinct kind is checked once; the error names the first bad
        record's cycle and ``units``.
        """
        unknown = np.array([level not in LEVEL_GEOMETRY for level, _, _ in self.kinds], dtype=bool)
        misdirected = np.array([direction not in ("read", "write") for _, direction, _ in self.kinds], dtype=bool)
        width = np.array([LEVEL_GEOMETRY.get(level, (0, 1))[1] for level, _, _ in self.kinds], dtype=np.int64)
        words = width_words(self.bits, width[self.kind])
        bad = (unknown | misdirected)[self.kind] | (self.cycle < 0) | (words < 1)
        if bad.any():
            i = int(np.argmax(bad))
            k, cycle = int(self.kind[i]), int(self.cycle[i])
            level, direction, _ = self.kinds[k]
            if unknown[k]:
                problem = f"trace references unknown level {level!r}"
            elif cycle < 0:
                problem = "event cycle cannot be negative"
            elif misdirected[k]:
                problem = f"direction must be read or write, got {direction!r}"
            else:
                problem = "events must move at least one word of at least one bit"
            raise TraceError(f"{problem} (record at cycle {cycle} of unit(s) {', '.join(units)})")
        return words

    def events(self, unit: str) -> list[AccessEvent]:
        """The records as ``unit``'s ``AccessEvent`` list."""
        words = self.words((unit,)).tolist()
        kinds = [(level, direction, level_width_bits(level), tag) for level, direction, tag in self.kinds]
        return [
            AccessEvent(cycle, unit, kinds[k][0], kinds[k][1], w, kinds[k][2], kinds[k][3])
            for cycle, k, w in zip(self.cycle.tolist(), self.kind.tolist(), words)
        ]


@dataclass(frozen=True)
class MergedTrace:
    """The merged access trace as index arrays over its distinct records.

    Row ``i`` is an access at cycle ``cycle[i]`` by unit ``units[unit[i]]``
    carrying ``records[record[i]]`` = ``(level, direction, words,
    width_bits, tag)``; rows are in (cycle, unit name) order, ties in the
    order of the walks and units ``merge_walks`` was given.
    """

    units: tuple
    records: list
    cycle: np.ndarray
    unit: np.ndarray
    record: np.ndarray

    def __len__(self) -> int:
        return len(self.cycle)


def merge_walks(walks) -> MergedTrace:
    """Merge ``(units, Records)`` pairs into one (cycle, unit)-ordered trace.

    Each walk's records are validated once, however many units share them.
    """
    names = sorted({unit for units, _ in walks for unit in units})
    rank = {unit: i for i, unit in enumerate(names)}
    records: list[tuple] = []
    cycles, ranks, record_ids = [np.empty(0, np.int64)], [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for units, walk in walks:
        words = walk.words(units)
        # One record entry per distinct (kind, words) pair, found by one sort.
        order = np.lexsort((words, walk.kind))
        kind, words = walk.kind[order], words[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (kind[1:] != kind[:-1]) | (words[1:] != words[:-1])
        ids = np.empty(len(walk), np.intp)
        ids[order] = np.cumsum(new) - 1 + len(records)
        for k, w in zip(kind[new].tolist(), words[new].tolist()):
            level, direction, tag = walk.kinds[k]
            records.append((level, direction, w, level_width_bits(level), tag))
        # Unit-major, record-minor: the concatenation order that breaks cycle and unit ties.
        cycles.append(np.tile(walk.cycle, len(units)))
        ranks.append(np.repeat(np.array([rank[unit] for unit in units], np.intp), len(walk)))
        record_ids.append(np.tile(ids, len(units)))
    cycle, unit, record = (np.concatenate(parts) for parts in (cycles, ranks, record_ids))
    order = np.lexsort((unit, cycle))  # stable: ties keep concatenation order
    return MergedTrace(tuple(names), records, cycle[order], unit[order], record[order])


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
    return -(-values // min(ports, max(int(np.max(values)), 1)))


def _extract_ports(g: ArrayGeometry, extract_ports: int | None) -> int:
    """Readout ports of a compute array: one per row unless given."""
    ports = g.rows if extract_ports is None else extract_ports
    if ports < 1:
        raise ConfigError(f"extract ports must be >= 1, got {ports}")
    return ports


def _grid(tile: np.ndarray, row_extent: int, row_step: int, col_extent: int, col_step: int) -> tuple[np.ndarray, ...]:
    """Start and stop columns of the tiles numbered ``tile`` in the row-major
    grid of ``row_step`` x ``col_step`` tiles over [0, row_extent) x [0, col_extent)."""
    # A step beyond the extent gives the same single tile and stays in int64.
    row_step, col_step = min(row_step, row_extent), min(col_step, col_extent)
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


def _stats(cycles: int, per_phase: dict, tiles: int, mac_ops: int, extraction: int, g: ArrayGeometry) -> CycleStats:
    utilization = mac_ops / (cycles * g.pe_count) if cycles else 0.0
    return CycleStats(cycles, per_phase, tiles, mac_ops, utilization, extraction, g.pe_count)


def _no_tiles(kinds: tuple) -> Records:
    return Records(kinds, *(np.empty(0, np.int64),) * 3)


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


def _compute_tiles(reduction, ru, cu, ports: int, mac_ops: int, g: ArrayGeometry) -> tuple:
    """Compute tiles run back to back, each filling and then draining through ``ports``.

    Returns the run's CycleStats and, per tile, its start, fill-done and end cycles.
    """
    fills = fill_cycles(reduction, ru, cu)
    ext = extraction_cycle_count(ru * cu, ports)
    end = np.cumsum(fills + ext)
    start = end - fills - ext
    compute, extract = int(fills.sum()), int(ext.sum())
    stats = _stats(compute + extract, {"compute": compute, "extract": extract}, len(end), mac_ops, extract, g)
    return stats, start, start + fills, end


def plan_expert_tiles(n_e: int, t: int, d_in: int, d_out: int, g: ArrayGeometry) -> TileSchedule:
    """Cut one expert's workload into tiles on the expert array.

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
        return TileSchedule(*(np.empty(0, np.int64),) * 8, 0, 0, meta)
    count = -(-d_out // g.rows) * -(-col_extent // g.cols)
    grid = _grid(np.arange(count, dtype=np.int64), d_out, g.rows, col_extent, g.cols)
    reduction, compute, no_group = (np.full(count, value, np.int64) for value in (d_in, TILE_PHASES.index("compute"), -1))
    return TileSchedule(*grid, reduction, compute, no_group, no_group, d_out, col_extent, meta)


# Expert walk: the 13 slots of a tile.  Slots 0-3 preload the expert's
# weight block (kind 0 is the weight GLB bank's read) and its routed token
# set, and are kept on the first tile only; slots 4-12 are a tile's body.
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


def expert_walk(
    ts: TileSchedule, g: ArrayGeometry, sparsity: SparsityStats, extract_ports: int | None = None, weight_glb: str = WEIGHT_GLB0
) -> tuple[CycleStats, Records]:
    """Walk an expert tile schedule: its CycleStats and its access records."""
    if g.role != "expert":
        raise ConfigError(f"expected an expert-role array, got {g.role!r}")
    ru, cu = ts.rows_used, ts.cols_used
    _check_fits(ru, cu, g)
    ports = _extract_ports(g, extract_ports)
    kinds = ((weight_glb, "read", "weight"), *_EXPERT_KINDS)
    if not ts.tile_count:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g), _no_tiles(kinds)

    d_in = ts.meta["d_in"]
    d_out = ts.row_extent
    reduction, area = ts.reduction, ru * cu
    stats, start, filled, end = _compute_tiles(reduction, ru, cu, ports, sparsity.ones * d_out, g)

    cycle, bits, kind, mask = _slot_grid(ts.tile_count, _EXPERT_SLOTS, preload=4)
    cycle[:, :10] = start[:, None]
    cycle[:, 10] = filled
    cycle[:, 11:] = end[:, None]
    bits[:, :2] = d_in * d_out * 8
    bits[:, 2:4] = ts.col_extent * d_in
    bits[:, 4:7] = (ru * reduction * 8)[:, None]
    bits[:, 7:10] = (cu * reduction)[:, None]
    bits[:, 10:12] = (area * 16)[:, None]
    bits[:, 12] = area
    # A new row tile streams its weight block in once.
    rows = ts.row_start, ts.row_stop
    mask[1:, 4:7] = ((rows[0][1:] != rows[0][:-1]) | (rows[1][1:] != rows[1][:-1]))[:, None]
    return stats, Records(kinds, cycle[mask], kind[mask], bits[mask])


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
    ports = _extract_ports(g, extract_ports)
    if n == 0:
        return _stats(0, {"compute": 0, "extract": 0}, 0, 0, 0, g), _no_tiles(_ROUTING_KINDS)

    reduction = t * d_in
    count = -(-n // g.rows) * -(-e // g.cols)
    row_start, row_stop, col_start, col_stop = _grid(np.arange(count, dtype=np.int64), n, g.rows, e, g.cols)
    ru, cu = row_stop - row_start, col_stop - col_start
    area = ru * cu
    stats, start, filled, _end = _compute_tiles(reduction, ru, cu, ports, int(area.sum()) * reduction, g)

    cycle, bits, kind, mask = _slot_grid(count, _ROUTING_SLOTS, preload=2)
    cycle[:, :4] = start[:, None]
    cycle[:, 4] = filled
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


# Attention walk: the 9 slots of a tile's body.  Slot 5 is phase 1's second
# operand read (kind 4) or phase 2's read-modify-write read (kind 5).
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
        return _stats(0, {"phase1": 0, "phase2": 0}, 0, 0, 0, g), _no_tiles(_ATTENTION_KINDS)
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
    mask[:, :2] = _first_occurrences(ts.head)[:, None]
    mask[:, 2:4] = _first_occurrences(group)[:, None]
    mask[:, 5] = phase1 | (ordinal > 0)
    mask[:, 6] = ~phase1
    # Block complete: the spike generators consume it.
    mask[:, 7:] = (~phase1 & (ordinal + 1 == key_tiles_per_row))[:, None]
    records = Records(_ATTENTION_KINDS, cycle[mask], kind[mask], bits[mask])

    per_phase = {"phase1": int(cost[phase1].sum()), "phase2": int(cost[~phase1].sum())}
    mac_ops = int((ru * cu).sum()) * d
    return _stats(int(end[-1]), per_phase, ts.tile_count, mac_ops, 0, g), records


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
    router overhead plus the busiest core's load.
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


def write_trace_csv(trace: MergedTrace, path: str) -> None:
    """Write a merged trace as CSV, streamed in chunks of ``TRACE_CHUNK_ROWS`` rows.

    The bytes are those ``csv.writer`` writes in its default dialect, built
    with numpy and no Python per row.  Each chunk is a NUL-padded uint8 grid
    of one row per line: the cycle's digits in 4-digit groups gathered as
    uint32 from ``_digit_groups`` (leading zeros as NUL), then the line's
    ``,unit,level,direction,words,width_bits\r\n`` tail gathered from a
    table formatted once per (unit, record) pair.  The file gets the grid's
    non-NUL bytes in order.

    Why that is exact: no field can hold a NUL.  The cycle digits and the
    integer words and widths are decimal digits, and each distinct unit,
    level and direction name is checked once to be ASCII without NUL; so
    deleting the padding leaves exactly the fields, comma-joined.  No field
    needs quoting either: ``csv.writer`` quotes only a field that holds a
    comma, a double quote, CR or LF, which the check refuses too, and it
    writes an integer as its decimal digits.  A name that fails the check,
    or a negative cycle, raises TraceError.
    """
    units = [_plain_field(unit) for unit in trace.units]
    records = [",".join(_plain_field(value) for value in record[:4]) for record in trace.records]
    if len(trace) and trace.cycle.min() < 0:
        raise TraceError("event cycle cannot be negative")
    # A unit's rows draw on one range of records (a walk's records are
    # contiguous), so the tail table lists each unit's range: every (unit,
    # record) pair would grow as experts squared.  Pair (u, r) is tail row
    # tail_row[u] + r.
    first = np.full(len(units), len(records), dtype=np.intp)
    last = np.full(len(units), -1, dtype=np.intp)
    np.minimum.at(first, trace.unit, trace.record)
    np.maximum.at(last, trace.unit, trace.record)
    tails = [
        f",{unit},{records[r]}\r\n".encode()
        for unit, lo, hi in zip(units, first.tolist(), last.tolist())
        for r in range(lo, hi + 1)
    ]
    span = np.maximum(last - first + 1, 0)
    tail_row = np.cumsum(span) - span - first
    width = max(map(len, tails), default=0)
    tail = np.frombuffer(b"".join(t.ljust(width, b"\0") for t in tails), np.uint8).reshape(len(tails), width)
    digit_groups = _digit_groups()
    with open(path, "wb") as fh:
        fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")
        for start in range(0, len(trace), TRACE_CHUNK_ROWS):
            rows = slice(start, start + TRACE_CHUNK_ROWS)
            cycle = trace.cycle[rows]
            groups = -(-len(str(int(cycle.max()))) // 4)
            # The tail starts on a uint32 boundary so the digits can be viewed as uint32.
            grid = np.zeros((len(cycle), 4 * groups + width + (-width) % 4), np.uint8)
            quads = grid.view("<u4")
            rest = cycle
            for j in reversed(range(groups)):
                rest, group = np.divmod(rest, 10000)
                quads[:, j] = digit_groups[group + 10000 * (rest > 0)]
            quads[cycle == 0, groups - 1] = _ZERO_GROUP  # all of 0's digits are leading zeros but one
            grid[:, 4 * groups : 4 * groups + width] = np.take(tail, tail_row[trace.unit[rows]] + trace.record[rows], axis=0)
            flat = grid.ravel()
            fh.write(flat[flat != 0])


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
    v = np.arange(10000, dtype=np.int64)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int64)
    digits = v // place % 10 + ord("0")
    table = np.concatenate([np.where(v >= place, digits, 0), digits]).astype(np.uint8).view("<u4").ravel()
    table.flags.writeable = False
    return table
