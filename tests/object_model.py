"""An object view of the columnar model, as references for the tests.

``spikesim`` keeps tile schedules, walker records and the merged trace as
int columns only.  The tests check them against per-object references: a
``Tile`` per schedule row, a tuple per record, an ``AccessEvent`` per trace
row, the merge as one stable sort of per-unit event lists, and per-level
counts folded one event at a time.
"""

from typing import NamedTuple

import numpy as np

from spikesim.dataflow import TILE_PHASES, AccessEvent, Records, TileSchedule
from spikesim.errors import TraceError
from spikesim.levels import LEVEL_GEOMETRY
from spikesim.memory import AccessCounts


class Tile(NamedTuple):
    """One schedule row: output rows x output cols with a reduction depth."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int
    reduction: int
    phase: str
    group: tuple[int, int] | None = None  # (head, timestep) for attention tiles

    @property
    def rows_used(self) -> int:
        return self.row_stop - self.row_start

    @property
    def cols_used(self) -> int:
        return self.col_stop - self.col_start


def tiles(ts: TileSchedule) -> list[Tile]:
    """The schedule's rows as ``Tile``s, in order."""
    columns = (ts.row_start, ts.row_stop, ts.col_start, ts.col_stop, ts.reduction, ts.phase, ts.head, ts.step)
    return [
        Tile(r0, r1, c0, c1, red, TILE_PHASES[phase], None if head < 0 else (head, step))
        for r0, r1, c0, c1, red, phase, head, step in zip(*(c.tolist() for c in columns))
    ]


def schedule(tile_list, row_extent: int, col_extent: int, meta: dict | None = None) -> TileSchedule:
    """The column schedule of ``Tile``s, in their order."""
    rows = [(*t[:5], TILE_PHASES.index(t.phase), *(t.group or (-1, -1))) for t in tile_list]
    columns = np.array(rows, dtype=np.int64).reshape(-1, 8).T
    return TileSchedule(*columns, row_extent, col_extent, {} if meta is None else meta)


def records_from_rows(rows) -> Records:
    """Records from ``(cycle, level, direction, bits, tag)`` tuples, kinds in first-use order."""
    kinds: dict[tuple, int] = {}
    kind = [kinds.setdefault((level, direction, tag), len(kinds)) for _, level, direction, _, tag in rows]
    cycle = np.array([row[0] for row in rows], dtype=np.int64)
    bits = np.array([row[3] for row in rows], dtype=np.int64)
    return Records(tuple(kinds), cycle, np.array(kind, dtype=np.int64), bits)


def record_rows(records: Records) -> list[tuple]:
    """The records as ``(cycle, level, direction, bits, tag)`` tuples."""
    kinds = records.kinds
    return [
        (cycle, kinds[k][0], kinds[k][1], bits, kinds[k][2])
        for cycle, k, bits in zip(records.cycle.tolist(), records.kind.tolist(), records.bits.tolist())
    ]


def trace_events(merged) -> list[AccessEvent]:
    """A ``MergedTrace``'s rows as ``AccessEvent``s."""
    units, records = merged.units, merged.records
    rows = zip(merged.cycle.tolist(), merged.unit.tolist(), merged.record.tolist())
    return [AccessEvent(cycle, units[unit], *records[rec]) for cycle, unit, rec in rows]


def merge_traces(*traces: list[AccessEvent]) -> list[AccessEvent]:
    """Per-unit traces merged by one stable sort on (cycle, unit)."""
    merged = [ev for trace in traces for ev in trace]
    merged.sort(key=lambda ev: (ev.cycle, ev.unit))
    return merged


def count_accesses(trace: list[AccessEvent]) -> AccessCounts:
    """A trace folded event by event into per-level read/write event and word totals."""
    counts = AccessCounts({})
    for ev in trace:
        if ev.level not in LEVEL_GEOMETRY:
            raise TraceError(f"trace references unknown level {ev.level!r} (event at cycle {ev.cycle}, unit {ev.unit!r})")
        counts.add(ev.level, ev.direction, ev.words)
    return counts
