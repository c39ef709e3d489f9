"""An object view of the columnar model, as references for the tests.

``spikesim`` keeps tile schedules and walker records as int columns only, and
writes the merged trace straight from the records.  The tests check them
against per-object references: a ``Tile`` per schedule row, a tuple per
record, an ``AccessEvent`` per trace row, the merge as one stable sort of
per-unit event lists, per-level counts folded one event at a time, and a
routing table's tokens as one list per expert.
``validate`` checks that a schedule's tiles partition the iteration space
its ``meta`` names, the property the planners must keep.
"""

from typing import NamedTuple

import numpy as np

from spikesim.dataflow import TILE_PHASES, AccessEvent, Records, TileSchedule
from spikesim.errors import ShapeError, TraceError
from spikesim.levels import LEVEL_GEOMETRY


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


def validate(ts: TileSchedule) -> None:
    """Check that the tiles cover the groups ``ts.meta`` names, each partitioned once.

    One lexsort groups the tiles by (head, step, phase).  An attention
    ``meta`` names every head < ``heads`` and step < ``t`` in both phases,
    and an expert ``meta`` the one ungrouped compute phase when its space is
    not empty; the groups that have tiles must be exactly those.  Within a
    group, the tiles' row and column boundaries (with 0 and the extents) cut
    the space into cells, and a 2-D difference array over those cells counts
    how many tiles cover each one; every count must be exactly 1.  It builds
    no per-tile object.
    """
    beyond = (ts.row_stop > ts.row_extent) | (ts.col_stop > ts.col_extent)
    if beyond.any():
        i = int(np.argmax(beyond))
        raise ShapeError(f"tile {i} exceeds iteration space {ts.row_extent}x{ts.col_extent} in {_where(ts, i)}")
    order = np.lexsort((ts.phase, ts.step, ts.head))
    keys = ts.head[order], ts.step[order], ts.phase[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (keys[0][1:] != keys[0][:-1]) | (keys[1][1:] != keys[1][:-1]) | (keys[2][1:] != keys[2][:-1])
    required = _required_groups(ts)
    present = np.stack([key[new] for key in keys], axis=1)
    if required is not None and not np.array_equal(present, required):
        have, want = set(map(tuple, present.tolist())), set(map(tuple, required.tolist()))
        if want - have:
            raise ShapeError(f"no tile covers {_name(*min(want - have))}, which the schedule's meta requires")
        raise ShapeError(f"tiles in {_name(*min(have - want))} lie outside the groups the schedule's meta names")
    for members in np.split(order, np.flatnonzero(new)[1:]):
        r0, r1, c0, c1 = (column[members] for column in (ts.row_start, ts.row_stop, ts.col_start, ts.col_stop))
        rows = np.unique(np.concatenate(([0, ts.row_extent], r0, r1)))
        cols = np.unique(np.concatenate(([0, ts.col_extent], c0, c1)))
        r0, r1 = np.searchsorted(rows, r0), np.searchsorted(rows, r1)
        c0, c1 = np.searchsorted(cols, c0), np.searchsorted(cols, c1)
        diff = np.zeros((len(rows), len(cols)), np.int64)
        for r, c, sign in ((r0, c0, 1), (r0, c1, -1), (r1, c0, -1), (r1, c1, 1)):
            np.add.at(diff, (r, c), sign)
        cover = diff.cumsum(axis=0).cumsum(axis=1)[:-1, :-1]
        if (cover != 1).any():
            r, c = np.unravel_index(np.argmax(cover != 1), cover.shape)
            raise ShapeError(
                f"{_where(ts, members[0])} covers cell (row {rows[r]}, col {cols[c]}) {cover[r, c]} times, expected once"
            )


def _required_groups(ts: TileSchedule) -> np.ndarray | None:
    """The (head, step, phase) rows ``ts.meta`` says the tiles must cover, sorted; None if it does not say."""
    if "heads" in ts.meta:
        phases = [TILE_PHASES.index("phase1"), TILE_PHASES.index("phase2")]
        grid = np.meshgrid(np.arange(ts.meta["heads"]), np.arange(ts.meta["t"]), phases, indexing="ij")
        return np.stack([axis.ravel() for axis in grid], axis=1)
    if "n_tokens" in ts.meta:
        groups = [(-1, -1, TILE_PHASES.index("compute"))] if ts.row_extent and ts.col_extent else []
        return np.array(groups, dtype=np.int64).reshape(-1, 3)
    return None


def _name(head, step, phase) -> str:
    """A (head, step, phase) group, for error messages."""
    group = None if head < 0 else (int(head), int(step))
    return f"group {group} phase {TILE_PHASES[phase]}"


def _where(ts: TileSchedule, i) -> str:
    """The group and phase of tile ``i``, for error messages."""
    return _name(ts.head[i], ts.step[i], ts.phase[i])


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


def merge_traces(*traces: list[AccessEvent]) -> list[AccessEvent]:
    """Per-unit traces merged by one stable sort on (cycle, unit)."""
    merged = [ev for trace in traces for ev in trace]
    merged.sort(key=lambda ev: (ev.cycle, ev.unit))
    return merged


def merged_events(walks) -> list[AccessEvent]:
    """``(units, Records)`` walks as one trace: each unit's ``Records.events``, merged by ``merge_traces``."""
    return merge_traces(*(records.events(unit) for units, records in walks for unit in units))


def expert_tokens(table) -> list[np.ndarray]:
    """A ``RoutingTable``'s token ids per expert, ascending: its ``order`` split at its ``offsets``."""
    return np.split(table.order, table.offsets[1:-1])


def count_accesses(trace: list[AccessEvent]) -> dict:
    """A trace folded event by event into a level table, levels in first-touch order.

    The table has ``count_walks``'s form: ``{level: {"reads", "writes",
    "words_read", "words_written"}}``.
    """
    counts: dict[str, dict] = {}
    for ev in trace:
        if ev.level not in LEVEL_GEOMETRY:
            raise TraceError(f"trace references unknown level {ev.level!r} (event at cycle {ev.cycle}, unit {ev.unit!r})")
        c = counts.setdefault(ev.level, {"reads": 0, "writes": 0, "words_read": 0, "words_written": 0})
        if ev.direction == "read":
            c["reads"] += 1
            c["words_read"] += ev.words
        else:
            c["writes"] += 1
            c["words_written"] += ev.words
    return counts
