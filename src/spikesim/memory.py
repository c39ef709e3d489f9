"""Memory hierarchy model: calibration tables, access counting, capacity checks.

Latency, power, area, and frequency numbers are calibrated constants taken
from signed-off physical implementations of the two designs (a conventional
2D floorplan and a face-to-face stacked 3D floorplan); the simulator never
derives them.  What the simulator does derive are access counts and the
energy proxy count * access_power * access_latency, reported in femtojoules
(1 mW * 1 ps = 1 fJ).  Derived and calibrated quantities are kept in separate
report sections so they cannot be confused.  ``KINDS`` holds each
accelerator kind's levels and residency.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .errors import CalibrationValidationError, ConfigError, TraceError
from .levels import (
    ACT_BUFFER,
    ACT_GLB,
    ACT_LB,
    LEVEL_GEOMETRY,
    WEIGHT_BANKS,
    WEIGHT_BUFFER,
    WEIGHT_GLB0,
    WEIGHT_GLB1,
    WEIGHT_LB,
)

DESIGNS = ("2d", "3d")


@dataclass(frozen=True)
class MemLevelSpec:
    """One SRAM level's calibrated access latency and power; its geometry is ``LEVEL_GEOMETRY``'s."""

    id: str
    latency_ps: float
    power_mw: float

    def __post_init__(self):
        if not 0 < self.latency_ps < math.inf:
            raise ConfigError(f"level {self.id}: access latency must be positive and finite")
        if not 0 <= self.power_mw < math.inf:
            raise ConfigError(f"level {self.id}: access power must be non-negative and finite")
        if self.power_mw == 0:  # -0.0 would price every word this level moves as -0.0 fJ
            object.__setattr__(self, "power_mw", 0.0)


@dataclass(frozen=True)
class CalibrationAggregate:
    """Whole-design calibrated figures.

    Effective frequency, cell count, and the logic power split (internal /
    switching / leakage) are echoed as metadata; the memory access figures
    and area feed the design-comparison report.
    """

    effective_frequency_ghz: float
    area_mm2: float
    num_cells: int
    internal_power_mw: float
    switching_power_mw: float
    leakage_power_mw: float
    total_power_mw: float
    memory_access_latency_ps: float
    memory_access_power_mw: float


@dataclass(frozen=True)
class MemCalibration:
    """Per-level specs plus aggregate figures for one (kind, design) flavor."""

    kind: str
    design: str
    levels: dict = field(default_factory=dict)
    aggregate: CalibrationAggregate = None

    def __post_init__(self):
        if self.kind not in tuple(KINDS):  # a tuple: a list or mapping kind is unhashable
            raise ConfigError(f"kind must be one of {tuple(KINDS)}, got {self.kind!r}")
        expected = set(KINDS[self.kind].levels)
        got = set(self.levels)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ConfigError(
                f"calibration level set mismatch for kind {self.kind!r}: "
                f"missing {missing}, unexpected {extra}"
            )
        if self.aggregate is None:
            raise ConfigError("calibration needs aggregate figures")


# (latency_ps, power_mw) per level of each (kind, design), in the kind's level order.
_LEVEL_TABLE = {
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
}

_AGGREGATE_TABLE = {
    ("mha", "2d"): CalibrationAggregate(2.13, 5.53, 169046, 863.0, 30.0, 19.0, 912.0, 160.0, 6.23),
    ("mha", "3d"): CalibrationAggregate(2.24, 3.36, 167983, 859.0, 18.0, 18.0, 896.0, 112.0, 4.41),
    ("moe", "2d"): CalibrationAggregate(1.69, 2.97, 339846, 6777.0, 67.0, 144.0, 6989.0, 202.0, 7.11),
    ("moe", "3d"): CalibrationAggregate(1.74, 1.75, 339693, 5716.0, 116.0, 111.0, 5983.0, 172.0, 5.2),
}

def builtin_calibration(kind: str, design: str) -> MemCalibration:
    """The built-in calibration preset for one accelerator kind and design flavor."""
    if kind not in tuple(KINDS):
        raise ConfigError(f"kind must be one of {tuple(KINDS)}, got {kind!r}")
    if design not in DESIGNS:
        raise ConfigError(f"design must be one of {DESIGNS}, got {design!r}")
    levels = {level: MemLevelSpec(level, *prices) for level, prices in _LEVEL_TABLE[(kind, design)].items()}
    return MemCalibration(kind=kind, design=design, levels=levels, aggregate=_AGGREGATE_TABLE[(kind, design)])


# A level's counts, and the event and word fields each direction adds to.
_IDLE = {"reads": 0, "writes": 0, "words_read": 0, "words_written": 0}
_DIRECTION_FIELDS = {"read": ("reads", "words_read"), "write": ("writes", "words_written")}


def count_walks(walks) -> dict:
    """Fold ``(units, Records)`` walks into the report's level table.

    Returns ``{level: {"reads", "writes", "words_read", "words_written"}}``.
    Every walk's records are checked once (``Records.words``; a bad one
    raises TraceError naming the walk's units).  Events and words are summed
    per kind over the walk's rows in int64, and each sum counts once per
    record a row stands for: ``repeats`` copies for each of the walk's units.

    Levels are ordered by unit name (``expert10`` before ``expert2``), each
    unit's levels in the order its walk first touches them; a walk's levels
    take the place of its first unit.  That order fixes the summation order
    of the energy total, so it is part of the report's bytes.
    """
    table: dict[str, dict] = {}
    for units, records in sorted(walks, key=lambda walk: min(walk[0])):
        words = records.words(units)
        events = np.bincount(records.kind, minlength=len(records.kinds))
        words_per_kind = np.zeros(len(records.kinds), np.int64)
        np.add.at(words_per_kind, records.kind, words)
        copies = len(units) * records.repeats
        first = np.full(len(records.kinds), len(records.kind))  # each kind's first row, or the row count if none
        np.minimum.at(first, records.kind, np.arange(len(records.kind)))
        for k in first.argsort()[: np.count_nonzero(events)].tolist():
            level, direction, _tag = records.kinds[k]
            counts = table.setdefault(level, dict(_IDLE))
            n_events, n_words = _DIRECTION_FIELDS[direction]
            counts[n_events] += int(events[k]) * copies
            counts[n_words] += int(words_per_kind[k]) * copies
    return table


@dataclass(frozen=True)
class WorkloadShape:
    """The dimensions of one run, as needed for residency arithmetic."""

    kind: str
    n: int
    t: int
    d_in: int = 0
    d_out: int = 0
    experts: int = 0
    heads: int = 0
    d_head: int = 0
    tile_rows: int = 16
    tile_cols: int = 128


@dataclass(frozen=True)
class CapacityVerdict:
    level: str
    required_bits: int
    capacity_bits: int

    @property
    def fits(self) -> bool:
        return self.required_bits <= self.capacity_bits

    def to_dict(self) -> dict:
        return {
            "required_bits": self.required_bits,
            "capacity_bits": self.capacity_bits,
            "fits": self.fits,
        }


@dataclass(frozen=True)
class CapacityReport:
    verdicts: dict

    @property
    def fits(self) -> bool:
        return all(v.fits for v in self.verdicts.values())

    @property
    def overflowing(self) -> list[str]:
        return sorted(level for level, v in self.verdicts.items() if not v.fits)

    def to_dict(self) -> dict:
        return {
            "fits": self.fits,
            "overflowing": self.overflowing,
            "levels": {level: v.to_dict() for level, v in self.verdicts.items()},
        }


def _required_bits_moe(shape: WorkloadShape) -> dict[str, int]:
    n, t, d_in, d_out, e = shape.n, shape.t, shape.d_in, shape.d_out, shape.experts
    weight_block = d_in * d_out * 8
    # act LB worst case: every token routed to one expert, plus its spike output.
    # The tile working sets (one spike slab, one weight row block) are subsets of
    # those residencies, so the max() keeps the dominating term explicit.
    return {
        ACT_GLB: n * t * (d_in + d_out),
        # Bank b holds the weight blocks of experts b, b + len(WEIGHT_BANKS), ...
        **{bank: len(range(b, e, len(WEIGHT_BANKS))) * weight_block for b, bank in enumerate(WEIGHT_BANKS)},
        ACT_LB: max(n * t * (d_in + d_out), shape.tile_cols * d_in),
        WEIGHT_LB: max(weight_block, min(shape.tile_rows, d_out) * d_in * 8),
        # The small bottom-tier macros are streaming staging: they only ever
        # hold one injection column or one extraction row at a time.
        ACT_BUFFER: max(shape.tile_cols, shape.tile_rows * 16),
        WEIGHT_BUFFER: shape.tile_rows * 8,
    }


def _required_bits_mha(shape: WorkloadShape) -> dict[str, int]:
    n, t, d = shape.n, shape.t, shape.d_head
    return {
        ACT_GLB: n * t * 4 * shape.heads * d,  # Q, K, V plus the output slab
        ACT_LB: n * t * 4 * d,  # one head resident per core
        WEIGHT_LB: 0,  # no weights in the attention datapath
        ACT_BUFFER: max(3 * n * d, shape.tile_rows * d * 16),
        WEIGHT_BUFFER: 0,
    }


class KindMemory(NamedTuple):
    levels: tuple[str, ...]  # in report order
    residency: Callable[[WorkloadShape], dict[str, int]]  # required bits per level


KINDS = {
    "moe": KindMemory((ACT_GLB, WEIGHT_GLB0, WEIGHT_GLB1, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER), _required_bits_moe),
    "mha": KindMemory((ACT_GLB, ACT_LB, WEIGHT_LB, ACT_BUFFER, WEIGHT_BUFFER), _required_bits_mha),
}


def capacity_check(shape: WorkloadShape, cal: MemCalibration) -> CapacityReport:
    """Compare per-level residency requirements against the ``LEVEL_GEOMETRY`` capacities, which no flavor changes.

    Overflow is a verdict, never an exception: the report names every level
    whose requirement exceeds its capacity.
    """
    if shape.kind != cal.kind:
        raise ConfigError(f"workload kind {shape.kind!r} does not match calibration kind {cal.kind!r}")
    required = KINDS[shape.kind].residency(shape)
    verdicts = {
        level: CapacityVerdict(level, bits, math.prod(LEVEL_GEOMETRY[level]))
        for level, bits in required.items()
    }
    return CapacityReport(verdicts)


@dataclass(frozen=True)
class MemReport:
    """Access counts, energy proxies, capacity verdicts and the calibration they were priced with."""

    calibration: MemCalibration
    levels: dict
    total_words: int
    total_energy_fj: float
    capacity: CapacityReport

    def to_dict(self) -> dict:
        cal = self.calibration
        return {
            "calibration": {"kind": cal.kind, "design": cal.design, "aggregate": dict(vars(cal.aggregate))},
            "levels": self.levels,
            "trace_totals": {
                "total_words": self.total_words,
                "total_energy_fj": self.total_energy_fj,
            },
            "capacity": self.capacity.to_dict(),
        }


def mem_report(counts: dict, cal: MemCalibration, capacity: CapacityReport) -> MemReport:
    """Weight a ``count_walks`` level table by the calibrated per-access figures, with the run's capacity verdict.

    The energy proxy for a level is words_moved * access_power_mw *
    access_latency_ps, i.e. femtojoules.  Calibrated aggregates are echoed
    untouched in their own section.
    """
    levels = {}
    total_energy = 0.0
    total_words = 0
    # Levels with no traffic still appear, with zero counts.
    for level in {**counts, **cal.levels}:
        if level not in cal.levels:
            raise TraceError(
                f"trace touches level {level!r} which the {cal.kind}/{cal.design} calibration does not define"
            )
        spec = cal.levels[level]
        c = counts.get(level, _IDLE)
        words = c["words_read"] + c["words_written"]
        energy = words * spec.power_mw * spec.latency_ps
        total_energy += energy
        total_words += words
        levels[level] = {
            **c,
            "access_latency_ps": spec.latency_ps,
            "access_power_mw": spec.power_mw,
            "energy_fj": energy,
        }
    # Finite figures can still overflow: words * power * latency past 1.8e308.
    overflowed = [f"level {level}" for level, vals in levels.items() if not math.isfinite(vals["energy_fj"])]
    if overflowed or not math.isfinite(total_energy):
        raise ConfigError(
            f"energy under the {cal.kind}/{cal.design} calibration is not finite for "
            f"{', '.join(overflowed) or 'the total'}"
        )
    return MemReport(cal, levels, total_words, total_energy, capacity)


def dump_calibration(cal: MemCalibration) -> dict:
    """Serialize a calibration into the override-file schema: each record's fields as declared."""
    return {
        **vars(cal),
        "levels": [dict(vars(spec)) for _, spec in sorted(cal.levels.items())],
        "aggregate": dict(vars(cal.aggregate)),
    }


# Override-file fields and the type each converts to, as the records declare them.
_LEVEL_FIELDS = tuple(get_type_hints(MemLevelSpec).items())
_AGGREGATE_FIELDS = tuple(get_type_hints(CalibrationAggregate).items())
_DOCUMENT_KEYS = frozenset(get_type_hints(MemCalibration))


# The JSON type each field takes, as Python types json.load produces; a bool
# is never one (JSON true/false load as Python bool, a subclass of int).
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


def _unknown_keys(entry: dict, known, where: str) -> list[str]:
    """A violation per key of ``entry`` outside ``known``: a mistyped override is listed, not ignored."""
    return [f"{where} has unknown key {key!r}" for key in sorted(entry.keys() - known, key=str)]


def _convert_fields(entry, fields, where: str, violations: list[str]) -> dict | None:
    """Convert ``entry``'s fields, appending a violation per problem; None if any.

    A key that is not a field is a problem too.  Each field takes only its
    own JSON type: a string, an integer (int() would truncate 339846.9 and
    read true as 1) or a number (float() would read "148" and true).
    """
    if not isinstance(entry, dict):
        violations.append(f"{where} must be a mapping, got {type(entry).__name__}")
        return None
    violations += _unknown_keys(entry, {name for name, _ in fields}, where)
    out = {}
    for name, cast in fields:
        if name not in entry:
            violations.append(f"{where} missing field {name!r}")
            continue
        value = entry[name]
        types, expected = _JSON_TYPES[cast]
        if isinstance(value, bool) or not isinstance(value, types):
            violations.append(f"{where} field {name!r} must be {expected}, got {value!r}")
            continue
        try:
            value = cast(value)
        except OverflowError:  # an integer too large for a float
            violations.append(f"{where} field {name!r} is not a valid {cast.__name__}: {entry[name]!r}")
            continue
        # NaN and infinity parse as floats but would price traffic as NaN or inf.
        if cast is float and not math.isfinite(value):
            violations.append(f"{where} field {name!r} must be finite, got {entry[name]!r}")
            continue
        out[name] = value
    return out if len(out) == len(fields) else None


def _unique_keys_object(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key it gives twice (``json`` would keep the last silently)."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is given more than once in one object")
        doc[key] = value
    return doc


def read_json(fh):
    """``json.load(fh)``, refusing a repeated key in any object with ValueError."""
    return json.load(fh, object_pairs_hook=_unique_keys_object)


def load_calibration(source) -> MemCalibration:
    """Load a calibration override from a path (str, bytes or path-like) or an already-parsed document.

    Every problem found is collected and raised together as a
    :class:`CalibrationValidationError`, the way the workload parser reports.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source) as fh:
            try:
                doc = read_json(fh)
            # Malformed JSON, a repeated key, undecodable bytes, or nesting too deep to parse.
            except (ValueError, RecursionError) as err:
                problem = f"calibration file {os.fspath(source)!r} is not valid JSON: {err}"
                raise CalibrationValidationError([problem]) from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise CalibrationValidationError(["calibration document must be a mapping"])
    violations = [
        f"calibration document missing {key!r}" for key in ("design", "levels", "aggregate") if key not in doc
    ]
    violations += _unknown_keys(doc, _DOCUMENT_KEYS, "calibration document")
    design = doc.get("design", "")  # a missing design is listed above
    if not isinstance(design, str):
        violations.append(f"calibration design must be a string, got {design!r}")
    levels = {}
    first_entry: dict[str, int] = {}
    entries = doc.get("levels", [])
    if not isinstance(entries, list):
        violations.append("calibration levels must be a list")
        entries = []
    for i, entry in enumerate(entries):
        fields = _convert_fields(entry, _LEVEL_FIELDS, f"calibration level {i}", violations)
        if fields is None:
            continue
        level = fields["id"]
        if level in first_entry:
            violations.append(f"calibration level {i} repeats level id {level!r} of level {first_entry[level]}")
            continue
        first_entry[level] = i
        try:
            levels[level] = MemLevelSpec(**fields)
        except ConfigError as err:
            violations.append(str(err))
    aggregate = None
    if "aggregate" in doc:
        fields = _convert_fields(doc["aggregate"], _AGGREGATE_FIELDS, "calibration aggregate", violations)
        if fields is not None:
            aggregate = CalibrationAggregate(**fields)
    if violations:
        raise CalibrationValidationError(violations)
    kind = doc.get("kind")
    if kind is None:  # the kind sharing the most levels with the file, ties to the one with fewer
        kind = max(KINDS, key=lambda name: (len(levels.keys() & KINDS[name].levels), -len(KINDS[name].levels)))
    try:
        return MemCalibration(kind=kind, design=design, levels=levels, aggregate=aggregate)
    except ConfigError as err:
        raise CalibrationValidationError([str(err)]) from None
