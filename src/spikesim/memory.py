"""Memory hierarchy model: calibration tables, access counting, capacity checks.

Latency, power, area, and frequency numbers are calibrated constants taken
from signed-off physical implementations of the two designs (a conventional
2D floorplan and a face-to-face stacked 3D floorplan); the simulator never
derives them.  What the simulator does derive are access counts and the
energy proxy count * access_power * access_latency, reported in femtojoules
(1 mW * 1 ps = 1 fJ).  Derived and calibrated quantities are kept in separate
report sections so they cannot be confused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationValidationError, ConfigError, TraceError
from .levels import (
    ACT_BUFFER,
    ACT_GLB,
    ACT_LB,
    LEVEL_GEOMETRY,
    MHA_LEVELS,
    MOE_LEVELS,
    WEIGHT_BUFFER,
    WEIGHT_GLB0,
    WEIGHT_GLB1,
    WEIGHT_LB,
)

KINDS = ("moe", "mha")
DESIGNS = ("2d", "3d")


@dataclass(frozen=True)
class MemLevelSpec:
    """One SRAM level: geometry plus calibrated access latency and power."""

    id: str
    words: int
    width_bits: int
    latency_ps: float
    power_mw: float

    def __post_init__(self):
        if self.words < 1 or self.width_bits < 1:
            raise ConfigError(f"level {self.id}: geometry must be positive")
        if not 0 < self.latency_ps < math.inf:
            raise ConfigError(f"level {self.id}: access latency must be positive and finite")
        if not 0 <= self.power_mw < math.inf:
            raise ConfigError(f"level {self.id}: access power must be non-negative and finite")

    @property
    def capacity_bits(self) -> int:
        return self.words * self.width_bits


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

    def to_dict(self) -> dict:
        return {
            "effective_frequency_ghz": self.effective_frequency_ghz,
            "area_mm2": self.area_mm2,
            "num_cells": self.num_cells,
            "internal_power_mw": self.internal_power_mw,
            "switching_power_mw": self.switching_power_mw,
            "leakage_power_mw": self.leakage_power_mw,
            "total_power_mw": self.total_power_mw,
            "memory_access_latency_ps": self.memory_access_latency_ps,
            "memory_access_power_mw": self.memory_access_power_mw,
        }


@dataclass(frozen=True)
class MemCalibration:
    """Per-level specs plus aggregate figures for one (kind, design) flavor."""

    kind: str
    design: str
    levels: dict = field(default_factory=dict)
    aggregate: CalibrationAggregate = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        expected = set(MOE_LEVELS if self.kind == "moe" else MHA_LEVELS)
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


# (latency_ps, power_mw) per level, per (kind, design).  The attention design
# has no weight globals; weights never enter its datapath.
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
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    if design not in DESIGNS:
        raise ConfigError(f"design must be one of {DESIGNS}, got {design!r}")
    levels = {}
    for level, (latency, power) in _LEVEL_TABLE[(kind, design)].items():
        words, width = LEVEL_GEOMETRY[level]
        levels[level] = MemLevelSpec(level, words, width, latency, power)
    return MemCalibration(kind=kind, design=design, levels=levels, aggregate=_AGGREGATE_TABLE[(kind, design)])


# A level's counts, and the event and word fields each direction adds to.
_IDLE = {"reads": 0, "writes": 0, "words_read": 0, "words_written": 0}
_DIRECTION_FIELDS = {"read": ("reads", "words_read"), "write": ("writes", "words_written")}


def count_walks(walks) -> dict:
    """Fold ``(units, Records)`` walks into the report's level table.

    Returns ``{level: {"reads", "writes", "words_read", "words_written"}}``.
    Every walk's records are checked once (``Records.words``; a bad one
    raises TraceError naming the walk's units).  Events and words are summed
    per kind in int64, and a walk shared by several units counts once per
    unit.

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
        touched, first = np.unique(records.kind, return_index=True)
        for k in touched[np.argsort(first)].tolist():
            level, direction, _tag = records.kinds[k]
            counts = table.setdefault(level, dict(_IDLE))
            n_events, n_words = _DIRECTION_FIELDS[direction]
            counts[n_events] += int(events[k]) * len(units)
            counts[n_words] += int(words_per_kind[k]) * len(units)
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
            "levels": {level: v.to_dict() for level, v in sorted(self.verdicts.items())},
        }


def _required_bits_moe(shape: WorkloadShape) -> dict[str, int]:
    n, t, d_in, d_out, e = shape.n, shape.t, shape.d_in, shape.d_out, shape.experts
    weight_block = d_in * d_out * 8
    # act LB worst case: every token routed to one expert, plus its spike output.
    # The tile working sets (one spike slab, one weight row block) are subsets of
    # those residencies, so the max() keeps the dominating term explicit.
    return {
        ACT_GLB: n * t * (d_in + d_out),
        WEIGHT_GLB0: math.ceil(e / 2) * weight_block,
        WEIGHT_GLB1: (e // 2) * weight_block,
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


def capacity_check(shape: WorkloadShape, cal: MemCalibration) -> CapacityReport:
    """Compare per-level residency requirements against SRAM capacities.

    Overflow is a verdict, never an exception: the report names every level
    whose requirement exceeds its capacity.
    """
    if shape.kind != cal.kind:
        raise ConfigError(f"workload kind {shape.kind!r} does not match calibration kind {cal.kind!r}")
    if shape.kind == "moe":
        required = _required_bits_moe(shape)
    elif shape.kind == "mha":
        required = _required_bits_mha(shape)
    else:
        raise ConfigError(f"kind must be one of {KINDS}, got {shape.kind!r}")
    verdicts = {
        level: CapacityVerdict(level, bits, cal.levels[level].capacity_bits)
        for level, bits in required.items()
    }
    return CapacityReport(verdicts)


@dataclass(frozen=True)
class MemReport:
    """Access counts, energy proxies, calibrated aggregates, capacity verdicts."""

    calibration_kind: str
    calibration_design: str
    levels: dict
    total_words: int
    total_energy_fj: float
    aggregate: CalibrationAggregate
    capacity: CapacityReport | None = None

    def to_dict(self) -> dict:
        out = {
            "calibration": {
                "kind": self.calibration_kind,
                "design": self.calibration_design,
                "aggregate": self.aggregate.to_dict(),
            },
            "levels": {level: dict(vals) for level, vals in sorted(self.levels.items())},
            "trace_totals": {
                "total_words": self.total_words,
                "total_energy_fj": self.total_energy_fj,
            },
        }
        if self.capacity is not None:
            out["capacity"] = self.capacity.to_dict()
        return out


def mem_report(counts: dict, cal: MemCalibration, capacity: CapacityReport | None = None) -> MemReport:
    """Weight a ``count_walks`` level table by the calibrated per-access figures.

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
        # An idle level costs exactly 0.0, even under a non-finite calibration.
        energy = words * spec.power_mw * spec.latency_ps if words else 0.0
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
    return MemReport(
        calibration_kind=cal.kind,
        calibration_design=cal.design,
        levels=levels,
        total_words=total_words,
        total_energy_fj=total_energy,
        aggregate=cal.aggregate,
        capacity=capacity,
    )


def dump_calibration(cal: MemCalibration) -> dict:
    """Serialize a calibration into the override-file schema."""
    return {
        "kind": cal.kind,
        "design": cal.design,
        "levels": [
            {
                "id": spec.id,
                "words": spec.words,
                "width_bits": spec.width_bits,
                "latency_ps": spec.latency_ps,
                "power_mw": spec.power_mw,
            }
            for _, spec in sorted(cal.levels.items())
        ],
        "aggregate": cal.aggregate.to_dict(),
    }


# Override-file fields and the type each converts to.
_LEVEL_FIELDS = (("id", str), ("words", int), ("width_bits", int), ("latency_ps", float), ("power_mw", float))
_AGGREGATE_FIELDS = (
    ("effective_frequency_ghz", float),
    ("area_mm2", float),
    ("num_cells", int),
    ("internal_power_mw", float),
    ("switching_power_mw", float),
    ("leakage_power_mw", float),
    ("total_power_mw", float),
    ("memory_access_latency_ps", float),
    ("memory_access_power_mw", float),
)


# The JSON type each field takes, as Python types json.load produces; a bool
# is never one (JSON true/false load as Python bool, a subclass of int).
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


def _convert_fields(entry, fields, where: str, violations: list[str]) -> dict | None:
    """Convert ``entry``'s fields, appending a violation per problem; None if any.

    Each field takes only its own JSON type: a string, an integer (int()
    would truncate 8192.9 and read true as 1) or a number (float() would
    read "148" and true).
    """
    if not isinstance(entry, dict):
        violations.append(f"{where} must be a mapping, got {type(entry).__name__}")
        return None
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


def load_calibration(source) -> MemCalibration:
    """Load a calibration override from a path or an already-parsed document.

    Every problem found is collected and raised together as a
    :class:`CalibrationValidationError`, the way the workload parser reports.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            try:
                doc = json.load(fh)
            except ValueError as err:  # malformed JSON or undecodable bytes
                problem = f"calibration file {source!r} is not valid JSON: {err}"
                raise CalibrationValidationError([problem]) from None
    else:
        doc = source
    if not isinstance(doc, dict):
        raise CalibrationValidationError(["calibration document must be a mapping"])
    violations = [
        f"calibration document missing {key!r}" for key in ("design", "levels", "aggregate") if key not in doc
    ]
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
            spec = MemLevelSpec(**fields)
        except ConfigError as err:
            violations.append(str(err))
            continue
        # Traffic is sized in LEVEL_GEOMETRY words, so another geometry would
        # move the capacity verdicts but not the word counts.
        modeled = LEVEL_GEOMETRY.get(level)
        if modeled is not None and (spec.words, spec.width_bits) != modeled:
            violations.append(
                f"level {level}: geometry {spec.words} words x {spec.width_bits} bits differs from the "
                f"modeled {modeled[0]} words x {modeled[1]} bits"
            )
            continue
        levels[level] = spec
    aggregate = None
    if "aggregate" in doc:
        fields = _convert_fields(doc["aggregate"], _AGGREGATE_FIELDS, "calibration aggregate", violations)
        if fields is not None:
            aggregate = CalibrationAggregate(**fields)
    if violations:
        raise CalibrationValidationError(violations)
    kind = doc.get("kind")
    if kind is None:
        kind = "moe" if WEIGHT_GLB0 in levels else "mha"
    try:
        return MemCalibration(kind=kind, design=str(doc["design"]), levels=levels, aggregate=aggregate)
    except ConfigError as err:
        raise CalibrationValidationError([str(err)]) from None
