"""Experiment orchestration: parse a workload, run it, compare design flavors.

A run is fully determined by its plan: inputs are synthesized from the plan
seed (Bernoulli spikes, uniform integer weights), the functional pipeline and
the timing/memory models consume only plan-derived values, and reports are
emitted with stable field ordering.  Two runs of the same plan produce
byte-identical reports.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import dataflow, memory
from .dataflow import ArrayGeometry
from .errors import ConfigError, WorkloadValidationError
from .levels import ACT_GLB, ACT_LB
from .mha import MhaConfig, mha_forward
from .moe import _BLOCK_ROWS, MoeLayerConfig, RoutingWeights, moe_layer_forward
from .tensors import _F32_EXACT, QuantWeightMatrix, SpikeTensor, _adopt

SCHEMA_VERSION = "1"

CALIBRATION_SOURCES = ("builtin2d", "builtin3d", "file")

ROUTING_CSV_COLUMNS = ("token_id", "rank", "expert_id", "score")

_INF = float("inf")

# A plan whose estimated footprint (plan_bytes) exceeds this is refused
# before any input is synthesized.
MAX_PLAN_BYTES = 1 << 30

# Trace cycles are int64 columns; this bound leaves room for any makespan
# under the size cap.
MAX_ROUTER_OVERHEAD_CYCLES = 1 << 53

# Elements per chunk of a spike draw: a larger draw goes through one reused
# float64 buffer of this many elements (8 MiB), not one float64 per element.
_DRAW_CHUNK = 1 << 20

# Bytes behind plan_bytes, each rounded up.  A MoE input draw costs its
# float64 uniforms, one chunk at most, and an input element its uint8 spikes
# and their expert-ordered copy (a one-chunk draw's bool is gone before the
# copy is made); an output element the layer's int16 integration, the fired
# bool, the merged uint8 and the bitstream of the digest; an output neuron
# its potential (int64 at most) and spike buffer.  An input (token, feature)
# pair costs its routing spike count and that count's float operand.  An
# expert's integration runs blocks of at most moe._BLOCK_ROWS rows, each
# holding a float operand per input feature and a float result and its int16
# cast per output feature.  A weight costs its int8 value and a float32
# copy.  A routing score (one per token and expert) costs the matmul's float
# result (8 bytes at most) and its int64 cast, which routing reads.  A tile
# holds 8 int64 schedule columns and a 9-slot grid of cycle, kind and bits
# columns, a mask and the record columns cut from it.  The trace writer
# holds at most 8 int64 values per record laid out (units share them): cycle
# and tail base in per-walk parts, joined and sorted, order and walk.
# A chunk holds up to TRACE_CHUNK_ROWS lines of at most 20 cycle digits and
# a 64-byte tail (a unit name of at most 14 characters, a level, a
# direction, a word count of at most 19 digits and a width) three times
# (the grid, the NUL mask, the kept bytes) next to 8 int64 indices.  A tail,
# one per unit and distinct (kind, words) pair of its walk, is held as a
# bytes object, its joined copy and its row of the tail table.  A core
# holds its schedule load and list.  An element of q (or k, v) costs one
# draw, as they are drawn in turn, the uint8 q, k, v and output, and two
# operand copies in mha_forward, float64 once a head's n * d reaches 2**24;
# an entry of the (t, h, d, d) K.T @ V two such floats.  Any run holds its
# report, the report's emission, its calibration and the writer's state.
_DRAW_BYTES = 8
_SPIKE_IN_BYTES = 1 + 1
_SPIKE_OUT_BYTES = 2 + 1 + 1 + 1
_NEURON_BYTES = 8 + 1
_ATTENTION_BYTES = 8 + 4
_WEIGHT_BYTES = 8
_SCORE_BYTES = 8 + 8
_TILE_BYTES = 8 * 8 + 9 * 32
_TRACE_RECORD_BYTES = 64
_TRACE_CHUNK_ROW_BYTES = 3 * (20 + 64) + 8 * 8
_TRACE_TAIL_BYTES = 320
_CORE_BYTES = 128
_RUN_BYTES = 64 * 1024


# A model class is its kind's record.  KEYS gives each field as {report key:
# (attribute, flat alias)}: the config echo writes the key, and the parser also
# accepts the attribute's name inside the section and the alias at top level.
@dataclass(frozen=True)
class MoeModel:
    n: int = 64
    t: int = 4
    d_in: int = 128
    d_out: int = 128
    experts: int = 4
    k: int = 1

    KIND = "moe"
    KEYS = {
        "n": ("n", "N"),
        "t": ("t", "T"),
        "d_in": ("d_in", "D_in"),
        "d_out": ("d_out", "D_out"),
        "e": ("experts", "E"),
        "k": ("k", "K"),
    }
    DERIVED = ()
    EXTRACT_PORTS = True  # its arrays drain tiles through hardware.extract_ports

    @classmethod
    def build(cls, values: dict, violations: list[str]) -> MoeModel:
        e, k = values["e"], values["k"]
        if k > e:
            violations.append(f"model.k ({k}) cannot exceed model.e ({e})")
        elif k != 1:
            violations.append(
                f"top-k routing with k={k} is not supported: merging multiple expert outputs "
                "per token has no defined combination rule"
            )
        return cls(**{cls.KEYS[key][0]: value for key, value in values.items()})

    def footprint(self, hw: HardwareParams) -> tuple[int, int, int, int, int]:
        # The routing product's bound, 128 * t * d_in, is at least spike_matmul's.
        operand = 4 if 128 * self.t * self.d_in < _F32_EXACT else 8
        size = self.n * self.t * self.d_in
        inputs = _DRAW_BYTES * min(size, _DRAW_CHUNK) + _SPIKE_IN_BYTES * size
        inputs += _SPIKE_OUT_BYTES * self.n * self.t * self.d_out
        inputs += (1 + operand) * self.n * self.d_in + _NEURON_BYTES * self.n * self.d_out
        inputs += min(self.n * self.t, _BLOCK_ROWS) * (operand * (self.d_in + self.d_out) + 2 * self.d_out)
        inputs += _WEIGHT_BYTES * self.d_in * self.experts * (self.d_out + 1) + _SCORE_BYTES * self.n * self.experts
        routing = -(-self.n // hw.routing_rows) * -(-self.experts // hw.routing_cols)
        experts = -(-self.d_out // hw.expert_rows) * (-(-self.n * self.t // hw.expert_cols) + self.experts)
        records = 3 * routing + 2 + 9 * experts + 4 * self.experts
        return inputs, routing + experts, records, records, 5 * 4 + 13 * 4 * self.experts + self.experts + 1

    def layer(self, plan: RunPlan) -> _Layer:
        """The MoE layer's functional pass and its router and expert walks.

        An expert's sparsity counts the ones of its tokens' input rows.  A row
        holds t * d_in entries of 0 or 1, so its count is at most t * d_in, and
        it is summed over the flattened row in the smallest unsigned type that
        holds t * d_in, where no partial count can wrap.  Under
        ``MAX_PLAN_BYTES`` that type is at most uint32: ``plan_bytes`` charges
        more than one byte per input element, so a plan it admits has
        t * d_in <= n * t * d_in < 2**30.  An expert's count is one float64
        ``bincount`` sum of its tokens' counts, at most n * t * d_in, so exact.
        """
        m, hw = self, plan.hardware
        rng = np.random.default_rng(plan.seed)
        # Synthesis order is part of the plan contract: input spikes, routing
        # weights, then expert weights in expert order.  Each spike takes one
        # float64 uniform in C order, however the draw is chunked.
        s_in = _synth_spikes(rng, m.n, m.t, m.d_in, plan.spike_prob)
        w_r = RoutingWeights(_synth_weights(rng, m.d_in, m.experts))
        weights = tuple(_synth_weights(rng, m.d_in, m.d_out) for _ in range(m.experts))
        cfg = MoeLayerConfig(experts=m.experts, k=m.k, d_in=m.d_in, d_out=m.d_out, expert_weights=weights)
        s_out, table = moe_layer_forward(s_in, cfg, w_r)

        routing_geom = ArrayGeometry(hw.routing_rows, hw.routing_cols, "routing")
        expert_geom = ArrayGeometry(hw.expert_rows, hw.expert_cols, "expert")
        walks = [(("router",), *dataflow.routing_walk(m.n, m.t, m.d_in, m.experts, routing_geom, hw.extract_ports))]
        token_ones = s_in.data.reshape(m.n, m.t * m.d_in).sum(axis=1, dtype=np.min_scalar_type(m.t * m.d_in))
        ones = np.bincount(table.assignments, token_ones, m.experts)
        counts = np.diff(table.offsets)
        ts = dataflow.plan_expert_tiles(counts, m.t, m.d_in, m.d_out, expert_geom)
        for e, walk in enumerate(dataflow.expert_walks(ts, expert_geom, ones, hw.extract_ports)):
            walks.append(((f"expert{e}",), *walk))
        scheduled = [(f"expert{e}", n_e * m.t * m.d_out) for e, n_e in enumerate(counts.tolist())]

        shape = memory.WorkloadShape(
            kind=self.KIND, n=m.n, t=m.t, d_in=m.d_in, d_out=m.d_out, experts=m.experts,
            tile_rows=hw.expert_rows, tile_cols=hw.expert_cols,
        )
        return _Layer(s_out, table, walks, scheduled, m.t * m.d_in + 16 + m.experts, shape)


@dataclass(frozen=True)
class MhaModel:
    n: int = 64
    t: int = 4
    heads: int = 8
    d_head: int = 16

    KIND = "mha"
    KEYS = {
        "n": ("n", "N"),
        "t": ("t", "T"),
        "h": ("heads", "H"),
        "d": ("d_head", "d"),
        "d_model": ("d_model", "D"),
    }
    DERIVED = ("d", "d_model")  # no default of their own: absent or null, each is derived from the other
    EXTRACT_PORTS = False  # the attention array's timing has no readout ports

    @property
    def d_model(self) -> int:
        return self.heads * self.d_head

    @classmethod
    def build(cls, values: dict, violations: list[str]) -> MhaModel | None:
        heads, d_head = values["h"], values.get("d")
        d_model = values.get("d_model", cls.heads * cls.d_head)
        if d_head is None:
            if d_model % heads != 0:
                violations.append(f"model.d_model ({d_model}) is not divisible by model.h ({heads})")
                return None
            d_head = d_model // heads
        elif "d_model" in values and heads * d_head != d_model:
            violations.append(
                f"model.h * model.d = {heads}*{d_head} = {heads * d_head} contradicts model.d_model = {d_model}"
            )
        return cls(n=values["n"], t=values["t"], heads=heads, d_head=d_head)

    def footprint(self, hw: HardwareParams) -> tuple[int, int, int, int, int]:
        operand = 4 if self.n * self.d_head < _F32_EXACT else 8
        inputs = (_ATTENTION_BYTES + 2 * operand) * self.n * self.t * self.d_model
        inputs += 2 * operand * self.t * self.heads * self.d_head**2
        n_tiles = 2 * self.t * -(-self.n // hw.attention_rows) * -(-self.n // hw.attention_cols)
        head = 3 * n_tiles + 2 * self.t + 2
        return inputs, n_tiles, head + self.heads + 1, self.heads * (head + 1) + 1, self.heads * 9 * 8 + 2

    def layer(self, plan: RunPlan) -> _Layer:
        m, hw = self, plan.hardware
        rng = np.random.default_rng(plan.seed)
        # Synthesis order: queries, keys, values.
        q = _synth_spikes(rng, m.n, m.t, m.d_model, plan.spike_prob)
        k = _synth_spikes(rng, m.n, m.t, m.d_model, plan.spike_prob)
        v = _synth_spikes(rng, m.n, m.t, m.d_model, plan.spike_prob)
        cfg = MhaConfig(heads=m.heads, d_head=m.d_head)
        s_out = mha_forward(q, k, v, cfg)

        attn_geom = ArrayGeometry(hw.attention_rows, hw.attention_cols, "attention")
        heads = tuple(f"attn{h}" for h in range(m.heads))
        # Heads run the same tile schedule and differ only in their unit name,
        # and a head's timesteps run the same tiles, so one walk of one (head,
        # timestep) group times and counts all of them, its ingress walk first.
        ts = dataflow.plan_attention_tiles(m.n, m.d_head, 1, 1, attn_geom)
        stats, ingress, group = dataflow.repeat_timesteps(*dataflow.attention_walk(ts, attn_geom), m.t)
        walks = [(heads, stats, ingress), (heads, stats, group)]
        scheduled = [(unit, m.n * m.t * m.d_head) for unit in heads]

        shape = memory.WorkloadShape(
            kind=self.KIND, n=m.n, t=m.t, heads=m.heads, d_head=m.d_head,
            tile_rows=hw.attention_rows, tile_cols=hw.attention_cols,
        )
        return _Layer(s_out, None, walks, scheduled, 0, shape)


KINDS = {model.KIND: model for model in (MoeModel, MhaModel)}


@dataclass(frozen=True)
class HardwareParams:
    cores: int = 4
    expert_rows: int = 16
    expert_cols: int = 128
    routing_rows: int = 16
    routing_cols: int = 8
    attention_rows: int = 16
    attention_cols: int = 16
    extract_ports: int | None = None
    router_overhead_cycles: int | None = None


@dataclass(frozen=True)
class RunPlan:
    model: MoeModel | MhaModel
    hardware: HardwareParams = field(default_factory=HardwareParams)
    calibration_source: str = "builtin2d"
    calibration_path: str | None = None
    spike_prob: float = 0.2
    seed: int = 0

    @property
    def kind(self) -> str:
        return self.model.KIND

    def to_dict(self) -> dict:
        hw = self.hardware
        return {
            "kind": self.kind,
            "model": {key: getattr(self.model, attr) for key, (attr, _) in self.model.KEYS.items()},
            "hardware": {
                "cores": hw.cores,
                **{f"{array}_array": {dim: getattr(hw, f"{array}_{dim}") for dim in ("rows", "cols")} for array in _ARRAYS},
                "extract_ports": hw.extract_ports,
                "router_overhead_cycles": hw.router_overhead_cycles,
            },
            "calibration": {"source": self.calibration_source, "path": self.calibration_path},
            "input": {key: getattr(self, attr) for key, (attr, _) in _INPUT_KEYS.items()},
        }


_INPUT_KEYS = {"spike_prob": ("spike_prob", "spike_prob"), "seed": ("seed", "seed")}

# HardwareParams' arrays: ``<name>_array.rows/cols`` in a document, ``<name>_rows/_cols`` on the dataclass.
_ARRAYS = ("expert", "routing", "attention")


def _as_int(value, name: str, minimum: int, violations: list[str]) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        violations.append(f"{name} must be an integer, got {value!r}")
        return None
    if value < minimum:
        violations.append(f"{name} must be >= {minimum}, got {value}")
        return None
    return value


def parse_workload(doc: dict, seed: int | None = None) -> RunPlan:
    """Validate a configuration document and normalize it into a RunPlan.

    ``seed``, when given, is the ``--seed`` override of ``input.seed`` and
    is checked the same way.  Every violation is collected; the raised
    error lists all of them at once rather than stopping at the first.
    """
    if not isinstance(doc, dict):
        raise WorkloadValidationError(["configuration document must be a mapping"])
    violations: list[str] = []
    doc = dict(doc)

    model_doc, hw_doc, cal_doc, input_doc = (
        _section(doc, name, violations) for name in ("model", "hardware", "calibration", "input")
    )
    kind = doc.pop("kind", None)
    record = KINDS[kind] if kind in tuple(KINDS) else None  # a tuple: a list or mapping kind is unhashable
    if record is None:
        violations.append(f"kind must be 'moe' or 'mha', got {kind!r}")
    # Without a valid kind no model is built, but every kind's spellings are still consumed.
    model_keys = record.KEYS if record else {key: spelling for m in KINDS.values() for key, spelling in m.KEYS.items()}
    model_fields = _resolve(doc, model_doc, "model", model_keys, violations)
    input_fields = _resolve(doc, input_doc, "input", _INPUT_KEYS, violations)
    for key in sorted(doc):
        violations.append(f"unknown top-level key {key!r}")

    model = _parse_model(record, model_fields, model_doc, violations) if record else None
    hardware = _parse_hardware(hw_doc, violations)
    violations += _port_violations(record, hardware) if record else []

    source = cal_doc.pop("source", RunPlan.calibration_source)
    path = cal_doc.pop("path", RunPlan.calibration_path)
    if source not in CALIBRATION_SOURCES:
        violations.append(f"calibration.source must be one of {CALIBRATION_SOURCES}, got {source!r}")
    elif source == "file" and not path:
        violations.append("calibration.source 'file' requires calibration.path")
    elif source != "file" and isinstance(path, str):
        violations.append(f"calibration.path is read only with source 'file', got source {source!r}")
    if path is not None and not isinstance(path, str):
        violations.append(f"calibration.path must be a string, got {path!r}")
    for key in sorted(cal_doc):
        violations.append(f"unknown calibration key {key!r}")

    spike_prob = input_fields.get("spike_prob", RunPlan.spike_prob)
    if not isinstance(spike_prob, (int, float)) or isinstance(spike_prob, bool) or not 0.0 <= spike_prob <= 1.0:
        violations.append(f"input.spike_prob must lie in [0, 1], got {spike_prob!r}")
    checked_seed = _as_int(input_fields.get("seed", RunPlan.seed), "input.seed", 0, violations)
    if seed is not None:
        checked_seed = _as_int(seed, "--seed", 0, violations)
    for key in sorted(input_doc):
        violations.append(f"unknown input key {key!r}")

    if violations:
        raise WorkloadValidationError(violations)
    return RunPlan(
        model=model,
        hardware=hardware,
        calibration_source=source,
        calibration_path=path,
        spike_prob=float(spike_prob),
        seed=checked_seed,
    )


def _section(doc: dict, name: str, violations: list[str], where: str = "") -> dict:
    """A copy of the mapping at ``doc[name]``; absent or null reads as {}.

    ``where`` prefixes ``name`` in the violation for any other non-mapping.
    """
    section = doc.pop(name, None)
    if section is None:
        return {}
    if not isinstance(section, dict):
        violations.append(f"{where}{name} must be a mapping, got {section!r}")
        return {}
    return dict(section)


def _resolve(doc: dict, section: dict, name: str, keys: dict, violations: list[str]) -> dict:
    """Pop every spelling of section ``name``'s fields, ``keys`` as {key: (attribute, alias)}.

    A field is spelled by its key or its attribute's name inside ``section``,
    or by its flat alias in the top-level ``doc``.  Returns {key: value} for
    the fields given.  A field given under more than one spelling is one
    violation naming them all, and keeps its first spelling's value.  What is
    left in ``section`` is unknown.
    """
    fields = {}
    for key, (attr, alias) in keys.items():
        given = []
        for holder, prefix, spelling in ((section, f"{name}.", key), (section, f"{name}.", attr), (doc, "", alias)):
            if spelling in holder:
                fields.setdefault(key, holder.pop(spelling))
                given.append(prefix + spelling)
        if len(given) > 1:
            violations.append(f"{name}.{key} is given more than once: as {', '.join(given)}")
    return fields


def _parse_model(record, fields: dict, model_doc: dict, violations: list[str]):
    for key in sorted(model_doc):
        violations.append(f"unknown model key {key!r} for kind {record.KIND!r}")
    values = {
        key: _as_int(fields[key] if key in fields else getattr(record, attr), f"model.{key}", 1, violations)
        for key, (attr, _) in record.KEYS.items()
        if fields.get(key) is not None or key not in record.DERIVED
    }
    return None if None in values.values() else record.build(values, violations)


def _port_violations(model, hardware: HardwareParams) -> list[str]:
    """A set extract_ports on a kind timed without readout ports; null is the config echo's absent."""
    if not model.EXTRACT_PORTS and hardware.extract_ports is not None:
        return [f"hardware.extract_ports applies only to kind 'moe', got {hardware.extract_ports} for kind {model.KIND!r}"]
    return []


def _parse_hardware(hw_doc: dict, violations: list[str]) -> HardwareParams:
    default = HardwareParams
    fields = {"cores": _as_int(hw_doc.pop("cores", default.cores), "hardware.cores", 1, violations)}
    for array in _ARRAYS:
        name = f"{array}_array"
        sub = _section(hw_doc, name, violations, "hardware.")
        for dim in ("rows", "cols"):
            attr = f"{array}_{dim}"
            fields[attr] = _as_int(sub.pop(dim, getattr(default, attr)), f"hardware.{name}.{dim}", 1, violations)
        for key in sorted(sub):
            violations.append(f"unknown hardware.{name} key {key!r}")
    # Absent or null, these are derived from the plan when it runs.
    for key, minimum in (("extract_ports", 1), ("router_overhead_cycles", 0)):
        value = hw_doc.pop(key, None)
        fields[key] = None if value is None else _as_int(value, f"hardware.{key}", minimum, violations)
    overhead = fields["router_overhead_cycles"]
    if overhead is not None and overhead > MAX_ROUTER_OVERHEAD_CYCLES:
        violations.append(f"hardware.router_overhead_cycles must be <= {MAX_ROUTER_OVERHEAD_CYCLES}, got {overhead}")
    for key in sorted(hw_doc):
        violations.append(f"unknown hardware key {key!r}")
    return HardwareParams(**fields)


def plan_bytes(plan: RunPlan) -> int:
    """Estimated peak bytes of a run of ``plan`` with its trace, from its shape alone.

    The tile and record counts are upper bounds: the expert array's column
    tiles are at most n * t / cols plus one per expert, an expert tile emits
    at most 9 records, a routing tile 3, an attention tile 3 on average (a
    phase-1 tile 2, a phase-2 tile at most 4) and the merge one per unit
    plus one.  Every timestep's tiles and records are charged, as the trace
    lays them out, but heads share records and multiply only the trace
    rows, which bound the chunk and the tails.  A walk's distinct (kind,
    words) pairs, and so its tails per unit, are at most its slots times its
    tile shapes: a tile is full or an edge on each axis, an attention tile
    runs in one of two phases, and the merge has a pair per distinct unit
    output size and one for its write.  No unit has more tails than rows.
    A fixed term charges what any run holds, however small its plan.
    """
    inputs, n_tiles, records, rows, tails = plan.model.footprint(plan.hardware)
    trace = (
        _TRACE_RECORD_BYTES * records + _TRACE_CHUNK_ROW_BYTES * min(rows, dataflow.TRACE_CHUNK_ROWS)
        + _TRACE_TAIL_BYTES * min(tails, rows)
    )
    return _RUN_BYTES + inputs + _TILE_BYTES * n_tiles + trace + _CORE_BYTES * plan.hardware.cores


@dataclass
class RunResult:
    """Serializable outcome of one run plus in-memory artifacts for dumps.

    ``mem.calibration`` is the table the run was priced with.  ``walks`` holds
    one ``(units, Records)`` pair per distinct array run plus the merge
    egress; ``dataflow.write_trace_csv`` merges them into the trace.
    """

    kind: str
    config: dict
    output_digest: str
    system_cycles: dataflow.CycleStats
    unit_cycles: dict
    core_assignment: list
    mem: memory.MemReport
    s_out: SpikeTensor = None
    routing_table: object = None
    walks: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "config": self.config,
            "output_digest": self.output_digest,
            "cycles": {
                "system": dict(vars(self.system_cycles)),
                "units": {unit: dict(vars(stats)) for unit, stats in self.unit_cycles.items()},
                "core_assignment": self.core_assignment,
            },
            "memory": self.mem.to_dict(),
        }


# The design flavor each built-in calibration source names.
_BUILTIN_DESIGNS = {"builtin2d": "2d", "builtin3d": "3d"}


def resolve_calibration(plan: RunPlan) -> memory.MemCalibration:
    design = _BUILTIN_DESIGNS.get(plan.calibration_source)
    if design is not None:
        return memory.builtin_calibration(plan.kind, design)
    cal = memory.load_calibration(plan.calibration_path)
    if cal.kind != plan.kind:
        raise ConfigError(
            f"calibration file is for kind {cal.kind!r} but the plan is kind {plan.kind!r}"
        )
    return cal


def _digest(s_out: SpikeTensor) -> str:
    return "sha256:" + hashlib.sha256(s_out.to_bytes()).hexdigest()


def _synth_spikes(rng: np.random.Generator, n: int, t: int, d: int, p: float) -> SpikeTensor:
    """(n, t, d) Bernoulli(p) spikes: one float64 uniform per element, in C order, below ``p``.

    A draw of more than ``_DRAW_CHUNK`` elements fills one float64 buffer of
    that many elements chunk by chunk and compares each chunk straight into
    the uint8 spikes, which are adopted.  ``Generator.random`` takes one
    64-bit output per element in C order, so consecutive fills equal one
    fill of the whole draw and leave the generator in the same state.  A
    draw that fits one chunk is one fill and one comparison, and its bool
    result is copied into the spikes: the 8 MiB buffer would raise the peak
    of a run whose draws are small (mha_tiled's, 0.5M elements each).
    """
    size = n * t * d
    if size <= _DRAW_CHUNK:
        return SpikeTensor(rng.random((n, t, d)) < p)
    out = np.empty((n, t, d), dtype=np.uint8)
    spikes = out.reshape(-1).view(bool)
    buf = np.empty(_DRAW_CHUNK)
    for lo in range(0, size, _DRAW_CHUNK):
        hi = min(lo + _DRAW_CHUNK, size)
        chunk = buf[:hi - lo]
        rng.random(out=chunk)
        np.less(chunk, p, out=spikes[lo:hi])
    return _adopt(SpikeTensor, out)


def _synth_weights(rng: np.random.Generator, rows: int, cols: int) -> QuantWeightMatrix:
    return QuantWeightMatrix(rng.integers(-127, 128, size=(rows, cols), dtype=np.int8), 1.0)


class _Layer(NamedTuple):
    """One functional pass and the array runs that time it, before scheduling."""

    s_out: SpikeTensor
    routing_table: object
    walks: list  # (units, CycleStats, Records) per distinct array run
    scheduled: list  # (unit, output bits) per unit placed on the cores, in order
    overhead: int  # the kind's router overhead, unless the plan sets one
    shape: memory.WorkloadShape


def _run(plan: RunPlan, flavors: list[RunPlan]) -> list[RunResult]:
    """Run the pipeline and its capacity check once; price the one level table under each flavor's calibration."""
    # A RunPlan built without parse_workload is held to the same kind rules.
    refused = _port_violations(plan.model, plan.hardware)
    if refused:
        raise WorkloadValidationError(refused)
    footprint = plan_bytes(plan)
    if footprint > MAX_PLAN_BYTES:
        raise WorkloadValidationError(
            [f"plan needs an estimated {footprint} bytes, over the {MAX_PLAN_BYTES}-byte cap"]
        )
    cals = [resolve_calibration(flavor) for flavor in flavors]
    layer = plan.model.layer(plan)

    unit_cycles = {unit: stats for units, stats, _ in layer.walks for unit in units}
    scheduled = [unit_cycles[unit] for unit, _ in layer.scheduled]
    overhead = plan.hardware.router_overhead_cycles
    system, assignment = dataflow.expert_parallel_schedule(
        scheduled, plan.hardware.cores, layer.overhead if overhead is None else overhead
    )

    # Merge: each unit's output leaves its act LB, the layer output lands in the act GLB.
    out_bits = [bits for _, bits in layer.scheduled if bits]
    egress = dataflow.Records(
        ((ACT_LB, "read", "spike"), (ACT_GLB, "write", "spike")),
        np.full(len(out_bits) + 1, system.total_cycles, np.int64),
        np.array([0] * len(out_bits) + [1], np.int64),
        np.array([*out_bits, layer.s_out.data.size], np.int64),
    )
    walks = [*((units, records) for units, _, records in layer.walks), (("merge",), egress)]
    counts = memory.count_walks(walks)
    capacity = memory.capacity_check(layer.shape, cals[0])  # capacities are the architecture's, not a flavor's
    digest = _digest(layer.s_out)
    return [
        RunResult(
            kind=plan.kind,
            config=flavor.to_dict(),
            output_digest=digest,
            system_cycles=system,
            unit_cycles=unit_cycles,
            core_assignment=assignment,
            mem=memory.mem_report(counts, cal, capacity),
            s_out=layer.s_out,
            routing_table=layer.routing_table,
            walks=walks,
        )
        for flavor, cal in zip(flavors, cals)
    ]


def run_experiment(plan: RunPlan) -> RunResult:
    """Synthesize inputs from the plan seed, run the pipeline, build the report."""
    return _run(plan, [plan])[0]


@dataclass
class ComparisonReport:
    """Paired 2D/3D runs of one plan with per-metric reduction percentages."""

    kind: str
    run_2d: RunResult
    run_3d: RunResult
    reductions_pct: dict

    @property
    def functional_equal(self) -> bool:
        return (
            self.run_2d.output_digest == self.run_3d.output_digest
            and self.run_2d.system_cycles.total_cycles == self.run_3d.system_cycles.total_cycles
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "functional_equal": self.functional_equal,
            "reductions_pct": self.reductions_pct,
            "run_2d": self.run_2d.to_dict(),
            "run_3d": self.run_3d.to_dict(),
        }


def compare_designs(plan: RunPlan) -> ComparisonReport:
    """Price one run of a plan under the built-in 2D and 3D calibrations and diff them.

    The design flavor is a pure memory-model swap, so the pipeline runs once
    and both flavors share its output, cycles and access counts.  Reductions
    are (value_2d - value_3d) / value_2d * 100 per aggregate metric; a
    negative reduction is an increase (effective frequency goes up with
    stacking).
    """
    if plan.calibration_source == "file":
        raise ConfigError("compare needs the built-in calibration pair; the plan pins a calibration file")
    flavors = [replace(plan, calibration_source=source, calibration_path=None) for source in ("builtin2d", "builtin3d")]
    run_2d, run_3d = _run(plan, flavors)
    agg2 = vars(run_2d.mem.calibration.aggregate)
    agg3 = vars(run_3d.mem.calibration.aggregate)
    reductions = {}
    for key, v2 in agg2.items():
        v3 = agg3[key]
        if v2:
            reductions[key] = (v2 - v3) / v2 * 100.0
    return ComparisonReport(kind=plan.kind, run_2d=run_2d, run_3d=run_3d, reductions_pct=reductions)


def report_json_bytes(doc: dict) -> bytes:
    """``(json.dumps(doc, indent=2, sort_keys=True) + "\\n").encode()``, built by direct recursion.

    Exact by construction: entries in json's ``sorted(dict.items())`` order
    with its separators and indent; a dict value of exact type ``int``,
    ``str`` or finite ``float`` is written inline by json's own call for that
    type, and every other value (a bool, a subclass, NaN, an infinity, a list
    item) goes through ``_scalar``, which tests types in json's order.
    """
    out: list[str] = []
    _emit(doc, out, "\n")
    return ("".join(out) + "\n").encode()


def _emit(value, out: list, newline: str) -> None:
    """Append ``value`` as json's indent-2, sorted-key encoder writes it after ``newline``."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            key = encode_basestring_ascii(key) if key.__class__ is str else _key(key)
            cls = item.__class__
            if cls is int:
                out.append(f"{sep}{key}: {int.__repr__(item)}")
            elif cls is str:
                out.append(f"{sep}{key}: {encode_basestring_ascii(item)}")
            elif cls is float and -_INF < item < _INF:
                out.append(f"{sep}{key}: {float.__repr__(item)}")
            else:
                out.append(f"{sep}{key}: ")
                _emit(item, out, inner)
            sep = comma
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        for i, item in enumerate(value):
            out.append(("," if i else "[") + inner)
            _emit(item, out, inner)
        out.append(newline + "]")
    else:
        out.append(_scalar(value))


def _scalar(value) -> str:
    """``json.dumps(value)``, types checked in json.encoder's order; only a CSV tuple leaf is a non-empty container."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        return "Infinity" if value == _INF else "-Infinity" if value == -_INF else float.__repr__(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_scalar, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_key(key)}: {_scalar(item)}" for key, item in value.items()) + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key(key) -> str:
    """A dict key as json writes it: a non-str key as the string of its scalar text."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _scalar(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _flatten(doc, prefix: str, rows: list) -> None:
    if isinstance(doc, (dict, list)) and doc:
        for key, item in doc.items() if isinstance(doc, dict) else enumerate(doc):
            path = f"{prefix}.{key}" if prefix else str(key)
            cls = item.__class__
            if cls is int:
                rows.append((path, int.__repr__(item)))
            elif cls is str:
                rows.append((path, encode_basestring_ascii(item)))
            elif cls is float and -_INF < item < _INF:
                rows.append((path, float.__repr__(item)))
            else:
                _flatten(item, path, rows)
    else:
        rows.append((prefix, _scalar(doc)))


def report_csv_bytes(doc: dict) -> bytes:
    """Flatten a report into field,value rows; values are JSON-encoded.

    Nested structure flattens to dotted paths (lists by index), so per-level
    metrics come out one row per (level, metric) and the encoding is exactly
    invertible.  Leaves are typed as in ``report_json_bytes``, and rows
    sorted stably by path alone.  csv.writer's minimal quoting writes a field
    as it is unless it holds the delimiter, the quote character or a line
    terminator character, so a row whose fields hold no comma, double quote,
    CR or LF is joined by hand; every other row goes through csv.writer.
    """
    rows: list[tuple[str, str]] = []
    _flatten(doc, "", rows)
    rows.sort(key=itemgetter(0))
    lines = ["field,value\n"]
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
    for path, value in rows:
        both = path + value  # holds a character iff one of the fields does
        if "," in both or '"' in both or "\r" in both or "\n" in both:
            writer.writerow((path, value))
        else:
            lines.append(f"{path},{value}\n")
    return "".join(lines).encode()


def load_report_csv(blob: bytes) -> dict:
    """Rebuild the nested report from its CSV flattening."""
    reader = csv.reader(blob.decode().splitlines())
    header = next(reader)
    if header != ["field", "value"]:
        raise ValueError(f"unexpected report CSV header {header!r}")
    tree: dict = {}
    for path, raw in reader:
        parts = path.split(".")
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = json.loads(raw)
    return _listify(tree)


def _listify(node):
    if isinstance(node, dict) and node:
        if all(key.isdigit() for key in node):
            return [_listify(node[key]) for key in sorted(node, key=int)]
        return {key: _listify(value) for key, value in node.items()}
    return node


def emit_report(doc: dict, fmt: str) -> bytes:
    """Render a report dict as canonical JSON or as the flat CSV form."""
    if fmt == "json":
        return report_json_bytes(doc)
    if fmt == "csv":
        return report_csv_bytes(doc)
    raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")


def write_routing_csv(table, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROUTING_CSV_COLUMNS)
        writer.writerows(table.routing_rows())
