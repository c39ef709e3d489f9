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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import dataflow, memory
from .dataflow import ArrayGeometry, SparsityStats
from .errors import ConfigError, WorkloadValidationError
from .levels import ACT_GLB, ACT_LB, WEIGHT_GLB0, WEIGHT_GLB1
from .mha import MhaConfig, mha_forward
from .moe import MoeLayerConfig, RoutingWeights, moe_layer_forward
from .tensors import QuantWeightMatrix, SpikeTensor

SCHEMA_VERSION = "1"

CALIBRATION_SOURCES = ("builtin2d", "builtin3d", "file")

ROUTING_CSV_COLUMNS = ("token_id", "rank", "expert_id", "score")

# A plan whose estimated footprint (plan_bytes) exceeds this is refused
# before any input is synthesized.
MAX_PLAN_BYTES = 1 << 30

# Trace cycles are int64 columns; this bound leaves room for any makespan
# under the size cap.
MAX_ROUTER_OVERHEAD_CYCLES = 1 << 53

# Bytes behind plan_bytes, each rounded up.  A spike element costs its
# float64 draw, the spike itself and float32 operand copies; a weight its
# int8 value and a float32 copy.  A routing score (one per token and expert)
# costs the matmul result, its int64 cast, the copy ExpertScores keeps, and
# route_topk's negated scores and argsort order.  A tile holds 8 int64 schedule columns and a
# 9-slot grid of cycle, kind and bits columns, a mask and the record columns
# cut from it.  A merged-trace row holds cycle, unit and record indices, their
# sort order and sorted copies.  A core holds its schedule load and list.
_SPIKE_BYTES = 24
_WEIGHT_BYTES = 8
_SCORE_BYTES = 40
_TILE_BYTES = 8 * 8 + 9 * 32
_TRACE_ROW_BYTES = 64
_CORE_BYTES = 128


@dataclass(frozen=True)
class MoeModel:
    n: int = 64
    t: int = 4
    d_in: int = 128
    d_out: int = 128
    experts: int = 4
    k: int = 1


@dataclass(frozen=True)
class MhaModel:
    n: int = 64
    t: int = 4
    heads: int = 8
    d_head: int = 16

    @property
    def d_model(self) -> int:
        return self.heads * self.d_head


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
    kind: str
    model: MoeModel | MhaModel
    hardware: HardwareParams = field(default_factory=HardwareParams)
    calibration_source: str = "builtin2d"
    calibration_path: str | None = None
    spike_prob: float = 0.2
    seed: int = 0

    def to_dict(self) -> dict:
        hw = self.hardware
        return {
            "kind": self.kind,
            "model": {key: getattr(self.model, attr) for key, (attr, _) in _MODEL_KEYS[self.kind].items()},
            "hardware": {
                "cores": hw.cores,
                **{f"{array}_array": {dim: getattr(hw, f"{array}_{dim}") for dim in ("rows", "cols")} for array in _ARRAYS},
                "extract_ports": hw.extract_ports,
                "router_overhead_cycles": hw.router_overhead_cycles,
            },
            "calibration": {"source": self.calibration_source, "path": self.calibration_path},
            "input": {key: getattr(self, attr) for key, (attr, _) in _INPUT_KEYS.items()},
        }


# Each field as {report key: (attribute, flat alias)}: the config echo writes
# the key, and the parser also accepts the attribute's name inside the section
# and the alias at the document top level.
_MODEL_KEYS = {
    "moe": {
        "n": ("n", "N"),
        "t": ("t", "T"),
        "d_in": ("d_in", "D_in"),
        "d_out": ("d_out", "D_out"),
        "e": ("experts", "E"),
        "k": ("k", "K"),
    },
    "mha": {
        "n": ("n", "N"),
        "t": ("t", "T"),
        "h": ("heads", "H"),
        "d": ("d_head", "d"),
        "d_model": ("d_model", "D"),
    },
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
    if kind not in ("moe", "mha"):
        violations.append(f"kind must be 'moe' or 'mha', got {kind!r}")
        kind = None
    # Without a valid kind no model is built, but every kind's spellings are still consumed.
    model_keys = _MODEL_KEYS[kind] if kind else _MODEL_KEYS["moe"] | _MODEL_KEYS["mha"]
    model_fields = _resolve(doc, model_doc, "model", model_keys, violations)
    input_fields = _resolve(doc, input_doc, "input", _INPUT_KEYS, violations)
    for key in sorted(doc):
        violations.append(f"unknown top-level key {key!r}")

    model = _parse_model(kind, model_fields, model_doc, violations) if kind else None
    hardware = _parse_hardware(hw_doc, violations)

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
        kind=kind,
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


def _parse_model(kind: str, fields: dict, model_doc: dict, violations: list[str]):
    keys = _MODEL_KEYS[kind]
    for key in sorted(model_doc):
        violations.append(f"unknown model key {key!r} for kind {kind!r}")
    default = MoeModel if kind == "moe" else MhaModel
    # mha's d and d_model have no default of their own: absent or null, each is derived from the other.
    values = {
        key: _as_int(fields[key] if key in fields else getattr(default, attr), f"model.{key}", 1, violations)
        for key, (attr, _) in keys.items()
        if fields.get(key) is not None or key not in ("d", "d_model")
    }
    if None in values.values():
        return None
    if kind == "moe":
        e, k = values["e"], values["k"]
        if k > e:
            violations.append(f"model.k ({k}) cannot exceed model.e ({e})")
        elif k != 1:
            violations.append(
                f"top-k routing with k={k} is not supported: merging multiple expert outputs "
                "per token has no defined combination rule"
            )
        return MoeModel(**{keys[key][0]: value for key, value in values.items()})

    heads, d_head = values["h"], values.get("d")
    d_model = values.get("d_model", default.heads * default.d_head)
    if d_head is None:
        if d_model % heads != 0:
            violations.append(f"model.d_model ({d_model}) is not divisible by model.h ({heads})")
            return None
        d_head = d_model // heads
    elif "d_model" in values and heads * d_head != d_model:
        violations.append(
            f"model.h * model.d = {heads}*{d_head} = {heads * d_head} contradicts model.d_model = {d_model}"
        )
    return MhaModel(n=values["n"], t=values["t"], heads=heads, d_head=d_head)


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
    at most 9 records, a routing tile 3, and an attention tile 3 on average
    (a phase-1 tile 2, a phase-2 tile at most 4).  Every head's records
    become trace rows, though only one head is walked.
    """
    m, hw = plan.model, plan.hardware

    def tiles(extent: int, step: int) -> int:
        return -(-extent // step)

    if plan.kind == "moe":
        spikes = m.n * m.t * (m.d_in + m.d_out)
        weights = m.d_in * m.experts * (m.d_out + 1)
        scores = m.n * m.experts
        routing = tiles(m.n, hw.routing_rows) * tiles(m.experts, hw.routing_cols)
        experts = tiles(m.d_out, hw.expert_rows) * (tiles(m.n * m.t, hw.expert_cols) + m.experts)
        n_tiles = routing + experts
        rows = 3 * routing + 2 + 9 * experts + 4 * m.experts
    else:
        spikes = 4 * m.n * m.t * m.d_model
        weights = scores = 0
        n_tiles = 2 * m.t * tiles(m.n, hw.attention_rows) * tiles(m.n, hw.attention_cols)
        rows = m.heads * (3 * n_tiles + 2 * m.t + 2)
    return (
        _SPIKE_BYTES * spikes + _WEIGHT_BYTES * weights + _SCORE_BYTES * scores + _TILE_BYTES * n_tiles
        + _TRACE_ROW_BYTES * rows + _CORE_BYTES * hw.cores
    )


@dataclass
class RunResult:
    """Serializable outcome of one run plus in-memory artifacts for dumps.

    ``walks`` holds one ``(units, Records)`` pair per distinct array run
    plus the merge egress; ``merged_trace`` merges them on first access
    only.
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

    @cached_property
    def merged_trace(self) -> dataflow.MergedTrace:
        """The merged (cycle, unit)-ordered access trace, as index arrays."""
        return dataflow.merge_walks(self.walks)

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


def resolve_calibration(plan: RunPlan) -> memory.MemCalibration:
    if plan.calibration_source == "builtin2d":
        return memory.builtin_calibration(plan.kind, "2d")
    if plan.calibration_source == "builtin3d":
        return memory.builtin_calibration(plan.kind, "3d")
    cal = memory.load_calibration(plan.calibration_path)
    if cal.kind != plan.kind:
        raise ConfigError(
            f"calibration file is for kind {cal.kind!r} but the plan is kind {plan.kind!r}"
        )
    return cal


def _digest(s_out: SpikeTensor) -> str:
    return "sha256:" + hashlib.sha256(s_out.to_bytes()).hexdigest()


def _synth_spikes(rng: np.random.Generator, n: int, t: int, d: int, p: float) -> SpikeTensor:
    return SpikeTensor(rng.random((n, t, d)) < p)


def _synth_weights(rng: np.random.Generator, rows: int, cols: int) -> QuantWeightMatrix:
    return QuantWeightMatrix(rng.integers(-127, 128, size=(rows, cols), dtype=np.int8), 1.0)


class _Layer(NamedTuple):
    """One functional pass and the array runs that time it, before scheduling."""

    s_out: SpikeTensor
    routing_table: object
    walks: list  # (units, CycleStats, Records) per distinct array run
    scheduled: list  # (unit, output bits) per unit placed on the cores, in order
    overhead: int
    shape: memory.WorkloadShape


def _moe_layer(plan: RunPlan) -> _Layer:
    m = plan.model
    hw = plan.hardware
    rng = np.random.default_rng(plan.seed)
    # Synthesis order is part of the plan contract: input spikes, routing
    # weights, then expert weights in expert order.
    s_in = _synth_spikes(rng, m.n, m.t, m.d_in, plan.spike_prob)
    w_r = RoutingWeights(_synth_weights(rng, m.d_in, m.experts))
    weights = tuple(_synth_weights(rng, m.d_in, m.d_out) for _ in range(m.experts))
    cfg = MoeLayerConfig(experts=m.experts, k=m.k, d_in=m.d_in, d_out=m.d_out, expert_weights=weights)
    s_out, table = moe_layer_forward(s_in, cfg, w_r)

    routing_geom = ArrayGeometry(hw.routing_rows, hw.routing_cols, "routing")
    expert_geom = ArrayGeometry(hw.expert_rows, hw.expert_cols, "expert")
    walks = [(("router",), *dataflow.routing_walk(m.n, m.t, m.d_in, m.experts, routing_geom, hw.extract_ports))]
    scheduled = []
    token_ones = s_in.data.sum(axis=(1, 2))
    for e in range(m.experts):
        tokens = table.expert_tokens[e]
        ts = dataflow.plan_expert_tiles(len(tokens), m.t, m.d_in, m.d_out, expert_geom)
        sparsity = SparsityStats(ones=int(token_ones[tokens].sum()), total=len(tokens) * m.t * m.d_in)
        glb = WEIGHT_GLB0 if e % 2 == 0 else WEIGHT_GLB1
        walks.append(((f"expert{e}",), *dataflow.expert_walk(ts, expert_geom, sparsity, hw.extract_ports, glb)))
        scheduled.append((f"expert{e}", len(tokens) * m.t * m.d_out))

    overhead = hw.router_overhead_cycles
    if overhead is None:
        overhead = m.t * m.d_in + 16 + m.experts
    shape = memory.WorkloadShape(
        kind="moe", n=m.n, t=m.t, d_in=m.d_in, d_out=m.d_out, experts=m.experts,
        tile_rows=hw.expert_rows, tile_cols=hw.expert_cols,
    )
    return _Layer(s_out, table, walks, scheduled, overhead, shape)


def _mha_layer(plan: RunPlan) -> _Layer:
    m = plan.model
    hw = plan.hardware
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
    # so one walk times and counts all of them.
    ts = dataflow.plan_attention_tiles(m.n, m.d_head, m.t, 1, attn_geom)
    walks = [(heads, *dataflow.attention_walk(ts, attn_geom))]
    scheduled = [(unit, m.n * m.t * m.d_head) for unit in heads]

    overhead = hw.router_overhead_cycles if hw.router_overhead_cycles is not None else 0
    shape = memory.WorkloadShape(
        kind="mha", n=m.n, t=m.t, heads=m.heads, d_head=m.d_head,
        tile_rows=hw.attention_rows, tile_cols=hw.attention_cols,
    )
    return _Layer(s_out, None, walks, scheduled, overhead, shape)


def _run(plan: RunPlan, flavors: list[RunPlan]) -> list[RunResult]:
    """Run the pipeline once and price its one level table under each flavor's calibration."""
    footprint = plan_bytes(plan)
    if footprint > MAX_PLAN_BYTES:
        raise WorkloadValidationError(
            [f"plan needs an estimated {footprint} bytes, over the {MAX_PLAN_BYTES}-byte cap"]
        )
    cals = [resolve_calibration(flavor) for flavor in flavors]
    if plan.kind == "moe":
        layer = _moe_layer(plan)
    elif plan.kind == "mha":
        layer = _mha_layer(plan)
    else:
        raise ConfigError(f"kind must be 'moe' or 'mha', got {plan.kind!r}")

    unit_cycles = {unit: stats for units, stats, _ in layer.walks for unit in units}
    scheduled = [unit_cycles[unit] for unit, _ in layer.scheduled]
    system, assignment = dataflow.expert_parallel_schedule(scheduled, plan.hardware.cores, layer.overhead)

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
    digest = _digest(layer.s_out)
    return [
        RunResult(
            kind=plan.kind,
            config=flavor.to_dict(),
            output_digest=digest,
            system_cycles=system,
            unit_cycles=unit_cycles,
            core_assignment=assignment,
            mem=memory.mem_report(counts, cal, memory.capacity_check(layer.shape, cal)),
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
    agg2 = vars(run_2d.mem.aggregate)
    agg3 = vars(run_3d.mem.aggregate)
    reductions = {}
    for key, v2 in agg2.items():
        v3 = agg3[key]
        if v2:
            reductions[key] = (v2 - v3) / v2 * 100.0
    return ComparisonReport(kind=plan.kind, run_2d=run_2d, run_3d=run_3d, reductions_pct=reductions)


def report_json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _flatten(doc, prefix: str, rows: list):
    if isinstance(doc, dict):
        if not doc:
            rows.append((prefix, doc))
            return
        for key in doc:
            sub = f"{prefix}.{key}" if prefix else str(key)
            _flatten(doc[key], sub, rows)
    elif isinstance(doc, list):
        if not doc:
            rows.append((prefix, doc))
            return
        for i, item in enumerate(doc):
            _flatten(item, f"{prefix}.{i}" if prefix else str(i), rows)
    else:
        rows.append((prefix, doc))


def report_csv_bytes(doc: dict) -> bytes:
    """Flatten a report into field,value rows; values are JSON-encoded.

    Nested structure flattens to dotted paths (lists by index), so per-level
    metrics come out one row per (level, metric) and the encoding is exactly
    invertible.
    """
    rows: list[tuple[str, object]] = []
    _flatten(doc, "", rows)
    rows.sort(key=lambda r: r[0])
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for path, value in rows:
        writer.writerow([path, json.dumps(value)])
    return buf.getvalue().encode()


def load_report_csv(blob: bytes) -> dict:
    """Rebuild the nested report from its CSV flattening."""
    text = blob.decode()
    reader = csv.reader(text.splitlines())
    header = next(reader)
    if header != ["field", "value"]:
        raise ValueError(f"unexpected report CSV header {header!r}")
    tree: dict = {}
    entries = [(path, json.loads(raw)) for path, raw in reader]
    for path, value in entries:
        parts = path.split(".")
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
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
        for row in table.routing_rows():
            writer.writerow(row)
