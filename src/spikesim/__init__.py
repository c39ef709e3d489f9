"""Functional plus cycle-level simulator for spiking mixture-of-experts and
multi-head-attention accelerators, with calibrated 2D/3D memory models."""

from .dataflow import (
    AccessEvent,
    ArrayGeometry,
    CycleStats,
    SparsityStats,
    TileSchedule,
    expert_parallel_schedule,
    plan_attention_tiles,
    plan_expert_tiles,
    simulate_attention_array,
    simulate_expert_array,
    simulate_routing_array,
)
from .errors import (
    CalibrationValidationError,
    ConfigError,
    ShapeError,
    TraceError,
    UnsupportedConfigError,
    WorkloadValidationError,
)
from .memory import (
    CalibrationAggregate,
    MemCalibration,
    MemLevelSpec,
    MemReport,
    WorkloadShape,
    builtin_calibration,
    capacity_check,
    dump_calibration,
    load_calibration,
    mem_report,
)
from .mha import (
    AttentionMap,
    MhaConfig,
    attention_weighted_integration,
    mha_forward,
    spiking_attention_map,
)
from .moe import (
    MoeLayerConfig,
    RoutingTable,
    RoutingWeights,
    compute_expert_scores,
    expert_forward,
    merge_aligned,
    moe_layer_forward,
    route_topk,
)
from .runner import (
    ComparisonReport,
    HardwareParams,
    MhaModel,
    MoeModel,
    RunPlan,
    RunResult,
    compare_designs,
    emit_report,
    parse_workload,
    run_experiment,
)
from .tensors import (
    IntegrationTensor,
    LifParams,
    PotentialState,
    QuantWeightMatrix,
    SpikeTensor,
    lif_run,
    lif_step,
    saturate_i16,
    spike_matmul,
)

__version__ = "0.1.0"
