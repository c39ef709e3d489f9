"""Spiking mixture-of-experts layer: score, route, gather, integrate, merge, fire.

Routing is pure integer arithmetic: a token's score for an expert is the sum
of routing weights at every (timestep, feature) position where the token
spiked.  There is no softmax and no capacity limit; top-k selection breaks
score ties toward the lower expert id so results are reproducible.

The layer fires once, after the merge.  The neuron update acts on each
(token, feature) lane on its own: a lane's spikes depend only on that lane's
integration over time and on the shared parameters, never on another row.
With top-1 routing each token's lane comes from exactly one expert, so
scattering the integrations into token order and then firing gives the same
spikes as firing each expert and scattering its spikes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, UnsupportedConfigError
from .tensors import (
    _exact_matmul,
    IntegrationTensor,
    LifParams,
    QuantWeightMatrix,
    SpikeTensor,
    lif_run,
    spike_matmul,
)

# (token, timestep) rows per spike_matmul call in an expert's integration.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class RoutingWeights:
    """Shared routing weight matrix, (d_in, experts), applied at every timestep."""

    w_r: QuantWeightMatrix

    def __post_init__(self):
        if self.w_r.cols < 1:
            raise ConfigError("routing weights need at least one expert column")

    @property
    def d_in(self) -> int:
        return self.w_r.rows

    @property
    def experts(self) -> int:
        return self.w_r.cols


@dataclass(frozen=True)
class ExpertScores:
    """Integer routing scores, one row per token, one column per expert."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.scores)
        if arr.ndim != 2:
            raise ShapeError(f"score matrix must be 2-d, got {arr.ndim}-d")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("routing scores must be integers")
        arr = arr.astype(np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "scores", arr)

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def experts(self) -> int:
        return self.scores.shape[1]


@dataclass(frozen=True)
class RoutingTable:
    """Top-k assignment per token plus the per-expert gather lists.

    ``assignments[n]`` holds k expert ids ordered by descending score (ties
    toward the lower id); ``expert_tokens[e]`` holds the assigned token ids in
    ascending order, which is also the row order used when gathering.
    """

    assignments: np.ndarray
    assignment_scores: np.ndarray
    expert_tokens: tuple[np.ndarray, ...]
    k: int
    experts: int

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def routing_rows(self):
        """Yield (token_id, rank, expert_id, score) rows for dumps."""
        for token in range(self.n):
            for rank in range(self.k):
                yield token, rank, int(self.assignments[token, rank]), int(self.assignment_scores[token, rank])


@dataclass(frozen=True)
class MoeLayerConfig:
    """Static layer shape: expert count, top-k, widths, neuron params, weights."""

    experts: int
    k: int
    d_in: int
    d_out: int
    lif: LifParams = field(default_factory=LifParams)
    expert_weights: tuple[QuantWeightMatrix, ...] = ()

    def __post_init__(self):
        if self.experts < 1:
            raise ConfigError(f"expert count must be >= 1, got {self.experts}")
        if not 1 <= self.k <= self.experts:
            raise ConfigError(f"k must lie in [1, {self.experts}], got {self.k}")
        if self.k != 1:
            raise UnsupportedConfigError(
                f"top-{self.k} routing is not supported: merging more than one expert output "
                "per token has no defined combination rule in this simulator"
            )
        if self.d_in < 1 or self.d_out < 1:
            raise ConfigError(f"feature widths must be >= 1, got d_in={self.d_in}, d_out={self.d_out}")
        if len(self.expert_weights) != self.experts:
            raise ConfigError(
                f"need one weight matrix per expert ({self.experts}), got {len(self.expert_weights)}"
            )
        for e, w in enumerate(self.expert_weights):
            if (w.rows, w.cols) != (self.d_in, self.d_out):
                raise ConfigError(
                    f"expert {e} weights are {w.rows}x{w.cols}, expected {self.d_in}x{self.d_out}"
                )


def compute_expert_scores(s_in: SpikeTensor, w_r: RoutingWeights) -> ExpertScores:
    """Score every token against every expert.

    score[n, e] = sum over t, d of s_in[n, t, d] * w_r[d, e].  Spikes are
    binary, so the per-feature spike counts over time (each <= t) are folded
    first; |partial sum| <= 128 * t * d_in, which ``_exact_matmul`` keeps exact.
    """
    if s_in.d != w_r.d_in:
        raise ShapeError(f"input features {s_in.d} do not match routing weight rows {w_r.d_in}")
    counts = s_in.data.sum(axis=1, dtype=np.int64)
    scores = _exact_matmul(counts, w_r.w_r.data, 128 * s_in.t * w_r.d_in)
    return ExpertScores(scores.astype(np.int64))


def route_topk(scores: ExpertScores, k: int) -> RoutingTable:
    """Pick the k best-scoring experts per token, ties toward the lower id."""
    if not 1 <= k <= scores.experts:
        raise ConfigError(f"k must lie in [1, {scores.experts}], got {k}")
    # Stable sort on negated scores keeps equal scores in ascending id order.
    order = np.argsort(-scores.scores, axis=1, kind="stable")
    assignments = order[:, :k].astype(np.int64)
    assignment_scores = np.take_along_axis(scores.scores, assignments, axis=1)
    expert_tokens = tuple(
        np.nonzero((assignments == e).any(axis=1))[0].astype(np.int64)
        for e in range(scores.experts)
    )
    assignments.setflags(write=False)
    assignment_scores.setflags(write=False)
    return RoutingTable(
        assignments=assignments,
        assignment_scores=assignment_scores,
        expert_tokens=expert_tokens,
        k=k,
        experts=scores.experts,
    )


def gather_expert_tokens(s_in: SpikeTensor, table: RoutingTable, e: int) -> SpikeTensor:
    """Rows of the input assigned to expert ``e``, in ascending token order."""
    if not 0 <= e < table.experts:
        raise ConfigError(f"expert id {e} out of range [0, {table.experts})")
    return s_in.select_tokens(table.expert_tokens[e])


def expert_forward(
    s_e: SpikeTensor, w_e: QuantWeightMatrix, lif: LifParams | None
) -> SpikeTensor | IntegrationTensor:
    """One expert: synaptic integration, then the neuron update.

    The (token, timestep) rows are independent, so they fold into one
    (n * t, d_in) matrix that :func:`spike_matmul` takes in blocks of
    ``_BLOCK_ROWS`` rows: a few large BLAS products per expert, one weight
    conversion per block, and float temporaries of at most ``_BLOCK_ROWS``
    rows.  With ``lif=None`` there is no neuron update and the int16
    integration is returned; :func:`moe_layer_forward` fires once, after the
    merge.
    """
    if s_e.d != w_e.rows:
        raise ShapeError(f"expert input features {s_e.d} do not match weight rows {w_e.rows}")
    rows = s_e.data.reshape(-1, s_e.d)
    x = np.empty((len(rows), w_e.cols), dtype=np.int16)
    saturations = 0
    for lo in range(0, len(rows), _BLOCK_ROWS):
        x[lo:lo + _BLOCK_ROWS], sat = spike_matmul(rows[lo:lo + _BLOCK_ROWS], w_e)
        saturations += sat
    integration = IntegrationTensor(x.reshape(s_e.n, s_e.t, w_e.cols), saturations)
    return integration if lif is None else lif_run(integration, lif)


def merge_aligned(
    outputs: list[SpikeTensor] | list[IntegrationTensor], table: RoutingTable
) -> SpikeTensor | IntegrationTensor:
    """Scatter per-expert tensors back into original token order.

    ``outputs`` are all :class:`SpikeTensor` or all :class:`IntegrationTensor`,
    one per expert; the result is one tensor of the same kind, and merged
    integrations carry the sum of the experts' saturation counts.  Only
    defined for k = 1, where the per-expert token lists partition the token
    set and every output row has exactly one home.
    """
    if table.k != 1:
        raise UnsupportedConfigError(
            f"aligned merge is only defined for top-1 routing, table has k={table.k}"
        )
    if len(outputs) != table.experts:
        raise ShapeError(f"expected {table.experts} expert outputs, got {len(outputs)}")
    kind = type(outputs[0])
    if kind not in (SpikeTensor, IntegrationTensor) or any(type(out) is not kind for out in outputs):
        raise TypeError("expert outputs must be all SpikeTensor or all IntegrationTensor")
    for e, out in enumerate(outputs):
        if out.n != len(table.expert_tokens[e]):
            raise ShapeError(
                f"expert {e} produced {out.n} rows but was assigned {len(table.expert_tokens[e])} tokens"
            )
    t, d = outputs[0].t, outputs[0].d
    # Every row is written once the coverage check below passes.
    merged = np.empty((table.n, t, d), dtype=outputs[0].data.dtype)
    seen = np.zeros(table.n, dtype=bool)
    for e, out in enumerate(outputs):
        tokens = table.expert_tokens[e]
        if out.n == 0:
            continue
        if out.t != t or out.d != d:
            raise ShapeError(f"expert {e} output shape disagrees with the other experts")
        merged[tokens] = out.data
        seen[tokens] = True
    if not seen.all():
        raise ShapeError("merge did not cover every token exactly once")
    if kind is IntegrationTensor:
        return IntegrationTensor(merged, sum(out.saturations for out in outputs))
    return SpikeTensor(merged)


def moe_layer_forward(
    s_in: SpikeTensor, cfg: MoeLayerConfig, w_r: RoutingWeights
) -> tuple[SpikeTensor, RoutingTable]:
    """Full layer: score, route, per-expert integration, aligned merge, one neuron update."""
    if s_in.d != cfg.d_in:
        raise ShapeError(f"input features {s_in.d} do not match layer d_in {cfg.d_in}")
    if w_r.d_in != cfg.d_in or w_r.experts != cfg.experts:
        raise ShapeError(
            f"routing weights are {w_r.d_in}x{w_r.experts}, layer expects {cfg.d_in}x{cfg.experts}"
        )
    scores = compute_expert_scores(s_in, w_r)
    table = route_topk(scores, cfg.k)
    integrations = [
        expert_forward(gather_expert_tokens(s_in, table, e), cfg.expert_weights[e], None)
        for e in range(cfg.experts)
    ]
    return lif_run(merge_aligned(integrations, table), cfg.lif), table
