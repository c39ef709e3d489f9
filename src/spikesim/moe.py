"""Spiking mixture-of-experts layer: score, route, permute, integrate, fire, un-permute.

Routing is pure integer arithmetic: a token's score for an expert is the sum
of routing weights at every (timestep, feature) position where the token
spiked.  There is no softmax and no capacity limit.  Each token goes to its
best-scoring expert (top-1, as in the Switch Transformer), ties to the lower
expert id, so results are reproducible.

The layer is one permutation of the token rows, the permute, compute per
expert, un-permute layout of MoE kernels (GShard's dispatch and combine,
MegaBlocks).  The permutation is the routing table's ``order``, every
expert's tokens expert by expert, derived from the token assignments when
the table is built, so it holds every token exactly once.  The layer gathers
the input rows by it once, so expert ``e``'s tokens are one contiguous slice,
``offsets[e]:offsets[e + 1]``; each expert integrates its slice into the same
rows of one int16 buffer (:func:`expert_forward`); the buffer fires once; and
:func:`merge_aligned` scatters the 1-byte spikes, not the 2-byte
integrations, back by the same ``order``.  The neuron update acts on each
(token, feature) lane on its own: a lane's spikes depend only on that lane's
integration over time and on the shared parameters, never on another row,
and its dtype follows the integration's peak, which a reordering of rows
leaves as it is.  So firing in expert order and then un-permuting gives the
same spikes as firing in token order, or firing each expert alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from .errors import ConfigError, ShapeError, UnsupportedConfigError
from .tensors import (
    INT64_MAX,
    _adopt,
    _check_integers,
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


@dataclass(frozen=True, eq=False)
class RoutingTable:
    """Top-1 routing: each token's expert and score, and the layer's one permutation.

    ``assignments[i]`` is token i's expert id and ``assignment_scores[i]`` its
    score.  ``order`` and ``offsets`` are derived when the table is built:
    ``order`` sorts the tokens by expert, stably, so it is a permutation of
    the tokens with each expert's tokens in ascending order, and expert
    ``e``'s tokens are ``order[offsets[e]:offsets[e + 1]]``.
    """

    assignments: np.ndarray
    assignment_scores: np.ndarray
    experts: int
    order: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        ids, scores = np.asarray(self.assignments), np.asarray(self.assignment_scores)
        if ids.ndim != 1 or scores.shape != ids.shape:
            raise ShapeError(f"need one expert id and one score per token, got {ids.shape} and {scores.shape}")
        _check_integers(ids, 0, self.experts - 1, f"expert ids must be integers in [0, {self.experts})")
        _check_integers(scores, -INT64_MAX - 1, INT64_MAX, "routing scores must be integers that fit in int64")
        ids, scores = ids.astype(np.int64), scores.astype(np.int64)
        order = np.argsort(ids, kind="stable")
        offsets = np.concatenate(([0], np.bincount(ids, minlength=self.experts).cumsum()))
        for name, arr in (("assignments", ids), ("assignment_scores", scores), ("order", order), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.assignments.shape[0]

    def routing_rows(self) -> list[tuple[int, int, int, int]]:
        """(token_id, rank, expert_id, score) rows for dumps, token-major; the rank is always 0."""
        rows = zip(self.assignments.tolist(), self.assignment_scores.tolist())
        return [(token, 0, expert, score) for token, (expert, score) in enumerate(rows)]


@dataclass(frozen=True)
class MoeLayerConfig:
    """Static layer shape: expert count, top-k, widths, neuron params, weights.

    Only k = 1 runs end to end: ``moe_layer_forward`` refuses any other k.
    """

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


def compute_expert_scores(s_in: SpikeTensor, w_r: RoutingWeights) -> np.ndarray:
    """Score every token against every expert: a new, writable (n, experts) int64 matrix.

    score[n, e] = sum over t, d of s_in[n, t, d] * w_r[d, e].  Spikes are
    binary, so the per-feature spike counts over time (each <= t) are folded
    first, summed in the smallest unsigned type that holds t, where no count
    can wrap; |partial sum| <= 128 * t * d_in, which ``_exact_matmul`` keeps
    exact.  The caller owns the matrix; it stays writable, as ``argmax``
    copies a read-only array.
    """
    if s_in.d != w_r.d_in:
        raise ShapeError(f"input features {s_in.d} do not match routing weight rows {w_r.d_in}")
    counts = s_in.data.sum(axis=1, dtype=np.min_scalar_type(s_in.t))
    return _exact_matmul(counts, w_r.w_r.data, 128 * s_in.t * w_r.d_in).astype(np.int64)


def route_topk(scores: np.ndarray) -> RoutingTable:
    """Route each token to its best-scoring expert: the first maximum, so ties go to the lower id.

    ``scores`` is a 2-d integer matrix with an expert column, only read: an
    int64 matrix is neither copied nor cast.  ``RoutingTable`` refuses a value
    outside int64 before any cast, as a row's routed score is its maximum and
    no integer dtype goes below int64's minimum.
    """
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ShapeError(f"score matrix must be 2-d, got {scores.ndim}-d")
    if not np.issubdtype(scores.dtype, np.integer):
        raise ValueError("routing scores must be integers")
    if scores.shape[1] < 1:
        raise ConfigError("routing needs at least one expert column")
    ids = scores.argmax(axis=1)
    return RoutingTable(ids, scores[np.arange(len(scores)), ids], scores.shape[1])


def expert_forward(s_e: SpikeTensor, w_e: QuantWeightMatrix, out: np.ndarray | None = None) -> IntegrationTensor:
    """One expert's synaptic integration; the caller fires it with :func:`lif_run`.

    The (token, timestep) rows are independent, so they fold into one
    (n * t, d_in) matrix that :func:`spike_matmul` takes in blocks of
    ``_BLOCK_ROWS`` rows: a few large BLAS products per expert, one weight
    conversion per block, and float temporaries of at most ``_BLOCK_ROWS``
    rows.  The rows go in as a bool view of the spikes, whose 0/1 range the
    dtype already proves.  The integration is written into ``out``, a
    C-contiguous (n, t, d_out) int16 array, when given, and into a new one
    otherwise; :func:`moe_layer_forward` passes each expert its slice of the
    layer's buffer.
    """
    if s_e.d != w_e.rows:
        raise ShapeError(f"expert input features {s_e.d} do not match weight rows {w_e.rows}")
    shape = (s_e.n, s_e.t, w_e.cols)
    if out is None:
        out = np.empty(shape, dtype=np.int16)
    elif out.shape != shape or out.dtype != np.int16 or not out.flags.c_contiguous:
        raise ShapeError(f"expert output buffer must be a C-contiguous int16 array of shape {shape}")
    rows = s_e.data.view(bool).reshape(-1, s_e.d)
    x = out.reshape(-1, w_e.cols)
    saturations = 0
    for lo in range(0, len(rows), _BLOCK_ROWS):
        x[lo:lo + _BLOCK_ROWS], sat = spike_matmul(rows[lo:lo + _BLOCK_ROWS], w_e)
        saturations += sat
    return _adopt(IntegrationTensor, out, saturations=saturations)


def merge_aligned(fired: SpikeTensor, table: RoutingTable) -> SpikeTensor:
    """Scatter the layer's expert-ordered spikes back to token order: the inverse of its one gather.

    Row i of ``fired`` belongs to token ``table.order[i]``; ``order`` is a
    permutation of the tokens, so every row has exactly one home.
    """
    if fired.n != table.n:
        raise ShapeError(f"fired buffer has {fired.n} rows but the table routes {table.n} tokens")
    merged = np.empty((table.n, fired.t, fired.d), dtype=np.uint8)
    merged[table.order] = fired.data
    return _adopt(SpikeTensor, merged)


def moe_layer_forward(
    s_in: SpikeTensor, cfg: MoeLayerConfig, w_r: RoutingWeights
) -> tuple[SpikeTensor, RoutingTable]:
    """Full layer: score, route, gather by ``order``, integrate, fire once, scatter by ``order``."""
    if cfg.k != 1:
        raise UnsupportedConfigError(f"the MoE layer is only defined for top-1 routing, got k={cfg.k}")
    if s_in.d != cfg.d_in:
        raise ShapeError(f"input features {s_in.d} do not match layer d_in {cfg.d_in}")
    if w_r.d_in != cfg.d_in or w_r.experts != cfg.experts:
        raise ShapeError(
            f"routing weights are {w_r.d_in}x{w_r.experts}, layer expects {cfg.d_in}x{cfg.experts}"
        )
    table = route_topk(compute_expert_scores(s_in, w_r))
    fired = lif_run(_integrate_in_expert_order(s_in, cfg, table), cfg.lif)
    return merge_aligned(fired, table), table


def _integrate_in_expert_order(s_in: SpikeTensor, cfg: MoeLayerConfig, table: RoutingTable) -> IntegrationTensor:
    """Every expert's integration, in ``table.order``: expert ``e``'s tokens fill one contiguous slice of rows.

    The input rows are gathered once, by ``order``, and each expert reads its
    slice of them and writes the same slice of one int16 buffer.  The slices
    are disjoint, and each is adopted once it is written, so no adopted rows
    change afterwards.  The gathered rows are freed when this returns, before
    the buffer fires.
    """
    rows = s_in.data[table.order]
    x = np.empty((len(rows), s_in.t, cfg.d_out), dtype=np.int16)
    saturations = 0
    for (lo, hi), w in zip(pairwise(table.offsets.tolist()), cfg.expert_weights):
        saturations += expert_forward(_adopt(SpikeTensor, rows[lo:hi]), w, out=x[lo:hi]).saturations
    return _adopt(IntegrationTensor, x, saturations=saturations)
