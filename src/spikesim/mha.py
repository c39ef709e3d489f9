"""Spiking multi-head attention.

Queries, keys, and values are all binary spike tensors.  Per head and per
timestep the attention map is a plain coincidence count A[t] = Q[t] @ K[t].T,
so every entry lies in [0, d] where d is the head width.  There is no
softmax, no scaling, and no masking; X[t] = A[t] @ V[t] feeds the neuron
update and head outputs are concatenated along the feature axis in head
order.

Because nothing nonlinear sits between the two products and saturation
applies only to X, the head computes X[t] = Q[t] @ (K[t].T @ V[t]) instead,
which is the same integer matrix at O(n d^2) cost and never builds the
(t, n, n) map.  The products are BLAS float matmuls that stay exact because
every partial sum is an integer below the float mantissa limit (see
:mod:`spikesim.tensors`): d for the map, d * n for A @ V, n for K.T @ V and
n * d for Q @ (K.T @ V).  ``spiking_attention_map`` and
``attention_weighted_integration`` remain the map-based form of the same
computation; the timing model still charges the map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensors import (
    _exact_matmul,
    IntegrationTensor,
    LifParams,
    SpikeTensor,
    saturate_i16,
    lif_run,
)


@dataclass(frozen=True)
class MhaConfig:
    """Head partitioning and neuron parameters for one attention layer."""

    heads: int
    d_head: int
    lif: LifParams = field(default_factory=LifParams)

    def __post_init__(self):
        if self.heads < 1:
            raise ConfigError(f"head count must be >= 1, got {self.heads}")
        if self.d_head < 1:
            raise ConfigError(f"head width must be >= 1, got {self.d_head}")

    @property
    def d_model(self) -> int:
        return self.heads * self.d_head


@dataclass(frozen=True)
class AttentionMap:
    """Per-timestep coincidence counts for one head: (t, n, n) integers in [0, d]."""

    data: np.ndarray
    d_head: int

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ShapeError(f"attention map must be (t, n, n), got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError("attention map entries must be integers")
        if arr.size and (arr.min() < 0 or arr.max() > self.d_head):
            raise ValueError(f"attention map entries must lie in [0, {self.d_head}]")
        arr = arr.astype(np.int32, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def t(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def partition_heads(
    q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, cfg: MhaConfig
) -> list[tuple[SpikeTensor, SpikeTensor, SpikeTensor]]:
    """Split the model feature axis into contiguous per-head slices."""
    for name, tensor in (("q", q), ("k", k), ("v", v)):
        if tensor.data.shape != q.data.shape:
            raise ShapeError(f"{name} shape {tensor.data.shape} does not match q {q.data.shape}")
    if q.d != cfg.d_model:
        raise ShapeError(
            f"feature width {q.d} does not equal heads*d_head = {cfg.heads}*{cfg.d_head} = {cfg.d_model}"
        )
    out = []
    for h in range(cfg.heads):
        lo, hi = h * cfg.d_head, (h + 1) * cfg.d_head
        out.append((q.feature_slice(lo, hi), k.feature_slice(lo, hi), v.feature_slice(lo, hi)))
    return out


def spiking_attention_map(q_h: SpikeTensor, k_h: SpikeTensor) -> AttentionMap:
    """Coincidence counts between query and key spikes, per timestep."""
    if q_h.data.shape != k_h.data.shape:
        raise ShapeError(f"query shape {q_h.data.shape} does not match key shape {k_h.data.shape}")
    # (t, n, d) @ (t, d, n) -> (t, n, n); binary operands, |partial sum| <= d.
    maps = _exact_matmul(q_h.data.transpose(1, 0, 2), k_h.data.transpose(1, 2, 0), q_h.d)
    return AttentionMap(maps.astype(np.int32), q_h.d)


def attention_weighted_integration(a: AttentionMap, v_h: SpikeTensor) -> IntegrationTensor:
    """X[t] = A[t] @ V[t] with 16-bit saturating accumulation."""
    if a.n != v_h.n:
        raise ShapeError(f"attention map covers {a.n} tokens, values cover {v_h.n}")
    if a.t != v_h.t:
        raise ShapeError(f"attention map has {a.t} timesteps, values have {v_h.t}")
    # (t, n, n) @ (t, n, d) -> (t, n, d); map entries <= d, so |partial sum| <= d * n.
    acc = _exact_matmul(a.data, v_h.data.transpose(1, 0, 2), a.d_head * a.n)
    x, saturations = saturate_i16(acc)
    return IntegrationTensor(x.transpose(1, 0, 2), saturations)


def _reassociated_integration(q_h: SpikeTensor, k_h: SpikeTensor, v_h: SpikeTensor) -> IntegrationTensor:
    """X[t] = Q[t] @ (K[t].T @ V[t]), saturated once: equal to the map-based X."""
    if q_h.data.shape != k_h.data.shape:
        raise ShapeError(f"query shape {q_h.data.shape} does not match key shape {k_h.data.shape}")
    if (v_h.n, v_h.t) != (q_h.n, q_h.t):
        raise ShapeError(f"queries cover {q_h.n} tokens x {q_h.t} timesteps, values {v_h.n} x {v_h.t}")
    q, k, v = (s.data.transpose(1, 0, 2) for s in (q_h, k_h, v_h))
    # (t, d, n) @ (t, n, d) -> (t, d, d); binary operands, |partial sum| <= n.
    kv = _exact_matmul(k.transpose(0, 2, 1), v, q_h.n)
    # (t, n, d) @ (t, d, d) -> (t, n, d); K.T @ V entries <= n, so |partial sum| <= n * d.
    x, saturations = saturate_i16(_exact_matmul(q, kv, q_h.n * q_h.d))
    return IntegrationTensor(x.transpose(1, 0, 2), saturations)


def spiking_attention_head(
    q_h: SpikeTensor, k_h: SpikeTensor, v_h: SpikeTensor, lif: LifParams
) -> SpikeTensor:
    """One head end to end: weighted integration, then the neuron update.

    Integrates as Q @ (K.T @ V), so the (t, n, n) map is never built.
    """
    return lif_run(_reassociated_integration(q_h, k_h, v_h), lif)


def mha_forward(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, cfg: MhaConfig) -> SpikeTensor:
    """All heads, outputs concatenated along the feature axis in head order."""
    heads = partition_heads(q, k, v, cfg)
    outs = [spiking_attention_head(q_h, k_h, v_h, cfg.lif) for q_h, k_h, v_h in heads]
    return SpikeTensor(np.concatenate([o.data for o in outs], axis=2))
