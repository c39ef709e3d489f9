"""Spiking multi-head attention.

Queries, keys, and values are all binary spike tensors.  Per head and per
timestep the attention map is a plain coincidence count A[t] = Q[t] @ K[t].T,
so every entry lies in [0, d] where d is the head width.  There is no
softmax, no scaling, and no masking; X[t] = A[t] @ V[t] feeds the neuron
update and head outputs are concatenated along the feature axis in head
order.

Because nothing nonlinear sits between the two products and saturation
applies only to X, the layer computes X[t] = Q[t] @ (K[t].T @ V[t]) instead,
which is the same integer matrix at O(n d^2) cost and never builds the
(t, n, n) map.  The products are BLAS float matmuls that stay exact because
every partial sum is an integer below the float mantissa limit (see
:mod:`spikesim.tensors`): d for the map, d * n for A @ V, n for K.T @ V and
n * d for Q @ (K.T @ V).  ``spiking_attention_map`` and
``attention_weighted_integration`` remain the map-based form of the same
computation; the timing model still charges the map.

:func:`mha_forward` runs every head in one pass.  Q, K and V are viewed as
(t, h, n, d), and both products run batched over (timestep, head).  Each
entry of a batched product is a sum within one head, so the bounds stay the
per-head n and n * d, and the one step to int16 counts each head's
saturations: a plain cast when n * d <= 32767, where no entry can clamp,
and a clamp otherwise.  The neuron update then fires the (n, t, h * d) integration
once.  This equals firing head by head because every neuron lane updates on
its own, and the kernel's dtype bound depends only on t, the int16 input
range and the parameters, which all heads share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensors import (
    _adopt,
    _exact_matmul,
    _narrow_i16,
    IntegrationTensor,
    LifParams,
    SpikeTensor,
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
    x, saturations = _narrow_i16(acc, 0, a.d_head * a.n)
    return IntegrationTensor(x.transpose(1, 0, 2), saturations)


def _reassociated_integration(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, heads: int) -> IntegrationTensor:
    """X = Q @ (K.T @ V) per head and timestep, saturated once: equal to the map-based X.

    Q, K and V are (n, t, heads * d) with equal shapes; X comes back in the same
    layout, heads in feature order.
    """
    n, t, width = q.data.shape
    d = width // heads
    # (n, t, h * d) viewed as (t, h, n, d): each (n, d) block has unit feature stride, so BLAS reads it in place.
    q, k, v = (s.data.reshape(n, t, heads, d).transpose(1, 2, 0, 3) for s in (q, k, v))
    # (t, h, d, n) @ (t, h, n, d) -> (t, h, d, d); binary operands, |partial sum| <= n.
    kv = _exact_matmul(k.transpose(0, 1, 3, 2), v, n)
    # (t, h, n, d) @ (t, h, d, d) -> (t, h, n, d); K.T @ V entries <= n, so every entry lies in [0, n * d].
    x, saturations = _narrow_i16(_exact_matmul(q, kv, n * d), 0, n * d)
    # x is fresh from the cast or the clamp; nothing else holds it or its transpose-reshape.
    return _adopt(IntegrationTensor, x.transpose(2, 0, 1, 3).reshape(n, t, width), saturations=saturations)


def mha_forward(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor, cfg: MhaConfig) -> SpikeTensor:
    """All heads in one pass, outputs concatenated along the feature axis in head order.

    Integrates as Q @ (K.T @ V), so the (t, n, n) map is never built, and
    fires every head's neurons in one neuron update.
    """
    for name, tensor in (("k", k), ("v", v)):
        if tensor.data.shape != q.data.shape:
            raise ShapeError(f"{name} shape {tensor.data.shape} does not match q {q.data.shape}")
    if q.d != cfg.d_model:
        raise ShapeError(
            f"feature width {q.d} does not equal heads*d_head = {cfg.heads}*{cfg.d_head} = {cfg.d_model}"
        )
    return lif_run(_reassociated_integration(q, k, v, cfg.heads), cfg.lif)
