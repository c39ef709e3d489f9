"""Core tensor types and neuron arithmetic for the spiking pipelines.

Everything downstream (routing, experts, attention) is built from four
carriers: binary spike tensors, 8-bit quantized weights, 16-bit saturating
synaptic integration values, and 32-bit membrane potentials.  Every result
is bit-exact, so independent reference implementations can be compared bit
for bit.

The integer products run as BLAS float matmuls (:func:`_exact_matmul`): in
float32 while every partial sum is below 2**24 and in float64 below 2**53.
Each float type holds every integer in its range exactly, so no addition in
any summation order rounds.  Larger bounds are refused; the operands alone
would not fit in memory there.  Each call site passes a bound on the sum of
|products| along the reduced axis, which caps every partial sum whatever
order BLAS adds in:

* ``spike_matmul``: 128 * d_in (binary spikes times int8 weights, |w| <= 128);
* ``moe.compute_expert_scores``: 128 * t * d_in (spike counts <= t);
* ``mha.spiking_attention_map``: d (binary times binary over the head width);
* ``mha.attention_weighted_integration``: d * n (map entries <= d, n tokens);
* the reassociated attention head: n for K^T V, then n * d for Q (K^T V).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

INT16_MIN = -(2**15)
INT16_MAX = 2**15 - 1
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1

_HEADER = struct.Struct("<3I")

# Every integer of magnitude up to these is exact in float32 / float64.
_F32_EXACT = 2**24
_F64_EXACT = 2**53


def _exact_matmul(a: np.ndarray, b: np.ndarray, bound: int) -> np.ndarray:
    """``a @ b`` of integer-valued operands, exact, as a BLAS float product.

    ``bound`` caps the sum of |a[..., i, k] * b[..., k, j]| over k, and so
    every partial sum in any order.  The product runs in float32 when the
    bound is below 2**24 and in float64 below 2**53; the float result holds
    the exact integers.  A larger bound raises :class:`ConfigError`.
    """
    if bound < _F32_EXACT:
        dtype = np.float32
    elif bound < _F64_EXACT:
        dtype = np.float64
    else:
        raise ConfigError(f"integer product bound {bound} is not exact in float64 (limit 2**53)")
    return np.matmul(a.astype(dtype, copy=False), b.astype(dtype, copy=False))


def saturate_i16(acc: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp an accumulator to the 16-bit range, counting clamped entries.

    ``acc`` holds exact integers, as an integer array or as the float result
    of :func:`_exact_matmul`; either is clamped directly.
    """
    clipped = np.clip(acc, INT16_MIN, INT16_MAX)
    saturated = int(np.count_nonzero(clipped != acc))
    return clipped.astype(np.int16), saturated


class SpikeTensor:
    """Binary activations laid out as (token, timestep, feature).

    Token count may be zero (an expert that received no tokens); timestep and
    feature extents must be at least one.  Instances are read-only after
    construction.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.array(data, dtype=np.uint8, copy=True)
        if arr.ndim != 3:
            raise ShapeError(f"spike tensor must be 3-d (tokens, timesteps, features), got {arr.ndim}-d")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeError(f"timestep and feature extents must be >= 1, got shape {arr.shape}")
        if arr.size and arr.max() > 1:
            raise ValueError("spike values must be 0 or 1")
        arr.setflags(write=False)
        self.data = arr

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> int:
        return self.data.shape[1]

    @property
    def d(self) -> int:
        return self.data.shape[2]

    def slice_t(self, t: int) -> np.ndarray:
        """The (n, d) binary matrix at one timestep."""
        return self.data[:, t, :]

    def popcount(self) -> int:
        return int(self.data.sum())

    def feature_slice(self, lo: int, hi: int) -> "SpikeTensor":
        if not (0 <= lo < hi <= self.d):
            raise ShapeError(f"feature slice [{lo}:{hi}] out of range for {self.d} features")
        return SpikeTensor(self.data[:, :, lo:hi])

    def select_tokens(self, idx: np.ndarray) -> "SpikeTensor":
        return SpikeTensor(self.data[np.asarray(idx, dtype=np.int64)])

    def to_bytes(self) -> bytes:
        """Serialize as a dims header plus a packed little-endian bitstream.

        Bit order is feature-major within timestep within token, i.e. the
        flattened (n, t, d) order; the first bit lands in the least
        significant bit of the first payload byte.
        """
        header = _HEADER.pack(self.n, self.t, self.d)
        packed = np.packbits(self.data.reshape(-1), bitorder="little")
        return header + packed.tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SpikeTensor":
        """Inverse of :meth:`to_bytes`."""
        if len(blob) < _HEADER.size:
            raise ValueError("spike stream too short for dims header")
        a, b, c = _HEADER.unpack_from(blob, 0)
        nbits = a * b * c
        payload = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
        if payload.size * 8 < nbits:
            raise ValueError(f"spike stream payload holds {payload.size * 8} bits, needs {nbits}")
        bits = np.unpackbits(payload, count=nbits, bitorder="little")
        return cls(bits.reshape(a, b, c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeTensor):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self):  # pragma: no cover - tensors are not meant to be dict keys
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        return f"SpikeTensor(n={self.n}, t={self.t}, d={self.d}, ones={self.popcount()})"


class QuantWeightMatrix:
    """Symmetrically quantized 8-bit weights with a positive real scale."""

    __slots__ = ("data", "scale")

    def __init__(self, data: np.ndarray, scale: float = 1.0):
        arr = np.array(data, copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"weight matrix must be 2-d, got {arr.ndim}-d")
        if arr.dtype != np.int8:
            if arr.size and (arr.min() < -128 or arr.max() > 127):
                raise ValueError("quantized weights must fit in int8")
            arr = arr.astype(np.int8)
        if not (np.isfinite(scale) and scale > 0):
            raise ValueError(f"scale must be a positive finite real, got {scale}")
        arr.setflags(write=False)
        self.data = arr
        self.scale = float(scale)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def dequantize(self) -> np.ndarray:
        return self.data.astype(np.float64) * self.scale

    def __repr__(self) -> str:
        return f"QuantWeightMatrix(rows={self.rows}, cols={self.cols}, scale={self.scale})"


class IntegrationTensor:
    """Synaptic integration values: int16 with saturation accounting.

    ``saturations`` counts accumulator results that had to be clamped into the
    16-bit range; values are never silently wrapped.
    """

    __slots__ = ("data", "saturations")

    def __init__(self, data: np.ndarray, saturations: int = 0):
        arr = np.array(data, copy=True)
        if arr.ndim != 3:
            raise ShapeError(f"integration tensor must be 3-d, got {arr.ndim}-d")
        if arr.dtype != np.int16:
            if arr.size and (arr.min() < INT16_MIN or arr.max() > INT16_MAX):
                raise ValueError("integration values must fit in int16; saturate before construction")
            arr = arr.astype(np.int16)
        if saturations < 0:
            raise ValueError("saturation count cannot be negative")
        arr.setflags(write=False)
        self.data = arr
        self.saturations = int(saturations)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def t(self) -> int:
        return self.data.shape[1]

    @property
    def d(self) -> int:
        return self.data.shape[2]

    def __repr__(self) -> str:
        return f"IntegrationTensor(n={self.n}, t={self.t}, d={self.d}, saturations={self.saturations})"


class PotentialState:
    """Per-neuron membrane potentials, one int32 per (token, feature)."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.array(data, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ShapeError(f"potential state must be 2-d, got {arr.ndim}-d")
        if arr.size and (arr.min() < INT32_MIN or arr.max() > INT32_MAX):
            raise OverflowError("membrane potential exceeds the 32-bit accumulator range")
        arr = arr.astype(np.int32)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def zeros(cls, n: int, d: int, fill: int = 0) -> "PotentialState":
        return cls(np.full((n, d), fill, dtype=np.int64))

    def __repr__(self) -> str:
        return f"PotentialState(n={self.data.shape[0]}, d={self.data.shape[1]})"


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire parameters.

    Potentials live on the integer quantized-unit axis, so the leak and the
    initial value are integers; the threshold may be any positive real and the
    comparison is strict (potential must exceed it to spike).
    """

    v_threshold: float = 1.0
    v_leak: int = 0
    initial_potential: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.v_threshold) and self.v_threshold > 0):
            raise ValueError(f"v_threshold must be positive and finite, got {self.v_threshold}")
        for name in ("v_leak", "initial_potential"):
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"{name} must be an integer number of quantized units, got {value}")
            object.__setattr__(self, name, int(value))


def spike_matmul(s_t: np.ndarray, w: QuantWeightMatrix) -> tuple[np.ndarray, int]:
    """Binary-activation matrix multiply with 16-bit saturating output.

    ``s_t`` is an (n, d_in) 0/1 matrix (one timestep of a SpikeTensor) and
    ``w`` holds (d_in, d_out) int8 weights.  Returns the (n, d_out) int16
    result and the number of entries that saturated.  Because activations are
    binary, each output entry is plainly the sum of the weights selected by
    the active inputs, so |partial sum| <= 128 * d_in.
    """
    s = np.asarray(s_t)
    if s.ndim != 2:
        raise ShapeError(f"spike slice must be 2-d, got {s.ndim}-d")
    if s.size and (s.min() < 0 or s.max() > 1):
        raise ValueError("spike slice entries must be 0 or 1")
    if s.shape[1] != w.rows:
        raise ShapeError(f"spike features {s.shape[1]} do not match weight rows {w.rows}")
    return saturate_i16(_exact_matmul(s, w.data, 128 * w.rows))


def lif_step(v: PotentialState, x_t: np.ndarray, p: LifParams) -> tuple[PotentialState, np.ndarray]:
    """Advance every neuron by one timestep.

    The candidate potential is previous potential plus integrated input minus
    leak.  Neurons strictly above threshold emit a spike and hard-reset to
    zero; all others keep the candidate value (there is no lower clamp).
    Returns the new state and the (n, d) binary spike matrix.
    """
    x = np.asarray(x_t)
    if x.shape != v.data.shape:
        raise ShapeError(f"input shape {x.shape} does not match potential shape {v.data.shape}")
    candidate = v.data.astype(np.int64) + x.astype(np.int64) - p.v_leak
    spikes = candidate > p.v_threshold
    nxt = np.where(spikes, np.int64(0), candidate)
    return PotentialState(nxt), spikes.astype(np.uint8)


def lif_run(x: IntegrationTensor, p: LifParams) -> SpikeTensor:
    """Run the neuron update over all timesteps of an integration tensor."""
    v = PotentialState.zeros(x.n, x.d, fill=p.initial_potential)
    out = np.empty((x.n, x.t, x.d), dtype=np.uint8)
    for t in range(x.t):
        v, spikes = lif_step(v, x.data[:, t, :], p)
        out[:, t, :] = spikes
    return SpikeTensor(out)


def quantize_weights(w_real: np.ndarray, bits: int = 8) -> QuantWeightMatrix:
    """Symmetric per-tensor quantization of real weights.

    scale = max(|w|) / qmax with qmax = 2**(bits-1) - 1; entries are rounded
    and clamped to [-qmax, qmax].  An all-zero matrix quantizes to zeros with
    scale 1.0 so that dequantization stays well defined.
    """
    w = np.asarray(w_real, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"weights must be 2-d, got {w.ndim}-d")
    if w.size == 0:
        raise ShapeError("weights must be non-empty")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if not 2 <= bits <= 8:
        raise ValueError(f"quantization width must be in [2, 8] bits, got {bits}")
    qmax = 2 ** (bits - 1) - 1
    peak = float(np.abs(w).max())
    if peak == 0.0:
        return QuantWeightMatrix(np.zeros(w.shape, dtype=np.int8), 1.0)
    scale = peak / qmax
    q = np.clip(np.round(w / scale), -qmax, qmax).astype(np.int8)
    return QuantWeightMatrix(q, scale)
