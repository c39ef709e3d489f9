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
* the reassociated attention layer: n for K^T V, then n * d for Q (K^T V),
  per head, batched over heads and timesteps.

The step to int16 (:func:`_narrow_i16`) follows a bound too.  Each caller
passes the range of its accumulator:

* ``spike_matmul``: [-128 * d_in, 127 * d_in], binary spikes times int8
  weights, which fits int16 for d_in <= 256;
* the attention integrations, Q (K^T V) and the map-based (Q K^T) V:
  [0, n * d] per head, binary operands (map entries <= d), which fits int16
  for n * d <= 32767.

When the range fits, no entry can clamp: the exact accumulator is cast
straight to int16 and 0 saturations are counted.  Otherwise every entry is
clamped and the clamped ones counted (:func:`saturate_i16`).  The routing
scores' spike counts over time are summed in the smallest unsigned type that
holds t (uint8 up to t = 255), since no count exceeds t.

Public constructors copy their input and check its values.  A pipeline
stage that has just allocated an array of the carrier's dtype, with values
its construction proves in range, and that holds the only reference, wraps
it with :func:`_adopt` instead: the array is made read-only in place, with
no second copy or check.  These are an expert's int16 integration, the MoE
layer's per-expert slices of its expert-ordered gather and of its int16
buffer (disjoint, each adopted once written and never written again) and
that buffer once every slice is written, the token-ordered spikes that
``merge_aligned`` scatters, the reassociated attention integration, the
spikes of :func:`lif_run` (its bool output viewed as uint8) and those of a
chunked input draw.  ``expert_forward`` feeds ``spike_matmul`` a bool view
of the spike rows, so their 0/1 check costs no pass over the data.

The neuron update (:func:`lif_run`, :func:`lif_step`) is one kernel that
updates the potential in place and resets fired neurons by multiplying with
the inverted spike mask.  Its dtype follows a bound: after s steps,
|v| <= |v0| + s * (x_peak + |leak|), where x_peak = max(-min x, max x) is the
integration's own peak, since a step adds at most x_peak + |leak| in either
direction and a reset only moves v to 0.  The loop runs in the narrowest
type whose range holds that bound for s = t:

* int16 when it is at most 2**15 - 1, the int16 carrier's own range;
* int32 when it is at most 2**31 - 1;
* otherwise int64, checking the range after each reset and raising
  :class:`OverflowError` when a potential leaves the 32-bit range.

In int16 and int32 every intermediate value, before and after the reset,
lies inside the bound, so no addition can wrap and no step is checked.  A
threshold above the type's maximum is clipped to it, which no potential can
exceed, so the comparison is exact too.  :func:`lif_run` finds x_peak with
one min and one max pass over the int16 data; :func:`lif_step` starts from
an int32 state, |v0| <= 2**31, so it always runs the checked int64 loop.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError

INT16_MIN = -(2**15)
INT16_MAX = 2**15 - 1
INT32_MIN = -(2**31)
INT32_MAX = 2**31 - 1
INT64_MAX = 2**63 - 1

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


def _check_integers(arr: np.ndarray, lo: int, hi: int, message: str, error: type = ValueError) -> None:
    """Refuse ``arr`` unless every value is an integer in [lo, hi], before any cast.

    A non-integer raises :class:`ValueError`, an integer outside the range
    raises ``error``.  Only what the dtype leaves open is checked: a bool
    array, or an integer array whose type fits the range, costs no pass over
    the data, and a uint8 array is checked against ``hi`` only.
    """
    kind = arr.dtype.kind
    if kind == "b":
        low, high = 0, 1
    elif kind in "iu":
        info = np.iinfo(arr.dtype)
        low, high = int(info.min), int(info.max)
    else:
        with np.errstate(invalid="ignore"):
            if arr.size and np.any(arr % 1 != 0):  # fractions, NaN and inf
                raise ValueError(message)
        low, high = -math.inf, math.inf
    if arr.size and ((low < lo and arr.min() < lo) or (high > hi and arr.max() > hi)):
        raise error(message)


def saturate_i16(acc: np.ndarray) -> tuple[np.ndarray, int]:
    """Clamp an accumulator to the 16-bit range, counting clamped entries.

    ``acc`` holds exact integers, as an integer array or as the float result
    of :func:`_exact_matmul`; either is clamped directly.
    """
    clipped = np.clip(acc, INT16_MIN, INT16_MAX)
    saturated = int(np.count_nonzero(clipped != acc))
    return clipped.astype(np.int16), saturated


def _narrow_i16(acc: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """:func:`saturate_i16` of an accumulator whose entries all lie in [lo, hi].

    When [lo, hi] fits int16 no entry can clamp, so the plain cast is the
    clamped result and the count is 0; otherwise the entries are clamped and
    counted.
    """
    if INT16_MIN <= lo and hi <= INT16_MAX:
        return acc.astype(np.int16), 0
    return saturate_i16(acc)


def _adopt(cls, data: np.ndarray, **fields):
    """A ``cls`` carrier holding ``data`` itself: no copy, no value check.

    Only for an array the caller has just allocated, already of the
    carrier's dtype and value range, that nothing else references; it is
    made read-only in place.
    """
    carrier = object.__new__(cls)
    data.setflags(write=False)
    carrier.data = data
    for name, value in fields.items():
        setattr(carrier, name, value)
    return carrier


class SpikeTensor:
    """Binary activations laid out as (token, timestep, feature).

    Token count may be zero (an expert that received no tokens); timestep and
    feature extents must be at least one.  Instances are read-only after
    construction.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ShapeError(f"spike tensor must be 3-d (tokens, timesteps, features), got {arr.ndim}-d")
        if arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ShapeError(f"timestep and feature extents must be >= 1, got shape {arr.shape}")
        _check_integers(arr, 0, 1, "spike values must be 0 or 1")
        arr = np.array(arr, dtype=np.uint8, copy=True)
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

    def popcount(self) -> int:
        return int(self.data.sum())

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
        """Inverse of :meth:`to_bytes`: the payload is exactly ceil(n * t * d / 8) bytes."""
        if len(blob) < _HEADER.size:
            raise ValueError("spike stream too short for dims header")
        a, b, c = _HEADER.unpack_from(blob, 0)
        nbits = a * b * c
        payload = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
        if payload.size != -(-nbits // 8):
            raise ValueError(f"spike stream payload holds {payload.size} bytes, {nbits} bits need {-(-nbits // 8)}")
        bits = np.unpackbits(payload, count=nbits, bitorder="little")
        return cls(bits.reshape(a, b, c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpikeTensor):
            return NotImplemented
        return self.data.shape == other.data.shape and bool(np.array_equal(self.data, other.data))

    def __repr__(self) -> str:
        return f"SpikeTensor(n={self.n}, t={self.t}, d={self.d}, ones={self.popcount()})"


class QuantWeightMatrix:
    """Symmetrically quantized 8-bit weights with a positive real scale."""

    __slots__ = ("data", "scale")

    def __init__(self, data: np.ndarray, scale: float = 1.0):
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ShapeError(f"weight matrix must be 2-d, got {arr.ndim}-d")
        _check_integers(arr, -128, 127, "quantized weights must be integers that fit in int8")
        arr = np.array(arr, dtype=np.int8, copy=True)
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

    def __repr__(self) -> str:
        return f"QuantWeightMatrix(rows={self.rows}, cols={self.cols}, scale={self.scale})"


class IntegrationTensor:
    """Synaptic integration values: int16 with saturation accounting.

    ``saturations`` counts accumulator results that had to be clamped into the
    16-bit range; values are never silently wrapped.
    """

    __slots__ = ("data", "saturations")

    def __init__(self, data: np.ndarray, saturations: int = 0):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise ShapeError(f"integration tensor must be 3-d, got {arr.ndim}-d")
        _check_integers(
            arr, INT16_MIN, INT16_MAX, "integration values must be integers that fit in int16; saturate before construction"
        )
        arr = np.array(arr, dtype=np.int16, copy=True)
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
        arr = np.asarray(data)
        if arr.ndim != 2:
            raise ShapeError(f"potential state must be 2-d, got {arr.ndim}-d")
        _check_integers(
            arr, INT32_MIN, INT32_MAX, "membrane potential must be an integer in the 32-bit accumulator range",
            OverflowError,
        )
        arr = np.array(arr, dtype=np.int32, copy=True)
        arr.setflags(write=False)
        self.data = arr

    @classmethod
    def zeros(cls, n: int, d: int, fill: int = 0) -> "PotentialState":
        return cls(np.full((n, d), fill))

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
    _check_integers(s, 0, 1, "spike slice entries must be 0 or 1")
    if s.shape[1] != w.rows:
        raise ShapeError(f"spike features {s.shape[1]} do not match weight rows {w.rows}")
    return _narrow_i16(_exact_matmul(s, w.data, 128 * w.rows), -128 * w.rows, 127 * w.rows)


def _lif(x: np.ndarray, x_peak: int, v0, v0_peak: int, p: LifParams) -> tuple[np.ndarray, np.ndarray]:
    """The neuron update over every timestep of ``x``.

    ``x`` holds (n, t, d) integers with |x| <= ``x_peak``; ``v0`` is the
    starting potential, a scalar or an (n, d) array inside the 32-bit range
    with |v0| <= ``v0_peak``.  Returns the (n, t, d) bool spikes and the final
    (n, d) potential.  The potential is int16 or int32 when the bound in the
    module docstring, ``v0_peak + t * (x_peak + |leak|)``, fits that type, and
    int64 with a range check after every reset otherwise; the int64
    candidate of one step, below 2**31 + x_peak + |leak|, must not wrap.  An
    integer exceeds a real threshold exactly when it exceeds the threshold's
    floor, which is clipped to the potential's type.
    """
    n, t, d = x.shape
    peak = v0_peak + t * (x_peak + abs(p.v_leak))
    wide = peak > INT32_MAX
    if wide and INT32_MAX + 1 + x_peak + abs(p.v_leak) > INT64_MAX:
        raise OverflowError("one step of integrated input exceeds the 64-bit potential update")
    if peak <= INT16_MAX:
        dtype = np.int16
    else:
        dtype = np.int64 if wide else np.int32
    threshold = min(math.floor(p.v_threshold), int(np.iinfo(dtype).max))
    v = np.empty((n, d), dtype=dtype)
    v[...] = v0
    spikes = np.empty((n, d), dtype=bool)
    out = np.empty((n, t, d), dtype=bool)
    for s in range(t):
        np.add(v, x[:, s, :], out=v)
        if p.v_leak:
            np.subtract(v, p.v_leak, out=v)
        np.greater(v, threshold, out=spikes)
        out[:, s, :] = spikes
        v *= np.logical_not(spikes, out=spikes)
        if wide and v.size and (v.min() < INT32_MIN or v.max() > INT32_MAX):
            raise OverflowError("membrane potential exceeds the 32-bit accumulator range")
    return out, v


def lif_step(v: PotentialState, x_t: np.ndarray, p: LifParams) -> tuple[PotentialState, np.ndarray]:
    """Advance every neuron by one timestep.

    The candidate potential is previous potential plus integrated input minus
    leak.  Neurons strictly above threshold emit a spike and hard-reset to
    zero; all others keep the candidate value (there is no lower clamp).
    Returns the new state and the (n, d) binary spike matrix.  This is the
    one-step case of the :func:`lif_run` kernel.
    """
    x = np.asarray(x_t)
    if x.shape != v.data.shape:
        raise ShapeError(f"input shape {x.shape} does not match potential shape {v.data.shape}")
    _check_integers(x, -INT64_MAX - 1, INT64_MAX, "integrated input must be 64-bit integers", OverflowError)
    x = x.astype(np.int64)
    x_peak = max(-int(x.min()), int(x.max())) if x.size else 0
    spikes, nxt = _lif(x[:, None, :], x_peak, v.data, 2**31, p)
    return PotentialState(nxt), spikes[:, 0, :].view(np.uint8)


def lif_run(x: IntegrationTensor, p: LifParams) -> SpikeTensor:
    """Run the neuron update over all timesteps of an integration tensor.

    The potential starts at ``p.initial_potential`` everywhere, which must lie
    in the 32-bit range.
    """
    if not INT32_MIN <= p.initial_potential <= INT32_MAX:
        raise OverflowError("membrane potential exceeds the 32-bit accumulator range")
    x_peak = max(-int(x.data.min()), int(x.data.max())) if x.data.size else 0
    spikes, _ = _lif(x.data, x_peak, p.initial_potential, abs(p.initial_potential), p)
    return _adopt(SpikeTensor, spikes.view(np.uint8))
