"""Exactness of the BLAS float kernels at the edges of their integer bounds.

Every integer product runs as a float32 matmul while the bound on its partial
sums is below 2**24 and as a float64 matmul below 2**53.  These tests sit on
both sides of each switch point and at forced int16 saturation, and compare
against plain int64 references.
"""

import numpy as np
import pytest

from spikesim import (
    ConfigError,
    IntegrationTensor,
    LifParams,
    MhaConfig,
    QuantWeightMatrix,
    RoutingWeights,
    SpikeTensor,
    attention_weighted_integration,
    compute_expert_scores,
    expert_forward,
    lif_run,
    mha_forward,
    saturate_i16,
    spike_matmul,
    spiking_attention_map,
)
from spikesim.mha import _reassociated_integration
from spikesim.tensors import INT16_MAX, INT16_MIN, _exact_matmul

F32_EXACT = 2**24


def saturate_ref(acc: np.ndarray) -> tuple[np.ndarray, int]:
    """int64 reference for the 16-bit clamp."""
    clipped = np.clip(acc, INT16_MIN, INT16_MAX)
    return clipped.astype(np.int16), int(np.count_nonzero(clipped != acc))


def spike_matmul_ref(s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, int]:
    return saturate_ref(s.astype(np.int64) @ w.astype(np.int64))


@pytest.fixture
def matmul_dtypes(monkeypatch):
    """Record the float dtype of every ``_exact_matmul`` result."""
    seen = []

    def recording(a, b, bound):
        out = _exact_matmul(a, b, bound)
        seen.append(out.dtype)
        return out

    for module in ("tensors", "moe", "mha"):
        monkeypatch.setattr(f"spikesim.{module}._exact_matmul", recording)
    return seen


class TestExactMatmul:
    def test_float32_just_below_the_switch(self):
        a = np.ones((1, 2), dtype=np.int64)
        b = np.array([[3], [4]], dtype=np.int64)
        assert _exact_matmul(a, b, F32_EXACT - 1).dtype == np.float32

    def test_float64_at_and_above_the_switch(self):
        a = np.ones((1, 2), dtype=np.int64)
        b = np.array([[3], [4]], dtype=np.int64)
        assert _exact_matmul(a, b, F32_EXACT).dtype == np.float64
        assert _exact_matmul(a, b, 2**53 - 1).dtype == np.float64

    def test_float64_keeps_the_integer_float32_would_round(self):
        a = np.ones((1, 2), dtype=np.int64)
        b = np.array([[F32_EXACT], [1]], dtype=np.int64)
        assert float(np.float32(F32_EXACT) + np.float32(1)) == F32_EXACT
        out = _exact_matmul(a, b, F32_EXACT + 1)
        assert int(out[0, 0]) == F32_EXACT + 1

    def test_refuses_past_float64(self):
        a = np.ones((1, 1), dtype=np.int64)
        with pytest.raises(ConfigError, match="2\\*\\*53"):
            _exact_matmul(a, a, 2**53)

    def test_batched(self):
        rng = np.random.default_rng(3)
        a = rng.integers(-128, 128, size=(3, 5, 7))
        b = rng.integers(-128, 128, size=(3, 7, 4))
        np.testing.assert_array_equal(_exact_matmul(a, b, 128 * 128 * 7), a @ b)


def test_saturate_clamps_float_results_like_int64():
    acc = np.array([[-40000, -32769, -32768, 0, 32767, 32768, 99999]], dtype=np.int64)
    for dtype in (np.float32, np.float64):
        out, sat = saturate_i16(acc.astype(dtype))
        assert out.dtype == np.int16
        np.testing.assert_array_equal(out, saturate_ref(acc)[0])
        assert sat == 4


class TestSpikeMatmulAtTheSwitch:
    """|partial sum| <= 128 * d_in: float32 up to d_in = 131071, float64 from 131072."""

    @pytest.mark.parametrize("d_in,dtype", [(F32_EXACT // 128 - 1, np.float32), (F32_EXACT // 128, np.float64)])
    def test_matches_int64_reference(self, d_in, dtype, matmul_dtypes):
        rng = np.random.default_rng(d_in)
        half = d_in // 2
        w = np.empty((d_in, 4), dtype=np.int8)
        # Mixed sign, total inside int16: partial sums climb to ~8.4e6 and come back.
        w[:half, 0], w[half:, 0] = 127, -127
        # Every term -128: the partial sums reach 2**24 at d_in = 131072.
        w[:, 1] = -128
        w[:, 2] = rng.integers(-128, 128, size=d_in)
        # Alternating +127 / -128: small partial sums, total far outside int16.
        w[0::2, 3], w[1::2, 3] = 127, -128
        s = np.stack([np.ones(d_in), rng.random(d_in) < 0.5, np.zeros(d_in)]).astype(np.uint8)
        out, sat = spike_matmul(s, QuantWeightMatrix(w))
        ref, ref_sat = spike_matmul_ref(s, w)
        np.testing.assert_array_equal(out, ref)
        assert out.dtype == np.int16
        assert sat == ref_sat > 0
        assert out[0, 0] == (-127 if d_in % 2 else 0)
        assert matmul_dtypes == [dtype]


class TestRoutingScoresAtTheSwitch:
    """|partial sum| <= 128 * t * d_in; scores are exact and never clamped."""

    @pytest.mark.parametrize("d_in,dtype", [(F32_EXACT // 1024 - 1, np.float32), (F32_EXACT // 1024, np.float64)])
    def test_matches_int64_reference(self, d_in, dtype, matmul_dtypes):
        rng = np.random.default_rng(d_in)
        s = np.ones((2, 8, d_in), dtype=np.uint8)
        s[1] = rng.random((8, d_in)) < 0.5
        w = rng.integers(-128, 128, size=(d_in, 3)).astype(np.int8)
        w[:, 0] = 127
        scores = compute_expert_scores(SpikeTensor(s), RoutingWeights(QuantWeightMatrix(w)))
        ref = s.sum(axis=1, dtype=np.int64) @ w.astype(np.int64)
        np.testing.assert_array_equal(scores, ref)
        assert scores.dtype == np.int64
        assert scores[0, 0] == 127 * 8 * d_in
        assert matmul_dtypes == [dtype]


class TestForcedSaturation:
    def test_expert_path(self):
        rng = np.random.default_rng(11)
        n, t, d_in, d_out = 6, 3, 512, 8
        # Spike density 0.5 to 1 by row: sparse rows stay inside int16, dense rows clamp.
        s = (rng.random((n, t, d_in)) < np.linspace(0.5, 1, n)[:, None, None]).astype(np.uint8)
        w = rng.integers(60, 128, size=(d_in, d_out)).astype(np.int8)
        w[:, 1] = -128
        spikes = SpikeTensor(s)
        slabs, saturations = [], 0
        for step in range(t):
            out, sat = spike_matmul(spikes.data[:, step, :], QuantWeightMatrix(w))
            ref, ref_sat = spike_matmul_ref(s[:, step, :], w)
            np.testing.assert_array_equal(out, ref)
            assert sat == ref_sat
            slabs.append(ref)
            saturations += ref_sat
        assert 0 < saturations < n * t * d_out
        # A threshold above int16 fires on the clamped and the raw values at different steps.
        lif = LifParams(v_threshold=40000)
        ref_x = IntegrationTensor(np.stack(slabs, axis=1), saturations)
        raw = np.stack([s[:, step, :].astype(np.int64) @ w.astype(np.int64) for step in range(t)], axis=1)
        assert lif_run(expert_forward(spikes, QuantWeightMatrix(w)), lif) == lif_run(ref_x, lif)
        assert lif_run(ref_x, lif) != _lif_run_unclamped(raw, lif)

    def test_attention_path(self):
        q, k, v = _saturating_qkv()
        ref, ref_sat = _attention_ref(q, k, v)
        assert 0 < ref_sat < ref.size
        x = attention_weighted_integration(spiking_attention_map(q, k), v)
        np.testing.assert_array_equal(x.data, ref)
        assert x.saturations == ref_sat
        x = _reassociated_integration(q, k, v, 1)
        np.testing.assert_array_equal(x.data, ref)
        assert x.saturations == ref_sat


class TestReassociatedHead:
    """Q @ (K.T @ V) equals (Q @ K.T) @ V where n * d passes the int16 range."""

    def test_saturating_shape(self):
        q, k, v = _saturating_qkv()
        lif = LifParams(v_threshold=30000)
        reference = lif_run(attention_weighted_integration(spiking_attention_map(q, k), v), lif)
        assert mha_forward(q, k, v, MhaConfig(heads=1, d_head=q.d, lif=lif)) == reference

    @pytest.mark.parametrize("n,t,d,p", [(640, 2, 64, 0.95), (80, 3, 480, 0.97), (2300, 1, 16, 0.99)])
    def test_random_shapes(self, n, t, d, p):
        assert n * d > INT16_MAX
        rng = np.random.default_rng(n)
        q, k, v = (SpikeTensor(rng.random((n, t, d)) < p) for _ in range(3))
        x = _reassociated_integration(q, k, v, 1)
        ref = attention_weighted_integration(spiking_attention_map(q, k), v)
        np.testing.assert_array_equal(x.data, ref.data)
        assert x.saturations == ref.saturations > 0
        lif = LifParams(v_threshold=float(n * d // 3))
        assert mha_forward(q, k, v, MhaConfig(heads=1, d_head=q.d, lif=lif)) == lif_run(ref, lif)

    @pytest.mark.parametrize("n,t,h,d,p", [(640, 2, 3, 64, 0.95), (7, 3, 3, 5, 0.6)])
    def test_batched_heads_match_per_head_maps(self, n, t, h, d, p):
        rng = np.random.default_rng(n + h)
        q, k, v = (SpikeTensor(rng.random((n, t, h * d)) < p) for _ in range(3))
        heads = [[SpikeTensor(s.data[:, :, i * d:(i + 1) * d]) for s in (q, k, v)] for i in range(h)]
        refs = [attention_weighted_integration(spiking_attention_map(q_h, k_h), v_h) for q_h, k_h, v_h in heads]
        x = _reassociated_integration(q, k, v, h)
        np.testing.assert_array_equal(x.data, np.concatenate([r.data for r in refs], axis=2))
        assert x.saturations == sum(r.saturations for r in refs)
        if n * d > INT16_MAX:
            assert all(r.saturations > 0 for r in refs)
        lif = LifParams(v_threshold=float(n * d // 3))
        out = mha_forward(q, k, v, MhaConfig(heads=h, d_head=d, lif=lif))
        np.testing.assert_array_equal(out.data, np.concatenate([lif_run(r, lif).data for r in refs], axis=2))

    def test_batched_bounds_are_per_head(self, monkeypatch):
        bounds = []

        def recording(a, b, bound):
            bounds.append(bound)
            return _exact_matmul(a, b, bound)

        monkeypatch.setattr("spikesim.mha._exact_matmul", recording)
        q, k, v = _saturating_qkv(heads=3)
        _reassociated_integration(q, k, v, 3)
        assert bounds == [q.n, q.n * 32]

    def test_float32_below_the_switch(self, matmul_dtypes):
        for heads in (1, 3):
            q, k, v = _saturating_qkv(heads)
            matmul_dtypes.clear()
            _reassociated_integration(q, k, v, heads)
            assert matmul_dtypes == [np.float32, np.float32]


@pytest.fixture
def clamp_calls(monkeypatch):
    """Record the size of every accumulator that reaches the clamp-and-count path."""
    seen = []

    def recording(acc):
        seen.append(acc.size)
        return saturate_i16(acc)

    monkeypatch.setattr("spikesim.tensors.saturate_i16", recording)
    return seen


class TestInt16CastEdges:
    """An accumulator whose bound fits int16 is cast, one past it is clamped and counted."""

    @pytest.mark.parametrize("d_in,clamped", [(256, False), (257, True)])
    def test_spike_matmul(self, d_in, clamped, clamp_calls):
        # Every spike on: the columns sum d_in weights of -128 and of 127.
        w = np.empty((d_in, 2), dtype=np.int8)
        w[:, 0], w[:, 1] = -128, 127
        out, sat = spike_matmul(np.ones((1, d_in), dtype=np.uint8), QuantWeightMatrix(w))
        assert out.dtype == np.int16
        if clamped:
            assert out.tolist() == [[INT16_MIN, 127 * 257]] and sat == 1
            assert clamp_calls == [2]
        else:
            assert out.tolist() == [[-32768, 32512]] and sat == 0
            assert clamp_calls == []

    @pytest.mark.parametrize("d_in,clamped", [(256, False), (257, True)])
    def test_expert_forward(self, d_in, clamped, clamp_calls):
        n, t = 3, 2
        w = np.empty((d_in, 2), dtype=np.int8)
        w[:, 0], w[:, 1] = -128, 127
        x = expert_forward(SpikeTensor(np.ones((n, t, d_in), dtype=np.uint8)), QuantWeightMatrix(w))
        ref, ref_sat = saturate_ref(np.full((n, t, 2), [-128 * d_in, 127 * d_in], dtype=np.int64))
        np.testing.assert_array_equal(x.data, ref)
        assert x.saturations == ref_sat == (n * t if clamped else 0)
        assert clamp_calls == ([n * t * 2] if clamped else [])

    @pytest.mark.parametrize("n,d,clamped", [(1057, 31, False), (1024, 32, True)])
    def test_attention(self, n, d, clamped, clamp_calls):
        # All-one Q, K and V: every entry of Q (K.T @ V) and of (Q @ K.T) @ V is n * d.
        q, k, v = (SpikeTensor(np.ones((n, 1, d), dtype=np.uint8)) for _ in range(3))
        for x in (_reassociated_integration(q, k, v, 1), attention_weighted_integration(spiking_attention_map(q, k), v)):
            assert x.data.dtype == np.int16
            if clamped:
                assert (x.data == INT16_MAX).all() and x.saturations == n * d
            else:
                assert (x.data == n * d).all() and n * d == INT16_MAX and x.saturations == 0
        assert clamp_calls == ([n * d, n * d] if clamped else [])

    @pytest.mark.parametrize("t,count_dtype", [(255, np.uint8), (256, np.uint16)])
    def test_routing_counts(self, t, count_dtype, monkeypatch):
        # Every spike on: each per-feature count is t, so every score is t * d_in.
        counts = []

        def recording(a, b, bound):
            counts.append(a)
            return _exact_matmul(a, b, bound)

        monkeypatch.setattr("spikesim.moe._exact_matmul", recording)
        d_in = 3
        scores = compute_expert_scores(
            SpikeTensor(np.ones((2, t, d_in), dtype=np.uint8)), RoutingWeights(QuantWeightMatrix(np.ones((d_in, 2))))
        )
        assert scores.tolist() == [[t * d_in] * 2] * 2
        assert [a.dtype for a in counts] == [count_dtype]
        assert (counts[0] == t).all()


def _saturating_qkv(heads: int = 1):
    """n * d = 34816 per head: near-full rows integrate past INT16_MAX, sparser rows stay below."""
    rng = np.random.default_rng(5)
    n, t, d = 1088, 2, 32 * heads
    q = rng.random((n, t, d)) < 0.6
    q[: n // 2] = True
    k = rng.random((n, t, d)) < 0.97
    v = rng.random((n, t, d)) < 0.99
    return SpikeTensor(q), SpikeTensor(k), SpikeTensor(v)


def _attention_ref(q: SpikeTensor, k: SpikeTensor, v: SpikeTensor) -> tuple[np.ndarray, int]:
    """int64 (Q @ K.T) @ V per timestep, clamped; laid out (n, t, d)."""
    q64, k64, v64 = (s.data.astype(np.int64).transpose(1, 0, 2) for s in (q, k, v))
    acc = (q64 @ k64.transpose(0, 2, 1)) @ v64
    out, sat = saturate_ref(acc)
    return out.transpose(1, 0, 2), sat


def _lif_run_unclamped(raw: np.ndarray, lif: LifParams) -> SpikeTensor:
    v = np.full(raw[:, 0, :].shape, lif.initial_potential, dtype=np.int64)
    out = np.empty(raw.shape, dtype=np.uint8)
    for step in range(raw.shape[1]):
        cand = v + raw[:, step, :] - lif.v_leak
        fired = cand > lif.v_threshold
        out[:, step, :] = fired
        v = np.where(fired, 0, cand)
    return SpikeTensor(out)


def test_dtype_follows_shapes_not_values(matmul_dtypes):
    # An all-zero product past the float32 limit still runs in float64.
    d_in = F32_EXACT // 128
    spike_matmul(np.zeros((1, d_in), dtype=np.uint8), QuantWeightMatrix(np.zeros((d_in, 1), dtype=np.int8)))
    assert matmul_dtypes == [np.float64]
