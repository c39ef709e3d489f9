"""Spiking attention: head partitioning, coincidence maps, weighted integration."""

import numpy as np
import pytest

from spikesim import (
    AttentionMap,
    ConfigError,
    LifParams,
    MhaConfig,
    ShapeError,
    SpikeTensor,
    attention_weighted_integration,
    lif_run,
    mha_forward,
    spiking_attention_map,
)

from oracles import brute_force_mha, coincidence_counts


def rand_spikes(rng, n, t, d, p=0.3):
    return SpikeTensor(rng.random((n, t, d)) < p)


def rand_qkv(rng, n, t, d, p=0.3):
    return tuple(rand_spikes(rng, n, t, d, p) for _ in range(3))


class TestConfig:
    def test_d_model(self):
        assert MhaConfig(heads=4, d_head=16).d_model == 64

    def test_validation(self):
        with pytest.raises(ConfigError):
            MhaConfig(heads=0, d_head=4)
        with pytest.raises(ConfigError):
            MhaConfig(heads=2, d_head=0)


class TestPartitionHeads:
    """``mha_forward`` splits the feature axis into contiguous heads of width d_head."""

    def test_single_head_identity(self):
        rng = np.random.default_rng(30)
        q, k, v = rand_qkv(rng, 3, 2, 8, p=0.6)
        lif = LifParams(v_threshold=2.0)
        out = mha_forward(q, k, v, MhaConfig(heads=1, d_head=8, lif=lif))
        assert out == lif_run(attention_weighted_integration(spiking_attention_map(q, k), v), lif)
        assert out.data.any()

    def test_contiguous_split(self):
        rng = np.random.default_rng(31)
        q, k, v = rand_qkv(rng, 5, 3, 6, p=0.6)
        lif = LifParams(v_threshold=2.0)
        out = mha_forward(q, k, v, MhaConfig(heads=3, d_head=2, lif=lif))
        for lo in (0, 2, 4):
            head = (SpikeTensor(s.data[:, :, lo:lo + 2]) for s in (q, k, v))
            one_head = mha_forward(*head, MhaConfig(heads=1, d_head=2, lif=lif))
            assert np.array_equal(out.data[:, :, lo:lo + 2], one_head.data)

    def test_width_must_match(self):
        rng = np.random.default_rng(32)
        q, k, v = rand_qkv(rng, 2, 2, 6)
        with pytest.raises(ShapeError, match="heads\\*d_head"):
            mha_forward(q, k, v, MhaConfig(heads=2, d_head=2))

    def test_qkv_shapes_must_agree(self):
        rng = np.random.default_rng(33)
        q, k, _ = rand_qkv(rng, 2, 2, 4)
        cfg = MhaConfig(heads=2, d_head=2)
        for name, bad in (("v", rand_spikes(rng, 3, 2, 4)), ("v", rand_spikes(rng, 2, 3, 4)),
                          ("k", rand_spikes(rng, 2, 2, 2))):
            args = {"q": q, "k": k, "v": q, name: bad}
            with pytest.raises(ShapeError, match=f"{name} shape"):
                mha_forward(args["q"], args["k"], args["v"], cfg)


class TestAttentionMap:
    def test_zero_inputs_zero_map(self):
        z = SpikeTensor(np.zeros((4, 2, 8), dtype=np.uint8))
        assert not spiking_attention_map(z, z).data.any()

    def test_single_shared_spike_gives_diagonal_ones(self):
        n, d = 5, 8
        data = np.zeros((n, 1, d), dtype=np.uint8)
        for i in range(n):
            data[i, 0, i % d] = 1
        s = SpikeTensor(data)
        a = spiking_attention_map(s, s)
        assert np.all(np.diagonal(a.data[0]) == 1)

    def test_matches_scalar_oracle_seed_5(self):
        rng = np.random.default_rng(5)
        q = rand_spikes(rng, 8, 2, 16, p=0.5)
        k = rand_spikes(rng, 8, 2, 16, p=0.5)
        a = spiking_attention_map(q, k)
        assert np.array_equal(a.data, coincidence_counts(q.data, k.data))

    def test_entries_bounded_by_head_width(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            t = int(rng.integers(1, 4))
            d = int(rng.integers(1, 17))
            q = rand_spikes(rng, n, t, d, p=float(rng.uniform(0.1, 0.9)))
            k = rand_spikes(rng, n, t, d, p=float(rng.uniform(0.1, 0.9)))
            a = spiking_attention_map(q, k)
            assert a.data.min() >= 0 and a.data.max() <= d

    def test_map_validation(self):
        with pytest.raises(ValueError):
            AttentionMap(np.full((1, 2, 2), 9), d_head=8)
        with pytest.raises(ValueError):
            AttentionMap(np.full((1, 2, 2), -1), d_head=8)
        with pytest.raises(ShapeError):
            AttentionMap(np.zeros((2, 2, 3), dtype=np.int64), d_head=4)


class TestWeightedIntegration:
    def test_zero_map_zero_integration(self):
        a = AttentionMap(np.zeros((2, 3, 3), dtype=np.int64), d_head=4)
        rng = np.random.default_rng(35)
        v = rand_spikes(rng, 3, 2, 4)
        assert not attention_weighted_integration(a, v).data.any()

    def test_diagonal_map_scales_values(self):
        d = 4
        a = AttentionMap(np.eye(3, dtype=np.int64)[None, :, :] * d, d_head=d)
        rng = np.random.default_rng(36)
        v = rand_spikes(rng, 3, 1, d, p=0.5)
        x = attention_weighted_integration(a, v)
        assert np.array_equal(x.data, v.data.astype(np.int16) * d)

    def test_shape_mismatches(self):
        a = AttentionMap(np.zeros((1, 2, 2), dtype=np.int64), d_head=4)
        rng = np.random.default_rng(37)
        with pytest.raises(ShapeError):
            attention_weighted_integration(a, rand_spikes(rng, 3, 1, 4))
        with pytest.raises(ShapeError):
            attention_weighted_integration(a, rand_spikes(rng, 2, 2, 4))


class TestHeadAndForward:
    def test_zero_inputs_zero_output(self):
        z = SpikeTensor(np.zeros((4, 2, 8), dtype=np.uint8))
        out = mha_forward(z, z, z, MhaConfig(heads=2, d_head=4))
        assert not out.data.any()

    def test_single_head_composition(self):
        rng = np.random.default_rng(38)
        q, k, v = rand_qkv(rng, 6, 3, 8)
        lif = LifParams(v_threshold=4.0)
        out = mha_forward(q, k, v, MhaConfig(heads=1, d_head=q.d, lif=lif))
        ref = brute_force_mha(q.data, k.data, v.data, heads=1, d_head=8, v_th=4.0)
        assert np.array_equal(out.data, ref)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(39)
        q, k, v = rand_qkv(rng, 8, 4, 32)
        out = mha_forward(q, k, v, MhaConfig(heads=4, d_head=8))
        ref = brute_force_mha(q.data, k.data, v.data, heads=4, d_head=8)
        assert np.array_equal(out.data, ref)

    def test_zero_head_stays_zero(self):
        rng = np.random.default_rng(40)
        q, k, v = rand_qkv(rng, 4, 2, 8)
        blank = np.array(q.data, copy=True)
        blank[:, :, 4:8] = 0
        out = mha_forward(SpikeTensor(blank), SpikeTensor(blank), SpikeTensor(blank),
                          MhaConfig(heads=2, d_head=4))
        assert not out.data[:, :, 4:8].any()

    def test_head_isolation(self):
        rng = np.random.default_rng(41)
        cfg = MhaConfig(heads=2, d_head=4)
        q, k, v = rand_qkv(rng, 5, 3, 8)
        out = mha_forward(q, k, v, cfg)
        tweaked = np.array(v.data, copy=True)
        tweaked[:, :, 0:4] ^= 1  # flip every head-0 value bit
        out2 = mha_forward(q, k, SpikeTensor(tweaked), cfg)
        assert np.array_equal(out.data[:, :, 4:8], out2.data[:, :, 4:8])

    def test_query_permutation_permutes_rows(self):
        rng = np.random.default_rng(43)
        cfg = MhaConfig(heads=2, d_head=8)
        q, k, v = rand_qkv(rng, 7, 2, 16)
        out = mha_forward(q, k, v, cfg)
        perm = rng.permutation(7)
        out_p = mha_forward(SpikeTensor(q.data[perm]), k, v, cfg)
        assert np.array_equal(out_p.data, out.data[perm])

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(44)
        for _ in range(8):
            n = int(rng.integers(1, 12))
            t = int(rng.integers(1, 5))
            h = int(rng.integers(1, 4))
            d = int(rng.integers(1, 10))
            q, k, v = rand_qkv(rng, n, t, h * d, p=float(rng.uniform(0.1, 0.7)))
            out = mha_forward(q, k, v, MhaConfig(heads=h, d_head=d))
            ref = brute_force_mha(q.data, k.data, v.data, heads=h, d_head=d)
            assert np.array_equal(out.data, ref)
