"""Carrier types, saturating integration, and the neuron engine."""

import struct

import numpy as np
import pytest

from spikesim import (
    IntegrationTensor,
    LifParams,
    PotentialState,
    QuantWeightMatrix,
    ShapeError,
    SpikeTensor,
    lif_run,
    lif_step,
    saturate_i16,
    spike_matmul,
)
from spikesim.mha import _reassociated_integration
from spikesim.moe import (
    RoutingWeights,
    compute_expert_scores,
    expert_forward,
    merge_aligned,
    route_topk,
)
from spikesim.tensors import INT16_MAX, INT16_MIN

from object_model import expert_tokens
from oracles import scalar_lif_lane, scalar_lif_run, triple_loop_matmul


def rand_spikes(rng, n, t, d, p=0.3):
    return SpikeTensor(rng.random((n, t, d)) < p)


class TestSpikeTensor:
    def test_shape_and_properties(self):
        s = SpikeTensor(np.zeros((3, 2, 5), dtype=np.uint8))
        assert (s.n, s.t, s.d) == (3, 2, 5)

    def test_zero_tokens_allowed(self):
        s = SpikeTensor(np.zeros((0, 2, 5), dtype=np.uint8))
        assert s.n == 0 and s.popcount() == 0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            SpikeTensor(np.full((1, 1, 1), 2, dtype=np.uint8))

    def test_checks_values_before_the_uint8_cast(self):
        # 256 and -255 wrap to 0 and 1 in uint8; 0.5 and 1.7 truncate to 0 and 1.
        for bad in ([[[256, 1]]], [[[0.5]]], [[[1.7]]], [[[-255]]], [[[np.nan]]], [[[-1]]]):
            with pytest.raises(ValueError):
                SpikeTensor(np.array(bad))
        assert SpikeTensor(np.array([[[0.0, 1.0]]])).data.tolist() == [[[0, 1]]]
        assert SpikeTensor(np.array([[[False, True]]])).data.dtype == np.uint8

    def test_rejects_wrong_rank_and_empty_axes(self):
        with pytest.raises(ShapeError):
            SpikeTensor(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            SpikeTensor(np.zeros((2, 0, 2), dtype=np.uint8))
        with pytest.raises(ShapeError):
            SpikeTensor(np.zeros((2, 2, 0), dtype=np.uint8))

    def test_read_only(self):
        s = SpikeTensor(np.zeros((1, 1, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            s.data[0, 0, 0] = 1

    def test_unhashable(self):
        # Tensors compare by value and are not meant to be dict keys.
        with pytest.raises(TypeError):
            hash(SpikeTensor(np.zeros((1, 1, 4), dtype=np.uint8)))

    def test_slice_and_popcount(self):
        rng = np.random.default_rng(0)
        s = rand_spikes(rng, 4, 3, 8)
        assert s.popcount() == int(s.data.sum())


class TestSpikeSerialization:
    def test_header_and_bit_order(self):
        # Bit pattern 1,0,1,1,0,0,0,1 packs little-endian into 0x8d.
        s = SpikeTensor(np.array([[[1, 0, 1, 1, 0, 0, 0, 1]]], dtype=np.uint8))
        blob = s.to_bytes()
        assert blob[:12] == struct.pack("<3I", 1, 1, 8)
        assert blob[12] == 0x8D

    def test_round_trip_random_shapes(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(0, 9))
            t = int(rng.integers(1, 5))
            d = int(rng.integers(1, 40))
            s = rand_spikes(rng, n, t, d)
            assert SpikeTensor.from_bytes(s.to_bytes()) == s

    def test_bad_streams(self):
        with pytest.raises(ValueError):
            SpikeTensor.from_bytes(b"\x00" * 4)
        s = SpikeTensor(np.ones((2, 2, 8), dtype=np.uint8))
        with pytest.raises(ValueError):
            SpikeTensor.from_bytes(s.to_bytes()[:-2])

    @pytest.mark.parametrize("shape", [(2, 2, 8), (3, 1, 5), (0, 2, 3)])
    def test_payload_must_be_exactly_its_bits(self, shape):
        # 32, 15 and 0 bits: 4, 2 and 0 payload bytes, no more and no fewer.
        blob = SpikeTensor(np.ones(shape, dtype=np.uint8)).to_bytes()
        assert len(blob) == 12 + -(-np.prod(shape) // 8)
        for bad in (blob + b"x", blob + b"\x00", blob[:-1] if len(blob) > 12 else None):
            if bad is not None:
                with pytest.raises(ValueError, match="payload holds"):
                    SpikeTensor.from_bytes(bad)


class TestSaturation:
    def test_clamps_and_counts(self):
        acc = np.array([INT16_MAX + 1, INT16_MIN - 1, 0, 17], dtype=np.int64)
        out, sat = saturate_i16(acc)
        assert out.dtype == np.int16
        assert out.tolist() == [INT16_MAX, INT16_MIN, 0, 17]
        assert sat == 2

    def test_no_clamp_no_count(self):
        out, sat = saturate_i16(np.array([[INT16_MAX, INT16_MIN]], dtype=np.int64))
        assert sat == 0 and out.tolist() == [[INT16_MAX, INT16_MIN]]


class TestSpikeMatmul:
    def test_zero_input(self):
        w = QuantWeightMatrix(np.arange(12, dtype=np.int8).reshape(4, 3))
        out, sat = spike_matmul(np.zeros((2, 4), dtype=np.uint8), w)
        assert not out.any() and sat == 0

    def test_one_hot_selects_weight_row(self):
        w = np.zeros((8, 4), dtype=np.int8)
        w[3, 2] = 5
        s = np.zeros((1, 8), dtype=np.uint8)
        s[0, 3] = 1
        out, _ = spike_matmul(s, QuantWeightMatrix(w))
        assert out[0, 2] == 5 and int(np.abs(out).sum()) == 5

    def test_matches_triple_loop_seed_42(self):
        rng = np.random.default_rng(42)
        s = (rng.random((4, 8)) < 0.5).astype(np.uint8)
        w = rng.integers(-127, 128, size=(8, 4), dtype=np.int8)
        out, sat = spike_matmul(s, QuantWeightMatrix(w))
        ref, ref_sat = triple_loop_matmul(s.tolist(), w.tolist())
        assert out.tolist() == ref and sat == ref_sat

    def test_matches_triple_loop_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, d_in, d_out = (int(rng.integers(1, 33)) for _ in range(3))
            s = (rng.random((n, d_in)) < 0.4).astype(np.uint8)
            w = rng.integers(-128, 128, size=(d_in, d_out), dtype=np.int8)
            out, sat = spike_matmul(s, QuantWeightMatrix(w))
            ref, ref_sat = triple_loop_matmul(s.tolist(), w.tolist())
            assert out.tolist() == ref and sat == ref_sat

    def test_saturation_is_counted(self):
        # 300 active inputs of weight 127 overflow the 16-bit band.
        s = np.ones((2, 300), dtype=np.uint8)
        w = QuantWeightMatrix(np.full((300, 3), 127, dtype=np.int8))
        out, sat = spike_matmul(s, w)
        assert np.all(out == INT16_MAX) and sat == 6

    def test_errors(self):
        w = QuantWeightMatrix(np.zeros((4, 2), dtype=np.int8))
        with pytest.raises(ShapeError):
            spike_matmul(np.zeros((2, 3), dtype=np.uint8), w)
        with pytest.raises(ShapeError):
            spike_matmul(np.zeros(4, dtype=np.uint8), w)
        with pytest.raises(ValueError):
            spike_matmul(np.full((1, 4), 3, dtype=np.uint8), w)

    def test_checks_values_before_the_product(self):
        w = QuantWeightMatrix(np.ones((2, 1), dtype=np.int8))
        for bad in ([[0.5, 1.0]], [[-1, 1]], [[2, 0]], [[np.nan, 0.0]]):
            with pytest.raises(ValueError):
                spike_matmul(np.array(bad), w)
        assert spike_matmul(np.array([[1.0, 1.0]]), w)[0].tolist() == [[2]]


class TestLifStep:
    def test_quiescent(self):
        v = PotentialState.zeros(2, 3)
        nxt, spikes = lif_step(v, np.zeros((2, 3), dtype=np.int64), LifParams())
        assert not spikes.any() and not nxt.data.any()

    def test_crossing_threshold_spikes_and_resets(self):
        # Scaled units: v=5, input 6, threshold 10 -> candidate 11 fires.
        v = PotentialState(np.full((1, 1), 5))
        nxt, spikes = lif_step(v, np.array([[6]]), LifParams(v_threshold=10.0))
        assert spikes[0, 0] == 1 and nxt.data[0, 0] == 0

    def test_below_threshold_holds_value(self):
        # v=5, input 3, leak 1, threshold 10 -> candidate 7 held.
        v = PotentialState(np.full((1, 1), 5))
        nxt, spikes = lif_step(v, np.array([[3]]), LifParams(v_threshold=10.0, v_leak=1))
        assert spikes[0, 0] == 0 and nxt.data[0, 0] == 7

    def test_exact_threshold_does_not_fire(self):
        v = PotentialState(np.zeros((1, 1)))
        nxt, spikes = lif_step(v, np.array([[10]]), LifParams(v_threshold=10.0))
        assert spikes[0, 0] == 0 and nxt.data[0, 0] == 10

    def test_potential_may_go_negative(self):
        v = PotentialState(np.zeros((1, 2)))
        nxt, spikes = lif_step(v, np.array([[-5, 0]]), LifParams(v_leak=2))
        assert not spikes.any()
        assert nxt.data.tolist() == [[-7, -2]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            lif_step(PotentialState.zeros(2, 2), np.zeros((2, 3)), LifParams())


class TestLifRun:
    def test_single_step_equals_lif_step(self):
        rng = np.random.default_rng(11)
        x = rng.integers(-4, 5, size=(3, 1, 4))
        p = LifParams(v_threshold=2.0)
        run = lif_run(IntegrationTensor(x), p)
        _, step = lif_step(PotentialState.zeros(3, 4), x[:, 0, :], p)
        assert np.array_equal(run.data[:, 0, :], step)

    def test_constant_drive_fires_every_third_step(self):
        # 4 units per step against a threshold of 10 crosses after 3 steps.
        x = IntegrationTensor(np.full((1, 9, 1), 4, dtype=np.int16))
        out = lif_run(x, LifParams(v_threshold=10.0))
        assert out.data[0, :, 0].tolist() == [0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_matches_scalar_reference_seed_7(self):
        rng = np.random.default_rng(7)
        x = rng.integers(-3, 6, size=(4, 8, 4))
        out = lif_run(IntegrationTensor(x), LifParams(v_threshold=3.0, v_leak=1))
        ref = scalar_lif_run(x, v_th=3.0, v_leak=1)
        assert np.array_equal(out.data, ref)

    def test_initial_potential_is_applied(self):
        x = IntegrationTensor(np.zeros((1, 2, 1), dtype=np.int16))
        out = lif_run(x, LifParams(v_threshold=2.0, initial_potential=3))
        assert out.data[0, :, 0].tolist() == [1, 0]

    def test_matches_scalar_reference_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n, t, d = (int(rng.integers(1, 7)) for _ in range(3))
            x = rng.integers(-8, 9, size=(n, t, d))
            th = float(rng.integers(1, 6))
            leak = int(rng.integers(0, 3))
            out = lif_run(IntegrationTensor(x), LifParams(v_threshold=th, v_leak=leak))
            assert np.array_equal(out.data, scalar_lif_run(x, v_th=th, v_leak=leak))


class TestLifProperties:
    def test_hard_reset(self):
        rng = np.random.default_rng(5)
        v = PotentialState.zeros(50, 8)
        p = LifParams(v_threshold=4.0)
        for _ in range(6):
            x = rng.integers(-5, 9, size=(50, 8))
            v, spikes = lif_step(v, x, p)
            assert np.all(v.data[spikes == 1] == 0)

    def test_monotone_threshold(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            t = int(rng.integers(1, 10))
            x = rng.integers(0, 7, size=(1, t, 1))
            lo = float(rng.integers(1, 5))
            hi = lo + float(rng.integers(1, 5))
            n_lo = int(lif_run(IntegrationTensor(x), LifParams(v_threshold=lo)).popcount())
            n_hi = int(lif_run(IntegrationTensor(x), LifParams(v_threshold=hi)).popcount())
            assert n_hi <= n_lo

    def test_final_potential_matches_scalar_recurrence(self):
        rng = np.random.default_rng(8)
        xs = rng.integers(-4, 7, size=12)
        p = LifParams(v_threshold=5.0, v_leak=1)
        v = PotentialState.zeros(1, 1)
        for x in xs:
            v, _ = lif_step(v, np.array([[x]]), p)
        _, final = scalar_lif_lane([int(x) for x in xs], v_th=5.0, v_leak=1)
        assert int(v.data[0, 0]) == final


class TestLifParams:
    def test_defaults(self):
        p = LifParams()
        assert (p.v_threshold, p.v_leak, p.initial_potential) == (1.0, 0, 0)

    def test_rejects_bad_threshold(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                LifParams(v_threshold=bad)

    def test_integral_coercion(self):
        p = LifParams(v_leak=2.0, initial_potential=-1.0)
        assert p.v_leak == 2 and isinstance(p.v_leak, int)
        assert p.initial_potential == -1
        with pytest.raises(ValueError):
            LifParams(v_leak=0.5)


class TestPotentialState:
    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            PotentialState(np.array([[2**31]]))
        PotentialState(np.array([[2**31 - 1, -(2**31)]]))  # boundary values fit

    def test_checks_values_before_the_int32_cast(self):
        for bad in (1.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                PotentialState(np.full((1, 1), bad))
        for bad in (2.0**31, -(2.0**31) - 1):
            with pytest.raises(OverflowError):
                PotentialState(np.full((1, 1), bad))
        with pytest.raises(OverflowError):
            PotentialState(np.array([[2**64 - 1]], dtype=np.uint64))  # -1 after an int64 cast
        assert PotentialState(np.array([[-(2.0**31), 7.0]])).data.tolist() == [[-(2**31), 7]]

    def test_zeros_fill(self):
        v = PotentialState.zeros(2, 2, fill=7)
        assert np.all(v.data == 7)


class TestIntegrationTensor:
    def test_range_guard(self):
        with pytest.raises(ValueError):
            IntegrationTensor(np.full((1, 1, 1), INT16_MAX + 1))
        with pytest.raises(ValueError):
            IntegrationTensor(np.zeros((1, 1, 1), dtype=np.int16), saturations=-1)

    def test_checks_values_before_the_int16_cast(self):
        for bad in (1.5, -0.25, np.nan, INT16_MAX + 1.0, INT16_MIN - 1):
            with pytest.raises(ValueError):
                IntegrationTensor(np.full((1, 1, 1), bad))
        with pytest.raises(ValueError):
            IntegrationTensor(np.full((1, 1, 1), 2**16 + 1, dtype=np.uint32))  # 1 after an int16 cast
        assert IntegrationTensor(np.array([[[-3.0, INT16_MAX]]])).data.tolist() == [[[-3, INT16_MAX]]]

    def test_saturation_bookkeeping(self):
        x = IntegrationTensor(np.zeros((1, 2, 3), dtype=np.int16), saturations=4)
        assert x.saturations == 4 and (x.n, x.t, x.d) == (1, 2, 3)


class TestCarrierOwnership:
    """Public constructors copy their input; arrays the pipeline adopts are made read-only."""

    def test_public_constructors_copy(self):
        cases = (
            (SpikeTensor, np.zeros((2, 2, 2), dtype=np.uint8), 1),
            (IntegrationTensor, np.zeros((2, 2, 2), dtype=np.int16), 7),
            (QuantWeightMatrix, np.zeros((2, 2), dtype=np.int8), -5),
            (PotentialState, np.zeros((2, 2), dtype=np.int32), 9),
        )
        for cls, source, value in cases:
            carrier = cls(source)
            source[...] = value
            assert not carrier.data.any(), cls.__name__
            assert not np.shares_memory(carrier.data, source), cls.__name__

    def test_adopted_arrays_are_read_only(self):
        rng = np.random.default_rng(12)
        s = rand_spikes(rng, 6, 2, 8, p=0.6)
        w = QuantWeightMatrix(rng.integers(-128, 128, size=(8, 8)))
        table = route_topk(compute_expert_scores(s, RoutingWeights(QuantWeightMatrix(w.data[:, :2]))))
        assert all(len(tokens) for tokens in expert_tokens(table))
        integrations = [expert_forward(SpikeTensor(s.data[tokens]), w) for tokens in expert_tokens(table)]
        # Both experts share w, so one integration of the expert-ordered rows is the layer's buffer.
        fired = lif_run(expert_forward(SpikeTensor(s.data[table.order]), w), LifParams())
        adopted = {
            "expert_forward": integrations[0],
            "merge_aligned": merge_aligned(fired, table),
            "reassociated integration": _reassociated_integration(s, s, s, 2),
            "lif_run": lif_run(integrations[1], LifParams()),
        }
        for name, carrier in adopted.items():
            assert not carrier.data.flags.writeable, name
            with pytest.raises(ValueError):
                carrier.data[0, 0, 0] = 0
        assert adopted["lif_run"].data.dtype == np.uint8


class TestQuantWeights:
    def test_matrix_validation(self):
        with pytest.raises(ValueError):
            QuantWeightMatrix(np.zeros((2, 2), dtype=np.int8), scale=0.0)
        with pytest.raises(ValueError):
            QuantWeightMatrix(np.full((1, 1), 300))
        with pytest.raises(ShapeError):
            QuantWeightMatrix(np.zeros(4, dtype=np.int8))

    def test_checks_values_before_the_int8_cast(self):
        for bad in (1.5, -127.5, np.nan, 128.0, 2**8 + 1):
            with pytest.raises(ValueError):
                QuantWeightMatrix(np.full((1, 1), bad))
        assert QuantWeightMatrix(np.array([[-128.0, 127.0]])).data.tolist() == [[-128, 127]]


class TestBinaryClosure:
    def test_every_pipeline_output_is_binary(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n, t, d = (int(rng.integers(1, 8)) for _ in range(3))
            x = rng.integers(-20, 21, size=(n, t, d))
            out = lif_run(IntegrationTensor(x), LifParams(v_threshold=2.0))
            assert set(np.unique(out.data)).issubset({0, 1})
