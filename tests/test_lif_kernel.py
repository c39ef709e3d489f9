"""The LIF kernel at the edges of its int32 bound, and the MoE layer that fires once after its merge."""

import numpy as np
import pytest

from spikesim import (
    ExpertScores,
    IntegrationTensor,
    LifParams,
    MoeLayerConfig,
    PotentialState,
    QuantWeightMatrix,
    RoutingWeights,
    SpikeTensor,
    compute_expert_scores,
    expert_forward,
    gather_expert_tokens,
    lif_run,
    lif_step,
    merge_aligned,
    moe_layer_forward,
    route_topk,
    spike_matmul,
)
from spikesim import moe, tensors
from spikesim.tensors import INT16_MAX, INT16_MIN, INT32_MAX, INT32_MIN

from oracles import scalar_lif_run


def stepped_lif(x, p):
    """Literal per-step reference in Python integers.

    Returns the (n, t, d) spikes and the final potentials.  Raises
    OverflowError when a potential is outside the 32-bit range after its
    reset, as the simulator does.
    """
    x = np.asarray(x)
    n, t, d = x.shape
    v = [[p.initial_potential] * d for _ in range(n)]
    out = np.zeros((n, t, d), dtype=np.uint8)
    for s in range(t):
        for i in range(n):
            for j in range(d):
                c = v[i][j] + int(x[i, s, j]) - p.v_leak
                if c > p.v_threshold:
                    out[i, s, j] = 1
                    c = 0
                if not INT32_MIN <= c <= INT32_MAX:
                    raise OverflowError("reference potential left the 32-bit range")
                v[i][j] = c
    return out, v


@pytest.fixture
def lif_dtypes(monkeypatch):
    """Potential dtypes the kernel ran in, one per call."""
    seen = []
    kernel = tensors._lif

    def spy(*args):
        spikes, v = kernel(*args)
        seen.append(v.dtype)
        return spikes, v

    monkeypatch.setattr(tensors, "_lif", spy)
    return seen


def _edge_params(bound: int, direction: int, threshold: float) -> tuple[LifParams, int]:
    """Parameters with |v0| + t * (2**15 + |leak|) == bound over t = 2 steps.

    ``direction`` -1 drives the potential down with a positive leak, +1 up
    with a negative one.  Returns the parameters and the drive per step.
    """
    leak = 2**29
    v0 = bound - 2 * (-INT16_MIN + leak)
    p = LifParams(v_threshold=threshold, v_leak=-direction * leak, initial_potential=direction * v0)
    return p, INT16_MIN if direction < 0 else INT16_MAX


class TestBoundEdge:
    def test_int32_at_exactly_int32_max(self, lif_dtypes):
        # Driven down by the full bound, the potential ends at -(2**31 - 1);
        # a wrap would turn it positive and fire.
        p, drive = _edge_params(INT32_MAX, -1, threshold=1.0)
        x = np.full((2, 2, 3), drive, dtype=np.int16)
        out = lif_run(IntegrationTensor(x), p)
        assert lif_dtypes == [np.int32]
        want, v = stepped_lif(x, p)
        assert v[0][0] == -INT32_MAX
        assert np.array_equal(out.data, want)
        assert not out.data.any()

    def test_int64_at_two_to_the_31(self, lif_dtypes):
        # One more unit of |v0|: int64, ending exactly on INT32_MIN, in range.
        p, drive = _edge_params(INT32_MAX + 1, -1, threshold=1.0)
        x = np.full((2, 2, 3), drive, dtype=np.int16)
        out = lif_run(IntegrationTensor(x), p)
        assert lif_dtypes == [np.int64]
        want, v = stepped_lif(x, p)
        assert v[0][0] == INT32_MIN
        assert np.array_equal(out.data, want)

    @pytest.mark.parametrize("bound", [INT32_MAX, INT32_MAX + 1])
    def test_upward_drive_matches_references(self, bound, lif_dtypes):
        rng = np.random.default_rng(bound % 97)
        for threshold in (1.0, 2.5, float(INT32_MAX - 70000), 1e300):
            p, _ = _edge_params(bound, +1, threshold)
            x = rng.integers(INT16_MIN, INT16_MAX + 1, size=(4, 2, 5)).astype(np.int16)
            x[0] = INT16_MAX  # lane 0 rides the bound
            out = lif_run(IntegrationTensor(x), p)
            want, _ = stepped_lif(x, p)
            assert np.array_equal(out.data, want)
            assert np.array_equal(out.data, scalar_lif_run(x, p.v_threshold, p.v_leak, p.initial_potential))
        assert set(lif_dtypes) == {np.dtype(np.int32 if bound == INT32_MAX else np.int64)}


class TestOverflowParity:
    def test_non_spiking_potential_leaving_int32_raises(self):
        p = LifParams(v_threshold=1e300, initial_potential=INT32_MAX - 10)
        x = np.full((1, 1, 2), 100, dtype=np.int16)
        with pytest.raises(OverflowError):
            stepped_lif(x, p)
        with pytest.raises(OverflowError):
            lif_run(IntegrationTensor(x), p)
        with pytest.raises(OverflowError):
            lif_step(PotentialState.zeros(1, 2, fill=INT32_MAX - 10), x[:, 0, :], p)

    def test_spiking_potential_that_resets_does_not(self):
        p = LifParams(v_threshold=1.0, initial_potential=INT32_MAX - 10)
        x = np.full((1, 1, 2), 100, dtype=np.int16)
        want, _ = stepped_lif(x, p)
        assert lif_run(IntegrationTensor(x), p).data.tolist() == want.tolist() == [[[1, 1]]]
        state, spikes = lif_step(PotentialState.zeros(1, 2, fill=INT32_MAX - 10), x[:, 0, :], p)
        assert spikes.tolist() == [[1, 1]] and not state.data.any()

    def test_initial_potential_outside_int32_raises(self):
        with pytest.raises(OverflowError):
            lif_run(IntegrationTensor(np.zeros((1, 1, 1), dtype=np.int16)), LifParams(initial_potential=2**31))

    def test_step_input_past_int64_raises(self):
        with pytest.raises(OverflowError):
            lif_step(PotentialState.zeros(1, 1), np.array([[2**63 - 1]]), LifParams())


class TestKernelCases:
    def test_zero_tokens(self):
        p = LifParams(v_threshold=2.5, v_leak=3, initial_potential=7)
        out = lif_run(IntegrationTensor(np.zeros((0, 3, 4), dtype=np.int16)), p)
        assert out.data.shape == (0, 3, 4)
        state, spikes = lif_step(PotentialState.zeros(0, 4), np.zeros((0, 4), dtype=np.int64), p)
        assert state.data.shape == spikes.shape == (0, 4)

    @pytest.mark.parametrize("threshold", [0.5, 2.5, 7.999, 12.0, 1e300])
    @pytest.mark.parametrize("leak", [-2, 0, 1, 5])
    def test_leak_and_threshold_match_references(self, threshold, leak):
        rng = np.random.default_rng(int(threshold * 8) + leak)
        x = rng.integers(-12, 20, size=(5, 6, 4))
        p = LifParams(v_threshold=threshold, v_leak=leak, initial_potential=int(rng.integers(-5, 6)))
        out = lif_run(IntegrationTensor(x), p)
        want, v = stepped_lif(x, p)
        assert np.array_equal(out.data, want)
        assert np.array_equal(out.data, scalar_lif_run(x, threshold, leak, p.initial_potential))
        state = PotentialState.zeros(5, 4, fill=p.initial_potential)
        for s in range(x.shape[1]):
            state, spikes = lif_step(state, x[:, s, :], p)
            assert np.array_equal(spikes, want[:, s, :])
        assert state.data.tolist() == v


def _layer(rng) -> tuple[SpikeTensor, MoeLayerConfig, RoutingWeights]:
    """A random small layer; dense spikes on wide inputs saturate, skewed routing idles experts."""
    e = int(rng.integers(1, 6))
    n, t = int(rng.integers(1, 30)), int(rng.integers(1, 5))
    saturating = rng.random() < 0.5
    d_in = int(rng.integers(300, 360)) if saturating else int(rng.integers(1, 24))
    d_out = int(rng.integers(1, 8))
    s = SpikeTensor(rng.random((n, t, d_in)) < (0.95 if saturating else 0.4))
    lo = 100 if saturating else -128
    mats = tuple(QuantWeightMatrix(rng.integers(lo, 128, size=(d_in, d_out)).astype(np.int8)) for _ in range(e))
    w_r = rng.integers(-127, 128, size=(d_in, e))
    w_r[:, 0] = np.abs(w_r[:, 0])  # expert 0 tends to win, leaving others idle
    lif = LifParams(
        v_threshold=float(rng.choice([1.0, 2.5, 40000.0, 1e300])),
        v_leak=int(rng.integers(-3, 4)),
        initial_potential=int(rng.integers(-10, 11)),
    )
    cfg = MoeLayerConfig(experts=e, k=1, d_in=d_in, d_out=d_out, lif=lif, expert_weights=mats)
    return s, cfg, RoutingWeights(QuantWeightMatrix(w_r.astype(np.int8)))


def test_layer_equals_merge_of_expert_forward_outputs():
    rng = np.random.default_rng(2024)
    idle = saturated = 0
    for _ in range(60):
        s, cfg, w_r = _layer(rng)
        out, table = moe_layer_forward(s, cfg, w_r)
        ref_table = route_topk(compute_expert_scores(s, w_r), 1)
        assert np.array_equal(table.assignments, ref_table.assignments)
        tokens = [gather_expert_tokens(s, table, e) for e in range(cfg.experts)]
        fired = [expert_forward(s_e, cfg.expert_weights[e], cfg.lif) for e, s_e in enumerate(tokens)]
        assert out == merge_aligned(fired, table)
        idle += sum(len(t) == 0 for t in table.expert_tokens)
        integrations = [expert_forward(s_e, cfg.expert_weights[e], None) for e, s_e in enumerate(tokens)]
        merged = merge_aligned(integrations, table)
        assert merged.saturations == sum(x.saturations for x in integrations)
        saturated += merged.saturations > 0
    assert idle > 0 and saturated > 0


@pytest.mark.parametrize("block_rows", [1, 3, 7, 1024])
def test_blocked_integration_equals_per_timestep_spike_matmul(block_rows, monkeypatch):
    monkeypatch.setattr(moe, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    saturated = 0
    for n, t, d_in in ((0, 3, 5), (1, 1, 4), (9, 5, 400), (300, 4, 16)):
        s = SpikeTensor(rng.random((n, t, d_in)) < 0.9)
        w = QuantWeightMatrix(rng.integers(100, 128, size=(d_in, 3)).astype(np.int8))
        x = expert_forward(s, w, None)
        steps = [spike_matmul(s.data[:, step, :], w) for step in range(t)]
        assert np.array_equal(x.data, np.stack([out for out, _ in steps], axis=1).reshape(n, t, 3))
        assert x.saturations == sum(sat for _, sat in steps)
        saturated += x.saturations
    assert saturated > 0


def test_merge_refuses_mixed_carriers():
    table = route_topk(ExpertScores(np.array([[5, 0], [0, 5]])), 1)
    x = IntegrationTensor(np.zeros((1, 1, 3), dtype=np.int16))
    spikes = SpikeTensor(np.zeros((1, 1, 3), dtype=np.uint8))
    assert merge_aligned([x, x], table).data.dtype == np.int16
    with pytest.raises(TypeError):
        merge_aligned([x, spikes], table)
