"""Routing scores, top-k selection, per-expert forward, aligned merge."""

import numpy as np
import pytest

from spikesim import (
    ConfigError,
    ExpertScores,
    LifParams,
    MoeLayerConfig,
    QuantWeightMatrix,
    RoutingWeights,
    ShapeError,
    SpikeTensor,
    UnsupportedConfigError,
    compute_expert_scores,
    expert_forward,
    gather_expert_tokens,
    merge_aligned,
    moe_layer_forward,
    route_topk,
)
from spikesim.moe import RoutingTable

from oracles import dense_moe_forward, scalar_lif_run, topk_sort_oracle, triple_loop_matmul


def rand_spikes(rng, n, t, d, p=0.3):
    return SpikeTensor(rng.random((n, t, d)) < p)


def weights(arr):
    return QuantWeightMatrix(np.asarray(arr, dtype=np.int8))


def make_layer(rng, e, d_in, d_out, lif=None):
    mats = tuple(weights(rng.integers(-60, 61, size=(d_in, d_out))) for _ in range(e))
    return MoeLayerConfig(
        experts=e, k=1, d_in=d_in, d_out=d_out,
        lif=lif or LifParams(), expert_weights=mats,
    )


class TestExpertScores:
    def test_all_zero_input(self):
        w_r = RoutingWeights(weights(np.arange(8).reshape(4, 2)))
        s = SpikeTensor(np.zeros((3, 2, 4), dtype=np.uint8))
        assert not compute_expert_scores(s, w_r).scores.any()

    def test_one_hot_row_selection(self):
        w = np.zeros((4, 2), dtype=np.int8)
        w[2] = [3, -1]
        s = np.zeros((1, 1, 4), dtype=np.uint8)
        s[0, 0, 2] = 1
        scores = compute_expert_scores(SpikeTensor(s), RoutingWeights(weights(w)))
        assert scores.scores.tolist() == [[3, -1]]

    def test_matches_double_sum_seed_11(self):
        rng = np.random.default_rng(11)
        s = rand_spikes(rng, 8, 4, 16)
        w = rng.integers(-50, 51, size=(16, 4))
        scores = compute_expert_scores(SpikeTensor(s.data), RoutingWeights(weights(w)))
        ref = np.einsum("ntd,de->ne", s.data.astype(np.int64), w.astype(np.int64))
        assert np.array_equal(scores.scores, ref)

    def test_shape_mismatch(self):
        w_r = RoutingWeights(weights(np.zeros((5, 2))))
        with pytest.raises(ShapeError):
            compute_expert_scores(SpikeTensor(np.zeros((1, 1, 4), dtype=np.uint8)), w_r)

    def test_scores_read_only(self):
        scores = ExpertScores(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            scores.scores[0, 0] = 1


class TestRouteTopk:
    def test_argmax(self):
        table = route_topk(ExpertScores(np.array([[5, 2, 9, 1]])), k=1)
        assert table.assignments.tolist() == [[2]]
        assert table.assignment_scores.tolist() == [[9]]

    def test_tie_goes_to_lowest_id(self):
        table = route_topk(ExpertScores(np.array([[4, 4, 1]])), k=1)
        assert table.assignments.tolist() == [[0]]

    def test_k2_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        scores = rng.integers(-3, 4, size=(16, 4))  # narrow range forces ties
        table = route_topk(ExpertScores(scores), k=2)
        assert table.assignments.tolist() == topk_sort_oracle(scores.tolist(), 2)

    def test_expert_token_lists_ascending_and_conserving(self):
        rng = np.random.default_rng(14)
        for k in (1, 2, 3):
            scores = rng.integers(-5, 6, size=(20, 5))
            table = route_topk(ExpertScores(scores), k=k)
            total = 0
            for tokens in table.expert_tokens:
                if len(tokens) > 1:
                    assert np.all(np.diff(tokens) > 0)
                total += len(tokens)
            assert total == 20 * k

    def test_scale_invariance(self):
        # A positive constant on every score cannot change the selection.
        rng = np.random.default_rng(15)
        scores = rng.integers(-40, 41, size=(12, 4))
        a = route_topk(ExpertScores(scores), k=1)
        b = route_topk(ExpertScores(scores * 3), k=1)
        assert np.array_equal(a.assignments, b.assignments)

    def test_bad_k(self):
        scores = ExpertScores(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(ConfigError):
            route_topk(scores, k=0)
        with pytest.raises(ConfigError):
            route_topk(scores, k=4)

    def test_routing_rows_format(self):
        table = route_topk(ExpertScores(np.array([[7, 1], [0, 2]])), k=1)
        assert list(table.routing_rows()) == [(0, 0, 0, 7), (1, 0, 1, 2)]


class TestGather:
    def test_all_tokens_to_one_expert(self):
        rng = np.random.default_rng(16)
        s = rand_spikes(rng, 6, 2, 4)
        scores = np.zeros((6, 2), dtype=np.int64)
        scores[:, 1] = 5
        table = route_topk(ExpertScores(scores), k=1)
        assert gather_expert_tokens(s, table, 1) == s
        assert gather_expert_tokens(s, table, 0).n == 0

    def test_alternating_assignment(self):
        rng = np.random.default_rng(17)
        s = rand_spikes(rng, 8, 2, 4)
        scores = np.zeros((8, 2), dtype=np.int64)
        scores[1::2, 1] = 9
        table = route_topk(ExpertScores(scores), k=1)
        assert table.expert_tokens[1].tolist() == [1, 3, 5, 7]
        gathered = gather_expert_tokens(s, table, 1)
        assert np.array_equal(gathered.data, s.data[[1, 3, 5, 7]])

    def test_expert_id_out_of_range(self):
        table = route_topk(ExpertScores(np.zeros((2, 2), dtype=np.int64)), k=1)
        s = SpikeTensor(np.zeros((2, 1, 1), dtype=np.uint8))
        with pytest.raises(ConfigError):
            gather_expert_tokens(s, table, 2)


class TestExpertForward:
    def test_zero_input_zero_output(self):
        s = SpikeTensor(np.zeros((3, 2, 4), dtype=np.uint8))
        out = expert_forward(s, weights(np.ones((4, 5))), LifParams())
        assert not out.data.any() and (out.n, out.t, out.d) == (3, 2, 5)

    def test_empty_token_set(self):
        s = SpikeTensor(np.zeros((0, 3, 4), dtype=np.uint8))
        out = expert_forward(s, weights(np.ones((4, 2))), LifParams())
        assert out.n == 0 and (out.t, out.d) == (3, 2)

    def test_matches_composed_oracle_seed_3(self):
        rng = np.random.default_rng(3)
        s = rand_spikes(rng, 4, 4, 8)
        w = rng.integers(-40, 41, size=(8, 8))
        out = expert_forward(s, weights(w), LifParams(v_threshold=5.0))
        x = np.stack(
            [triple_loop_matmul(s.data[:, t, :].tolist(), w.tolist())[0] for t in range(4)],
            axis=1,
        )
        assert np.array_equal(out.data, scalar_lif_run(x, v_th=5.0))

    def test_feature_mismatch(self):
        s = SpikeTensor(np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(ShapeError):
            expert_forward(s, weights(np.zeros((4, 2))), LifParams())


class TestMergeAligned:
    def _table(self, assignments, experts):
        a = np.asarray(assignments, dtype=np.int64).reshape(-1, 1)
        tokens = tuple(np.nonzero(a[:, 0] == e)[0].astype(np.int64) for e in range(experts))
        return RoutingTable(
            assignments=a,
            assignment_scores=np.zeros_like(a),
            expert_tokens=tokens,
            k=1,
            experts=experts,
        )

    def test_single_expert_identity(self):
        rng = np.random.default_rng(18)
        s = rand_spikes(rng, 5, 2, 3)
        assert merge_aligned([s], self._table([0] * 5, 1)) == s

    def test_interleaved_reconstruction(self):
        rng = np.random.default_rng(19)
        s = rand_spikes(rng, 4, 2, 3)
        table = self._table([0, 1, 0, 1], 2)
        parts = [
            SpikeTensor(s.data[[0, 2]]),
            SpikeTensor(s.data[[1, 3]]),
        ]
        assert merge_aligned(parts, table) == s

    def test_all_experts_empty_output_shape(self):
        # Zero tokens overall still produces a well-formed empty tensor.
        table = self._table([], 2)
        empty = SpikeTensor(np.zeros((0, 3, 2), dtype=np.uint8))
        merged = merge_aligned([empty, empty], table)
        assert merged.n == 0 and (merged.t, merged.d) == (3, 2)

    def test_k2_table_rejected(self):
        a = np.array([[0, 1]], dtype=np.int64)
        table = RoutingTable(
            assignments=a,
            assignment_scores=np.zeros_like(a),
            expert_tokens=(np.array([0]), np.array([0])),
            k=2,
            experts=2,
        )
        s = SpikeTensor(np.zeros((1, 1, 1), dtype=np.uint8))
        with pytest.raises(UnsupportedConfigError):
            merge_aligned([s, s], table)

    def test_row_count_mismatch(self):
        table = self._table([0, 0], 1)
        bad = SpikeTensor(np.zeros((1, 1, 1), dtype=np.uint8))
        with pytest.raises(ShapeError):
            merge_aligned([bad], table)


class TestLayerConfig:
    def test_k_bounds(self):
        w = (weights(np.zeros((2, 2))),) * 3
        with pytest.raises(ConfigError):
            MoeLayerConfig(experts=3, k=4, d_in=2, d_out=2, expert_weights=w)
        # A k=2 layer is a valid shape; the aligned merge is the one guard that refuses to run it.
        cfg = MoeLayerConfig(experts=3, k=2, d_in=2, d_out=2, expert_weights=w)
        s = SpikeTensor(np.ones((4, 2, 2), dtype=np.uint8))
        with pytest.raises(UnsupportedConfigError, match="only defined for top-1 routing"):
            moe_layer_forward(s, cfg, RoutingWeights(weights(np.arange(6).reshape(2, 3))))

    def test_weight_shape_checks(self):
        good = weights(np.zeros((2, 2)))
        bad = weights(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            MoeLayerConfig(experts=2, k=1, d_in=2, d_out=2, expert_weights=(good,))
        with pytest.raises(ConfigError):
            MoeLayerConfig(experts=2, k=1, d_in=2, d_out=2, expert_weights=(good, bad))


class TestLayerForward:
    def test_single_expert_degenerates_to_mlp(self):
        rng = np.random.default_rng(42)
        s = rand_spikes(rng, 6, 3, 8)
        cfg = make_layer(rng, 1, 8, 8)
        w_r = RoutingWeights(weights(rng.integers(-10, 11, size=(8, 1))))
        out, table = moe_layer_forward(s, cfg, w_r)
        assert out == expert_forward(s, cfg.expert_weights[0], cfg.lif)
        assert table.expert_tokens[0].tolist() == list(range(6))

    def test_matches_dense_oracle_seed_42(self):
        rng = np.random.default_rng(42)
        s = rand_spikes(rng, 16, 4, 32)
        cfg = make_layer(rng, 4, 32, 32)
        w_r = RoutingWeights(weights(rng.integers(-20, 21, size=(32, 4))))
        out, _ = moe_layer_forward(s, cfg, w_r)
        ref = dense_moe_forward(
            s.data, w_r.w_r.data, [w.data for w in cfg.expert_weights]
        )
        assert np.array_equal(out.data, ref)

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        s = rand_spikes(rng, 10, 3, 16)
        cfg = make_layer(rng, 4, 16, 8)
        w_r = RoutingWeights(weights(rng.integers(-20, 21, size=(16, 4))))
        out, table = moe_layer_forward(s, cfg, w_r)
        perm = rng.permutation(10)
        out_p, table_p = moe_layer_forward(SpikeTensor(s.data[perm]), cfg, w_r)
        assert np.array_equal(out_p.data, out.data[perm])
        assert np.array_equal(table_p.assignments, table.assignments[perm])

    def test_routing_weight_scale_invariance(self):
        # Scaling every routing weight by a positive constant keeps the
        # assignment; the layer output only depends on the assignment.
        rng = np.random.default_rng(22)
        s = rand_spikes(rng, 8, 2, 12)
        cfg = make_layer(rng, 3, 12, 6)
        base = rng.integers(-40, 41, size=(12, 3))
        out_a, table_a = moe_layer_forward(s, cfg, RoutingWeights(weights(base)))
        out_b, table_b = moe_layer_forward(s, cfg, RoutingWeights(weights(base * 2)))
        assert np.array_equal(table_a.assignments, table_b.assignments)
        assert out_a == out_b

    def test_randomized_against_dense_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(8):
            n = int(rng.integers(1, 20))
            t = int(rng.integers(1, 5))
            d = int(rng.integers(1, 24))
            e = int(rng.choice([1, 3, 5]))
            s = rand_spikes(rng, n, t, d, p=float(rng.uniform(0.1, 0.6)))
            cfg = make_layer(rng, e, d, d)
            w_r = RoutingWeights(weights(rng.integers(-30, 31, size=(d, e))))
            out, _ = moe_layer_forward(s, cfg, w_r)
            ref = dense_moe_forward(s.data, w_r.w_r.data, [w.data for w in cfg.expert_weights])
            assert np.array_equal(out.data, ref)

    def test_shape_mismatches(self):
        rng = np.random.default_rng(25)
        cfg = make_layer(rng, 2, 8, 4)
        w_r = RoutingWeights(weights(np.zeros((8, 2))))
        with pytest.raises(ShapeError):
            moe_layer_forward(SpikeTensor(np.zeros((2, 1, 4), dtype=np.uint8)), cfg, w_r)
        bad_w_r = RoutingWeights(weights(np.zeros((8, 3))))
        with pytest.raises(ShapeError):
            moe_layer_forward(SpikeTensor(np.zeros((2, 1, 8), dtype=np.uint8)), cfg, bad_w_r)
