"""Routing scores, top-1 selection, the layer's one permutation, per-expert integration, aligned merge."""

import tracemalloc

import numpy as np
import pytest

from spikesim import moe
from spikesim import (
    ConfigError,
    LifParams,
    MoeLayerConfig,
    QuantWeightMatrix,
    RoutingWeights,
    ShapeError,
    SpikeTensor,
    UnsupportedConfigError,
    compute_expert_scores,
    expert_forward,
    lif_run,
    merge_aligned,
    moe_layer_forward,
    route_topk,
)
from spikesim.moe import RoutingTable

from object_model import expert_tokens
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
    """The score matrix: a new, writable (n, experts) int64 array, checked where route_topk takes it."""

    def test_all_zero_input(self):
        w_r = RoutingWeights(weights(np.arange(8).reshape(4, 2)))
        s = SpikeTensor(np.zeros((3, 2, 4), dtype=np.uint8))
        assert not compute_expert_scores(s, w_r).any()

    def test_one_hot_row_selection(self):
        w = np.zeros((4, 2), dtype=np.int8)
        w[2] = [3, -1]
        s = np.zeros((1, 1, 4), dtype=np.uint8)
        s[0, 0, 2] = 1
        scores = compute_expert_scores(SpikeTensor(s), RoutingWeights(weights(w)))
        assert scores.tolist() == [[3, -1]]

    def test_matches_double_sum_seed_11(self):
        rng = np.random.default_rng(11)
        s = rand_spikes(rng, 8, 4, 16)
        w = rng.integers(-50, 51, size=(16, 4))
        scores = compute_expert_scores(SpikeTensor(s.data), RoutingWeights(weights(w)))
        ref = np.einsum("ntd,de->ne", s.data.astype(np.int64), w.astype(np.int64))
        assert np.array_equal(scores, ref)

    def test_shape_mismatch(self):
        w_r = RoutingWeights(weights(np.zeros((5, 2))))
        with pytest.raises(ShapeError):
            compute_expert_scores(SpikeTensor(np.zeros((1, 1, 4), dtype=np.uint8)), w_r)

    def test_scores_are_a_writable_int64_matrix(self):
        w_r = RoutingWeights(weights(np.arange(8).reshape(4, 2)))
        scores = compute_expert_scores(SpikeTensor(np.ones((3, 2, 4), dtype=np.uint8)), w_r)
        assert scores.shape == (3, 2) and scores.dtype == np.int64 and scores.flags.writeable

    def test_scores_read_only(self):
        # route_topk only reads the matrix: a read-only one routes, and a writable one is left as it was.
        frozen = np.array([[3, 1], [0, 2]])
        frozen.setflags(write=False)
        assert route_topk(frozen).assignments.tolist() == [0, 1]
        scores = np.array([[3, 1], [0, 2]])
        route_topk(scores)
        assert scores.tolist() == [[3, 1], [0, 2]] and scores.flags.writeable

    def test_values_outside_int64_refused_before_the_cast(self):
        # The int64 cast would store 2**64 - 1 as -1.  A row holding a value
        # above int64 routes with it, as its maximum, and the table refuses
        # that score before its cast, wherever the value sits in the matrix.
        for scores in ([[2**64 - 1, 0]], [[0, 1], [5, 2**63]]):
            with pytest.raises(ValueError, match="^routing scores must be integers that fit in int64$"):
                route_topk(np.array(scores, dtype=np.uint64))
        top = route_topk(np.array([[2**63 - 1, 0]], dtype=np.uint64))
        assert top.assignment_scores.tolist() == [2**63 - 1] and top.assignment_scores.dtype == np.int64

    @pytest.mark.parametrize("scores", [np.zeros(3, dtype=np.int64), np.zeros((1, 2, 2), dtype=np.int64)],
                             ids=["1-d", "3-d"])
    def test_refuses_anything_but_a_matrix(self, scores):
        with pytest.raises(ShapeError, match="must be 2-d"):
            route_topk(scores)

    @pytest.mark.parametrize("dtype", [np.float64, bool], ids=["float", "bool"])
    def test_refuses_non_integer_scores(self, dtype):
        with pytest.raises(ValueError, match="must be integers"):
            route_topk(np.ones((2, 2), dtype=dtype))

    def test_score_stage_holds_the_matrix_once(self):
        # The float32 product and its int64 cast overlap once: 1.5x the int64
        # matrix.  Any second n x e int64 array alive next to the matrix, such
        # as a copy of it or argmax's copy of a read-only one, makes it 2x.
        n, e = 4096, 512
        s = SpikeTensor(np.ones((n, 1, 1), dtype=np.uint8))
        w_r = RoutingWeights(weights(np.ones((1, e))))
        route_topk(compute_expert_scores(s, w_r))
        tracemalloc.start()
        try:
            route_topk(compute_expert_scores(s, w_r))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 8 * n * e, peak / (8 * n * e)


class TestRoutingTableRecord:
    def test_identity_equality_and_hash(self):
        scores = np.array([[3, 1], [0, 2], [5, 5]])
        a, b = route_topk(scores), route_topk(scores)
        assert a.assignments.tolist() == b.assignments.tolist()
        assert a == a and a != b and len({a, b, a}) == 2
        assert hash(a) == hash(a)

    def test_order_and_offsets_are_derived_when_built(self):
        ids = np.array([2, 0, 2, 1, 0])
        table = RoutingTable(ids, np.arange(5), experts=4)
        assert table.order.tolist() == [1, 4, 3, 0, 2]
        assert table.offsets.tolist() == [0, 2, 3, 5, 5]
        assert [tokens.tolist() for tokens in expert_tokens(table)] == [[1, 4], [3], [0, 2], []]
        assert table.order is table.order
        for arr in (table.assignments, table.assignment_scores, table.order, table.offsets):
            assert not arr.flags.writeable and arr.dtype == np.int64
        ids[0] = 0  # the table keeps its own copy
        assert table.assignments[0] == 2

    def test_trailing_idle_experts_keep_their_empty_slices(self):
        table = RoutingTable(np.zeros(6, dtype=np.int64), np.zeros(6, dtype=np.int64), experts=3)
        assert table.offsets.tolist() == [0, 6, 6, 6]
        assert [len(tokens) for tokens in expert_tokens(table)] == [6, 0, 0]

    def test_order_is_stable_under_many_ties(self):
        # Far more than 16 tokens per expert, so an unstable sort cannot keep the token order by luck.
        ids = np.random.default_rng(17).integers(0, 3, size=600)
        table = RoutingTable(ids, np.zeros(600, dtype=np.int64), experts=3)
        assert table.order.tolist() == [i for e in range(3) for i in np.flatnonzero(ids == e).tolist()]

    @pytest.mark.parametrize("ids", [[0, -1], [0, 3], [0.5, 1]], ids=["negative", "past-the-last", "fraction"])
    def test_refuses_an_expert_id_outside_the_experts(self, ids):
        with pytest.raises(ValueError, match=r"expert ids must be integers in \[0, 3\)"):
            RoutingTable(np.array(ids), np.zeros(2, dtype=np.int64), experts=3)

    @pytest.mark.parametrize(
        "ids, scores", [(np.zeros((2, 1)), np.zeros((2, 1))), (np.zeros(2), np.zeros(3))], ids=["2-d", "unequal"]
    )
    def test_refuses_anything_but_one_id_and_one_score_per_token(self, ids, scores):
        with pytest.raises(ShapeError, match="one expert id and one score per token"):
            RoutingTable(ids.astype(np.int64), scores.astype(np.int64), experts=2)

    def test_refuses_a_score_outside_int64(self):
        with pytest.raises(ValueError, match="fit in int64"):
            RoutingTable(np.zeros(1, dtype=np.int64), np.array([2**64 - 1], dtype=np.uint64), experts=1)


class TestRouteTopk:
    def test_argmax(self):
        table = route_topk(np.array([[5, 2, 9, 1]]))
        assert table.assignments.tolist() == [2]
        assert table.assignment_scores.tolist() == [9]

    def test_tie_goes_to_lowest_id(self):
        table = route_topk(np.array([[4, 4, 1], [1, 7, 7]]))
        assert table.assignments.tolist() == [0, 1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        scores = rng.integers(-3, 4, size=(64, 4))  # narrow range forces ties
        table = route_topk(scores)
        assert [[e] for e in table.assignments.tolist()] == topk_sort_oracle(scores.tolist(), 1)
        assert table.assignment_scores.tolist() == scores.max(axis=1).tolist()

    def test_int64_min_is_the_lowest_score(self):
        # Negating -2**63 wraps to itself, so a negate-and-sort ranking would put it first.
        table = route_topk(np.array([[-(2**63), 5], [5, -(2**63)], [-(2**63), -(2**63)]]))
        assert table.assignments.tolist() == [1, 0, 0]
        assert table.assignment_scores.tolist() == [5, 5, -(2**63)]

    def test_expert_token_lists_ascending_and_conserving(self):
        rng = np.random.default_rng(14)
        for _ in range(3):
            scores = rng.integers(-5, 6, size=(20, 5))
            table = route_topk(scores)
            for e, tokens in enumerate(expert_tokens(table)):
                assert tokens.tolist() == np.flatnonzero(table.assignments == e).tolist()
            assert sum(len(tokens) for tokens in expert_tokens(table)) == 20
            assert np.diff(table.offsets).tolist() == [len(tokens) for tokens in expert_tokens(table)]

    def test_scale_invariance(self):
        # A positive constant on every score cannot change the selection.
        rng = np.random.default_rng(15)
        scores = rng.integers(-40, 41, size=(12, 4))
        a = route_topk(scores)
        b = route_topk(scores * 3)
        assert np.array_equal(a.assignments, b.assignments)

    @pytest.mark.parametrize("n", [0, 2])
    def test_no_expert_column_refused(self, n):
        with pytest.raises(ConfigError, match="at least one expert"):
            route_topk(np.zeros((n, 0), dtype=np.int64))

    def test_routing_rows_format(self):
        table = route_topk(np.array([[7, 1], [0, 2]]))
        assert list(table.routing_rows()) == [(0, 0, 0, 7), (1, 0, 1, 2)]

    def test_routing_rows_list_every_rank_as_python_ints(self):
        scores = np.random.default_rng(3).integers(-(2**40), 2**40, size=(9, 5))
        table = route_topk(scores)
        rows = table.routing_rows()
        assert rows == [
            (token, 0, int(table.assignments[token]), int(table.assignment_scores[token])) for token in range(9)
        ]
        assert {type(value) for row in rows for value in row} == {int}


class TestGather:
    """The layer gathers its input rows once, by the table's ``order``: every expert's tokens, expert by expert."""

    def test_all_tokens_to_one_expert(self):
        rng = np.random.default_rng(16)
        s = rand_spikes(rng, 6, 2, 4)
        scores = np.zeros((6, 2), dtype=np.int64)
        scores[:, 1] = 5
        table = route_topk(scores)
        assert expert_tokens(table)[0].size == 0
        assert table.order.tolist() == list(range(6))
        assert np.array_equal(s.data[table.order], s.data)

    def test_alternating_assignment(self):
        scores = np.zeros((8, 2), dtype=np.int64)
        scores[1::2, 1] = 9
        table = route_topk(scores)
        assert expert_tokens(table)[1].tolist() == [1, 3, 5, 7]
        assert table.order.tolist() == [0, 2, 4, 6, 1, 3, 5, 7]


class TestExpertForward:
    def test_zero_input_zero_output(self):
        s = SpikeTensor(np.zeros((3, 2, 4), dtype=np.uint8))
        x = expert_forward(s, weights(np.ones((4, 5))))
        assert not x.data.any() and x.data.dtype == np.int16 and (x.n, x.t, x.d) == (3, 2, 5)
        assert not lif_run(x, LifParams()).data.any()

    def test_empty_token_set(self):
        s = SpikeTensor(np.zeros((0, 3, 4), dtype=np.uint8))
        x = expert_forward(s, weights(np.ones((4, 2))))
        assert x.n == 0 and (x.t, x.d) == (3, 2)
        out = lif_run(x, LifParams())
        assert out.n == 0 and (out.t, out.d) == (3, 2)

    def test_matches_composed_oracle_seed_3(self):
        rng = np.random.default_rng(3)
        s = rand_spikes(rng, 4, 4, 8)
        w = rng.integers(-40, 41, size=(8, 8))
        out = lif_run(expert_forward(s, weights(w)), LifParams(v_threshold=5.0))
        x = np.stack(
            [triple_loop_matmul(s.data[:, t, :].tolist(), w.tolist())[0] for t in range(4)],
            axis=1,
        )
        assert np.array_equal(out.data, scalar_lif_run(x, v_th=5.0))

    def test_feature_mismatch(self):
        s = SpikeTensor(np.zeros((1, 1, 3), dtype=np.uint8))
        with pytest.raises(ShapeError):
            expert_forward(s, weights(np.zeros((4, 2))))


class TestMergeAligned:
    """``merge_aligned`` scatters expert-ordered rows back to token order: row i goes to token ``order[i]``."""

    @staticmethod
    def _table(ids, experts):
        return RoutingTable(np.asarray(ids, dtype=np.int64), np.zeros(len(ids), dtype=np.int64), experts)

    def test_single_expert_identity(self):
        s = rand_spikes(np.random.default_rng(18), 5, 2, 3)
        assert merge_aligned(s, self._table([0] * 5, 1)) == s

    def test_interleaved_reconstruction(self):
        s = rand_spikes(np.random.default_rng(19), 4, 2, 3)
        table = self._table([0, 1, 0, 1], 2)
        assert table.order.tolist() == [0, 2, 1, 3]
        assert merge_aligned(SpikeTensor(s.data[table.order]), table) == s

    def test_all_experts_empty_output_shape(self):
        # Zero tokens overall still produces a well-formed empty tensor.
        merged = merge_aligned(SpikeTensor(np.zeros((0, 3, 2), dtype=np.uint8)), self._table([], 2))
        assert merged.n == 0 and (merged.t, merged.d) == (3, 2)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError, match="rows"):
            merge_aligned(rand_spikes(np.random.default_rng(20), 1, 2, 3), self._table([0, 0], 1))


class TestLayerConfig:
    def test_k_bounds(self):
        w = (weights(np.zeros((2, 2))),) * 3
        with pytest.raises(ConfigError):
            MoeLayerConfig(experts=3, k=4, d_in=2, d_out=2, expert_weights=w)
        # A k=2 layer is a valid shape; the layer refuses to run it.
        cfg = MoeLayerConfig(experts=3, k=2, d_in=2, d_out=2, expert_weights=w)
        s = SpikeTensor(np.ones((4, 2, 2), dtype=np.uint8))
        with pytest.raises(UnsupportedConfigError, match="only defined for top-1 routing"):
            moe_layer_forward(s, cfg, RoutingWeights(weights(np.arange(6).reshape(2, 3))))

    def test_k2_layer_refuses_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a k=2 layer must be refused before it scores or integrates")

        monkeypatch.setattr(moe, "compute_expert_scores", no_work)
        monkeypatch.setattr(moe, "spike_matmul", no_work)
        w = (weights(np.ones((2, 2))),) * 3
        cfg = MoeLayerConfig(experts=3, k=2, d_in=2, d_out=2, expert_weights=w)
        with pytest.raises(UnsupportedConfigError, match="only defined for top-1 routing"):
            moe_layer_forward(
                SpikeTensor(np.ones((4, 2, 2), dtype=np.uint8)), cfg, RoutingWeights(weights(np.ones((2, 3))))
            )

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
        assert out == lif_run(expert_forward(s, cfg.expert_weights[0]), cfg.lif)
        assert expert_tokens(table)[0].tolist() == list(range(6))

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


class TestExpertOrderedLayer:
    """The layer's one expert-ordered buffer equals firing each expert alone and scattering its spikes."""

    @staticmethod
    def _per_expert(s, cfg, table):
        out = np.zeros((s.n, s.t, cfg.d_out), dtype=np.uint8)
        for tokens, w in zip(expert_tokens(table), cfg.expert_weights):
            out[tokens] = lif_run(expert_forward(SpikeTensor(s.data[tokens]), w), cfg.lif).data
        return SpikeTensor(out)

    @staticmethod
    def _routing(rng, d, e, route):
        """Routing weights: random, some experts idle, or every token with a spike on expert ``route``."""
        if route == "random":
            return RoutingWeights(weights(rng.integers(-30, 31, size=(d, e))))
        if route == "idle":
            # Odd experts score at most 0 and lose to expert 0, which scores at least 0.
            w = rng.integers(0, 31, size=(d, e))
            w[:, 1::2] = -w[:, 1::2] - 1
            return RoutingWeights(weights(w))
        w = np.full((d, e), -100)
        w[:, route] = 100
        return RoutingWeights(weights(w))

    CASES = [
        # (n, t, d_in, d_out, e, route)
        (24, 3, 10, 7, 6, "idle"),
        (17, 2, 9, 5, 4, 3),  # every token on the last expert
        (17, 2, 9, 5, 4, 0),  # every token on the first expert
        (4, 2, 6, 4, 7, "random"),  # more experts than tokens
        (29, 1, 12, 9, 5, "random"),  # one timestep
        (61, 3, 8, 6, 5, "random"),  # ragged blocks, against 4-row spike_matmul blocks
    ]

    @pytest.mark.parametrize("n, t, d_in, d_out, e, route", CASES)
    def test_equals_the_per_expert_path(self, n, t, d_in, d_out, e, route, monkeypatch):
        monkeypatch.setattr(moe, "_BLOCK_ROWS", 4)
        rng = np.random.default_rng(n * 100 + e)
        data = rng.random((n, t, d_in)) < 0.35
        data[:, 0, 0] = True  # every token scores on its routed expert's weights
        s = SpikeTensor(data)
        lif = LifParams(v_threshold=float(rng.integers(1, 40)), v_leak=int(rng.integers(0, 3)))
        cfg = make_layer(rng, e, d_in, d_out, lif)
        w_r = self._routing(rng, d_in, e, route)
        out, table = moe_layer_forward(s, cfg, w_r)
        sizes = [len(tokens) for tokens in expert_tokens(table)]
        if route == "idle":
            assert sizes[1::2] == [0] * len(sizes[1::2])
        elif route != "random":
            assert sizes[route] == n
        else:
            assert sum(size > 0 for size in sizes) > 1 and len(set(sizes)) > 2
        assert out == self._per_expert(s, cfg, table)
        ref = dense_moe_forward(s.data, w_r.w_r.data, [w.data for w in cfg.expert_weights], lif.v_threshold, lif.v_leak)
        assert np.array_equal(out.data, ref)

    def test_clamped_integrations_fire_as_the_dense_reference(self):
        # d_in = 400 takes the clamp path, and every dense entry of the two busy experts passes int16:
        # each token has about 388 input ones, on weights of 110..127 for expert 0 and -128..-111 for
        # expert 1.  At a threshold of 40000 a clamped 32767 fires on its second step, where the raw sum
        # fires on its first and a plain cast wraps it negative; a clamped -32768 never fires.
        n, t, d_in, d_out = 12, 3, 400, 4
        rng = np.random.default_rng(31)
        data = rng.random((n, t, d_in)) < 0.97
        data[:, :, :2] = False
        data[0::2, :, 0] = data[1::2, :, 1] = True  # even tokens score on expert 0, odd ones on expert 1
        s = SpikeTensor(data)
        w_r = np.zeros((d_in, 3))
        w_r[0, 0] = w_r[1, 1] = 100
        w_r = RoutingWeights(weights(w_r))
        shape = (d_in, d_out)
        experts = [rng.integers(110, 128, shape), rng.integers(-128, -110, shape), np.zeros(shape)]
        cfg = MoeLayerConfig(3, 1, d_in, d_out, LifParams(v_threshold=40000), tuple(map(weights, experts)))
        out, table = moe_layer_forward(s, cfg, w_r)
        assert [len(tokens) for tokens in expert_tokens(table)] == [6, 6, 0]
        ref = dense_moe_forward(s.data, w_r.w_r.data, experts, v_th=40000)
        assert np.array_equal(out.data, ref) and 0 < ref.sum() < ref.size
        assert moe._integrate_in_expert_order(s, cfg, table).saturations > 0

    def test_expert_forward_writes_into_a_given_buffer(self):
        rng = np.random.default_rng(3)
        s = rand_spikes(rng, 5, 2, 6)
        w = weights(rng.integers(-60, 61, size=(6, 4)))
        buf = np.full((7, 2, 4), 99, dtype=np.int16)
        x = expert_forward(s, w, out=buf[1:6])
        assert np.shares_memory(x.data, buf)
        assert np.array_equal(buf[1:6], expert_forward(s, w).data)
        assert (buf[0] == 99).all() and (buf[6] == 99).all()

    # Wrong shape, wrong dtype, not C-contiguous.
    @pytest.mark.parametrize(
        "out", [np.empty((5, 2, 3), np.int16), np.empty((5, 2, 4), np.int32), np.empty((5, 4, 4), np.int16)[:, ::2]]
    )
    def test_expert_forward_refuses_a_wrong_buffer(self, out):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError, match="output buffer"):
            expert_forward(rand_spikes(rng, 5, 2, 6), weights(np.ones((6, 4))), out=out)
