"""Self-test of the benchmark.  Run from the repository root::

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import pytest

import run
import spans
from check import Gate, load_expected
from workloads import COMPARE, RUN, TRACE, WORKLOADS, Op, artifact_paths, build, plan_path

sys.path.insert(0, str(run.SRC))
from spikesim import cli  # noqa: E402

TINY = {
    "moe": {"kind": "moe", "model": {"n": 8, "t": 2, "d_in": 16, "d_out": 16, "e": 2}, "input": {"seed": 3}},
    "mha": {"kind": "mha", "model": {"n": 8, "t": 2, "h": 2, "d": 4}, "input": {"seed": 3}},
}
TINY_OPS = (
    Op("run", "tiny", RUN),
    Op("compare", "tiny", COMPARE, fmt="csv"),
    Op("trace", "tiny", TRACE, dump_output=True),
)


@pytest.fixture(params=sorted(TINY))
def work(request, tmp_path):
    plan_path(tmp_path, "tiny").write_text(json.dumps(TINY[request.param]))
    return tmp_path


def _call(op: Op, work) -> dict[str, bytes]:
    assert cli.main(op.argv(work)) == 0
    return {key: path.read_bytes() for key, path in artifact_paths(work, op).items()}


def test_wrapped_and_unwrapped_calls_write_identical_bytes(work):
    recorder = spans.SpanRecorder()
    for op in TINY_OPS:
        plain = _call(op, work)
        with recorder.traced():
            wrapped = _call(op, work)
        assert wrapped == plain, op.id
    assert recorder.spans, "the traced calls recorded no spans"
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__"), "wrappers were not removed"


def test_self_times_sum_to_traced_wall_time(work):
    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    with recorder.traced():
        for op in TINY_OPS * 3:
            root = recorder.open(f"op.{op.metric}")
            assert cli.main(op.argv(work)) == 0
            recorder.close(root)
    wall = time.perf_counter() - start

    own = recorder.self_times()
    assert min(own) > -1e-9, "a span's children cover more than the span"
    roots = sum(end - begin for _, begin, end, parent in recorder.spans if parent < 0)
    assert sum(own) == pytest.approx(roots, rel=1e-9)
    # What the spans do not cover is the loop and the tracer's own patching.
    assert 0 <= wall - sum(own) <= 0.005 + 0.05 * wall


def test_spans_nest_where_callers_look_names_up():
    recorder = spans.SpanRecorder()
    with recorder.traced():
        assert cli.main(["run", "missing.json"]) == 2
    names = [name for name, *_ in recorder.spans]
    assert names == ["cli.main"]

    from spikesim import runner

    recorder = spans.SpanRecorder()
    with recorder.traced():
        runner.run_experiment(runner.parse_workload(TINY["moe"]))
    parent = {name: recorder.spans[p][0] for name, _, _, p in recorder.spans if p >= 0}
    assert parent["tensors.spike_matmul"] == "moe.expert_forward"
    assert parent["moe.moe_layer_forward"] == "runner.run_experiment"
    assert parent["memory.builtin_calibration"] == "runner.resolve_calibration"
    assert recorder.counts["tensors.spike_matmul.macs"] > 0


def test_missing_layer_names_yield_no_span(monkeypatch):
    layers = dict(spans.LAYERS, tensors=("spike_matmul", "no_such_function"), no_such_module=("f",))
    monkeypatch.setattr(spans, "LAYERS", layers)
    from spikesim import runner

    recorder = spans.SpanRecorder()
    with recorder.traced():
        runner.run_experiment(runner.parse_workload(TINY["moe"]))
    names = {name for name, *_ in recorder.spans}
    assert "tensors.spike_matmul" in names
    assert not any("no_such" in name for name in names)


def test_gate_accepts_recorded_values_and_flags_a_change(work):
    op = TINY_OPS[0]
    _call(op, work)
    recorder_gate = Gate(None)
    assert recorder_gate.check(op, work) == []
    want = json.loads(json.dumps(recorder_gate.summaries))
    assert Gate(want).check(op, work) == []
    want[op.id]["cycles"] += 1
    assert any("cycles" in problem for problem in Gate(want).check(op, work))


def test_gate_flags_disagreeing_calls_on_one_plan(work):
    gate = Gate(None)
    _call(TINY_OPS[0], work)
    assert gate.check(TINY_OPS[0], work) == []
    doc = json.loads(plan_path(work, "tiny").read_text())
    doc["input"]["seed"] += 1
    plan_path(work, "tiny").write_text(json.dumps(doc))
    _call(TINY_OPS[1], work)
    assert any("disagree" in problem for problem in gate.check(TINY_OPS[1], work))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_seed_runs_the_same_mix(workload):
    base_plans, base_ops = build(workload, 0)
    assert set(load_expected(workload, 0)) == {op.id for op in base_ops}
    for seed in (1, 7):
        plans, ops = build(workload, seed)
        assert Counter(ops) == Counter(base_ops)
        assert plans != base_plans
        assert {p: {**d, "input": None} for p, d in plans.items()} == {
            p: {**d, "input": None} for p, d in base_plans.items()
        }


def test_emitted_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    recorder = spans.SpanRecorder()
    emitted = run.layer_metrics(recorder, passes=1, compares=1, overhead_pct=0.0)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {k: u for k, (_, u) in emitted.items()}
