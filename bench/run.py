"""spikesim benchmark: host time of ``spikesim run`` / ``compare`` per workload.

Usage, from the repository root::

    python3 bench/run.py --workload moe_large --seed 0 --seconds 36 --trace 0

One process drives the public CLI entry point ``spikesim.cli.main``
in-process as a closed loop: each call starts when the previous one and its
correctness check have finished.  The loop repeats whole passes of the
workload's operations (``workloads.py``) while the next pass still fits in
``--seconds``.  Every operation's outputs are checked (``check.py``); a
non-zero exit or a failed check counts in ``failed``.

Call times are host seconds scaled to a reference host speed by a fixed
probe timed between calls (``probe.py``), because this shared host's speed
drifts by more than any useful bound between runs; raw host seconds and the
probe ratio are printed beside every metric.

``--trace 0`` prints the end-to-end metrics, each the median over passes:

* ``run_s``, ``compare_s``, ``trace_s``: seconds of one ``run``,
  ``compare`` and ``run --trace`` call (per pass, the mean over that kind of
  call; a large workload has one of each per pass).
* ``plans_per_s``: calls completed per second of calls.
* ``peak_mem_mb``: peak resident set, in MiB, of the benchmark process over
  the timed passes; not scaled.
* ``setup_s``: seconds for a fresh interpreter to import ``spikesim.cli``
  and parse the workload's first plan (median of several).

``--trace 1`` alternates untraced and traced passes and prints per-layer
self times (raw host seconds) and counts per traced pass (``spans.py``),
plus the tracing overhead.  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import Gate, load_expected
from spans import SpanRecorder
from workloads import WORKLOADS, artifact_paths, build, plan_path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
# Probe time after each call, as a share of the call's time (at least one probe).
PROBE_SHARE = 0.05

END_TO_END_UNITS = {
    "run_s": "s", "compare_s": "s", "trace_s": "s", "plans_per_s": "1/s", "peak_mem_mb": "MiB", "setup_s": "s",
}

# Per-layer self-time metrics: metric -> spans whose self time it sums.
SELF_TIME = {
    "tensors.spike_matmul.s": ("tensors.spike_matmul",),
    "tensors.lif_run.s": ("tensors.lif_run",),
    "moe.compute_expert_scores.s": ("moe.compute_expert_scores",),
    "moe.route_topk.s": ("moe.route_topk",),
    "moe.expert_forward.s": ("moe.expert_forward",),
    "moe.merge_aligned.s": ("moe.merge_aligned",),
    "mha.spiking_attention_map.s": ("mha.spiking_attention_map",),
    "mha.attention_weighted_integration.s": ("mha.attention_weighted_integration",),
    "dataflow.plan_tiles.s": ("dataflow.plan_expert_tiles", "dataflow.plan_attention_tiles"),
    "dataflow.simulate.s": (
        "dataflow.simulate_expert_array", "dataflow.simulate_routing_array", "dataflow.simulate_attention_array",
    ),
    "dataflow.merge_traces.s": ("dataflow.merge_traces",),
    "dataflow.expert_parallel_schedule.s": ("dataflow.expert_parallel_schedule",),
    "dataflow.write_trace_csv.s": ("dataflow.write_trace_csv",),
    "memory.count_accesses.s": ("memory.count_accesses",),
    "memory.mem_report.s": ("memory.mem_report",),
    "memory.capacity_check.s": ("memory.capacity_check",),
    "memory.builtin_calibration.s": ("memory.builtin_calibration",),
    "runner.run_experiment.s": ("runner.run_experiment",),
    "runner.parse_workload.s": ("runner.parse_workload",),
    "runner.emit_report.s": ("runner.emit_report",),
    "cli.main.s": ("cli.main",),
}
# Per-layer counts kept by the recorder's counters.
RECORDED_COUNTS = (
    "tensors.spike_matmul.macs", "mha.map_bytes", "dataflow.tiles", "dataflow.events", "runner.report_bytes",
)
FUNCTIONAL_PASSES = ("moe.moe_layer_forward", "mha.mha_forward")


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def machine_note(nproc: int) -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def invoke(cli, argv: list[str]):
    """Exit code of one CLI call; a traceback is a failed call, not the end of the benchmark."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:
        traceback.print_exc()
        return "exception"


def run_pass(cli, ops, work: Path, gate, probe, recorder=None) -> tuple[list[float], int]:
    """One closed-loop pass: each call timed, probed, then checked. Returns times and failures."""
    times = []
    failed = 0
    for op in ops:
        argv = op.argv(work)
        for path in artifact_paths(work, op).values():
            path.unlink(missing_ok=True)  # a call that writes nothing must not pass on old files
        gc.collect()  # garbage of the previous call is not collected inside this one
        span = recorder.open(f"op.{op.metric}") if recorder else None
        start = time.perf_counter()
        code = invoke(cli, argv)
        elapsed = time.perf_counter() - start
        if recorder:
            recorder.close(span)
        times.append(elapsed)
        probe.sample(PROBE_SHARE * elapsed)
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                problems = gate.check(op, work)
            except (OSError, ValueError, KeyError, IndexError) as err:
                problems = [f"unreadable output: {err!r}"]
        if problems:
            failed += 1
            for problem in problems:
                print(f"FAILED {op.id}: {problem}", file=sys.stderr)
    return times, failed


def per_pass_metrics(ops, times: list[float]) -> dict[str, float]:
    out = {}
    for metric in ("run_s", "compare_s", "trace_s"):
        own = [t for op, t in zip(ops, times) if op.metric == metric]
        out[metric] = sum(own) / len(own)
    out["plans_per_s"] = len(times) / sum(times)
    return out


def measure_setup(plan: Path, probe) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-up times, scaled to the reference speed and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        probe.sample(0.02)
        scale = probe.scale()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(plan)],
            check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * scale)
    return scaled, raw


def describe(name: str, unit: str, samples: list[float], what: str) -> str:
    line = f"{name:<13} {statistics.median(samples):.6g} {unit:<4} median of n={len(samples)} {what}"
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        line += f"  q1 {q1:.6g}  q3 {q3:.6g}  max {max(samples):.6g}"
    return line


def end_to_end(cli, seconds, ops, work, gate, probe) -> tuple[dict, int, int]:
    setup, setup_raw = measure_setup(work / f"{ops[0].plan}.json", probe)
    attempted = failed = 0

    passes: list[dict[str, float]] = []
    raw: list[dict[str, float]] = []
    scales: list[float] = []
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.fmean(walls) <= seconds:
        pass_start = time.perf_counter()
        times, pass_failed = run_pass(cli, ops, work, gate, probe)
        walls.append(time.perf_counter() - pass_start)
        scales.append(probe.scale())
        passes.append(per_pass_metrics(ops, [t * scales[-1] for t in times]))
        raw.append(per_pass_metrics(ops, times))
        attempted += len(ops)
        failed += pass_failed

    print(describe("probe_ratio", "x", [1 / s for s in scales], "passes (probe time / reference)"))
    values = {}
    for name in ("run_s", "compare_s", "trace_s", "plans_per_s"):
        samples = [p[name] for p in passes]
        values[name] = statistics.median(samples)
        print(describe(name, END_TO_END_UNITS[name], samples, f"passes of {len(ops)} calls"))
        print(f"{'':<13} raw host {statistics.median(p[name] for p in raw):.6g} {END_TO_END_UNITS[name]}")
    values["peak_mem_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{'peak_mem_mb':<13} {values['peak_mem_mb']:.6g} MiB  peak resident set of this process")
    values["setup_s"] = statistics.median(setup)
    print(describe("setup_s", "s", setup, "fresh interpreters"))
    print(f"{'':<13} raw host {statistics.median(setup_raw):.6g} s")
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}, attempted, failed


def layer_metrics(recorder, passes: int, compares: int, overhead_pct: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass, from the recorder's spans and counts."""
    own = recorder.self_time_by_name()
    calls = recorder.calls_by_name()
    out = {name: (sum(own.get(s, 0.0) for s in spans) / passes, "s") for name, spans in SELF_TIME.items()}
    out["tensors.spike_matmul.calls"] = (calls.get("tensors.spike_matmul", 0) / passes, "count")
    for name in RECORDED_COUNTS:
        out[name] = (recorder.counts.get(name, 0) / passes, "bytes" if name.endswith("bytes") else "count")
    functional = sum(
        1
        for i, (name, *_) in enumerate(recorder.spans)
        if name in FUNCTIONAL_PASSES and recorder.spans[recorder.root_of(i)][0] == "op.compare_s"
    )
    out["runner.functional_passes"] = (functional / compares if compares else 0.0, "count")
    out["gc.pause_s"] = (recorder.gc_pause_s / passes, "s")
    out["gc.collections"] = (recorder.gc_collections / passes, "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def per_layer(cli, workload, seed, seconds, ops, work, gate, probe, note) -> tuple[dict, int, int]:
    recorder = SpanRecorder()
    untraced: list[float] = []
    traced: list[float] = []
    attempted = failed = 0
    start = time.perf_counter()
    # Pairs alternate which side runs first, so warm-up does not favour one side.
    while not traced or time.perf_counter() - start + (
        statistics.fmean(untraced) + statistics.fmean(traced)
    ) * 1.1 <= seconds:
        for side in (("untraced", "traced") if len(traced) % 2 == 0 else ("traced", "untraced")):
            if side == "traced":
                with recorder.traced():
                    times, pass_failed = run_pass(cli, ops, work, gate, probe, recorder)
                traced.append(sum(times) * probe.scale())
            else:
                times, pass_failed = run_pass(cli, ops, work, gate, probe)
                untraced.append(sum(times) * probe.scale())
            attempted += len(ops)
            failed += pass_failed

    overhead_pct = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    compares = sum(op.metric == "compare_s" for op in ops) * len(traced)
    metrics = layer_metrics(recorder, len(traced), compares, overhead_pct)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.json"
    recorder.write(spans_path, {"workload": workload, "seed": seed, "traced_passes": len(traced), **note})

    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}; spans in {spans_path.relative_to(ROOT)}")
    own = recorder.self_time_by_name()
    print("self time per traced pass, every wrapped function:")
    for name, total in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<40} {total / len(traced):.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:.6g} {unit}")
    layers = {name: metrics[name][0] for name in SELF_TIME}
    top = max(layers, key=layers.get)
    group = {p: sum(v for n, v in layers.items() if n.startswith(p + ".")) for p in ("dataflow", "memory", "mha")}
    print(f"largest layer self time: {top}")
    print(
        f"dataflow.* + memory.* self time {group['dataflow'] + group['memory']:.6g} s"
        f" vs mha.* {group['mha']:.6g} s per pass"
    )
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spikesim" / "cli.py").is_file():
        print(f"no spikesim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    from probe import SpeedProbe
    from spikesim import cli

    note = machine_note(nproc)
    print("machine: " + " ".join(f"{k}={v}" for k, v in note.items()))
    plans, ops = build(args.workload, args.seed)
    gate = Gate(load_expected(args.workload, args.seed))
    print(f"workload {args.workload} seed {args.seed}: {len(plans)} plan(s), {len(ops)} calls per pass, closed loop")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for plan, doc in plans.items():
            plan_path(work, plan).write_text(json.dumps(doc))
        if args.trace:
            values, attempted, failed = per_layer(
                cli, args.workload, args.seed, args.seconds, ops, work, gate, SpeedProbe(), note
            )
        else:
            values, attempted, failed = end_to_end(cli, args.seconds, ops, work, gate, SpeedProbe())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"failed_frac   {failed / attempted:.6g} ({failed} of {attempted} calls failed or were wrong)")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
