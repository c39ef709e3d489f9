"""Hypothesis fuzz of the calibration loader, the workload parser and ``spikesim run``.

Calibration documents start from a built-in calibration and take a few
random edits (values of any JSON type, NaN and infinities included, deleted
keys, duplicated or dropped level entries), or are arbitrary JSON; a second
strategy gives number and string fields values of another JSON type (bools,
numeric strings).  Plan documents start from a small MoE or MHA plan and
take a few random edits: values of the wrong type, unknown keys, keys moved
to their flat aliases, sections that are not mappings, sizes that are small
or far past the size cap, and seeds that are negative or not integers, in
``input.seed`` or as the ``--seed`` override.  Every outcome must be a
result or a listed validation error; on the command line, exit code 0 or 2,
never a traceback.  Runs are derandomized and bounded so the suite stays
deterministic.  The last test runs pytest on a failing property under the
suite's warning filters, which must let Hypothesis report its example.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim import (
    CalibrationValidationError,
    MemCalibration,
    RunPlan,
    WorkloadValidationError,
    builtin_calibration,
    dump_calibration,
    load_calibration,
    parse_workload,
)
from spikesim.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None)
# Enough letters to spell level ids and keys; a small alphabet keeps start-up fast.
ALPHABET = "_abcdeglnotw0"

_LEVEL_KEYS = tuple(vars(builtin_calibration("moe", "2d").levels["act_glb"]))
_AGGREGATE_KEYS = tuple(vars(builtin_calibration("moe", "2d").aggregate))
# Geometry keys: the architecture's, never a calibration's, so a level giving one must be refused.
_GEOMETRY_KEYS = ("words", "width_bits")

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from(["nan", "-inf", "1e400", "12", "act_glb", "weight_glb0"])
    | st.text(ALPHABET + " \u00e9", max_size=5)
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(ALPHABET, max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _edit(draw, mapping: dict, keys: tuple) -> None:
    key = draw(st.sampled_from(keys) | st.text(ALPHABET, max_size=4))
    if draw(st.booleans()):
        mapping.pop(key, None)
    else:
        mapping[key] = draw(values)


@st.composite
def edited_calibrations(draw) -> dict:
    doc = dump_calibration(builtin_calibration(draw(st.sampled_from(["moe", "mha"])), draw(st.sampled_from(["2d", "3d"]))))
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(["document", "level", "aggregate", "level list"]))
        levels = doc.get("levels")
        if target == "document":
            _edit(draw, doc, ("kind", "design", "levels", "aggregate"))
        elif target == "level" and isinstance(levels, list) and levels:
            entry = levels[draw(st.integers(0, len(levels) - 1))]
            if isinstance(entry, dict):
                _edit(draw, entry, _LEVEL_KEYS + _GEOMETRY_KEYS)
        elif target == "aggregate" and isinstance(doc.get("aggregate"), dict):
            _edit(draw, doc["aggregate"], _AGGREGATE_KEYS)
        elif target == "level list" and isinstance(levels, list) and levels:
            i = draw(st.integers(0, len(levels) - 1))
            action = draw(st.sampled_from(["duplicate", "drop", "append"]))
            if action == "duplicate":
                levels.append(json.loads(json.dumps(levels[i])))
            elif action == "drop":
                del levels[i]
            else:
                levels.append(draw(values))
    return doc


calibration_docs = edited_calibrations() | values

# Values of another JSON type for a number field (float() would read the
# strings and bools) or the string field ``id``.
not_numbers = st.booleans() | st.none() | st.sampled_from(["148", "1e3", "-inf", "nan", ""]) | st.lists(scalars, max_size=2)
not_strings = st.booleans() | st.none() | st.integers(-5, 5) | st.floats(allow_nan=False) | st.lists(scalars, max_size=2)
_NUMBER_FIELDS = {"level": ("latency_ps", "power_mw"), "aggregate": tuple(k for k in _AGGREGATE_KEYS if k != "num_cells")}


@st.composite
def mistyped_calibrations(draw) -> tuple[dict, list[str]]:
    """A built-in calibration with a few fields mistyped, and the violation each must give."""
    doc = dump_calibration(builtin_calibration(draw(st.sampled_from(["moe", "mha"])), draw(st.sampled_from(["2d", "3d"]))))
    edits = {}
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(doc["levels"]) - 1))
            name = draw(st.sampled_from(("id",) + _NUMBER_FIELDS["level"]))
            where, entry = f"calibration level {i}", doc["levels"][i]
        else:
            name = draw(st.sampled_from(_NUMBER_FIELDS["aggregate"]))
            where, entry = "calibration aggregate", doc["aggregate"]
        value = draw(not_strings if name == "id" else not_numbers)
        entry[name] = value
        expected = "a string" if name == "id" else "a number"
        edits[where, name] = f"{where} field {name!r} must be {expected}, got {value!r}"
    return doc, list(edits.values())


@settings(FUZZ, max_examples=200)
@given(doc=calibration_docs.filter(lambda doc: not isinstance(doc, str)))  # a str names a file
def test_load_calibration_lists_problems(doc):
    try:
        cal = load_calibration(doc)
    except CalibrationValidationError as err:
        assert err.violations
        return
    assert isinstance(cal, MemCalibration)
    assert all(entry.keys() == set(_LEVEL_KEYS) for entry in doc["levels"])
    for spec in cal.levels.values():
        assert math.isfinite(spec.latency_ps) and math.isfinite(spec.power_mw)
    assert isinstance(cal.design, str)
    assert all(math.isfinite(value) for value in vars(cal.aggregate).values())


@settings(FUZZ, max_examples=150)
@given(case=mistyped_calibrations())
def test_mistyped_calibration_fields_each_listed(case):
    doc, expected = case
    try:
        load_calibration(doc)
    except CalibrationValidationError as err:
        assert sorted(err.violations) == sorted(expected)
    else:
        raise AssertionError(f"loaded with mistyped fields: {expected}")


PLANS = {
    "moe": {"kind": "moe", "N": 6, "T": 2, "D_in": 8, "D_out": 8, "E": 3, "seed": 1},
    "mha": {"kind": "mha", "N": 4, "T": 2, "H": 2, "d": 4, "seed": 1},
}


def test_cli_run_exits_0_or_2(tmp_path):
    cal_path, plan_path = tmp_path / "cal.json", tmp_path / "plan.json"

    @settings(FUZZ, max_examples=100)
    @given(doc=calibration_docs, kind=st.sampled_from(sorted(PLANS)))
    def check(doc, kind):
        cal_path.write_text(json.dumps(doc))
        plan_path.write_text(json.dumps({**PLANS[kind], "calibration": {"source": "file", "path": str(cal_path)}}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", str(plan_path)])
        assert code in (0, 2), err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["kind"] == kind
        else:
            assert err.getvalue().startswith(("invalid calibration file", "error:"))

    check()


BASE_PLANS = {
    "moe": {
        "kind": "moe",
        "model": {"n": 6, "t": 2, "d_in": 8, "d_out": 8, "e": 3, "k": 1},
        "hardware": {"cores": 2, "expert_array": {"rows": 4, "cols": 8}, "routing_array": {"rows": 4, "cols": 2},
                     "extract_ports": 3, "router_overhead_cycles": 5},
        "calibration": {"source": "builtin2d"},
        "input": {"spike_prob": 0.3, "seed": 1},
    },
    "mha": {
        "kind": "mha",
        "model": {"n": 5, "t": 2, "h": 2, "d": 4},
        "hardware": {"cores": 2, "attention_array": {"rows": 3, "cols": 2}},
        "calibration": {"source": "builtin3d"},
        "input": {"spike_prob": 0.3, "seed": 1},
    },
}
_PLAN_KEYS = {
    "top": ("kind", "model", "hardware", "calibration", "input", "N", "T", "D_in", "D_out", "E", "K", "H", "d", "D",
            "seed", "spike_prob"),
    "model": ("n", "t", "d_in", "d_out", "e", "experts", "k", "h", "heads", "d", "d_head", "d_model"),
    "hardware": ("cores", "expert_array", "routing_array", "attention_array", "extract_ports", "router_overhead_cycles"),
    "array": ("rows", "cols"),
    "calibration": ("source", "path"),
    "input": ("spike_prob", "seed"),
}
# Sizes stay small, or go far past the size cap so the plan is refused unrun.
plan_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 9)
    | st.sampled_from([2**40, 2**70])
    | st.floats(-2, 9)
    | st.sampled_from([float("nan"), "3", "moe", "mha", "builtin2d", "builtin3d", "file", ""])
    | st.text(ALPHABET, max_size=4)
)
# Seeds as a plan document may give them: valid, negative, huge, or not integers.
seeds = st.integers(-3, 9) | st.integers(-(2**70), 2**70) | st.booleans() | st.sampled_from([None, 1.0, "3"])
plan_values = st.recursive(
    plan_scalars,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.sampled_from(_PLAN_KEYS["array"]) | st.text(ALPHABET, max_size=3), inner, max_size=2),
    max_leaves=4,
)


@st.composite
def edited_plans(draw) -> dict:
    doc = json.loads(json.dumps(BASE_PLANS[draw(st.sampled_from(sorted(BASE_PLANS)))]))
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(["top", "model", "hardware", "array", "calibration", "input", "alias", "seed"]))
        if section == "seed":
            if isinstance(doc.get("input"), dict):
                doc["input"]["seed"] = draw(seeds)
            continue
        if section == "alias":
            # Move a model key to its flat top-level alias.
            model = doc.get("model")
            if isinstance(model, dict) and model:
                key = draw(st.sampled_from(sorted(model)))
                alias = {"n": "N", "t": "T", "d_in": "D_in", "d_out": "D_out", "e": "E", "k": "K", "h": "H", "d": "d"}
                doc[alias.get(key, key)] = model.pop(key)
            continue
        if section == "top":
            target = doc
        elif section == "array":
            hardware = doc.get("hardware")
            name = draw(st.sampled_from(_PLAN_KEYS["hardware"][1:4]))
            target = hardware.setdefault(name, {}) if isinstance(hardware, dict) else None
        else:
            target = doc.get(section)
        if isinstance(target, dict):
            _edit(draw, target, _PLAN_KEYS[section])
    return doc


@settings(FUZZ, max_examples=300)
@given(doc=edited_plans() | values, seed=st.none() | seeds)
def test_parse_workload_lists_problems(doc, seed):
    try:
        plan = parse_workload(doc, seed=seed)
    except WorkloadValidationError as err:
        assert err.violations and all(isinstance(v, str) for v in err.violations)
        bad_seed = seed is not None and (isinstance(seed, bool) or not isinstance(seed, int) or seed < 0)
        if bad_seed and isinstance(doc, dict):
            assert any(v.startswith("--seed must be") for v in err.violations)
        return
    assert isinstance(plan, RunPlan)
    assert plan.seed >= 0 and (seed is None or plan.seed == seed)
    assert parse_workload(plan.to_dict()) == plan


def test_cli_run_on_plan_documents_exits_0_or_2(tmp_path):
    plan_path = tmp_path / "plan.json"

    @settings(FUZZ, max_examples=150)
    @given(doc=edited_plans(), command=st.sampled_from(["run", "compare"]), seed=st.none() | st.integers(-(2**70), 2**70))
    def check(doc, command, seed):
        plan_path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(plan_path)] + ([] if seed is None else ["--seed", str(seed)]))
        assert code in (0, 2), err.getvalue()
        if seed is not None and seed < 0:
            assert code == 2 and f"  - --seed must be >= 0, got {seed}\n" in err.getvalue()
        if code == 0:
            assert json.loads(out.getvalue())["kind"] == doc.get("kind")
        else:
            assert err.getvalue().startswith(("invalid configuration", "invalid calibration file", "error:", "i/o error:"))

    check()


# A property that fails for x >= 5 next to a test whose numpy cast warns.
FAILING_PROPERTY = """
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property(x):
    assert x < 5


def test_cast():
    np.array([np.nan]).astype(np.int64)
"""


def test_failing_property_reports_its_example(tmp_path):
    """Under the suite's warning filters a falsified property fails with its example, not an INTERNALERROR."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    # The filter is narrow: a numpy cast warning still fails its test.
    assert "FAILED test_property.py::test_cast - RuntimeWarning" in output
