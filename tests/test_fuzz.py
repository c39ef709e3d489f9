"""Hypothesis fuzz of the calibration loader and of ``spikesim run`` on calibration files.

Documents start from a built-in calibration and take a few random edits
(values of any JSON type, NaN and infinities included, deleted keys,
duplicated or dropped level entries), or are arbitrary JSON.  Every outcome
must be a calibration or a listed validation error; on the command line,
exit code 0 or 2, never a traceback.  Runs are derandomized and bounded so
the suite stays deterministic.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim import CalibrationValidationError, MemCalibration, builtin_calibration, dump_calibration, load_calibration
from spikesim.cli import main
from spikesim.levels import LEVEL_GEOMETRY

FUZZ = settings(derandomize=True, database=None, deadline=None)
# Enough letters to spell level ids and keys; a small alphabet keeps start-up fast.
ALPHABET = "_abcdeglnotw0"

_LEVEL_KEYS = ("id", "words", "width_bits", "latency_ps", "power_mw")
_AGGREGATE_KEYS = tuple(builtin_calibration("moe", "2d").aggregate.to_dict())

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
                _edit(draw, entry, _LEVEL_KEYS)
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


@settings(FUZZ, max_examples=200)
@given(doc=calibration_docs.filter(lambda doc: not isinstance(doc, str)))  # a str names a file
def test_load_calibration_lists_problems(doc):
    try:
        cal = load_calibration(doc)
    except CalibrationValidationError as err:
        assert err.violations
        return
    assert isinstance(cal, MemCalibration)
    for level, spec in cal.levels.items():
        assert (spec.words, spec.width_bits) == LEVEL_GEOMETRY[level]
        assert math.isfinite(spec.latency_ps) and math.isfinite(spec.power_mw)
    assert all(math.isfinite(value) for value in cal.aggregate.to_dict().values())


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
