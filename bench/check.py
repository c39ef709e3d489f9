"""Correctness gate: every operation's simulated output is checked.

For the default seed each operation's values must equal the ones recorded in
``expected.json``: output digest, system cycles, per-level reads, writes and
words, and trace energy.  Whole report bytes are not recorded, so a
deliberate schema change that keeps these values is not a failure.  For every
seed, all operations on one plan (``run``, both halves of ``compare``,
``run --trace``) must agree on digest and cycles, and the side artifacts must
agree with the report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import Op, artifact_paths

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0

# Energy is a float sum over levels; allow a reordered summation.
ENERGY_REL_TOL = 1e-9


def load_expected(workload: str, seed: int) -> dict | None:
    """Recorded values of the workload's operations, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)[workload]


def _flatten(doc, prefix: str, out: dict) -> None:
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), out)
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            _flatten(value, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out[prefix] = doc


def read_report(path: Path, fmt: str) -> dict:
    """The report as dotted field paths, the same keys for JSON and CSV."""
    if fmt == "json":
        fields: dict = {}
        with open(path) as fh:
            _flatten(json.load(fh), "", fields)
        return fields
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows) != ["field", "value"]:
            raise ValueError("report CSV header is not field,value")
        return {key: json.loads(raw) for key, raw in rows}


def summarize(fields: dict, prefix: str = "") -> dict:
    """The recorded values of one run report (or one half of a comparison)."""
    levels = {}
    head = f"{prefix}memory.levels."
    for key in fields:
        if key.startswith(head) and key.endswith(".reads"):
            level = key[len(head):-len(".reads")]
            base = f"{head}{level}."
            levels[level] = [fields[base + name] for name in ("reads", "writes", "words_read", "words_written")]
    return {
        "digest": fields[f"{prefix}output_digest"],
        "cycles": fields[f"{prefix}cycles.system.total_cycles"],
        "energy_fj": fields[f"{prefix}memory.trace_totals.total_energy_fj"],
        "levels": dict(sorted(levels.items())),
    }


def _differences(got: dict, want: dict, where: str) -> list[str]:
    problems = []
    for key in ("digest", "cycles", "levels"):
        if got[key] != want[key]:
            problems.append(f"{where}{key} is {got[key]!r}, recorded {want[key]!r}")
    if not math.isclose(got["energy_fj"], want["energy_fj"], rel_tol=ENERGY_REL_TOL):
        problems.append(f"{where}energy_fj is {got['energy_fj']!r}, recorded {want['energy_fj']!r}")
    return problems


class Gate:
    """Checks operations one by one; remembers each plan's digest and cycles."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.functional: dict[str, tuple[str, int]] = {}
        self.summaries: dict[str, dict | list[dict]] = {}

    def check(self, op: Op, work: Path) -> list[str]:
        """Problems with the files ``op`` just wrote; empty when all is right."""
        paths = artifact_paths(work, op)
        fields = read_report(paths["report"], op.fmt)
        problems: list[str] = []
        if op.command == "compare":
            if fields.get("functional_equal") is not True:
                problems.append("compare reports functional_equal other than true")
            summary = [summarize(fields, "run_2d."), summarize(fields, "run_3d.")]
            halves = list(zip(("run_2d.", "run_3d."), summary))
        else:
            summary = summarize(fields)
            halves = [("", summary)]
        self.summaries[op.id] = summary

        if self.expected is not None:
            want = self.expected.get(op.id)
            if want is None:
                problems.append(f"no recorded values for operation {op.id!r}")
            else:
                if op.command == "compare":
                    want = list(zip(("run_2d.", "run_3d."), want))
                else:
                    want = [("", want)]
                for (where, got), (_, rec) in zip(halves, want):
                    problems += _differences(got, rec, where)

        for where, got in halves:
            functional = (got["digest"], got["cycles"])
            seen = self.functional.setdefault(op.plan, functional)
            if functional != seen:
                problems.append(f"{where}digest/cycles {functional} disagree with {seen} from another call on this plan")

        if "trace" in paths:
            problems += _check_trace(paths["trace"], fields)
        if "output" in paths:
            digest = "sha256:" + hashlib.sha256(paths["output"].read_bytes()).hexdigest()
            if digest != halves[0][1]["digest"]:
                problems.append("dumped output bitstream does not hash to the report's digest")
        if "routing" in paths:
            with open(paths["routing"], newline="") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != fields["config.model.n"]:
                problems.append(f"routing table has {rows} rows for {fields['config.model.n']} tokens")
        if "calibration" in paths:
            with open(paths["calibration"]) as fh:
                dumped = json.load(fh)
            keys = {"builtin2d", "builtin3d"} if op.command == "compare" else {"kind", "design", "levels", "aggregate"}
            if not keys <= set(dumped):
                problems.append(f"calibration dump lacks {sorted(keys - set(dumped))}")
        return problems


def _check_trace(path: Path, fields: dict) -> list[str]:
    """The trace CSV must hold exactly the events and words the report counts."""
    events = sum(v for k, v in fields.items() if k.startswith("memory.levels.") and k.endswith((".reads", ".writes")))
    words = fields["memory.trace_totals.total_words"]
    rows = traced_words = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        column = next(reader).index("words")
        for row in reader:
            rows += 1
            traced_words += int(row[column])
    problems = []
    if rows != events:
        problems.append(f"trace has {rows} events, report counts {events}")
    if traced_words != words:
        problems.append(f"trace moves {traced_words} words, report counts {words}")
    return problems
