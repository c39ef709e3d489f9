"""Command-line behavior: exit codes, report emission, artifact dumps."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikesim
from spikesim import (
    AccessEvent,
    ArrayGeometry,
    SparsityStats,
    SpikeTensor,
    builtin_calibration,
    dataflow,
    dump_calibration,
    memory,
    parse_workload,
    plan_attention_tiles,
    plan_expert_tiles,
    run_experiment,
    simulate_attention_array,
    simulate_expert_array,
    simulate_routing_array,
)
import spikesim.cli as cli
from spikesim.cli import _build_parser, main
from spikesim.levels import ACT_GLB, ACT_LB, LEVEL_GEOMETRY, level_width_bits, width_words
from spikesim.runner import load_report_csv, report_json_bytes

from object_model import expert_tokens, merge_traces, record_rows, records_from_rows

MOE_DOC = {"kind": "moe", "N": 16, "T": 2, "D_in": 32, "D_out": 32, "E": 4, "seed": 3}
MHA_DOC = {"kind": "mha", "N": 8, "T": 2, "H": 2, "d": 8, "seed": 3}


@pytest.fixture
def moe_config(tmp_path):
    path = tmp_path / "moe.json"
    path.write_text(json.dumps(MOE_DOC))
    return str(path)


@pytest.fixture
def mha_config(tmp_path):
    path = tmp_path / "mha.json"
    path.write_text(json.dumps(MHA_DOC))
    return str(path)


class TestRunCommand:
    def test_json_to_stdout(self, moe_config, capsys):
        assert main(["run", moe_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "moe"
        assert doc["schema_version"] == "1"
        expected = run_experiment(parse_workload(dict(MOE_DOC))).to_dict()
        assert doc == expected

    def test_csv_format(self, moe_config, capsys):
        assert main(["run", moe_config, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "field,value"
        doc = load_report_csv(out.encode())
        assert doc["kind"] == "moe"

    def test_output_file(self, moe_config, tmp_path, capsys):
        dest = tmp_path / "report.json"
        assert main(["run", moe_config, "--output", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["kind"] == "moe"

    def test_seed_override(self, moe_config, capsys):
        main(["run", moe_config])
        base = json.loads(capsys.readouterr().out)
        main(["run", moe_config, "--seed", "99"])
        overridden = json.loads(capsys.readouterr().out)
        assert base["output_digest"] != overridden["output_digest"]
        assert overridden["config"]["input"]["seed"] == 99

    def test_trace_dump(self, moe_config, tmp_path, capsys):
        dest = tmp_path / "trace.csv"
        assert main(["run", moe_config, "--trace", str(dest)]) == 0
        capsys.readouterr()
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cycle", "unit", "level", "direction", "words", "width_bits"]
        assert len(rows) > 1

    def test_routing_dump(self, moe_config, tmp_path, capsys):
        dest = tmp_path / "routing.csv"
        assert main(["run", moe_config, "--dump-routing", str(dest)]) == 0
        capsys.readouterr()
        with open(dest, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["token_id", "rank", "expert_id", "score"]
        assert len(rows) == 1 + 16

    def test_routing_dump_on_mha_warns(self, mha_config, tmp_path, capsys):
        dest = tmp_path / "routing.csv"
        assert main(["run", mha_config, "--dump-routing", str(dest)]) == 0
        err = capsys.readouterr().err
        assert "no routing stage" in err
        assert not dest.exists()

    def test_output_spike_dump(self, mha_config, tmp_path, capsys):
        dest = tmp_path / "out.bin"
        assert main(["run", mha_config, "--dump-output", str(dest)]) == 0
        doc = json.loads(capsys.readouterr().out)
        blob = dest.read_bytes()
        digest = "sha256:" + hashlib.sha256(blob).hexdigest()
        assert doc["output_digest"] == digest
        s = SpikeTensor.from_bytes(blob)
        assert s.data.shape == (8, 2, 16)

    def test_calibration_dump(self, moe_config, tmp_path, capsys):
        dest = tmp_path / "cal.json"
        assert main(["run", moe_config, "--dump-calibration", str(dest)]) == 0
        capsys.readouterr()
        doc = json.loads(dest.read_text())
        assert doc["kind"] == "moe" and doc["design"] == "2d"
        assert {entry["id"] for entry in doc["levels"]} >= {"act_glb", "weight_glb0"}
        # Prices only: a level's geometry is the architecture's, not the calibration's.
        assert all(entry.keys() == {"id", "latency_ps", "power_mw"} for entry in doc["levels"])

    @pytest.mark.parametrize("config", ["moe_config", "mha_config"])
    def test_dumped_calibration_prices_like_the_builtin(self, config, request, tmp_path, capsys):
        """A plan that loads the ``builtin3d`` dump reports the same memory section as ``builtin3d``."""
        doc = json.loads(Path(request.getfixturevalue(config)).read_text())
        builtin = tmp_path / "builtin3d.json"
        builtin.write_text(json.dumps({**doc, "calibration": {"source": "builtin3d"}}))
        dump = tmp_path / "cal.json"
        assert main(["run", str(builtin), "--dump-calibration", str(dump), "--output", str(tmp_path / "a.json")]) == 0
        from_file = tmp_path / "file.json"
        from_file.write_text(json.dumps({**doc, "calibration": {"source": "file", "path": str(dump)}}))
        assert main(["run", str(from_file), "--output", str(tmp_path / "b.json")]) == 0
        assert capsys.readouterr().out == ""
        a, b = (json.loads((tmp_path / name).read_text()) for name in ("a.json", "b.json"))
        assert report_json_bytes(b["memory"]) == report_json_bytes(a["memory"])
        assert b["config"]["calibration"] == {"source": "file", "path": str(dump)}

    def test_file_calibration_read_once_and_dumped_as_priced(self, moe_config, tmp_path, capsys, monkeypatch):
        cal = tmp_path / "cal.json"
        cal.write_text(json.dumps(dump_calibration(builtin_calibration("moe", "3d")), indent=2, sort_keys=True) + "\n")
        plan = tmp_path / "file.json"
        doc = json.loads(Path(moe_config).read_text())
        plan.write_text(json.dumps({**doc, "calibration": {"source": "file", "path": str(cal)}}))
        calls = []
        load = memory.load_calibration
        monkeypatch.setattr(memory, "load_calibration", lambda source: calls.append(source) or load(source))
        dump = tmp_path / "dump.json"
        assert main(["run", str(plan), "--dump-calibration", str(dump), "--output", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert calls == [str(cal)]
        assert dump.read_bytes() == cal.read_bytes()

    def test_negative_zero_power_prices_and_echoes_as_zero(self, tmp_path, capsys):
        """-0.0 power on a busy level (act_lb) and an idle one (weight_lb) reads 0.0 in the report and the dump."""
        cal = dump_calibration(builtin_calibration("mha", "2d"))
        for entry in cal["levels"]:
            if entry["id"] in (ACT_LB, "weight_lb"):
                entry["power_mw"] = -0.0
        (tmp_path / "cal.json").write_text(json.dumps(cal))
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({**MHA_DOC, "calibration": {"source": "file", "path": str(tmp_path / "cal.json")}}))
        report, dump = tmp_path / "report.json", tmp_path / "dump.json"
        assert main(["run", str(plan), "--output", str(report), "--dump-calibration", str(dump)]) == 0
        assert capsys.readouterr().out == ""
        levels = json.loads(report.read_text())["memory"]["levels"]
        assert levels[ACT_LB]["words_read"] > 0 and levels["weight_lb"]["words_read"] == 0
        for level in (ACT_LB, "weight_lb"):
            for key in ("access_power_mw", "energy_fj"):
                assert str(levels[level][key]) == "0.0", (level, key)
        assert b"-0.0" not in report.read_bytes() and b"-0.0" not in dump.read_bytes()


class TestCompareCommand:
    def test_compare_stdout(self, mha_config, capsys):
        assert main(["compare", mha_config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["functional_equal"] is True
        assert doc["run_2d"]["output_digest"] == doc["run_3d"]["output_digest"]
        assert doc["reductions_pct"]["memory_access_latency_ps"] == pytest.approx(30.0)

    def test_compare_calibration_dump_has_both(self, moe_config, tmp_path, capsys):
        dest = tmp_path / "cal.json"
        assert main(["compare", moe_config, "--dump-calibration", str(dest)]) == 0
        capsys.readouterr()
        doc = json.loads(dest.read_text())
        assert set(doc) == {"builtin2d", "builtin3d"}
        assert doc["builtin3d"]["design"] == "3d"

    def test_compare_dumps_the_calibrations_it_priced_with(self, moe_config, tmp_path, capsys, monkeypatch):
        built, dumped = [], []
        build, dump = memory.builtin_calibration, cli.dump_calibration
        monkeypatch.setattr(memory, "builtin_calibration", lambda *args: built.append(build(*args)) or built[-1])
        monkeypatch.setattr(cli, "dump_calibration", lambda cal: dumped.append(cal) or dump(cal))
        assert main(["compare", moe_config, "--dump-calibration", str(tmp_path / "cal.json")]) == 0
        capsys.readouterr()
        assert [cal.design for cal in built] == ["2d", "3d"]
        assert len(dumped) == 2 and all(a is b for a, b in zip(dumped, built))


class TestErrorPaths:
    def test_missing_config(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_validation_errors_listed(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "moe", "K": 2, "bogus": 1}))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration (2 problem(s)):")
        assert err.count("  - ") == 2
        assert "not supported" in err

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        assert main(["run", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_too_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 5000 + "]" * 5000)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config {str(path)!r} is not valid JSON: ")

    @pytest.mark.parametrize(
        "text, key",
        [('{"kind": "moe", "model": {"n": 8, "n": 16}}', "n"),
         ('{"kind": "moe", "input": {"seed": 1}, "input": {"seed": 2}}', "input")],
        ids=["model-key", "section"],
    )
    def test_repeated_plan_key_refused(self, tmp_path, capsys, text, key):
        # json.load would keep the last value silently, where n beside N is refused.
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config {str(path)!r} is not valid JSON: key {key!r} is given more than once in one object\n"

    def test_falsy_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "falsy.json"
        path.write_text(json.dumps({**MOE_DOC, "hardware": False}))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "invalid configuration (1 problem(s)):\n  - hardware must be a mapping, got False\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_negative_seed_override_listed(self, command, moe_config, capsys):
        assert main([command, moe_config, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid configuration (1 problem(s)):\n  - --seed must be >= 0, got -1\n"

    def test_seed_override_listed_with_plan_problems(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MOE_DOC, "seed": -2, "bogus": 1}))
        assert main(["run", str(path), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration (3 problem(s)):")
        for needle in ("input.seed must be >= 0, got -2", "--seed must be >= 0, got -1", "unknown top-level key 'bogus'"):
            assert needle in err

    def _run_with_calibration(self, tmp_path, payload: str) -> int:
        (tmp_path / "cal.json").write_text(payload)
        doc = {**MOE_DOC, "calibration": {"source": "file", "path": str(tmp_path / "cal.json")}}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        return main(["run", str(path)])

    def test_calibration_file_not_json(self, tmp_path, capsys):
        assert self._run_with_calibration(tmp_path, "{not json") == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (1 problem(s)):")
        assert "not valid JSON" in err

    def test_calibration_file_with_a_repeated_key(self, tmp_path, capsys):
        text = json.dumps(dump_calibration(builtin_calibration("moe", "2d")))
        text = text.replace('"leakage_power_mw": ', '"leakage_power_mw": 1.0, "leakage_power_mw": ')
        assert self._run_with_calibration(tmp_path, text) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid calibration file (1 problem(s)):\n")
        assert "is not valid JSON: key 'leakage_power_mw' is given more than once in one object" in captured.err

    def test_calibration_file_too_deeply_nested(self, tmp_path, capsys):
        assert self._run_with_calibration(tmp_path, "[" * 5000 + "]" * 5000) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid calibration file (1 problem(s)):\n")
        assert "is not valid JSON: " in captured.err

    def test_calibration_unknown_keys_listed(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "3d"))
        doc["levels"][0]["latency_ns"] = 1.0
        doc["aggregate"]["area_um2"] = 5.0
        doc["colour"] = "red"
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (3 problem(s)):")
        for key in ("'latency_ns'", "'area_um2'", "'colour'"):
            assert f"has unknown key {key}" in err

    def test_calibration_level_fields_listed(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        del doc["levels"][0]["power_mw"]
        del doc["levels"][1]["id"]
        doc["levels"][2]["latency_ps"] = "fast"
        del doc["aggregate"]["area_mm2"]
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (4 problem(s)):")
        assert err.count("  - ") == 4
        for needle in ("level 0 missing field 'power_mw'", "level 1 missing field 'id'", "'latency_ps'", "'area_mm2'"):
            assert needle in err

    @pytest.mark.parametrize("section,field", [("level", "power_mw"), ("aggregate", "memory_access_power_mw")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_calibration_non_finite_field(self, section, field, value, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        (doc["levels"][3] if section == "level" else doc["aggregate"])[field] = value
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (1 problem(s)):")
        assert f"field {field!r} must be finite, got {value!r}" in err

    def test_calibration_duplicate_level_id(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        first = next(i for i, entry in enumerate(doc["levels"]) if entry["id"] == "act_buffer")
        doc["levels"].append({**doc["levels"][first], "power_mw": 999.0})
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (1 problem(s)):")
        assert f"calibration level 7 repeats level id 'act_buffer' of level {first}" in err

    def test_calibration_geometry_override(self, tmp_path, capsys):
        """A dump from when each level also gave its geometry, LEVEL_GEOMETRY's own, is refused key by key."""
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        doc["levels"] = [
            {"id": e["id"], "words": LEVEL_GEOMETRY[e["id"]][0], "width_bits": LEVEL_GEOMETRY[e["id"]][1],
             "latency_ps": e["latency_ps"], "power_mw": e["power_mw"]}
            for e in doc["levels"]
        ]
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid calibration file ({2 * len(doc['levels'])} problem(s)):\n" + "".join(
            f"  - calibration level {i} has unknown key {key!r}\n"
            for i in range(len(doc["levels"])) for key in ("width_bits", "words")
        )

    def test_calibration_energy_overflow(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        for entry in doc["levels"]:
            if entry["id"] == "act_glb":
                entry["power_mw"] = entry["latency_ps"] = 1e300
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: energy under the moe/2d calibration is not finite for level act_glb\n"

    def test_calibration_fractional_num_cells(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        doc["aggregate"]["num_cells"] = 339846.9
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (1 problem(s)):")
        assert "calibration aggregate field 'num_cells' must be an integer, got 339846.9" in err

    def test_calibration_fields_take_their_json_type(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        index = next(i for i, entry in enumerate(doc["levels"]) if entry["id"] == "act_glb")
        doc["levels"][index]["latency_ps"] = "148"
        doc["levels"][index]["power_mw"] = True
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid calibration file (2 problem(s)):\n"
            f"  - calibration level {index} field 'latency_ps' must be a number, got '148'\n"
            f"  - calibration level {index} field 'power_mw' must be a number, got True\n"
        )

    @pytest.mark.parametrize(
        "doc,violation",
        [
            ({"kind": "moe", "N": 5, "model": {"n": 6}}, "model.n is given more than once: as model.n, N"),
            ({"kind": "mha", "model": {"h": 4, "heads": 2}}, "model.h is given more than once: as model.h, model.heads"),
            ({"kind": "moe", "model": {"e": 4, "experts": 2}}, "model.e is given more than once: as model.e, model.experts"),
        ],
    )
    def test_field_given_twice_listed(self, doc, violation, tmp_path, capsys):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid configuration (1 problem(s)):\n  - {violation}\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_attention_plan_with_extract_ports_listed(self, command, tmp_path, capsys):
        path = tmp_path / "ports.json"
        path.write_text(json.dumps({**MHA_DOC, "hardware": {"extract_ports": 4}}))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid configuration (1 problem(s)):\n"
            "  - hardware.extract_ports applies only to kind 'moe', got 4 for kind 'mha'\n"
        )

    def test_calibration_path_without_source_file_listed(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**MOE_DOC, "calibration": {"source": "builtin3d", "path": "/does/not/exist.json"}}))
        assert main(["run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid configuration (1 problem(s)):\n"
            "  - calibration.path is read only with source 'file', got source 'builtin3d'\n"
        )

    def test_compare_with_pinned_calibration(self, tmp_path, capsys):
        doc = {**MOE_DOC, "calibration": {"source": "file", "path": "whatever.json"}}
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(doc))
        assert main(["compare", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_subprocess_smoke(self, moe_config):
        proc = subprocess.run(
            [sys.executable, "-m", "spikesim.cli", "run", moe_config],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "moe"

    def test_parser_not_built_at_import(self):
        probe = "import spikesim.cli as c; print(c._build_parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True)
        assert out.stdout.strip() == "0"

    def test_cached_parser_carries_nothing_between_calls(self, tmp_path, monkeypatch, capsys):
        """One process's calls write what the same argv writes in a fresh process, call by call."""
        calls = [
            (["run", "plan.json", "--seed", "5", "--trace", "trace.csv", "--output", "seeded.json"], 0),
            (["run", "plan.json", "--output", "plain.json"], 0),
            (["compare", "plan.json", "--format", "csv", "--output", "compare.csv"], 0),
            (["run", "plan.json", "--format", "xml"], 2),
            (["run", "plan.json", "--output", "again.json"], 0),
        ]
        here, fresh = tmp_path / "in_process", tmp_path / "fresh"
        for work in (here, fresh):
            work.mkdir()
            (work / "plan.json").write_text(json.dumps(MHA_DOC))
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the terminal width
        src = str(Path(spikesim.__file__).parents[1])
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        monkeypatch.chdir(here)
        _build_parser()  # the sequence runs on the cached parser
        for argv, code in calls:
            try:
                got = main(argv)
            except SystemExit as err:
                got = err.code
            err_text = capsys.readouterr().err
            proc = subprocess.run([sys.executable, "-m", "spikesim.cli", *argv], cwd=fresh, capture_output=True,
                                  text=True, timeout=120)
            assert got == proc.returncode == code, argv
            assert err_text == proc.stderr, argv
            written = [{p.name: p.read_bytes() for p in work.iterdir()} for work in (here, fresh)]
            assert written[0] == written[1], argv
        seeded, plain = (json.loads((here / name).read_text()) for name in ("seeded.json", "plain.json"))
        assert seeded["config"]["input"]["seed"] == 5 and plain["config"]["input"]["seed"] == MHA_DOC["seed"]
        assert (here / "again.json").read_bytes() == (here / "plain.json").read_bytes()


def _random_plan(rng: np.random.Generator, kind: str) -> dict:
    def draw(lo, hi):
        return int(rng.integers(lo, hi + 1))

    hardware = {"cores": draw(1, 4)}
    if kind == "moe":
        # Up to 16 experts, so expert10 sorts before expert2 as a string.
        model = {"n": draw(1, 20), "t": draw(1, 3), "d_in": draw(1, 24), "d_out": draw(1, 24), "e": draw(1, 16)}
        hardware["expert_array"] = {"rows": draw(1, 8), "cols": draw(1, 24)}
        hardware["routing_array"] = {"rows": draw(1, 8), "cols": draw(1, 8)}
    else:
        model = {"n": draw(1, 12), "t": draw(1, 3), "h": draw(1, 14), "d": draw(1, 8)}
        hardware["attention_array"] = {"rows": draw(1, 6), "cols": draw(1, 6)}
    if rng.random() < 0.5:
        ports = draw(1, 6)  # drawn for both kinds, so each kind's plans stay the same
        if kind == "moe":  # attention plans refuse the setting
            hardware["extract_ports"] = ports
    return {"kind": kind, "model": model, "hardware": hardware,
            "input": {"spike_prob": float(rng.random()), "seed": draw(0, 10**6)}}


def _reference_trace_csv(plan, result) -> bytes:
    """The trace as merge_traces orders the per-unit simulate_* lists, written by csv.writer."""
    m, hw = plan.model, plan.hardware
    per_unit = []
    if plan.kind == "moe":
        routing = ArrayGeometry(hw.routing_rows, hw.routing_cols, "routing")
        per_unit.append(simulate_routing_array(m.n, m.t, m.d_in, m.experts, routing, hw.extract_ports)[1])
        expert = ArrayGeometry(hw.expert_rows, hw.expert_cols, "expert")
        out_bits = []
        for e, tokens in enumerate(expert_tokens(result.routing_table)):
            ts = plan_expert_tiles(len(tokens), m.t, m.d_in, m.d_out, expert)
            glb = "weight_glb0" if e % 2 == 0 else "weight_glb1"
            per_unit.append(simulate_expert_array(ts, expert, SparsityStats(0, 1), hw.extract_ports, f"expert{e}", glb)[1])
            out_bits.append(len(tokens) * m.t * m.d_out)
    else:
        attention = ArrayGeometry(hw.attention_rows, hw.attention_cols, "attention")
        ts = plan_attention_tiles(m.n, m.d_head, m.t, 1, attention)
        per_unit += [simulate_attention_array(ts, attention, f"attn{h}")[1] for h in range(m.heads)]
        out_bits = [m.n * m.t * m.d_head] * m.heads
    end = result.system_cycles.total_cycles
    egress = [(ACT_LB, "read", bits) for bits in out_bits if bits] + [(ACT_GLB, "write", result.s_out.data.size)]
    per_unit.append([
        AccessEvent(end, "merge", lv, d, width_words(bits, level_width_bits(lv)), level_width_bits(lv), "spike")
        for lv, d, bits in egress
    ])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["cycle", "unit", "level", "direction", "words", "width_bits"])
    for ev in merge_traces(*per_unit):
        writer.writerow([ev.cycle, ev.unit, ev.level, ev.direction, ev.words, ev.width_bits])
    return buf.getvalue().encode()


def _refuse(*args, **kwargs):
    raise AssertionError("built AccessEvent objects on the --trace path")


class TestTracePath:
    @pytest.mark.parametrize("kind", ["moe", "mha"])
    def test_csv_byte_identical_to_merge_traces(self, kind, tmp_path, capsys):
        rng = np.random.default_rng(404 if kind == "moe" else 405)
        plan_path, trace_path = tmp_path / "plan.json", tmp_path / "trace.csv"
        seen = set()
        for _ in range(60):
            doc = _random_plan(rng, kind)
            plan_path.write_text(json.dumps(doc))
            assert main(["run", str(plan_path), "--output", str(tmp_path / "r.json"), "--trace", str(trace_path)]) == 0
            plan = parse_workload(doc)
            expected = _reference_trace_csv(plan, run_experiment(plan))
            assert trace_path.read_bytes() == expected
            units_at = {}
            for line in expected.decode().splitlines()[1:]:
                cycle, unit = line.split(",")[:2]
                units_at.setdefault(cycle, set()).add(unit)
            if any(len(units) > 1 for units in units_at.values()):
                seen.add("units share a cycle")
            if (plan.model.experts if kind == "moe" else plan.model.heads) >= 11:
                seen.add("string order differs from numeric order")
        capsys.readouterr()
        assert seen == {"units share a cycle", "string order differs from numeric order"}

    def test_builds_no_events(self, moe_config, mha_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dataflow.AccessEvent, "__post_init__", _refuse)
        for config in (moe_config, mha_config):
            dest = tmp_path / "trace.csv"
            assert main(["run", config, "--trace", str(dest)]) == 0
            assert dest.read_bytes().count(b"\r\n") > 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "record,problem",
        [
            ((-1, ACT_LB, "read", 8, "spike"), "cycle cannot be negative"),
            ((0, ACT_LB, "fetch", 8, "spike"), "direction must be read or write"),
            ((0, "act_dram", "read", 8, "spike"), "unknown level 'act_dram'"),
        ],
    )
    def test_bad_walker_record_exits_2(self, record, problem, mha_config, tmp_path, capsys, monkeypatch):
        walk = dataflow.attention_walk

        def bad_walk(*args):
            stats, records = walk(*args)
            return stats, records_from_rows([record, *record_rows(records)])

        monkeypatch.setattr(dataflow, "attention_walk", bad_walk)
        assert main(["run", mha_config, "--trace", str(tmp_path / "trace.csv")]) == 2
        assert problem in capsys.readouterr().err
        # The run path's fold checks the records too.
        assert main(["run", mha_config]) == 2
        assert problem in capsys.readouterr().err
