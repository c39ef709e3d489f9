"""Command-line behavior: exit codes, report emission, artifact dumps."""

import csv
import hashlib
import json
import subprocess
import sys

import pytest

from spikesim import SpikeTensor, builtin_calibration, dump_calibration, parse_workload, run_experiment
from spikesim.cli import main
from spikesim.runner import load_report_csv

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

    def test_calibration_level_fields_listed(self, tmp_path, capsys):
        doc = dump_calibration(builtin_calibration("moe", "2d"))
        del doc["levels"][0]["words"]
        del doc["levels"][1]["id"]
        doc["levels"][2]["latency_ps"] = "fast"
        del doc["aggregate"]["area_mm2"]
        assert self._run_with_calibration(tmp_path, json.dumps(doc)) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid calibration file (4 problem(s)):")
        assert err.count("  - ") == 4
        for needle in ("level 0 missing field 'words'", "level 1 missing field 'id'", "'latency_ps'", "'area_mm2'"):
            assert needle in err

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
