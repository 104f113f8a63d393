"""`repro scenarios` CLI: generation determinism + error-path contract.

Error-path contract: inputs failing a
*check* print the failing check and exit 1 — never a traceback; IO and
usage problems exit 2.
"""

import json

import pytest

from repro.cli import main as repro_main
from repro.scenarios import dumps_core_spec
from repro.scenarios.cli import main as scenarios_main


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "fleet_core.spec.json"
    path.write_text(dumps_core_spec(), encoding="utf-8")
    return str(path)


class TestGenerate:
    def test_generate_is_byte_deterministic_and_validated(
        self, spec_path, tmp_path, capsys
    ):
        """The acceptance bar: >= 200 validated repro-scenario/1 configs,
        and the same spec always produces byte-identical output."""
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert scenarios_main(["generate", spec_path, "--out", str(out_a)]) == 0
        assert scenarios_main(["generate", spec_path, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        doc = json.loads(out_a.read_text())
        assert doc["schema"] == "repro-scenario-fleet/1"
        assert doc["count"] >= 200
        assert all(s["schema"] == "repro-scenario/1" for s in doc["scenarios"])
        assert "generated" in capsys.readouterr().err

    def test_repro_cli_dispatches_scenarios(self, spec_path, capsys):
        assert repro_main(["scenarios", "list", spec_path, "--role", "bench"]) == 0
        out = capsys.readouterr().out
        assert "bench-ci/" in out and "role=bench" in out

    def test_list_tier_filter(self, spec_path, capsys):
        assert scenarios_main(["list", spec_path, "--tier", "sampled"]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
        assert lines and all("tier=sampled" in ln for ln in lines)

    def test_validate_happy_path(self, spec_path, capsys):
        assert scenarios_main(["validate", spec_path, "--level", "L1"]) == 0
        assert "0 rejected" in capsys.readouterr().out


class TestErrorPaths:
    def test_malformed_json_prints_check_and_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert scenarios_main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAILED json-parse" in err
        assert "Traceback" not in err

    def test_structurally_invalid_spec_prints_failing_checks(
        self, tmp_path, capsys
    ):
        doc = json.loads(dumps_core_spec())
        doc["schema"] = "repro-mystery/9"
        doc["blocks"][0]["role"] = "vibes"
        bad = tmp_path / "bad.spec.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert scenarios_main(["generate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "FAILED $.schema" in err
        assert "FAILED $.blocks[0].role" in err
        assert "Traceback" not in err

    def test_generate_rejections_render_level_check_and_hint(
        self, tmp_path, capsys
    ):
        """A structurally valid spec whose expansion fails L1/L2 (stencil
        cannot reach the cutoff) must render the rejecting check + hint
        and exit 1 without writing the fleet."""
        doc = json.loads(dumps_core_spec())
        # 4x4x4 ranks over a 9.0 box: sub-box edge 2.25 < rcomm 2.35.
        doc["blocks"] = [{
            "name": "infeasible",
            "role": "equivalence",
            "axes": {
                "geometry": [{"grid": [4, 4, 4], "box_edge": 9.0, "atoms": 150}],
                "cutoff": [2.05],
                "newton": [True],
            },
            "fixed": {"observability": "off"},
        }]
        bad = tmp_path / "infeasible.spec.json"
        out = tmp_path / "fleet.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert scenarios_main(["generate", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "infeasible/" in err
        assert "hint:" in err
        assert "rejected" in err
        assert not out.exists()

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert scenarios_main(["generate", str(tmp_path / "gone.json")]) == 2
        assert "scenarios:" in capsys.readouterr().err


class TestBenchFleet:
    def test_bench_fleet_runs_the_bench_role_configs(self, tmp_path, capsys):
        """`bench fleet <spec>` prices every bench-role scenario with the
        existing per-group machinery and writes a repro-bench/1 artifact."""
        from repro.obs import bench

        spec = json.loads(dumps_core_spec())
        # Keep only the three smoke-sized configs for runtime.
        blk = next(b for b in spec["blocks"] if b["name"] == "bench-ci")
        blk["axes"]["config"] = [
            c for c in blk["axes"]["config"] if c["grid"] == [2, 2, 2]
        ]
        spec["blocks"] = [blk]
        spec_path = tmp_path / "bench.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "fleet_bench.json"
        assert bench.main(
            ["fleet", str(spec_path), "--out", str(out), "--repeats", "1"]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "fleet:fleet-core"
        assert len(doc["runs"]) == 3
        assert bench.validate_bench_doc(doc) == 3
        assert "bench fleet: 3 configs" in capsys.readouterr().out

    def test_bench_fleet_without_bench_scenarios_exits_2(self, tmp_path, capsys):
        from repro.obs import bench

        spec = json.loads(dumps_core_spec())
        spec["blocks"] = [b for b in spec["blocks"] if b["role"] != "bench"]
        spec_path = tmp_path / "nobench.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert bench.main(
            ["fleet", str(spec_path), "--out", str(tmp_path / "o.json")]
        ) == 2
        assert "error:" in capsys.readouterr().out
