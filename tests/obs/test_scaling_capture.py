"""Scaling-curve capture: ladder parsing, artifact schema, CLI."""

import copy
import json

import pytest

from repro.artifact import write
from repro.obs import bench
from repro.obs.bench import BenchConfig, build_simulation
from repro.obs.scaling import (
    DEFAULT_LADDER,
    PATTERN_VARIANTS,
    SCHEMA,
    ScalingSpec,
    capture_scaling,
    parse_ladder,
    render_scaling,
    validate_scaling_doc,
    workload_from_sim,
)
from repro.perfmodel.scaling import modeled_ladder, ranks_to_nodes


@pytest.fixture(scope="module")
def doc():
    """One real 2-rung capture, shared by the read-only tests."""
    spec = ScalingSpec(steps=4)
    return capture_scaling(spec, ladder=DEFAULT_LADDER, repeats=1, label="unit")


class TestLadder:
    def test_parse(self):
        assert parse_ladder("1x2x2,2x2x2") == ((1, 2, 2), (2, 2, 2))
        assert parse_ladder(" 2x2x2 ") == ((2, 2, 2),)

    @pytest.mark.parametrize("bad", ["", "2x2", "2x2x2x2", "0x2x2", "axbxc"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_ladder(bad)

    def test_capture_rejects_unordered_ladder(self):
        with pytest.raises(ValueError, match="ordered by rank count"):
            capture_scaling(ScalingSpec(steps=1), ladder=((2, 2, 2), (1, 2, 2)))

    def test_ranks_to_nodes(self):
        # Fugaku runs 4 ranks per node.
        assert ranks_to_nodes(4) == 1
        assert ranks_to_nodes(8) == 2
        assert ranks_to_nodes(1) == 1
        with pytest.raises(ValueError):
            ranks_to_nodes(0)


class TestWorkloadProjection:
    def test_reads_the_live_system(self):
        sim = build_simulation(BenchConfig("lj", "parallel-p2p", (2, 2, 2), True))
        w = workload_from_sim(sim, "lj")
        assert w.potential == "lj"
        assert w.natoms == sim.natoms
        assert w.density == pytest.approx(sim.natoms / sim.box.volume)
        assert w.rcomm == pytest.approx(sim.potential.cutoff + sim.config.skin)
        assert w.allreduce_every == 0

    def test_eam_gets_the_allreduce_cadence(self):
        sim = build_simulation(BenchConfig("eam", "parallel-p2p", (2, 2, 2), True))
        assert workload_from_sim(sim, "eam").allreduce_every == 5


class TestCapture:
    def test_schema_validates(self, doc):
        assert doc["schema"] == SCHEMA
        assert validate_scaling_doc(doc) == 2

    def test_rungs_strictly_increase(self, doc):
        ranks = [pt["ranks"] for pt in doc["points"]]
        assert ranks == sorted(set(ranks)) == [4, 8]

    def test_first_rung_efficiency_is_one(self, doc):
        assert doc["points"][0]["efficiency"] == pytest.approx(1.0, abs=1e-12)
        assert doc["points"][0]["divergence"] == pytest.approx(0.0, abs=1e-12)

    def test_strong_scaling_holds_atoms_fixed(self, doc):
        atoms = {pt["atoms"] for pt in doc["points"]}
        assert len(atoms) == 1
        assert doc["workload"]["natoms"] in atoms

    def test_predicted_matches_modeled_ladder(self, doc):
        variant = doc["spec"]["variant"]
        assert variant == PATTERN_VARIANTS[doc["spec"]["pattern"]]
        w = doc["workload"]
        from repro.perfmodel.stagemodel import Workload

        workload = Workload(
            name="check", potential=doc["spec"]["potential"],
            natoms=w["natoms"], density=w["density"], rcomm=w["rcomm"],
            dt=0.005, rebuild_every=20,
        )
        predicted = modeled_ladder(workload, variant, [4, 8])
        for pt, pred in zip(doc["points"], predicted):
            assert pt["predicted"]["nodes"] == pred.nodes

    def test_every_rung_embeds_imbalance_and_rankprof(self, doc):
        for pt in doc["points"]:
            assert pt["imbalance"]["max_mean"] >= 1.0
            rp = pt["rankprof"]
            assert rp["schema"] == "repro-rankprof/1"
            assert rp["ranks"] == pt["ranks"]


class TestValidate:
    def test_rejects_wrong_schema(self, doc):
        bad = copy.deepcopy(doc)
        bad["schema"] = "repro-scaling/0"
        with pytest.raises(ValueError, match=r"\$\.schema"):
            validate_scaling_doc(bad)

    def test_rejects_non_increasing_rungs(self, doc):
        bad = copy.deepcopy(doc)
        bad["points"] = bad["points"][::-1]
        with pytest.raises(ValueError, match="strictly increase"):
            validate_scaling_doc(bad)

    def test_rejects_stage_set_mismatch(self, doc):
        bad = copy.deepcopy(doc)
        del bad["points"][0]["model"]["stages"]["Comm"]
        with pytest.raises(ValueError, match="stage set mismatch"):
            validate_scaling_doc(bad)

    def test_rejects_broken_embedded_rankprof(self, doc):
        bad = copy.deepcopy(doc)
        bad["points"][1]["rankprof"]["schema"] = "nope"
        with pytest.raises(ValueError, match=r"\$\.points\[1\]\.rankprof"):
            validate_scaling_doc(bad)

    def test_rejects_off_efficiency_anchor(self, doc):
        bad = copy.deepcopy(doc)
        bad["points"][0]["efficiency"] = 0.9
        with pytest.raises(ValueError, match="efficiency 1.0"):
            validate_scaling_doc(bad)


class TestRenderAndIO:
    def test_render_lists_every_rung(self, doc):
        text = render_scaling(doc)
        assert "scaling capture [unit]" in text
        for pt in doc["points"]:
            assert f"\n{pt['ranks']:>5} |" in text

    def test_write_round_trip(self, doc, tmp_path):
        path = tmp_path / "SCALING_unit.json"
        write(str(path), doc)
        back = json.loads(path.read_text())
        assert validate_scaling_doc(back) == 2
        assert back["points"][0]["ranks"] == doc["points"][0]["ranks"]


class TestCLI:
    def test_bench_scaling_subcommand(self, tmp_path, capsys):
        out = tmp_path / "SCALING_cli.json"
        rc = bench.main([
            "scaling", "--out", str(out), "--ladder", "1x2x2,2x2x2",
            "--steps", "3", "--repeats", "1", "--label", "cli",
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_scaling_doc(doc) == 2
        assert doc["label"] == "cli"
        assert "scaling capture [cli]" in capsys.readouterr().out

    def test_bad_ladder_exits_2(self, tmp_path):
        out = tmp_path / "SCALING_bad.json"
        assert bench.main(
            ["scaling", "--out", str(out), "--ladder", "2x2"]
        ) == 2
        assert not out.exists()
