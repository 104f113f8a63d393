"""``repro analyze`` exit codes/output and the selfcheck failure contract."""

import json

import repro.cli as repro_cli
from repro.analysis.cli import main as analyze_main
from repro.analysis.findings import SCHEMA


class TestAnalyzeCli:
    def test_clean_static_run_exits_zero(self, capsys):
        assert analyze_main(["--no-dynamic"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_seeded_bug_exits_one_and_names_the_rule(self, capsys, monkeypatch):
        """A live exchange whose receive rings are built 3 deep fails."""
        from repro.analysis import commlint

        probe = commlint.probe_exchange
        monkeypatch.setattr(commlint, "probe_exchange", lambda: probe(ring_depth=3))
        assert analyze_main(["--no-dynamic"]) == 1
        out = capsys.readouterr().out
        assert "CL001: rank 0 ring 0: depth 3 < 4" in out
        assert "rdma_buffers.py:" in out

    def test_json_report_matches_schema(self, capsys):
        assert analyze_main(["--no-dynamic", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SCHEMA
        assert doc["tool"] == "analyze"
        assert doc["findings"] == []
        assert doc["summary"]["files_analyzed"] == 1

    def test_strict_fails_on_warning_findings(self, tmp_path, capsys, monkeypatch):
        """--strict gates on *any* finding, not only errors."""
        from repro.analysis import cli as analysis_cli
        from repro.analysis.findings import AnalysisReport, Finding

        def warn_only():
            report = AnalysisReport(tool="commlint")
            report.add(Finding(rule="CL001", message="w", severity="warning"))
            return report

        monkeypatch.setattr(
            "repro.analysis.commlint.run_commlint", warn_only
        )
        assert analysis_cli.main(["--no-dynamic"]) == 0
        assert analysis_cli.main(["--no-dynamic", "--strict"]) == 1

    def test_missing_fault_plan_exits_two(self, capsys):
        assert analyze_main(["--faults", "/nonexistent/plan.json"]) == 2
        assert "cannot load fault plan" in capsys.readouterr().out

    def test_trace_file_mode_flags_saved_hazards(self, tmp_path, capsys):
        from repro.faults import FAULTS, FaultPlan, FaultSpec
        from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
        from repro.md.potentials import LennardJones
        from repro.md.simulation import Simulation, SimulationConfig
        from repro.obs import hbevents, observe
        from repro.obs.export import write_chrome_trace

        hbevents.reset()
        path = str(tmp_path / "stale.json")
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=7)
        cfg = SimulationConfig(
            dt=0.005, skin=0.3, pattern="p2p", rdma=True, neighbor_every=3
        )
        plan = FaultPlan(
            seed=3, faults=(FaultSpec(kind="rdma-stale", count=1, severity=2),)
        )
        with observe(metrics=False) as (tracer, _):
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            with FAULTS.inject(plan):
                sim.run(6)
            write_chrome_trace(path, tracer)
        assert analyze_main(["--trace", path]) == 1
        out = capsys.readouterr().out
        assert "HB001" in out

    def test_dispatch_through_repro_cli(self, capsys):
        """``python -m repro analyze ...`` routes to the analysis CLI."""
        assert repro_cli.main(["analyze", "--no-dynamic"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


class TestSelfcheckExitContract:
    """--selfcheck must exit nonzero and print the failing check names."""

    @staticmethod
    def fake_report(*checks):
        from repro.selfcheck import SelfCheckReport

        report = SelfCheckReport()
        for name, passed in checks:
            report.add(name, passed)
        return report

    def test_failure_exits_one_and_names_checks(self, monkeypatch, capsys):
        report = self.fake_report(
            ("energy conservation", True),
            ("commlint clean on the communication stack", False),
            ("race detector silent on fault-free RDMA run", False),
        )
        monkeypatch.setattr(
            "repro.selfcheck.run_selfcheck", lambda fault_plan=None: report
        )
        assert repro_cli.main(["--selfcheck"]) == 1
        out = capsys.readouterr().out
        assert (
            "# selfcheck FAILED: commlint clean on the communication stack, "
            "race detector silent on fault-free RDMA run" in out
        )

    def test_success_exits_zero(self, monkeypatch, capsys):
        report = self.fake_report(("energy conservation", True))
        monkeypatch.setattr(
            "repro.selfcheck.run_selfcheck", lambda fault_plan=None: report
        )
        assert repro_cli.main(["--selfcheck"]) == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_analysis_battery_is_registered(self):
        """The real battery wires the four analysis checks in."""
        import inspect

        from repro import selfcheck

        assert hasattr(selfcheck, "_analysis_checks")
        source = inspect.getsource(selfcheck.run_selfcheck)
        assert "_analysis_checks" in source


class TestFindingDeterminism:
    """Merged findings must serialize byte-identically run to run."""

    @staticmethod
    def _finding(rule, path, message, line=1):
        from repro.analysis.findings import Finding

        return Finding(rule=rule, path=path, line=line, message=message)

    def test_normalize_is_order_independent(self):
        from repro.analysis.findings import AnalysisReport

        items = [
            self._finding("CL004", "b.py", "stage order"),
            self._finding("CL001", "a.py", "ring depth"),
            self._finding("HB001", "<trace>", "fence overlap"),
            self._finding("CL001", "a.py", "another depth", line=9),
        ]
        forward = AnalysisReport(tool="analyze")
        backward = AnalysisReport(tool="analyze")
        for f in items:
            forward.add(f)
        for f in reversed(items):
            backward.add(f)
        forward.normalize()
        backward.normalize()
        assert forward.render_json() == backward.render_json()

    def test_normalize_dedupes_identical_findings(self):
        from repro.analysis.findings import AnalysisReport

        report = AnalysisReport(tool="analyze")
        report.add(self._finding("CL001", "a.py", "ring depth"))
        report.add(self._finding("CL001", "a.py", "ring depth"))
        report.normalize()
        assert len(report.findings) == 1

    def test_analyze_json_is_byte_stable(self, capsys):
        """Two identical invocations print identical bytes."""
        assert analyze_main(["--no-dynamic", "--json"]) == 0
        first = capsys.readouterr().out
        assert analyze_main(["--no-dynamic", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestVerifyCli:
    """`repro verify` wiring: scenario filters, reports, mutations."""

    SMALL = "equivalence-off/g2x1x1/c1.3/newton-on/off"

    def test_single_scenario_proves_and_exits_zero(self, capsys):
        from repro.analysis.protomc.cli import main as verify_main

        assert verify_main(["--scenario", self.SMALL]) == 0
        out = capsys.readouterr().out
        assert f"verify {self.SMALL}" in out and ": ok states=" in out
        assert "1/1 scenario(s) proven" in out

    def test_report_document_shape(self, tmp_path, capsys):
        from repro.analysis.protomc.cli import REPORT_SCHEMA
        from repro.analysis.protomc.cli import main as verify_main

        path = tmp_path / "verify.json"
        assert verify_main(
            ["--scenario", self.SMALL, "--quiet", "--report", str(path)]
        ) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["summary"]["checked"] == 1
        assert doc["summary"]["proven"] == 1
        assert doc["scenarios"][0]["ok"] is True

    def test_unknown_scenario_exits_two(self, capsys):
        from repro.analysis.protomc.cli import main as verify_main

        assert verify_main(["--scenario", "no/such/scenario"]) == 2

    def test_mutation_battery_exits_zero(self, capsys):
        from repro.analysis.protomc.cli import main as verify_main

        assert verify_main(["--mutations"]) == 0
        out = capsys.readouterr().out
        assert "5/5 caught" in out

    def test_repro_cli_routes_verify(self, capsys):
        assert repro_cli.main(
            ["verify", "--scenario", self.SMALL, "--quiet"]
        ) == 0
