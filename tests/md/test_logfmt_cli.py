"""LAMMPS-style log formatting and the command-line runner."""

import pytest

from repro.cli import build_parser, build_simulation, main
from repro.md.logfmt import (
    format_breakdown,
    format_performance,
    format_run_summary,
    format_thermo,
)
from repro.md.stages import Stage, StageTimers
from repro.md.thermo import ThermoSample


def sample(step=10):
    return ThermoSample(
        step=step, temperature=1.44, kinetic=10.0, potential=-50.0,
        virial=3.0, pressure=0.5, natoms=100,
    )


class TestThermoTable:
    def test_columns_present(self):
        text = format_thermo([sample()])
        for col in ("Step", "Temp", "TotEng", "Press"):
            assert col in text

    def test_one_row_per_sample(self):
        text = format_thermo([sample(1), sample(2), sample(3)])
        assert len(text.splitlines()) == 4  # header + 3


class TestPerformanceLine:
    def test_tau_per_day(self):
        # 100 steps of dt=0.005 in 1 s -> 0.5 tau/s -> 43200 tau/day
        text = format_performance(100, 1.0, natoms=1000, dt=0.005)
        assert "43200" in text
        assert "tau/day" in text

    def test_zero_steps_safe(self):
        assert "no steps" in format_performance(0, 1.0, 10, 0.005)


class TestBreakdown:
    def test_all_stages_listed(self):
        t = StageTimers()
        t.add_model(Stage.PAIR, 1.0)
        text = format_breakdown(t, which="model")
        for s in Stage:
            assert s.value in text
        assert "100.00%" in text

    def test_percentages(self):
        t = StageTimers()
        t.add_model(Stage.PAIR, 3.0)
        t.add_model(Stage.COMM, 1.0)
        text = format_breakdown(t, which="model")
        assert "75.00%" in text and "25.00%" in text


class TestCLI:
    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.potential == "lj"
        assert args.pattern == "parallel-p2p"

    def test_build_lj_simulation(self):
        args = build_parser().parse_args(
            ["--atoms", "500", "--nranks", "4", "--pattern", "p2p"]
        )
        sim = build_simulation(args)
        assert sim.natoms >= 500
        assert sim.world.size == 4

    def test_build_eam_simulation(self):
        args = build_parser().parse_args(
            ["--potential", "eam", "--atoms", "256", "--nranks", "2"]
        )
        sim = build_simulation(args)
        assert sim.config.neighbor_check  # Table 2 EAM policy

    def test_explicit_rank_grid(self):
        args = build_parser().parse_args(
            ["--atoms", "500", "--ranks", "2", "1", "1"]
        )
        sim = build_simulation(args)
        assert sim.grid == (2, 1, 1)

    def test_end_to_end_run(self, capsys):
        rc = main(
            [
                "--atoms", "256", "--steps", "5", "--nranks", "2",
                "--pattern", "p2p", "--rdma", "--model-time", "--thermo", "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Performance:" in out
        assert "MPI task timing breakdown" in out
        assert "Simulated Fugaku communication time" in out

    def test_run_summary_format(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(3, 3, 3), ranks=(1, 1, 1), thermo_every=5
        )
        sim.run(10)
        text = format_run_summary(sim)
        assert "Performance:" in text
        assert "Pair" in text


class TestObservabilityFlags:
    ARGS = ["--atoms", "256", "--steps", "3", "--nranks", "2"]

    def test_invalid_trace_path_rejected_before_run(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "t.json"
        rc = main([*self.ARGS, "--trace", str(missing_dir)])
        assert rc == 2
        out = capsys.readouterr().out
        assert "cannot write trace file" in out
        # Fail-fast: the run itself never started, so no log header.
        assert "# repro:" not in out

    def test_trace_file_validates(self, tmp_path, capsys):
        from repro.artifact import read
        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "t.json"
        rc = main([*self.ARGS, "--trace", str(path)])
        assert rc == 0
        assert validate_chrome_trace(read(str(path))) > 0
        out = capsys.readouterr().out
        assert "Span-derived stage breakdown" in out

    def test_metrics_flag_prints_report(self, capsys):
        rc = main([*self.ARGS, "--metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics report:" in out
        assert "messages_total" in out

    def test_selfcheck_composes_with_trace(self, tmp_path, capsys):
        from repro.artifact import read
        from repro.obs.export import validate_chrome_trace

        path = tmp_path / "sc.json"
        rc = main(["--selfcheck", "--trace", str(path)])
        assert rc == 0
        assert validate_chrome_trace(read(str(path))) > 0
        out = capsys.readouterr().out
        assert "repro self-check:" in out
        assert "# trace:" in out


class TestObserverStateRestored:
    """``main`` arms the process-wide observers for its own run only."""

    ARGS = ["--atoms", "256", "--steps", "2", "--nranks", "2"]

    @staticmethod
    def _observers():
        from repro.obs import METRICS, TELEMETRY, TRACER

        return (TRACER.enabled, METRICS.enabled, TELEMETRY.enabled,
                TELEMETRY.autodump_path)

    def _armed(self, tmp_path):
        return [
            *self.ARGS, "--trace", str(tmp_path / "t.json"), "--metrics",
            "--no-telemetry", "--flightrec", str(tmp_path / "f.json"),
        ]

    def test_failing_call_leaks_nothing(self, tmp_path, capsys):
        before = self._observers()
        rc = main([*self._armed(tmp_path), "--faults", str(tmp_path / "missing.json")])
        assert rc == 2
        assert "cannot load fault plan" in capsys.readouterr().out
        assert self._observers() == before

    def test_succeeding_call_leaks_nothing(self, tmp_path, capsys):
        before = self._observers()
        assert main(self._armed(tmp_path)) == 0
        assert "# trace:" in capsys.readouterr().out
        assert self._observers() == before

    def test_raising_call_leaks_nothing(self, tmp_path, monkeypatch):
        import repro.cli

        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.cli, "build_simulation", boom)
        before = self._observers()
        with pytest.raises(RuntimeError, match="boom"):
            main(self._armed(tmp_path))
        assert self._observers() == before
