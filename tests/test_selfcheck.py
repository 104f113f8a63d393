"""Built-in self-check battery."""

import pytest

from repro.selfcheck import run_selfcheck


@pytest.fixture(scope="module")
def report():
    return run_selfcheck(cells=(4, 4, 4), steps=10)


class TestSelfCheck:
    def test_all_checks_pass(self, report):
        failing = [c.name for c in report.checks if not c.passed]
        assert report.ok, f"failing checks: {failing}"

    def test_covers_every_variant(self, report):
        names = " ".join(c.name for c in report.checks)
        for label in ("3stage", "p2p", "p2p+rdma", "parallel-p2p+rdma"):
            assert label in names

    def test_covers_table1_claims(self, report):
        names = [c.name for c in report.checks]
        assert any("Table 1" in n for n in names)
        assert any("Newton" in n for n in names)

    def test_render_readable(self, report):
        text = report.render()
        assert "PASS" in text
        assert f"{len(report.checks)}/{len(report.checks)} checks passed" in text

    def test_cli_flag(self, capsys):
        from repro.cli import main

        assert main(["--selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "self-check" in out


#: The battery's names, in report order.  The perf ledger keys its
#: ``tooling-fleet`` op messages and the exact ``selfcheck.checks_total``
#: row on them, so a rename, drop or reorder must be deliberate.
CHECK_NAMES = (
    "trajectory[3stage] matches serial reference",
    "momentum[3stage] conserved",
    "atoms[3stage] conserved through migration",
    "trajectory[p2p] matches serial reference",
    "momentum[p2p] conserved",
    "atoms[p2p] conserved through migration",
    "trajectory[p2p+rdma] matches serial reference",
    "momentum[p2p+rdma] conserved",
    "atoms[p2p+rdma] conserved through migration",
    "trajectory[parallel-p2p+rdma] matches serial reference",
    "momentum[parallel-p2p+rdma] conserved",
    "atoms[parallel-p2p+rdma] conserved through migration",
    "energy drift within truncation noise",
    "message counts match Table 1 (13 p2p vs 6 3-stage)",
    "ghost volume halved by Newton's law (Table 1)",
    "pre-registration held (no re-registrations)",
    "trace[3stage] phase traffic equals TrafficLog",
    "trace[3stage] forward counts match Table 1 (6 msgs/rank)",
    "trace[3stage] stage breakdown reproduces StageTimers",
    "trace[parallel-p2p] phase traffic equals TrafficLog",
    "trace[parallel-p2p] forward counts match Table 1 (13 msgs/rank)",
    "trace[parallel-p2p] stage breakdown reproduces StageTimers",
    "critpath[3stage] attribution sums to modeled exchange time",
    "critpath[3stage] message count matches rank-0 send schedule",
    "critpath[3stage] model stage breakdown reproduces StageTimers",
    "critpath[parallel-p2p] attribution sums to modeled exchange time",
    "critpath[parallel-p2p] message count matches rank-0 send schedule",
    "critpath[parallel-p2p] model stage breakdown reproduces StageTimers",
    "commlint clean on the communication stack",
    "commlint flags a seeded ring-depth bug (CL001)",
    "race detector silent on fault-free RDMA run",
    "race detector flags injected §3.4 hazards (HB001)",
    "telemetry leaves the exchange fast path on",
    "telemetry counters equal exchange/transport bookkeeping",
    "stage sketch sums telescope to StageTimers totals",
    "stage sketch p50/means agree with StageTimers breakdown",
    "forced RetryExhaustedError auto-dumps a valid flight record",
    "rankprof attribution partitions each rank's exchange exactly",
    "rankprof completions telescope to modeled_exchange_time bit-exactly",
    "rankprof rank-0 row equals whole-run critpath attribution bit-exactly",
    "rankprof document validates as repro-rankprof/1",
    "rankprof names the jittered rank as the sole fault straggler",
    "fleet expansion deterministic, duplicate-free, >= 200 configs",
    "legacy 24-config grid embedded in the fleet (same seeds)",
    "whole fleet passes L0+L1 (schema + commlint feasibility)",
    "fleet equivalence scenario: variants agree bit-identically",
    "fleet fault scenario: template plan absorbed bit-identically",
    "protomc: clean rdma p2p model proves P1-P4",
    "protomc: every seeded mutation caught by its named property",
    "protomc: sampled fleet scenario verifies end-to-end",
    "protomc: live route extraction matches Table 1 and verifies",
)


def test_check_names_are_stable(report):
    assert tuple(c.name for c in report.checks) == CHECK_NAMES
