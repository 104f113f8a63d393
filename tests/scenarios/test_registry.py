"""Registry + committed spec: the fleet the test suites actually consume."""

import json
import pathlib

import pytest

from repro.scenarios import (
    FLEET_ENV,
    SCENARIO_SCHEMA,
    bench_scenarios,
    core_spec,
    differential_scenarios,
    dumps_core_spec,
    expand_spec,
    fault_scenarios,
    fleet_mode,
    model_scenarios,
    scenario_ids,
    scenarios_by_role,
)
from repro.scenarios.registry import check_legacy_embedded

SPEC_PATH = pathlib.Path(__file__).resolve().parents[2] / "examples" / "fleet_core.spec.json"


class TestCommittedSpec:
    def test_committed_file_matches_in_tree_source(self):
        """examples/fleet_core.spec.json IS dumps_core_spec(), byte for byte."""
        assert SPEC_PATH.read_text(encoding="utf-8") == dumps_core_spec()

    def test_committed_file_expands_to_the_default_fleet(self, scenario_fleet):
        doc = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        assert expand_spec(doc) == list(scenario_fleet)


class TestFleetShape:
    def test_at_least_200_scenarios(self, scenario_fleet):
        assert len(scenario_fleet) >= 200

    def test_every_scenario_is_schema_tagged_and_unique(self, scenario_fleet):
        ids = scenario_ids(list(scenario_fleet))
        assert len(set(ids)) == len(ids)
        for s in scenario_fleet:
            assert s["schema"] == SCENARIO_SCHEMA
            assert s["tier"] in ("sampled", "full")

    def test_roles_partition_the_fleet(self, scenario_fleet):
        by_role = {r: scenarios_by_role(r) for r in
                   ("equivalence", "fault", "model", "bench")}
        assert sum(len(v) for v in by_role.values()) == len(scenario_fleet)
        assert len(by_role["equivalence"]) == 72  # 24 per observability regime
        assert len(by_role["fault"]) == 48
        assert len(by_role["model"]) == 80
        assert len(by_role["bench"]) == 6


class TestTiers:
    def test_default_mode_keeps_full_differential_coverage(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENV, raising=False)
        assert fleet_mode() == "default"
        for regime in ("off", "telemetry", "rankprof"):
            assert len(differential_scenarios(regime)) == 24

    def test_sampled_mode_is_the_48_config_ci_tier(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "sampled")
        counts = {r: len(differential_scenarios(r))
                  for r in ("off", "telemetry", "rankprof")}
        assert counts == {"off": 24, "telemetry": 12, "rankprof": 12}
        assert sum(counts.values()) == 48

    def test_sampled_tier_is_deterministic(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "sampled")
        first = scenario_ids(differential_scenarios("telemetry"))
        second = scenario_ids(differential_scenarios("telemetry"))
        assert first == second

    def test_fault_and_model_tiers(self, monkeypatch):
        monkeypatch.delenv(FLEET_ENV, raising=False)
        assert len(fault_scenarios()) == 4
        assert len(model_scenarios()) == 4
        assert len(bench_scenarios()) == 6
        monkeypatch.setenv(FLEET_ENV, "full")
        assert len(fault_scenarios()) == 48
        assert len(model_scenarios()) == 80

    def test_invalid_mode_is_rejected(self, monkeypatch):
        monkeypatch.setenv(FLEET_ENV, "bogus")
        with pytest.raises(ValueError, match="REPRO_FLEET"):
            fleet_mode()

    def test_unknown_regime_is_rejected(self):
        with pytest.raises(ValueError, match="unknown regime"):
            differential_scenarios("metrics")


class TestLegacyEmbedding:
    def test_legacy_24_with_legacy_seeds_in_every_regime(self, monkeypatch):
        """The deleted hand-written lists are a subset of the fleet —
        same (grid, cutoff, newton) triples, same seeds, in all three
        differential regimes (telemetry/rankprof reused the exchange
        suite's CONFIGS and seed formula verbatim)."""
        monkeypatch.delenv(FLEET_ENV, raising=False)
        for regime in ("off", "telemetry", "rankprof"):
            ok, detail = check_legacy_embedded(differential_scenarios(regime))
            assert ok, f"{regime}: {detail}"

    def test_spec_source_still_declares_the_legacy_axes(self):
        spec = core_spec()
        off = next(b for b in spec["blocks"] if b["name"] == "equivalence-off")
        assert [tuple(g["grid"]) for g in off["axes"]["geometry"]] == [
            (1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)
        ]
        assert off["axes"]["cutoff"] == [1.3, 1.55, 1.8]
        assert off["axes"]["newton"] == [True, False]
