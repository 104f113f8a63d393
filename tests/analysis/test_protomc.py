"""Protocol model checker: extraction facts, properties, mutations, fleet."""

import pytest

from repro.analysis.protomc import (
    MUTATIONS,
    PROPERTIES,
    CommModel,
    Op,
    base_model,
    build_programs,
    degradation_ladder,
    findings_from,
    model_from_scenario,
    replay,
    run_mutation_battery,
    verify_model,
    verify_scenario,
)
from repro.analysis.protomc.checker import check_proves
from repro.analysis.protomc.extract import check_live_extraction, grid_peer
from repro.analysis.protomc.model import FENCE, RECV, SEND
from repro.analysis.protomc.mutations import check_mutations_caught


class TestExtraction:
    """Programs extracted from CommPlan conventions match Table 1."""

    def test_half_shell_newton_route_count(self):
        """Newton-on p2p: 13 sends + 13 recvs per rank per stage."""
        programs = build_programs(
            (2, 2, 2), "p2p", newton=True, radius=1, rdma=False,
            stage_order=("borders",), atoms=8,
        )
        for rank, ops in enumerate(programs):
            sends = [o for o in ops if o.kind == SEND]
            recvs = [o for o in ops if o.kind == RECV]
            assert len(sends) == 13, f"rank {rank}: {len(sends)} sends"
            assert len(recvs) == 13

    def test_full_shell_no_newton_route_count(self):
        """Newton-off: the full 26-shell both ways."""
        programs = build_programs(
            (2, 2, 2), "p2p", newton=False, radius=1, rdma=False,
            stage_order=("borders",), atoms=8,
        )
        sends = [o for o in programs[0] if o.kind == SEND]
        assert len(sends) == 26

    def test_self_routes_are_skipped(self):
        """On a 1x1x1 grid every peer is self: no comm ops at all."""
        programs = build_programs(
            (1, 1, 1), "p2p", newton=True, radius=1, rdma=False,
            stage_order=("borders", "forward", "reverse"), atoms=8,
        )
        assert programs == [[]] or all(not ops for ops in programs)

    def test_send_recv_tags_pair_up(self):
        """Every send's (peer, tag) appears as a recv on the peer."""
        programs = build_programs(
            (2, 2, 1), "p2p", newton=True, radius=1, rdma=False,
            stage_order=("borders", "forward", "reverse"), atoms=8,
        )
        recv_keys = {
            (rank, op.peer, op.tag)
            for rank, ops in enumerate(programs)
            for op in ops if op.kind == RECV
        }
        for rank, ops in enumerate(programs):
            for op in ops:
                if op.kind == SEND:
                    assert (op.peer, rank, op.tag) in recv_keys

    def test_grid_peer_wraps_periodically(self):
        assert grid_peer(0, (1, 0, 0), (2, 1, 1)) == 1
        assert grid_peer(1, (1, 0, 0), (2, 1, 1)) == 0
        assert grid_peer(0, (-1, 0, 0), (3, 1, 1)) == 2

    def test_three_stage_has_dimension_fences(self):
        programs = build_programs(
            (2, 2, 2), "3stage", newton=True, radius=1, rdma=False,
            stage_order=("borders",), atoms=8,
        )
        fences = [o for o in programs[0] if o.kind == FENCE]
        assert fences, "3stage programs must fence between dimensions"

    def test_degradation_ladder_descends(self):
        assert degradation_ladder("parallel-p2p") == (
            "parallel-p2p", "p2p", "3stage",
        )
        assert degradation_ladder("3stage") == ("3stage",)


class TestProperties:
    """Clean models prove P1-P4; the checker's verdict renders."""

    def test_base_model_verifies(self):
        result = verify_model(base_model())
        assert check_proves(result)[0], result.render()
        assert result.states > 0
        assert not result.incomplete

    def test_all_properties_cataloged(self):
        assert sorted(PROPERTIES) == ["P1", "P2", "P3", "P4"]

    def test_deadlock_found_on_crossed_recvs(self):
        """Two ranks that both recv before sending: textbook deadlock."""
        t = ("x", "t", 0)
        u = ("x", "t", 1)
        programs = [
            [Op(RECV, 0, peer=1, tag=t, stage="s"),
             Op(SEND, 0, peer=1, tag=u, stage="s")],
            [Op(RECV, 1, peer=0, tag=u, stage="s"),
             Op(SEND, 1, peer=0, tag=t, stage="s")],
        ]
        model = CommModel(label="crossed", n_ranks=2, programs=programs)
        result = verify_model(model)
        assert not result.ok
        assert result.counterexamples[0].prop == "P1"

    def test_leak_found_on_unmatched_send(self):
        programs = [
            [Op(SEND, 0, peer=1, tag=("x", "t", 0), stage="s")],
            [],
        ]
        model = CommModel(label="leak", n_ranks=2, programs=programs)
        result = verify_model(model)
        assert {c.prop for c in result.counterexamples} == {"P2"}

    def test_ladder_cycle_is_p4(self):
        model = CommModel(
            label="cycle", n_ranks=1, programs=[[]],
            ladder=("p2p", "3stage", "p2p"),
        )
        result = verify_model(model)
        assert {c.prop for c in result.counterexamples} == {"P4"}

    def test_counterexample_trace_replays(self):
        programs = [
            [Op(RECV, 0, peer=1, tag=("x", "t", 0), stage="s")],
            [],
        ]
        model = CommModel(label="stuck", n_ranks=2, programs=programs)
        result = verify_model(model)
        cex = result.counterexamples[0]
        assert cex.prop == "P1"
        assert replay(model, cex)

    def test_findings_carry_property_rule(self):
        model = CommModel(
            label="cycle", n_ranks=1, programs=[[]],
            ladder=("p2p", "p2p"),
        )
        findings = findings_from([verify_model(model)])
        assert findings and findings[0].rule == "P4"
        assert findings[0].path == "cycle"


class TestMutations:
    """Every seeded protocol bug is caught by its named property."""

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_caught_by_named_property(self, name):
        expected, mutate = MUTATIONS[name]
        result = verify_model(mutate(base_model()), max_states=200_000)
        assert not result.ok, f"{name}: mutation survived verification"
        props = {c.prop for c in result.counterexamples}
        assert expected in props, f"{name}: expected {expected}, got {props}"

    def test_battery_replays_every_counterexample(self):
        outcomes = run_mutation_battery()
        assert len(outcomes) == len(MUTATIONS)
        ok, detail = check_mutations_caught(outcomes)
        assert ok, detail


class TestFleetVerification:
    """Scenario documents verify end-to-end through extraction."""

    @pytest.fixture(scope="class")
    def fleet(self):
        from repro.scenarios.registry import default_fleet

        return default_fleet()

    def test_sampled_equivalence_scenario_proves(self, fleet):
        scenario = next(
            s for s in fleet
            if s["block"].startswith("equivalence")
            and s["params"]["grid"] == [2, 2, 2]
        )
        result = verify_scenario(scenario, max_states=200_000, budget_s=20.0)
        assert check_proves(result)[0], result.render()

    def test_bench_rdma_scenario_proves(self, fleet):
        scenario = next(
            (s for s in fleet if s["role"] == "bench"
             and s["params"].get("rdma")), None,
        )
        if scenario is None:
            pytest.skip("no rdma bench scenario in the default fleet")
        result = verify_scenario(scenario, max_states=300_000, budget_s=20.0)
        assert result.ok, result.render()

    def test_live_exchange_model_matches_static_extraction(self):
        """Model built from a live exchange's routes also verifies."""
        from repro.scenarios.build import scenario_exchange
        from repro.scenarios.registry import default_fleet

        fleet = default_fleet()
        scenario = next(
            s for s in fleet
            if s["block"].startswith("equivalence")
            and s["params"]["grid"] == [2, 2, 2]
            and s["params"].get("newton", True)
        )
        ok, detail = check_live_extraction({"p2p": scenario_exchange(scenario, "p2p")})
        assert ok, detail

    @pytest.mark.parametrize("depth", [None, 3])
    def test_live_extraction_sees_the_rdma_plane(self, depth):
        """The rdma p2p probe exchange proves at its default ring depth;
        3-deep rings fail the live check (P3)."""
        from repro.analysis.commlint import probe_exchange

        ok, detail = check_live_extraction({"p2p": probe_exchange(ring_depth=depth)})
        assert detail == "p2p: 13/13 border sends"  # Table 1, Newton half shell
        assert ok is (depth is None)

    @pytest.mark.parametrize("depth", [4, 3])
    def test_live_model_carries_the_exchanges_ring_depth(self, depth):
        """Depth and slot size are the live exchange's own: 3-deep rdma
        rings overflow under the 2x2x2 offset aliasing (P3), 4 prove."""
        from repro.analysis.commlint import probe_exchange
        from repro.analysis.protomc.extract import model_from_exchange

        exchange = probe_exchange(ring_depth=depth)
        model = model_from_exchange(exchange)
        slot = exchange._plan_budget().max_atoms_per_message()
        assert (model.ring_depth, model.slot_atoms) == (depth, slot)
        result = verify_model(model)
        assert [c.prop for c in result.counterexamples] == ([] if depth == 4 else ["P3"])

    def test_model_role_uses_canonical_grid(self, fleet):
        from repro.analysis.protomc.extract import CANONICAL_GRID

        scenario = next(s for s in fleet if s["role"] == "model")
        model = model_from_scenario(scenario)
        import math

        assert model.n_ranks == math.prod(CANONICAL_GRID)


class TestValidationLevel:
    """scenarios validate --level L2.5 rejects protocol-broken documents."""

    def test_l25_accepts_a_clean_scenario(self):
        from repro.scenarios.registry import default_fleet
        from repro.scenarios.validate import check_l25

        fleet = default_fleet()
        scenario = next(
            s for s in fleet
            if s["block"].startswith("equivalence")
            and s["params"]["grid"] == [2, 2, 1]
        )
        assert check_l25(scenario) == []

    def test_l25_is_a_registered_level(self):
        from repro.scenarios.validate import LEVELS, HINTS

        assert "L2.5" in LEVELS
        for prop in ("P1", "P2", "P3", "P4"):
            assert prop in HINTS
