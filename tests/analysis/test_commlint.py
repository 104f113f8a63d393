"""commlint: seeded bugs in a live exchange, the clean-tree gate, config mode."""

from repro.analysis.commlint import (
    MIN_RING_DEPTH,
    RULES,
    CommProfile,
    _fine_binding_violations,
    _shell_symmetry_violations,
    check_clean,
    check_flags_seeded_bug,
    exchange_violations,
    lint_config,
    probe_exchange,
    run_commlint,
)
from repro.analysis.findings import SCHEMA, AnalysisReport, Finding


def rules_of(findings):
    return sorted({f.rule for f in findings})


def profile(**overrides):
    """A clean single configuration (the fleet's 2x2x2 LJ geometry)."""
    base = dict(label="cfg", sub_box_edge=3.36, rcomm=2.8, density=0.8442)
    base.update(overrides)
    return CommProfile(**base)


class TestSeededBugs:
    """Each §3 invariant violation is flagged by its stable rule ID: on the
    rings, windows and arena a built exchange holds, on the live VCQ
    binding and shell generators, and (stage order) on one configuration."""

    def test_ring_depth_three_flags_cl001(self):
        ok, detail = check_flags_seeded_bug()
        assert ok, detail

    def test_ring_depth_four_is_clean(self):
        exchange = probe_exchange()
        depths = {ring.depth for ep in exchange.endpoints.values() for ring in ep.recv_rings}
        assert depths == {MIN_RING_DEPTH}
        assert exchange_violations(exchange) == []

    def test_duplicated_vcq_binding_flags_cl002(self, monkeypatch):
        """A TNI handing every rank the same CQ index is a shared CQ."""
        from repro.machine import tni as tni_mod

        original = tni_mod.TNI.allocate_cq

        def shared(self, rank):
            return tni_mod.ControlQueue(original(self, rank).tni, 0)

        monkeypatch.setattr(tni_mod.TNI, "allocate_cq", shared)
        findings = run_commlint().findings
        assert rules_of(findings) == ["CL002"]
        assert findings[0].path.endswith("tni.py")

    def test_distinct_bindings_are_clean(self):
        assert _fine_binding_violations(4) == []

    def test_reverse_before_forward_flags_cl004(self):
        order = ("borders", "reverse", "forward")
        assert rules_of(lint_config(profile(stage_order=order))) == ["CL004"]

    def test_forward_before_borders_flags_cl004(self):
        order = ("forward", "borders", "reverse")
        assert rules_of(lint_config(profile(stage_order=order))) == ["CL004"]

    def test_correct_stage_order_is_clean(self):
        assert lint_config(profile(stage_order=("borders", "forward", "reverse"))) == []

    def test_asymmetric_newton_plan_flags_cl005(self, monkeypatch):
        """A half shell holding both ``o`` and ``-o`` exchanges pairs twice."""
        from repro.core import patterns

        def overlapping(radius=1):
            return [o for o in patterns.shell_offsets(radius) if max(o) > 0]

        monkeypatch.setattr(patterns, "half_shell_offsets", overlapping)
        assert rules_of(run_commlint().findings) == ["CL005"]

    def test_half_shell_negation_plan_is_clean(self):
        exchange = probe_exchange()
        negated = [tuple(-o for o in off) for off in exchange.recv_offsets]
        assert exchange.send_offsets == negated
        assert _shell_symmetry_violations(1) == _shell_symmetry_violations(2) == []

    def test_put_positions_without_window_exchange_flags_cl006(self):
        exchange = probe_exchange()
        exchange.endpoints[3].remote.clear()
        findings = exchange_violations(exchange)
        assert [f.rule for f in findings] == ["CL006"]
        assert "rank 3 send 0: no exchanged remote window (and 12 more)" == findings[0].message

    def test_put_positions_with_window_exchange_is_clean(self):
        exchange = probe_exchange()
        for endpoint in exchange.endpoints.values():
            assert sorted(endpoint.remote) == list(range(len(endpoint.send_buffers)))
        assert exchange_violations(exchange) == []

    def test_deregistered_window_stag_flags_cl006(self):
        exchange = probe_exchange()
        window = exchange.endpoints[0].remote[0]
        cache = exchange.engine.cache_for(window.rank)
        cache.deregister(cache.lookup(window.x_stag))
        findings = exchange_violations(exchange)
        assert [f.rule for f in findings] == ["CL006"]
        assert f"stag {window.x_stag} is not registered on rank {window.rank}" in (
            findings[0].message
        )

    def test_shrunk_ring_flags_cl007(self):
        from repro.core.rdma_buffers import RecvBufferRing

        exchange = probe_exchange()
        exchange.endpoints[1].recv_rings[2] = RecvBufferRing(exchange.engine, 1, 64, 4)
        findings = exchange_violations(exchange)
        assert [f.rule for f in findings] == ["CL007"]
        assert findings[0].message.startswith("rank 1 ring 2: capacity 64 <")

    def test_budget_derived_capacity_is_clean(self):
        exchange = probe_exchange()
        needed = exchange._plan_budget().max_atoms_per_message() * 3 + 1
        capacities = {
            ring.capacity for ep in exchange.endpoints.values() for ring in ep.recv_rings
        }
        assert capacities == {needed}

    def test_counted_relayout_flags_cl008(self):
        """A slab grown past its capacity re-lays the arena out: CL008 (and
        CL007, the registered regions now trail the storage)."""
        exchange = probe_exchange()
        atoms = exchange.atoms_of(0)
        atoms.reserve(atoms.capacity + 1)
        findings = [f for f in exchange_violations(exchange) if f.rule == "CL008"]
        assert [f.message for f in findings] == [
            "the arena was re-laid out 1 time(s): a slab outgrew its capacity"
        ]
        assert findings[0].path.endswith("atoms.py")

    def test_pool_with_budget_object_is_clean(self):
        exchange = probe_exchange()
        budget = exchange._plan_budget()
        rows = budget.max_local_atoms() + budget.max_ghost_atoms(exchange.full_shell)
        arena = exchange.arena
        assert min(a.capacity for a in arena.members) >= rows
        assert arena.relayouts == 0


class TestCleanTree:
    """The shipping communication stack must produce zero findings."""

    def test_full_run_is_clean(self):
        report = run_commlint()
        assert check_clean(report)[0], report.render()
        assert report.files_analyzed == ["<exchange:p2p+rdma 2x2x2>"]

    def test_introspection_is_clean(self):
        """Every other built variant passes the live pass too."""
        from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities
        from repro.md.potentials import LennardJones
        from repro.md.simulation import Simulation, SimulationConfig

        x, box = fcc_lattice((4, 4, 4), lj_density_to_cell(0.8442))
        v = maxwell_velocities(x.shape[0], 1.44, seed=7)
        for pattern, rdma in (("3stage", False), ("p2p", False), ("parallel-p2p", True)):
            cfg = SimulationConfig(dt=0.005, skin=0.3, pattern=pattern, rdma=rdma)
            sim = Simulation(x, v, box, LennardJones(cutoff=2.5), cfg, grid=(2, 2, 2))
            sim.setup()
            assert exchange_violations(sim.exchange) == [], pattern

    def test_introspection_catches_broken_binding(self, monkeypatch):
        """CL003 fires when the live fine binding stops yielding 24 CQs."""
        from repro.machine import tni as tni_mod

        original = tni_mod.NodeNIC.bind_fine

        def skewed(self, ranks):
            vcq_map = original(self, ranks)
            first = next(iter(vcq_map))
            vcq_map[first] = vcq_map[first][:-1]  # drop one rank's VCQ
            return vcq_map

        monkeypatch.setattr(tni_mod.NodeNIC, "bind_fine", skewed)
        assert "CL003" in rules_of(run_commlint().findings)

    def test_introspection_catches_an_uncounted_relayout(self, monkeypatch):
        """CL008 fires, anchored at AtomArena, when growing a slab past the
        budget stops being counted."""
        from repro.md.atoms import AtomArena

        original = AtomArena.grow

        def uncounted(self, member, rows):
            original(self, member, rows)
            self.relayouts -= 1

        monkeypatch.setattr(AtomArena, "grow", uncounted)
        findings = [f for f in run_commlint().findings if f.rule == "CL008"]
        assert [f.message for f in findings] == [
            "over-budget growth was not counted (relayouts=0, expected 1)"
        ]
        assert findings[0].path.endswith("atoms.py")


class TestReportSchema:
    def test_every_rule_has_a_catalog_entry(self):
        assert sorted(RULES) == [f"CL{n:03d}" for n in range(1, 10)]

    def test_json_document_shape(self):
        report = AnalysisReport(tool="commlint")
        report.add(Finding(rule="CL001", message="m", path="p.py", line=3))
        doc = report.to_dict()
        assert doc["schema"] == SCHEMA
        assert doc["tool"] == "commlint"
        assert doc["findings"][0]["rule"] == "CL001"
        assert not report.ok and not report.clean

    def test_warning_findings_pass_ok_but_not_clean(self):
        report = AnalysisReport(tool="commlint")
        report.add(Finding(rule="CL001", message="m", severity="warning"))
        assert report.ok and not report.clean

    def test_by_rule_groups(self):
        report = AnalysisReport(tool="commlint")
        report.add(Finding(rule="CL001", message="a"))
        report.add(Finding(rule="CL001", message="b"))
        report.add(Finding(rule="CL005", message="c"))
        assert report.by_rule() == {"CL001": 2, "CL005": 1}


class TestInflightCapacity:
    """CL009: ring capacity must absorb the worst-case same-route burst."""

    def test_default_unfenced_profile_is_clean(self):
        assert rules_of(lint_config(profile())) == []

    def test_fenced_rdma_profile_is_clean(self):
        assert "CL009" not in rules_of(lint_config(profile(rdma=True, inflight_epochs=1)))

    def test_overcommitted_schedule_flags_cl009(self):
        """A schedule leaving many epochs un-drained overflows 4 slots."""
        assert "CL009" in rules_of(lint_config(profile(inflight_epochs=30)))

    def test_five_outstanding_messages_overflow_four_slots(self):
        """A slot holds one message: 5 outstanding epochs need 5 slots,
        whatever the message size (the atom arithmetic passed this)."""
        assert "CL009" in rules_of(lint_config(profile(inflight_epochs=5)))
        assert "CL009" not in rules_of(
            lint_config(profile(inflight_epochs=5, ring_depth=5))
        )

    def test_every_fleet_scenario_fits_its_rings(self):
        """Fleet profiles keep ring_depth >= MIN_RING_DEPTH (CL001) and at
        most 3 outstanding epochs, so CL009 passes them all."""
        from repro.scenarios.registry import default_fleet
        from repro.scenarios.validate import comm_profile

        profiles = [comm_profile(s) for s in default_fleet()]
        assert max(p.inflight_epochs for p in profiles) <= 3 < MIN_RING_DEPTH
        assert [p.label for p in profiles if "CL009" in rules_of(lint_config(p))] == []

    def test_nonpositive_epochs_flag_cl009(self):
        assert "CL009" in rules_of(lint_config(profile(inflight_epochs=0)))
