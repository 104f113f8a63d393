"""commlint: seeded-bug fixtures, suppressions, and the clean-tree gate."""

from repro.analysis.commlint import (
    DEFAULT_MODULES,
    MIN_RING_DEPTH,
    RULES,
    check_clean,
    check_flags_seeded_bug,
    default_paths,
    lint_source,
    run_commlint,
    run_introspection,
)
from repro.analysis.findings import SCHEMA, AnalysisReport, Finding


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestSeededBugs:
    """Each §3 invariant violation is flagged by its stable rule ID."""

    def test_ring_depth_three_flags_cl001(self):
        ok, detail = check_flags_seeded_bug()
        assert ok, detail

    def test_ring_depth_positional_literal(self):
        src = "ring = RecvBufferRing(engine, 0, cap, 2)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["CL001"]
        assert f"2 < {MIN_RING_DEPTH}" in findings[0].message

    def test_default_ring_depth_below_four(self):
        src = "def make(engine, ring_depth=3):\n    return ring_depth\n"
        assert rules_of(lint_source(src)) == ["CL001"]

    def test_endpoint_ring_depth_keyword(self):
        src = "ep = RdmaEndpoint(rank=0, engine=e, ring_depth=1)\n"
        assert rules_of(lint_source(src)) == ["CL001"]

    def test_ring_depth_four_is_clean(self):
        src = "ring = RecvBufferRing(engine, 0, cap, depth=4)\n"
        assert lint_source(src) == []

    def test_duplicated_vcq_binding_flags_cl002(self):
        src = "a = ControlQueue(1, 2)\nb = ControlQueue(1, 2)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["CL002"]
        assert findings[0].line == 2
        assert "first at line 1" in findings[0].message

    def test_distinct_bindings_are_clean(self):
        src = "a = ControlQueue(1, 2)\nb = ControlQueue(1, 3)\n"
        assert lint_source(src) == []

    def test_reverse_before_forward_flags_cl004(self):
        src = (
            "def round(self):\n"
            "    self.reverse(f)\n"
            "    self.forward(x)\n"
        )
        assert rules_of(lint_source(src)) == ["CL004"]

    def test_forward_before_borders_flags_cl004(self):
        src = (
            "def round(self):\n"
            "    self.forward(x)\n"
            "    self.borders(x)\n"
        )
        assert rules_of(lint_source(src)) == ["CL004"]

    def test_correct_stage_order_is_clean(self):
        src = (
            "def round(self):\n"
            "    self.borders(x)\n"
            "    self.forward(x)\n"
            "    self.reverse(f)\n"
        )
        assert lint_source(src) == []

    def test_asymmetric_newton_plan_flags_cl005(self):
        src = (
            "SEND_OFFSETS = [(1, 0, 0), (0, 1, 0)]\n"
            "RECV_OFFSETS = [(-1, 0, 0), (0, 1, 0)]\n"
        )
        assert rules_of(lint_source(src)) == ["CL005"]

    def test_half_shell_negation_plan_is_clean(self):
        src = (
            "SEND_OFFSETS = [(1, 0, 0), (0, 1, 0)]\n"
            "RECV_OFFSETS = [(-1, 0, 0), (0, -1, 0)]\n"
        )
        assert lint_source(src) == []

    def test_negation_closed_full_shell_is_clean(self):
        src = (
            "SEND_OFFSETS = [(1, 0, 0), (-1, 0, 0)]\n"
            "RECV_OFFSETS = [(1, 0, 0), (-1, 0, 0)]\n"
        )
        assert lint_source(src) == []

    def test_literal_stag_put_flags_cl006(self):
        src = "engine.put(src, 0, 9, dst_stag=1234, dst_offset=off, count=n)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["CL006"]
        assert "literal stag 1234" in findings[0].message

    def test_literal_remote_offset_flags_cl006(self):
        src = "engine.put(src, 0, 9, dst_stag=s, dst_offset=640, count=n)\n"
        assert rules_of(lint_source(src)) == ["CL006"]

    def test_put_positions_without_window_exchange_flags_cl006(self):
        src = (
            "def forward(self):\n"
            "    self.endpoint.put_positions(peer, block)\n"
        )
        assert rules_of(lint_source(src)) == ["CL006"]

    def test_put_positions_with_window_exchange_is_clean(self):
        src = (
            "def _exchange_windows(self):\n"
            "    pass\n"
            "def forward(self):\n"
            "    self.endpoint.put_positions(peer, block)\n"
        )
        assert lint_source(src) == []

    def test_undersized_literal_ring_capacity_flags_cl007(self):
        src = "ring = RecvBufferRing(engine, 0, 64, depth=4)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["CL007"]
        assert "bare literal 64" in findings[0].message

    def test_budget_derived_capacity_is_clean(self):
        src = (
            "cap = budget.max_atoms_per_message() * 3 + 1\n"
            "ring = RecvBufferRing(engine, 0, cap, depth=4)\n"
        )
        assert lint_source(src) == []

    def test_literal_pool_budget_flags_cl008(self):
        src = "arena = AtomArena.adopt(members, 4096)\n"
        findings = lint_source(src)
        assert rules_of(findings) == ["CL008"]
        assert "bare literal 4096" in findings[0].message

    def test_pool_with_budget_object_is_clean(self):
        src = (
            "budget = self._plan_budget()\n"
            "arena = AtomArena.adopt(\n"
            "    members, budget.max_local_atoms() + budget.max_ghost_atoms(False)\n"
            ")\n"
        )
        assert lint_source(src) == []


class TestSuppressions:
    def test_same_line_disable_hides_the_finding(self):
        src = (
            "ring = RecvBufferRing(engine, 0, cap, depth=3)"
            "  # commlint: disable=CL001\n"
        )
        assert lint_source(src) == []
        assert lint_source.last_suppressed == 1

    def test_file_level_disable_hides_everywhere(self):
        src = (
            "# commlint: disable-file=CL001\n"
            "a = RecvBufferRing(engine, 0, cap, depth=3)\n"
            "b = RecvBufferRing(engine, 0, cap, depth=2)\n"
        )
        assert lint_source(src) == []
        assert lint_source.last_suppressed == 2

    def test_disable_of_other_rule_does_not_hide(self):
        src = (
            "ring = RecvBufferRing(engine, 0, cap, depth=3)"
            "  # commlint: disable=CL002\n"
        )
        assert rules_of(lint_source(src)) == ["CL001"]

    def test_suppressed_count_reported_by_run_commlint(self, tmp_path):
        fixture = tmp_path / "seeded.py"
        fixture.write_text(
            "ring = RecvBufferRing(engine, 0, cap, depth=3)"
            "  # commlint: disable=CL001\n"
        )
        report = run_commlint(paths=[str(fixture)], introspect=False)
        assert report.clean
        assert report.suppressed == 1


class TestCleanTree:
    """The shipping communication stack must produce zero findings."""

    def test_default_paths_cover_the_stack(self):
        paths = default_paths()
        assert len(paths) == len(DEFAULT_MODULES)
        assert all(p.endswith(".py") for p in paths)

    def test_full_run_is_clean(self):
        report = run_commlint()
        assert check_clean(report)[0], report.render()
        assert len(report.files_analyzed) == len(DEFAULT_MODULES)

    def test_introspection_is_clean(self):
        assert run_introspection() == []

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
        findings = run_introspection()
        assert "CL003" in {f.rule for f in findings}

    def test_introspection_catches_an_uncounted_relayout(self, monkeypatch):
        """CL008 fires, anchored at AtomArena, when growing a slab past the
        budget stops being counted."""
        from repro.md.atoms import AtomArena

        original = AtomArena.grow

        def uncounted(self, member, rows):
            original(self, member, rows)
            self.relayouts -= 1

        monkeypatch.setattr(AtomArena, "grow", uncounted)
        findings = [f for f in run_introspection() if f.rule == "CL008"]
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

    @staticmethod
    def _profile(**overrides):
        from repro.analysis.commlint import CommProfile

        base = dict(
            label="cl009", sub_box_edge=3.36, rcomm=2.8, density=0.8442
        )
        base.update(overrides)
        return CommProfile(**base)

    def test_default_unfenced_profile_is_clean(self):
        from repro.analysis.commlint import lint_config

        assert rules_of(lint_config(self._profile())) == []

    def test_fenced_rdma_profile_is_clean(self):
        from repro.analysis.commlint import lint_config

        profile = self._profile(rdma=True, inflight_epochs=1)
        assert "CL009" not in rules_of(lint_config(profile))

    def test_overcommitted_schedule_flags_cl009(self):
        """A schedule leaving many epochs un-drained overflows 4 slots."""
        from repro.analysis.commlint import lint_config

        profile = self._profile(inflight_epochs=30)
        assert "CL009" in rules_of(lint_config(profile))

    def test_nonpositive_epochs_flag_cl009(self):
        from repro.analysis.commlint import lint_config

        profile = self._profile(inflight_epochs=0)
        assert "CL009" in rules_of(lint_config(profile))

    def test_static_literal_depth_below_epochs(self):
        src = "ring = RecvBufferRing(engine, 0, cap, depth=4, inflight_epochs=6)\n"
        assert rules_of(lint_source(src)) == ["CL009"]

    def test_static_depth_covering_epochs_is_clean(self):
        src = "ring = RecvBufferRing(engine, 0, cap, depth=6, inflight_epochs=3)\n"
        assert lint_source(src) == []

    def test_same_line_disable_hides_cl009(self):
        src = (
            "ring = RecvBufferRing(engine, 0, cap, depth=4, "
            "inflight_epochs=6)  # commlint: disable=CL009\n"
        )
        assert lint_source(src) == []
