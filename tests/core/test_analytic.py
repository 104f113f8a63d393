"""Analytic comm model: Table 1 rows and Equations (3)-(8)."""

import pytest

from repro.core import analyze_p2p, analyze_three_stage, timing_model
from repro.core.analytic import TimingModel
from repro.network import MpiStack, UtofuStack


A, R, RHO = 3.0, 1.0, 0.8


class TestTable1Rows:
    def test_three_stage_structure(self):
        ana = analyze_three_stage(A, R, RHO)
        assert ana.total_messages == 6
        assert [c.count for c in ana.classes] == [2, 2, 2]
        assert [c.hops for c in ana.classes] == [1, 1, 1]

    def test_three_stage_total_atoms(self):
        ana = analyze_three_stage(A, R, RHO)
        expect = (8 * R**3 + 12 * A * R**2 + 6 * A**2 * R) * RHO
        assert ana.total_atoms == pytest.approx(expect)

    def test_p2p_structure(self):
        ana = analyze_p2p(A, R, RHO)
        assert ana.total_messages == 13
        assert [c.count for c in ana.classes] == [3, 6, 4]
        assert [c.hops for c in ana.classes] == [1, 2, 3]

    def test_p2p_total_atoms(self):
        ana = analyze_p2p(A, R, RHO)
        expect = (4 * R**3 + 6 * A * R**2 + 3 * A**2 * R) * RHO
        assert ana.total_atoms == pytest.approx(expect)

    def test_p2p_moves_half_the_volume(self):
        """The Newton's-law saving of Table 1, in 13 messages, across the
        radius-1 regime (cutoff <= sub-box side; longer cutoffs are the
        Fig. 15 scenarios)."""
        geometries = [(a, r) for a in (0.5, 2.0, 8.0) for r in (0.3, 1.0, 3.0) if r <= a]
        for a, r in [(A, R), *geometries]:
            three = analyze_three_stage(a, r, RHO)
            p2p = analyze_p2p(a, r, RHO)
            assert p2p.total_atoms == pytest.approx(three.total_atoms / 2)
            assert p2p.total_messages == 13

    def test_full_shell_p2p(self):
        ana = analyze_p2p(A, R, RHO, newton=False)
        assert ana.total_messages == 26

    def test_bytes_scale_with_atoms(self):
        ana = analyze_p2p(A, R, RHO, bytes_per_atom=24)
        face = ana.classes[0]
        assert face.nbytes == pytest.approx(face.atoms * 24, abs=1.0)

    def test_message_sizes_ordered(self):
        """Faces carry the most, corners the least (Fig. 10 premise)."""
        ana = analyze_p2p(A, R, RHO)
        sizes = [c.nbytes for c in ana.classes]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_65k_system_message_size(self):
        """Paper section 3.3: 65K atoms on 768 nodes -> 22 atoms/rank,
        forward messages at most 528 B."""
        atoms_per_rank = 65536 / (768 * 4)
        a = (atoms_per_rank / 0.8442) ** (1 / 3)
        ana = analyze_p2p(a, 2.8, 0.8442, bytes_per_atom=24)
        assert max(c.nbytes for c in ana.classes) <= 560  # ~528 B


class TestEquations:
    def test_equation_identities(self):
        tm = TimingModel(t_inj=0.1, t_stage=(1.0, 2.0, 3.0), t_p2p=(1.0, 0.5, 0.3))
        assert tm.three_stage_naive == pytest.approx(2 * (1 + 2 + 3))
        assert tm.p2p_naive == pytest.approx(12 * 0.1 + 1.0)
        assert tm.three_stage_opt == pytest.approx(3 * 0.1 + 6.0)
        assert tm.p2p_opt == pytest.approx(12 * 0.1 + 0.3)
        assert tm.three_stage_parallel == pytest.approx(6.0)
        assert tm.p2p_parallel == pytest.approx(2 * 0.1 + 0.3)

    def test_parallel_always_fastest_per_pattern(self):
        tm = timing_model(A, R, RHO)
        assert tm.three_stage_parallel <= tm.three_stage_opt <= tm.three_stage_naive
        assert tm.p2p_parallel <= tm.p2p_opt <= tm.p2p_naive

    def test_paper_conclusion_utofu(self):
        """Section 3.1: with uTofu's tiny T_inj and T3 = T0, parallel p2p
        beats parallel 3-stage."""
        tm = timing_model(A, R, RHO, stack=UtofuStack())
        assert tm.p2p_parallel < tm.three_stage_parallel
        # T3 (p2p face) equals T0 (3-stage face): same size, same hop.
        assert tm.t_p2p[0] == pytest.approx(tm.t_stage[0])

    def test_naive_p2p_loses_under_mpi(self):
        """The Fig. 6 MPI result: 12 extra T_inj sink the naive p2p."""
        tm = timing_model(A, R, RHO, stack=MpiStack())
        assert tm.p2p_naive > tm.three_stage_opt

    def test_as_dict_keys(self):
        d = timing_model(A, R, RHO).as_dict()
        assert set(d) == {
            "3stage-naive",
            "p2p-naive",
            "3stage-opt",
            "p2p-opt",
            "3stage-parallel",
            "p2p-parallel",
        }
        assert all(v > 0 for v in d.values())
