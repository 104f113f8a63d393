"""Calibration-sensitivity tests: the story must not be a fit artifact."""

from dataclasses import replace

from repro.figures.sensitivity_fig import ESTIMATED_PARAMS, evaluate_claims, render
from repro.machine import FUGAKU


class TestBaseline:
    def test_all_claims_hold_at_calibration(self):
        assert evaluate_claims(FUGAKU) == ()

    def test_failed_lists_names(self):
        failed = evaluate_claims(replace(FUGAKU, mpi_t_inj=0.0))
        assert failed == ("fig6.mpi-p2p-slower.lj-65k",)


class TestRobustness:
    def test_every_estimated_constant_covered(self, figure_results):
        assert {r.name for r in figure_results["sensitivity"]} == set(ESTIMATED_PARAMS)

    def test_claims_robust_to_30_percent(self, figure_results):
        """+/-30% on any single estimated constant must not flip any
        qualitative claim of the paper."""
        for row in figure_results["sensitivity"]:
            for factor in (0.7, 1.3):
                assert row.holds_at(factor), f"{row.name} x{factor}: failed {row.results[factor]}"

    def test_robust_range_brackets_unity(self, figure_results):
        for row in figure_results["sensitivity"]:
            lo, hi = row.robust_range
            assert lo <= 1.0 <= hi

    def test_render(self, figure_results):
        text = render(figure_results["sensitivity"])
        assert "Calibration sensitivity" in text
        assert "mpi_t_inj" in text
