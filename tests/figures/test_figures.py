"""The paper's claims: one test per row of ``repro.figures.claims``.

Every band lives in the claims table only.  The per-topic tests below
name the rows they cover by id prefix and state no band of their own.
"""

from pathlib import Path

import pytest

from repro.figures import claims, eqs, fig12, fig13, table1, topomap
from repro.figures.__main__ import EXPERIMENTS

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BEGIN, END = "<!-- scoreboard:begin", "<!-- scoreboard:end -->"


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.id)
def test_claim(claim, figure_results):
    value, holds = claim.check(figure_results[claim.experiment])
    assert holds, f"{claim.id}: {value!r} (band {claim.band})"


def test_rows_are_unique_and_name_an_experiment():
    ids = [c.id for c in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    assert {c.experiment for c in claims.CLAIMS} == set(EXPERIMENTS)


def test_split_is_every_published_fig12_fig13_number():
    def leaves(d):
        for v in d.values():
            yield from leaves(v) if isinstance(v, dict) else [v]

    split = [c for c in claims.CLAIMS if c.split is not None]
    assert sorted(c.paper for c in split) == sorted(
        [*leaves(fig12.PAPER), *leaves(fig13.PAPER)]
    )
    assert [c.split for c in split].count("fit") == 22
    assert [c.split for c in split].count("held-out") == 9
    assert len(claims.ROBUST) == 5


def test_scoreboard_matches_experiments_md(figure_results):
    text = EXPERIMENTS_MD.read_text()
    begin = text.index("\n", text.index(BEGIN)) + 1
    committed = text[begin : text.index(END)].rstrip("\n")
    assert committed == claims.scoreboard(EXPERIMENTS, figure_results), (
        "EXPERIMENTS.md's scoreboard is stale: paste the `=== scoreboard ===` "
        "block of `python -m repro.figures`"
    )


def _rows(*prefixes):
    """A test that the claim rows under ``prefixes`` hold."""

    def test(self, figure_results):
        rows = [c for c in claims.CLAIMS if c.id.startswith(prefixes)]
        assert rows
        failed = [c.id for c in rows if not c.check(figure_results[c.experiment])[1]]
        assert not failed

    return test


class TestTable1:
    test_compute_and_claims = _rows("table1.")

    def test_render_mentions_paper(self, figure_results):
        text = table1.render(figure_results["table1"])
        assert "Table 1" in text
        assert f"paper: {table1.PAPER['volume_ratio']}" in text


class TestEqs:
    test_claims = _rows("eqs.")

    def test_render(self, figure_results):
        text = EXPERIMENTS["eqs"].render(figure_results["eqs"])
        assert "Eq3" in text and "Eq8" in text
        assert f"(paper: {eqs.PAPER['utofu_p2p_parallel_wins']})" in text


class TestFig6:
    test_orderings = _rows("fig6.")

    def test_render(self, figure_results):
        assert "Fig. 6" in EXPERIMENTS["fig6"].render(figure_results["fig6"])


class TestFig8:
    test_claims = _rows("fig8.single-6tni-slower", "fig8.parallel-gain.")
    test_rates_decrease_with_size = _rows("fig8.rate-falls-with-size")


class TestFig12:
    test_speedup_bands = _rows("fig12.speedup.", "fig12.gain-shrinks-with-size")
    test_reductions = _rows("fig12.comm-reduction.", "fig12.pair-reduction.")

    def test_render(self, figure_results):
        text = fig12.render(figure_results["fig12"])
        assert "Fig. 12" in text
        assert f"paper {fig12.PAPER['total_speedup_65k']['lj']}x" in text


class TestFig13:
    test_headline = _rows("fig13.speedup.", "fig13.perf.")
    test_efficiency_monotone = _rows("fig13.efficiency-falls")

    def test_render_contains_table3(self, figure_results):
        text = fig13.render(figure_results["fig13"])
        assert "Table 3" in text
        assert "Origin-LJ" in text and "Opt-EAM" in text


class TestFig14:
    test_linearity = _rows("fig14.linearity.")


class TestFig15:
    test_winners = _rows("fig15.winners")
    test_times_positive_and_ordered = _rows("fig15.p2p-time-grows")


class TestMicro33:
    test_constants = _rows("micro33.")


class TestAblations:
    test_compute = _rows("ablations.prereg-", "ablations.combine-", "ablations.bins-")
    test_perf_ablation_each_removal_costs = _rows(
        "ablations.each-removal-costs", "ablations.openmp-removal-cost"
    )


class TestMainModule:
    def test_run_selected(self):
        from repro.figures.__main__ import run

        text = run(["table1", "eqs"])
        assert "table1" in text and "eqs" in text
        assert "scoreboard" not in text

    def test_unknown_experiment(self):
        from repro.figures.__main__ import main

        assert main(["bogus"]) == 2


class TestTopoMap:
    test_hop_reduction = _rows("topomap.")

    def test_render(self, figure_results):
        assert "topo map" in topomap.render(figure_results["topomap"])
