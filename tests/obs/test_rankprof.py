"""Per-rank profiler: exactness, imbalance stats, artifact, telemetry feed."""

import copy
import math

import pytest

from repro.faults.injector import FAULTS
from repro.md.presets import PRESETS
from repro.obs.bench import SMOKE, build_simulation
from repro.obs.critpath import traced_round
from repro.obs.rankprof import (
    PROFILE_PHASES,
    SCHEMA,
    RankProfileResult,
    check_document,
    check_names_straggler,
    check_partitions,
    check_rank0_row,
    check_telescopes,
    feed_telemetry,
    profile_exchange,
    rank_percentile,
    render_rank_profile,
    to_dict,
    validate_rankprof_doc,
)
from repro.obs.telemetry import TELEMETRY, StepTelemetry
from repro.selfcheck import JITTER_PLAN


@pytest.fixture(scope="module")
def sim():
    s = PRESETS["lj"].simulation(
        (4, 4, 4), (2, 2, 2), pattern="parallel-p2p", rdma=True,
        model_machine_time=True, thermo_every=0,
    )
    s.run(2)
    return s


@pytest.fixture(scope="module")
def prof(sim):
    return profile_exchange(sim.exchange, phases=("forward", "reverse"))


class TestRankPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(rank_percentile([], 0.5))

    def test_rank_convention_matches_sketch(self):
        # 1-based rank max(1, ceil(q*n)) of the sorted list.
        vals = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert rank_percentile(vals, 0.0) == 1.0
        assert rank_percentile(vals, 0.5) == 3.0
        assert rank_percentile(vals, 0.99) == 5.0
        assert rank_percentile(vals, 1.0) == 5.0

    def test_out_of_range_raises_even_when_empty(self):
        with pytest.raises(ValueError):
            rank_percentile([], 1.5)
        with pytest.raises(ValueError):
            rank_percentile([1.0], -0.1)


class TestProfile:
    def test_covers_every_rank_and_phase(self, sim, prof):
        ranks = sim.exchange.world.size
        assert prof.ranks == ranks
        assert len(prof.profiles) == ranks * 2
        for phase in ("forward", "reverse"):
            assert [p.rank for p in prof.by_phase(phase)] == list(range(ranks))

    def test_attribution_partitions_each_rank_exactly(self, prof):
        ok, detail = check_partitions(prof)
        assert ok, detail

    def test_completion_equals_untraced_model_bit_exactly(self, sim, prof):
        # Traced profiling bypasses the plan-epoch cache but replays the
        # exact same schedule: the scalar must match to the last bit.
        ok, detail = check_telescopes(prof, sim.exchange)
        assert ok, detail

    def test_rank0_row_is_the_whole_run_attribution(self, sim, prof):
        ok, detail = check_rank0_row(prof, traced_round(sim.exchange)[1])
        assert ok, detail

    def test_unknown_phase_rejected(self, sim):
        with pytest.raises(ValueError, match="unknown phase"):
            profile_exchange(sim.exchange, phases=("sideways",))
        assert "sideways" not in PROFILE_PHASES

    def test_top_category_is_an_attribution_key(self, prof):
        for p in prof.profiles:
            assert p.top_category in p.attribution
            assert p.attribution[p.top_category] == max(p.attribution.values())

    def test_evidence_is_span_anchored(self, prof):
        for p in prof.profiles:
            ev = p.evidence
            assert {"name", "cat", "track", "start", "end", "dur"} <= set(ev)
            assert ev["end"] - ev["start"] == pytest.approx(ev["dur"], abs=0)


class TestImbalance:
    def test_ratios_are_well_formed(self, prof):
        imb = prof.imbalance("forward")
        assert imb.max >= imb.mean >= imb.min > 0
        assert imb.max_mean >= 1.0
        assert imb.p99_p50 >= 1.0
        assert all(0 <= r < prof.ranks for r in imb.stragglers)

    def test_stragglers_exceed_the_margin(self, prof):
        imb = prof.imbalance("forward")
        times = prof.completions("forward")
        cut = rank_percentile(times, 0.5) * (1.0 + prof.straggler_margin)
        for rank, t in enumerate(times):
            assert (rank in imb.stragglers) == (t > cut)

    def test_empty_phase_is_all_nan(self):
        empty = RankProfileResult(pattern="p2p", ranks=0, phases=("border",))
        imb = empty.imbalance("border")
        assert math.isnan(imb.mean) and math.isnan(imb.max_mean)
        assert imb.stragglers == ()

    def test_categories_sum_over_ranks(self, prof):
        cats = prof.categories("forward")
        total = sum(p.completion for p in prof.by_phase("forward"))
        assert sum(cats.values()) == pytest.approx(total, rel=1e-9)


class TestNamesStraggler:
    """A 2 us inject stall on rank 2 alone (the selfcheck's plan)."""

    @pytest.fixture(scope="class")
    def jittered(self, sim):
        with FAULTS.inject(JITTER_PLAN):
            return profile_exchange(sim.exchange, phases=("forward", "reverse"))

    def test_names_the_stalled_rank(self, prof, jittered):
        ok, detail = check_names_straggler(prof, jittered, 2)
        assert ok, detail

    def test_fails_for_another_rank(self, prof, jittered):
        ok, detail = check_names_straggler(prof, jittered, 3)
        assert not ok, detail

    def test_fails_without_a_straggler(self, prof):
        ok, detail = check_names_straggler(prof, prof, 2)
        assert not ok, detail


class TestArtifact:
    def test_round_trip_validates(self, prof):
        doc = to_dict(prof, label="unit")
        assert doc["schema"] == SCHEMA
        ok, detail = check_document(doc, prof)
        assert ok, detail

    def test_rejects_wrong_schema(self, prof):
        bad = copy.deepcopy(to_dict(prof))
        bad["schema"] = "repro-rankprof/0"
        with pytest.raises(ValueError, match=r"\$\.schema"):
            validate_rankprof_doc(bad)

    def test_rejects_duplicate_rank(self, prof):
        bad = copy.deepcopy(to_dict(prof))
        rows = bad["phases"]["forward"]["rows"]
        rows[1]["rank"] = rows[0]["rank"]
        with pytest.raises(ValueError, match="duplicate rank"):
            validate_rankprof_doc(bad)

    def test_rejects_broken_partition(self, prof):
        bad = copy.deepcopy(to_dict(prof))
        row = bad["phases"]["forward"]["rows"][0]
        row["attribution"]["wire"] = row["attribution"].get("wire", 0.0) + 1.0
        with pytest.raises(ValueError, match="not completion"):
            validate_rankprof_doc(bad)

    @pytest.mark.parametrize("cfg", SMOKE, ids=lambda cfg: cfg.key)
    def test_each_pattern_family_serializes_a_valid_profile(self, cfg):
        """Every pattern family the faults-off guard prices profiles into
        a document that validates, one row per rank and phase, each row
        the untraced modeled time of its round."""
        sim = build_simulation(cfg)
        sim.run(2)
        result = profile_exchange(sim.exchange, phases=("forward", "reverse"))
        doc = to_dict(result, label=cfg.key)
        assert (doc["pattern"], doc["ranks"]) == (cfg.pattern, sim.world.size)
        assert validate_rankprof_doc(doc) == 2 * sim.world.size
        for check in (check_partitions(result), check_document(doc, result),
                      check_telescopes(result, sim.exchange)):
            assert check[0], check[1]

    def test_render_lists_every_rank(self, prof):
        text = render_rank_profile(prof)
        assert "per-rank exchange profile" in text
        assert "[forward]" in text and "[reverse]" in text
        for rank in range(prof.ranks):
            assert f"\n{rank:>5} |" in text


class TestFeedTelemetry:
    def test_samples_land_in_per_rank_sketches(self, prof):
        t = StepTelemetry()
        n = feed_telemetry(prof, telemetry=t)
        expected = len(prof.profiles) + sum(
            len(p.attribution) for p in prof.profiles
        )
        assert n == expected
        row = prof.by_phase("forward")[0]
        sk = t.sketch("rank_exchange_seconds", phase="forward", rank=0)
        assert sk is not None and sk.count == 1
        assert sk.total == row.completion
        cat = row.top_category
        assert t.sketch(
            "rank_critpath_seconds", phase="forward", rank=0, category=cat
        ).total == row.attribution[cat]

    def test_no_attached_telemetry_is_a_noop(self, prof):
        with TELEMETRY.disabled():
            assert feed_telemetry(prof) == 0

    def test_feeds_the_attached_default(self, prof):
        with TELEMETRY.scope():
            t = StepTelemetry()
            TELEMETRY.attach(t)
            assert feed_telemetry(prof) > 0
            assert t.sketch("rank_exchange_seconds", phase="forward", rank=0)
