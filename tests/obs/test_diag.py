"""`repro diag`: kind detection, shape classification, ranking, CLI."""

import copy
import json
import math

import pytest

from repro.obs.diag import (
    SCHEMA,
    SHAPES,
    artifact_kind,
    check_names_faulted_rank,
    diagnose,
    main,
    render_diag,
    validate_diag_doc,
)

NRANKS = 8


def make_rankprof(completion=1e-4, bump=None):
    """A synthetic but schema-shaped repro-rankprof/1 doc over 8 ranks.

    ``bump`` maps rank -> (category, extra_seconds): those ranks get the
    extra time added to both the category and the completion, keeping
    the partition invariant intact.
    """
    rows = []
    for rank in range(NRANKS):
        attr = {"wire": 0.6 * completion, "inject": 0.3 * completion,
                "idle": 0.1 * completion}
        comp = completion
        if bump and rank in bump:
            cat, extra = bump[rank]
            attr[cat] = attr.get(cat, 0.0) + extra
            comp += extra
        rows.append({
            "rank": rank, "completion": comp, "attribution": attr,
            "messages": 13, "wire_segments": 13, "natoms": 100,
            "top": max(attr, key=attr.get),
            "evidence": {"name": f"msg-{rank}", "cat": "wire",
                         "track": f"rank{rank}/thr0", "start": 0.0,
                         "end": comp, "dur": comp},
        })
    times = [r["completion"] for r in rows]
    mean = sum(times) / len(times)
    return {
        "schema": "repro-rankprof/1", "label": "synthetic", "pattern": "p2p",
        "ranks": NRANKS, "straggler_margin": 0.10,
        "phases": {"forward": {
            "rows": rows,
            "imbalance": {"mean": mean, "min": min(times), "max": max(times),
                          "max_mean": max(times) / mean, "p99_p50": 1.0,
                          "stragglers": sorted(bump) if bump else []},
        }},
    }


class TestArtifactKind:
    def test_schemas(self):
        assert artifact_kind({"schema": "repro-bench/1"}) == "bench"
        assert artifact_kind({"schema": "repro-scaling/1"}) == "scaling"
        assert artifact_kind(make_rankprof()) == "rankprof"
        assert artifact_kind({"traceEvents": []}) == "trace"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unrecognized artifact"):
            artifact_kind({"schema": "repro-mystery/1"})
        with pytest.raises(ValueError):
            artifact_kind([1, 2])

    def test_cross_kind_diag_rejected(self):
        with pytest.raises(ValueError, match="cannot diag across kinds"):
            diagnose(make_rankprof(), {"traceEvents": []})


class TestRankprofDiag:
    def test_identical_docs_have_no_findings(self):
        doc = make_rankprof()
        report = diagnose(doc, copy.deepcopy(doc))
        assert report.findings == []
        assert "no significant deltas" in report.verdict
        assert report.delta == 0.0

    def test_single_rank_fault_bump_is_imbalance_shaped(self):
        old = make_rankprof()
        new = make_rankprof(bump={2: ("fault", 5e-5)})
        report = diagnose(old, new, "clean", "jittered")
        ok, detail = check_names_faulted_rank(report, 2)
        assert ok, detail
        top = report.findings[0]
        assert top.delta == pytest.approx(5e-5, rel=1e-9)
        assert top.evidence["rank"] == 2

    def test_uniform_wire_growth_is_wire_shaped(self):
        old = make_rankprof()
        new = make_rankprof(
            bump={r: ("wire", 2e-5) for r in range(NRANKS)}
        )
        top = diagnose(old, new).findings[0]
        assert top.shape == "wire"
        assert top.category == "wire"
        assert len(top.cohort) == NRANKS  # everyone moved together

    def test_uniform_barrier_growth_is_overhead_shaped(self):
        old = make_rankprof()
        new = make_rankprof(
            bump={r: ("barrier", 2e-5) for r in range(NRANKS)}
        )
        top = diagnose(old, new).findings[0]
        assert top.shape == "overhead"
        assert top.category == "barrier"

    def test_improvement_keeps_the_sign(self):
        old = make_rankprof(bump={3: ("inject", 4e-5)})
        new = make_rankprof()
        report = diagnose(old, new)
        top = report.findings[0]
        assert top.delta < 0 and report.delta < 0
        assert top.cohort == (3,)
        assert "improved" in report.verdict


class TestReportDoc:
    def test_round_trip_validates(self):
        report = diagnose(make_rankprof(), make_rankprof(bump={2: ("fault", 5e-5)}))
        doc = report.to_dict()
        assert doc["schema"] == SCHEMA
        assert validate_diag_doc(doc) == len(report.findings)
        assert doc["total"]["delta"] == pytest.approx(report.delta)

    def test_shares_sum_to_one(self):
        report = diagnose(make_rankprof(), make_rankprof(bump={1: ("tni", 3e-5)}))
        assert sum(f.share for f in report.findings) == pytest.approx(1.0)

    def test_rejects_bad_shape(self):
        doc = diagnose(make_rankprof(), make_rankprof(bump={2: ("fault", 5e-5)})).to_dict()
        doc["findings"][0]["shape"] = "vibes"
        assert "vibes" not in SHAPES
        with pytest.raises(ValueError, match="shape"):
            validate_diag_doc(doc)

    def test_rejects_unranked_findings(self):
        doc = diagnose(
            make_rankprof(),
            make_rankprof(bump={2: ("fault", 5e-5), 5: ("wire", 1e-5)}),
        ).to_dict()
        assert len(doc["findings"]) >= 1
        doc["findings"].append(dict(doc["findings"][0], delta=1.0))
        with pytest.raises(ValueError, match="ranked"):
            validate_diag_doc(doc)

    def test_rejects_broken_total(self):
        doc = diagnose(make_rankprof(), make_rankprof()).to_dict()
        doc["total"]["delta"] = 1.0
        with pytest.raises(ValueError, match="delta != new - old"):
            validate_diag_doc(doc)

    def test_rejects_nan_total(self):
        doc = diagnose(make_rankprof(), make_rankprof()).to_dict()
        doc["total"]["new"] = math.nan
        with pytest.raises(ValueError, match=r"\$\.total\.new"):
            validate_diag_doc(doc)


class TestRender:
    def test_headline_and_evidence(self):
        report = diagnose(
            make_rankprof(), make_rankprof(bump={2: ("fault", 5e-5)}),
            "a.json", "b.json",
        )
        text = render_diag(report)
        assert "diagnosis [rankprof]: a.json -> b.json" in text
        assert "verdict:" in text
        assert "#1 [imbalance]" in text
        assert "(rank 2)" in text

    def test_top_truncation_note(self):
        bumps = {r: ("wire", (r + 1) * 1e-5) for r in range(3)}
        report = diagnose(make_rankprof(), make_rankprof(bump=bumps))
        # One finding per phase here, so force the note with top=0.
        text = render_diag(report, top=0)
        assert "more finding(s)" in text


class TestCLI:
    def test_diag_cli_writes_validated_json(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        out = tmp_path / "diag.json"
        old.write_text(json.dumps(make_rankprof()))
        new.write_text(json.dumps(make_rankprof(bump={2: ("fault", 5e-5)})))
        assert main([str(old), str(new), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert validate_diag_doc(doc) >= 1
        assert doc["findings"][0]["cohort"] == [2]
        assert "diagnosis [rankprof]" in capsys.readouterr().out

    def test_repro_cli_dispatches_diag(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        old = tmp_path / "old.json"
        old.write_text(json.dumps(make_rankprof()))
        assert repro_main(["diag", str(old), str(old)]) == 0
        assert "no significant deltas" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        there = tmp_path / "there.json"
        there.write_text(json.dumps(make_rankprof()))
        assert main([str(tmp_path / "gone.json"), str(there)]) == 2
        assert "diag:" in capsys.readouterr().err

    def test_mismatched_kinds_print_check_and_exit_1(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps(make_rankprof()))
        b.write_text(json.dumps({"traceEvents": []}))
        # Valid inputs failing the kind-match check: the failing check is
        # named and the exit code is 1 (2 stays reserved for IO/usage).
        assert main([str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "FAILED kind-match" in err
        assert "cannot diag across kinds" in err


# -- the other three differs, on synthetic pairs ---------------------------
STAGE_SECONDS = {"Pair": 4e-3, "Neigh": 1e-3, "Comm": 2e-3, "Modify": 5e-4,
                 "Other": 1e-4}


def _stages(comm_extra=0.0):
    return dict(STAGE_SECONDS, Comm=STAGE_SECONDS["Comm"] + comm_extra)


def make_scaling(bump=None):
    """A two-rung repro-scaling/1 doc; ``bump`` (see ``make_rankprof``)
    slows the 8-rank rung's forward exchange and its Comm stage alike."""
    extra = sum(e for _, e in bump.values()) if bump else 0.0
    points = []
    for ranks, rung_bump, rung_extra in ((4, None, 0.0), (NRANKS, bump, extra)):
        stages = _stages(rung_extra)
        points.append({
            "ranks": ranks,
            "model": {"stages": stages, "total": 10 * sum(stages.values()),
                      "per_step": sum(stages.values())},
            "efficiency": 1.0 if ranks == 4 else 0.9,
            "rankprof": make_rankprof(bump=rung_bump),
        })
    return {"schema": "repro-scaling/1", "label": "synthetic", "points": points}


def make_bench(bump=None):
    """A one-run repro-bench/1 doc carrying the compact rankprof record."""
    extra = sum(e for _, e in bump.values()) if bump else 0.0
    stages = _stages(extra)
    rows = make_rankprof(bump=bump)["phases"]["forward"]["rows"]
    critpath = dict(rows[0]["attribution"])
    if bump:
        cat = next(iter(bump.values()))[0]
        critpath[cat] = critpath.get(cat, 0.0) + extra / len(bump)
    return {
        "schema": "repro-bench/1", "label": "synthetic",
        "runs": [{
            "key": "lj/p2p/2x2x2",
            "model": {"stages": stages, "total": sum(stages.values())},
            "critpath": {"attribution": critpath},
            "rankprof": {
                "phase": "forward",
                "ranks": [{k: r[k] for k in ("rank", "completion", "attribution",
                                             "natoms")} for r in rows],
            },
        }],
    }


def make_trace(hops=1, nbytes=4096, slow_rank=None):
    """A Chrome trace of one simulated 4-rank round; ``slow_rank`` injects
    ten times the messages of everyone else."""
    from repro.network.simulator import Message, NetworkSimulator
    from repro.obs import observe
    from repro.obs.export import chrome_trace_events

    messages = [
        Message(nbytes=nbytes, hops=hops, rank=rank, thread=0, tni=rank)
        for rank in range(4)
        for _ in range(30 if rank == slow_rank else 3)
    ]
    with observe(metrics=False) as (tracer, _):
        NetworkSimulator().run_round(messages)
    return chrome_trace_events(tracer)


def _assert_report_shape(report, kind):
    """What the rankprof class asserts of every report: a valid document,
    ranked findings whose shares sum to one."""
    doc = report.to_dict()
    assert doc["kind"] == kind
    assert validate_diag_doc(doc) == len(report.findings) >= 1
    assert sum(f.share for f in report.findings) == pytest.approx(1.0)


@pytest.mark.parametrize("make", [make_scaling, make_bench], ids=["scaling", "bench"])
class TestScalingAndBenchDiag:
    def test_identical_docs_have_no_findings(self, make):
        report = diagnose(make(), make())
        assert report.findings == [] and report.delta == 0.0
        assert "no significant deltas" in report.verdict

    def test_single_rank_fault_bump_is_imbalance_shaped(self, make):
        report = diagnose(make(), make(bump={2: ("fault", 5e-5)}))
        _assert_report_shape(report, make.__name__[5:])
        top = report.findings[0]
        assert top.cohort == (2,)
        assert top.category == "fault"
        assert top.shape == "imbalance"
        assert top.stage == "Comm"
        assert top.delta == pytest.approx(5e-5, rel=1e-6)

    def test_uniform_wire_growth_is_wire_shaped(self, make):
        bump = {r: ("wire", 2e-5) for r in range(NRANKS)}
        top = diagnose(make(), make(bump=bump)).findings[0]
        assert top.shape == "wire" and top.category == "wire"
        assert len(top.cohort) == NRANKS

    def test_improvement_keeps_the_sign(self, make):
        report = diagnose(make(bump={3: ("inject", 4e-5)}), make())
        top = report.findings[0]
        assert top.delta < 0 and report.delta < 0
        assert top.cohort == (3,)
        assert "improved" in report.verdict


class TestScalingDiagScope:
    def test_only_the_moved_rung_is_reported(self):
        report = diagnose(make_scaling(), make_scaling(bump={2: ("fault", 5e-5)}))
        assert [f.scope for f in report.findings] == [f"ranks={NRANKS}"]
        assert "efficiency" in report.findings[0].detail
        assert report.findings[0].evidence["rank"] == 2


class TestTraceDiag:
    def test_identical_traces_have_no_findings(self):
        report = diagnose(make_trace(), make_trace())
        assert report.kind == "trace" and report.findings == []

    def test_longer_routes_are_wire_shaped(self):
        report = diagnose(make_trace(hops=1), make_trace(hops=12))
        _assert_report_shape(report, "trace")
        top = report.findings[0]
        assert top.scope == "trace" and top.stage == "Comm"
        assert top.delta > 0 and top.category == "wire" and top.shape == "wire"
        assert top.evidence["name"]

    def test_larger_messages_are_overhead_shaped(self):
        top = diagnose(make_trace(nbytes=1024), make_trace(nbytes=65536)).findings[0]
        assert top.category == "tni" and top.shape == "overhead"

    def test_one_busy_rank_is_imbalance_shaped(self):
        top = diagnose(make_trace(), make_trace(slow_rank=1)).findings[0]
        assert top.cohort == (1,) and top.shape == "imbalance"

    def test_improvement_keeps_the_sign(self):
        report = diagnose(make_trace(hops=12), make_trace(hops=1))
        assert report.findings[0].delta < 0 and "improved" in report.verdict
