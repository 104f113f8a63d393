"""Tests of the perf ledger harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger -q`` (outside
the tier-1 ``testpaths``).  The MD tests swap a small system in under a
real workload name so they finish in seconds.
"""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

import ledger_md
import run as ledger_run
from ledger_compare import EXACT_UNITS, classify
from ledger_core import SpanRecorder, load_contract, summary
from ledger_fleet import fleet_subset
from ledger_md import MDSpec, instrument, make_simulation, run_md

TINY = MDSpec("lj", (4, 4, 4), (2, 2, 2), "parallel-p2p", True, 40)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(ledger_md.MD_WORKLOADS, "lj-strong-27r", TINY)
    return "lj-strong-27r"


# -- span recorder -----------------------------------------------------------
def subtree_self_sum(rec: SpanRecorder, root: int) -> int:
    self_ns = rec.self_times()
    inside = {root}
    total = self_ns[root]
    for idx, parent in enumerate(rec.parents):  # parents precede children
        if parent in inside:
            inside.add(idx)
            total += self_ns[idx]
    return total


def test_self_times_telescope_exactly_to_the_root_span():
    sim = make_simulation(TINY, seed=3)
    sim.setup()
    rec = SpanRecorder()
    instrument(sim, rec)
    roots = []
    for step in range(25):  # crosses the step-20 reneighbouring
        rec.step_id = step
        with rec.span("step") as root:
            sim.step()
        roots.append(root)
    sim.sample_thermo()
    assert {"core.forward", "core.borders", "md.neigh.build", "md.pair.kernel",
            "md.integrate", "obs.telemetry.flush", "md.thermo.sample"} <= set(rec.names)
    for root in roots:
        assert rec.parents[root] == -1
        assert subtree_self_sum(rec, root) == rec.ends[root] - rec.starts[root]
    children = [i for i, p in enumerate(rec.parents) if p in set(roots)]
    assert all(rec.steps[i] == rec.steps[rec.parents[i]] for i in children)
    assert sum(rec.self_times()) == sum(
        d for d, p in zip(rec.durations(), rec.parents) if p == -1
    )


def test_wrapping_shadows_the_instance_only():
    a, b = make_simulation(TINY, seed=3), make_simulation(TINY, seed=3)
    instrument(a, SpanRecorder())
    assert "forward" in vars(a.exchange) and "forward" not in vars(b.exchange)
    assert "forward" not in vars(type(a.exchange))


def test_wrapped_run_is_bit_identical_to_the_unwrapped_one():
    plain, wrapped = make_simulation(TINY, seed=5), make_simulation(TINY, seed=5)
    plain.setup()
    wrapped.setup()
    instrument(wrapped, SpanRecorder())
    plain.run(20)
    wrapped.run(20)
    assert np.array_equal(plain.gather_forces(), wrapped.gather_forces())
    assert plain.exchange.plan_stats() == wrapped.exchange.plan_stats()
    assert plain.exchange.plan_stats()["slowpath_phases"] == 0


# -- determinism ----------------------------------------------------------------
def exact_class(metrics: dict) -> dict:
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    return {k: v["value"] for k, v in metrics.items() if units[k] in EXACT_UNITS}


def test_same_seed_gives_identical_exact_class_metrics(tiny):
    first = run_md(tiny, seed=11, seconds=0, trace=True)
    again = run_md(tiny, seed=11, seconds=0, trace=True)
    other = run_md(tiny, seed=12, seconds=0, trace=True)
    assert first.failed == again.failed == other.failed == 0
    assert exact_class(first.metrics) == exact_class(again.metrics)
    assert len(exact_class(first.metrics)) >= 10
    assert exact_class(first.metrics) != exact_class(other.metrics)


def test_different_seed_gives_different_inputs():
    a = make_simulation(TINY, seed=1).gather_velocities()
    b = make_simulation(TINY, seed=1).gather_velocities()
    c = make_simulation(TINY, seed=2).gather_velocities()
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_fleet_subset_is_the_same_scenarios_for_every_seed():
    fleet = [{"id": f"s{i}", "role": "model" if i % 3 else "bench"} for i in range(60)]
    a, b = fleet_subset(fleet, 10, seed=1), fleet_subset(fleet, 10, seed=2)
    assert sorted(s["id"] for s in a) == sorted(s["id"] for s in b)
    assert [s["id"] for s in a] != [s["id"] for s in b]
    assert len(a) == 21 and len(fleet_subset(fleet, 30, seed=1)) == 60  # ceil(20/3) + ceil(40/3)


# -- contract ----------------------------------------------------------------------
def test_benchmark_json_names_and_caps():
    c = load_contract()
    assert set(c) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert c["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(c["workloads"]) <= 8
    assert 1 <= len(c["end_to_end"]) <= 16
    assert 1 <= len(c["per_layer"]) <= 128
    names = [x["name"] for x in c["workloads"] + c["end_to_end"] + c["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in c["workloads"])
    setup = next(m for m in c["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in c["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in c["per_layer"])
    assert all(m["better"] in ("lower", "higher") for m in c["end_to_end"] + c["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
def test_single_run_prints_every_declared_metric(tiny, trace, capsys):
    code = ledger_run.main(
        ["--workload", tiny, "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = load_contract()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert all(
        result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared
    )
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_forced_nan_energy_fails_ops_and_the_command(tiny, monkeypatch, capsys):
    real = ledger_md.make_simulation

    def sabotaged(spec, seed, grid=None):
        sim = real(spec, seed, grid)
        compute = sim.potential.compute

        def nan_energy(*args, **kwargs):
            result = compute(*args, **kwargs)
            result.energy = float("nan")
            return result

        sim.potential.compute = nan_energy
        return sim

    monkeypatch.setattr(ledger_md, "make_simulation", sabotaged)
    code = ledger_run.main(
        ["--workload", tiny, "--seed", "7", "--seconds", "0", "--trace", "0"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["failed"] > 0 and not result["correct"]


# -- compare -----------------------------------------------------------------------
def test_compare_verdicts():
    steady = summary([100.0, 101.0, 99.0, 100.5])
    assert classify(steady, summary([100.2, 99.9, 100.4, 101.0]), "lower", 0.1)[0] == "unchanged"
    assert classify(steady, summary([120.0, 121.0, 119.5, 120.2]), "lower", 0.1)[0] == "regressed"
    assert classify(steady, summary([80.0, 81.0, 79.5, 80.2]), "lower", 0.1)[0] == "improved"
    assert classify(steady, summary([80.0, 81.0, 79.5, 80.2]), "higher", 0.1)[0] == "regressed"
    noisy = summary([100.0, 140.0, 90.0, 125.0])
    assert classify(steady, noisy, "lower", 0.1)[0] == "unresolved"
    # wide spread, but every new run beats every old run
    fast_but_wide = summary([50.0, 70.0, 45.0, 62.0])
    assert classify(steady, fast_but_wide, "lower", 0.1)[0] == "improved"
