"""The two overhead guards: an idle fault layer and the telemetry plane
must be free.

The wall-clock bound is gated by the guard CLI (where adaptive sampling
can take its time); here we assert the deterministic halves hard — the
armed-but-empty session changes neither modeled time nor traffic — and
only sanity-bound the wall ratio, so the test never flakes on a noisy
runner.
"""

import dataclasses
import math
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import pytest

from repro.faults import FAULTS, FaultPlan
from repro.md import Stage
from repro.md.presets import PRESETS
from repro.network import simulator
from repro.obs import bench
from repro.obs.bench import (
    COMM_FASTPATH,
    OVERHEAD_LIMIT,
    SMOKE,
    TELEMETRY_OVERHEAD_LIMIT,
    BenchConfig,
    build_simulation,
    fault_overhead_guard,
    overhead_guard,
    render_fault_guard,
    render_telemetry_guard,
    telemetry_overhead_guard,
)


def test_config_key_format():
    cfg = BenchConfig("eam", "parallel-p2p", (2, 2, 2), rdma=True)
    assert cfg.key == "eam/parallel-p2p/2x2x2/rdma"
    assert BenchConfig("lj", "3stage", (2, 2, 2), rdma=False).key == "lj/3stage/2x2x2"


class TestGuardConfigs:
    """What the two guards price, and that each config builds what it names."""

    def test_keys_are_distinct(self):
        keys = [cfg.key for cfg in SMOKE + COMM_FASTPATH]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("cfg", SMOKE + COMM_FASTPATH, ids=lambda cfg: cfg.key)
    def test_build_simulation_honours_the_config(self, cfg):
        sim = build_simulation(cfg)
        assert sim.grid == cfg.grid
        assert sim.world.size == math.prod(cfg.grid)
        assert sim.natoms == 4 * math.prod(cfg.cells)  # fcc: 4 atoms per cell
        assert type(sim.potential) is type(PRESETS[cfg.potential].potential())
        assert sim.exchange.name == cfg.pattern
        assert sim.config.rdma is cfg.rdma
        assert sim.config.model_machine_time
        assert sim.config.thermo_every == 0

    @pytest.mark.parametrize(
        "guard, configs, limit, fastpath",
        [
            (fault_overhead_guard, SMOKE, OVERHEAD_LIMIT, False),
            (telemetry_overhead_guard, COMM_FASTPATH, TELEMETRY_OVERHEAD_LIMIT, True),
        ],
        ids=["faults-off", "telemetry"],
    )
    def test_each_guard_prices_its_configs_at_its_limit(
        self, guard, configs, limit, fastpath, monkeypatch
    ):
        seen = []

        def record(*args, **kwargs):
            seen.append((args, kwargs))
            return {"limit": args[2], "entries": [], "ok": True}

        monkeypatch.setattr(bench, "overhead_guard", record)
        guard(repeats=3)
        ((cfgs, arms, lim, repeats), kwargs), = seen
        assert (cfgs, lim, repeats, kwargs) == (configs, limit, 3, {"fastpath": fastpath})
        assert len(arms) == 2


class TestFaultOverheadGuard:
    def test_idle_layer_is_deterministically_free(self):
        guard = fault_overhead_guard(repeats=1)
        assert {e["key"] for e in guard["entries"]} == {cfg.key for cfg in SMOKE}
        for entry in guard["entries"]:
            # The hard guarantees: zero modeled time added, traffic
            # byte-for-byte identical.
            assert entry["model_equal"], entry["key"]
            assert entry["traffic_equal"], entry["key"]
            # Wall sanity bound only (the 2% gate lives in the CLI).
            assert entry["overhead"] < 0.5, entry

    def test_render_names_every_config(self):
        guard = {
            "limit": 0.02,
            "ok": False,
            "entries": [
                {
                    "key": "lj/3stage/2x2x2",
                    "model_equal": True,
                    "traffic_equal": False,
                    "wall_off_min": 0.1,
                    "wall_on_min": 0.11,
                    "overhead": 0.1,
                    "samples": 5,
                    "ok": False,
                }
            ],
        }
        text = render_fault_guard(guard)
        assert "lj/3stage/2x2x2" in text
        assert "FAIL" in text

    @pytest.mark.parametrize("cfg", SMOKE + COMM_FASTPATH, ids=lambda cfg: cfg.key)
    def test_idle_session_keeps_the_modeled_clock_off_the_event_loop(
        self, cfg, monkeypatch
    ):
        """A session without timing faults has nothing to inject into the
        simulator, so pricing stays on the cache and the world pass."""
        calls = []
        event_loop = simulator.simulate_round

        def counted(*args, **kwargs):
            calls.append(1)
            return event_loop(*args, **kwargs)

        monkeypatch.setattr(simulator, "simulate_round", counted)
        cfg = dataclasses.replace(cfg, steps=10)
        plan = FaultPlan(seed=0, faults=())
        shapes = []
        for arm in (nullcontext, lambda: FAULTS.inject(plan)):
            with arm():
                sim = build_simulation(cfg)
                sim.run(cfg.steps)
            assert not calls, cfg.key
            shapes.append((bench._model_stages(sim), bench._traffic_shape(sim)))
        assert shapes[0] == shapes[1]


class TestTelemetryOverheadGuard:
    """Same sampler, other arms: telemetry off vs. on over comm-fastpath."""

    def test_telemetry_is_deterministically_free(self):
        guard = telemetry_overhead_guard(repeats=1)
        assert {e["key"] for e in guard["entries"]} == {cfg.key for cfg in COMM_FASTPATH}
        for entry in guard["entries"]:
            assert entry["model_equal"], entry["key"]
            assert entry["traffic_equal"], entry["key"]
            # Telemetry never pushes the exchange off its direct plane.
            assert entry["fastpath_off"] > 0 and entry["fastpath_on"] > 0, entry
            # Wall sanity bound only (the 5% gate lives in the CLI).
            assert entry["overhead"] < 0.5, entry

    def test_render_adds_the_fastpath_column(self):
        entry = {
            "key": "lj/p2p/2x2x2",
            "model_equal": True,
            "traffic_equal": True,
            "wall_off_min": 0.1,
            "wall_on_min": 0.101,
            "overhead": 0.01,
            "samples": 5,
            "ok": True,
        }
        fault_text = render_fault_guard({"limit": 0.02, "entries": [entry]})
        telem_text = render_telemetry_guard(
            {"limit": 0.05, "entries": [{**entry, "fastpath_off": 7, "fastpath_on": 7}]}
        )
        assert fault_text.splitlines()[1] == (
            "  [  OK] lj/p2p/2x2x2: model ==, traffic ==, "
            "wall 0.1s -> 0.101s (+1.00%)"
        )
        assert telem_text.splitlines()[0] == (
            "telemetry overhead guard (limit 5% wall, fast path active in "
            "both arms, model/traffic must match exactly):"
        )
        assert "fastpath 7/7 phases (off/on), model ==" in telem_text


class ScriptedArms:
    """Two arms whose runs report scripted walls, modeled seconds, traffic
    and direct-plane phases, so :func:`overhead_guard`'s sampler and
    verdict can be checked without timing a real run."""

    def __init__(self, off_walls, on_walls, comm=(1.0, 1.0), forwards=(6, 6),
                 fastpath=(4, 4)):
        self.walls = (list(off_walls), list(on_walls))
        self.comm, self.forwards, self.fastpath = comm, forwards, fastpath
        self.current = None
        self.runs = []  # (config key, arm index) in the order built

    def arms(self):
        def arm(i):
            @contextmanager
            def enter():
                self.current = i
                yield
                self.current = None
            return enter
        return arm(0), arm(1)

    def build(self, cfg):
        i = self.current
        self.runs.append((cfg.key, i))
        wall = self.walls[i].pop(0)
        count = self.forwards[i]
        summary = SimpleNamespace(count=count, total_bytes=100 * count)
        return SimpleNamespace(
            run=lambda steps: None,
            timers=SimpleNamespace(
                total_wall=lambda: wall, model={Stage.COMM: self.comm[i]}
            ),
            world=SimpleNamespace(transport=SimpleNamespace(log=SimpleNamespace(
                messages=[SimpleNamespace(phase="forward")] * count,
                summary=lambda phase: summary,
            ))),
            exchange=SimpleNamespace(
                plan_stats=lambda: {"fastpath_phases": self.fastpath[i]}
            ),
        )

    def guard(self, monkeypatch, configs=SMOKE[:1], limit=0.02, repeats=1,
              fastpath=False):
        monkeypatch.setattr(bench, "build_simulation", self.build)
        return overhead_guard(configs, self.arms(), limit, repeats, fastpath)


class TestOverheadGuardSampler:
    def test_equal_runs_under_the_limit_pass(self, monkeypatch):
        guard = ScriptedArms([1.0], [1.01]).guard(monkeypatch)
        (entry,) = guard["entries"]
        assert guard["ok"] and entry["ok"]
        assert entry["model_equal"] and entry["traffic_equal"]
        assert entry["overhead"] == pytest.approx(0.01)
        assert (entry["wall_off_min"], entry["wall_on_min"], entry["samples"]) == (
            1.0, 1.01, 1,
        )
        assert guard["limit"] == 0.02

    def test_a_modeled_second_added_fails_however_cheap(self, monkeypatch):
        guard = ScriptedArms([1.0], [1.0], comm=(1.0, 1.5)).guard(monkeypatch)
        (entry,) = guard["entries"]
        assert not entry["model_equal"] and entry["traffic_equal"]
        assert not entry["ok"] and not guard["ok"]

    def test_a_changed_traffic_shape_fails_however_cheap(self, monkeypatch):
        guard = ScriptedArms([1.0], [1.0], forwards=(6, 7)).guard(monkeypatch)
        (entry,) = guard["entries"]
        assert entry["model_equal"] and not entry["traffic_equal"]
        assert not entry["ok"]

    @pytest.mark.parametrize("phases", [(0, 4), (4, 0)], ids=["off-arm", "on-arm"])
    def test_losing_the_direct_plane_in_either_arm_fails(self, phases, monkeypatch):
        guard = ScriptedArms([1.0], [1.0], fastpath=phases).guard(
            monkeypatch, fastpath=True
        )
        (entry,) = guard["entries"]
        assert (entry["fastpath_off"], entry["fastpath_on"]) == phases
        assert not entry["ok"]

    def test_direct_plane_is_not_judged_without_the_flag(self, monkeypatch):
        guard = ScriptedArms([1.0], [1.0], fastpath=(0, 0)).guard(monkeypatch)
        (entry,) = guard["entries"]
        assert "fastpath_off" not in entry and "fastpath_on" not in entry
        assert entry["ok"]

    def test_arms_interleave_off_then_on_per_repeat_and_config(self, monkeypatch):
        arms = ScriptedArms([1.0] * 6, [1.0] * 6)
        guard = arms.guard(monkeypatch, configs=SMOKE, repeats=2)
        assert [e["key"] for e in guard["entries"]] == [cfg.key for cfg in SMOKE]
        assert arms.runs == [(cfg.key, i) for cfg in SMOKE for _ in range(2) for i in (0, 1)]

    def test_a_steady_overhead_escalates_to_four_times_the_repeats(self, monkeypatch):
        arms = ScriptedArms([1.0] * 8, [1.5] * 8)
        (entry,) = arms.guard(monkeypatch, repeats=2)["entries"]
        assert entry["samples"] == 8
        assert entry["overhead"] == pytest.approx(0.5)
        assert not entry["ok"]
        assert arms.walls == ([], [])

    def test_escalation_stops_once_the_estimate_is_under_the_limit(self, monkeypatch):
        arms = ScriptedArms([1.0, 1.0, 1.0], [1.5, 1.0, 1.0])
        (entry,) = arms.guard(monkeypatch)["entries"]
        assert entry["samples"] == 2
        assert entry["ok"]

    def test_agreeing_ratios_read_the_overhead(self, monkeypatch):
        arms = ScriptedArms([1.0, 1.0], [1.1, 1.2])
        (entry,) = arms.guard(monkeypatch, limit=1.0, repeats=2)["entries"]
        assert entry["overhead"] == pytest.approx(0.1)

    def test_a_zero_off_wall_reads_no_overhead(self, monkeypatch):
        (entry,) = ScriptedArms([0.0], [1.0]).guard(monkeypatch)["entries"]
        assert entry["overhead"] == 0.0

    def test_non_positive_repeats_still_sample_once(self, monkeypatch):
        arms = ScriptedArms([1.0], [1.0])
        (entry,) = arms.guard(monkeypatch, repeats=0)["entries"]
        assert entry["samples"] == 1
        assert len(arms.runs) == 2

    def test_one_failing_entry_fails_the_guard(self, monkeypatch):
        arms = ScriptedArms([1.0] * 3, [1.0] * 3)

        def slower_model_on_last(cfg):
            sim = arms.build(cfg)
            if cfg is SMOKE[-1] and arms.current == 1:
                sim.timers.model = {Stage.COMM: 2.0}
            return sim

        monkeypatch.setattr(bench, "build_simulation", slower_model_on_last)
        guard = overhead_guard(SMOKE, arms.arms(), 0.02, 1, False)
        assert [e["ok"] for e in guard["entries"]] == [True, True, False]
        assert not guard["ok"]


class TestGuardCLI:
    @staticmethod
    def _guard(ok):
        return {
            "limit": 0.02,
            "ok": ok,
            "entries": [{
                "key": "lj/3stage/2x2x2", "model_equal": True, "traffic_equal": ok,
                "wall_off_min": 0.1, "wall_on_min": 0.1, "overhead": 0.0,
                "samples": 1, "ok": ok,
            }],
        }

    @pytest.mark.parametrize("ok, code", [(True, 0), (False, 1)])
    def test_exit_code_follows_the_guard(self, ok, code, monkeypatch, capsys):
        repeats = []

        def guard(n=5):
            repeats.append(n)
            return self._guard(ok)

        monkeypatch.setitem(
            bench.GUARDS, "faults-off", (guard, render_fault_guard, "FAIL: not free")
        )
        assert bench.main(["faults-off"]) == code
        assert repeats == [5]
        out = capsys.readouterr().out
        assert "lj/3stage/2x2x2" in out
        assert ("FAIL: not free" in out) is not ok

    def test_unknown_guard_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench.main(["nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
