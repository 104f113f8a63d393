"""The faults-off bench guard: an idle fault layer must be free.

The wall-clock bound is gated by the bench CLI (where adaptive sampling
can take its time); here we assert the deterministic halves hard — the
armed-but-empty session changes neither modeled time nor traffic — and
only sanity-bound the wall ratio, so the test never flakes on a noisy
runner.
"""

from repro.obs.bench import (
    SUITES,
    fault_overhead_guard,
    render_fault_guard,
    render_telemetry_guard,
    telemetry_overhead_guard,
)


class TestFaultOverheadGuard:
    def test_idle_layer_is_deterministically_free(self):
        guard = fault_overhead_guard(repeats=1)
        assert {e["key"] for e in guard["entries"]} == {
            cfg.key for cfg in SUITES["smoke"]
        }
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

    def test_faults_off_suite_declared(self):
        assert "faults-off" in SUITES
        assert SUITES["faults-off"] == SUITES["smoke"]


class TestTelemetryOverheadGuard:
    """Same sampler, other arms: telemetry off vs. on over comm-fastpath."""

    def test_telemetry_is_deterministically_free(self):
        guard = telemetry_overhead_guard(repeats=1)
        assert {e["key"] for e in guard["entries"]} == {
            cfg.key for cfg in SUITES["telemetry-overhead"]
        }
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
