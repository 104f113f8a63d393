"""Bounded TrafficLog: rolling retention with exact whole-run aggregates."""

import numpy as np

from repro.runtime.transport import SentMessage, TrafficLog


def _msgs(n, seed=0):
    rng = np.random.default_rng(seed)
    phases = ("border", "forward", "reverse")
    return [
        SentMessage(
            src=int(rng.integers(0, 4)),
            dst=int(rng.integers(0, 4)),
            tag=("t", i),
            nbytes=int(rng.integers(8, 4096)),
            phase=phases[int(rng.integers(0, 3))],
        )
        for i in range(n)
    ]


class TestRollingWindow:
    def test_retention_is_bounded(self):
        log = TrafficLog()
        log.set_window(50)
        for m in _msgs(500):
            log.record(m)
        # Chunked trimming: never more than twice the window retained.
        assert len(log.messages) <= 100
        # The newest records are the ones kept.
        assert log.messages[-1].tag == ("t", 499)

    def test_aggregates_match_unbounded_log(self):
        bounded, unbounded = TrafficLog(), TrafficLog()
        bounded.set_window(10)
        for m in _msgs(300, seed=3):
            bounded.record(m)
            unbounded.record(m)
        for phase in (None, "border", "forward", "reverse", "absent"):
            assert bounded.count(phase) == unbounded.count(phase)
            assert bounded.total_bytes(phase) == unbounded.total_bytes(phase)
            assert bounded.count_by_rank(phase) == unbounded.count_by_rank(phase)
            assert bounded.pairs(phase) == unbounded.pairs(phase)
            bs, us = bounded.summary(phase), unbounded.summary(phase)
            assert (bs.count, bs.total_bytes) == (us.count, us.total_bytes)
            assert (bs.pair_count, bs.max_pair, bs.max_pair_bytes) == (
                us.pair_count, us.max_pair, us.max_pair_bytes
            )

    def test_window_set_midstream_rebuilds_from_retained(self):
        """Bounding an already-populated log restarts exact accounting
        from what is still retained (documented semantics)."""
        log = TrafficLog()
        msgs = _msgs(20, seed=5)
        for m in msgs:
            log.record(m)
        log.set_window(100)  # all 20 retained -> aggregates cover all 20
        assert log.count() == 20
        assert log.total_bytes() == sum(m.nbytes for m in msgs)

    def test_clear_resets_aggregates(self):
        log = TrafficLog()
        log.set_window(5)
        for m in _msgs(50, seed=7):
            log.record(m)
        log.clear()
        assert log.count() == 0 and log.total_bytes() == 0
        assert log.pairs() == set() and log.count_by_rank() == {}

    def test_unbounded_default_unchanged(self):
        log = TrafficLog()
        for m in _msgs(120, seed=9):
            log.record(m)
        assert log.max_messages is None
        assert len(log.messages) == 120


class TestSimulationKnobs:
    def test_traffic_window_config_bounds_the_log(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), traffic_window=64
        )
        sim.run(3)
        log = sim.world.transport.log
        assert log.max_messages == 64
        assert len(log.messages) <= 128
        assert log.count() > len(log.messages)  # aggregates span the run

    def test_clear_each_step_empties_the_log(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), clear_traffic_each_step=True
        )
        sim.run(3)
        assert sim.world.transport.log.messages == []

    def test_windowed_run_matches_default_physics(self):
        from repro import quick_lj_simulation

        plain = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 2))
        windowed = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), traffic_window=32,
            clear_traffic_each_step=False,
        )
        plain.run(4)
        windowed.run(4)
        assert np.array_equal(plain.gather_positions(), windowed.gather_positions())


class TestLazyFold:
    def test_queries_between_phase_appends_and_a_trim_match_unbounded(self):
        """The fold's only state is how far it got: a query after every
        ``record_phase`` — some folding fresh records, some right after
        the window trimmed folded and unfolded ones alike — answers as
        an unbounded twin does."""
        bounded, unbounded = TrafficLog(), TrafficLog()
        bounded.set_window(20)
        msgs = _msgs(400, seed=11)
        trimmed = False
        for k, size in enumerate((7, 1, 30, 2, 60, 5, 45, 3, 90, 157)):
            chunk, msgs = msgs[:size], msgs[size:]
            before = len(bounded.messages)
            for log in (bounded, unbounded):
                log.record_phase(chunk, sum(m.nbytes for m in chunk))
            trimmed |= len(bounded.messages) < before + size
            if k % 3 == 2:
                continue  # let two appends accumulate before the next fold
            for phase in (None, "border", "forward", "reverse", "absent"):
                assert bounded.count(phase) == unbounded.count(phase)
                assert bounded.total_bytes(phase) == unbounded.total_bytes(phase)
                assert bounded.count_by_rank(phase) == unbounded.count_by_rank(phase)
                assert bounded.pairs(phase) == unbounded.pairs(phase)
                assert bounded.summary(phase) == unbounded.summary(phase)
        assert not msgs and trimmed
        assert len(bounded.messages) <= 40 < len(unbounded.messages) == 400
        assert bounded.messages[-1] is unbounded.messages[-1]
        assert (bounded.grand_total_count, bounded.grand_total_bytes) == (
            unbounded.grand_total_count, unbounded.grand_total_bytes
        )
