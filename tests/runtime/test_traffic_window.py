"""TrafficLog retention: every record kept until ``clear()``, one lazily
folded accounting, and the per-step clearing knob of ``Simulation``.  (The
rolling-window mode these classes were named for is gone; the ids stay
with the behaviour that survives.)"""

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
    def test_clear_resets_aggregates(self):
        log = TrafficLog()
        for m in _msgs(50, seed=7):
            log.record(m)
        log.clear()
        assert log.count() == 0 and log.total_bytes() == 0
        assert log.pairs() == set() and log.count_by_rank() == {}

    def test_unbounded_default_unchanged(self):
        log = TrafficLog()
        for m in _msgs(120, seed=9):
            log.record(m)
        assert len(log.messages) == 120 == log.count() == log.grand_total_count


class TestSimulationKnobs:
    def test_clear_each_step_empties_the_log(self):
        from repro import quick_lj_simulation

        sim = quick_lj_simulation(
            cells=(4, 4, 4), ranks=(2, 2, 2), clear_traffic_each_step=True
        )
        sim.run(3)
        assert sim.world.transport.log.messages == []


class TestLazyFold:
    def test_queries_between_phase_appends_and_a_trim_match_unbounded(self):
        """The fold's only state is how far it got: a query after every
        ``record_phase`` — some folding fresh records, some right after a
        ``clear()`` dropped folded and unfolded ones alike — answers as a
        twin does that is handed only what the log still retains, while
        the run-lifetime totals match a twin that never clears."""
        log, never_cleared = TrafficLog(), TrafficLog()
        msgs = _msgs(400, seed=11)
        retained: list[SentMessage] = []
        for k, size in enumerate((7, 1, 30, 2, 60, 5, 45, 3, 90, 157)):
            chunk, msgs = msgs[:size], msgs[size:]
            if k in (4, 6):  # once with everything folded, once with k=5 still unfolded
                log.clear()
                retained = []
            retained += chunk
            for each in (log, never_cleared):
                each.record_phase(chunk, sum(m.nbytes for m in chunk))
            if k % 3 == 2:
                continue  # let two appends accumulate before the next fold
            twin = TrafficLog(messages=list(retained))
            for phase in (None, "border", "forward", "reverse", "absent"):
                assert log.count(phase) == twin.count(phase)
                assert log.total_bytes(phase) == twin.total_bytes(phase)
                assert log.count_by_rank(phase) == twin.count_by_rank(phase)
                assert log.pairs(phase) == twin.pairs(phase)
                assert log.summary(phase) == twin.summary(phase)
        assert not msgs
        assert log.messages == retained and len(never_cleared.messages) == 400
        assert (log.grand_total_count, log.grand_total_bytes) == (
            never_cleared.grand_total_count, never_cleared.grand_total_bytes
        )
