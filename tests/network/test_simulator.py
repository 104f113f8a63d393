"""Network-simulator behaviour: injection serialization, TNI contention,
stage barriers, and the paper's qualitative orderings (Fig. 6, Fig. 8)."""

import pytest

from repro.faults import FAULTS
from repro.machine import FUGAKU
from repro.network import (
    Message,
    NetworkSimulator,
    MpiStack,
    UtofuStack,
    simulate_round,
)


@pytest.fixture
def utofu_sim():
    return NetworkSimulator(UtofuStack())


@pytest.fixture
def mpi_sim():
    return NetworkSimulator(MpiStack())


class TestMessageValidation:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(nbytes=-1)

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            Message(nbytes=8, hops=-1)


class TestSerialization:
    def test_single_thread_injections_serialize(self, utofu_sim):
        one = utofu_sim.run_round([Message(64)]).completion_time
        many = utofu_sim.run_round([Message(64)] * 10).completion_time
        # 9 extra injection intervals must appear.
        assert many >= one + 9 * UtofuStack().injection_interval(64) * 0.99

    def test_distinct_threads_inject_in_parallel(self):
        sim = NetworkSimulator(UtofuStack())
        serial = sim.run_round([Message(64, thread=0, tni=0)] * 6).completion_time
        parallel = sim.run_round(
            [Message(64, thread=t, tni=t) for t in range(6)]
        ).completion_time
        # Parallel time is one injection + latency; serial pays 6
        # injections.  The fixed latency floor keeps the ratio below 6.
        assert parallel < serial * 0.6

    def test_same_tni_contends(self):
        sim = NetworkSimulator(UtofuStack())
        shared = sim.run_round(
            [Message(4096, rank=r, thread=0, tni=0) for r in range(4)]
        ).completion_time
        spread = sim.run_round(
            [Message(4096, rank=r, thread=0, tni=r) for r in range(4)]
        ).completion_time
        assert shared > spread

    def test_vcq_switching_costs(self):
        """One thread hopping over 6 VCQs (6TNI-p2p mode) pays extra."""
        sim = NetworkSimulator(UtofuStack())
        same_vcq = sim.run_round(
            [Message(64, thread=0, tni=0) for _ in range(12)]
        ).completion_time
        hopping = sim.run_round(
            [Message(64, thread=0, tni=i % 6) for i in range(12)]
        ).completion_time
        assert hopping > same_vcq

    def test_hops_add_latency(self, utofu_sim):
        near = utofu_sim.point_to_point_time(64, 1)
        far = utofu_sim.point_to_point_time(64, 3)
        assert far == pytest.approx(near + 2 * FUGAKU.hop_latency)

    def test_queued_engine_starts_when_the_previous_hold_ends(self):
        """Two ranks' messages on one TNI: the second waits for the
        engine's horizon (the first's start plus its hold)."""
        one = [Message(4096, rank=0, thread=0, tni=0)]
        alone = simulate_round(one, UtofuStack()).completion_time
        both = simulate_round(one + [Message(4096, rank=1, thread=0, tni=0)], UtofuStack())
        hold = max(4096 / FUGAKU.link_bandwidth, FUGAKU.tni_engine_message_time)
        assert both.arrivals == pytest.approx([alone, alone + hold], rel=1e-15)

    def test_negative_engine_hold_rejected(self, monkeypatch):
        class ShorteningStall:  # a fault session whose stall undercuts the hold
            def vcq_credit_wait(self, rank, thread, tni):
                return 0.0

            def injection_jitter(self, rank, thread, tni):
                return 0.0

            def tni_stall(self, tni):
                return -1.0

        monkeypatch.setattr(FAULTS, "session", ShorteningStall())
        with pytest.raises(ValueError, match="negative TNI engine hold"):
            simulate_round([Message(64)], UtofuStack())


class TestProtocolExpansion:
    def test_mpi_unknown_length_creates_extra_wire_message(self, mpi_sim):
        known = mpi_sim.run_round([Message(1024, known_length=True)])
        unknown = mpi_sim.run_round([Message(1024, known_length=False)])
        assert unknown.wire_messages == known.wire_messages + 1
        assert unknown.completion_time > known.completion_time


class TestStaged:
    def test_stages_serialize(self, utofu_sim):
        stage = [Message(256)] * 2
        one = utofu_sim.run_round(stage).completion_time
        three = utofu_sim.run_staged([stage, stage, stage]).completion_time
        assert three > 2.5 * one

    def test_barrier_cost_applied_between_stages(self):
        sim_free = NetworkSimulator(UtofuStack(), barrier_cost=0.0)
        sim_barrier = NetworkSimulator(UtofuStack(), barrier_cost=5e-6)
        stages = [[Message(64)], [Message(64)]]
        assert (
            sim_barrier.run_staged(stages).completion_time
            >= sim_free.run_staged(stages).completion_time + 5e-6
        )

    def test_empty_round(self, utofu_sim):
        res = utofu_sim.run_round([])
        assert res.completion_time == 0.0
        assert res.message_count == 0


class TestPaperOrderings:
    """The Fig. 6 story, as inequalities over the simulator."""

    P2P_65K = [Message(528, 1)] * 3 + [Message(132, 2)] * 6 + [Message(33, 3)] * 4
    STAGES_65K = [
        [Message(528, 1)] * 2,
        [Message(660, 1)] * 2,
        [Message(924, 1)] * 2,
    ]

    def test_mpi_p2p_slower_than_mpi_3stage(self):
        """Naive MPI p2p loses: 13 heavy injections beat 6 + barriers."""
        sim = NetworkSimulator(MpiStack())
        p2p = sim.run_round(self.P2P_65K).completion_time
        staged = sim.run_staged(self.STAGES_65K).completion_time
        assert p2p > staged

    def test_utofu_p2p_faster_than_utofu_3stage(self):
        sim = NetworkSimulator(UtofuStack())
        p2p = sim.run_round(self.P2P_65K).completion_time
        staged = sim.run_staged(self.STAGES_65K).completion_time
        assert p2p < staged

    def test_utofu_p2p_vs_mpi_3stage_reduction_band(self):
        """Paper: 79 % reduction; assert a generous band around it."""
        ut = NetworkSimulator(UtofuStack()).run_round(self.P2P_65K).completion_time
        mp = NetworkSimulator(MpiStack()).run_staged(self.STAGES_65K).completion_time
        reduction = 1 - ut / mp
        assert 0.6 < reduction < 0.95

    def test_parallel_injection_boosts_small_message_rate(self):
        """Fig. 8: >= 50 % message-rate gain below 512 B with 6 threads."""
        stack = UtofuStack()
        small = 256
        single = simulate_round(
            [Message(small, rank=r, thread=0, tni=r) for r in range(4) for _ in range(50)],
            stack,
        )
        parallel = simulate_round(
            [
                Message(small, rank=r, thread=i % 6, tni=i % 6)
                for r in range(4)
                for i in range(50)
            ],
            stack,
        )
        assert parallel.message_rate() > 1.5 * single.message_rate()

    def test_single_thread_6tni_slower_than_4tni(self):
        """Fig. 8 / Fig. 12: 6 TNIs with one thread lose to 4 TNIs."""
        stack = UtofuStack()
        four = simulate_round(
            [Message(256, rank=r, thread=0, tni=r) for r in range(4) for _ in range(50)],
            stack,
        )
        six = simulate_round(
            [
                Message(256, rank=r, thread=0, tni=i % 6)
                for r in range(4)
                for i in range(50)
            ],
            stack,
        )
        assert six.message_rate() < four.message_rate()

    def test_large_messages_bandwidth_bound(self):
        """Beyond ~4 KiB the wire dominates and threading stops helping
        message rate (the Fig. 8 convergence)."""
        stack = UtofuStack()
        big = 65536
        single = simulate_round(
            [Message(big, rank=0, thread=0, tni=0) for _ in range(20)], stack
        )
        # rate limited by serialization: bytes/bandwidth
        floor = 20 * big / FUGAKU.link_bandwidth
        assert single.completion_time >= floor


class TestRoundResult:
    def test_message_rate_and_bandwidth(self, utofu_sim):
        res = utofu_sim.run_round([Message(1000)] * 4)
        assert res.message_count == 4
        assert res.message_rate() == pytest.approx(4 / res.completion_time)
        assert res.bandwidth(4000) == pytest.approx(4000 / res.completion_time)
