"""Bit-equality of the batched world pass against the event loop.

``simulate_owned_rounds`` prices many independent rounds (one per row)
at once when every injection stream owns its TNI engine.  It must equal
the event loop row by row — ``NetworkSimulator.run_round`` for a round
from time zero, ``NetworkSimulator.run_staged`` when 2-send stages are
chained through each row's ``start`` — as exact Python floats, and
refuse everything else, leaving those rounds to the event loop.
"""

import numpy as np
import pytest

from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.machine import FUGAKU
from repro.network import (
    Message,
    MpiStack,
    NetworkSimulator,
    UtofuStack,
    simulate_owned_rounds,
    simulate_round,
)
from repro.obs.trace import tracing


def _owned_rounds(seed: int, rounds: int = 9, n_msgs: int = 13, n_threads: int = 6):
    """``(rounds, n_msgs)`` schedules in which every stream owns its TNI:
    threads drawn at random, each bound to its own (shuffled) TNI."""
    rng = np.random.default_rng(seed)
    thread = rng.integers(0, n_threads, size=(rounds, n_msgs))
    binding = np.array([rng.permutation(n_threads) for _ in range(rounds)])
    tni = np.take_along_axis(binding, thread, axis=1)
    nbytes = rng.choice([0, 8, 64, 768, 1024, 40_000, 2_000_000], size=(rounds, n_msgs))
    hops = rng.integers(0, 5, size=(rounds, n_msgs))
    return nbytes, hops, thread, tni


def _row_messages(nbytes, hops, thread, tni, r, known=True):
    return [
        Message(int(b), int(h), rank=r, thread=int(t), tni=int(e), known_length=known)
        for b, h, t, e in zip(nbytes[r], hops[r], thread[r], tni[r])
    ]


def _run_round_per_row(nbytes, hops, thread, tni, stack, known=True):
    return [
        NetworkSimulator(stack, FUGAKU).run_round(
            _row_messages(nbytes, hops, thread, tni, r, known)
        ).completion_time
        for r in range(nbytes.shape[0])
    ]


def _staged_world_pass(nbytes, hops, thread, tni, stack, fence=2):
    """The world pass chained over ``fence``-send stages: each row's next
    stage starts at its own completion plus the barrier."""
    barrier = NetworkSimulator(stack, FUGAKU).barrier_cost
    times = [0.0] * nbytes.shape[0]
    for lo in range(0, nbytes.shape[1], fence):
        start = np.asarray(times) + barrier if lo else np.zeros(nbytes.shape[0])
        stage = slice(lo, lo + fence)
        times = simulate_owned_rounds(
            nbytes[:, stage], hops[:, stage], thread[:, stage], tni[:, stage],
            start, stack, FUGAKU,
        )
    return times


def _zeros(case):
    return np.zeros(case[0].shape[0])


class TestBatchedBitEquality:
    @pytest.mark.parametrize("stack_cls", [UtofuStack, MpiStack])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_chained_rounds_identical(self, stack_cls, seed):
        """3-stage's shape: 2-send stages behind barriers, one stream on
        one TNI per row, sizes on both sides of the MPI rendezvous
        threshold; equal to ``run_staged`` per row, bit for bit."""
        stack = stack_cls()
        case = _owned_rounds(seed, n_msgs=6, n_threads=1)
        threshold = FUGAKU.mpi_rendezvous_threshold
        assert (case[0] > threshold).any() and (case[0] <= threshold).any()
        expected = [
            NetworkSimulator(stack, FUGAKU).run_staged(
                [msgs[i : i + 2] for i in range(0, len(msgs), 2)]
            ).completion_time
            for msgs in (_row_messages(*case, r) for r in range(case[0].shape[0]))
        ]
        assert _staged_world_pass(*case, stack) == expected

    def test_results_are_python_floats(self):
        """No np.float64 may leak into results (repr stability)."""
        case = _owned_rounds(5, n_msgs=6, n_threads=1)
        for got in (
            simulate_owned_rounds(*case, _zeros(case), UtofuStack()),
            _staged_world_pass(*case, MpiStack()),
        ):
            assert all(type(t) is float for t in got)
        r = simulate_round([Message(64, thread=0, tni=0)] * 5, UtofuStack(), FUGAKU)
        assert type(r.completion_time) is float
        assert all(type(a) is float for a in r.arrivals)


class TestBatchedFallback:
    def test_multi_tni_stream_falls_back(self):
        """A thread hopping TNIs pays VCQ switching: the world pass must
        refuse, and the event loop prices the switch."""
        stack = UtofuStack()
        msgs = [Message(64, thread=0, tni=i % 2) for i in range(6)]
        row = np.array([[64] * 6]), np.ones((1, 6), int), np.zeros((1, 6), int)
        tni = np.array([[i % 2 for i in range(6)]])
        assert simulate_owned_rounds(*row, tni, np.zeros(1), stack) is None
        hop = simulate_round(msgs, stack, FUGAKU).completion_time
        flat = simulate_round(
            [Message(64, thread=0, tni=0) for _ in range(6)], stack, FUGAKU
        ).completion_time
        assert hop > flat

    def test_mpi_unknown_length_falls_back_to_event_loop(self):
        """Two-wire-message protocols are priced by the event loop only."""
        stack = MpiStack()
        assert stack.protocol_message_count(64, False) == 2
        one = np.ones((1, 1), int)
        row = 64 * one, one, 0 * one, 0 * one, np.zeros(1)
        assert simulate_owned_rounds(*row, stack, known_length=False) is None
        msgs = [Message(64, known_length=False)]
        assert simulate_round(msgs, stack, FUGAKU).wire_messages == 2

    def test_empty_round(self):
        stack = UtofuStack()
        r = simulate_round([], stack, FUGAKU, start_time=2.5)
        assert r.completion_time == 2.5
        assert r.arrivals == []
        empty = np.zeros((2, 0), dtype=np.int64)
        start = np.array([2.5, 1.0])
        assert simulate_owned_rounds(empty, empty, empty, empty, start, stack) == [2.5, 1.0]


# -- many independent rounds in one pass ------------------------------------
class TestOwnedRounds:
    @pytest.mark.parametrize("stack_cls", [UtofuStack, MpiStack])
    @pytest.mark.parametrize("n_threads", [1, 3, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_run_round_per_row(self, stack_cls, n_threads, seed):
        stack = stack_cls()
        case = _owned_rounds(seed, n_threads=n_threads)
        got = simulate_owned_rounds(*case, _zeros(case), stack, FUGAKU)
        assert got == _run_round_per_row(*case, stack)
        assert all(type(t) is float for t in got)

    def test_unknown_length_is_fine_on_single_message_protocols(self):
        stack = UtofuStack()
        case = _owned_rounds(4)
        got = simulate_owned_rounds(*case, _zeros(case), stack, FUGAKU, known_length=False)
        assert got == _run_round_per_row(*case, stack, known=False)

    def test_no_messages(self):
        empty = np.zeros((4, 0), dtype=np.int64)
        got = simulate_owned_rounds(empty, empty, empty, empty, np.zeros(4), UtofuStack())
        assert got == [0.0] * 4

    def test_refuses_a_stream_changing_tni(self):
        nbytes, hops, thread, tni = _owned_rounds(5, n_threads=1)
        tni[2, 7] = 3  # thread 0 hops to another VCQ mid-round
        case = nbytes, hops, thread, tni
        assert simulate_owned_rounds(*case, _zeros(case), UtofuStack()) is None

    def test_refuses_two_streams_on_one_tni(self):
        nbytes, hops, thread, tni = _owned_rounds(6, n_threads=3)
        thread[0, :2] = (0, 1)
        tni[0] = 0  # every stream of round 0 queues on one engine
        case = nbytes, hops, thread, tni
        assert simulate_owned_rounds(*case, _zeros(case), UtofuStack()) is None

    def test_refuses_multi_message_protocols(self):
        case = _owned_rounds(7)
        got = simulate_owned_rounds(*case, _zeros(case), MpiStack(), known_length=False)
        assert got is None

    def test_refuses_under_the_tracer(self):
        case = _owned_rounds(8)
        with tracing():
            assert simulate_owned_rounds(*case, _zeros(case), UtofuStack()) is None

    def test_refuses_under_a_network_fault_session(self):
        case = _owned_rounds(9)
        plan = FaultPlan(faults=(FaultSpec(kind="tni-stall", stall=1e-6, probability=0.5),))
        with FAULTS.inject(plan):
            assert simulate_owned_rounds(*case, _zeros(case), UtofuStack()) is None
