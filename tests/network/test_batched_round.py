"""Bit-equality of the batched world pass against the event loop.

``simulate_rounds`` prices many independent rounds (one per row) at
once.  It must equal the event loop row by row — ``simulate_round`` /
``NetworkSimulator.run_round`` for a round from ``start``,
``NetworkSimulator.run_staged`` when 2-send stages are chained through
each row's ``start`` — as exact Python floats, whatever the round's
shape: streams that own their TNI, streams sharing one engine, a stream
hopping VCQs, a two-message protocol.  It refuses only observers,
leaving those rounds to the event loop.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.figures import fig8
from repro.machine import FUGAKU
from repro.network import (
    Message,
    MpiStack,
    NetworkSimulator,
    UtofuStack,
    simulate_round,
    simulate_rounds,
)
from repro.obs.metrics import collecting
from repro.obs.trace import tracing

SIZES = [0, 8, 64, 768, 1024, 40_000, 2_000_000]


def _owned_rounds(seed: int, rounds: int = 9, n_msgs: int = 13, n_threads: int = 6):
    """``(rounds, n_msgs)`` schedules in which every stream owns its TNI:
    threads drawn at random, each bound to its own (shuffled) TNI."""
    rng = np.random.default_rng(seed)
    thread = rng.integers(0, n_threads, size=(rounds, n_msgs))
    binding = np.array([rng.permutation(n_threads) for _ in range(rounds)])
    tni = np.take_along_axis(binding, thread, axis=1)
    nbytes = rng.choice(SIZES, size=(rounds, n_msgs))
    hops = rng.integers(0, 5, size=(rounds, n_msgs))
    return nbytes, hops, thread, tni


def _row_messages(nbytes, hops, thread, tni, r, known=True):
    return [
        Message(int(b), int(h), rank=r, thread=int(t), tni=int(e), known_length=known)
        for b, h, t, e in zip(nbytes[r], hops[r], thread[r], tni[r])
    ]


def _event_loop_per_row(nbytes, hops, thread, tni, stack, known=True, start=None):
    start = np.zeros(nbytes.shape[0]) if start is None else start
    return [
        simulate_round(
            _row_messages(nbytes, hops, thread, tni, r, known), stack, FUGAKU,
            start_time=float(start[r]),
        ).completion_time
        for r in range(nbytes.shape[0])
    ]


def _staged_world_pass(nbytes, hops, thread, tni, stack, fence=2, known=True):
    """The world pass chained over ``fence``-send stages: each row's next
    stage starts at its own completion plus the barrier."""
    barrier = NetworkSimulator(stack, FUGAKU).barrier_cost
    times = [0.0] * nbytes.shape[0]
    for lo in range(0, nbytes.shape[1], fence):
        start = np.asarray(times) + barrier if lo else np.zeros(nbytes.shape[0])
        stage = slice(lo, lo + fence)
        times = simulate_rounds(
            nbytes[:, stage], hops[:, stage], thread[:, stage], tni[:, stage],
            start, stack, FUGAKU, known,
        )
    return times


def _run_staged_per_row(nbytes, hops, thread, tni, stack, fence=2, known=True):
    return [
        NetworkSimulator(stack, FUGAKU).run_staged(
            [msgs[i : i + fence] for i in range(0, len(msgs), fence)]
        ).completion_time
        for msgs in (
            _row_messages(nbytes, hops, thread, tni, r, known)
            for r in range(nbytes.shape[0])
        )
    ]


def _zeros(case):
    return np.zeros(case[0].shape[0])


@st.composite
def any_rounds(draw):
    """Random rows of any shape: shared TNIs, VCQ hopping, empty rows."""
    rounds = draw(st.integers(0, 4))
    n = draw(st.integers(0, 8))
    ints = lambda hi: st.lists(st.integers(0, hi), min_size=rounds * n, max_size=rounds * n)
    shape = (rounds, n)
    nbytes = np.array(draw(st.lists(st.sampled_from(SIZES), min_size=rounds * n,
                                    max_size=rounds * n)), dtype=np.int64).reshape(shape)
    hops = np.array(draw(ints(4)), dtype=np.int64).reshape(shape)
    thread = np.array(draw(ints(3)), dtype=np.int64).reshape(shape)
    tni = np.array(draw(ints(5)), dtype=np.int64).reshape(shape)
    start = np.array(draw(st.lists(st.sampled_from([0.0, 1e-6, 2.5e-5]),
                                   min_size=rounds, max_size=rounds)))
    stack = draw(st.sampled_from([UtofuStack(), MpiStack()]))
    return nbytes, hops, thread, tni, start, stack, draw(st.booleans())


class TestAnyRoundShape:
    @settings(max_examples=60, deadline=None)
    @given(any_rounds())
    def test_equals_the_event_loop_per_row(self, case):
        nbytes, hops, thread, tni, start, stack, known = case
        got = simulate_rounds(nbytes, hops, thread, tni, start, stack, FUGAKU, known)
        assert got == _event_loop_per_row(nbytes, hops, thread, tni, stack, known, start)
        assert all(type(t) is float for t in got)

    @settings(max_examples=30, deadline=None)
    @given(any_rounds())
    def test_chained_stages_equal_run_staged(self, case):
        nbytes, hops, thread, tni, _, stack, known = case
        got = _staged_world_pass(nbytes, hops, thread, tni, stack, known=known)
        if nbytes.shape[1]:
            assert got == _run_staged_per_row(nbytes, hops, thread, tni, stack, known=known)


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
        assert _staged_world_pass(*case, stack) == _run_staged_per_row(*case, stack)

    def test_results_are_python_floats(self):
        """No np.float64 may leak into results (repr stability)."""
        case = _owned_rounds(5, n_msgs=6, n_threads=1)
        for got in (
            simulate_rounds(*case, _zeros(case), UtofuStack()),
            _staged_world_pass(*case, MpiStack()),
        ):
            assert all(type(t) is float for t in got)
        r = simulate_round([Message(64, thread=0, tni=0)] * 5, UtofuStack(), FUGAKU)
        assert type(r.completion_time) is float
        assert all(type(a) is float for a in r.arrivals)


class TestProtocolsAndSwitches:
    def test_multi_tni_stream_pays_vcq_switches(self):
        """A thread hopping TNIs pays VCQ switching: the world pass prices
        the switch exactly as the event loop does."""
        stack = UtofuStack()
        msgs = [Message(64, thread=0, tni=i % 2) for i in range(6)]
        row = np.array([[64] * 6]), np.ones((1, 6), int), np.zeros((1, 6), int)
        tni = np.array([[i % 2 for i in range(6)]])
        hop = simulate_round(msgs, stack, FUGAKU).completion_time
        flat = simulate_round(
            [Message(64, thread=0, tni=0) for _ in range(6)], stack, FUGAKU
        ).completion_time
        assert simulate_rounds(*row, tni, np.zeros(1), stack) == [hop]
        assert hop > flat

    def test_mpi_unknown_length_equals_the_event_loop(self):
        """A two-wire-message protocol: the 8-byte length message, then
        the payload, both through the engine; the payload's arrival
        counts."""
        stack = MpiStack()
        assert stack.protocol_message_count(64, False) == 2
        one = np.ones((1, 1), int)
        row = 64 * one, one, 0 * one, 0 * one, np.zeros(1)
        msgs = [Message(64, known_length=False)]
        loop = simulate_round(msgs, stack, FUGAKU)
        assert loop.wire_messages == 2
        assert simulate_rounds(*row, stack, known_length=False) == [loop.completion_time]
        assert simulate_rounds(*row, stack) == [
            simulate_round([Message(64)], stack, FUGAKU).completion_time
        ] != [loop.completion_time]

    def test_empty_round(self):
        stack = UtofuStack()
        r = simulate_round([], stack, FUGAKU, start_time=2.5)
        assert r.completion_time == 2.5
        assert r.arrivals == []
        empty = np.zeros((2, 0), dtype=np.int64)
        start = np.array([2.5, 1.0])
        assert simulate_rounds(empty, empty, empty, empty, start, stack) == [2.5, 1.0]


# -- many independent rounds in one pass ------------------------------------
class TestOwnedRounds:
    @pytest.mark.parametrize("stack_cls", [UtofuStack, MpiStack])
    @pytest.mark.parametrize("n_threads", [1, 3, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_run_round_per_row(self, stack_cls, n_threads, seed):
        stack = stack_cls()
        case = _owned_rounds(seed, n_threads=n_threads)
        got = simulate_rounds(*case, _zeros(case), stack, FUGAKU)
        assert got == [
            NetworkSimulator(stack, FUGAKU).run_round(
                _row_messages(*case, r)
            ).completion_time
            for r in range(case[0].shape[0])
        ]
        assert all(type(t) is float for t in got)

    def test_unknown_length_is_fine_on_single_message_protocols(self):
        stack = UtofuStack()
        case = _owned_rounds(4)
        got = simulate_rounds(*case, _zeros(case), stack, FUGAKU, known_length=False)
        assert got == _event_loop_per_row(*case, stack, known=False)

    def test_no_messages(self):
        empty = np.zeros((4, 0), dtype=np.int64)
        got = simulate_rounds(empty, empty, empty, empty, np.zeros(4), UtofuStack())
        assert got == [0.0] * 4

    def test_a_stream_changing_tni_equals_the_event_loop(self):
        nbytes, hops, thread, tni = _owned_rounds(5, n_threads=1)
        tni[2, 7] = 3  # thread 0 hops to another VCQ mid-round
        case = nbytes, hops, thread, tni
        got = simulate_rounds(*case, _zeros(case), UtofuStack())
        assert got == _event_loop_per_row(*case, UtofuStack())

    def test_two_streams_on_one_tni_equal_the_event_loop(self):
        nbytes, hops, thread, tni = _owned_rounds(6, n_threads=3)
        thread[0, :2] = (0, 1)
        tni[0] = 0  # every stream of round 0 queues on one engine
        case = nbytes, hops, thread, tni
        got = simulate_rounds(*case, _zeros(case), UtofuStack())
        assert got == _event_loop_per_row(*case, UtofuStack())

    def test_multi_message_protocols_equal_the_event_loop(self):
        case = _owned_rounds(7)
        got = simulate_rounds(*case, _zeros(case), MpiStack(), known_length=False)
        assert got == _event_loop_per_row(*case, MpiStack(), known=False)

    def test_refuses_under_the_tracer(self):
        case = _owned_rounds(8)
        with tracing():
            assert simulate_rounds(*case, _zeros(case), UtofuStack()) is None

    def test_refuses_under_the_metrics_registry(self):
        case = _owned_rounds(10)
        with collecting():
            assert simulate_rounds(*case, _zeros(case), UtofuStack()) is None

    def test_refuses_under_a_network_fault_session(self):
        case = _owned_rounds(9)
        plan = FaultPlan(faults=(FaultSpec(kind="tni-stall", stall=1e-6, probability=0.5),))
        with FAULTS.inject(plan):
            assert simulate_rounds(*case, _zeros(case), UtofuStack()) is None


# -- Fig. 8 on the world pass -------------------------------------------------
def _fig8_messages(mode: str, size: int, per_rank: int, ranks: int = 4) -> list[Message]:
    """Fig. 8's round as the event loop's message list, rank-major."""
    lanes = {
        "single-4tni": lambda r, i: (0, r),
        "single-6tni": lambda r, i: (0, i % 6),
        "parallel-6tni": lambda r, i: (i % 6, i % 6),
    }[mode]
    return [
        Message(size, 1, rank=r, thread=lanes(r, i)[0], tni=lanes(r, i)[1])
        for r in range(ranks)
        for i in range(per_rank)
    ]


class TestFig8:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"per_rank": 40, "sizes": (256,),
              "params": FUGAKU.evolve(vcq_switch_overhead=2 * FUGAKU.vcq_switch_overhead)}],
        ids=["figure", "sensitivity-sized"],
    )
    def test_every_completion_equals_the_event_loop(self, kwargs):
        per_rank = kwargs.get("per_rank", 200)
        params = kwargs.get("params", FUGAKU)
        res = fig8.compute(**kwargs)
        n = 4 * per_rank
        for mode in fig8.MODES:
            for k, size in enumerate(res.sizes):
                t = simulate_round(
                    _fig8_messages(mode, size, per_rank), UtofuStack(params=params), params
                ).completion_time
                assert res.rates[mode][k] == n / t / 1e6
                assert res.bandwidths[mode][k] == n * size / t / 1e9

    def test_under_the_tracer_the_event_loop_prices_it(self):
        plain = fig8.compute(per_rank=10, sizes=(8, 256))
        with tracing() as tracer:
            traced = fig8.compute(per_rank=10, sizes=(8, 256))
        assert traced.rates == plain.rates and traced.bandwidths == plain.bandwidths
        assert any(s.name == "vcq-switch" for s in tracer.spans_with(cat="vcq"))
