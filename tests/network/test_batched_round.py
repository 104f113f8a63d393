"""Bit-equality of the cumsum-batched round against the event loop.

``simulate_round`` dispatches to ``_simulate_round_batched`` whenever
faults and observability are off; the whole point of that fast path is
that no caller can tell.  These tests run identical message lists down
both paths (the event loop is forced by enabling the tracer, whose
per-round spans must not change any returned number) and require exact
float equality of completion times, injection ends, arrivals, thread
clocks and TNI-engine state.

``simulate_owned_rounds`` prices many independent rounds at once when
every injection stream owns its TNI engine; it must equal
``NetworkSimulator.run_round`` row by row and refuse everything else.
"""

import numpy as np
import pytest

from repro.faults import FAULTS, FaultPlan, FaultSpec
from repro.machine import FUGAKU
from repro.network import Message, MpiStack, NetworkSimulator, UtofuStack, simulate_round
from repro.network.simulator import (
    Resource,
    _simulate_round_batched,
    simulate_owned_rounds,
)
from repro.obs.trace import tracing


def _rounds(seed: int, stack_cls):
    """A few chained rounds of irregular messages on shared state."""
    rng = np.random.default_rng(seed)
    rounds = []
    for _ in range(3):
        msgs = []
        for _ in range(int(rng.integers(1, 30))):
            msgs.append(
                Message(
                    nbytes=int(rng.choice([8, 64, 1024, 40_000, 2_000_000])),
                    hops=int(rng.integers(1, 5)),
                    rank=int(rng.integers(0, 4)),
                    thread=int(rng.integers(0, 3)),
                    tni=0,  # per-stream TNI uniformity (batched precondition)
                    known_length=bool(rng.integers(0, 2)),
                )
            )
        rounds.append(msgs)
    return rounds


def _drive(rounds, stack, force_event_loop: bool):
    clocks: dict = {}
    engines: dict = {}
    results = []
    t = 0.0
    for msgs in rounds:
        if force_event_loop:
            with tracing():
                r = simulate_round(msgs, stack, FUGAKU, t, clocks, engines)
        else:
            r = simulate_round(msgs, stack, FUGAKU, t, clocks, engines)
        results.append(r)
        t = r.completion_time
    return results, clocks, engines


def _engine_state(engines):
    return {
        tni: (e.busy_until, e.busy_time, e.grants) for tni, e in engines.items()
    }


class TestBatchedBitEquality:
    @pytest.mark.parametrize("stack_cls", [UtofuStack, MpiStack])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_chained_rounds_identical(self, stack_cls, seed):
        stack = stack_cls()
        rounds = _rounds(seed, stack_cls)
        fast, fc, fe = _drive(rounds, stack, force_event_loop=False)
        slow, sc, se = _drive(rounds, stack, force_event_loop=True)
        for f, s in zip(fast, slow):
            assert f.completion_time == s.completion_time
            assert f.last_injection == s.last_injection
            assert f.arrivals == s.arrivals
            assert f.wire_messages == s.wire_messages
        assert fc == sc
        assert _engine_state(fe) == _engine_state(se)

    def test_results_are_python_floats(self):
        """No np.float64 may leak into clocks or results (repr stability)."""
        stack = UtofuStack()
        clocks: dict = {}
        engines: dict = {}
        r = simulate_round(
            [Message(64, thread=0, tni=0)] * 5, stack, FUGAKU, 0.0, clocks, engines
        )
        assert type(r.completion_time) is float
        assert all(type(a) is float for a in r.arrivals)
        assert all(type(v) is float for v in clocks.values())


class TestBatchedFallback:
    def test_multi_tni_stream_falls_back(self):
        """A thread hopping TNIs pays VCQ switching: batched must refuse."""
        stack = UtofuStack()
        msgs = [Message(64, thread=0, tni=i % 2) for i in range(6)]
        assert _simulate_round_batched(msgs, stack, FUGAKU, 0.0, {}, {}) is None
        # ... and the dispatching entry point still prices the switch.
        hop = simulate_round(msgs, stack, FUGAKU).completion_time
        flat = simulate_round(
            [Message(64, thread=0, tni=0) for _ in range(6)], stack, FUGAKU
        ).completion_time
        assert hop > flat

    def test_fallback_leaves_state_untouched(self):
        """A refused batch must not have half-updated the clocks."""
        stack = UtofuStack()
        clocks = {(0, 0): 5.0}
        engines = {0: Resource("tni0")}
        msgs = [Message(64, rank=0, thread=0, tni=i % 2) for i in range(4)]
        assert _simulate_round_batched(msgs, stack, FUGAKU, 0.0, clocks, engines) is None
        assert clocks == {(0, 0): 5.0}
        assert engines[0].grants == 0

    def test_mpi_unknown_length_falls_back_to_event_loop(self):
        """Two-wire-message protocols are priced by the event loop only."""
        stack = MpiStack()
        msgs = [Message(64, known_length=False)]
        assert stack.protocol_message_count(64, False) == 2
        batched = _simulate_round_batched(msgs, stack, FUGAKU, 0.0, {}, {})
        assert batched is None
        assert simulate_round(msgs, stack, FUGAKU).wire_messages == 2

    def test_empty_round(self):
        stack = UtofuStack()
        r = simulate_round([], stack, FUGAKU, start_time=2.5)
        assert r.completion_time == 2.5
        assert r.arrivals == []


# -- many independent rounds in one pass ------------------------------------
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


def _run_round_per_row(nbytes, hops, thread, tni, stack, known=True):
    return [
        NetworkSimulator(stack, FUGAKU).run_round(
            [
                Message(int(b), int(h), rank=r, thread=int(t), tni=int(e), known_length=known)
                for b, h, t, e in zip(nbytes[r], hops[r], thread[r], tni[r])
            ]
        ).completion_time
        for r in range(nbytes.shape[0])
    ]


class TestOwnedRounds:
    @pytest.mark.parametrize("stack_cls", [UtofuStack, MpiStack])
    @pytest.mark.parametrize("n_threads", [1, 3, 6])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_run_round_per_row(self, stack_cls, n_threads, seed):
        stack = stack_cls()
        case = _owned_rounds(seed, n_threads=n_threads)
        got = simulate_owned_rounds(*case, stack, FUGAKU)
        assert got == _run_round_per_row(*case, stack)
        assert all(type(t) is float for t in got)

    def test_unknown_length_is_fine_on_single_message_protocols(self):
        stack = UtofuStack()
        case = _owned_rounds(4)
        got = simulate_owned_rounds(*case, stack, FUGAKU, known_length=False)
        assert got == _run_round_per_row(*case, stack, known=False)

    def test_no_messages(self):
        empty = np.zeros((4, 0), dtype=np.int64)
        assert simulate_owned_rounds(empty, empty, empty, empty, UtofuStack()) == [0.0] * 4

    def test_refuses_a_stream_changing_tni(self):
        nbytes, hops, thread, tni = _owned_rounds(5, n_threads=1)
        tni[2, 7] = 3  # thread 0 hops to another VCQ mid-round
        assert simulate_owned_rounds(nbytes, hops, thread, tni, UtofuStack()) is None

    def test_refuses_two_streams_on_one_tni(self):
        nbytes, hops, thread, tni = _owned_rounds(6, n_threads=3)
        thread[0, :2] = (0, 1)
        tni[0] = 0  # every stream of round 0 queues on one engine
        assert simulate_owned_rounds(nbytes, hops, thread, tni, UtofuStack()) is None

    def test_refuses_multi_message_protocols(self):
        case = _owned_rounds(7)
        assert simulate_owned_rounds(*case, MpiStack(), known_length=False) is None

    def test_refuses_under_the_tracer(self):
        with tracing():
            assert simulate_owned_rounds(*_owned_rounds(8), UtofuStack()) is None

    def test_refuses_under_a_network_fault_session(self):
        plan = FaultPlan(faults=(FaultSpec(kind="tni-stall", stall=1e-6, probability=0.5),))
        with FAULTS.inject(plan):
            assert simulate_owned_rounds(*_owned_rounds(9), UtofuStack()) is None

    def test_refuses_stacks_without_vector_hooks(self):
        class ScalarOnly(UtofuStack):
            injection_intervals = None

        assert simulate_owned_rounds(*_owned_rounds(10), ScalarOnly()) is None
