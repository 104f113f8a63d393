"""Thread-pool vs OpenMP overhead models and LPT load balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import FUGAKU
from repro.runtime import OpenMPModel, ThreadPoolModel, WorkItem, split_load
from repro.runtime.threadpool import lpt_bins, lpt_rows, makespan


class TestSplitLoad:
    def test_balances_heterogeneous_items(self):
        """Fig. 10's scenario: 13 messages with very different costs over
        6 threads — LPT keeps the bottleneck near the mean."""
        costs = [9.0, 9.0, 9.0] + [3.0] * 6 + [1.0] * 4  # faces/edges/corners
        bins = split_load([WorkItem(i, c) for i, c in enumerate(costs)], 6)
        loads = [sum(w.cost for w in b) for b in bins]
        assert max(loads) <= 1.34 * (sum(costs) / 6)  # LPT 4/3 bound

    def test_deterministic(self):
        items = [WorkItem(i, c) for i, c in enumerate([5.0, 3.0, 3.0, 1.0])]
        a = split_load(items, 2)
        b = split_load(items, 2)
        assert [[w.payload for w in x] for x in a] == [
            [w.payload for w in x] for x in b
        ]

    def test_all_items_assigned_once(self):
        items = [WorkItem(i, float(i % 5)) for i in range(50)]
        bins = split_load(items, 6)
        seen = sorted(w.payload for b in bins for w in b)
        assert seen == list(range(50))

    def test_fewer_items_than_threads(self):
        bins = split_load([WorkItem(0, 1.0)], 6)
        assert sum(len(b) for b in bins) == 1

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            split_load([], 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            WorkItem(0, -1.0)

    def test_makespan_empty(self):
        assert makespan([[], []]) == 0.0


# Few distinct values, zero included, so rows are full of cost ties and of
# load ties whose order of summation decides them.
COSTS = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5])


class TestRowLPT:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 15), st.integers(1, 8), st.data())
    def test_equals_lpt_bins_row_by_row(self, rows, items, n_bins, data):
        """Ties, more threads than sends, zero-length rows and no rows at
        all: every row's order and bins are lpt_bins' flattened."""
        costs = np.array(
            data.draw(
                st.lists(
                    st.lists(COSTS, min_size=items, max_size=items),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=float,
        ).reshape(rows, items)
        order, bins = lpt_rows(costs, n_bins)
        assert order.shape == bins.shape == (rows, items)
        for row, got_order, got_bins in zip(costs.tolist(), order.tolist(), bins.tolist()):
            expected = lpt_bins(row, n_bins)
            assert got_order == [i for b in expected for i in b]
            assert got_bins == [t for t, b in enumerate(expected) for _ in b]

    def test_refuses_zero_bins(self):
        with pytest.raises(ValueError):
            lpt_rows(np.ones((2, 3)), 0)


class TestOverheadModels:
    def test_paper_measured_overheads(self):
        pool = ThreadPoolModel(6)
        omp = OpenMPModel(6)
        assert pool.fork_join == pytest.approx(1.1e-6)
        assert omp.fork_join == pytest.approx(5.8e-6)

    def test_empty_region_still_pays_fork_join(self):
        pool = ThreadPoolModel(6)
        assert pool.parallel_time([]) == pytest.approx(pool.fork_join)
        assert pool.parallel_time([1e-6 * (i % 7) for i in range(13)]) >= pool.fork_join

    def test_openmp_dominates_tiny_work(self):
        """The paper's modify-stage observation: at 22 atoms the region
        overhead is ~10x the work under OpenMP."""
        work = [0.05e-6] * 22  # 22 atoms' worth of NVE arithmetic
        omp = OpenMPModel(12)
        t = omp.parallel_time(work)
        useful = max(sum(work[i::12]) for i in range(12))
        assert t > 10 * useful

    def test_threadpool_beats_openmp_on_small_work(self):
        work = [0.05e-6] * 22
        assert ThreadPoolModel(12).parallel_time(work) < OpenMPModel(12).parallel_time(
            work
        )

    def test_models_converge_for_large_balanced_work(self):
        work = [1e-6] * 1200
        tp = ThreadPoolModel(12).parallel_time(work)
        om = OpenMPModel(12).parallel_time(work)
        assert om - tp == pytest.approx(
            FUGAKU.openmp_fork_join - FUGAKU.threadpool_fork_join, rel=0.01
        )

    def test_lpt_beats_static_on_skewed_work(self):
        """Cost-aware pool scheduling vs OpenMP static round-robin."""
        work = [10e-6] + [1e-6] * 11 + [10e-6] + [1e-6] * 11
        tp = ThreadPoolModel(12).parallel_time(work)
        om = OpenMPModel(12).parallel_time(work)
        # static puts both heavy items on threads 0 and 1 round-robin --
        # actually indexes 0 and 12 -> both land on thread 0: 20us bin.
        assert om > tp

    def test_region_counters(self):
        pool = ThreadPoolModel(4)
        pool.parallel_time([1.0])
        pool.parallel_time([1.0])
        assert pool.parallel_regions == 2

    def test_amdahl_helper(self):
        pool = ThreadPoolModel(12)
        s = pool.serial_fraction_speedup(total_work=120e-6, serial_work=0.0)
        assert 9 < s <= 12
        assert pool.serial_fraction_speedup(0.0, 0.0) == 1.0
