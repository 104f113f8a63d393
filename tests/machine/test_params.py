"""Machine-parameter invariants, including the calibration orderings the
paper's analysis depends on."""

import pytest

from repro.machine import FUGAKU, MachineParams


class TestShape:
    def test_cores_per_node_is_48(self):
        assert FUGAKU.cores_per_node == 48

    def test_threads_per_rank_is_12_at_4_ranks(self):
        assert FUGAKU.threads_per_rank == 12

    def test_six_tnis(self):
        assert FUGAKU.tnis_per_node == 6

    def test_nine_cqs_per_tni(self):
        assert FUGAKU.cqs_per_tni == 9

    def test_peak_flops_is_about_3_tflops(self):
        # 48 cores x 2 GHz x 32 dp flops = 3.07 TF (paper: 537 PF / 158976
        # nodes = 3.38 TF at boost clock; nominal clock is fine).
        assert 2.5e12 < FUGAKU.node_peak_flops < 4e12


class TestCalibrationOrderings:
    """The inequalities the paper's story rests on."""

    def test_utofu_injection_much_smaller_than_mpi(self):
        # Fig. 6's premise: T_inj(MPI) >> T_inj(uTofu).
        assert FUGAKU.mpi_t_inj > 8 * FUGAKU.utofu_t_inj

    def test_threadpool_cheaper_than_openmp(self):
        # Section 3.3: 1.1 us vs 5.8 us, paper-measured.
        assert FUGAKU.threadpool_fork_join == pytest.approx(1.1e-6)
        assert FUGAKU.openmp_fork_join == pytest.approx(5.8e-6)

    def test_rdma_put_latency_matches_paper(self):
        assert FUGAKU.rdma_put_latency == pytest.approx(0.49e-6)

    def test_link_bandwidth_matches_paper(self):
        assert FUGAKU.link_bandwidth == pytest.approx(6.8e9)


class TestCostFunctions:
    def test_registration_cost_grows_with_pages(self):
        small = FUGAKU.registration_cost(100)
        large = FUGAKU.registration_cost(100 * FUGAKU.page_size)
        assert large > small > 0

    def test_registration_cost_has_kernel_trap_floor(self):
        assert FUGAKU.registration_cost(0) == pytest.approx(FUGAKU.registration_base)

    def test_wire_time_monotone_in_size(self):
        assert FUGAKU.wire_time(1024, 1) > FUGAKU.wire_time(8, 1)

    def test_wire_time_monotone_in_hops(self):
        assert FUGAKU.wire_time(64, 3) > FUGAKU.wire_time(64, 1)

    def test_wire_time_first_hop_free_of_hop_latency(self):
        # Pipelining: hop latency applies to hops beyond the first.
        t0 = FUGAKU.wire_time(64, 0)
        t1 = FUGAKU.wire_time(64, 1)
        assert t0 == pytest.approx(t1)

    def test_wire_time_rejects_negative_hops(self):
        with pytest.raises(ValueError):
            FUGAKU.wire_time(64, -1)


class TestEvolve:
    def test_evolve_returns_new_instance(self):
        p2 = FUGAKU.evolve(ranks_per_node=2)
        assert p2.ranks_per_node == 2
        assert FUGAKU.ranks_per_node == 4
        assert isinstance(p2, MachineParams)

    def test_evolve_threads_per_rank_updates(self):
        p2 = FUGAKU.evolve(ranks_per_node=2)
        assert p2.threads_per_rank == 24
