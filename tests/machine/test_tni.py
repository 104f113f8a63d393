"""TNI / CQ / VCQ ownership-rule tests (paper Fig. 7)."""

import pytest

from repro.machine import NodeNIC, TNI
from repro.machine.tni import TNIAllocationError


@pytest.fixture
def nic():
    return NodeNIC()


class TestTNI:
    def test_one_cq_per_rank_per_tni(self):
        tni = TNI(0)
        tni.allocate_cq(rank=0)
        with pytest.raises(TNIAllocationError):
            tni.allocate_cq(rank=0)

    def test_nine_cqs_exhaust(self):
        tni = TNI(0)
        for r in range(9):
            tni.allocate_cq(rank=r)
        with pytest.raises(TNIAllocationError):
            tni.allocate_cq(rank=99)

    def test_owner_tracking(self):
        tni = TNI(0)
        cq = tni.allocate_cq(rank=7)
        assert tni.owner_of(cq.index) == 7
        assert tni.owner_of(8) is None


class TestFineBinding:
    def test_24_cqs_for_4_ranks(self, nic):
        """The paper's key count: 4 ranks x 6 TNIs = 24 individual CQs."""
        vcqs = nic.bind_fine([0, 1, 2, 3])
        assert nic.cqs_in_use() == 24
        for r in range(4):
            assert len(vcqs[r]) == 6
            assert [v.tni for v in vcqs[r]] == list(range(6))

    def test_each_thread_owns_distinct_vcq(self, nic):
        vcqs = nic.bind_fine([0])
        threads = [v.thread for v in vcqs[0]]
        assert threads == list(range(6))

    def test_fine_binding_respects_cq_exclusivity(self, nic):
        nic.bind_fine([0])
        with pytest.raises(TNIAllocationError):
            nic.bind_fine([0])  # rank 0 already owns a CQ on every TNI

    def test_vcqs_of_query(self, nic):
        nic.bind_fine([3])
        assert len(nic.vcqs_of(3)) == 6
        assert nic.vcqs_of(9) == []


class TestTime:
    def test_reset_time(self, nic):
        nic.tnis[0].busy_until = 5.0
        nic.reset_time()
        assert all(t.busy_until == 0.0 for t in nic.tnis)
