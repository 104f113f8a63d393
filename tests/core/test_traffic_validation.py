"""Cross-checks of measured exchange traffic against Table 1's formulas,
plus failure-injection tests showing the checks would catch corruption."""

import numpy as np
import pytest

from repro import LennardJones, SerialReference, quick_lj_simulation
from repro.core.ghost import stage_volumes
from repro.md.lattice import fcc_lattice, lj_density_to_cell, maxwell_velocities


class TestThreeStageTrafficShape:
    """The 3-stage message sizes must follow a^2 r < a^2 r + 2 a r^2 <
    (a + 2r)^2 r — stage growth from forwarding (Table 1 upper block)."""

    @pytest.fixture(scope="class")
    def sim(self):
        sim = quick_lj_simulation(
            cells=(10, 10, 10), ranks=(2, 2, 2), pattern="3stage", seed=99
        )
        sim.setup()
        return sim

    def test_stage_sizes_grow(self, sim):
        counts, _ = sim.exchange._epoch.plans[0].send_sizes()
        # swaps: x+, x-, y+, y-, z+, z-
        x_avg = (counts[0] + counts[1]) / 2
        y_avg = (counts[2] + counts[3]) / 2
        z_avg = (counts[4] + counts[5]) / 2
        assert x_avg < y_avg < z_avg

    def test_stage_sizes_match_formulas(self, sim):
        a = float(sim.domain.sub_lengths[0])
        r = sim.exchange.rcomm
        density = sim.natoms / sim.box.volume
        s1, s2, s3 = (v * density for v in stage_volumes(a, r))
        counts, _ = sim.exchange._epoch.plans[0].send_sizes()
        assert (counts[0] + counts[1]) / 2 == pytest.approx(s1, rel=0.15)
        assert (counts[2] + counts[3]) / 2 == pytest.approx(s2, rel=0.15)
        assert (counts[4] + counts[5]) / 2 == pytest.approx(s3, rel=0.15)

    def test_total_ghosts_match_full_shell(self, sim):
        from repro.core.ghost import full_shell_volume

        a = float(sim.domain.sub_lengths[0])
        density = sim.natoms / sim.box.volume
        expected = full_shell_volume(a, sim.exchange.rcomm) * density
        measured = np.mean([sim.atoms_of(r).nghost for r in range(8)])
        assert measured == pytest.approx(expected, rel=0.1)


class TestFailureInjection:
    """Corrupting communicated data must be *observable* — the physics
    checks these tests rely on elsewhere genuinely have teeth."""

    def _fresh_pair(self, seed=123):
        edge = lj_density_to_cell(0.8442)
        x, box = fcc_lattice((4, 4, 4), edge)
        v = maxwell_velocities(x.shape[0], 1.44, seed=seed)
        ref = SerialReference(x, v, box, LennardJones(cutoff=2.5), dt=0.005)
        sim = quick_lj_simulation(cells=(4, 4, 4), ranks=(2, 2, 2), seed=seed)
        return sim, ref

    def test_ghost_position_corruption_changes_forces(self):
        sim, ref = self._fresh_pair()
        sim.setup()
        atoms = sim.atoms_of(0)
        atoms.x[atoms.nlocal][:] += 0.05  # corrupt one ghost
        sim._compute_forces()
        assert np.abs(sim.gather_forces() - ref.f).max() > 1e-3

    def test_dropped_reverse_breaks_newton(self):
        """Skipping the reverse stage loses ghost forces: total force no
        longer sums to zero."""
        sim, _ = self._fresh_pair(seed=124)
        sim.setup()
        # melt a bit so forces are nonzero
        sim.run(5)
        # recompute forces but skip the reverse comm
        for rank in range(8):
            sim.atoms_of(rank).zero_forces()
        pot = sim.potential
        for rank in range(8):
            nl = sim.neigh_of(rank)
            pot.compute(sim.atoms_of(rank), nl.pair_i, nl.pair_j, half_list=True)
        total = np.zeros(3)
        for rank in range(8):
            total += sim.atoms_of(rank).f_local().sum(axis=0)
        assert np.abs(total).max() > 1e-6  # ghost forces stranded

    def test_wrong_shift_detected_by_pressure(self):
        """Applying a wrong PBC shift to one border route shifts ghost
        images and visibly changes the pressure."""
        sim, _ = self._fresh_pair(seed=125)
        sim.setup()
        p_good = sim.sample_thermo().pressure
        ex = sim.exchange
        arrays = [
            [plan.fwd_idx, plan.shift_rows, plan.send_bounds, plan.recv_bounds]
            for plan in ex._epoch.plans
        ]
        first = slice(*arrays[0][2][:2])
        assert arrays[0][1][first].size
        arrays[0][1][first] += 0.5  # sabotage one route's shift
        ex._epoch = ex._new_epoch(arrays)
        ex.forward()  # replays the epoch -> ghosts move wrongly
        sim._compute_forces()
        p_bad = sim.sample_thermo().pressure
        assert abs(p_bad - p_good) > 1e-6

    def test_truncated_payload_raises(self):
        """A send shorter than its paired receive is a protocol error, not
        silence: the epoch is refused when it is built."""
        sim, _ = self._fresh_pair(seed=126)
        sim.setup()
        # Shrink one send route after borders: its receiver lands one more.
        ex = sim.exchange
        installed = ex._epoch
        arrays = [
            [plan.fwd_idx, plan.shift_rows, plan.send_bounds, plan.recv_bounds]
            for plan in installed.plans
        ]
        assert arrays[0][2][1] > 1
        arrays[0][0] = np.delete(arrays[0][0], 0)
        arrays[0][1] = np.delete(arrays[0][1], 0, axis=0)
        arrays[0][2] = np.concatenate(([0], arrays[0][2][1:] - 1))
        n = int(arrays[0][2][1])
        message = rf"round 0: rank 0 sends {n} rows to rank \d+, whose paired receive lands"
        with pytest.raises(ValueError, match=rf"{message} {n + 1}$"):
            ex._new_epoch(arrays)
        assert ex._epoch is installed
