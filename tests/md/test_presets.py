"""Table 2 preset tests."""

import numpy as np
import pytest

from repro.md import LennardJones
from repro.md.potentials import SuttonChenEAM
from repro.md.presets import EAM_BENCH, LJ_BENCH, PRESETS


class TestTable2Values:
    def test_lj_column(self):
        assert LJ_BENCH.units == "lj"
        assert LJ_BENCH.lattice_value == pytest.approx(0.8442)
        assert LJ_BENCH.cutoff == 2.5
        assert LJ_BENCH.skin == 0.3
        assert LJ_BENCH.dt == 0.005
        assert LJ_BENCH.neigh_every == 20
        assert not LJ_BENCH.neigh_check
        assert LJ_BENCH.newton

    def test_eam_column(self):
        assert EAM_BENCH.units == "metal"
        assert EAM_BENCH.lattice_value == pytest.approx(3.615)
        assert EAM_BENCH.cutoff == 4.95
        assert EAM_BENCH.skin == 1.0
        assert EAM_BENCH.neigh_every == 5
        assert EAM_BENCH.neigh_check

    def test_potentials(self):
        assert isinstance(LJ_BENCH.potential(), LennardJones)
        assert isinstance(EAM_BENCH.potential(), SuttonChenEAM)

    def test_registry(self):
        assert set(PRESETS) == {"lj", "eam"}


class TestBuilders:
    def test_lj_density(self):
        x, v, box = LJ_BENCH.build_system((4, 4, 4))
        assert x.shape[0] / box.volume == pytest.approx(0.8442)

    def test_eam_lattice_constant(self):
        x, v, box = EAM_BENCH.build_system((3, 3, 3))
        assert box.lengths[0] == pytest.approx(3 * 3.615)

    def test_zero_temperature_zero_velocities(self):
        x, v, _ = LJ_BENCH.build_system((3, 3, 3), temperature=0.0)
        assert np.all(v == 0.0)

    def test_config_reflects_preset(self):
        cfg = EAM_BENCH.config(pattern="p2p", rdma=False)
        assert cfg.neighbor_check
        assert cfg.neighbor_every == 5
        assert cfg.pattern == "p2p"

    def test_config_overrides(self):
        cfg = LJ_BENCH.config(thermo_every=50)
        assert cfg.thermo_every == 50

    def test_simulation_end_to_end(self):
        sim = LJ_BENCH.simulation((4, 4, 4), grid=(2, 2, 1), pattern="p2p")
        sim.run(5)
        sample = sim.sample_thermo()
        assert np.isfinite(sample.total_energy)
        assert sample.potential < 0  # cohesive liquid

    def test_eam_simulation_end_to_end(self):
        sim = EAM_BENCH.simulation((3, 3, 3), grid=(1, 1, 1))
        sim.run(3)
        assert sim.sample_thermo().total_energy < 0  # cohesive
