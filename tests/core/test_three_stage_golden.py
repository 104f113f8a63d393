"""Exchange outputs, pinned as digests taken before the code that makes them changed.

``golden_three_stage.json`` was written by this module's ``--write``
entry point at the last commit whose ``ThreeStageExchange`` had its own
per-swap send/recv bodies; the exchange has ridden the shared plan
replay since, and must reproduce every digest bit for bit.
``golden_p2p.json`` was written the same way for the p2p family at the
last commit whose border stage built ``SendRoute`` / ``RecvRoute``
objects (``--write-p2p``; the 3-stage file stays byte-unchanged).  Only
exchange-level outputs are hashed — gathers, IEEE adds and sequential
``bincount`` sums, so the digests do not depend on the platform — and
float arrays as ``arr + 0.0`` (``-0.0 == 0.0``, as every bit-identity
test here treats it).

Regenerate (only when the *inputs* below change, never to absorb a
behaviour change)::

    PYTHONPATH=src python tests/core/test_three_stage_golden.py --write
    PYTHONPATH=src python tests/core/test_three_stage_golden.py --write-p2p
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import FineGrainedP2PExchange, P2PExchange, ThreeStageExchange
from repro.md import Box, Domain
from repro.md.atoms import Atoms
from repro.md.lattice import fcc_lattice
from repro.runtime import World
from tests._world_arrays import scalar_phase

GOLDEN = Path(__file__).with_name("golden_three_stage.json")
GOLDEN_P2P = Path(__file__).with_name("golden_p2p.json")

#: name -> (grid, atoms, box edge, rcomm, radius); atoms == "fcc" is the
#: `lj-3stage-27r` ledger shape (864 atoms, sub-box 3.36 < 2 x rcomm, so
#: one atom rides both swaps of a dimension).
SHAPES = {
    "27r-lj": ((3, 3, 3), "fcc", 10.08, 2.8, 1),
    "8r": ((2, 2, 2), 300, 12.0, 2.0, 1),
    "12r-radius2": ((3, 2, 2), 600, 12.0, 1.5, 2),  # empty repetition swaps
    "16r-long-cutoff": ((4, 2, 2), 400, 12.0, 3.5, 2),  # rcomm > sub-box edge
    "self-neighbour": ((2, 1, 1), 200, 12.0, 2.0, 1),
    "sparse": ((2, 2, 2), 6, 12.0, 2.0, 1),  # ranks with nothing to send
}

#: name -> (class, newton, rdma, grid, atoms, box edge, rcomm, radius); the
#: "fcc" rows are the `lj-strong-27r` ledger shape (r_comm = 0.83 a).
P2P_SHAPES = {
    "p2p-half13": (P2PExchange, True, False, (3, 3, 3), "fcc", 10.08, 2.8, 1),
    "p2p-full26": (P2PExchange, False, False, (3, 3, 3), "fcc", 10.08, 2.8, 1),
    "p2p-half13-rdma": (P2PExchange, True, True, (3, 3, 3), "fcc", 10.08, 2.8, 1),
    "p2p-full26-rdma": (P2PExchange, False, True, (3, 3, 3), "fcc", 10.08, 2.8, 1),
    "parallel-half13-rdma": (FineGrainedP2PExchange, True, True, (3, 3, 3), "fcc", 10.08, 2.8, 1),
    "parallel-full26": (FineGrainedP2PExchange, False, False, (3, 3, 3), 500, 12.0, 2.0, 1),
    # the +1 and -1 neighbours of an axis are one rank: only tags tell routes apart
    "repeated-peers": (P2PExchange, True, False, (2, 2, 2), 300, 12.0, 2.0, 1),
    "repeated-peers-rdma": (FineGrainedP2PExchange, True, True, (2, 2, 2), 300, 12.0, 5.5, 1),
    "radius2": (P2PExchange, True, False, (4, 2, 2), 400, 12.0, 3.5, 2),  # rcomm > sub-box edge
    "radius2-full-rdma": (P2PExchange, False, True, (3, 2, 2), 600, 12.0, 1.5, 2),
    "sparse": (P2PExchange, True, False, (2, 2, 2), 6, 12.0, 2.0, 1),  # ranks with nothing to send
}


def _exchange(name: str):
    if name in SHAPES:
        grid, natoms, edge, rcomm, radius = SHAPES[name]
        seed = sorted(SHAPES).index(name)
        make = lambda world, domain: ThreeStageExchange(  # noqa: E731
            world, domain, rcomm=rcomm, radius=radius
        )
    else:
        cls, newton, rdma, grid, natoms, edge, rcomm, radius = P2P_SHAPES[name]
        seed = 100 + sorted(P2P_SHAPES).index(name)
        make = lambda world, domain: cls(  # noqa: E731
            world, domain, rcomm, newton=newton, radius=radius, rdma=rdma
        )
    rng = np.random.default_rng(seed)
    box = Box((0, 0, 0), (edge,) * 3)
    if natoms == "fcc":
        x, _ = fcc_lattice((6, 6, 6), edge / 6)
        x = box.wrap(x + (rng.random(x.shape) - 0.5) * 0.2)
    else:
        x = rng.random((natoms, 3)) * edge
    world = World(int(np.prod(grid)), grid=grid)
    domain = Domain(box, grid)
    groups = domain.scatter(x)
    for rank in range(world.size):
        idx = groups.get(world.grid_pos_of(rank), np.empty(0, dtype=np.intp))
        atoms = Atoms()
        atoms.set_local(
            x[idx], np.zeros((idx.size, 3)), idx.astype(np.int64), (idx % 3).astype(np.int32)
        )
        world.ranks[rank].state["atoms"] = atoms
    return make(world, domain), seed


class _Digest:
    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            if isinstance(value, np.ndarray):
                if value.dtype.kind == "f":
                    value = value + 0.0
                self._h.update(f"{value.dtype.str}{value.shape}".encode())
                self._h.update(np.ascontiguousarray(value).tobytes())
            else:
                self._h.update(repr(value).encode())

    def hex(self) -> str:
        return self._h.hexdigest()


def _plain(tag: tuple) -> tuple:
    return tuple(int(t) if isinstance(t, (int, np.integer)) else t for t in tag)


def routes_of(ex, rank: int) -> tuple[list[tuple], list[tuple]]:
    """``rank``'s ``(peer, send_idx, shift, tag, hops)`` per send route and
    ``(peer, start, count, tag, hops)`` per recv route, in route order."""
    plan = ex._epoch.plans[rank]
    sends, recvs = [], []
    for k, geom in enumerate(plan.geom):  # a route is static geometry x the epoch's bounds
        for (peer, lo, hi, tag), shift, hops in zip(plan.sends(k), geom.shifts, geom.send_hops):
            sends.append((peer, plan.fwd_idx[lo:hi], shift, tag, hops))
        for (peer, lo, hi, tag), hops in zip(plan.recvs(k), geom.recv_hops):
            recvs.append((peer, lo, hi - lo, tag, hops))
    return sends, recvs


def digests(name: str) -> dict[str, str]:
    """Section -> SHA-256 of everything the exchange produced for it."""
    ex, seed = _exchange(name)
    world = ex.world
    ranks = range(world.size)
    rng = np.random.default_rng(1000 + seed)
    out: dict[str, str] = {}

    ex.borders()
    d = _Digest()
    for r in ranks:
        a = ex.atoms_of(r)
        d.add(a.nlocal, a.x[a.nlocal :], a.tag[a.nlocal :], a.type[a.nlocal :])
    out["borders"] = d.hex()

    d = _Digest()
    for r in ranks:
        sends, recvs = routes_of(ex, r)
        for peer, send_idx, shift, tag, hops in sends:
            d.add(int(peer), send_idx.astype(np.int64), shift, _plain(tag), int(hops))
        for peer, start, count, tag, hops in recvs:
            d.add(int(peer), int(start), int(count), _plain(tag), int(hops))
    out["routes"] = d.hex()

    d = _Digest()
    for r in ranks:
        a = ex.atoms_of(r)
        a.x_local()[:] += (rng.random((a.nlocal, 3)) - 0.5) * 0.02
    ex.forward()
    for r in ranks:
        d.add(ex.atoms_of(r).x)
    out["forward"] = d.hex()

    d = _Digest()
    for r in ranks:
        a = ex.atoms_of(r)
        a.f[:] = rng.random((a.ntotal, 3)) - 0.5
    ex.reverse()
    for r in ranks:
        d.add(ex.atoms_of(r).f)
    out["reverse"] = d.hex()

    d = _Digest()
    scalars = {r: rng.random(ex.atoms_of(r).ntotal) for r in ranks}
    scalar_phase(ex.forward_scalar_world, scalars)
    for r in ranks:
        d.add(scalars[r])
    out["scalar_forward"] = d.hex()

    d = _Digest()
    scalars = {r: rng.random(ex.atoms_of(r).ntotal) for r in ranks}
    scalar_phase(ex.reverse_sum_scalar_world, scalars)
    for r in ranks:
        d.add(scalars[r])
    out["scalar_reverse"] = d.hex()

    d = _Digest()
    for m in world.transport.log.messages:
        d.add((int(m.src), int(m.dst), _plain(m.tag), int(m.nbytes), m.phase))
    out["traffic"] = d.hex()
    world.transport.assert_drained()
    return out


@pytest.mark.parametrize("name", list(SHAPES))
def test_matches_pre_round_table_digests(name):
    golden = json.loads(GOLDEN.read_text())
    assert digests(name) == golden[name]


@pytest.mark.parametrize("name", list(P2P_SHAPES))
def test_p2p_matches_route_object_digests(name):
    golden = json.loads(GOLDEN_P2P.read_text())
    assert digests(name) == golden[name]


@pytest.mark.parametrize("name", [*SHAPES, *P2P_SHAPES])
def test_epoch_arrays_partition_tile_and_pair(name):
    """What a border stage writes, for every golden shape: per round the
    send bounds partition the gather rows, the recv bounds tile ``[nlocal,
    ntotal)`` in landing order, and every static send<->recv pairing moves
    as many rows as it lands.  And the world tables built from them: per
    round the forward table lands on exactly each rank's landing span, in
    order, from the rows (and with the shifts) the rank-by-rank replay
    sends there; the reverse table is the ranks' packed orders
    concatenated, ``packed_at`` where each rank's block of it starts;
    ``owned`` is ``rows < scatter_len`` of every slab that
    sends in the round."""
    ex, _ = _exchange(name)
    ex.borders()
    plans = ex._epoch.plans
    for rank, plan in enumerate(plans):
        atoms = ex.atoms_of(rank)
        sb, rb = plan.send_bounds, plan.recv_bounds
        assert sb[0] == 0 and sb[-1] == len(plan.fwd_idx) == len(plan.shift_rows)
        assert rb[0] == atoms.nlocal and rb[-1] == atoms.ntotal
        assert (np.diff(sb) >= 0).all() and (np.diff(rb) >= 0).all()
        s = r = 0
        for k, (geom, rnd) in enumerate(zip(plan.geom, plan.rounds)):
            assert (rnd.sends.start, rnd.recvs.start) == (s, r)
            s, r = s + len(geom.send_peers), r + len(geom.recv_peers)
            assert (rnd.sends.stop, rnd.recvs.stop) == (s, r)
            assert rnd.rows == slice(sb[rnd.sends.start], sb[s])
            # a round sends only rows present before its own ghosts land
            assert rnd.scatter_len == rb[rnd.recvs.start]
            assert (rnd.idx < rnd.scatter_len).all()
            for (src, lo, hi, tag), slot in zip(plan.recvs(k), geom.recv_slots):
                peer, start, stop, sent_tag = list(plans[src].sends(k))[slot]
                assert (peer, sent_tag, stop - start) == (rank, tag, hi - lo)
        assert (s, r) == (len(sb) - 1, len(rb) - 1)

    arena, world = ex.arena, ex._epoch.world
    starts = [atoms.start for atoms in arena.members]
    assert arena.members == [ex.atoms_of(rank) for rank in range(len(plans))]
    assert world is not None and len(world) == ex.n_rounds
    for k, table in enumerate(world):
        # forward, destination order: each rank's landing span, tiled by the
        # stage; every block the sender's rows + slab start, its shift rows
        none = np.empty(0, dtype=np.intp)  # a round may move nothing at all
        dst_rows, src_rows, shifts = [none], [none], [np.empty((0, 3))]
        for rank, plan in enumerate(plans):
            for (src, lo, hi, _), slot in zip(plan.recvs(k), plan.geom[k].recv_slots):
                _, start, stop, _ = list(plans[src].sends(k))[slot]
                dst_rows.append(np.arange(lo, hi) + starts[rank])
                src_rows.append(plans[src].fwd_idx[start:stop] + starts[src])
                shifts.append(plans[src].shift_rows[start:stop])
        landed = [none, *(np.arange(lo, hi) for lo, hi, _, _ in table.spans)]
        staged = [none, *(np.arange(a, b) for _, _, a, b in table.spans)]
        assert np.array_equal(np.concatenate(landed), np.concatenate(dst_rows))
        assert np.array_equal(np.concatenate(staged), np.arange(len(table.src_rows)))
        assert np.array_equal(table.src_rows, np.concatenate(src_rows))
        assert np.array_equal(table.shifts, np.concatenate(shifts))
        for rank, plan in enumerate(plans):
            rb, rnd = plan.recv_bounds, plan.rounds[k]
            span = (starts[rank] + rb[rnd.recvs.start], starts[rank] + rb[rnd.recvs.stop])
            assert (span in [s[:2] for s in table.spans]) == (span[1] > span[0])
        # reverse and the carrying planes' pack, source-packed order:
        # rank-major, each rank's packed rows of the round
        assert np.array_equal(
            table.bins,
            np.concatenate([plan.rounds[k].idx + starts[r] for r, plan in enumerate(plans)]),
        )
        assert np.array_equal(
            table.pack_shifts, np.concatenate([plan.rounds[k].shifts for plan in plans])
        )
        at = 0
        for rank, plan in enumerate(plans):
            rows = plan.rounds[k].rows
            assert table.packed_at[rank] + rows.start == at
            at += rows.stop - rows.start
        ghost_of = {}  # (source rank, packed row) -> the arena ghost row it became
        for rank, plan in enumerate(plans):
            for (src, lo, hi, _), slot in zip(plan.recvs(k), plan.geom[k].recv_slots):
                _, start, stop, _ = list(plans[src].sends(k))[slot]
                for i in range(stop - start):
                    ghost_of[src, start + i] = starts[rank] + lo + i
        packed = [
            (r, row)
            for r, plan in enumerate(plans)
            for row in range(plan.rounds[k].rows.start, plan.rounds[k].rows.stop)
        ]
        assert table.ghost_rows.tolist() == [ghost_of[key] for key in packed]
        owned = np.zeros(arena.rows, dtype=bool)
        for rank, plan in enumerate(plans):
            if plan.rounds[k].idx.size:
                owned[starts[rank] : starts[rank] + plan.rounds[k].scatter_len] = True
        assert np.array_equal(table.owned, owned)


def traced_event_classes(path: Path) -> dict[str, int]:
    """Event multiset of a traced 5-step ``--pattern 3stage`` CLI run,
    keyed by ``(name, cat, ph, sorted arg keys)``."""
    from repro.cli import main
    from repro.obs.metrics import METRICS

    METRICS.reset()  # instruments an earlier run left would export as counter tracks
    argv = "--atoms 256 --ranks 2 2 2 --steps 5 --pattern 3stage --model-time --trace"
    assert main([*argv.split(), str(path)]) == 0
    classes: dict[str, int] = {}
    for event in json.loads(path.read_text())["traceEvents"]:
        key = repr(
            (event.get("name"), event.get("cat"), event.get("ph"), sorted(event.get("args", {})))
        )
        classes[key] = classes.get(key, 0) + 1
    return classes


def test_traced_run_event_multiset(tmp_path, capsys):
    """What a traced 3-stage run records — the mailbox plane's per-message
    instants, the ``swap{k}`` spans, the staged pricer's ``barrier`` model
    spans — is what it recorded before: 2851 events in 28 classes."""
    classes = traced_event_classes(tmp_path / "run.trace.json")
    capsys.readouterr()
    assert sum(classes.values()) == 2851
    assert classes == json.loads(GOLDEN.read_text())["traced-cli-run"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-p2p"]:
        GOLDEN_P2P.write_text(
            json.dumps({name: digests(name) for name in P2P_SHAPES}, indent=1) + "\n"
        )
        print(f"wrote {GOLDEN_P2P}")
        sys.exit(0)
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    import tempfile

    golden = {name: digests(name) for name in SHAPES}
    with tempfile.TemporaryDirectory() as tmp:
        golden["traced-cli-run"] = traced_event_classes(Path(tmp) / "run.trace.json")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
