"""Slot recycling on the struct-of-arrays core.

A reaped slot returns to the core's free list with the generation its
occupant's exit bumped, and the next admission reuses it. Keeping that
generation is what makes every tagged ref minted for the old occupant
stale: zeroing it on recycle would let such a ref alias the newcomer.
Neither differential oracle sees that bug (both cores agree on every
pid-level observable), so these tests pin the slot bookkeeping itself.
"""

from __future__ import annotations

import pytest

from repro.core.fdp import FDPProcess
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.errors import SlotRecycleOverflow
from repro.graphs import generators as gen
from repro.sim.refs import REF_GEN_BITS
from repro.sim.states import Mode, PState


def _departed_engine():
    """An n=12 FDP run on the core, driven until every leaver is gone."""
    n = 12
    edges = gen.random_connected(n, n // 2, seed=3)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=3)
    engine = build_fdp_engine(
        n,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        seed=3,
        engine_mode="soa",
    )
    assert engine.run(50_000, until=fdp_legitimate, check_every=16)
    assert engine.core_status["active"], engine.core_status
    return engine


def _reap_one(engine) -> int:
    """Reap the lowest reapable gone pid; return the slot it freed."""
    core = engine._core
    pid = next(
        p
        for p in sorted(engine.processes)
        if engine.processes[p].state is PState.GONE and engine.can_reap(p)
    )
    slot = core.slot_of[pid]
    engine.reap(pid)
    assert core.free_slots[-1] == slot
    return slot


def _newcomer(engine) -> FDPProcess:
    contact = min(
        p for p, proc in engine.processes.items() if proc.mode is Mode.STAYING
    )
    return FDPProcess(
        max(engine.processes) + 100,
        Mode.STAYING,
        neighbors=[engine.processes[contact].self_ref],
    )


def test_recycled_slot_keeps_exit_generation():
    engine = _departed_engine()
    core = engine._core
    slot = _reap_one(engine)
    exit_gen = core.gen_[slot]
    assert exit_gen >= 1, "exit must have bumped the slot's generation"
    proc = _newcomer(engine)
    engine.admit(proc)
    assert engine._core is core  # still on the same core, not a rebuild
    assert core.slot_of[proc.pid] == slot
    assert core.gen_[slot] == exit_gen


def test_exhausted_generation_refuses_recycle():
    engine = _departed_engine()
    core = engine._core
    slot = _reap_one(engine)
    core.gen_[slot] = 1 << REF_GEN_BITS
    with pytest.raises(SlotRecycleOverflow):
        engine.admit(_newcomer(engine))
    status = engine.core_status
    assert not status["active"]
    assert status["reason"] == "slot generation space exhausted"
