"""Golden schedules: a seed fixes the executed event sequence across commits.

``test_soa_differential`` compares the two cores of one commit with each
other; nothing there notices a change that shifts the schedule on both
cores at once (a reordered pool, an extra RNG draw, a renumbered
message). This module pins the sha256 of the first :data:`STEPS`
``(kind, pid, seq)`` events of one fixed FDP run per scheduler family.
Every engine mode must produce the pinned digest, so a refactor of the
scheduler or of either core that changes any schedule fails here.
The ``random`` family must also keep its digest with the module-level
``random`` state seeded two ways and under two patched wall clocks: the
schedule reads neither.

It also pins two populations that walk sets of ``Ref`` in hash order: a
stand-alone clique overlay and the Section 4 framework over the clique.
Their digests move when that order moves, so an ``id()``-ordered walk
fails here, and ``tests/sim/test_hash_seed.py`` recomputes the same
digests under two ``PYTHONHASHSEED`` values to catch a hash-seed-salted
one.

The events are read back at every step boundary through the ``until``
predicate (``check_every=1``) rather than through a tracer, so that
the soa core exports after every one-step batch and the digest also
covers that export path. The acting
process is the one whose timeout or delivery counter moved; a delivered
message is the one seq that left its channel (new seqs are always
fresh, so a seq missing from the previous boundary's set was consumed).
"""

from __future__ import annotations

import hashlib
import os
import random
from unittest import mock

import pytest

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_framework_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.overlays.builders import build_overlay_engine
from repro.overlays.clique import CliqueLogic

N = 16
SEED = 5
STEPS = 5000

#: sha256 of the first STEPS events per scheduler family, computed on the
#: tuple-pool scheduler that predates the packed-int pool.
GOLDEN = {
    "random": "3a77c5e3a09f62264920d264d4bc15dc1a1af51a6c11280646750b9b43f7a3c1",
    "oldest": "c38b0a0df20df232f916ee2db81b9f1fe6696c9dfc9ce08bb42637beea07f659",
    "adversarial": "3f90c26d5ea1805de9561ec700b3fe9b689f75d530ba20642902cfc4259cffb1",
    "sync": "0db989ab71e1e3473f2b7e608b6391feee46ceaed24ba91108360869b760ef2b",
}

#: the Ref-set-walking populations: size, and events pinned per run.
SET_N = 12
SET_STEPS = 3000

#: sha256 of the first SET_STEPS events of each Ref-set-walking
#: population (random scheduler), computed with the int-only
#: ``Ref.__hash__``.
GOLDEN_SETS = {
    "clique": "6597a66b77dd180045a43a3e9f7fbdc31e4570d0b6cd8426cb50bf1450541ac9",
    "framework": "1eb10ae64de0a6e78272cac655a8d98bf28284ddbe3a99debe6059476e9b9955",
}


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


class _EventLog:
    """``until`` predicate that reconstructs each executed event."""

    def __init__(self) -> None:
        self.events: list[tuple[str, int, int]] = []
        self._step = -1
        self._timeouts: dict[int, int] = {}
        self._deliveries: dict[int, int] = {}
        self._seqs: dict[int, set[int]] = {}

    def __call__(self, engine) -> bool:
        stats = engine.stats
        timeouts = dict(stats.timeouts_by)
        deliveries = dict(stats.deliveries_by)
        seqs = {pid: set(ch.seqs()) for pid, ch in engine.channels.items()}
        if self._step >= 0:
            assert engine.step_count == self._step + 1, "boundary skipped a step"
            moved_t = [p for p, c in timeouts.items() if c != self._timeouts.get(p, 0)]
            moved_d = [
                p for p, c in deliveries.items() if c != self._deliveries.get(p, 0)
            ]
            assert len(moved_t) + len(moved_d) == 1, (moved_t, moved_d)
            if moved_t:
                self.events.append(("timeout", moved_t[0], -1))
            else:
                pid = moved_d[0]
                (seq,) = self._seqs[pid] - seqs[pid]
                self.events.append(("deliver", pid, seq))
        self._step = engine.step_count
        self._timeouts, self._deliveries, self._seqs = timeouts, deliveries, seqs
        return False


def _events_digest(engine, steps: int) -> str:
    log = _EventLog()
    engine.run(steps, until=log, check_every=1)
    assert len(log.events) == steps, "the run went quiescent early"
    return hashlib.sha256(repr(log.events).encode()).hexdigest()


def schedule_digest(family: str, engine_mode: str) -> str:
    """Digest of the pinned FDP run under one scheduler family."""
    edges = gen.random_connected(N, N // 2, seed=SEED + 7)
    leaving = choose_leaving(N, edges, fraction=0.4, seed=SEED + 1)
    engine = build_fdp_engine(
        N,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[family](SEED),
        seed=SEED,
        engine_mode=engine_mode,
    )
    digest = _events_digest(engine, STEPS)
    if engine_mode == "soa" and family != "sync":
        status = engine.core_status
        assert status["active"] and status["reason"] is None, status
    return digest


def set_walk_digest(population: str, engine_mode: str) -> str:
    """Digest of the pinned clique or framework(clique) run."""
    edges = gen.random_connected(SET_N, SET_N // 2, seed=SEED + 7)
    if population == "clique":
        # build_overlay_engine takes no engine_mode; the Engine reads the
        # variable once, at construction.
        with mock.patch.dict(os.environ, {"REPRO_ENGINE_MODE": engine_mode}):
            engine = build_overlay_engine(SET_N, edges, CliqueLogic, seed=SEED)
    else:
        engine = build_framework_engine(
            SET_N,
            edges,
            choose_leaving(SET_N, edges, fraction=0.4, seed=SEED + 1),
            CliqueLogic,
            corruption=HEAVY_CORRUPTION,
            seed=SEED,
            engine_mode=engine_mode,
        )
    return _events_digest(engine, SET_STEPS)


@pytest.mark.parametrize("engine_mode", ["objects", "soa", "verify"])
@pytest.mark.parametrize("family", sorted(SCHEDULER_FACTORIES))
def test_schedule_matches_golden(family: str, engine_mode: str) -> None:
    assert schedule_digest(family, engine_mode) == GOLDEN[family]


@pytest.mark.parametrize("engine_mode", ["objects", "soa", "verify"])
@pytest.mark.parametrize("population", sorted(GOLDEN_SETS))
def test_set_walk_matches_golden(population: str, engine_mode: str) -> None:
    assert set_walk_digest(population, engine_mode) == GOLDEN_SETS[population]


def test_schedule_ignores_global_random() -> None:
    """The schedule draws only from the scheduler's own ``Random(seed)``."""
    state = random.getstate()
    try:
        for global_seed in (1, 2):
            random.seed(global_seed)
            assert schedule_digest("random", "objects") == GOLDEN["random"]
    finally:
        random.setstate(state)


def test_schedule_ignores_wall_clock() -> None:
    """No wall-clock read feeds the schedule: two far-apart clocks, one digest."""
    for now_ns in (0, 10**18):
        with (
            mock.patch("time.time", return_value=now_ns / 1e9),
            mock.patch("time.time_ns", return_value=now_ns),
        ):
            assert schedule_digest("random", "objects") == GOLDEN["random"]
