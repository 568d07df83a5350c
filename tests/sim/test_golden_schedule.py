"""Golden schedules: a seed fixes the executed event sequence across commits.

``test_soa_differential`` compares the two cores of one commit with each
other; nothing there notices a change that shifts the schedule on both
cores at once (a reordered pool, an extra RNG draw, a renumbered
message). This module pins the sha256 of the first :data:`STEPS`
``(kind, pid, seq)`` events of one fixed FDP run per scheduler family.
Every engine mode must produce the pinned digest, so a refactor of the
scheduler or of either core that changes any schedule fails here.

The events are read back at every step boundary through the ``until``
predicate (``check_every=1``) rather than through a tracer: a tracer
moves a ``soa`` run onto the object loop, while a predicate keeps it on
the core, which then exports after every one-step batch. The acting
process is the one whose timeout or delivery counter moved; a delivered
message is the one seq that left its channel (new seqs are always
fresh, so a seq missing from the previous boundary's set was consumed).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen

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


def _schedule_digest(family: str, engine_mode: str) -> str:
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
    log = _EventLog()
    engine.run(STEPS, until=log, check_every=1)
    assert len(log.events) == STEPS, "the run went quiescent early"
    if engine_mode == "soa" and family != "sync":
        status = engine.core_status
        assert status["active"] and status["reason"] is None, status
    return hashlib.sha256(repr(log.events).encode()).hexdigest()


@pytest.mark.parametrize("engine_mode", ["objects", "soa", "verify"])
@pytest.mark.parametrize("family", sorted(SCHEDULER_FACTORIES))
def test_schedule_matches_golden(family: str, engine_mode: str) -> None:
    assert _schedule_digest(family, engine_mode) == GOLDEN[family]
