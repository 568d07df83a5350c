"""Observation is passive: attaching an observer never changes the run.

Each observer the engine accepts — a tracer (the JSONL sink, the
``Tracer`` ring, the ``ScheduleRecorder``) or a monitor (the
``SeriesRecorder`` and the Lemma 2/3 invariant monitors) — must leave
the execution exactly as it is without one: the same step count, the
same stats block, the same Φ and the same final process states. A soa
run with a monitor falls back to the object loop while the bare run
stays on the core, so under ``soa`` this also checks that the fallback
is invisible.
"""

from __future__ import annotations

import pytest

from repro.core.potential import fdp_legitimate
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.graphs import generators as gen
from repro.obs.trace import JsonlTraceSink
from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor
from repro.sim.refs import pid_of
from repro.sim.replay import ScheduleRecorder
from repro.sim.tracing import SeriesRecorder, Tracer

N = 16
SEED = 3


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its mode; the CI env pin must not override it."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


#: observer kind -> (engine keyword arguments attaching one, a check that
#: it saw the run's steps).
OBSERVERS = {
    "jsonl": lambda tmp: (
        {"tracer": JsonlTraceSink(str(tmp / "t.jsonl"), metrics_every=8)},
        lambda obs, steps: obs["tracer"].steps_recorded == steps,
    ),
    "tracer": lambda tmp: (
        {"tracer": Tracer(capacity=None)},
        lambda obs, steps: len(obs["tracer"]) == steps,
    ),
    "schedule": lambda tmp: (
        {"tracer": ScheduleRecorder()},
        lambda obs, steps: len(obs["tracer"]) == steps,
    ),
    "series": lambda tmp: (
        {"monitors": [SeriesRecorder(every=4)]},
        lambda obs, steps: len(obs["monitors"][0].steps) == steps // 4,
    ),
    "lemmas": lambda tmp: (
        {"monitors": [ConnectivityMonitor(), PotentialMonitor()]},
        lambda obs, steps: obs["monitors"][0].checks == steps,
    ),
}


def _run(mode: str, **observers) -> tuple:
    edges = gen.random_connected(N, N // 2, seed=SEED + 7)
    leaving = choose_leaving(N, edges, fraction=0.4, seed=SEED + 1)
    engine = build_fdp_engine(
        N,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        seed=SEED,
        engine_mode=mode,
        **observers,
    )
    assert engine.run(50_000, until=fdp_legitimate, check_every=32)
    tracer = observers.get("tracer")
    if isinstance(tracer, JsonlTraceSink):
        tracer.close()
    processes = {
        pid: (
            proc.state,
            proc.mode,
            [(pid_of(ref), belief) for ref, belief in proc.N.items()],
            None if proc.anchor is None else pid_of(proc.anchor),
            proc.anchor_belief,
        )
        for pid, proc in engine.processes.items()
    }
    channels = {pid: list(ch.seqs()) for pid, ch in engine.channels.items()}
    return (
        engine.step_count,
        engine.stats.as_dict(),
        engine.potential(),
        processes,
        channels,
    )


@pytest.mark.parametrize("mode", ["objects", "soa"])
@pytest.mark.parametrize("kind", sorted(OBSERVERS))
def test_observer_leaves_the_run_unchanged(mode, kind, tmp_path):
    bare = _run(mode)
    observers, saw_every_step = OBSERVERS[kind](tmp_path)
    observed = _run(mode, **observers)
    assert saw_every_step(observers, observed[0])
    assert observed[0] == bare[0], "step count"
    assert observed[1] == bare[1], "stats"
    assert observed[2] == bare[2], "potential"
    assert observed[3] == bare[3], "process states"
    assert observed[4] == bare[4], "channels"
