"""Supervised runs on the SoA core: the same run, bit for bit, as on the
object loop.

A chaos campaign, the default watchdogs and the Lemma 2/3 monitors all
declare ``next_wakeup``, so a soa run keeps its core batches and calls
them at their wakeups; the campaign's three state-fault kinds are core
operations (``Engine.post(None, ...)``, ``Engine.rewrite_beliefs``).
These tests drive one supervised FDP scenario under ``objects``,
``soa`` and ``verify`` (which cross-checks every core operation against
the objects) and pin:

* everything the supervisors saw and the run decided is equal across
  modes: step count, stats, injections, the Φ series, the watchdogs'
  check counts, and the final states, stores and channels;
* a backlog watchdog trips at the same step with the same diagnosis on
  both cores;
* after attach a soa run builds no core, exports nothing and builds no
  live graph, while it does run core batches;
* the Lemma 2 monitor and the no-progress watchdog on their own read
  only core-served state.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    CAMPAIGN_KINDS,
    BacklogWatchdog,
    ChaosCampaign,
    NoProgressWatchdog,
    default_watchdogs,
)
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    choose_leaving,
)
from repro.errors import WatchdogTrip
from repro.graphs import generators as gen
from repro.graphs.livegraph import LiveGraph
from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor
from repro.sim.refs import pid_of
from repro.sim.soa import EngineCore
from tests.sim.test_attach_setup import _Spy

MODES = ("objects", "soa", "verify")
#: the scheduler families the core drives (``core_drivable``).
DRIVABLE = tuple(
    name for name, make in SCHEDULER_FACTORIES.items() if make(0).core_drivable
)
STEPS = 2_400


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its mode; the CI pin must not override it."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


def _engine(mode: str, seed: int, n: int, scheduler: str = "random", monitors=()):
    edges = gen.random_connected(n, n // 2, seed=seed)
    return build_fdp_engine(
        n,
        edges,
        choose_leaving(n, edges, fraction=0.3, seed=seed),
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[scheduler](seed),
        seed=seed,
        monitors=list(monitors),
        engine_mode=mode,
    )


def _supervisors(seed: int):
    campaign = ChaosCampaign(seed=seed, period=150, kinds=CAMPAIGN_KINDS)
    watchdogs = default_watchdogs()
    lemma2 = ConnectivityMonitor(check_every=16)
    lemma3 = PotentialMonitor(check_every=16)
    return campaign, watchdogs, lemma2, lemma3


def _final_state(engine) -> tuple:
    """Lifecycle, stores in insertion order, anchors and channels."""
    procs = engine.processes
    return (
        {pid: (p.state, p.mode) for pid, p in procs.items()},
        {pid: [(pid_of(r), b) for r, b in p.N.items()] for pid, p in procs.items()},
        {
            pid: (None if p.anchor is None else pid_of(p.anchor), p.anchor_belief)
            for pid, p in procs.items()
        },
        {
            pid: [(m.seq, m.label, m.sender, m.edge_pairs()) for m in channel]
            for pid, channel in engine.channels.items()
        },
    )


def _supervised_run(mode: str, seed: int, n: int, scheduler: str) -> tuple:
    campaign, watchdogs, lemma2, lemma3 = _supervisors(seed)
    engine = _engine(
        mode, seed, n, scheduler, monitors=(campaign, *watchdogs, lemma2, lemma3)
    )
    for _ in range(3):  # re-entering run() must not move a wakeup
        engine.run(STEPS // 3)
    if mode == "soa":
        assert engine.core_status["reason"] is None, engine.core_status
    return (
        engine.step_count,
        engine.stats.as_dict(),
        [record.as_dict() for record in campaign.injections],
        campaign.admissibility_checks,
        lemma3.values,
        lemma2.checks,
        [w.checks for w in watchdogs],
        engine.potential(),
        _final_state(engine),
    )


@pytest.mark.parametrize("scheduler", DRIVABLE)
@pytest.mark.parametrize("seed, n", [(3, 64), (11, 96), (29, 128)])
def test_supervised_run_identical_across_modes(scheduler: str, seed: int, n: int) -> None:
    results = {mode: _supervised_run(mode, seed, n, scheduler) for mode in MODES}
    injections = results["objects"][2]
    assert {record["kind"] for record in injections} == set(CAMPAIGN_KINDS)
    assert results["objects"] == results["soa"], "objects vs soa diverged"
    assert results["objects"] == results["verify"], "objects vs verify diverged"


@pytest.mark.parametrize("scheduler", DRIVABLE)
def test_backlog_trip_parity(scheduler: str) -> None:
    """A backlog watchdog trips at the same step with the same
    diagnosis, whichever core ran up to it."""
    seen = {}
    for mode in MODES:
        campaign, _, lemma2, lemma3 = _supervisors(5)
        guard = BacklogWatchdog(check_every=8, max_pending=300)
        engine = _engine(mode, 5, 64, scheduler, monitors=(campaign, guard, lemma2, lemma3))
        with pytest.raises(WatchdogTrip) as trip:
            engine.run(STEPS)
        assert trip.value.diagnosis is guard.tripped
        seen[mode] = (engine.step_count, guard.tripped.as_dict(), lemma3.values)
    assert seen["objects"][0] > 8, "trip should come mid-run"
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_soa_supervised_run_stays_on_the_core() -> None:
    """After attach: no core rebuild, no export, no live graph, and the
    steps ran in core batches."""
    campaign, watchdogs, lemma2, lemma3 = _supervisors(3)
    engine = _engine("soa", 3, 96, monitors=(campaign, *watchdogs, lemma2, lemma3))
    engine.attach()
    with (
        _Spy(EngineCore, "__init__") as built,
        _Spy(EngineCore, "export_to") as exports,
        _Spy(LiveGraph, "__init__") as live,
        _Spy(EngineCore, "run_batch") as batches,
    ):
        engine.run(STEPS)
    assert len(campaign.injections) >= 10
    assert (built.calls, exports.calls, live.calls) == (0, 0, 0)
    assert batches.calls > 0
    assert engine.core_status["reason"] is None


def test_verify_cross_checks_every_injection() -> None:
    """Verify mode applies each injection to both sides and compares
    them, instead of rebuilding the core from the objects."""
    campaign, watchdogs, lemma2, lemma3 = _supervisors(3)
    engine = _engine("verify", 3, 96, monitors=(campaign, *watchdogs, lemma2, lemma3))
    engine.attach()
    with (
        _Spy(EngineCore, "__init__") as built,
        _Spy(EngineCore, "post") as posts,
        _Spy(EngineCore, "rewrite_belief") as rewrites,
        _Spy(EngineCore, "cross_check") as checks,
    ):
        engine.run(STEPS)
    assert built.calls == 0
    assert posts.calls > 0 and rewrites.calls > 0
    assert checks.calls > STEPS + posts.calls
    assert engine.verify_core_state()


def test_connectivity_monitor_builds_no_live_graph() -> None:
    """Lemma 2's relevant set comes from the core's lifecycle column
    while nothing sleeps."""
    lemma2 = ConnectivityMonitor(check_every=64)
    engine = _engine("soa", 7, 128, monitors=(lemma2,))
    with _Spy(LiveGraph, "__init__") as live:
        engine.run(STEPS)
    assert lemma2.checks == STEPS // 64
    assert live.calls == 0
    assert engine._live is None  # noqa: SLF001


def test_watchdogs_export_nothing_and_fingerprint_alike() -> None:
    """The default watchdogs read O(1) counters only: a non-tripping
    soa run under them exports nothing, and the no-progress
    fingerprint is the same on both cores."""
    prints = {}
    for mode in ("objects", "soa"):
        watchdogs = default_watchdogs()
        engine = _engine(mode, 13, 96, monitors=watchdogs)
        engine.attach()
        with _Spy(EngineCore, "export_to") as exports:
            engine.run(STEPS)
        if mode == "soa":
            assert exports.calls == 0
            assert engine.core_status["reason"] is None
        no_progress = next(w for w in watchdogs if isinstance(w, NoProgressWatchdog))
        prints[mode] = (
            no_progress._fingerprint(engine),  # noqa: SLF001
            [w.checks for w in watchdogs],
        )
    assert prints["objects"] == prints["soa"]


def test_monitor_without_wakeup_keeps_the_object_loop() -> None:
    """One monitor that does not declare ``next_wakeup`` moves the
    whole run onto the object loop, with the reason recorded."""
    campaign, watchdogs, lemma2, lemma3 = _supervisors(3)
    engine = _engine("soa", 3, 64, monitors=(campaign, *watchdogs, lemma2, lemma3))
    engine.monitors.append(lambda engine, executed: None)
    with _Spy(EngineCore, "run_batch") as batches:
        engine.run(400)
    assert batches.calls == 0
    assert engine.core_status["reason"] == "observers attached: monitors"
