"""The backlog watchdog's derived wakeup: a soa run passes the multiples
of ``check_every`` at which the backlog cannot yet exceed the bound,
without calling the watchdog there.

``BacklogWatchdog.next_wakeup`` asks the engine, at the moment the
engine asks it, how many steps the backlog is sure to stay under the
bound (``Engine.backlog_horizon``). These tests pin:

* the bound is sound: on FDP and FSP runs with bounces and planted
  garbage, the backlog never exceeds a limit within the horizon served
  for it;
* the bound's premises are tight: one step can post D + 2 messages
  with every store empty, and an FSP step can grow D by 2;
* the trip step, the diagnosis and the check count are those of a call
  at every multiple, under ``objects``, ``soa`` and ``verify``: on a
  plain run, right after a campaign rebase, and after a post made
  between two ``run`` calls (the bound is derived when the engine asks,
  so the post is seen);
* the check count is the object loop's when another monitor raises at
  a shared multiple, when the watchdog moves to a second engine and
  when it is taken off its engine;
* a soa run with a distant bound makes fewer core batches than the
  multiples of ``check_every`` it passes, and still counts every one;
* an engine that cannot bound its sends (a framework population)
  keeps the wakeup at every multiple.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import BacklogWatchdog, ChaosCampaign
from repro.core.fdp import FDPProcess
from repro.core.fsp import FSPProcess
from repro.core.oracles import NeverOracle
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_framework_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.errors import SafetyViolation, WatchdogTrip
from repro.graphs import generators as gen
from repro.overlays import LOGICS
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.refs import Ref
from repro.sim.soa import EngineCore
from repro.sim.states import Capability, Mode, PState
from tests.sim.test_attach_setup import _Spy

MODES = ("objects", "soa", "verify")


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its mode; the CI pin must not override it."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


def _engine(mode: str, seed: int, n: int = 48, monitors=(), protocol: str = "fdp"):
    edges = gen.random_connected(n, n // 2, seed=seed)
    build = build_fsp_engine if protocol == "fsp" else build_fdp_engine
    return build(
        n,
        edges,
        choose_leaving(n, edges, fraction=0.3, seed=seed),
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES["random"](seed),
        seed=seed,
        monitors=list(monitors),
        engine_mode=mode,
    )


def _flood(engine, count: int) -> None:
    """Plant *count* out-of-band ``present`` messages at the first
    alive process."""
    pid = min(p for p in engine.processes if engine.state_of(p).name != "GONE")
    ref = engine.ref(pid)
    for _ in range(count):
        engine.post(None, ref, "present", (RefInfo(ref, Mode.STAYING),))


def _trip(engine, guard, budgets) -> tuple:
    """Run *budgets* in turn until the guard trips; what it saw."""
    with pytest.raises(WatchdogTrip) as trip:
        for budget in budgets:
            if callable(budget):
                budget(engine)
            else:
                engine.run(budget)
    assert trip.value.diagnosis is guard.tripped
    return engine.step_count, guard.tripped.as_dict(), guard.checks


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    protocol=st.sampled_from(["fdp", "fsp"]),
    n=st.integers(8, 40),
    seed=st.integers(0, 10_000),
    slack=st.integers(0, 400),
    warmup=st.integers(0, 400),
    garbage=st.integers(0, 40),
)
def test_backlog_stays_within_the_served_horizon(protocol, n, seed, slack, warmup, garbage):
    """The backlog plus every message posted since, deliveries not
    subtracted, stays within the limit for the served horizon: the
    bound counts sends, bounces as two."""
    engine = _engine("soa", seed, n, protocol=protocol)
    engine.run(warmup)
    _flood(engine, garbage)
    limit = engine.pending_count + slack
    horizon = engine.backlog_horizon(limit)
    assert horizon is not None, engine.core_status
    assert engine.backlog_horizon(engine.pending_count - 1) == 0
    ceiling = engine.stats.messages_posted + slack
    for _ in range(horizon):
        before = engine.step_count
        engine.run(1)
        if engine.step_count == before:
            break  # quiescent
        assert engine.stats.messages_posted <= ceiling


def _store_scan(core) -> int:
    """``max |N| + 2·max |parked|`` over the core's slots, scanned now."""
    bound = max(map(len, core.N))
    if core.is_fsp:
        bound += 2 * max(map(len, core.parked))
    return bound


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    protocol=st.sampled_from(["fdp", "fsp"]),
    n=st.integers(4, 24),
    seed=st.integers(0, 10_000),
    garbage=st.integers(0, 20),
)
def test_one_step_sends_at_most_the_store_bound_plus_two(protocol, n, seed, garbage):
    """The per-step premises of the horizon, step by step: a step posts
    at most D + 2 messages, D the scanned store bound before it, grows
    D by at most 1 (2 for FSP), and the core's kept bound is never
    below the scan."""
    engine = _engine("soa", seed, n, protocol=protocol)
    _flood(engine, garbage)
    engine.attach()
    core = engine._core
    growth = 2 if protocol == "fsp" else 1
    for _ in range(300):
        bound = _store_scan(core)
        assert core._store_bound(growth) >= bound
        posted, before = engine.stats.messages_posted, engine.step_count
        engine.run(1)
        if engine.step_count == before:
            break  # quiescent
        assert engine.stats.messages_posted - posted <= bound + 2
        assert _store_scan(core) <= bound + growth


def _served(slack: int, d: int, growth: int) -> int:
    """The largest k with k·(d + 2) + growth·k(k − 1)/2 ≤ *slack*: the
    horizon a store bound of *d* allows, counted step by step."""
    k = 0
    while (k + 1) * (d + 2) + growth * (k + 1) * k // 2 <= slack:
        k += 1
    return k


def _hand_built(protocol: str, seed: int, *, anchored: bool) -> Engine:
    """Leaving process 0 holds a forward of staying process 2, believed
    leaving; with *anchored* it is anchored at process 1, which is gone.
    Every store is empty, so D = 0."""
    fsp = protocol == "fsp"
    cls = FSPProcess if fsp else FDPProcess
    anchor = {"anchor": Ref(1), "anchor_belief": Mode.STAYING} if anchored else {}
    procs = [cls(0, Mode.LEAVING, **anchor), cls(1, Mode.LEAVING), cls(2, Mode.STAYING)]
    engine = Engine(
        procs,
        SCHEDULER_FACTORIES["random"](seed),
        capability=Capability.SLEEP if fsp else Capability.EXIT,
        oracle=None if fsp else NeverOracle(),
        require_staying_per_component=False,
        engine_mode="soa",
    )
    engine._transition(procs[1], PState.GONE)
    engine.post(None, engine.ref(0), "forward", (RefInfo(engine.ref(2), Mode.LEAVING),))
    engine.attach()
    return engine


@pytest.mark.parametrize("protocol", ["fdp", "fsp"])
def test_a_delegation_to_a_gone_anchor_posts_the_store_bound_plus_two(protocol):
    """Delivered at process 0, the forward is delegated to its gone
    anchor and bounces home as two messages: one step posts D + 2 with
    D = 0. So no slack below 2 may serve a step."""
    hit = 0
    for seed in range(8):
        engine = _hand_built(protocol, seed, anchored=True)
        core = engine._core
        for _ in range(20):
            if engine.stats.bounced:
                break
            d = _store_scan(core)
            for slack in range(6):
                served = engine.backlog_horizon(engine.pending_count + slack)
                assert served <= _served(slack, d, 2 if protocol == "fsp" else 1)
            posted = engine.stats.messages_posted
            engine.run(1)
            sent = engine.stats.messages_posted - posted
            assert sent <= d + 2
            hit += d == 0 and sent == 2
    assert hit == 8


def test_parking_grows_the_store_bound_by_two():
    """An FSP forward at a leaving process without an anchor parks its
    subject: D grows from 0 to 2 in one step, and the horizon served
    after it, from the bound kept since before it, allows for that."""
    hit = 0
    for seed in range(12):
        engine = _hand_built("fsp", seed, anchored=False)
        core = engine._core
        engine.backlog_horizon(0)  # the store bound is taken here, D = 0
        engine.run(1)
        if not core.parked[0]:
            continue  # a timeout went first
        hit += 1
        assert _store_scan(core) == 2
        for slack in range(12):
            served = engine.backlog_horizon(engine.pending_count + slack)
            assert served <= _served(slack, 2, 2)
    assert hit >= 3, hit


@pytest.mark.parametrize("seed", [2, 5, 17])
def test_plain_trip_parity(seed: int) -> None:
    seen = {}
    for mode in MODES:
        guard = BacklogWatchdog(check_every=8, max_pending=140)
        engine = _engine(mode, seed, 64, monitors=(guard,))
        seen[mode] = _trip(engine, guard, [300] * 20)
    assert seen["objects"][0] > 8, "trip should come mid-run"
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_trip_right_after_a_campaign_rebase() -> None:
    """The campaign's garbage pushes the backlog over the bound and
    rebases the watchdog, which re-opens its window at the next
    multiple of ``check_every`` and trips there."""
    seen = {}
    for mode in MODES:
        campaign = ChaosCampaign(
            seed=4, period=200, kinds=("garbage",), garbage_count=120
        )
        guard = BacklogWatchdog(check_every=8, max_pending=200)
        engine = _engine(mode, 4, 64, monitors=(campaign, guard))
        step, diagnosis, checks = _trip(engine, guard, [400] * 10)
        injected = [record.step for record in campaign.injections]
        seen[mode] = (step, diagnosis, checks, injected)
    step, _, _, injected = seen["objects"]
    assert 0 <= step - injected[-1] <= 8, "trip right after the last injection"
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_trip_after_a_post_between_runs() -> None:
    """A flood posted between two ``run`` calls moves the backlog out of
    band while the window is open: the next run's wakeup is derived
    from the new backlog, so the trip comes at the next multiple."""
    seen = {}
    for mode in MODES:
        guard = BacklogWatchdog(check_every=8, max_pending=3000)
        engine = _engine(mode, 6, 64, monitors=(guard,))
        seen[mode] = _trip(engine, guard, [203, lambda e: _flood(e, 3000), 500])
    assert seen["objects"][0] == 208
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_window_reopens_where_the_object_loop_reopens_it() -> None:
    """Campaign injections rebase the watchdog at steps that are not
    multiples of ``check_every``; its window re-opens at the next
    multiple on every core, so a later trip (a flood posted between
    runs) reports the same window start and backlog at it."""
    seen = {}
    for mode in MODES:
        campaign = ChaosCampaign(seed=8, period=150, kinds=("garbage",))
        guard = BacklogWatchdog(check_every=8, max_pending=3000)
        engine = _engine(mode, 8, 64, monitors=(campaign, guard))
        step, diagnosis, checks = _trip(
            engine, guard, [905, lambda e: _flood(e, 3000), 500]
        )
        injected = [record.step for record in campaign.injections]
        seen[mode] = (step, diagnosis, checks, injected)
    _, diagnosis, _, injected = seen["objects"]
    assert injected[-1] % 8, "the last rebase falls between two multiples"
    assert diagnosis["window_steps"] < 905 - injected[-1] + 8
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_derived_wakeup_passes_multiples_and_counts_them() -> None:
    guard = BacklogWatchdog(check_every=8)
    engine = _engine("soa", 3, 64, monitors=(guard,))
    engine.attach()
    with _Spy(EngineCore, "run_batch") as batches:
        for _ in range(4):
            engine.run(250)
    assert engine.step_count == 1000
    assert guard.checks == 1000 // 8
    assert batches.calls < 20, batches.calls
    reference = BacklogWatchdog(check_every=8)
    _engine("objects", 3, 64, monitors=(reference,)).run(1000)
    assert reference.checks == guard.checks


def test_unbounded_population_keeps_every_multiple() -> None:
    guard = BacklogWatchdog(check_every=8)
    engine = build_framework_engine(
        8,
        gen.random_connected(8, 4, seed=1),
        {3},
        LOGICS["robust_ring"],
        seed=1,
        monitors=[guard],
        engine_mode="soa",
    )
    engine.run(100)
    assert engine.backlog_horizon(guard.max_pending) is None
    step = engine.step_count
    assert guard.next_wakeup(step) == (step // 8 + 1) * 8


class _RaiseAt:
    """A monitor that raises once, at step *at*, and says so."""

    def __init__(self, at: int) -> None:
        self.at = at
        self.raised = False

    def __call__(self, engine, executed) -> None:
        if engine.step_count == self.at and not self.raised:
            self.raised = True
            raise SafetyViolation(f"raised at {self.at}")

    def next_wakeup(self, step: int) -> int | None:
        return None if self.raised or step >= self.at else self.at


@pytest.mark.parametrize("raiser_first", [True, False])
def test_checks_when_another_monitor_raises_at_a_shared_multiple(raiser_first):
    """A monitor raising at a multiple of ``check_every`` ends the round
    there: a backlog watchdog after it is not called at that multiple,
    which then never counts, also when the run goes on; one before it
    is, and counts it. The same under every mode."""
    seen = {}
    for mode in MODES:
        guard, raiser = BacklogWatchdog(check_every=8), _RaiseAt(400)
        monitors = (raiser, guard) if raiser_first else (guard, raiser)
        engine = _engine(mode, 3, 64, monitors=monitors)
        engine.run(100)  # the window opens: later wakeups are derived
        with pytest.raises(SafetyViolation):
            engine.run(1000)
        at_raise = guard.checks
        engine.run(300)
        seen[mode] = (engine.step_count, at_raise, guard.checks)
    expected = 400 // 8 - raiser_first
    assert seen["objects"] == (700, expected, expected + 300 // 8)
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_a_watchdog_follows_a_second_engine() -> None:
    """Moved to a new engine, the watchdog checks it from its first
    multiple on: a flood posted before that engine runs trips it at
    step 8, and ``checks`` goes on from the first engine's count."""
    seen = {}
    for mode in MODES:
        guard = BacklogWatchdog(check_every=8, max_pending=3000)
        first = _engine(mode, 6, 64, monitors=(guard,))
        first.run(2000)
        first.monitors.remove(guard)
        second = _engine(mode, 7, 64, monitors=(guard,))
        _flood(second, 3000)
        seen[mode] = _trip(second, guard, [500])
    assert seen["objects"][0] == 8
    assert seen["objects"][2] == 2000 // 8 + 1
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_checks_stop_when_the_watchdog_is_taken_off() -> None:
    seen = {}
    for mode in MODES:
        guard = BacklogWatchdog(check_every=8)
        engine = _engine(mode, 3, 64, monitors=(guard,))
        engine.run(1000)
        engine.monitors.remove(guard)
        engine.run(1000)
        seen[mode] = guard.checks
    assert seen == dict.fromkeys(MODES, 1000 // 8)


def test_a_second_engine_opens_a_new_backlog_window() -> None:
    """The trip on a second engine reports that engine's window: it
    opens at the second engine's first multiple, not at the first
    engine's (whose backlog there was far below the flood)."""
    for mode in MODES:
        guard = BacklogWatchdog(check_every=8, max_pending=3000)
        first = _engine(mode, 6, 64, monitors=(guard,))
        first.run(2000)
        first.monitors.remove(guard)
        second = _engine(mode, 7, 64, monitors=(guard,))
        _flood(second, 3000)
        step, diagnosis, _checks = _trip(second, guard, [500])
        assert step == 8
        assert diagnosis["window_steps"] == 0
        assert diagnosis["pending_start"] == diagnosis["pending"] > 3000


def _stalled_pair(seed: int):
    """Two attached engines in the same state, with no step run."""
    engines = [_engine("objects", seed, 24) for _ in range(2)]
    for engine in engines:
        engine.attach()
    return engines


@pytest.mark.parametrize("kind", ["livelock", "no_progress", "retransmit_storm"])
def test_a_window_never_spans_two_engines(kind) -> None:
    """A window opened on one engine and completed by calls on another
    would compare two engines' counters; the watchdog restarts it on
    the first call by a new engine. The control: the same calls on one
    engine trip."""
    from repro.chaos.watchdogs import (
        LivelockWatchdog,
        NoProgressWatchdog,
        RetransmitStormWatchdog,
    )
    from repro.net import NetStats

    def make():
        if kind == "livelock":
            return LivelockWatchdog(check_every=1, window=3, min_backlog_growth=1, raise_on_trip=False)
        if kind == "no_progress":
            return NoProgressWatchdog(check_every=1, window=3, raise_on_trip=False)
        return RetransmitStormWatchdog(
            check_every=1, window=3, min_retransmits=1, ratio=1.0, raise_on_trip=False
        )

    def nudge(engine, calls: int) -> None:
        # grow what the kind watches between two of its samples
        if kind == "livelock":
            _flood(engine, 4)
        elif kind == "retransmit_storm":
            engine.net_stats = NetStats(retransmits=8 * calls)

    for moved in (False, True):
        guard = make()
        first, second = _stalled_pair(5)
        for engine in (first, second):
            engine.net_stats = NetStats()
        guard(first, None)
        nudge(first, 1)
        guard(first, None)
        target = second if moved else first
        nudge(target, 2)
        if moved:
            nudge(target, 2)  # the second engine ran as far as the first
        guard(target, None)
        assert (guard.tripped is not None) is not moved
