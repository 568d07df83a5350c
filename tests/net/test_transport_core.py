"""Transport-backed runs on the SoA core: the same run, bit for bit, as on
the object loop.

While the core drives a run over a :class:`~repro.net.ReliableTransport`
its kernels open the flights, each batch step starts with the
transport's flush (and, on a starved scheduler, its ``run_dry``), and a
departure cancels the flights to the departed process. These tests pin:

* one faulty run per core-drivable scheduler family, with the scheduled
  partition and a burst added mid-run, decides the same under
  ``objects``, ``soa`` and ``verify``: steps, engine stats, transport
  stats, the retransmit journal and the final stores and channels; the
  soa run takes only core batches;
* a recorded schedule replays on the core with the same outcome, with
  the transport re-attached and without it;
* a population that starves its scheduler waits on the transport clock
  the same way on both cores;
* a retransmit timer's lower bound never exceeds its drawn due, and the
  starvation fast-forward pops the events of the eager timers it
  replaces: a transport that draws every due at its push reaches the
  same clock and counters.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.potential import fdp_legitimate, fsp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.net import ReliableTransport, default_net_config, journal_digest
from repro.net.reliable import _DST_MASK, _SRC_SHIFT
from repro.sim.engine import Engine
from repro.sim.replay import ReplayScheduler, ScheduleRecorder
from repro.sim.soa import _GONE, EngineCore
from repro.sim.states import PState
from tests.chaos.test_campaign_core import _final_state
from tests.sim.test_attach_setup import _Spy

MODES = ("objects", "soa", "verify")
#: the scheduler families the core drives (``core_drivable``).
DRIVABLE = tuple(
    name for name, make in SCHEDULER_FACTORIES.items() if make(0).core_drivable
)
BUDGET = 200_000


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its mode; the CI pin must not override it."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


def _engine(mode, seed, *, protocol="fdp", scheduler="random", tracer=None, net=True):
    n = 20
    edges = gen.random_connected(n, n // 2, seed=seed)
    build = build_fsp_engine if protocol == "fsp" else build_fdp_engine
    engine = build(
        n,
        edges,
        choose_leaving(n, edges, fraction=0.3, seed=seed),
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[scheduler](seed),
        seed=seed,
        tracer=tracer,
        engine_mode=mode,
    )
    if net:
        config = default_net_config(seed, loss=0.2, dup=0.1, delay=0.2, partition_at=40)
        ReliableTransport.from_config(config).install(engine)
    return engine


def _outcome(engine: Engine) -> tuple:
    net = engine.net
    journal = [] if net is None else list(net.journal)
    return (
        engine.step_count,
        engine.stats.as_dict(),
        None if net is None else net.stats.as_dict(),
        journal,
        journal_digest(journal),
        _final_state(engine),
    )


def _faulty_run(engine: Engine, protocol: str) -> None:
    """300 steps, a loss and a delay burst, then on to legitimacy."""
    until = fsp_legitimate if protocol == "fsp" else fdp_legitimate
    engine.run(300)
    underlay = engine.net.underlay
    underlay.add_burst("loss", engine.step_count, 200, 0.5)
    underlay.add_burst("delay", engine.step_count + 100, 150, 0.4)
    assert engine.run(BUDGET, until=until, check_every=64)


@pytest.mark.parametrize(
    "protocol, scheduler",
    [("fdp", name) for name in DRIVABLE if name != "replay"] + [("fsp", "random")],
)
def test_transport_runs_agree_across_modes(protocol: str, scheduler: str) -> None:
    seen = {}
    for mode in MODES:
        engine = _engine(mode, 7, protocol=protocol, scheduler=scheduler)
        with (
            _Spy(Engine, "_step_objects") as object_steps,
            _Spy(EngineCore, "run_batch") as batches,
        ):
            _faulty_run(engine, protocol)
        if mode == "soa":
            assert engine.core_status["reason"] is None, engine.core_status
            assert object_steps.calls == 0
            assert batches.calls > 0
        else:
            assert object_steps.calls >= engine.step_count
        seen[mode] = _outcome(engine)
    net_stats = seen["objects"][2]
    assert net_stats["retransmits"] and net_stats["dropped"]
    assert seen["objects"] == seen["soa"] == seen["verify"]


def test_a_core_dropped_mid_run_hands_the_transport_back() -> None:
    """A predicate that edits a store behind the engine's back stales
    the core; the rest of the run takes object steps, and the transport
    must read the objects from then on, not the abandoned core."""
    from repro.sim.states import Mode

    def until(engine: Engine) -> bool:
        if engine.step_count == 256:
            staying = sorted(engine.staying_pids())
            proc = engine.processes[staying[0]]
            proc.N[engine.ref(staying[1])] = Mode.STAYING
            engine._dirty = True
        return fdp_legitimate(engine)

    seen = {}
    for mode in MODES:
        engine = _engine(mode, 5)
        assert engine.run(BUDGET, until=until, check_every=64)
        if mode == "soa":
            assert engine.net.core is None
        seen[mode] = _outcome(engine)
    assert seen["objects"] == seen["soa"] == seen["verify"]


def _departed(transport: ReliableTransport, pid: int) -> bool:
    """Whether *pid* is gone, in whichever state the run drives."""
    core = transport.core
    if core is not None:
        u = core.slot_of.get(pid)
        return u is None or core.state_[u] == _GONE
    proc = transport.engine._processes.get(pid)
    return proc is None or proc.state is PState.GONE


@pytest.mark.parametrize("seed", [3, 8])
def test_no_frame_and_no_announcement_reaches_a_departed_process(seed: int) -> None:
    """Departures under 30% loss: closing a departing process's flights
    is what keeps every retransmission and every ``notify_send`` away
    from it, in every mode."""
    seen = {}
    for mode in MODES:
        engine = _engine(mode, seed, net=False)
        config = default_net_config(seed, loss=0.3, dup=0.1, delay=0.2)
        transport = ReliableTransport.from_config(config).install(engine)
        transmit = transport._transmit
        notify_send = engine.scheduler.notify_send

        def spy_transmit(chan, src, dst, tseq, attempt, transport=transport):
            assert attempt == 1 or not _departed(transport, dst), ("retransmit", dst)
            transmit(chan, src, dst, tseq, attempt)

        def spy_notify(dst, *args, transport=transport):
            assert not _departed(transport, dst), ("notify_send", dst)
            return notify_send(dst, *args)

        transport._transmit = spy_transmit
        engine.scheduler.notify_send = spy_notify
        assert engine.run(BUDGET, until=fdp_legitimate, check_every=64)
        assert engine.stats.exits and transport.stats.cancelled_gone
        seen[mode] = transport.stats.as_dict()
    assert seen["objects"] == seen["soa"] == seen["verify"]


@pytest.mark.parametrize("net", [True, False])
def test_a_recorded_schedule_replays_on_the_core(net: bool) -> None:
    recorder = ScheduleRecorder()
    recorded = _engine("objects", 11, tracer=recorder)
    _faulty_run(recorded, "fdp")
    expected = _outcome(recorded)
    for mode in MODES:
        engine = _engine(mode, 11, net=net)
        engine.scheduler = ReplayScheduler(recorder.events)
        if net:
            # the bursts land where they did in the recorded run
            engine.run(300)
            underlay = engine.net.underlay
            underlay.add_burst("loss", 300, 200, 0.5)
            underlay.add_burst("delay", 400, 150, 0.4)
        with _Spy(Engine, "_step_objects") as object_steps:
            engine.run(len(recorder.events) - engine.step_count)
        if mode == "soa":
            assert engine.core_status["reason"] is None, engine.core_status
            assert object_steps.calls == 0
        outcome = _outcome(engine)
        if net:
            assert outcome == expected
        else:
            assert engine.net_stats is None
            assert (outcome[0], outcome[1], outcome[5]) == (
                expected[0],
                expected[1],
                expected[5],
            )


@pytest.mark.parametrize("scheduler", [name for name in DRIVABLE if name != "replay"])
def test_a_starved_population_waits_on_the_transport_clock(scheduler: str) -> None:
    """Every process leaving and every frame likely delayed: the FSP
    population falls asleep with frames in flight, the scheduler
    starves, and only the fast-forward (``run_dry``) wakes it; the runs
    end quiescent, far behind the transport clock."""
    from repro.net.underlay import Underlay, UnderlayConfig

    seen = {}
    for mode in MODES:
        n, seed = 12, 4
        edges = gen.random_connected(n, 6, seed=seed)
        engine = build_fsp_engine(
            n, edges, range(n), corruption=HEAVY_CORRUPTION, seed=seed,
            scheduler=SCHEDULER_FACTORIES[scheduler](seed), engine_mode=mode,
        )
        engine._require_staying = False  # no staying process at all
        transport = ReliableTransport.from_config(default_net_config(seed)).install(engine)
        transport.underlay = Underlay(
            UnderlayConfig(seed=seed, loss=0.2, delay=0.7, delay_min=20, delay_max=120)
        )
        with _Spy(ReliableTransport, "run_dry") as fast_forwards:
            assert not engine.run(20_000, until=lambda e: False)
        assert fast_forwards.calls > 0
        assert transport._now > engine.step_count
        if mode == "soa":
            assert engine.core_status["reason"] is None, engine.core_status
        seen[mode] = (_outcome(engine), transport._now, fast_forwards.calls)
    assert seen["objects"] == seen["soa"] == seen["verify"]


@settings(max_examples=300, deadline=None)
@given(
    rto=st.integers(1, 400),
    backoff=st.floats(1.0, 4.0),
    max_rto=st.integers(1, 5000),
    jitter=st.floats(-1.5, 1.5),
    attempt=st.integers(1, 40),
    seed=st.integers(0, 1000),
    tseq=st.integers(0, 1000),
)
def test_a_timer_bound_encloses_its_drawn_due(
    rto, backoff, max_rto, jitter, attempt, seed, tseq
) -> None:
    config = default_net_config(seed)
    config.update(rto=rto, backoff=backoff, max_rto=max_rto, jitter=jitter)
    transport = ReliableTransport.from_config(config)
    low, high = transport._rto_bounds(attempt)
    assert low <= transport._rto_after(3, 5, tseq, attempt) <= high


def _starved_transport(
    loss: float, warm: int, kind: type[ReliableTransport] = ReliableTransport
) -> ReliableTransport:
    """Frames posted outside any run, then a fast-forward under total
    loss: *warm* steps of prompt traffic first, whose acked flights
    leave timers behind that the fast-forward must still pop."""
    n, seed = 8, 21
    edges = gen.random_connected(n, 3, seed=seed)
    engine = build_fdp_engine(
        n, edges, choose_leaving(n, edges, fraction=0.25, seed=seed),
        seed=seed, engine_mode="objects",
    )
    config = default_net_config(seed, loss=loss, dup=0.0, delay=0.0, partition_at=None)
    transport = kind.from_config(config).install(engine)
    engine.attach()
    seq = 10_000
    for step in range(warm):
        for dst in (1, 2, 3):
            transport.on_post(0, dst, seq)
            seq += 1
        transport.flush(step)
    transport.flush(warm + 20)
    transport.underlay.add_burst("loss", transport._now, 10**9, 1.0)
    for dst in range(1, 8):
        for src in (0, 5):
            if src != dst:
                transport.on_post(src, dst, seq)
                seq += 1
    return transport


class _EagerTransport(ReliableTransport):
    """The reference the lower-bound timers stand in for: every timer
    enters the heap at its drawn due."""

    def _arm(self, chan: int, tseq: int, attempt: int) -> None:
        self._eid += 1
        now = self._now
        due = now + self._rto_after(chan >> _SRC_SHIFT, chan & _DST_MASK, tseq, attempt)
        heapq.heappush(self._events, (due, self._eid, "r", chan, tseq, attempt, now))


@pytest.mark.parametrize("loss, warm", [(1.0, 0), (0.0, 12)])
def test_a_fast_forward_pops_what_eager_timers_would(loss, warm) -> None:
    """The fast-forward stops at its cap of 10,000 events: retransmits
    plus the timers that found their flight acked, each of which still
    moves the clock, as it does when every due is drawn at the push."""
    seen = []
    for kind in (ReliableTransport, _EagerTransport):
        transport = _starved_transport(loss, warm, kind)
        assert not transport.run_dry()
        stats = transport.stats
        seen.append((transport._now, stats.retransmits, stats.sends, stats.dropped))
    assert seen[0] == seen[1]
    _now, retransmits, sends, dropped = seen[0]
    assert sends == 13 + 3 * warm
    assert dropped == retransmits + 13  # every attempt under the burst
    if warm:
        assert retransmits < 10_000  # acked flights' timers were popped
    else:
        assert retransmits == 10_000


def test_long_backoff_saturates_at_the_cap() -> None:
    """A flight retried past the float range of ``backoff ** attempt``
    keeps the capped timeout instead of raising."""
    transport = ReliableTransport(rto=24, backoff=2.0, max_rto=2_048, jitter=0.0)
    assert transport._base(5_000) == 2_048
    assert transport._rto_bounds(5_000) == (2_048, 2_048)
