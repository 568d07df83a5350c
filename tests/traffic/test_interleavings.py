"""Differential fuzz of open-system interleavings.

Hypothesis generates arbitrary join/leave/request/step interleavings and
drives them through the churn API under ``engine_mode="verify"`` — every
protocol step executes on both the object model and the struct-of-arrays
core, and the first divergence raises :class:`StateViolation`. The run
itself is the oracle; the end-state assertions (zero searchability
violations fault-free, maintained counters ≡ full recount) close the
open-system accounting loop.

Parametrized over all four fair scheduler families: churn interacts with
scheduler bookkeeping (``notify_send`` to dead channels, ``notify_gone``
after reap, wake stamps for admitted processes), so each family gets its
own sweep.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fdp import FDPProcess
from repro.core.scenarios import (
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.sim.states import Mode, PState
from repro.traffic.requests import SearchabilityTracker

COMMON = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

OPS = ("step", "join", "leave", "request", "reap")


@st.composite
def interleaving(draw):
    n = draw(st.integers(4, 9))
    extra = draw(st.integers(0, n // 2))
    topo_seed = draw(st.integers(0, 10_000))
    leave_seed = draw(st.integers(0, 10_000))
    run_seed = draw(st.integers(0, 10_000))
    fraction = draw(st.floats(0.0, 0.5))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(OPS), st.integers(0, 2**20)),
            min_size=8,
            max_size=40,
        )
    )
    return n, extra, topo_seed, leave_seed, run_seed, fraction, ops


class Harness:
    """Applies one generated op stream, mirroring the TrafficDriver's
    liveness guard (never drain the last staying member of an initial
    component) so every interleaving is an admissible open-system run."""

    def __init__(self, engine):
        self.engine = engine
        self.tracker = SearchabilityTracker()
        self.violations = 0
        self.next_pid = max(engine.processes) + 1
        self.watch: set[int] = set()
        self.comp_of: dict[int, int] = {}
        self.comp_staying: dict[int, int] = {}
        for idx, comp in enumerate(engine.initial_components):
            for pid in comp:
                self.comp_of[pid] = idx
        self.staying = {
            pid
            for pid, p in engine.processes.items()
            if p.mode is Mode.STAYING and p.state is not PState.GONE
        }
        for pid in self.staying:
            comp = self.comp_of.get(pid)
            if comp is not None:
                self.comp_staying[comp] = self.comp_staying.get(comp, 0) + 1

    def apply(self, op: str, arg: int) -> None:
        engine = self.engine
        if op == "step":
            engine.run(1 + arg % 32)
        elif op == "join":
            pool = sorted(self.staying)
            contact = engine.processes[pool[arg % len(pool)]].self_ref
            pid = self.next_pid
            self.next_pid += 1
            engine.admit(FDPProcess(pid, Mode.STAYING, neighbors=[contact]))
            self.staying.add(pid)
        elif op == "leave":
            pool = sorted(self.staying)
            pid = pool[arg % len(pool)]
            comp = self.comp_of.get(pid)
            if comp is not None:
                if self.comp_staying[comp] <= 1:
                    return  # liveness guard: last stayer of the component
                self.comp_staying[comp] -= 1
            engine.request_leave(pid)
            self.staying.discard(pid)
            self.watch.add(pid)
            self.tracker.retire(pid)
        elif op == "request":
            pool = sorted(self.staying)
            if len(pool) < 2:
                return
            src = pool[arg % len(pool)]
            dst = pool[(arg // len(pool)) % len(pool)]
            ok = engine.live_graph.same_component((src, dst))
            if self.tracker.record(src, dst, ok):
                self.violations += 1
        elif op == "reap":
            for pid in sorted(self.watch):
                proc = engine.processes.get(pid)
                if proc is None:
                    self.watch.discard(pid)
                elif proc.state is PState.GONE and engine.can_reap(pid):
                    engine.reap(pid)
                    self.tracker.retire(pid)
                    self.watch.discard(pid)


NET_OPS = OPS + ("burst",)


@st.composite
def net_interleaving(draw):
    n = draw(st.integers(4, 9))
    extra = draw(st.integers(0, n // 2))
    topo_seed = draw(st.integers(0, 10_000))
    leave_seed = draw(st.integers(0, 10_000))
    run_seed = draw(st.integers(0, 10_000))
    fraction = draw(st.floats(0.0, 0.5))
    loss = draw(st.floats(0.0, 0.3))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(NET_OPS), st.integers(0, 2**20)),
            min_size=8,
            max_size=40,
        )
    )
    return n, extra, topo_seed, leave_seed, run_seed, fraction, loss, ops


@pytest.mark.parametrize("family", sorted(SCHEDULER_FACTORIES))
@settings(**COMMON)
@given(interleaving())
def test_interleavings_verify_clean(family, case):
    n, extra, topo_seed, leave_seed, run_seed, fraction, ops = case
    edges = gen.random_connected(n, extra_edges=extra, seed=topo_seed)
    leaving = choose_leaving(n, edges, fraction=fraction, seed=leave_seed)
    engine = build_fdp_engine(
        n,
        edges,
        leaving,
        seed=run_seed,
        scheduler=SCHEDULER_FACTORIES[family](run_seed),
        engine_mode="verify",  # every step cross-checked object vs soa
    )
    engine.attach()
    harness = Harness(engine)
    for op, arg in ops:
        harness.apply(op, arg)
    engine.run(256)  # drain: any latent divergence surfaces here

    # fault-free open-system runs stay monotonically searchable
    assert harness.violations == 0
    # maintained lifecycle tallies survive arbitrary churn
    maintained = (engine.gone_count, engine.asleep_count)
    engine._lifecycle_stale = True  # force the full rescan
    assert (engine.gone_count, engine.asleep_count) == maintained
    assert engine.pending_count == sum(
        len(ch) for ch in engine.channels.values()
    )
    # retired pids are gone for good
    assert not set(engine.processes) & set(getattr(engine, "_retired_pids", ()))


@pytest.mark.parametrize("family", sorted(SCHEDULER_FACTORIES))
@settings(**COMMON)
@given(net_interleaving())
def test_net_fault_interleavings_stay_searchable(family, case):
    """Churn × underlay faults: arbitrary join/leave/request/reap
    interleavings with seeded loss/dup/delay/partition bursts landing
    mid-stream. Faults only defer notification timing, so the
    open-system accounting invariants must hold verbatim; the
    ``verify`` engine mode is requested on purpose — a transport-backed
    run keeps its core, which mirrors every step and every churn
    operation and is cross-checked against the objects after each one
    and in full at the end."""
    from repro.net import ReliableTransport, default_net_config
    from repro.net.underlay import BURST_KINDS

    n, extra, topo_seed, leave_seed, run_seed, fraction, loss, ops = case
    edges = gen.random_connected(n, extra_edges=extra, seed=topo_seed)
    leaving = choose_leaving(n, edges, fraction=fraction, seed=leave_seed)
    engine = build_fdp_engine(
        n,
        edges,
        leaving,
        seed=run_seed,
        scheduler=SCHEDULER_FACTORIES[family](run_seed),
        engine_mode="verify",
    )
    cfg = default_net_config(
        run_seed, loss=loss, dup=loss, delay=loss, partition_at=32
    )
    transport = ReliableTransport.from_config(cfg).install(engine)
    engine.attach()
    status = engine.core_status
    assert status["active"] and status["reason"] is None

    harness = Harness(engine)
    for op, arg in ops:
        if op == "burst":
            kind = BURST_KINDS[arg % len(BURST_KINDS)]
            transport.underlay.add_burst(
                kind,
                start=engine.step_count,
                duration=1 + arg % 64,
                amount=0.05 + (arg % 7) / 10.0,
            )
        else:
            harness.apply(op, arg)
    engine.run(512)  # drain through the fault tail

    # faults defer deliveries but never corrupt the graph: fault-free
    # searchability accounting holds under loss/dup/delay/partition too
    assert harness.violations == 0
    maintained = (engine.gone_count, engine.asleep_count)
    engine._lifecycle_stale = True
    assert (engine.gone_count, engine.asleep_count) == maintained
    assert engine.pending_count == sum(
        len(ch) for ch in engine.channels.values()
    )
    assert engine.verify_core_state()
    # transport bookkeeping stayed structurally sound through the churn
    assert sum(map(len, transport._flights.values())) <= transport.stats.sends
    for chan, rx in transport._rx.items():
        # a receiver can never ack past what the sender has numbered
        assert rx.floor < transport._next_tseq.get(chan, 0)
