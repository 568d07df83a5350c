"""Tests for the invariant monitors — both directions: they stay silent on
correct protocols and they trip on deliberately broken ones."""

import pytest

from repro.errors import ConfigurationError, SafetyViolation
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.monitors import (
    ConnectivityMonitor,
    PotentialMonitor,
    TransitionMonitor,
)
from repro.sim.process import Process
from repro.sim.scheduler import OldestFirstScheduler
from repro.sim.states import Capability, Mode, PState


class EdgeDropper(Process):
    """Deliberately broken protocol: drops its only reference (not a
    primitive — exactly the kind of action Lemma 1 protects against)."""

    def __init__(self, pid, neighbor_ref=None):
        super().__init__(pid, Mode.STAYING)
        self.neighbor = neighbor_ref
        self.dropped = False

    def stored_refs(self):
        if self.neighbor is not None and not self.dropped:
            yield RefInfo(self.neighbor, Mode.STAYING)

    def timeout(self, ctx):
        self.dropped = True


class LiarProcess(Process):
    """Deliberately broken protocol: copies invalid information (keeps its
    wrong belief AND forwards it) — the move Lemma 3's proof forbids."""

    def __init__(self, pid, victim=None, peer=None):
        super().__init__(pid, Mode.STAYING)
        self.victim = victim  # actually leaving, believed staying
        self.peer = peer

    def stored_refs(self):
        if self.victim is not None:
            yield RefInfo(self.victim, Mode.STAYING)

    def timeout(self, ctx):
        if self.victim is not None and self.peer is not None:
            ctx.send(self.peer, "noop", RefInfo(self.victim, Mode.STAYING))


class Noop(Process):
    def on_noop(self, ctx, info):
        pass


def make(procs, monitors=()):
    return Engine(
        procs,
        OldestFirstScheduler(),
        capability=Capability.BOTH,
        monitors=monitors,
        require_staying_per_component=False,
    )


class TestConnectivityMonitor:
    def test_trips_on_disconnection(self):
        a = EdgeDropper(0)
        b = Noop(1, Mode.STAYING)
        a.neighbor = b.self_ref
        mon = ConnectivityMonitor(check_every=1)
        eng = make([a, b], monitors=[mon])
        with pytest.raises(SafetyViolation, match="Lemma 2"):
            eng.run(20, until=lambda e: False)

    def test_silent_on_connected_run(self):
        from repro.core.scenarios import build_fdp_engine, LIGHT_CORRUPTION
        from repro.core.potential import fdp_legitimate
        from repro.graphs import generators

        mon = ConnectivityMonitor(check_every=1)
        eng = build_fdp_engine(
            8,
            generators.ring(8),
            leaving={2, 5},
            seed=3,
            corruption=LIGHT_CORRUPTION,
            monitors=[mon],
        )
        assert eng.run(100_000, until=fdp_legitimate, check_every=16)
        assert mon.checks > 0

    def test_check_every_validation(self):
        with pytest.raises(ConfigurationError):
            ConnectivityMonitor(check_every=0)


class TestPotentialMonitor:
    def test_trips_on_copied_invalid_information(self):
        victim = Noop(2, Mode.LEAVING)
        peer = Noop(1, Mode.STAYING)
        liar = LiarProcess(0, victim=victim.self_ref, peer=peer.self_ref)
        mon = PotentialMonitor(check_every=1)
        eng = make([liar, peer, victim], monitors=[mon])
        with pytest.raises(SafetyViolation, match="Lemma 3"):
            eng.run(30, until=lambda e: False)

    def test_records_series(self):
        mon = PotentialMonitor(check_every=1)
        eng = make([Noop(0, Mode.STAYING)], monitors=[mon])
        eng.run(5, until=lambda e: False)
        assert len(mon.values) == 5
        assert all(v == 0 for v in mon.values)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PotentialMonitor(check_every=-1)


class TestTransitionMonitor:
    def test_observes_sleep_and_wake(self):
        class Sleeper(Process):
            def timeout(self, ctx):
                if self.state is PState.AWAKE:
                    ctx.sleep()

            def on_ping(self, ctx):
                pass

        s = Sleeper(0, Mode.LEAVING)
        mon = TransitionMonitor()
        eng = make([s], monitors=[mon])
        eng.run(10, until=lambda e: s.state is PState.ASLEEP)
        eng.post(None, s.self_ref, "ping", ())
        eng.run(10, until=lambda e: False)
        assert (PState.AWAKE, PState.ASLEEP) in mon.observed
        assert (PState.ASLEEP, PState.AWAKE) in mon.observed

    def test_observes_exit(self):
        class Exiter(Process):
            def timeout(self, ctx):
                ctx.exit()

        mon = TransitionMonitor()
        eng = make([Exiter(0, Mode.LEAVING)], monitors=[mon])
        eng.run(5, until=lambda e: False)
        assert (PState.AWAKE, PState.GONE) in mon.observed
