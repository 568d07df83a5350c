"""Tests for the tracer and metric series recorder."""

import pytest

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    choose_leaving,
)
from repro.errors import ConfigurationError
from repro.graphs import generators as gen
from repro.obs.metrics import REGISTRY
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.scheduler import OldestFirstScheduler
from repro.sim.states import Capability, Mode, PState
from repro.sim.tracing import (
    DEFAULT_TRACER_CAPACITY,
    SeriesRecorder,
    Tracer,
)


class Ping(Process):
    def on_ping(self, ctx):
        pass


def make(procs, tracer=None, monitors=()):
    return Engine(
        procs,
        OldestFirstScheduler(),
        capability=Capability.NONE,
        tracer=tracer,
        monitors=monitors,
        require_staying_per_component=False,
    )


class TestTracer:
    def test_records_executed_steps(self):
        t = Tracer()
        p = Ping(0, Mode.STAYING)
        eng = make([p], tracer=t)
        eng.post(None, p.self_ref, "ping", ())
        eng.run(5, until=lambda e: False)
        assert len(t) == 5
        assert "ping" in t.labels()

    def test_by_pid_filters(self):
        t = Tracer()
        a, b = Ping(0, Mode.STAYING), Ping(1, Mode.STAYING)
        eng = make([a, b], tracer=t)
        eng.run(8, until=lambda e: False)
        assert all(e.pid == 0 for e in t.by_pid(0))
        assert len(t.by_pid(0)) + len(t.by_pid(1)) == len(t)

    def test_bounded_capacity(self):
        t = Tracer(capacity=3)
        eng = make([Ping(0, Mode.STAYING)], tracer=t)
        eng.run(10, until=lambda e: False)
        assert len(t) == 3

    def test_default_capacity_is_bounded(self):
        t = Tracer()
        assert t.capacity == DEFAULT_TRACER_CAPACITY
        assert t.events.maxlen == DEFAULT_TRACER_CAPACITY

    def test_unbounded_is_explicit_opt_in(self):
        t = Tracer(capacity=None)
        assert t.events.maxlen is None

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_validated(self, capacity):
        with pytest.raises(ConfigurationError, match="capacity must be >= 1"):
            Tracer(capacity=capacity)

    def test_long_run_memory_stays_bounded(self):
        # the PR 3 livelock regime: many steps, small ring — memory is
        # O(capacity), and the ring holds exactly the newest suffix
        t = Tracer(capacity=64)
        eng = make([Ping(0, Mode.STAYING), Ping(1, Mode.STAYING)], tracer=t)
        eng.run(5_000, until=lambda e: False)
        assert eng.step_count == 5_000
        assert len(t) == 64
        indices = [e.index for e in t.events]
        assert indices == list(range(5_000 - 64, 5_000))


class TestSeriesRecorder:
    def test_samples_every_k_steps(self):
        rec = SeriesRecorder(every=2)
        eng = make([Ping(0, Mode.STAYING)], monitors=[rec])
        eng.run(10, until=lambda e: False)
        assert len(rec.steps) == 5
        assert rec.steps == [2, 4, 6, 8, 10]

    def test_standard_probes_present(self):
        rec = SeriesRecorder()
        for name in ("potential", "gone", "pending_messages", "edges"):
            assert name in rec.probes

    def test_custom_probe(self):
        rec = SeriesRecorder(probes={"const": lambda e: 42.0})
        eng = make([Ping(0, Mode.STAYING)], monitors=[rec])
        eng.run(3, until=lambda e: False)
        assert rec.series["const"] == [42.0, 42.0, 42.0]
        assert rec.last("const") == 42.0

    def test_manual_sample(self):
        rec = SeriesRecorder()
        eng = make([Ping(0, Mode.STAYING)])
        rec.sample(eng)
        assert rec.steps == [0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SeriesRecorder(every=0)

    def test_probe_values_track_state(self):
        rec = SeriesRecorder(every=1)
        p = Ping(0, Mode.STAYING)
        eng = make([p], monitors=[rec])
        eng.post(None, p.self_ref, "ping", ())
        eng.post(None, p.self_ref, "ping", ())
        eng.run(6, until=lambda e: False)
        # pending messages decrease as pings are consumed
        pend = rec.series["pending_messages"]
        assert pend[0] >= pend[-1]

    def test_pre_run_and_final_step_sampling(self):
        rec = SeriesRecorder(every=1)
        p = Ping(0, Mode.STAYING)
        eng = make([p], monitors=[rec])
        eng.post(None, p.self_ref, "ping", ())
        rec.sample(eng)  # pre-run: step 0, message still pending
        eng.run(4, until=lambda e: False)
        rec.sample(eng)  # explicit final-step sample after the run
        assert rec.steps[0] == 0
        assert rec.steps[-1] == eng.step_count == 4
        assert rec.series["pending_messages"][0] == 1.0
        assert rec.last("pending_messages") == 0.0
        # the per-step monitor samples plus the two manual ones
        assert len(rec.steps) == 6

    def test_every_gt_one_aligns_with_step_count(self):
        rec = SeriesRecorder(every=3)
        eng = make([Ping(0, Mode.STAYING), Ping(1, Mode.STAYING)], monitors=[rec])
        eng.run(10, until=lambda e: False)
        assert rec.steps == [3, 6, 9]
        assert all(s % 3 == 0 for s in rec.steps)
        assert all(len(v) == len(rec.steps) for v in rec.series.values())

    def test_custom_probe_dict_is_copied_and_isolated(self):
        probes = {"const": lambda e: 42.0}
        rec = SeriesRecorder(probes=probes)
        probes["late"] = lambda e: 1.0  # mutating the caller's dict
        eng = make([Ping(0, Mode.STAYING)], monitors=[rec])
        eng.run(2, until=lambda e: False)
        assert set(rec.series) == {"const"}  # does not affect the recorder
        assert "potential" not in rec.probes  # custom dict replaces standard


class TestProbesMatchRebuildSnapshot:
    """Regression for the O(n)/O(m) probes bug: the standard probes read
    live O(1) counters; their values must equal what a from-scratch
    rebuild of the state computes."""

    def test_differential(self):
        n = 12
        edges = gen.random_connected(n, 5, seed=3)
        leaving = choose_leaving(n, edges, fraction=0.4, seed=3)
        engine = build_fdp_engine(
            n,
            edges,
            leaving,
            seed=7,
            corruption=HEAVY_CORRUPTION,
        )
        rec = SeriesRecorder(every=7)
        engine.monitors.append(rec)
        for _ in range(30):
            engine.run(7, until=lambda e: False)
            snap = engine.rebuild_snapshot()
            states = [p.state for p in engine.processes.values()]
            expect = {
                "gone": float(sum(1 for s in states if s is PState.GONE)),
                "asleep": float(sum(1 for s in states if s is PState.ASLEEP)),
                "edges": float(len(snap.edges)),
                "pending_messages": float(
                    sum(len(ch) for ch in engine.channels.values())
                ),
                "messages_posted": float(engine.stats.messages_posted),
            }
            for name, want in expect.items():
                assert REGISTRY[name](engine) == want, name
        assert engine.gone_count > 0  # the scenario exercised lifecycle
