"""What the step loop and its observers may cost, checked by running them.

Two spies watch real runs:

* The **observer spy** counts every read of ``Engine.processes`` /
  ``Engine.channels`` and every ``snapshot()`` / ``rebuild_snapshot()`` /
  ``LiveGraph.materialize()`` call made while an observer runs. A
  :class:`~repro.sim.tracing.SeriesRecorder` samples every
  :data:`~repro.obs.metrics.REGISTRY` probe each step, next to the
  Lemma 2 and Lemma 3 monitors and a tracer. Observers run once per step,
  so each of those is an O(n) scan per step; the first standard probes
  shipped with exactly that (``gone``/``asleep`` scanned every process,
  ``edges`` rebuilt a snapshot per sample). The same spy watches a whole
  soa run with a JSONL trace sink attached: the tracer rides the core,
  so the run reads no object, exports nothing and records each step
  exactly once.
* The **step-path spy** is a ``sys.setprofile`` hook live only inside
  ``Engine.step`` and ``EngineCore.run_batch``. It records every Python
  code object that runs there and every ``__init__`` call. That checks
  the allocation-free step loop by execution, on whatever the step path
  really reaches: classes built per step are slotted, no step-path
  function builds a closure per call, the core allocates nothing per
  batch, and the object loop allocates one ``ExecutedStep`` and one
  event per step and one ``Message`` per post.

Counts of Python calls are the same on every CPython version, unlike
traced bytes, so these bounds are exact.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from types import CodeType
from unittest import mock

import pytest

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    build_framework_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.graphs.livegraph import LiveGraph
from repro.obs.metrics import REGISTRY
from repro.obs.trace import JsonlTraceSink
from repro.overlays.builders import build_overlay_engine
from repro.overlays.clique import CliqueLogic
from repro.sim.engine import Engine
from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor
from repro.sim.refs import Ref
from repro.sim.soa import EngineCore
from repro.sim.tracing import SeriesRecorder, Tracer

N = 16
STEPS = 2000

#: code objects whose frames are the step path.
_ROOTS = frozenset({Engine.step.__code__, EngineCore.run_batch.__code__})
#: nested code objects that are expressions, not per-call closures.
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def _population(name: str, engine_mode: str = "objects", **kwargs) -> Engine:
    edges = gen.random_connected(N, N // 2, seed=3)
    leaving = choose_leaving(N, edges, fraction=0.4, seed=1)
    if name == "clique":
        with mock.patch.dict(os.environ, {"REPRO_ENGINE_MODE": engine_mode}):
            return build_overlay_engine(N, edges, CliqueLogic, seed=0, **kwargs)
    if name == "framework":
        return build_framework_engine(
            N, edges, leaving, CliqueLogic, corruption=HEAVY_CORRUPTION,
            seed=0, engine_mode=engine_mode, **kwargs,
        )
    build = build_fdp_engine if name == "fdp" else build_fsp_engine
    return build(
        N, edges, leaving, corruption=HEAVY_CORRUPTION, seed=0,
        engine_mode=engine_mode, **kwargs,
    )


# ---------------------------------------------------------------- observers


class _ObserverSpy:
    """Counts O(n) engine reads made while an observer is running."""

    def __init__(self, monkeypatch) -> None:
        self.reads: Counter[str] = Counter()
        self.observing = False
        for name in ("processes", "channels"):
            getter = getattr(Engine, name).fget
            monkeypatch.setattr(Engine, name, property(self._counted(name, getter)))
        for cls, name in (
            (Engine, "snapshot"),
            (Engine, "rebuild_snapshot"),
            (LiveGraph, "materialize"),
        ):
            monkeypatch.setattr(cls, name, self._counted(name, getattr(cls, name)))

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            if self.observing:
                self.reads[name] += 1
            return fn(*args, **kwargs)

        return counted

    def watch(self, observer):
        def watched(engine, executed) -> None:
            self.observing = True
            try:
                observer(engine, executed)
            finally:
                self.observing = False

        return watched


@pytest.mark.parametrize("engine_mode", ["objects", "verify"])
def test_observers_read_no_population_scan(monkeypatch, engine_mode: str) -> None:
    spy = _ObserverSpy(monkeypatch)
    recorder = SeriesRecorder({name: p.fn for name, p in REGISTRY.items()})
    tracer = Tracer()
    observers = [
        recorder,
        tracer.record,
        ConnectivityMonitor(),
        PotentialMonitor(),
    ]
    engine = _population(
        "fdp", engine_mode, monitors=[spy.watch(o) for o in observers]
    )
    engine.run(STEPS)
    assert len(recorder.steps) == engine.step_count > 0
    assert engine.asleep_count == 0  # sleeper-free: no induced-subgraph path
    assert spy.reads == {}, dict(spy.reads)


def test_traced_soa_run_reads_no_objects(monkeypatch, tmp_path) -> None:
    sink = JsonlTraceSink(str(tmp_path / "run.jsonl"), metrics_every=64)
    engine = _population("fdp", "soa", tracer=sink)
    engine.attach()
    spy = _ObserverSpy(monkeypatch)
    for cls, name in ((EngineCore, "export_to"), (JsonlTraceSink, "record")):
        monkeypatch.setattr(cls, name, spy._counted(name, getattr(cls, name)))
    spy.observing = True
    try:
        engine.run(STEPS)
    finally:
        spy.observing = False
    sink.close()
    assert engine.core_status["reason"] is None, engine.core_status
    assert engine.step_count == STEPS
    assert spy.reads == {"record": STEPS}, dict(spy.reads)


# ---------------------------------------------------------------- step path


class _StepPathSpy:
    """Code objects run, objects built and Refs hashed inside a step."""

    def __init__(self) -> None:
        self.codes: set[CodeType] = set()
        self.built: Counter[type] = Counter()
        #: module of each frame that hashed a Ref (dict/set operations).
        self.ref_hashers: Counter[str] = Counter()
        self.posted_before = 0
        self._depth = 0

    def _profile(self, frame, event, arg) -> None:
        code = frame.f_code
        if event == "call":
            if code in _ROOTS:
                self._depth += 1
            if not self._depth:
                return
            self.codes.add(code)
            if code.co_name == "__init__" and "self" in frame.f_locals:
                self.built[type(frame.f_locals["self"])] += 1
            elif code is Ref.__hash__.__code__:
                self.ref_hashers[frame.f_back.f_globals["__name__"]] += 1
        elif event == "return" and code in _ROOTS:
            self._depth -= 1

    def run(self, engine: Engine, steps: int) -> None:
        self.posted_before = engine.stats.messages_posted
        sys.setprofile(self._profile)
        try:
            engine.run(steps)
        finally:
            sys.setprofile(None)
        assert engine.step_count == steps, "the run went quiescent early"


@pytest.fixture(scope="module")
def spied():
    """``(population, engine_mode) -> (engine, spy)``, each run once."""
    runs: dict[tuple[str, str], tuple[Engine, _StepPathSpy]] = {}

    def get(name: str, engine_mode: str = "objects") -> tuple[Engine, _StepPathSpy]:
        if (name, engine_mode) not in runs:
            engine = _population(name, engine_mode)
            spy = _StepPathSpy()
            spy.run(engine, STEPS)
            runs[name, engine_mode] = engine, spy
        return runs[name, engine_mode]

    return get


@pytest.mark.parametrize("population", ["fdp", "fsp", "clique", "framework"])
def test_step_path_classes_are_slotted(spied, population: str) -> None:
    _, spy = spied(population)
    project = {cls for cls in spy.built if cls.__module__.startswith("repro.")}
    assert project, "the spy saw no construction"
    with_dict = sorted(
        cls.__qualname__ for cls in project if "__dict__" in dir(cls)
    )
    assert not with_dict, f"built per step without __slots__: {with_dict}"


@pytest.mark.parametrize("population", ["fdp", "fsp", "clique", "framework"])
def test_step_path_builds_no_closures(spied, population: str) -> None:
    _, spy = spied(population)
    closures = sorted(
        f"{getattr(code, 'co_qualname', code.co_name)} -> {const.co_name}"
        for code in spy.codes
        for const in code.co_consts
        if isinstance(const, CodeType) and const.co_name not in _COMPREHENSIONS
    )
    assert not closures, f"step-path functions that build closures: {closures}"


@pytest.mark.parametrize("population", ["fdp", "fsp"])
def test_core_batches_build_nothing(spied, population: str) -> None:
    engine, spy = spied(population, "soa")
    assert engine.core_status["active"]
    assert not spy.built, dict(spy.built)
    assert not spy.ref_hashers, dict(spy.ref_hashers)


@pytest.mark.parametrize("population", ["fdp", "fsp"])
def test_object_loop_allocation_ledger(spied, population: str) -> None:
    engine, spy = spied(population)
    stats = engine.stats
    built = {cls.__name__: k for cls, k in spy.built.items()}
    assert set(built) <= {
        "ExecutedStep", "TimeoutEvent", "DeliverEvent", "Message", "RefInfo",
    }, built
    assert built["ExecutedStep"] == STEPS
    assert built.get("TimeoutEvent", 0) + built.get("DeliverEvent", 0) == STEPS
    assert built["Message"] == stats.messages_posted - spy.posted_before
    # an FDP/FSP send carries one RefInfo, which is posted, dropped at a
    # gone target or bounced; a bounce posts one fresh RefInfo per ref
    assert built["RefInfo"] <= built["Message"] + stats.dropped_gone + stats.bounced
    # the engine keys its tables by pid: only the protocol's own
    # Ref-keyed storage (RefMap/RefCell) hashes a Ref
    assert set(spy.ref_hashers) <= {"repro.sim.refs"}, dict(spy.ref_hashers)
