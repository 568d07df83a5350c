"""Set-up on the core: what building and attaching an engine costs.

A soa engine answers every query from its struct-of-arrays core, so it
never needs a :class:`~repro.graphs.livegraph.LiveGraph`: attach derives
``initial_components`` and the staying-per-component check from the
core's labelling, and confined garbage planting before attach takes one
``Engine.component_labels`` answer per call. These tests pin that by
execution:

* ``initial_components`` is the same tuple, order included, on the
  object loop, on the core and in verify mode (which cross-checks the
  core's partition against the live graph's at attach);
* a spy on ``LiveGraph.__init__`` counts zero constructions across a
  soa build, attach and run, and exactly one (at attach) on the object
  loop and in verify mode;
* confined planting before attach still rejects cross-component and
  gone-process plants, and a 64-component build scans the population
  once per ``component_labels`` answer, not once per plant or post;
* a soa engine stepped on the object loop samples Φ from its first
  step, like the object loop, even when that step drops a message;
* the scenario builders sort each component once to draw anchors.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from unittest import mock

import pytest

from repro.core.potential import fdp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    build_framework_engine,
    build_fsp_engine,
    choose_leaving,
    components_of_edges,
)
from repro.errors import ConfigurationError
from repro.graphs import generators as gen
from repro.graphs.livegraph import LiveGraph
from repro.obs.trace import JsonlTraceSink
from repro.sim import engine as engine_module
from repro.sim.faults import plant_ref_message, scatter_garbage_messages
from repro.sim.states import Mode, PState
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver

MODES = ("objects", "soa", "verify")


def _blocks(sizes: list[int], seed: int) -> tuple[int, list[tuple[int, int]]]:
    """A multi-component edge list whose components interleave in pid
    order: one random connected block per size, over a shuffled pid map."""
    n = sum(sizes)
    pids = list(range(n))
    Random(seed).shuffle(pids)
    edges: list[tuple[int, int]] = []
    at = 0
    for i, size in enumerate(sizes):
        block = pids[at:at + size]
        at += size
        for a, b in gen.random_connected(size, size // 2, seed=seed + i):
            edges.append((block[a], block[b]))
    return n, edges


def _build(protocol: str, mode: str, sizes=(9, 1, 14, 5, 11), seed: int = 4, **kw):
    n, edges = _blocks(list(sizes), seed)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
    build = build_fdp_engine if protocol == "fdp" else build_fsp_engine
    return build(
        n, edges, leaving, corruption=HEAVY_CORRUPTION, seed=seed,
        engine_mode=mode, **kw,
    )


class _Spy:
    """Counts calls of ``owner.name`` while installed, calling through."""

    def __init__(self, owner, name: str) -> None:
        self.calls = 0
        inner = getattr(owner, name)

        def spy(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        self._patch = mock.patch.object(owner, name, spy)

    def __enter__(self) -> _Spy:
        self._patch.start()
        return self

    def __exit__(self, *exc) -> None:
        self._patch.stop()


# ---------------------------------------------------------------- initial_components


@pytest.mark.parametrize("protocol", ["fdp", "fsp"])
@pytest.mark.parametrize("seed", [4, 9])
def test_initial_components_identical_across_modes(protocol: str, seed: int) -> None:
    n, edges = _blocks([9, 1, 14, 5, 11], seed)
    # pids are created in ascending order, so "first member in processes
    # order" is the smallest member
    expected = tuple(sorted(components_of_edges(n, edges), key=min))
    seen = {}
    for mode in MODES:
        engine = _build(protocol, mode, seed=seed)
        engine.attach()
        if mode != "objects":
            assert engine.core_status["active"], engine.core_status
        seen[mode] = engine.initial_components
    assert seen["objects"] == seen["soa"] == seen["verify"] == expected


def _two_pairs(mode: str):
    """Pids 7, 3, 5, 1 in that order; 7 knows 1 and 5 knows 3."""
    from repro.core.fdp import FDPProcess
    from repro.sim.engine import Engine

    procs = {pid: FDPProcess(pid, Mode.STAYING) for pid in (7, 3, 5, 1)}
    procs[7].N[procs[1].self_ref] = Mode.STAYING
    procs[5].N[procs[3].self_ref] = Mode.STAYING
    return Engine(procs.values(), seed=0, engine_mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_initial_components_follow_processes_order(mode: str) -> None:
    """Components are listed by their first member in ``processes``
    order, not by pid value."""
    engine = _two_pairs(mode)
    engine.attach()
    assert engine.initial_components == (frozenset({7, 1}), frozenset({3, 5}))
    assert dict(engine.component_labels()) == {7: 7, 3: 3, 5: 3, 1: 7}


@pytest.mark.parametrize("mode", MODES)
def test_component_without_staying_rejected(mode: str) -> None:
    n, edges = 6, [(0, 1), (1, 2), (3, 4), (4, 5)]
    engine = build_fdp_engine(n, edges, {3, 4, 5}, seed=1, engine_mode=mode)
    with pytest.raises(ConfigurationError, match=r"pids \[3, 4, 5\]"):
        engine.attach()


@pytest.mark.parametrize("mode", MODES)
def test_component_labels_agree_with_a_fresh_scan(mode: str) -> None:
    """Mid-run, whoever answers (core, live graph), the labelling equals
    the union-find scan of the stores and channels."""
    engine = _build("fdp", mode)
    engine.run(300)
    answer = dict(engine.component_labels())
    scan = engine._scan_component_labels()  # noqa: SLF001
    assert answer == dict(scan)
    assert set(answer) == {
        pid for pid, p in engine.processes.items() if p.state is not PState.GONE
    }


# ---------------------------------------------------------------- live-graph spy


def _to_legitimacy(mode: str, spy: _Spy, tmp_path) -> tuple:
    engine = _build("fdp", mode, sizes=(40,), seed=2)
    engine.attach()
    attached = spy.calls
    assert engine.run(200_000, until=fdp_legitimate, check_every=256)
    return engine, attached


def _churn(mode: str, spy: _Spy, tmp_path) -> tuple:
    n = 64
    edges = gen.random_connected(n, 16, seed=5)
    engine = build_fdp_engine(
        n, edges, choose_leaving(n, edges, fraction=0.05, seed=5),
        corruption=HEAVY_CORRUPTION, seed=5, engine_mode=mode,
    )
    driver = TrafficDriver(  # attaches the engine
        engine,
        arrivals=ArrivalConfig(
            join_rate=40.0, session_min=512.0, max_population=n + 16
        ),
        requests=RequestConfig(rate=50.0),
        seed=5,
        chunk=256,
    )
    attached = spy.calls
    stats = driver.run(4096)["stats"]
    assert stats["joins"] and stats["leaves"] and stats["reaps"], stats
    return engine, attached


def _traced(mode: str, spy: _Spy, tmp_path) -> tuple:
    sink = JsonlTraceSink(str(tmp_path / "trace.jsonl"), metrics_every=64)
    engine = _build("fdp", mode, sizes=(40,), seed=2, tracer=sink)
    engine.attach()
    attached = spy.calls
    assert engine.run(200_000, until=fdp_legitimate, check_every=256)
    sink.finalize(engine)
    sink.close()
    return engine, attached


RUNS = {"legitimacy": _to_legitimacy, "churn": _churn, "trace": _traced}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("mode", MODES)
def test_live_graph_built_only_where_read(run: str, mode: str, tmp_path) -> None:
    """Build, attach and run: a soa engine whose core answers every
    query builds no live graph; the object loop and verify mode build
    exactly one, at attach."""
    with _Spy(LiveGraph, "__init__") as spy:
        engine, attached = RUNS[run](mode, spy, tmp_path)
    if mode == "soa":
        assert engine.core_status["active"], engine.core_status
        assert engine.core_status["reason"] is None
        assert (attached, spy.calls) == (0, 0)
    else:
        assert (attached, spy.calls) == (1, 1)


def test_soa_object_loop_builds_live_graph_on_first_step() -> None:
    """``step()`` runs on the object loop, whose first step builds the
    live graph, once."""
    engine = _build("fdp", "soa")
    with _Spy(LiveGraph, "__init__") as spy:
        engine.attach()
        assert spy.calls == 0
        for _ in range(50):
            engine.step()
    assert spy.calls == 1


# ---------------------------------------------------------------- planting before attach


def _two_components(mode: str):
    """FDP pids 0-1 and 2-3 joined pairwise by in-flight references, no
    link between the pairs."""
    engine = build_fdp_engine(4, [], set(), seed=0, engine_mode=mode)
    plant_ref_message(engine, 0, "present", 1, Mode.STAYING)
    plant_ref_message(engine, 2, "present", 3, Mode.STAYING)
    return engine


def test_soa_confinement_before_attach() -> None:
    with _Spy(LiveGraph, "__init__") as spy:
        engine = _two_components("soa")
        assert scatter_garbage_messages(
            engine, Random(0), 5, targets=[0], subjects=[1], confine_component=True
        ) == 5
        with pytest.raises(ConfigurationError, match="components"):
            scatter_garbage_messages(
                engine, Random(0), 1, targets=[0], subjects=[2],
                confine_component=True,
            )
        engine._transition(engine.processes[3], PState.GONE)  # noqa: SLF001
        with pytest.raises(ConfigurationError, match="gone process 3"):
            scatter_garbage_messages(
                engine, Random(0), 1, targets=[2], subjects=[3],
                confine_component=True,
            )
        engine.attach()
    assert spy.calls == 0
    assert engine.core_status["active"]
    assert engine.initial_components == (frozenset({0, 1}), frozenset({2}))


@pytest.mark.parametrize("mode", MODES)
def test_64_component_build_scans_once_per_labelling(mode: str) -> None:
    """Planting confined garbage component by component takes one
    labelling per call, and each answer scans the population once: no
    scan per plant or post. The soa attach then reads the core's
    labelling; the object loop and verify mode read the live graph's."""
    sizes = [8] * 64
    labels = _Spy(engine_module.Engine, "component_labels")
    scans = _Spy(engine_module, "first_member_labels")
    with labels, scans, _Spy(LiveGraph, "__init__") as live:
        engine = _build("fdp", mode, sizes=sizes, seed=6)
        assert (labels.calls, scans.calls, live.calls) == (64, 64, 0)
        engine.attach()
    assert len(engine.initial_components) == 64
    assert labels.calls == 65
    assert scans.calls == 64
    assert live.calls == (0 if mode == "soa" else 1)


def test_attach_rescans_a_live_graph_built_before_construction_ended() -> None:
    """A live graph a pre-attach query built may have missed store
    edits; a soa attach that does not rebuild it marks it stale."""
    engine = _two_components("soa")
    assert engine.snapshot().weakly_connected_components()  # builds one
    procs = engine.processes
    procs[1].N[procs[2].self_ref] = Mode.STAYING  # construction goes on
    engine.attach()
    assert engine.initial_components == (frozenset({0, 1, 2, 3}),)
    assert Counter(engine.snapshot().edges) == Counter(engine.rebuild_snapshot().edges)


# ---------------------------------------------------------------- first object-loop step


def _asleep_with_unknown_label(mode: str):
    """Every process asleep, so the only enabled event is the delivery
    of one unknown-label message carrying a lying reference; dropping it
    lowers Φ. Lying messages elsewhere keep Φ falling afterwards."""
    engine = build_fdp_engine(
        6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], {2, 4},
        seed=28, engine_mode=mode, strict=False,
    )
    plant_ref_message(engine, 0, "bogus", 1, Mode.LEAVING)
    for pid in (2, 3, 5):
        plant_ref_message(engine, pid, "present", pid - 1, Mode.LEAVING)
    for proc in list(engine.processes.values()):
        engine._transition(proc, PState.ASLEEP)  # noqa: SLF001
    return engine


def test_first_object_loop_step_samples_phi_like_the_object_loop() -> None:
    """A soa engine attached on its core builds its live graph at the
    first ``step()``, before the event runs: a first step that drops an
    unknown label still samples Φ, so progress tracking matches the
    object loop step for step."""
    engines = {mode: _asleep_with_unknown_label(mode) for mode in ("objects", "soa")}
    for engine in engines.values():
        engine.attach()
    assert engines["soa"].core_status["active"], engines["soa"].core_status
    phi0 = engines["objects"].potential()
    first = {mode: engine.step() for mode, engine in engines.items()}
    assert first["objects"] == first["soa"]
    assert first["objects"].pid == 0 and first["objects"].label == "bogus"
    assert engines["objects"].stats.dropped_unknown == 1
    assert engines["objects"].potential() < phi0
    for _ in range(40):
        seen = {
            mode: (engine._last_phi_seen, engine.progress_diagnostics())  # noqa: SLF001
            for mode, engine in engines.items()
        }
        assert seen["objects"] == seen["soa"]
        if engines["objects"].step() is None:
            break
        engines["soa"].step()


# ---------------------------------------------------------------- anchor draw


def _framework(n, edges, leaving, **kw):
    from repro.overlays.robust_ring import RobustRingLogic

    return build_framework_engine(n, edges, leaving, RobustRingLogic, **kw)


@pytest.mark.parametrize("build", [build_fdp_engine, build_fsp_engine, _framework])
def test_anchor_draw_sorts_each_component_once(build) -> None:
    """Anchors are drawn in O(n log n): a build sorts each component
    once for the anchors and once for the garbage, never per anchored
    pid."""
    from repro.core import scenarios

    sizes = [9, 1, 14, 5, 11]
    n, edges = _blocks(sizes, 4)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=4)
    sorts: Counter[int] = Counter()

    def counting_sorted(items, *args, **kwargs):
        out = sorted(items, *args, **kwargs)
        sorts[len(out)] += 1
        return out

    with mock.patch.object(scenarios, "sorted", counting_sorted, create=True):
        engine = build(n, edges, leaving, corruption=HEAVY_CORRUPTION, seed=4)
    assert sorts == Counter({size: 2 for size in sizes})
    assert sum(p.anchor is not None for p in engine.processes.values()) > len(sizes)
