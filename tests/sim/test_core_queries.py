"""The engine's query facade: the core's answers ≡ the live graph ≡ a rebuild.

While the struct-of-arrays core holds the current state, ``Engine``'s
read methods (``potential``, ``edge_count``, ``pending_count``,
``describe``, ``partners``/``partner_pids``, ``hops``,
``same_component``, ``state_of``, ``lifecycle_clauses``,
``staying_pids``) answer from the core, and a
soa predicate boundary exports only the counters. This file pins that
contract from three sides:

* **differential** (hypothesis) — at every predicate boundary and every
  churn boundary, the facade's answers (taken first, while the object
  export is still deferred) equal the live graph's and those of a
  from-scratch ``rebuild_snapshot()``, for FDP and FSP under all four
  scheduler families. The rebuild side uses the snapshot reading of
  legitimacy condition (iii), kept here as the oracle for the
  ``same_component`` rewrite in :mod:`repro.core.potential`;
* **no rebuilds** — counter reads after a soa run never build the live
  graph;
* **lazy export** — a predicate that reads objects sees exactly the
  object loop's state; a run returns with the export deferred and the
  first object read pays it once; a churn run on the core never
  exports; and a core dropped inside a predicate, a predicate that
  raises, or an out-of-band transition on a ``Process`` held across a
  run all leave the object loop's state.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fdp import FDPProcess
from repro.core.potential import (
    all_leaving_gone,
    all_leaving_hibernating,
    all_staying_awake,
    fdp_legitimate,
    staying_connected_per_component,
)
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.graphs.connectivity import bfs_shortest_path, hop_distance
from repro.errors import StateViolation, UnknownActionError
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.refs import pid_of
from repro.sim.soa import EngineCore
from repro.sim.states import Mode, PState
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver
from tests.sim.test_soa_differential import final_state

SCHEDULERS = tuple(SCHEDULER_FACTORIES)

HYPOTHESIS_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


@pytest.fixture(autouse=True)
def _unpin_engine_mode(monkeypatch):
    """Each test names its engine mode; ignore the CI job's pin."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


def _build(scenario: str, seed: int, scheduler: str, *, mode: str = "soa", n: int = 12):
    edges = gen.random_connected(n, n // 2, seed=seed + 7)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed + 1)
    build = build_fsp_engine if scenario == "fsp" else build_fdp_engine
    return build(
        n,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[scheduler](seed),
        seed=seed,
        engine_mode=mode,
    )


# ------------------------------------------------------------ three answer sets


def _pids(engine: Engine) -> list[int]:
    # The private dict: reading ``engine.processes`` would complete the
    # deferred export before the facade is asked anything.
    return sorted(engine._processes)


def _hop_pairs(pids: list[int]) -> list[tuple[int, int]]:
    """Every third pair: disconnected, adjacent and distant ones alike."""
    return list(combinations(pids, 2))[::3]


def facade_answers(engine: Engine, scenario: str) -> dict:
    pids = _pids(engine)
    leaving_ok = all_leaving_hibernating if scenario == "fsp" else all_leaving_gone
    return {
        "phi": engine.potential(),
        "edges": engine.edge_count,
        "pending": engine.pending_count,
        "pairs": [engine.same_component(pair) for pair in combinations(pids, 2)],
        "partners": [engine.partner_pids(pid) for pid in pids],
        "hops": [engine.hops(a, b) for a, b in _hop_pairs(pids)],
        "states": [engine.state_of(pid) for pid in pids],
        "clauses": (
            all_staying_awake(engine),
            leaving_ok(engine),
            staying_connected_per_component(engine),
        ),
    }


def _objects_clauses(engine: Engine) -> tuple[bool, bool]:
    procs = engine.processes.values()
    staying_awake = all(
        p.state is PState.AWAKE for p in procs if p.mode is Mode.STAYING
    )
    leaving_gone = all(p.state is PState.GONE for p in procs if p.mode is Mode.LEAVING)
    return staying_awake, leaving_gone


def _staying_members(engine: Engine) -> list[frozenset[int]]:
    staying = frozenset(
        pid
        for pid, p in engine.processes.items()
        if p.mode is Mode.STAYING and p.state is not PState.GONE
    )
    return [comp & staying for comp in engine.initial_components]


def live_answers(engine: Engine, scenario: str) -> dict:
    live = engine.live_graph
    pids = _pids(engine)
    relevant = live.relevant() if engine.asleep_count else None
    staying_awake, leaving_gone = _objects_clauses(engine)
    if scenario == "fsp":
        hibernating = live.hibernating()
        leaving_gone = all(
            p.state is PState.GONE or pid in hibernating
            for pid, p in engine.processes.items()
            if p.mode is Mode.LEAVING
        )
    return {
        "phi": live.phi,
        "edges": live.edge_total,
        "pending": live.pending_total,
        "pairs": [live.same_component(pair) for pair in combinations(pids, 2)],
        "partners": [
            live.partners(pid) if relevant is None else live.partners(pid) & relevant
            for pid in pids
        ],
        "hops": [hop_distance(live.partners, a, b) for a, b in _hop_pairs(pids)],
        "states": [engine.processes[pid].state for pid in pids],
        "clauses": (
            staying_awake,
            leaving_gone,
            all(len(m) <= 1 or live.same_component(m) for m in _staying_members(engine)),
        ),
    }


def staying_connected_snapshot(engine: Engine) -> bool:
    """Condition (iii) on a from-scratch snapshot: per initial component,
    the staying members are weakly connected within the component plus
    every non-gone mid-run admission."""
    snap = engine.rebuild_snapshot()
    staying = frozenset(
        pid for pid, p in engine.processes.items() if p.mode is Mode.STAYING
    )
    admitted = (
        frozenset(
            pid for pid, p in engine.processes.items() if p.state is not PState.GONE
        )
        - engine.initial_pids
    )
    for comp in engine.initial_components:
        members = frozenset(comp) & staying
        if len(members) <= 1:
            continue
        if not snap.is_weakly_connected_within(members, frozenset(comp) | admitted):
            return False
    return True


def rebuild_answers(engine: Engine, scenario: str) -> dict:
    snap = engine.rebuild_snapshot()
    pids = _pids(engine)
    component = {}
    for idx, comp in enumerate(snap.weakly_connected_components()):
        for pid in comp:
            component[pid] = idx
    within = snap.relevant() if engine.asleep_count else snap.pids
    # hops run through any non-gone process, asleep ones included
    adjacency = {pid: snap.partners(pid, within=snap.pids) for pid in snap.pids}
    paths = [bfs_shortest_path(adjacency, a, b) for a, b in _hop_pairs(pids)]
    staying_awake, leaving_gone = _objects_clauses(engine)
    if scenario == "fsp":
        hibernating = snap.hibernating()
        leaving_gone = all(
            p.state is PState.GONE or pid in hibernating
            for pid, p in engine.processes.items()
            if p.mode is Mode.LEAVING
        )
    return {
        "phi": sum(1 for _ in snap.iter_invalid_edges(engine.actual_mode)),
        "edges": len(snap.edges),
        "pending": sum(len(ch) for ch in engine.channels.values()),
        "pairs": [
            a in component and b in component and component[a] == component[b]
            for a, b in combinations(pids, 2)
        ],
        "partners": [
            snap.partners(pid, within=within) if pid in snap else set() for pid in pids
        ],
        "hops": [None if path is None else len(path) - 1 for path in paths],
        "states": [engine.processes[pid].state for pid in pids],
        "clauses": (staying_awake, leaving_gone, staying_connected_snapshot(engine)),
    }


def assert_three_way(engine: Engine, scenario: str) -> bool:
    """Compare the three answer sets; return whether the core answered."""
    deferred = engine._export_pending
    from_core = engine._query_core() is not None
    facade = facade_answers(engine, scenario)
    if deferred and scenario == "fdp":
        # FDP has no sleepers, so no facade query needed the objects.
        assert engine._export_pending
    live = live_answers(engine, scenario)
    oracle = rebuild_answers(engine, scenario)
    assert facade == live, f"facade (core={from_core}) != live graph"
    assert live == oracle, "live graph != rebuild_snapshot()"
    return from_core


# ------------------------------------------------------------ differential

#: churn with every operation at a small scale: joins, departure
#: intents, reaps and hop samples at every boundary
SMALL_CHURN = dict(
    arrivals=ArrivalConfig(
        join_rate=30.0,
        session_min=200,
        flash_crowd_prob=0.1,
        flash_crowd_size=3,
        mass_departure_prob=0.05,
        mass_departure_frac=0.3,
    ),
    requests=RequestConfig(rate=40.0, latency_sample_every=2),
    chunk=96,
)



@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("scenario", ["fdp", "fsp"])
@settings(max_examples=4, **HYPOTHESIS_SETTINGS)
@given(seed=st.integers(0, 10_000), check_every=st.integers(5, 60))
def test_facade_matches_at_predicate_boundaries(scenario, scheduler, seed, check_every):
    engine = _build(scenario, seed, scheduler)
    from_core = []

    def until(e: Engine) -> bool:
        from_core.append(assert_three_way(e, scenario))
        return False

    engine.run(1_500, until=until, check_every=check_every)
    assert len(from_core) > 1
    # every boundary of a core-driven run was answered by the core
    assert all(from_core) == engine.scheduler.core_drivable
    assert_three_way(engine, scenario)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("scenario", ["fdp", "fsp"])
@settings(max_examples=3, **HYPOTHESIS_SETTINGS)
@given(seed=st.integers(0, 10_000))
def test_facade_matches_at_churn_boundaries(scenario, scheduler, seed):
    engine = _build(scenario, seed, scheduler)
    driver = TrafficDriver(engine, seed=seed, **SMALL_CHURN)
    boundary = driver._boundary
    checked = []

    def checked_boundary(budget: int) -> None:
        # before the churn (run just returned) and after it (admits,
        # departure intents and reaps went to the core and the objects)
        assert_three_way(engine, scenario)
        boundary(budget)
        assert_three_way(engine, scenario)
        checked.append(engine.step_count)

    driver._boundary = checked_boundary
    report = driver.run(1_500)
    assert len(checked) > 1
    assert report["stats"]["searchability_violations"] == 0


# ------------------------------------------------------------ no live rebuilds


def test_counter_reads_after_soa_run_never_rebuild_the_live_graph(monkeypatch):
    engine = _build("fdp", 3, "random", n=48)
    engine.run(4_000)
    assert engine.core_status["active"]
    calls = []
    build_live = Engine._build_live

    def spy(self):
        calls.append(self.step_count)
        return build_live(self)

    monkeypatch.setattr(Engine, "_build_live", spy)
    phi, edges, pending = engine.potential(), engine.edge_count, engine.pending_count
    summary = engine.describe()
    assert calls == []
    snap = engine.rebuild_snapshot()
    assert phi == sum(1 for _ in snap.iter_invalid_edges(engine.actual_mode))
    assert edges == len(snap.edges)
    assert pending == sum(len(ch) for ch in engine.channels.values())
    assert (summary["potential"], summary["edges"], summary["pending_messages"]) == (
        phi,
        edges,
        pending,
    )
    assert calls == []


# ------------------------------------------------------------ lazy export


def _object_view(engine: Engine) -> list:
    """Every process's neighbourhood and channel, read through the
    public dicts."""
    return [
        (
            pid,
            proc.state,
            [(pid_of(r), b) for r, b in proc.N.items()],
            [(m.seq, m.label, m.args) for m in engine.channels[pid]],
        )
        for pid, proc in sorted(engine.processes.items())
    ]


def test_predicate_reading_objects_sees_the_object_loop_state():
    views = {}
    for mode in ("objects", "soa"):
        engine = _build("fdp", 5, "random", mode=mode, n=16)
        seen = []

        def until(e: Engine, seen=seen) -> bool:
            seen.append((e.step_count, _object_view(e)))
            return fdp_legitimate(e)

        assert engine.run(50_000, until=until, check_every=37)
        views[mode] = seen
    assert len(views["soa"]) > 2
    assert views["soa"] == views["objects"]


def _count_exports(monkeypatch) -> list[int]:
    """Record the step count of every ``EngineCore.export_to`` call."""
    exports: list[int] = []
    export_to = EngineCore.export_to

    def counting(self, engine):
        exports.append(engine.step_count)
        return export_to(self, engine)

    monkeypatch.setattr(EngineCore, "export_to", counting)
    return exports


def test_predicate_without_object_reads_exports_once(monkeypatch):
    exports = _count_exports(monkeypatch)
    boundaries = []

    def until(e: Engine) -> bool:
        boundaries.append(e.step_count)
        return fdp_legitimate(e)

    engine = _build("fdp", 2, "random", n=64)
    assert engine.run(500_000, until=until, check_every=64)
    assert len(boundaries) > 10
    # run() returns with the export deferred; the first object read
    # pays it, once
    assert exports == []
    engine.processes
    assert exports == [engine.step_count]
    engine.processes
    assert exports == [engine.step_count]
    reference = _build("fdp", 2, "random", mode="objects", n=64)
    assert reference.run(500_000, until=fdp_legitimate, check_every=64)
    assert final_state(engine) == final_state(reference)


class _UnmirroredJoiner(FDPProcess):
    """An FDP subclass: the engine admits it, the core cannot mirror it."""


def _admit_unmirrored(e: Engine) -> None:
    """Admit a joiner the core cannot mirror: the core is dropped."""
    # The contact's ref comes from the private dict, so that admit
    # dropping the core is what completes the export.
    contact = e._processes[min(e.staying_pids())].self_ref
    e.admit(_UnmirroredJoiner(1_000, Mode.STAYING, neighbors=[contact]))
    if e.engine_mode == "soa":
        assert not e.core_status["active"]
        assert not e._export_pending


def _post_present(e: Engine) -> None:
    """Plant one message out-of-band: a core operation, so the core
    stays current and the export deferred."""
    ref = e._processes[min(e.staying_pids())].self_ref
    e.post(None, ref, "present", (RefInfo(ref, Mode.STAYING),))
    if e.engine_mode == "soa":
        assert e.core_status["active"] and not e._core_stale
        assert e._export_pending


def _edit_store(e: Engine) -> None:
    """Edit a store behind the engine's back: the core is marked stale."""
    staying = min(e.staying_pids())
    proc = e.processes[staying]
    proc.N[e.ref(min(e.staying_pids() - {staying}))] = Mode.LEAVING
    e._dirty = True
    if e.engine_mode == "soa":
        assert e.core_status["active"] and e._core_stale
        assert not e._export_pending


@pytest.mark.parametrize(
    "poke", [_admit_unmirrored, _post_present, _edit_store], ids=["admit", "post", "edit"]
)
def test_core_dropped_inside_predicate_leaves_objects_exported(poke):
    """A predicate that drops or stales the core, or posts through it,
    runs once per boundary in every mode, and the rest of the run ends
    in the object loop's state."""
    finals = {}
    boundaries = {}
    for mode in ("objects", "soa", "verify"):
        engine = _build("fdp", 4, "random", mode=mode, n=16)
        calls = []

        def until(e: Engine, calls=calls) -> bool:
            calls.append(e.step_count)
            if e.step_count == 100:
                poke(e)
            return False

        engine.run(3_000, until=until, check_every=50)
        boundaries[mode] = calls
        finals[mode] = final_state(engine)
    assert boundaries["objects"] == list(range(0, 3_001, 50))
    assert boundaries["soa"] == boundaries["verify"] == boundaries["objects"]
    assert finals["soa"] == finals["verify"] == finals["objects"]


def test_churn_run_on_the_core_never_exports(monkeypatch):
    exports = _count_exports(monkeypatch)
    finals = {}
    for mode in ("objects", "soa"):
        engine = _build("fdp", 6, "random", mode=mode, n=24)
        driver = TrafficDriver(engine, seed=6, **SMALL_CHURN)
        report = driver.run(2_000)
        if mode == "soa":
            assert engine.core_status["active"]
            assert exports == []
            assert engine._export_pending
        finals[mode] = (final_state(engine), report)
    stats = finals["soa"][1]["stats"]
    assert min(stats["joins"], stats["leaves"], stats["reaps"]) > 0
    assert stats["latency_samples"] > 0
    assert finals["soa"] == finals["objects"]
    assert len(exports) == 1  # final_state's first object read


def test_out_of_band_transition_on_a_held_process_sees_the_core_state():
    finals = {}
    for mode in ("objects", "soa"):
        engine = _build("fdp", 7, "random", mode=mode, n=16)
        held = dict(engine.processes)
        awake = sorted(pid for pid, proc in held.items() if proc.state is PState.AWAKE)
        engine.run(2_000)
        states = {pid: engine.state_of(pid) for pid in awake}
        exited = next(pid for pid in awake if states[pid] is PState.GONE)
        staying = next(pid for pid in awake if states[pid] is PState.AWAKE)
        if mode == "soa":
            assert engine._export_pending
            assert held[exited]._state is PState.AWAKE  # stale until exported
        # legality is checked against the core's state, not the stale one
        with pytest.raises(StateViolation):
            engine._transition(held[exited], PState.ASLEEP)
        engine._transition(held[staying], PState.GONE)
        finals[mode] = final_state(engine)
    assert finals["soa"] == finals["objects"]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("raiser", ["predicate", "batch"])
def test_run_raising_mid_run_leaves_the_object_loop_state(raiser):
    """A raise from the predicate, or from inside a core batch (a
    planted message with an unknown label under strict delivery),
    leaves the export owed, never skipped."""
    finals = {}
    for mode in ("objects", "soa"):
        engine = _build("fdp", 8, "random", mode=mode, n=16)
        engine.attach()
        calls = []

        def until(e: Engine, calls=calls) -> bool:
            calls.append(e.step_count)
            if len(calls) == 4 and raiser == "predicate":
                raise _Stop
            return False

        if raiser == "batch":
            engine.post(None, engine.ref(3), "bogus", ())
        with pytest.raises(_Stop if raiser == "predicate" else UnknownActionError):
            engine.run(3_000, until=until, check_every=40)
        if mode == "soa":
            assert engine._export_pending
        finals[mode] = (calls, final_state(engine))
    assert finals["soa"] == finals["objects"]
