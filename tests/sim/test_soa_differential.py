"""Differential suite: the SoA core ≡ the object model, bit for bit.

``engine_mode="soa"`` routes execution through
:class:`repro.sim.soa.EngineCore` — int-slotted process columns, packed
channel records, tagged-int refs. The object model stays alive as the
oracle: ``engine_mode="verify"`` runs *both* and cross-checks after
every step, raising :class:`~repro.errors.StateViolation` on the first
divergence. These tests drive all three modes over identical scenarios
and assert the results are indistinguishable — not just Φ and counters
but the full final state: per-process lifecycle and mode, neighbourhood
stores in insertion order, anchors, channel contents message by message,
the whole stats block, trace records and LiveGraph snapshots.

Coverage mandated by the acceptance criteria:

* all four scheduler families (:data:`SCHEDULER_FACTORIES`);
* FDP and FSP under heavy corruption;
* Φ trajectories sampled mid-run, not just endpoints;
* LiveGraph snapshot agreement (edge multisets, node views);
* identical executed schedules (``ScheduleRecorder`` traces);
* fault-injected states (``scramble_beliefs`` mid-run — a core
  operation on a soa engine, written to both sides in verify mode);
* one chaos capsule replayed on both cores, with replay verification on
  (a counter divergence raises, so passing *is* the bit-identity check).

Comparisons use insertion-order lists, not sorted sets: the cores must
agree on *order* of dict iteration too, because downstream consumers
(schedulers, snapshot builders) iterate these dicts.
"""

from collections import Counter
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.capsule import capture_capsule, replay_capsule
from repro.core.oracles import AlwaysOracle, AuditedOracle, SingleOracle
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_from_meta,
    build_fsp_engine,
    choose_leaving,
    scramble_beliefs,
)
from repro.graphs import generators as gen
from repro.sim.refs import pid_of
from repro.sim.replay import ReplayScheduler, ScheduleRecorder
from repro.sim.soa import EngineCore
from repro.sim.states import PState

MODES = ("objects", "soa", "verify")
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
    """Each test names its mode explicitly; neutralize the CI env pin so
    ``engine_mode="objects"`` really is the object model even under the
    ``REPRO_ENGINE_MODE=verify`` CI job."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)


# ------------------------------------------------------------ fingerprints


def final_state(engine) -> tuple:
    """The complete observable end state, insertion order preserved."""
    states = {
        pid: (proc.state.value, proc.mode.value)
        for pid, proc in engine.processes.items()
    }
    stores = {}
    anchors = {}
    for pid, proc in engine.processes.items():
        stores[pid] = [
            (pid_of(ref), None if belief is None else belief.value)
            for ref, belief in proc.N.items()
        ]
        anchor = proc.anchor
        anchors[pid] = (
            None if anchor is None else pid_of(anchor),
            None
            if proc.anchor_belief is None
            else proc.anchor_belief.value,
        )
    channels = {
        pid: [
            (
                msg.seq,
                msg.label,
                msg.sender,
                [
                    (pid_of(a.ref), None if a.mode is None else a.mode.value)
                    for a in msg.args
                ],
            )
            for msg in channel
        ]
        for pid, channel in engine.channels.items()
    }
    return (
        states,
        stores,
        anchors,
        channels,
        dict(engine.stats.__dict__),
        engine.step_count,
        engine.potential(),
    )


def edge_multiset(snap) -> Counter:
    return Counter((e.src, e.dst, e.kind, e.belief) for e in snap.edges)


def node_views(snap) -> dict:
    return {
        pid: (
            snap.node(pid).mode,
            snap.node(pid).state,
            snap.node(pid).channel_len,
        )
        for pid in snap.pids
    }


def _build(proto, scheduler, seed, n, *, engine_mode, tracer=None):
    edges = gen.random_connected(n, n // 2, seed=seed + 7)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed + 1)
    build = build_fdp_engine if proto == "fdp" else build_fsp_engine
    return build(
        n,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES[scheduler](seed),
        seed=seed,
        engine_mode=engine_mode,
        tracer=tracer,
    )


def assert_modes_agree(results: dict):
    """All three modes produced the identical value (pinpoint the pair)."""
    assert results["objects"] == results["soa"], "objects vs soa diverged"
    assert results["objects"] == results["verify"], (
        "objects vs verify diverged"
    )


# ------------------------------------------------------ final-state identity


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(50, 300),
    scheduler=st.sampled_from(SCHEDULERS),
)
@settings(max_examples=12, **HYPOTHESIS_SETTINGS)
def test_fdp_final_states_identical(seed, steps, scheduler):
    results = {}
    for mode in MODES:
        engine = _build("fdp", scheduler, seed, 12, engine_mode=mode)
        engine.run(steps, check_every=97)
        results[mode] = final_state(engine)
    assert_modes_agree(results)


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(50, 300),
    scheduler=st.sampled_from(SCHEDULERS),
)
@settings(max_examples=10, **HYPOTHESIS_SETTINGS)
def test_fsp_final_states_identical(seed, steps, scheduler):
    """FSP adds sleep/wake transitions and anchor delegation churn."""
    results = {}
    for mode in MODES:
        engine = _build("fsp", scheduler, seed, 10, engine_mode=mode)
        engine.run(steps, check_every=97)
        results[mode] = final_state(engine)
    assert_modes_agree(results)


# --------------------------------------------- trajectories and observation


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_phi_trajectory_and_livegraph_agree(scheduler):
    """Sample Φ and the materialized LiveGraph *mid-run*, chunk by
    chunk: agreement at every waypoint, not just the endpoint."""
    trajectories = {}
    for mode in MODES:
        engine = _build("fdp", scheduler, 71, 14, engine_mode=mode)
        waypoints = []
        for _ in range(8):
            engine.run(40, check_every=13)
            snap = engine.snapshot()
            waypoints.append(
                (
                    engine.step_count,
                    engine.potential(),
                    engine.pending_count,
                    engine.gone_count,
                    engine.asleep_count,
                    edge_multiset(snap),
                    node_views(snap),
                )
            )
        trajectories[mode] = waypoints
    assert_modes_agree(trajectories)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_trace_records_identical(scheduler):
    """The executed schedules — every (kind, pid, seq) triple in order —
    must match: the cores pick the same action at every step."""
    traces = {}
    finals = {}
    for mode in MODES:
        recorder = ScheduleRecorder()
        engine = _build(
            "fdp", scheduler, 5, 12, engine_mode=mode, tracer=recorder
        )
        engine.run(250, check_every=97)
        traces[mode] = list(recorder.events)
        finals[mode] = final_state(engine)
    assert_modes_agree(traces)
    assert_modes_agree(finals)
    assert traces["objects"], "run recorded no events"


# ------------------------------------------------------- fault injection


@given(seed=st.integers(0, 5_000))
@settings(max_examples=8, **HYPOTHESIS_SETTINGS)
def test_fault_injected_states_identical(seed):
    """Mid-run ``scramble_beliefs`` rewrites beliefs through the engine
    facade: on the core's columns in soa mode, on both sides in verify
    mode. Every mode then continues from the identical re-poisoned
    configuration."""
    results = {}
    for mode in MODES:
        engine = _build("fdp", "random", seed, 12, engine_mode=mode)
        rng = Random(seed + 13)
        engine.run(80, check_every=97)
        flipped = scramble_beliefs(engine, rng, lie_prob=0.5)
        engine.run(150, check_every=97)
        results[mode] = (flipped, final_state(engine))
    assert_modes_agree(results)


def test_core_survives_stale_rebuild():
    """After the out-of-band mutation the soa engine must *still* be on
    the fast path, not silently degraded to the object loop."""
    engine = _build("fdp", "random", 3, 12, engine_mode="soa")
    engine.run(60, check_every=97)
    assert engine.core_status["active"], engine.core_status
    scramble_beliefs(engine, Random(3), lie_prob=0.5)
    engine.run(60, check_every=97)
    assert engine.core_status["active"], engine.core_status


def test_verify_survives_monitor_injected_faults():
    """A chaos campaign mutating state from *inside* monitor dispatch
    must not leave the mirror diverged: monitors run after the mirrored
    step, so the injections are core operations cross-checked on both
    sides (regression: ``_stepping`` stayed True across monitor
    dispatch, so the campaign's posts never reached the core)."""
    from repro.chaos.campaigns import ChaosCampaign

    engine = _build("fdp", "random", 33, 12, engine_mode="verify")
    campaign = ChaosCampaign(seed=7, period=40, max_injections=3)
    engine.monitors.append(campaign)
    engine.run(600, check_every=64)
    assert campaign.injections, "campaign never fired"
    assert engine.core_status["active"], engine.core_status
    assert engine.verify_core_state()


# ------------------------------------------------------------ mode plumbing


def test_engine_mode_selects_core():
    for mode, active in (("objects", False), ("soa", True), ("verify", True)):
        engine = _build("fdp", "random", 1, 8, engine_mode=mode)
        engine.attach()
        status = engine.core_status
        assert status["engine_mode"] == mode
        assert status["active"] is active, status


def test_env_default_engine_mode(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_MODE", "soa")
    engine = _build("fdp", "random", 1, 8, engine_mode=None)
    assert engine.core_status["engine_mode"] == "soa"


def test_bad_engine_mode_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        _build("fdp", "random", 1, 8, engine_mode="bogus")


def test_observer_fallback_reason_is_recorded():
    """An attached observer moves a soa run onto the object loop; the
    status must say so, and clear the reason once the core drives again."""
    engine = _build("fdp", "random", 1, 8, engine_mode="soa")
    engine.monitors.append(lambda engine, executed: None)
    engine.run(50)
    status = engine.core_status
    assert status["active"], status
    assert status["reason"] == "observers attached: monitors"
    engine.monitors.clear()
    engine.run(50)
    assert engine.core_status["reason"] is None


def test_audited_oracle_reason_names_the_unkernelized_oracle(monkeypatch):
    """An exit audit wraps the oracle, which the core does not kernelize:
    a soa run falls back to the object loop and says which oracle."""
    batches = _spy_run_batch(monkeypatch)
    n = 12
    edges = gen.random_connected(n, 4, seed=0x11E)
    guard = AuditedOracle(AlwaysOracle(), SingleOracle())
    engine = build_fdp_engine(
        n,
        edges,
        choose_leaving(n, edges, fraction=0.4, seed=0),
        corruption=HEAVY_CORRUPTION,
        oracle=guard,
        engine_mode="soa",
    )
    engine.run(20_000, until=fdp_legitimate, check_every=64)
    status = engine.core_status
    assert not status["active"]
    assert status["reason"] == (
        "unkernelized oracle "
        "AuditedOracle(AlwaysOracle(), reference=SingleOracle())"
    )
    assert not batches
    assert guard.audited == engine.stats.exits > 0


def test_non_drivable_scheduler_reason_is_recorded(monkeypatch):
    """A soa run under a scheduler the core cannot drive executes on the
    object loop; the status must name the scheduler, and clear the reason
    once the core drives again."""
    batches = _spy_run_batch(monkeypatch)
    engine = _build("fdp", "sync", 1, 8, engine_mode="soa")
    engine.run(50)
    status = engine.core_status
    assert status["active"], status
    assert status["reason"] == "scheduler not core-drivable: SynchronousScheduler"
    assert not batches
    engine.scheduler = ReplayScheduler([])
    engine.run(50)
    assert engine.core_status["reason"] is None
    assert batches


def _spy_run_batch(monkeypatch) -> list[int]:
    """Record the budget of every ``EngineCore.run_batch`` call."""
    calls: list[int] = []
    real = EngineCore.run_batch

    def spy(core, budget):
        calls.append(budget)
        return real(core, budget)

    monkeypatch.setattr(EngineCore, "run_batch", spy)
    return calls


# ------------------------------------------------------------ chaos capsule

#: Campaign-free scenario meta: a campaign would re-attach itself as a
#: monitor on replay, which (correctly) drops the replay to the object
#: loop — only a campaign-free capsule exercises the core's replay path.
CAPSULE_META = {
    "scenario": "fdp",
    "n": 14,
    "seed": 33,
    "topology": "random_connected",
    "leaving": 0.35,
    "corruption": 1.0,
    "scheduler": "random",
}


def test_capsule_replays_bit_identically_on_both_cores(monkeypatch):
    """Capture a run as a capsule, replay it under every engine mode with
    verification on: ``replay_capsule`` raises on any counter divergence,
    and the full final states must match the original byte for byte. The
    soa replay must execute *on the core* (ReplayScheduler is core-
    drivable), not via object fallback."""
    recorder = ScheduleRecorder()
    original = build_from_meta(CAPSULE_META, tracer=recorder)
    original.run(400, check_every=97)
    capsule = capture_capsule(
        original,
        kind="budget",
        scenario=CAPSULE_META,
        recorder=recorder,
    )
    assert len(capsule.schedule) == original.step_count
    want = final_state(original)

    batches = _spy_run_batch(monkeypatch)
    for mode in MODES:
        batches.clear()
        replayed = replay_capsule(capsule, verify=True, engine_mode=mode)
        assert final_state(replayed) == want, f"replay diverged under {mode}"
        if mode != "objects":
            status = replayed.core_status
            assert status["active"] and status["reason"] is None, status
        if mode == "soa":
            assert batches, "the soa replay never ran on the core"


def test_capsule_roundtrips_through_json_across_cores(tmp_path):
    """Same as above but through the on-disk representation — what a
    triage session actually loads."""
    recorder = ScheduleRecorder()
    original = build_from_meta(CAPSULE_META, tracer=recorder)
    original.run(300, check_every=97)
    capsule = capture_capsule(
        original, kind="budget", scenario=CAPSULE_META, recorder=recorder
    )
    path = str(tmp_path / "capsule.json")
    capsule.save(path)
    from repro.chaos.capsule import Capsule

    loaded = Capsule.load(path)
    finals = {
        mode: final_state(replay_capsule(loaded, verify=True, engine_mode=mode))
        for mode in MODES
    }
    assert_modes_agree(finals)


# ------------------------------------------------------------ long horizon


def test_long_run_to_quiescence_identical():
    """A run long enough for exits, hibernation and channel drain — the
    regimes where incremental counter drift would surface."""
    results = {}
    for mode in MODES:
        engine = _build("fdp", "random", 97, 16, engine_mode=mode)
        engine.run(4_000, check_every=97)
        results[mode] = final_state(engine)
    assert_modes_agree(results)
    gone = sum(
        1
        for state, _ in results["objects"][0].values()
        if state == PState.GONE.value
    )
    assert gone > 0, "scenario too short to exercise departures"
