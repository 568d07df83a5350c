"""Differential property suite: ``LiveGraph ≡ rebuild(state)`` at every step.

The incremental observation path earns its keep only if it is *exactly*
the rebuild-on-read semantics, state for state. These tests run random
FDP and FSP computations — heavy corruption, exits, sleepers, fault
injection — and after **every** step compare, between the live graph and
a from-scratch :meth:`Engine.rebuild_snapshot`:

* the edge multiset ``(src, dst, kind, belief)`` of the materialized
  :class:`ProcessGraph`;
* the potential Φ;
* the weak-connectivity verdict of each initial component's relevant
  members;
* the SINGLE verdict (via ``partner_pids``) for every pid;
* hibernation/relevance, node metadata and the ``describe()`` counters.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import (
    CLEAN,
    HEAVY_CORRUPTION,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.sim.faults import scatter_garbage_messages
from repro.sim.states import PState


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


def assert_equivalent(engine) -> None:
    """The full LiveGraph ≡ rebuild(state) check for one state."""
    live_snap = engine.snapshot()  # materialized from the live counters
    rebuilt = engine.rebuild_snapshot()  # from-scratch oracle

    # 1. edge multiset and node metadata
    assert edge_multiset(live_snap) == edge_multiset(rebuilt)
    assert node_views(live_snap) == node_views(rebuilt)

    # 2. potential Φ
    phi_rebuilt = sum(1 for _ in rebuilt.iter_invalid_edges(engine.actual_mode))
    assert engine.potential() == phi_rebuilt

    # 3. relevance (hibernation fixpoint)
    assert engine.relevant_pids() == rebuilt.relevant()

    # 4. connectivity verdict per initial component
    relevant = rebuilt.relevant()
    for comp in engine.initial_components:
        members = frozenset(comp) & relevant
        if len(members) <= 1:
            continue
        assert engine.members_weakly_connected(members) == rebuilt.is_weakly_connected(
            members
        ), sorted(members)

    # 5. SINGLE verdict (partner set) per pid
    for pid, proc in engine.processes.items():
        fast = engine.partner_pids(pid)
        if proc.state is PState.GONE:
            assert fast == set()
        else:
            assert fast == rebuilt.partners(pid, within=relevant - {pid}), pid

    # 6. describe() reads the live counters
    info = engine.describe()
    assert info["edges"] == len(rebuilt.edges)
    assert info["pending_messages"] == sum(
        len(ch) for ch in engine.channels.values()
    )
    assert info["potential"] == phi_rebuilt


def drive_and_check(engine, steps: int) -> None:
    engine.attach()
    assert_equivalent(engine)
    for _ in range(steps):
        if engine.step() is None:
            break
        assert_equivalent(engine)


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 60),
    heavy=st.booleans(),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_fdp_live_equals_rebuild_every_step(seed, steps, heavy):
    n = 9
    edges = gen.random_connected(n, 5, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
    engine = build_fdp_engine(
        n,
        edges,
        leaving,
        seed=seed,
        corruption=HEAVY_CORRUPTION if heavy else CLEAN,
    )
    drive_and_check(engine, steps)


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 60),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_fsp_live_equals_rebuild_every_step(seed, steps):
    """Sleep/wake transitions and hibernation-aware relevance."""
    n = 8
    edges = gen.random_connected(n, 4, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.5, seed=seed)
    engine = build_fsp_engine(
        n, edges, leaving, seed=seed, corruption=HEAVY_CORRUPTION
    )
    drive_and_check(engine, steps)


@given(seed=st.integers(0, 2_000), steps=st.integers(1, 50))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_fault_injected_live_equals_rebuild(seed, steps):
    """Mid-run fault injection (stale garbage messages, possibly with
    lying beliefs) mutates channels through engine APIs; the live graph
    must track it delta-for-delta — including the Φ it raises."""
    from random import Random

    n = 8
    edges = gen.random_connected(n, 4, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.3, seed=seed)
    engine = build_fdp_engine(n, edges, leaving, seed=seed)
    rng = Random(seed)
    engine.attach()
    # keep injected references inside one initial component, as the
    # scenario builders do (the adversary cannot create connectivity)
    comp = sorted(max(engine.initial_components, key=len))
    assert_equivalent(engine)
    for i in range(steps):
        if engine.step() is None:
            break
        if i % 5 == 0:
            scatter_garbage_messages(
                engine, rng, 2, targets=comp, subjects=comp
            )
        assert_equivalent(engine)


# ---------------------------------------------------------------------------
# dirty-ref tracking ≡ fingerprint diffing
#
# The write-through ref log replaced per-action fingerprint diffing on the
# hot path; ``engine_mode="verify"`` keeps both alive and cross-checks the
# logged net deltas against the fingerprint diff after *every* atomic
# action (raising StateViolation on divergence), next to its SoA-core
# cross-check. Driving the usual differential workloads in verify mode
# therefore tests three things at once: the log matches the oracle, and
# both match the rebuilt graph.


@given(
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 60),
    heavy=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fdp_ref_log_equals_fingerprint_diff(seed, steps, heavy):
    n = 9
    edges = gen.random_connected(n, 5, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
    engine = build_fdp_engine(
        n,
        edges,
        leaving,
        seed=seed,
        corruption=HEAVY_CORRUPTION if heavy else CLEAN,
        engine_mode="verify",
    )
    drive_and_check(engine, steps)


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 60))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fsp_ref_log_equals_fingerprint_diff(seed, steps):
    """FSP adds the tracked ``parked`` RefMap and the anchor RefCell
    churn of park/delegate cycles — the log must net them correctly."""
    n = 8
    edges = gen.random_connected(n, 4, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.5, seed=seed)
    engine = build_fsp_engine(
        n,
        edges,
        leaving,
        seed=seed,
        corruption=HEAVY_CORRUPTION,
        engine_mode="verify",
    )
    drive_and_check(engine, steps)


def test_verify_mode_trajectories_identical():
    """The verify oracles observe, they do not steer: one scenario run
    to legitimacy on the object loop and in verify mode yields identical
    trajectories and final observables."""
    from repro.core.potential import fdp_legitimate

    n = 12
    edges = gen.random_connected(n, 6, seed=5)
    leaving = choose_leaving(n, edges, fraction=0.3, seed=5)
    results = {}
    for mode in ("objects", "verify"):
        engine = build_fdp_engine(
            n,
            edges,
            leaving,
            seed=5,
            corruption=HEAVY_CORRUPTION,
            engine_mode=mode,
        )
        converged = engine.run(50_000, until=fdp_legitimate, check_every=8)
        results[mode] = (
            converged,
            engine.step_count,
            engine.potential(),
            engine.states(),
            edge_multiset(engine.snapshot()),
        )
    assert results["objects"] == results["verify"]
