"""Equivalence of the profiling-driven fast partner computation.

``Engine.partner_pids`` must agree with the definitional (snapshot-based)
partner set in every state — including runs with sleepers, where it must
take the exact hibernation-aware path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.sim.states import PState


def _assert_equivalent(engine):
    snap = engine.snapshot()
    relevant = snap.relevant()
    for pid, proc in engine.processes.items():
        fast = engine.partner_pids(pid)
        if proc.state is PState.GONE:
            assert fast == set()
            continue
        slow = snap.partners(pid, within=relevant - {pid})
        assert fast == slow, (pid, fast, slow)


@given(
    seed=st.integers(0, 1000),
    steps=st.integers(0, 150),
    fsp=st.booleans(),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_partner_pids_matches_snapshot_definition(seed, steps, fsp):
    n = 10
    edges = gen.random_connected(n, 5, seed=seed)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
    build = build_fsp_engine if fsp else build_fdp_engine
    engine = build(
        n, edges, leaving, seed=seed, corruption=HEAVY_CORRUPTION
    )
    engine.attach()
    for _ in range(steps):
        if engine.step() is None:
            break
    _assert_equivalent(engine)


def test_fast_path_with_gone_partner():
    engine = build_fdp_engine(4, gen.clique(4), leaving={1}, seed=0)
    from repro.core.potential import fdp_legitimate

    assert engine.run(50_000, until=fdp_legitimate, check_every=16)
    _assert_equivalent(engine)


def test_sleepers_route_through_exact_path():
    """With asleep processes present, the hibernation-aware path is used
    and still matches the definition (the hypothesis test covers this
    too; this is the deterministic anchor case)."""
    from repro.core.potential import fsp_legitimate

    engine = build_fsp_engine(6, gen.ring(6), leaving={2, 4}, seed=3)
    assert engine.run(100_000, until=fsp_legitimate, check_every=16)
    assert any(
        p.state is PState.ASLEEP for p in engine.processes.values()
    )
    _assert_equivalent(engine)
