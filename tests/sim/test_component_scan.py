"""The pre-attach component scan against a reference union-find.

Before attach an engine has neither a core nor a live graph, so
``Engine.component_labels`` answers by one list-based union-find pass
over the non-gone processes' ``stored_pids`` and channel messages
(``Engine._scan_component_labels``). This pins it, labels and their
order, against a dict :class:`~repro.graphs.connectivity.UnionFind` fed
from ``stored_refs()`` and every message's reference arguments, on
multi-component builds with gone processes and extra planted garbage,
for the FDP, FSP and framework populations (the last derives its
``stored_pids`` from ``stored_refs``).
"""

from __future__ import annotations

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    build_fdp_engine,
    build_framework_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.graphs.connectivity import UnionFind, first_member_labels
from repro.overlays import LOGICS
from repro.sim.faults import plant_ref_message
from repro.sim.refs import pid_of
from repro.sim.states import Mode, PState


def _reference_labels(engine) -> dict[int, int]:
    processes, channels = engine.processes, engine.channels
    alive = [pid for pid, proc in processes.items() if proc.state is not PState.GONE]
    uf = UnionFind(alive)
    for pid in alive:
        for info in processes[pid].stored_refs():
            if pid_of(info.ref) in uf:
                uf.union(pid, pid_of(info.ref))
        for msg in channels[pid]:
            for info in msg.refinfos():
                if pid_of(info.ref) in uf:
                    uf.union(pid, pid_of(info.ref))
    return first_member_labels(alive, uf.find)


def _build(protocol: str, sizes: list[int], seed: int):
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
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed)
    common = dict(corruption=HEAVY_CORRUPTION, seed=seed, engine_mode="objects")
    if protocol == "framework":
        return build_framework_engine(n, edges, leaving, LOGICS["robust_ring"], **common)
    build = build_fdp_engine if protocol == "fdp" else build_fsp_engine
    return build(n, edges, leaving, **common)


@given(
    protocol=st.sampled_from(["fdp", "fsp", "framework"]),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    seed=st.integers(0, 10_000),
    gone=st.floats(0.0, 0.5),
    garbage=st.integers(0, 40),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_scan_matches_reference_union_find(protocol, sizes, seed, gone, garbage) -> None:
    engine = _build(protocol, sizes, seed)
    rng = Random(seed)
    pids = list(engine.processes)
    for pid in pids:
        if rng.random() < gone:
            engine._transition(engine.processes[pid], PState.GONE)  # noqa: SLF001
    # Unconfined garbage: may join components, target gone processes
    # and reference them, and carries both kinds of claims.
    for _ in range(garbage):
        plant_ref_message(
            engine,
            rng.choice(pids),
            rng.choice(("present", "forward")),
            rng.choice(pids),
            rng.choice((Mode.STAYING, Mode.LEAVING, None)),
        )
    scanned = engine._scan_component_labels()  # noqa: SLF001
    expected = _reference_labels(engine)
    assert list(scanned.items()) == list(expected.items())
    assert engine.component_labels() == expected
