"""The SoA core's kept component labels and their certificate.

The core labels PG's weak components once and then keeps the labels,
walking a certificate of slot pairs after each batch instead of
relabelling (``EngineCore._component_labels``). These tests hold the
kept labels to a full relabel of the same core:

* a hypothesis differential over FDP and FSP churn runs (admits,
  departures, reaps, random and oldest-first schedulers): at every
  boundary, before and after the churn operations, the kept labels give
  the partition a full relabel gives. Half the runs start as two blocks
  joined only by unknown-label messages, so they split for real
  mid-run;
* a constructed genuine split — the only bridge between two halves is a
  reference carried by a message whose label no process knows, so
  delivering it drops the bridge — ends in one full relabel and a
  correct answer, in soa and in verify mode;
* a newcomer that references two components merges them, and the
  labels follow.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fdp import FDPProcess
from repro.core.scenarios import (
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    build_fsp_engine,
    choose_leaving,
)
from repro.graphs import generators as gen
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.scheduler import RandomScheduler
from repro.sim.states import Mode
from repro.traffic import ArrivalConfig, RequestConfig, TrafficDriver


def split_engine(engine_mode: str, seed: int = 0) -> Engine:
    """Two staying pairs, {0, 1} and {2, 3}, joined only by a planted
    ``junk(2)`` message in process 1's channel. No process has a
    ``junk`` action, so delivering it (``strict=False``) drops the
    bridge: a genuine split of one component into two."""
    procs = [FDPProcess(pid, Mode.STAYING) for pid in range(4)]
    refs = [p.self_ref for p in procs]
    for a, b in ((0, 1), (1, 0), (2, 3), (3, 2)):
        procs[a].N[refs[b]] = Mode.STAYING
    engine = Engine(
        procs, RandomScheduler(seed), strict=False, engine_mode=engine_mode
    )
    engine.post(None, refs[1], "junk", (RefInfo(refs[2], Mode.STAYING),))
    return engine


def run_past_split(engine: Engine) -> list[bool]:
    """Run the split engine with a connectivity query after every step
    until the bridge message is dropped; the answers, one per step."""
    answers: list[bool] = []

    def ask(engine: Engine) -> bool:
        answers.append(engine.same_component((0, 3)))
        return engine.stats.dropped_unknown == 1

    assert engine.run(400, until=ask)
    return answers


@pytest.mark.parametrize("mode", ["soa", "verify"])
def test_genuine_split_ends_in_one_full_relabel(mode: str) -> None:
    engine = split_engine(mode)
    answers = run_past_split(engine)
    assert answers[0] is True and answers[-1] is False
    assert answers == sorted(answers, reverse=True)  # components never merge
    core = engine._core
    # the labelling at attach, then the one the split forced
    assert core.label_relabels == 2
    assert core.partition() == core.partition(fresh=True) == {0: 0, 1: 0, 2: 2, 3: 2}
    assert engine.component_labels() == {0: 0, 1: 0, 2: 2, 3: 2}
    assert not engine.same_component((1, 2))
    assert engine.same_component((2, 3))


def test_split_answers_match_the_object_loop() -> None:
    assert run_past_split(split_engine("soa")) == run_past_split(split_engine("objects"))


def test_newcomer_bridging_two_components_merges_their_labels() -> None:
    engine = split_engine("soa")
    run_past_split(engine)
    core = engine._core
    assert not engine.same_component((0, 3))
    refs = [engine.ref(pid) for pid in range(4)]
    engine.admit(FDPProcess(4, Mode.STAYING, neighbors=[refs[1], refs[2]]))
    assert engine.same_component((0, 3, 4))
    assert core.partition() == core.partition(fresh=True)
    # a newcomer in one component extends the labels without a relabel
    relabels = core.label_relabels
    engine.admit(FDPProcess(5, Mode.STAYING, neighbors=[refs[3]]))
    assert engine.same_component((0, 5))
    assert core.label_relabels == relabels
    assert core.partition() == core.partition(fresh=True)


def test_quiet_batch_keeps_labels_without_repairs() -> None:
    n = 48
    edges = gen.random_connected(n, 4, seed=2)
    engine = build_fdp_engine(n, edges, set(), seed=2, engine_mode="soa")
    engine.attach()
    core = engine._core
    for _ in range(5):
        engine.run(64)
        assert engine.same_component(tuple(range(n)))
    assert core.label_relabels == 1
    assert core.label_checks == 5
    assert core.label_repairs == 0  # stored staying edges never die


@st.composite
def churn_runs(draw):
    return dict(
        protocol=draw(st.sampled_from(["fdp", "fsp"])),
        scheduler=draw(st.sampled_from(["random", "oldest"])),
        n=draw(st.integers(6, 24)),
        degree=draw(st.integers(1, 4)),
        leaving=draw(st.floats(0.0, 0.5)),
        seed=draw(st.integers(0, 10_000)),
        join_rate=draw(st.sampled_from([20.0, 80.0, 200.0])),
        session_min=draw(st.sampled_from([64.0, 256.0])),
        mass_departure_prob=draw(st.sampled_from([0.0, 0.2])),
        chunk=draw(st.integers(8, 96)),
        bridges=draw(st.sampled_from([0, 0, 1, 3])),
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(churn_runs())
def test_kept_labels_equal_full_relabel_at_every_churn_boundary(run) -> None:
    n, seed, bridges = run["n"], run["seed"], run["bridges"]
    edges = gen.random_connected(n, run["degree"], seed=seed)
    if bridges:
        # two blocks, joined only by the planted junk messages below
        half = n // 2
        edges = gen.random_connected(half, run["degree"], seed=seed) + [
            (half + a, half + b)
            for a, b in gen.random_connected(n - half, run["degree"], seed=seed + 1)
        ]
    leaving = choose_leaving(n, edges, fraction=run["leaving"], seed=seed)
    build = build_fsp_engine if run["protocol"] == "fsp" else build_fdp_engine
    engine = build(
        n,
        edges,
        leaving,
        seed=seed,
        scheduler=SCHEDULER_FACTORIES[run["scheduler"]](seed),
        engine_mode="soa",
        strict=not bridges,
    )
    rng = Random(seed)
    for _ in range(bridges):
        a, b = rng.randrange(n // 2), rng.randrange(n // 2, n)
        engine.post(None, engine.ref(a), "junk", (RefInfo(engine.ref(b), Mode.STAYING),))
    driver = TrafficDriver(
        engine,
        arrivals=ArrivalConfig(
            join_rate=run["join_rate"],
            session_min=run["session_min"],
            mass_departure_prob=run["mass_departure_prob"],
            mass_departure_frac=0.25,
        ),
        requests=RequestConfig(rate=100.0),
        seed=seed,
        chunk=run["chunk"],
    )
    core = engine._core
    assert core is not None, engine.core_status
    checked = []
    real_boundary = driver._boundary

    def boundary(budget: int) -> None:
        # after the batch, and again after the churn operations and
        # requests (which reap, admit and query)
        assert core.partition() == core.partition(fresh=True)
        real_boundary(budget)
        assert core.partition() == core.partition(fresh=True)
        checked.append(budget)

    driver._boundary = boundary
    report = driver.run(12 * run["chunk"])
    assert engine._core is core  # no fallback: the core ran every batch
    assert len(checked) == 12
    assert core.label_checks >= 1
    if not bridges:
        assert report["stats"]["searchability_violations"] == 0
