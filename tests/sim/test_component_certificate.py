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
from repro.errors import SafetyViolation, StateViolation
from repro.graphs import generators as gen
from repro.sim.engine import Engine
from repro.sim.messages import RefInfo
from repro.sim.monitors import ConnectivityMonitor
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


# ---------------------------------------------------------------- targeted walk


def _walked(engine: Engine, full: bool) -> dict[int, int]:
    """The kept partition after a certificate walk; with *full* every
    slot is marked first, so the walk reads every pair."""
    core = engine._core
    assert len(core._dirty) <= len(core.pids)  # one mark per slot at most
    if full:
        core._dirty.update(range(len(core.pids)))
    partition = core.partition()
    assert not core._dirty or not core._cert_pending
    assert core.dead_certificate_pairs() == []
    return partition


def _apply(engine: Engine, op: tuple, rng: Random) -> None:
    """One operation of :func:`test_targeted_walk_equals_full_walk`,
    drawn from *rng* so that two engines on one trajectory apply the
    same one."""
    kind = op[0]
    core = engine._core
    alive = [
        pid
        for pid in sorted(engine._processes)
        if core.state_of(core.slot_of[pid]).name != "GONE"
    ]
    if kind == "run":
        engine.run(op[1])
    elif kind == "post" and alive:
        a, b = rng.choice(alive), rng.choice(alive)
        engine.post(None, engine.ref(a), "present", (RefInfo(engine.ref(b), Mode.STAYING),))
    elif kind == "rewrite" and alive:
        pid = rng.choice(alive)
        beliefs = engine.beliefs_of(pid)
        if beliefs:
            store, target, _ = rng.choice(beliefs)
            engine.rewrite_beliefs(pid, [(store, target, rng.choice(list(Mode)))])
    elif kind == "leave" and alive:
        engine.request_leave(rng.choice(alive))
    elif kind == "admit" and alive:
        contact = rng.choice(alive)
        pid = max(engine._processes) + 1 + len(engine._retired_pids)
        engine.admit(
            engine._processes[contact].__class__(
                pid, Mode.STAYING, neighbors=[engine.ref(contact)]
            )
        )
    elif kind == "reap":
        gone = sorted(set(engine._processes) - set(alive))
        engine.reap_gone(gone)


OPS = st.one_of(
    st.tuples(st.just("run"), st.integers(1, 80)),
    st.sampled_from([("post",), ("rewrite",), ("leave",), ("admit",), ("reap",)]),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    protocol=st.sampled_from(["fdp", "fsp"]),
    n=st.integers(6, 24),
    degree=st.integers(1, 4),
    seed=st.integers(0, 10_000),
    ops=st.lists(OPS, min_size=4, max_size=30),
)
def test_targeted_walk_equals_full_walk(protocol, n, degree, seed, ops) -> None:
    """The walk over the marked slots keeps the partition a walk over
    every pair keeps, on one trajectory of kernel batches, out-of-band
    posts, belief rewrites, departures, admits and reaps; after either
    walk every kept pair is live, and the marks hold at most one entry
    per slot."""
    edges = gen.random_connected(n, degree, seed=seed)
    build = build_fsp_engine if protocol == "fsp" else build_fdp_engine
    engines = [
        build(
            n,
            edges,
            choose_leaving(n, edges, fraction=0.3, seed=seed),
            seed=seed,
            engine_mode="soa",
        )
        for _ in range(2)
    ]
    rngs = [Random(seed), Random(seed)]
    for engine in engines:
        engine.attach()
        assert engine._core is not None, engine.core_status
    for op in ops:
        for engine, rng in zip(engines, rngs, strict=True):
            _apply(engine, op, rng)
        targeted, full = (
            _walked(e, full) for e, full in zip(engines, (False, True), strict=True)
        )
        assert targeted == full == engines[0]._core.partition(fresh=True)
    assert engines[0].step_count == engines[1].step_count


def test_verify_mode_rejects_a_dead_pair_after_a_walk() -> None:
    """Right after a walk every certificate pair must be live: verify
    mode's connectivity queries reject a certificate that keeps one
    that is not, even though the labels are still right."""
    n = 24
    engine = build_fdp_engine(
        n, gen.random_connected(n, 2, seed=4), set(), seed=4, engine_mode="verify"
    )
    engine.run(50)
    assert engine.same_component(tuple(range(n)))
    core = engine._core
    a, b = next(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if b not in core.in_[a] and a not in core.in_[b]
    )
    core._cert_at[a].append(b)
    core._cert_at[b].append(a)
    with pytest.raises(StateViolation, match="dead certificate pairs"):
        engine.same_component((a, b))


def test_verify_mode_rejects_labels_moved_under_one_epoch() -> None:
    """A repeated partition epoch promises that no non-gone process
    changed label: verify mode rejects a labelling renamed behind the
    epoch's back, though it still gives the right partition."""
    n = 12
    engine = build_fdp_engine(
        n, gen.random_connected(n, 2, seed=5), set(), seed=5, engine_mode="verify"
    )
    engine.run(20)
    epoch = engine.partition_epoch()
    assert epoch is not None and engine.partition_epoch() is epoch
    labels = engine._core._labels
    labels[:] = [label + len(labels) for label in labels]
    with pytest.raises(StateViolation, match="partition epoch"):
        engine.partition_epoch()


def _count_member_checks(engine: Engine) -> list[int]:
    """The steps at which something asks *engine* for its relevant
    pids, which only Lemma 2's member check does here."""
    asked: list[int] = []
    relevant = engine.relevant_pids

    def counting_relevant() -> frozenset[int]:
        asked.append(engine.step_count)
        return relevant()

    engine.relevant_pids = counting_relevant
    return asked


def test_split_draws_a_new_epoch_and_a_full_lemma2_check() -> None:
    """Lemma 2 checks pass on the epoch alone until the genuine split of
    :func:`split_engine`, whose relabel draws a new epoch: the monitor
    then runs its member check, which reports the split at the step the
    object loop reports it."""
    steps = {}
    for mode in ("objects", "soa"):
        engine = split_engine(mode)
        lemma2 = ConnectivityMonitor(check_every=1)
        engine.monitors.append(lemma2)
        engine.attach()
        epochs = [engine.partition_epoch()]
        member_checks = _count_member_checks(engine)
        with pytest.raises(SafetyViolation):
            engine.run(400)
        steps[mode] = engine.step_count
        if mode == "soa":
            epochs.append(engine.partition_epoch())
            assert epochs[0] is not None and epochs[1] is not epochs[0]
            # the first check, then the one the split forced
            assert member_checks == [1, engine.step_count]
            assert lemma2.checks == engine.step_count
        else:
            assert epochs == [None]
            assert len(member_checks) == engine.step_count
    assert steps["objects"] == steps["soa"]
