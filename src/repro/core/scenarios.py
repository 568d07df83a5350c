"""Scenario builders: admissible (possibly corrupted) initial FDP/FSP states.

Self-stabilization is quantified over arbitrary initial states subject to
Section 1.2's admissibility constraints. A *scenario* pins one such state
down reproducibly: a topology (edge list), a leaving/staying assignment,
and a :class:`Corruption` describing how far from clean the state is —
flipped mode beliefs, spurious anchors, stale in-flight messages.

All randomness is seeded; the same ``(edges, modes, corruption, seed)``
always produces the identical initial state, which is what makes the
experiment sweeps and the hypothesis property tests reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from random import Random
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core.fdp import FDPProcess
from repro.core.fsp import FSPProcess
from repro.core.oracles import ORACLES, SingleOracle
from repro.errors import ConfigurationError
from repro.sim.engine import Engine
from repro.sim.faults import random_mode_claim, scatter_garbage_messages
from repro.sim.scheduler import (
    AdversarialScheduler,
    OldestFirstScheduler,
    RandomScheduler,
    Scheduler,
    SynchronousScheduler,
)
from repro.sim.states import Capability, Mode, PState

__all__ = [
    "Corruption",
    "CLEAN",
    "LIGHT_CORRUPTION",
    "HEAVY_CORRUPTION",
    "SCHEDULER_FACTORIES",
    "choose_leaving",
    "components_of_edges",
    "corruption_from_factor",
    "build_fdp_engine",
    "build_fsp_engine",
    "build_from_meta",
    "scramble_beliefs",
]

#: name → seeded scheduler factory: the four fair scheduler families the
#: CLI, trace headers and failure capsules refer to by name.
SCHEDULER_FACTORIES: dict[str, Callable[[int], Scheduler]] = {
    "random": lambda seed: RandomScheduler(seed),
    "oldest": lambda seed: OldestFirstScheduler(),
    "adversarial": lambda seed: AdversarialScheduler(patience=32, seed=seed),
    "sync": lambda seed: SynchronousScheduler(seed=seed),
}


def corruption_from_factor(factor: float) -> Corruption:
    """Map a scalar knob in [0, 1] to a :class:`Corruption` profile.

    0 is :data:`CLEAN`; 1 is :data:`HEAVY_CORRUPTION`'s coefficients. The
    scalar form is what the CLI, trace headers and failure capsules
    store, so the mapping lives here as part of the meta vocabulary.
    """
    if factor <= 0:
        return CLEAN
    return Corruption(
        belief_lie_prob=0.5 * factor,
        anchor_prob=0.8 * factor,
        anchor_lie_prob=0.5 * factor,
        garbage_per_process=2.0 * factor,
    )


@dataclass(frozen=True)
class Corruption:
    """How adversarial the initial state is.

    All probabilities are per-item (per stored belief, per process, …).
    ``garbage_per_process`` stale messages are planted per process, each
    carrying a random same-component reference whose claimed mode lies
    with probability ``garbage_lie_prob``.
    """

    belief_lie_prob: float = 0.0
    anchor_prob: float = 0.0
    anchor_lie_prob: float = 0.0
    garbage_per_process: float = 0.0
    garbage_lie_prob: float = 0.5

    def scaled(self, factor: float) -> Corruption:
        """A proportionally milder/harsher copy (for corruption sweeps)."""
        return replace(
            self,
            belief_lie_prob=min(1.0, self.belief_lie_prob * factor),
            anchor_prob=min(1.0, self.anchor_prob * factor),
            anchor_lie_prob=min(1.0, self.anchor_lie_prob * factor),
            garbage_per_process=self.garbage_per_process * factor,
        )


#: A clean start: correct beliefs, no anchors, empty channels.
CLEAN = Corruption()

#: Mild transient fault: a few wrong beliefs and stray messages.
LIGHT_CORRUPTION = Corruption(
    belief_lie_prob=0.1,
    anchor_prob=0.2,
    anchor_lie_prob=0.2,
    garbage_per_process=0.5,
)

#: Heavy fault: half of all information is wrong, channels full of garbage.
HEAVY_CORRUPTION = Corruption(
    belief_lie_prob=0.5,
    anchor_prob=0.8,
    anchor_lie_prob=0.5,
    garbage_per_process=2.0,
)


def components_of_edges(
    n: int, edges: Iterable[tuple[int, int]]
) -> list[frozenset[int]]:
    """Weakly connected components of the directed edge list over 0..n-1,
    ordered by their smallest member: one union-find pass over the
    edges, with path halving."""
    parent = list(range(n))
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigurationError(f"edge ({a}, {b}) outside 0..{n - 1}")
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
    members: dict[int, list[int]] = {}
    for i in range(n):
        root = i
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        members.setdefault(root, []).append(i)
    return [frozenset(m) for m in members.values()]


def choose_leaving(
    n: int,
    edges: Sequence[tuple[int, int]],
    *,
    fraction: float | None = None,
    count: int | None = None,
    seed: int = 0,
) -> frozenset[int]:
    """Pick a leaving set of the requested size, keeping at least one
    staying process in every weakly connected component (the paper's
    precondition for Sections 3–4)."""

    if (fraction is None) == (count is None):
        raise ConfigurationError("specify exactly one of fraction / count")
    if fraction is not None:
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must lie in [0, 1]")
        count = int(round(fraction * n))
    assert count is not None
    count = max(0, min(count, n))
    rng = Random(seed)
    pids = list(range(n))
    rng.shuffle(pids)
    leaving = set(pids[:count])
    for comp in components_of_edges(n, edges):
        if comp <= leaving:
            # Flip one member back to staying (deterministically: smallest).
            leaving.discard(min(comp))
    return frozenset(leaving)


def _plant_anchors(
    procs: dict[int, Any],
    comps: Sequence[frozenset[int]],
    rng: Random,
    corruption: Corruption,
    actual: Callable[[int], Mode],
) -> None:
    """With probability ``anchor_prob``, anchor each pid (in pid order)
    at a uniformly drawn *other* member of its own component.

    Each component is sorted once; a draw picks index ``k`` among the
    ``len(members) - 1`` others and skips *pid*'s own index, which is
    the same RNG call and the same target as indexing the sorted list
    of the others, in O(n log n) for the whole population.
    """
    if corruption.anchor_prob <= 0.0:
        return
    members_of: dict[int, list[int]] = {}
    index_of: dict[int, int] = {}
    for comp in comps:
        members = sorted(comp)
        for i, pid in enumerate(members):
            members_of[pid] = members
            index_of[pid] = i
    for pid, proc in procs.items():
        if rng.random() >= corruption.anchor_prob:
            continue
        members = members_of[pid]
        if len(members) < 2:
            continue
        k = rng.randrange(len(members) - 1)
        if k >= index_of[pid]:
            k += 1
        target = members[k]
        proc.anchor = procs[target].self_ref
        proc.anchor_belief = random_mode_claim(
            rng, actual(target), corruption.anchor_lie_prob
        )


def _build_engine(
    process_cls: type[FDPProcess],
    capability: Capability,
    n: int,
    edges: Sequence[tuple[int, int]],
    leaving: Iterable[int],
    *,
    corruption: Corruption = CLEAN,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    oracle: Callable | None = None,
    monitors: Sequence[Callable] = (),
    tracer: object | None = None,
    strict: bool = True,
    engine_mode: str | None = None,
) -> Engine:
    if n < 1:
        raise ConfigurationError("need at least one process")
    leaving_set = frozenset(leaving)
    for pid in leaving_set:
        if not 0 <= pid < n:
            raise ConfigurationError(f"leaving pid {pid} outside 0..{n - 1}")
    rng = Random(seed ^ 0x5CE9A210)

    def actual(pid: int) -> Mode:
        return Mode.LEAVING if pid in leaving_set else Mode.STAYING

    # Pre-create processes so refs exist for cross-wiring.
    procs = {pid: process_cls(pid, actual(pid)) for pid in range(n)}

    comps = components_of_edges(n, edges)

    # Neighbourhoods from the edge list, beliefs possibly corrupted.
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigurationError(f"edge ({a}, {b}) outside 0..{n - 1}")
        if a == b:
            continue
        belief = random_mode_claim(rng, actual(b), corruption.belief_lie_prob)
        procs[a].N[procs[b].self_ref] = belief

    # Spurious anchors (within the process's own component, so corruption
    # does not manufacture connectivity across components).
    _plant_anchors(procs, comps, rng, corruption, actual)

    engine = Engine(
        procs.values(),
        scheduler if scheduler is not None else RandomScheduler(seed),
        capability=capability,
        oracle=oracle,
        seed=seed,
        strict=strict,
        monitors=monitors,
        tracer=tracer,
        engine_mode=engine_mode,
    )

    # The engine exists before the garbage is scattered: planting posts
    # each message through it.
    if corruption.garbage_per_process > 0.0:
        for comp in comps:
            members = sorted(comp)
            budget = int(round(corruption.garbage_per_process * len(members)))
            scatter_garbage_messages(
                engine,
                rng,
                budget,
                lie_prob=corruption.garbage_lie_prob,
                targets=members,
                subjects=members,
                confine_component=True,
            )
    return engine


def build_fdp_engine(
    n: int,
    edges: Sequence[tuple[int, int]],
    leaving: Iterable[int],
    *,
    corruption: Corruption = CLEAN,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    oracle: Callable | None = None,
    monitors: Sequence[Callable] = (),
    tracer: object | None = None,
    strict: bool = True,
    engine_mode: str | None = None,
) -> Engine:
    """An FDP run: :class:`FDPProcess` population, ``exit`` available,
    ``SINGLE`` oracle by default."""

    return _build_engine(
        FDPProcess,
        Capability.EXIT,
        n,
        edges,
        leaving,
        corruption=corruption,
        scheduler=scheduler,
        seed=seed,
        oracle=oracle if oracle is not None else SingleOracle(),
        monitors=monitors,
        tracer=tracer,
        strict=strict,
        engine_mode=engine_mode,
    )


def build_framework_engine(
    n: int,
    edges: Sequence[tuple[int, int]],
    leaving: Iterable[int],
    logic_cls,
    *,
    corruption: Corruption = CLEAN,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    oracle: Callable | None = None,
    monitors: Sequence[Callable] = (),
    tracer: object | None = None,
    strict: bool = True,
    engine_mode: str | None = None,
) -> Engine:
    """A Section 4 run: P′ = framework(P) population over *logic_cls*.

    Initial P neighbourhoods come from the edge list (fed through the
    logic's integrate hook); belief corruption applies to the framework's
    mode-belief table; anchors and channel garbage as in the FDP builder.
    """

    from repro.core.framework import FrameworkProcess

    if n < 1:
        raise ConfigurationError("need at least one process")
    leaving_set = frozenset(leaving)
    rng = Random(seed ^ 0x5CE9A210)

    def actual(pid: int) -> Mode:
        return Mode.LEAVING if pid in leaving_set else Mode.STAYING

    procs = {
        pid: FrameworkProcess(pid, actual(pid), logic_cls) for pid in range(n)
    }
    comps = components_of_edges(n, edges)

    from repro.sim.refs import KeyProvider

    keyprov = KeyProvider()
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigurationError(f"edge ({a}, {b}) outside 0..{n - 1}")
        if a == b:
            continue
        logic = procs[a].logic
        if hasattr(logic, "integrate_with_keys"):
            logic.integrate_with_keys(keyprov, procs[b].self_ref)
        else:
            logic.integrate(lambda *aa, **kk: None, procs[b].self_ref)
        procs[a].beliefs[procs[b].self_ref] = random_mode_claim(
            rng, actual(b), corruption.belief_lie_prob
        )

    _plant_anchors(procs, comps, rng, corruption, actual)

    engine = Engine(
        procs.values(),
        scheduler if scheduler is not None else RandomScheduler(seed),
        capability=Capability.EXIT,
        oracle=oracle if oracle is not None else SingleOracle(),
        seed=seed,
        strict=strict,
        monitors=monitors,
        tracer=tracer,
        engine_mode=engine_mode,
    )
    if corruption.garbage_per_process > 0.0:
        for comp in comps:
            members = sorted(comp)
            budget = int(round(corruption.garbage_per_process * len(members)))
            scatter_garbage_messages(
                engine,
                rng,
                budget,
                lie_prob=corruption.garbage_lie_prob,
                targets=members,
                subjects=members,
                confine_component=True,
            )
    return engine


def build_fsp_engine(
    n: int,
    edges: Sequence[tuple[int, int]],
    leaving: Iterable[int],
    *,
    corruption: Corruption = CLEAN,
    scheduler: Scheduler | None = None,
    seed: int = 0,
    monitors: Sequence[Callable] = (),
    tracer: object | None = None,
    strict: bool = True,
    engine_mode: str | None = None,
) -> Engine:
    """An FSP run: :class:`FSPProcess` population, ``sleep`` available,
    no oracle (the FSP needs none)."""

    return _build_engine(
        FSPProcess,
        Capability.SLEEP,
        n,
        edges,
        leaving,
        corruption=corruption,
        scheduler=scheduler,
        seed=seed,
        oracle=None,
        monitors=monitors,
        tracer=tracer,
        strict=strict,
        engine_mode=engine_mode,
    )


# ------------------------------------------------------------ mid-run faults


def scramble_beliefs(
    engine: Engine,
    rng: Random,
    *,
    lie_prob: float = 0.5,
    pids: Iterable[int] | None = None,
) -> int:
    """Protocol-specific mid-run transient fault: corrupt stored beliefs.

    Walks each (non-gone) process's belief surfaces — the FDP/FSP
    neighbourhood table ``N``, the framework's mode-belief table
    ``beliefs``, and the anchor belief — and with probability *lie_prob*
    per entry sets the stored mode to the *wrong* one. No reference is
    added or removed: the edge multiset keeps its endpoints, so §1.2's
    "references belong to existing processes" and the per-component
    structure hold trivially; Φ may rise, which is the point (the
    adversary re-poisons the information layer without touching
    connectivity). Processes without belief surfaces (plain overlay
    logics) are skipped.

    Reads and writes go through the engine facade
    (:meth:`~repro.sim.engine.Engine.beliefs_of`,
    :meth:`~repro.sim.engine.Engine.rewrite_beliefs`), so on a soa run
    the core's ``N`` and anchor columns serve them and no export
    happens. Callers running a
    :class:`~repro.sim.monitors.PotentialMonitor` must ``rebase()`` it
    afterwards. Returns the number of beliefs flipped.
    """

    if not 0.0 <= lie_prob <= 1.0:
        raise ConfigurationError("lie_prob must lie in [0, 1]")
    pool = sorted(pids) if pids is not None else sorted(engine.processes)
    flipped = 0
    for pid in pool:
        state = engine.state_of(pid)
        if state is None:
            raise ConfigurationError(f"no process with pid {pid}")
        if state is PState.GONE:
            continue
        changes = []
        for store, target, belief in engine.beliefs_of(pid):
            # A table entry without a mode belief is skipped without a
            # draw; an anchor always draws.
            if store != "anchor" and not isinstance(belief, Mode):
                continue
            if rng.random() < lie_prob:
                wrong = engine.actual_mode(target).opposite
                if belief is not wrong:
                    changes.append((store, target, wrong))
        if changes:
            engine.rewrite_beliefs(pid, changes)
            flipped += len(changes)
    return flipped


# ------------------------------------------------------------ meta rebuilds


def _edges_from_generator(topology: str, n: int, seed: int) -> list[tuple[int, int]]:
    from repro.graphs.generators import GENERATORS

    gen = GENERATORS[topology]
    try:
        return gen(n, seed=seed)  # type: ignore[call-arg]
    except TypeError:
        return gen(n)


def build_from_meta(
    meta: dict,
    *,
    tracer: object | None = None,
    monitors: Sequence[Callable] = (),
    engine_mode: str | None = None,
) -> Engine:
    """Rebuild a scenario's exact initial state from its metadata dict.

    The dict is the JSON-serializable parameter set that trace headers
    and failure capsules store; every builder in the chain (topology
    generator, :func:`choose_leaving`, corruption, engine construction)
    is a pure function of it, so the reconstruction is bit-identical.
    Recognized keys:

    * ``scenario`` — ``"fdp"`` (default), ``"fsp"`` or ``"framework"``;
    * ``n``, ``seed`` — population size and master seed;
    * ``topology`` — generator name, or explicit ``edges`` as
      ``[[a, b], ...]`` (takes precedence; what the shrinker emits);
    * ``leaving`` — fraction for :func:`choose_leaving`, or explicit
      ``leaving_pids`` (takes precedence);
    * ``corruption`` — scalar factor for :func:`corruption_from_factor`,
      or a dict of :class:`Corruption` fields;
    * ``scheduler`` — a :data:`SCHEDULER_FACTORIES` name (default
      ``"random"``), seeded with ``seed``;
    * ``oracle`` — an oracle registry name (default ``"single"``);
    * ``protocol`` — overlay logic name (framework scenario only);
    * ``net`` — a :meth:`repro.net.ReliableTransport.config` dict; when
      present the rebuilt engine gets a reliable transport over the
      configured unreliable underlay installed before any step runs
      (the transport is itself a pure function of its config, so faulty
      runs rebuild bit-identically).

    *engine_mode* selects the execution core for the rebuilt engine
    (``objects``/``soa``/``verify``; ``None`` defers to the
    ``REPRO_ENGINE_MODE`` environment default). The cores are
    bit-identical, so replays agree regardless of which core the
    original run used.
    """

    n = meta["n"]
    seed = meta.get("seed", 0)
    if meta.get("edges") is not None:
        edges = [tuple(e) for e in meta["edges"]]
    else:
        edges = _edges_from_generator(meta["topology"], n, seed)
    if meta.get("leaving_pids") is not None:
        leaving: frozenset[int] = frozenset(meta["leaving_pids"])
    else:
        leaving = choose_leaving(
            n, edges, fraction=meta.get("leaving", 0.0), seed=seed
        )
    corr = meta.get("corruption", 0.0)
    corruption = (
        Corruption(**corr) if isinstance(corr, dict)
        else corruption_from_factor(float(corr))
    )
    scheduler_name = meta.get("scheduler", "random")
    if scheduler_name not in SCHEDULER_FACTORIES:
        raise ConfigurationError(f"unknown scheduler {scheduler_name!r} in meta")
    scheduler = SCHEDULER_FACTORIES[scheduler_name](seed)
    scenario = meta.get("scenario", "fdp")
    common = dict(
        corruption=corruption,
        scheduler=scheduler,
        seed=seed,
        tracer=tracer,
        monitors=monitors,
        engine_mode=engine_mode,
    )
    if scenario == "fsp":
        engine = build_fsp_engine(n, edges, leaving, **common)
    elif scenario == "framework":
        from repro.overlays import LOGICS

        oracle_cls = ORACLES[meta.get("oracle", "single")]
        logic = LOGICS[meta["protocol"]]
        engine = build_framework_engine(
            n, edges, leaving, logic, oracle=oracle_cls(), **common
        )
    elif scenario == "fdp":
        oracle_cls = ORACLES[meta.get("oracle", "single")]
        engine = build_fdp_engine(n, edges, leaving, oracle=oracle_cls(), **common)
    else:
        raise ConfigurationError(f"unknown scenario {scenario!r} in meta")
    if meta.get("net") is not None:
        from repro.net import ReliableTransport

        ReliableTransport.from_config(meta["net"]).install(engine)
    return engine
