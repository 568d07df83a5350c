"""Generic transient-fault injection: arbitrary-but-admissible initial states.

Self-stabilization quantifies over *all* initial states satisfying the
admissibility constraints of Section 1.2:

1. all processes are relevant (none gone, none hibernating),
2. only finitely many action-triggering messages exist,
3. every reference present in the system belongs to an existing process,
4. (for the Section 3/4 solutions) each weakly connected component
   contains at least one staying process.

The helpers here sample that space *generically* — planting stale/garbage
messages, claiming wrong modes, adding spurious edges — while provably
respecting (2) and (3) by construction ((1) and (4) are validated by the
engine at attach time). Protocol-specific corruption (e.g. scrambling an
FDP process's neighbourhood beliefs and anchor) lives with the protocol,
in :mod:`repro.core.scenarios`.
"""

from __future__ import annotations

from random import Random
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING, NoReturn

from repro.errors import ConfigurationError
from repro.sim.messages import RefInfo
from repro.sim.states import Mode, PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "random_mode_claim",
    "plant_ref_message",
    "scatter_garbage_messages",
    "plant_unknown_label_messages",
]


def random_mode_claim(rng: Random, actual: Mode, lie_prob: float) -> Mode:
    """Return *actual*, or its opposite with probability *lie_prob*.

    The workhorse for creating invalid information (Φ > 0 initial states).
    """

    if not 0.0 <= lie_prob <= 1.0:
        raise ValueError("lie_prob must lie in [0, 1]")
    return actual.opposite if rng.random() < lie_prob else actual


def plant_ref_message(
    engine: Engine,
    target_pid: int,
    label: str,
    ref_pid: int,
    claimed_mode: Mode | None,
) -> None:
    """Deposit ``⟨label⟩(RefInfo(ref, claimed_mode))`` into *target_pid*'s channel.

    Models a stale in-flight message from before the fault: the claimed
    mode may be arbitrary (including invalid — this is precisely how an
    adversary raises Φ in the initial state). The engine validates both
    pids exist, so constraint (3) cannot be violated.
    """

    engine.post(
        None,
        engine.ref(target_pid),
        label,
        (RefInfo(engine.ref(ref_pid), claimed_mode),),
    )


def scatter_garbage_messages(
    engine: Engine,
    rng: Random,
    count: int,
    *,
    labels: Sequence[str] = ("present", "forward"),
    lie_prob: float = 0.5,
    targets: Iterable[int] | None = None,
    subjects: Iterable[int] | None = None,
    confine_component: bool = False,
) -> int:
    """Plant *count* random stale messages; returns how many were planted.

    Each message goes to a random target, carries a random subject
    reference, and claims the subject's mode truthfully or falsely per
    *lie_prob*. Restricting *targets*/*subjects* lets scenario builders
    keep corruption within one component (constraint: references must not
    leak across components, otherwise the injector would be *creating*
    connectivity the adversary could not have).

    ``confine_component=True`` enforces that constraint instead of
    trusting the pools: before each plant, the target and subject are
    checked to be non-gone and weakly connected in the *current* process
    graph, and a cross-component (or dead-process) pair raises
    :class:`~repro.errors.ConfigurationError` before anything is posted.
    One :meth:`~repro.sim.engine.Engine.component_labels` answer serves
    the whole call: a confined plant adds an edge inside one component,
    and components never merge, so the labelling stays exact. Chaos
    campaigns and the scenario builders run with the check on; it
    defaults to off so callers deliberately sampling the whole population
    (single-component topologies) pay nothing.
    """

    target_pool = list(targets) if targets is not None else list(engine.processes)
    subject_pool = list(subjects) if subjects is not None else list(engine.processes)
    if not target_pool or not subject_pool:
        return 0
    # Raw connectivity (paths through asleep processes count) is what
    # leak detection is about, not Lemma 2's relevance-restricted
    # invariant. Gone processes carry no label.
    components = engine.component_labels() if confine_component else None
    planted = 0
    for _ in range(count):
        tpid = target_pool[rng.randrange(len(target_pool))]
        spid = subject_pool[rng.randrange(len(subject_pool))]
        label = labels[rng.randrange(len(labels))]
        if components is not None:
            home = components.get(tpid)
            if home is None or components.get(spid) != home:
                _confinement_error(engine, tpid, spid)
        claim = random_mode_claim(rng, engine.actual_mode(spid), lie_prob)
        plant_ref_message(engine, tpid, label, spid, claim)
        planted += 1
    return planted


def _confinement_error(engine: Engine, tpid: int, spid: int) -> NoReturn:
    """Raise why planting a *spid* reference at *tpid* is inadmissible."""
    for pid in (tpid, spid):
        if engine.state_of(pid) is PState.GONE:
            raise ConfigurationError(
                f"garbage injection references gone process {pid}; "
                "an admissible adversary cannot revive departed refs"
            )
    raise ConfigurationError(
        f"garbage message would leak a reference across weak "
        f"components: target {tpid} and subject {spid} are not "
        "connected, so the injection would fabricate connectivity"
    )


def plant_unknown_label_messages(
    engine: Engine, rng: Random, count: int, label: str = "bogus_action"
) -> int:
    """Plant messages whose label no process implements.

    The model says such messages are ignored; planting them verifies the
    drop path (run with ``strict=False``). No references are attached so
    they add no edges. Returns the number actually planted (0 for an
    engine with no processes, mirroring :func:`scatter_garbage_messages`).
    """

    pids = list(engine.processes)
    if not pids:
        return 0
    planted = 0
    for _ in range(count):
        tpid = pids[rng.randrange(len(pids))]
        engine.post(None, engine.ref(tpid), label, ())
        planted += 1
    return planted
