"""The potential function Φ (Lemma 3) and the legitimacy predicates (§1.2).

**Potential.** ``Φ_t`` is the amount of invalid information in the system:
the number of edges ``(x, y)`` — explicit or implicit — whose attached
belief about ``mode(y)`` is wrong. The paper's liveness argument rests on
two facts this module lets experiments verify directly:

* Φ never increases (invalid information is never copied: the only places
  a belief about a third party is forwarded, the forwarder simultaneously
  drops its own copy), and
* Φ eventually reaches 0, after which leaving processes drain and exit.

**Legitimacy** (Section 1.2). A system state is legitimate iff

  (i)   every staying process is awake,
  (ii)  every leaving process is either hibernating or gone,
  (iii) for each weakly connected component of the *initial* process
        graph, the staying processes in that component still form a
        weakly connected component.

For (iii) we check connectivity of each component's staying set in the
subgraph induced on staying processes: paths through gone processes do
not exist, and paths through hibernating processes are useless (a
hibernating process never acts again, so staying processes "connected"
only through it could never exchange another message).

The FDP asks for legitimacy with only ``exit`` available (so (ii) means
*gone*); the FSP with only ``sleep`` (so (ii) means *hibernating*).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graphs.snapshot import Edge
from repro.sim.states import Mode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "potential",
    "invalid_edges",
    "is_valid_state",
    "staying_connected_per_component",
    "staying_connected_induced",
    "relevant_connected_per_component",
    "fdp_legitimate",
    "fsp_legitimate",
    "all_leaving_gone",
    "all_leaving_hibernating",
]


def potential(engine: Engine) -> int:
    """Φ: the number of edges carrying invalid mode information.

    An O(1) counter read: the engine's live graph buckets incident
    beliefs per target pid.
    """
    return engine.potential()


def invalid_edges(engine: Engine) -> list[Edge]:
    """The edges counted by Φ (for diagnostics and targeted tests)."""
    snap = engine.snapshot()
    return list(snap.iter_invalid_edges(engine.actual_mode))


def is_valid_state(engine: Engine) -> bool:
    """Whether no relevant process holds or is owed invalid information."""
    return engine.potential() == 0


# ---------------------------------------------------------------- legitimacy parts


def all_staying_awake(engine: Engine) -> bool:
    """Condition (i): every staying process is awake."""
    return engine.lifecycle_clauses()[0]


def all_leaving_gone(engine: Engine) -> bool:
    """FDP reading of condition (ii): every leaving process is gone."""
    return engine.lifecycle_clauses()[1]


def all_leaving_hibernating(engine: Engine) -> bool:
    """FSP reading of condition (ii): every leaving process is hibernating
    (gone also accepted, matching the general definition).

    Without sleepers nothing hibernates, so this is the FDP reading.
    With sleepers it needs the hibernation fixpoint, a live-graph query.
    """
    if engine.lifecycle_clauses()[1]:
        return True
    if not engine.asleep_count:
        return False
    relevant = engine.relevant_pids()
    return not any(
        pid in relevant
        for pid, p in engine.processes.items()
        if p.mode is Mode.LEAVING
    )


def staying_connected_per_component(engine: Engine) -> bool:
    """Condition (iii): per initial component, the staying processes still
    lie in one weakly connected component of the current process graph.

    This is the paper's reading: PG includes every non-gone process, so
    paths through hibernating (leaving, permanently asleep) processes
    count. In FDP-legitimate states all leaving processes are gone and
    this coincides with connectivity of the staying-induced subgraph; in
    FSP-legitimate states a hibernating process may serve as the joint
    holding two staying processes' references together. Open-system
    runs extend each component with its mid-run admissions — a joiner
    attaches by edge to exactly one component, so paths through any
    non-gone admitted process are legitimate.

    The check is :meth:`~repro.sim.engine.Engine.same_component` over
    all of PG, which is exact: initial components never merge under
    copy-store-send protocols, so a path between two members can never
    leave their component and its admissions. Use
    :func:`staying_connected_induced` for the stricter variant.
    """
    staying = engine.staying_pids()
    for comp in engine.initial_components:
        members = comp & staying
        if len(members) > 1 and not engine.same_component(members):
            return False
    return True


def staying_connected_induced(engine: Engine) -> bool:
    """Strict variant of condition (iii): connectivity of each component's
    staying processes in the subgraph induced on staying processes only
    (no paths through hibernating processes). Reported by the analysis
    layer so experiments can show how often the two readings differ."""
    snap = engine.snapshot()
    staying = engine.staying_pids()
    sub = snap.filter_nodes(lambda n: n.pid in staying)
    for comp in engine.initial_components:
        members = frozenset(comp) & staying
        if len(members) <= 1:
            continue
        if not sub.is_weakly_connected(members):
            return False
    return True


def relevant_connected_per_component(engine: Engine) -> bool:
    """Lemma 2's running invariant: per initial component, the currently
    relevant processes remain weakly connected (paths through any relevant
    process count).

    Served by the engine's live graph — no snapshot
    is built, making this safe to evaluate in per-step loops.
    """
    relevant = engine.relevant_pids()
    for comp in engine.initial_components:
        members = frozenset(comp) & relevant
        if len(members) <= 1:
            continue
        if not engine.members_weakly_connected(members):
            return False
    return True


# ---------------------------------------------------------------- full predicates


def fdp_legitimate(engine: Engine) -> bool:
    """Legitimacy for the Finite Departure Problem: (i) ∧ (ii:gone) ∧ (iii)."""
    staying_awake, leaving_gone = engine.lifecycle_clauses()
    return (
        staying_awake and leaving_gone and staying_connected_per_component(engine)
    )


def fsp_legitimate(engine: Engine) -> bool:
    """Legitimacy for the Finite Sleep Problem: (i) ∧ (ii:hibernating) ∧ (iii)."""
    return (
        all_staying_awake(engine)
        and all_leaving_hibernating(engine)
        and staying_connected_per_component(engine)
    )
