"""Invariant monitors: executable statements of the paper's lemmas.

A monitor is a callable ``(engine, executed_step) -> None`` registered on
the engine; it raises :class:`~repro.errors.SafetyViolation` the moment an
invariant breaks, pinpointing the step at which a (hypothetical) bug in a
protocol transcription violated a proof obligation.

* :class:`ConnectivityMonitor` — Lemma 2: within each *initial* weakly
  connected component, the relevant processes stay weakly connected in
  every state of the computation.
* :class:`PotentialMonitor` — Lemma 3 (first half): the potential Φ never
  increases. ("The only way Φ could increase is if invalid information is
  copied" — and the protocol never copies it.)
* :class:`TransitionMonitor` — Figure 1 / E1: records every lifecycle
  transition actually taken so the experiment can check the observed set
  equals the drawn set.

On the object loop a monitor is called after every executed step, so
monitors are observation hot-path code: they must read the engine's
O(1)/O(Δ) surfaces (``potential()``, ``gone_count``, ``edge_count``,
``partition_epoch()``, ``members_weakly_connected``) and never
materialize a snapshot or scan the process population — the observer
spy in ``tests/sim/test_step_path_spy.py`` runs the Lemma 2 and Lemma 3
monitors every step and fails on either. The Lemma 2 and Lemma 3
monitors act only every ``check_every`` steps and say so through
``next_wakeup(step)``; a ``soa`` run then keeps its core batches, ends
them at those step counts at the latest and calls the monitors after
each, with ``executed=None``, where the core answers ``partition_epoch()``,
``relevant_pids()``, ``members_weakly_connected`` and ``potential()``
(docs/OBSERVABILITY.md "Monitors on the core"). While the core's
partition epoch repeats, a Lemma 2 check costs one targeted certificate
walk. :class:`TransitionMonitor` reads every step, so it declares no
wakeup and keeps a run on the object loop. Streaming
trace export and the documented probe catalog live in :mod:`repro.obs`.
Exit safety is a property of the oracle, not of a step: it is audited
by wrapping the run's oracle in
:class:`~repro.core.oracles.AuditedOracle`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SafetyViolation
from repro.sim.states import PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = [
    "ConnectivityMonitor",
    "PotentialMonitor",
    "TransitionMonitor",
]


class ConnectivityMonitor:
    """Checks Lemma 2's invariant every ``check_every`` steps.

    For each initial component ``C``: the currently *relevant* processes of
    ``C`` must lie in a single weakly connected component of the process
    graph. (Components never merge under copy-store-send protocols — no
    process can learn a reference nobody in its component holds — so the
    per-component check is exact.)

    The check goes through :meth:`Engine.members_weakly_connected`, which
    answers from the core's kept component labels or the live
    union-find instead of rebuilding a snapshot — per-step checking
    (``check_every=1``) costs O(Δ) amortized on the live graph rather
    than O(V+E). On the core it is skipped while the partition epoch is
    the one of the last passing check (:meth:`verify`).
    """

    def __init__(self, check_every: int = 1) -> None:
        if check_every < 1:
            raise ConfigurationError("check_every must be >= 1")
        self.check_every = check_every
        self.checks = 0
        #: the engine's partition epoch at the last passing check
        self._passed_epoch: object | None = None

    def __call__(self, engine: Engine, executed: ExecutedStep | None) -> None:
        if engine.step_count % self.check_every != 0:
            return
        self.verify(engine)

    def next_wakeup(self, step: int) -> int:
        """The next multiple of ``check_every`` after *step*."""
        return (step // self.check_every + 1) * self.check_every

    def verify(self, engine: Engine) -> None:
        """Run the check now, raising on violation.

        It passes at once when the engine's partition epoch
        (:meth:`Engine.partition_epoch`) is the one of the last passing
        check: no process changed component since, and a subset of a
        connected member set stays connected, since the relevant
        members of a component only shrink while nothing sleeps.
        Otherwise every initial component's members are checked.
        """
        self.checks += 1
        epoch = engine.partition_epoch()
        if epoch is not None and epoch is self._passed_epoch:
            return
        relevant = engine.relevant_pids()
        for comp in engine.initial_components:
            members = frozenset(comp) & relevant
            if len(members) <= 1:
                continue
            if not engine.members_weakly_connected(members):
                raise SafetyViolation(
                    f"Lemma 2 violated at step {engine.step_count}: relevant "
                    f"processes {sorted(members)} of an initial component are "
                    "no longer weakly connected"
                )
        self._passed_epoch = epoch


class PotentialMonitor:
    """Checks Lemma 3's monotonicity: Φ never increases.

    ``check_every`` controls sampling; with 1 the check is per-step and the
    claim verified is exactly the per-transition statement of the proof.
    The observed series is kept for analysis (`values`).
    ``engine.potential()`` is an O(1) counter read in incremental graph
    mode, so per-step sampling is essentially free.
    """

    def __init__(self, check_every: int = 1) -> None:
        if check_every < 1:
            raise ConfigurationError("check_every must be >= 1")
        self.check_every = check_every
        self.values: list[int] = []
        self._last: int | None = None

    def __call__(self, engine: Engine, executed: ExecutedStep | None) -> None:
        if engine.step_count % self.check_every != 0:
            return
        phi = engine.potential()
        self.values.append(phi)
        if self._last is not None and phi > self._last:
            raise SafetyViolation(
                f"Lemma 3 violated at step {engine.step_count}: potential rose "
                f"from {self._last} to {phi}"
            )
        self._last = phi

    def next_wakeup(self, step: int) -> int:
        """The next multiple of ``check_every`` after *step*."""
        return (step // self.check_every + 1) * self.check_every

    def rebase(self, engine: Engine | None = None) -> None:
        """Forget the last observed Φ (keeping the recorded series).

        Lemma 3 bounds Φ under *protocol* actions only; a chaos campaign
        that injects invalid information mid-run legitimately raises Φ
        out of band. The campaign calls this right after each injection
        so the monitor restarts its monotonicity check from the new level
        instead of reporting a phantom violation.
        """
        self._last = None


class TransitionMonitor:
    """Records the set of lifecycle transitions observed in a run.

    The engine itself refuses illegal transitions; this monitor provides
    the positive direction for experiment E1 — which legal transitions a
    workload actually exercises.
    """

    def __init__(self) -> None:
        self._prev: dict[int, PState] = {}
        self.observed: set[tuple[PState, PState]] = set()

    def __call__(self, engine: Engine, executed: ExecutedStep) -> None:
        pid = executed.pid
        new = engine.processes[pid].state
        old = self._prev.get(pid, PState.AWAKE)
        if old is not new:
            self.observed.add((old, new))
        self._prev[pid] = new
