"""Mid-run chaos campaigns: admissible transient faults while the run is live.

The initial-state fault injectors (:mod:`repro.sim.faults`,
``Corruption`` in :mod:`repro.core.scenarios`) sample Section 1.2's
space of admissible *initial* states. Self-stabilization promises more:
recovery from any admissible state, including one reached by a
transient fault striking *mid-execution*. A :class:`ChaosCampaign` is an
engine monitor that re-injects exactly the admissible fault classes on
a seeded schedule while the protocol runs:

* ``garbage`` — stale in-flight messages carrying truthful-or-lying
  mode claims (:func:`~repro.sim.faults.scatter_garbage_messages` with
  ``confine_component=True``);
* ``mode_lie`` — the same planter with ``lie_prob=1.0``: every claim is
  the opposite of the subject's true mode (guaranteed Φ pressure);
* ``scramble`` — protocol-specific belief corruption, delegated to
  :func:`repro.core.scenarios.scramble_beliefs` (flips stored mode
  beliefs and anchors in place, no new references).

Admissibility is enforced per injection, not assumed: every planted
reference stays within the target's *current* weak component (the
planter raises on a would-be leak — an adversary cannot fabricate
connectivity), no gone process is referenced (departed refs cannot be
revived), and after each injection the campaign re-asserts the
staying-process-per-component constraint over the still-alive members
of every initial component.

Injections legitimately raise Φ and pending counts out of band, so
after each one the campaign calls ``rebase()`` on every co-registered
monitor that has one (:class:`~repro.sim.monitors.PotentialMonitor`,
all :mod:`~repro.chaos.watchdogs`) — Lemma 3 and the stall windows
restart from the post-injection level instead of reporting phantoms.

All three state faults go through the engine facade — ``Engine.post``
with ``sender=None`` for the planters, ``Engine.beliefs_of`` and
``Engine.rewrite_beliefs`` for the scramble — and the pools and the
admissibility check read ``component_labels``, ``state_of`` and
``actual_mode``. On a ``soa`` run those are core operations, and
:meth:`ChaosCampaign.next_wakeup` names the next injection step, so a
supervised run keeps its core batches without an export or a core
rebuild.

Determinism contract: an injection is a pure function of (step index,
campaign RNG state, engine state), so a campaign rebuilt from
:meth:`ChaosCampaign.config` and attached to an identically rebuilt
engine replays bit-identically — the property failure capsules rely on.
For that to hold across capture and replay the campaign must be the
FIRST registered monitor: at the step a later watchdog aborts the run,
the campaign has already made its injection, so a replay without the
watchdog reproduces the same message stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, SafetyViolation
from repro.sim.faults import scatter_garbage_messages
from repro.sim.states import Mode, PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = [
    "InjectionRecord",
    "ChaosCampaign",
    "CAMPAIGN_KINDS",
    "NET_CAMPAIGN_KINDS",
    "ALL_CAMPAIGN_KINDS",
]

#: the admissible state-fault classes a campaign draws from by default.
CAMPAIGN_KINDS = ("garbage", "mode_lie", "scramble")

#: underlay-fault kinds (docs/ROBUSTNESS.md): each injection overlays a
#: bounded burst window on the engine's attached transport — extra loss,
#: duplication or delay probability, or an extra transient partition.
#: Net kinds are opt-in (not in the default ``kinds``) because they are
#: no-ops on an engine without a transport.
NET_CAMPAIGN_KINDS = ("net_loss", "net_dup", "net_delay", "net_partition")

ALL_CAMPAIGN_KINDS = CAMPAIGN_KINDS + NET_CAMPAIGN_KINDS


@dataclass(frozen=True)
class InjectionRecord:
    """One executed injection, capsule-serializable."""

    step: int
    kind: str
    count: int
    component: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "count": self.count,
            "component": list(self.component),
        }


class ChaosCampaign:
    """Engine monitor injecting admissible transient faults on a seeded
    schedule.

    Fires roughly every ``period`` steps (the exact gap is drawn from the
    campaign RNG, so the schedule is seeded but not metronomic), starting
    no earlier than ``start_after``, at most ``max_injections`` times
    (``None`` = unbounded). Each firing picks one initial component that
    still has alive members, picks a fault kind from ``kinds``, injects,
    re-asserts admissibility, and rebases co-registered monitors.

    Register FIRST in the engine's monitor list — see the module
    docstring's determinism contract.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        period: int = 1_000,
        start_after: int = 0,
        max_injections: int | None = None,
        kinds: tuple[str, ...] = CAMPAIGN_KINDS,
        garbage_count: int = 4,
        lie_count: int = 2,
        scramble_lie_prob: float = 0.25,
        garbage_lie_prob: float = 0.5,
        labels: tuple[str, ...] = ("present", "forward"),
        burst_duration: int = 256,
        burst_amount: float = 0.25,
    ) -> None:
        if period < 1:
            raise ConfigurationError("period must be >= 1")
        kinds = tuple(kinds)
        unknown = set(kinds) - set(ALL_CAMPAIGN_KINDS)
        if not kinds or unknown:
            raise ConfigurationError(
                f"kinds must be a non-empty subset of {ALL_CAMPAIGN_KINDS}, "
                f"got {kinds!r}"
            )
        self.seed = int(seed)
        self.period = int(period)
        self.start_after = int(start_after)
        self.max_injections = max_injections
        self.kinds = kinds
        self.garbage_count = int(garbage_count)
        self.lie_count = int(lie_count)
        self.scramble_lie_prob = float(scramble_lie_prob)
        self.garbage_lie_prob = float(garbage_lie_prob)
        self.labels = tuple(labels)
        self.burst_duration = int(burst_duration)
        self.burst_amount = float(burst_amount)
        self._rng = Random(self.seed)
        self.injections: list[InjectionRecord] = []
        self.admissibility_checks = 0
        self._next_due = self.start_after + self._gap()

    # -- scheduling -------------------------------------------------------------

    def _gap(self) -> int:
        """Seeded jitter: the next firing lands in [period/2, 3*period/2]."""
        half = self.period // 2
        return max(1, self.period + self._rng.randint(-half, half))

    @property
    def exhausted(self) -> bool:
        return (
            self.max_injections is not None
            and len(self.injections) >= self.max_injections
        )

    # -- monitor surface --------------------------------------------------------

    def __call__(self, engine: Engine, executed: ExecutedStep | None) -> None:
        if self.exhausted or engine.step_count < self._next_due:
            return
        self._inject(engine)
        self._next_due = engine.step_count + self._gap()

    def next_wakeup(self, step: int) -> int | None:
        """The step count of the next injection after *step*; ``None``
        once exhausted."""
        if self.exhausted:
            return None
        return max(step + 1, self._next_due)

    # -- injection --------------------------------------------------------------

    def _alive_components(self, engine: Engine) -> list[list[int]]:
        """Alive (non-gone) members of each initial component, in
        deterministic order; empty components are dropped.

        Open-system runs shrink and grow the population mid-run: reaped
        and gone pids carry no component label, and mid-run admissions —
        which belong to no *initial* component — form one extra pool so
        a campaign stays live even after the seed population has fully
        turned over. One :meth:`~repro.sim.engine.Engine.component_labels`
        answer (the core's, on a soa run) names the alive pids.
        """
        alive = engine.component_labels()
        initial: set[int] = set()
        pools = []
        for comp in engine.initial_components:
            initial.update(comp)
            members = [pid for pid in sorted(comp) if pid in alive]
            if members:
                pools.append(members)
        admitted = sorted(pid for pid in alive if pid not in initial)
        if admitted:
            pools.append(admitted)
        return pools

    def _inject(self, engine: Engine) -> None:
        pools = self._alive_components(engine)
        if not pools:
            return
        members = pools[self._rng.randrange(len(pools))]
        kind = self.kinds[self._rng.randrange(len(self.kinds))]
        if kind in NET_CAMPAIGN_KINDS:
            count = self._inject_net(engine, kind)
            self.injections.append(
                InjectionRecord(
                    step=engine.step_count, kind=kind, count=count, component=()
                )
            )
            self._rebase_supervisors(engine)
            return
        if kind == "garbage":
            count = scatter_garbage_messages(
                engine,
                self._rng,
                self.garbage_count,
                labels=self.labels,
                lie_prob=self.garbage_lie_prob,
                targets=members,
                subjects=members,
                confine_component=True,
            )
        elif kind == "mode_lie":
            # a mode-claim lie IS a garbage message with a guaranteed
            # false claim — reuse the planter so confinement is enforced
            # by the same code path.
            count = scatter_garbage_messages(
                engine,
                self._rng,
                self.lie_count,
                labels=self.labels,
                lie_prob=1.0,
                targets=members,
                subjects=members,
                confine_component=True,
            )
        else:  # "scramble"
            from repro.core.scenarios import scramble_beliefs

            count = scramble_beliefs(
                engine,
                self._rng,
                lie_prob=self.scramble_lie_prob,
                pids=members,
            )
        self.injections.append(
            InjectionRecord(
                step=engine.step_count,
                kind=kind,
                count=count,
                component=tuple(members),
            )
        )
        self._assert_admissible(engine)
        self._rebase_supervisors(engine)

    def _inject_net(self, engine: Engine, kind: str) -> int:
        """Overlay one underlay-fault burst on the attached transport.

        The burst parameters are drawn from the campaign RNG *before*
        checking for a transport, so the RNG stream — and with it every
        later injection — is identical whether or not ``engine.net``
        exists (a capsule replay may rebuild the engine without one).
        Net faults touch no engine state, so the admissibility assert
        is moot; supervisors still rebase because a burst legitimately
        stalls progress.
        """
        duration = self.burst_duration + self._rng.randint(0, self.burst_duration)
        amount = self.burst_amount * (0.5 + self._rng.random())
        net = getattr(engine, "net", None)
        if net is None:
            return 0
        if kind == "net_partition":
            net.underlay.add_burst("partition", engine.step_count, duration, 1.0)
        else:
            net.underlay.add_burst(kind[4:], engine.step_count, duration, amount)
        return 1

    def _assert_admissible(self, engine: Engine) -> None:
        """Re-validate Section 1.2 after the injection.

        Constraints (2) finitely many messages and (3) refs belong to
        existing processes hold by construction (bounded counts; the
        planter validated every pid). Confinement was enforced per plant.
        What remains checkable — and what a buggy injector would break —
        is (4): every initial component with alive members still holds
        at least one alive staying process.
        """
        self.admissibility_checks += 1
        for comp in engine.initial_components:
            alive = [
                pid
                for pid in comp
                if engine.state_of(pid) not in (None, PState.GONE)
            ]
            if alive and not any(
                engine.actual_mode(pid) is Mode.STAYING for pid in alive
            ):
                raise SafetyViolation(
                    f"chaos injection at step {engine.step_count} left "
                    f"component {sorted(alive)} without a staying process"
                )

    def _rebase_supervisors(self, engine: Engine) -> None:
        """Restart every co-registered monitor's observation window."""
        for monitor in engine.monitors:
            if monitor is self:
                continue
            rebase = getattr(monitor, "rebase", None)
            if callable(rebase):
                rebase(engine)

    # -- capsule round-trip -----------------------------------------------------

    def config(self) -> dict:
        """Constructor-equivalent parameters, JSON-serializable."""
        return {
            "seed": self.seed,
            "period": self.period,
            "start_after": self.start_after,
            "max_injections": self.max_injections,
            "kinds": list(self.kinds),
            "garbage_count": self.garbage_count,
            "lie_count": self.lie_count,
            "scramble_lie_prob": self.scramble_lie_prob,
            "garbage_lie_prob": self.garbage_lie_prob,
            "labels": list(self.labels),
            "burst_duration": self.burst_duration,
            "burst_amount": self.burst_amount,
        }

    @classmethod
    def from_config(cls, config: dict) -> ChaosCampaign:
        params = dict(config)
        for key in ("kinds", "labels"):
            if key in params:
                params[key] = tuple(params[key])
        return cls(**params)
