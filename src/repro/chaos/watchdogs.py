"""Livelock and no-progress supervisors over the engine's O(1) counters.

The PR 2 presumed-leaving bug had a precise runtime signature long before
its 3M-step budget ran out: Φ had stopped decreasing while a gone
process's channel grew without bound. Nothing in the engine watched for
that shape — a run would burn its whole step budget and report only
"did not converge". The watchdogs here are engine monitors (callables
``(engine, executed_step) -> None``) that detect such shapes *mid-run*
and trip with a structured :class:`StallDiagnosis`:

* :class:`LivelockWatchdog` — Φ non-decreasing over a whole sampling
  window while the undrained flow (total channel backlog plus sends
  dropped at gone processes) keeps growing — the livelock shape: work
  is being done, none of it reduces invalid information. Before the
  open-system bounce semantics the flow piled up *inside* a gone
  process's channel; now the same doomed sends surface as the O(1)
  ``dropped_gone`` counter, and the watchdog keys on both;
* :class:`NoProgressWatchdog` — the engine's observable fingerprint
  (Φ, pending, edges, lifecycle counts) frozen for a whole window with
  zero lifecycle transitions (the deadlock-in-disguise shape);
* :class:`BacklogWatchdog` — total pending messages above a hard bound
  (the memory guard: unbounded channel growth kills the host before any
  step budget is reached).

Hot-path discipline: every check reads only O(1) counters
(``potential()``/``pending_count``/``edge_count``/lifecycle counts), and
a watchdog acts only every ``check_every`` steps, which
:meth:`Watchdog.next_wakeup` declares: a ``soa`` run keeps its core
batches and calls the watchdogs at those step counts. The backlog
watchdog declares fewer: once its window is open, only the first
multiple at which the backlog could exceed its bound, from the
engine's :meth:`~repro.sim.engine.Engine.backlog_horizon`; the
multiples it passes still count as checks.
The O(n) channel attribution (:func:`repro.obs.metrics.top_backlog`)
runs only when building a trip diagnosis — i.e. once, on the way out.

Chaos campaigns legitimately disturb these counters mid-run (an
injection raises Φ and pending out of band); campaigns therefore call
:meth:`Watchdog.rebase` after every injection so windows restart from
the post-injection level and injections can never masquerade as
protocol stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, WatchdogTrip
from repro.obs.metrics import top_backlog
from repro.sim.states import PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = [
    "StallDiagnosis",
    "Watchdog",
    "LivelockWatchdog",
    "NoProgressWatchdog",
    "BacklogWatchdog",
    "RetransmitStormWatchdog",
    "WATCHDOG_KINDS",
    "watchdog_from_config",
    "default_watchdogs",
]


@dataclass
class StallDiagnosis:
    """Structured evidence attached to a :class:`~repro.errors.WatchdogTrip`.

    Everything a failure capsule needs to explain *why* the supervisor
    gave up: the Φ trend over the observation window, the total backlog
    trend, the most backlogged channels (gone pids flagged — a growing
    channel of a departed process is the livelock signature), and the
    last step at which the run made verifiable progress.
    """

    kind: str
    step: int
    phi: int
    pending: int
    gone: int
    asleep: int
    window_steps: int
    phi_start: int
    pending_start: int
    last_progress_step: int
    top_channels: list[tuple[int, int]] = field(default_factory=list)
    offending_pids: list[int] = field(default_factory=list)
    detail: str = ""
    dropped_gone: int = 0
    dropped_gone_start: int = 0

    def as_dict(self) -> dict:
        """JSON-ready form (capsules embed this verbatim)."""
        return {
            "kind": self.kind,
            "step": self.step,
            "phi": self.phi,
            "pending": self.pending,
            "gone": self.gone,
            "asleep": self.asleep,
            "window_steps": self.window_steps,
            "phi_start": self.phi_start,
            "pending_start": self.pending_start,
            "last_progress_step": self.last_progress_step,
            "top_channels": [list(item) for item in self.top_channels],
            "offending_pids": list(self.offending_pids),
            "detail": self.detail,
            "dropped_gone": self.dropped_gone,
            "dropped_gone_start": self.dropped_gone_start,
        }

    def summary(self) -> str:
        return (
            f"{self.kind} at step {self.step}: {self.detail} "
            f"(phi {self.phi_start}->{self.phi}, pending "
            f"{self.pending_start}->{self.pending} over {self.window_steps} "
            f"steps; last progress at step {self.last_progress_step})"
        )


class Watchdog:
    """Base class: counter sampling, windowing, trip/latch plumbing.

    Subclasses implement :meth:`_check` returning a ``(detail,
    window_steps, phi_start, pending_start, dropped_gone_start)`` tuple
    when the stall condition holds, else ``None``. On a trip the watchdog builds the
    O(n) diagnosis, latches it in :attr:`tripped` and — with the default
    ``raise_on_trip=True`` — raises :class:`~repro.errors.WatchdogTrip`
    to abort the run. With ``raise_on_trip=False`` it latches silently
    (soak batteries count trips without dying on the first).

    A watchdog watches the engine of its last call: called by another
    engine, it restarts its window (:meth:`rebase`) before looking, so
    no window spans two engines.
    """

    kind = "watchdog"

    def __init__(self, *, check_every: int, raise_on_trip: bool = True) -> None:
        if check_every < 1:
            raise ConfigurationError("check_every must be >= 1")
        self.check_every = int(check_every)
        self.raise_on_trip = bool(raise_on_trip)
        self.tripped: StallDiagnosis | None = None
        self._checks = 0
        #: the engine of the last call: the one this watchdog follows
        self._engine: Engine | None = None

    @property
    def checks(self) -> int:
        """Checks made: one per multiple of ``check_every`` the run
        reached before a trip."""
        return self._checks

    def __call__(self, engine: Engine, executed: ExecutedStep | None) -> None:
        if engine is not self._engine:
            if self._engine is not None:
                self.rebase(engine)
            self._engine = engine
        if engine.step_count % self.check_every != 0:
            return
        if self.tripped is not None:
            return  # latched (raise_on_trip=False); one diagnosis per run
        self._checks += 1
        verdict = self._check(engine)
        if verdict is None:
            return
        detail, window_steps, phi_start, pending_start, dg_start = verdict
        self.tripped = self._diagnose(
            engine, detail, window_steps, phi_start, pending_start, dg_start
        )
        self.rebase(engine)
        if self.raise_on_trip:
            raise WatchdogTrip(self.tripped.summary(), self.tripped)

    def next_wakeup(self, step: int) -> int | None:
        """The next multiple of ``check_every`` after *step*; ``None``
        once latched, since every later call is a no-op."""
        if self.tripped is not None:
            return None
        return (step // self.check_every + 1) * self.check_every

    # -- subclass surface -------------------------------------------------------

    def _check(
        self, engine: Engine
    ) -> tuple[str, int, int, int, int] | None:  # pragma: no cover - abstract
        raise NotImplementedError

    def rebase(self, engine: Engine | None = None) -> None:
        """Restart the observation window (campaigns call this after an
        injection so the out-of-band disturbance cannot trip us)."""

    def config(self) -> dict:
        """Constructor-equivalent parameters, capsule-serializable."""
        return {"watchdog": self.kind, "check_every": self.check_every}

    # -- trip path (deliberately O(n): runs once) -------------------------------

    def _diagnose(
        self,
        engine: Engine,
        detail: str,
        window_steps: int,
        phi_start: int,
        pending_start: int,
        dropped_gone_start: int = 0,
    ) -> StallDiagnosis:
        channels = top_backlog(engine, limit=5)
        procs = engine.processes
        gone_backlogged = [
            pid
            for pid, _ in channels
            # .get(): open-system runs reap pids between steps; a reaped
            # channel is gone by definition but can no longer be looked up.
            if pid not in procs or procs[pid].state is PState.GONE
        ]
        return StallDiagnosis(
            kind=self.kind,
            step=engine.step_count,
            phi=engine.potential(),
            pending=engine.pending_count,
            gone=engine.gone_count,
            asleep=engine.asleep_count,
            window_steps=window_steps,
            phi_start=phi_start,
            pending_start=pending_start,
            last_progress_step=engine.last_progress_step,
            top_channels=channels,
            offending_pids=gone_backlogged or [pid for pid, _ in channels],
            detail=detail,
            dropped_gone=engine.stats.dropped_gone,
            dropped_gone_start=dropped_gone_start,
        )


class LivelockWatchdog(Watchdog):
    """Trips when Φ never decreases over a full window while the
    undrained flow grows by at least ``min_backlog_growth``.

    Undrained flow is the channel backlog **plus** the cumulative
    ``dropped_gone`` counter (protocol sends addressed to gone
    processes, silently dropped by the open-system bounce semantics).
    The conjunction is the PR 2 livelock shape: the scheduler is fair
    and messages flow, but none of the work reduces invalid
    information. Before bounce semantics the doomed sends accumulated
    *inside* a gone process's channel (pending growth); with them they
    surface as drops — either way the flow counter grows while Φ
    stalls. Φ merely *stalling* is not enough — a converged-but-idle
    run has constant Φ = 0 and constant flow; requiring growth keeps
    healthy equilibria out.

    ``window`` counts samples taken every ``check_every`` steps, so the
    observation window spans ``window * check_every`` engine steps. The
    defaults (32 × 512 = 16384 steps) are deliberately generous: healthy
    runs decrease Φ far more often than that, and a true livelock does
    not care about an extra few thousand steps of evidence-gathering.

    The window's premise is *one computation*: within a computation Φ
    never legitimately rises (Lemma 3) and flow growth is suspect. An
    open-system churn op (admit/leave/reap) starts a new computation —
    an admission plants new beliefs out of band (Φ up) and departures
    make racing sends drop at gone processes (flow up), neither of which
    is livelock evidence. The window therefore rebases whenever the
    engine's churn journal grew, exactly as it rebases after a campaign
    injection; closed-system runs (empty journal) are unaffected.
    """

    kind = "livelock"

    def __init__(
        self,
        *,
        check_every: int = 32,
        window: int = 512,
        min_backlog_growth: int = 256,
        raise_on_trip: bool = True,
    ) -> None:
        super().__init__(check_every=check_every, raise_on_trip=raise_on_trip)
        if window < 2:
            raise ConfigurationError("window must be >= 2 samples")
        if min_backlog_growth < 1:
            raise ConfigurationError("min_backlog_growth must be >= 1")
        self.window = int(window)
        self.min_backlog_growth = int(min_backlog_growth)
        #: (step, phi, pending, dropped_gone, churn ops) at window open
        self._start: tuple[int, int, int, int, int] | None = None
        self._samples = 0

    def rebase(self, engine: Engine | None = None) -> None:
        self._start = None
        self._samples = 0

    def config(self) -> dict:
        return {
            "watchdog": self.kind,
            "check_every": self.check_every,
            "window": self.window,
            "min_backlog_growth": self.min_backlog_growth,
        }

    def _check(self, engine: Engine) -> tuple[str, int, int, int, int] | None:
        phi = engine.potential()
        pending = engine.pending_count
        dropped_gone = engine.stats.dropped_gone
        churn = len(getattr(engine, "churn_journal", ()))
        if self._start is None:
            self._start = (engine.step_count, phi, pending, dropped_gone, churn)
            self._samples = 1
            return None
        start_step, start_phi, start_pending, start_dg, start_churn = self._start
        if churn != start_churn:
            # Open-system churn started a new computation mid-window: the
            # Φ rise / flow growth it causes is not livelock evidence.
            self.rebase(engine)
            return None
        if phi < start_phi:
            # Φ made progress: restart the window from the new level.
            self.rebase(engine)
            return None
        self._samples += 1
        if self._samples < self.window:
            return None
        growth = (pending + dropped_gone) - (start_pending + start_dg)
        if growth < self.min_backlog_growth:
            # Φ stalled but the flow did not blow up — plausibly a healthy
            # equilibrium. Slide the window forward.
            self._start = (engine.step_count, phi, pending, dropped_gone, churn)
            self._samples = 1
            return None
        return (
            f"potential stalled at {phi} while undrained flow grew by "
            f"{growth} messages ({pending - start_pending} backlogged, "
            f"{dropped_gone - start_dg} dropped at gone processes)",
            engine.step_count - start_step,
            start_phi,
            start_pending,
            start_dg,
        )


class NoProgressWatchdog(Watchdog):
    """Trips when the engine's observable fingerprint is frozen.

    The fingerprint is ``(Φ, pending, edges, gone, asleep)`` plus the
    cumulative lifecycle-transition count. If every sample in a window
    is bit-identical *and* no exit/sleep/wake happened across it, the
    run is cycling through states indistinguishable to every observer —
    deadlock in all but name. ``check_every`` defaults to a prime (37)
    so the sampler cannot resonate with small periodic schedules (a
    period-2 oscillation sampled every 2 steps looks frozen; sampled
    every 37 it still does — but a period-37-divisible one cannot hide
    from a window of identical *lifecycle* counters too).
    """

    kind = "no_progress"

    def __init__(
        self,
        *,
        check_every: int = 37,
        window: int = 256,
        raise_on_trip: bool = True,
    ) -> None:
        super().__init__(check_every=check_every, raise_on_trip=raise_on_trip)
        if window < 2:
            raise ConfigurationError("window must be >= 2 samples")
        self.window = int(window)
        self._ref: tuple[int, ...] | None = None
        self._ref_step = 0
        self._streak = 0

    def rebase(self, engine: Engine | None = None) -> None:
        self._ref = None
        self._streak = 0

    def config(self) -> dict:
        return {
            "watchdog": self.kind,
            "check_every": self.check_every,
            "window": self.window,
        }

    def _fingerprint(self, engine: Engine) -> tuple[int, ...]:
        stats = engine.stats
        return (
            engine.potential(),
            engine.pending_count,
            engine.edge_count,
            engine.gone_count,
            engine.asleep_count,
            stats.exits + stats.sleeps + stats.wakes,
            # Open-system runs change the population between steps; an
            # admission or a reap is progress even when every counter
            # above happens to return to its old value. (The population
            # size, from O(1) counters: no deferred export.)
            engine.alive_count + engine.gone_count,
            engine.admitted_count + engine.reaped_count,
            # A send dropped at a gone process is observable flow (the
            # livelock watchdog's axis) — a frozen fingerprint must mean
            # frozen *everything*, so the drop counter participates too.
            stats.dropped_gone,
        )

    def _check(self, engine: Engine) -> tuple[str, int, int, int, int] | None:
        cur = self._fingerprint(engine)
        if cur != self._ref:
            self._ref = cur
            self._ref_step = engine.step_count
            self._streak = 1
            return None
        self._streak += 1
        if self._streak < self.window:
            return None
        return (
            f"state fingerprint frozen for {self._streak} consecutive "
            f"samples with zero lifecycle transitions",
            engine.step_count - self._ref_step,
            cur[0],
            cur[1],
            engine.stats.dropped_gone,
        )


class BacklogWatchdog(Watchdog):
    """Trips when total pending messages exceed a hard bound.

    The memory guard: a livelock that floods channels will OOM the host
    long before a generous step budget runs out. Pure O(1) counter
    comparison; the bound should sit far above any healthy scenario's
    peak (admissible initial states have finitely many messages, and
    Lemma 3 runs drain them).

    Once its window is open, :meth:`next_wakeup` names the first
    multiple of ``check_every`` at which the backlog *could* exceed the
    bound, from the engine's :meth:`~repro.sim.engine.Engine.backlog_horizon`
    at the moment the engine asks; a run on the core then passes the
    multiples before it without a call. Each of them would have passed
    the check, so it still counts in :attr:`checks`, and the trip step
    and diagnosis are those of a call at every multiple. An engine that
    cannot bound its sends gets every multiple.

    It watches one engine at a time, the one of its last call: called
    by another, it starts following that one with a new window, and it
    derives wakeups only when asked at the step count of the engine it
    follows (the engine's horizon bounds its sends). Each
    call settles the count, so taken off after one it counts no
    further multiples.
    """

    kind = "backlog"

    def __init__(
        self,
        *,
        check_every: int = 8,
        max_pending: int = 250_000,
        raise_on_trip: bool = True,
    ) -> None:
        super().__init__(check_every=check_every, raise_on_trip=raise_on_trip)
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        self.max_pending = int(max_pending)
        self._floor: tuple[int, int] | None = None  # (step, pending) at window open
        #: the step count of the last ask by that engine whose core
        #: batch no call has settled yet: the multiples after it were
        #: passed without one
        self._asked: int | None = None

    @property
    def checks(self) -> int:
        """Checks made, with the multiples a core batch passed without a
        call. The multiple the engine stands at is not among them: the
        monitor call there, made or cut short by an earlier monitor
        raising, decides it, as on the object loop."""
        engine = self._engine
        if engine is None:
            return self._checks
        return self._checks + self._passed(engine.step_count)

    def _passed(self, step: int) -> int:
        """How many multiples of ``check_every`` lie strictly between the
        last unsettled ask and *step*: none once latched."""
        asked = self._asked
        if asked is None or self.tripped is not None or step <= asked:
            return 0
        every = self.check_every
        return (step - 1) // every - asked // every

    def _settle(self) -> None:
        """Count the multiples the last core batch passed without a call."""
        self._checks = self.checks
        self._asked = None

    def __call__(self, engine: Engine, executed: ExecutedStep | None) -> None:
        if self._asked is not None:
            self._settle()  # on the engine it followed until now
        super().__call__(engine, executed)

    def next_wakeup(self, step: int) -> int | None:
        """The first multiple of ``check_every`` after *step* at which
        the backlog could exceed ``max_pending``; the next multiple
        while the window is not open, when the engine it follows is not
        at *step*, or when that engine cannot bound its sends; ``None``
        once latched.

        The engine asks at the start of each core batch: the ask
        settles the batch before it (whose closing call stopped short of
        this watchdog when an earlier monitor raised) and opens the next.
        """
        self._settle()
        wake = super().next_wakeup(step)
        engine = self._engine
        if engine is None or engine.step_count != step:
            return wake  # not asked by the engine it follows
        self._asked = step
        if wake is None or self._floor is None:
            return wake
        horizon = engine.backlog_horizon(self.max_pending)
        if horizon is None:
            return wake
        every = self.check_every
        return max(wake, -(-(step + horizon + 1) // every) * every)

    def rebase(self, engine: Engine | None = None) -> None:
        self._floor = None

    def config(self) -> dict:
        return {
            "watchdog": self.kind,
            "check_every": self.check_every,
            "max_pending": self.max_pending,
        }

    def _check(self, engine: Engine) -> tuple[str, int, int, int, int] | None:
        pending = engine.pending_count
        if self._floor is None:
            self._floor = (engine.step_count, pending)
        if pending <= self.max_pending:
            return None
        start_step, start_pending = self._floor
        return (
            f"channel backlog {pending} exceeded the bound "
            f"{self.max_pending}",
            engine.step_count - start_step,
            engine.potential(),
            start_pending,
            engine.stats.dropped_gone,
        )


class RetransmitStormWatchdog(Watchdog):
    """Trips when the transport retransmits far faster than it delivers.

    A retransmit storm is the transport-layer livelock shape: the
    retransmit counter races ahead while frame deliveries stall —
    a partition that never heals, a pathological backoff configuration
    (``backoff=1.0`` hammering a lossy link), or an underlay burst
    whose loss rate the ack path cannot survive. The check reads only
    the O(1) ``engine.net_stats`` counters; on an engine without a
    transport it never trips.

    Over each window (``window`` samples × ``check_every`` steps) the
    watchdog trips when retransmit growth is at least
    ``min_retransmits`` *and* exceeds ``ratio ×`` the frame-delivery
    growth over the same window. The conjunction keeps healthy lossy
    runs out: at 10% loss retransmits grow at ~1/9 the delivery rate,
    two orders below the default ratio.
    """

    kind = "retransmit_storm"

    def __init__(
        self,
        *,
        check_every: int = 64,
        window: int = 16,
        min_retransmits: int = 256,
        ratio: float = 8.0,
        raise_on_trip: bool = True,
    ) -> None:
        super().__init__(check_every=check_every, raise_on_trip=raise_on_trip)
        if window < 2:
            raise ConfigurationError("window must be >= 2 samples")
        if min_retransmits < 1:
            raise ConfigurationError("min_retransmits must be >= 1")
        if ratio <= 0:
            raise ConfigurationError("ratio must be > 0")
        self.window = int(window)
        self.min_retransmits = int(min_retransmits)
        self.ratio = float(ratio)
        #: (step, retransmits, delivered, phi, pending, dropped_gone)
        self._start: tuple[int, int, int, int, int, int] | None = None
        self._samples = 0

    def rebase(self, engine: Engine | None = None) -> None:
        self._start = None
        self._samples = 0

    def config(self) -> dict:
        return {
            "watchdog": self.kind,
            "check_every": self.check_every,
            "window": self.window,
            "min_retransmits": self.min_retransmits,
            "ratio": self.ratio,
        }

    def _check(self, engine: Engine) -> tuple[str, int, int, int, int] | None:
        net_stats = getattr(engine, "net_stats", None)
        if net_stats is None:
            return None
        if self._start is None:
            self._start = (
                engine.step_count,
                net_stats.retransmits,
                net_stats.delivered,
                engine.potential(),
                engine.pending_count,
                engine.stats.dropped_gone,
            )
            self._samples = 1
            return None
        self._samples += 1
        if self._samples < self.window:
            return None
        start_step, start_rtx, start_dlv, phi0, pending0, dg0 = self._start
        rtx_growth = net_stats.retransmits - start_rtx
        dlv_growth = net_stats.delivered - start_dlv
        if (
            rtx_growth < self.min_retransmits
            or rtx_growth <= self.ratio * max(1, dlv_growth)
        ):
            # Healthy window (possibly lossy but draining): slide forward.
            self._start = (
                engine.step_count,
                net_stats.retransmits,
                net_stats.delivered,
                engine.potential(),
                engine.pending_count,
                engine.stats.dropped_gone,
            )
            self._samples = 1
            return None
        return (
            f"retransmit storm: {rtx_growth} retransmits against "
            f"{dlv_growth} frame deliveries over the window "
            f"(ratio bound {self.ratio})",
            engine.step_count - start_step,
            phi0,
            pending0,
            dg0,
        )


#: kind → class, for capsule round-tripping.
WATCHDOG_KINDS: dict[str, type[Watchdog]] = {
    cls.kind: cls  # type: ignore[misc]
    for cls in (
        LivelockWatchdog,
        NoProgressWatchdog,
        BacklogWatchdog,
        RetransmitStormWatchdog,
    )
}


def watchdog_from_config(config: dict) -> Watchdog:
    """Rebuild a watchdog from its :meth:`Watchdog.config` dict."""
    params = dict(config)
    kind = params.pop("watchdog", None)
    cls = WATCHDOG_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown watchdog kind {kind!r}")
    return cls(**params)


def default_watchdogs(*, raise_on_trip: bool = True) -> tuple[Watchdog, ...]:
    """The standard supervisor set: livelock + no-progress + backlog."""
    return (
        LivelockWatchdog(raise_on_trip=raise_on_trip),
        NoProgressWatchdog(raise_on_trip=raise_on_trip),
        BacklogWatchdog(raise_on_trip=raise_on_trip),
    )
