"""Record-and-replay of executions: deterministic re-runs of any schedule.

Self-stabilization bugs are schedule-dependent: a violation found under a
randomized scheduler is worthless if it cannot be re-examined. This
module makes any execution reproducible *by value* rather than by seed:

* :class:`ScheduleRecorder` — an engine tracer hook that captures the
  executed event sequence (timeout pid / delivery pid+seq);
* :class:`ReplayScheduler` — a scheduler that re-issues exactly a
  recorded sequence against a freshly built identical initial state,
  failing loudly if the replay diverges (which would indicate
  nondeterminism in protocol code — forbidden by the model);
* :func:`replay_run` — convenience: rebuild via a builder callable and
  re-execute a recording.

Because message sequence numbers are assigned deterministically from the
engine's clock, an identical initial state plus an identical event
sequence yields a bit-identical run — asserted by the test-suite across
all protocols.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.sim.scheduler import DeliverEvent, Scheduler, TimeoutEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = ["RecordedEvent", "ScheduleRecorder", "ReplayScheduler", "replay_run"]


@dataclass(frozen=True)
class RecordedEvent:
    """One executed event, in replayable form."""

    kind: str  # "timeout" | "deliver"
    pid: int
    seq: int | None = None

    @classmethod
    def from_step(cls, step: ExecutedStep) -> RecordedEvent:
        return cls(kind=step.kind, pid=step.pid, seq=step.seq)


class ScheduleRecorder:
    """Engine tracer capturing the executed schedule.

    Install as ``Engine(..., tracer=recorder)`` (or chain from another
    tracer by calling :meth:`record` yourself).
    """

    def __init__(self) -> None:
        self.events: list[RecordedEvent] = []

    def record(self, engine: Engine, executed: ExecutedStep) -> None:
        self.events.append(RecordedEvent.from_step(executed))

    def __len__(self) -> int:
        return len(self.events)


class ReplayScheduler(Scheduler):
    """Re-issues a recorded event sequence verbatim.

    Every event is validated against the live engine state before being
    issued: the process must be awake (timeouts) or the message present
    (deliveries). A mismatch raises
    :class:`~repro.errors.ConfigurationError` — the initial state being
    replayed against differs from the recorded one, or protocol code is
    nondeterministic.
    """

    #: the struct-of-arrays core replays through ``EngineCore._replay_select``,
    #: which checks the validation below against the core's own columns.
    core_drivable = True

    def __init__(self, events: Iterable[RecordedEvent]) -> None:
        self._events = list(events)
        self._cursor = 0

    @property
    def remaining(self) -> int:
        return len(self._events) - self._cursor

    # replay needs no notifications — the transcript is the truth
    def attach(self, engine: Engine) -> None:  # noqa: D102
        return

    def notify_send(self, pid: int, seq: int) -> None:  # noqa: D102
        return

    def notify_wake(self, pid: int, stamp: int) -> None:  # noqa: D102
        return

    def notify_sleep(self, pid: int) -> None:  # noqa: D102
        return

    def notify_gone(self, pid: int, pending_seqs) -> None:  # noqa: D102
        return

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:  # noqa: D102
        return

    def select(self, engine: Engine):
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._cursor += 1
        if event.kind == "timeout":
            proc = engine.processes.get(event.pid)
            if proc is None or proc.state.value != "awake":
                raise ConfigurationError(
                    f"replay diverged at #{self._cursor}: timeout for "
                    f"non-awake process {event.pid}"
                )
            return TimeoutEvent(event.pid)
        if event.kind == "deliver":
            assert event.seq is not None
            if (
                event.pid not in engine.channels
                or event.seq not in engine.channels[event.pid]
            ):
                raise ConfigurationError(
                    f"replay diverged at #{self._cursor}: message "
                    f"{event.seq} not pending at process {event.pid}"
                )
            return DeliverEvent(event.pid, event.seq)
        raise ConfigurationError(f"unknown recorded event kind {event.kind!r}")


def replay_run(
    build: Callable[[], "Engine"],
    events: Sequence[RecordedEvent],
) -> Engine:
    """Rebuild the initial state via *build* and re-execute *events*.

    *build* must reconstruct the exact initial state of the recorded run
    (same processes, same planted messages, in the same order — builders
    keyed by seed satisfy this). Returns the engine after the replay.
    """

    engine = build()
    engine.scheduler = ReplayScheduler(events)
    engine.run(len(events), until=None)
    return engine


def shortest_failing_prefix(
    build: Callable[[], "Engine"],
    events: Sequence[RecordedEvent],
    failed: Callable[["Engine"], bool],
) -> int:
    """Binary-search the shortest schedule prefix after which *failed* holds.

    The debugging workflow for schedule-dependent bugs: record a run that
    ends in a bad state, then localize the *first* step that produced it.
    Requires the failure to be monotone along this schedule (once bad,
    stays bad) — true for the usual suspects (disconnection of a given
    pair, a specific unsafe exit, Φ above a bound), since replaying a
    longer prefix only appends events. Returns the prefix length (0 if
    the initial state already fails); raises ``ValueError`` if even the
    full schedule does not fail.
    """

    if failed(replay_run(build, events[:0])):
        return 0
    if not failed(replay_run(build, events)):
        raise ValueError("the full schedule does not produce the failure")
    lo, hi = 0, len(events)  # invariant: prefix lo passes, prefix hi fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if failed(replay_run(build, events[:mid])):
            hi = mid
        else:
            lo = mid
    return hi
