"""Weakly-fair schedulers: who acts next in an asynchronous computation.

A computation in the paper's model is an infinite fair sequence of states,
each obtained by executing one *enabled* action atomically. Two kinds of
events exist:

* ``TimeoutEvent(pid)`` — the timeout action of an awake process (its guard
  is ``true``, so it is enabled whenever the process is awake);
* ``DeliverEvent(pid, seq)`` — processing message ``seq`` from the channel
  of a non-gone process (delivery to an asleep process wakes it).

The model imposes two fairness conditions:

* **weakly fair action execution** — an action enabled in all but finitely
  many states (while its process is awake infinitely often) executes
  infinitely often;
* **fair message receipt** — every message in the channel of a non-gone
  process is eventually processed.

Beyond fairness the model allows *any* interleaving: no bounds on message
delay or process speed, non-FIFO delivery. Self-stabilization must hold
for every fair schedule, so the suite ships several scheduler
implementations spanning the space:

==========================  ====================================================
:class:`RandomScheduler`     uniform choice among enabled events; fair with
                             probability 1; the default for experiments
:class:`OldestFirstScheduler` deterministic, executes the longest-enabled event
                             first; fairness holds by construction; useful for
                             reproducible regression tests
:class:`AdversarialScheduler` newest-first (LIFO) delivery, which keeps stale
                             (possibly invalid) information undelivered as long
                             as the fairness bound ``patience`` permits — a
                             stress schedule for self-stabilization proofs
:class:`SynchronousScheduler` lock-step rounds (deliver everything pending,
                             then run every timeout); provides the *round*
                             complexity measure used by Theorem 1's O(log n)
                             clique-formation argument
==========================  ====================================================

Schedulers are incrementally maintained via engine notifications rather
than rescanning all channels each step — selection is O(1)/O(log m) per
event, which keeps large convergence runs (the E6 sweeps) fast.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from random import Random
from collections.abc import Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "TimeoutEvent",
    "DeliverEvent",
    "Scheduler",
    "RandomScheduler",
    "OldestFirstScheduler",
    "AdversarialScheduler",
    "SynchronousScheduler",
    "PID_BITS",
]

#: Width of the pid field in a packed :class:`RandomScheduler` pool entry.
#: The engine rejects pids outside ``[0, 2**PID_BITS)``, so a timeout entry
#: (the pid) is always below a delivery entry (``(seq + 1) << PID_BITS``).
PID_BITS = 32
PID_MASK = (1 << PID_BITS) - 1


@dataclass(frozen=True, slots=True)
class TimeoutEvent:
    """Execute the timeout action of process *pid*."""

    pid: int


@dataclass(frozen=True, slots=True)
class DeliverEvent:
    """Process message *seq* pending in the channel of process *pid*."""

    pid: int
    seq: int


Event = TimeoutEvent | DeliverEvent


class Scheduler:
    """Base class: event bookkeeping hooks called by the engine.

    Subclasses implement :meth:`select`. The notification methods keep the
    scheduler's view of enabled events current; the engine guarantees it
    calls them for every relevant state change (message posted, process
    woken/slept/gone, timeout executed).
    """

    #: True for schedulers the struct-of-arrays core (``engine_mode="soa"``)
    #: can drive from its int-domain step loop: their :meth:`select` is a
    #: pure function of the notification stream (plus internal RNG) and
    #: never reads engine state. The replay scheduler qualifies too: the
    #: core re-checks its validation against its own columns. Schedulers
    #: that inspect ``engine.processes``/``engine.channels`` in ``select``
    #: (synchronous rounds) keep the engine on the object path, and
    #: ``Engine.core_status`` names them as the reason.
    core_drivable: bool = False

    def attach(self, engine: Engine) -> None:
        """Register the initial state: awake processes and pending messages."""
        for pid, proc in engine.processes.items():
            if proc.state.value == "awake":
                self.notify_wake(pid, engine.next_stamp())
        for pid, channel in engine.channels.items():
            if engine.processes[pid].state.value != "gone":
                for seq in channel.seqs():
                    self.notify_send(pid, seq)

    # -- hooks ------------------------------------------------------------------

    def notify_send(self, pid: int, seq: int) -> None:
        """A message with sequence *seq* entered the channel of *pid*."""
        raise NotImplementedError

    def notify_wake(self, pid: int, stamp: int) -> None:
        """Process *pid* became awake (its timeout action is now enabled)."""
        raise NotImplementedError

    def notify_sleep(self, pid: int) -> None:
        """Process *pid* went to sleep (timeout disabled; deliveries remain)."""
        raise NotImplementedError

    def notify_gone(self, pid: int, pending_seqs: Iterable[int]) -> None:
        """Process *pid* executed exit; its pending messages are dead."""
        raise NotImplementedError

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:
        """The timeout of *pid* ran; it re-enables with freshness *new_stamp*."""
        raise NotImplementedError

    def select(self, engine: Engine) -> Event | None:
        """Pick the next enabled event, or ``None`` if nothing is enabled."""
        raise NotImplementedError


class RandomScheduler(Scheduler):
    """Uniformly random choice among all enabled events.

    Fair with probability 1 (every enabled event is selected with
    probability ≥ 1/|pool| each step and the pool size is bounded in
    expectation). Seeded, hence reproducible.

    The enabled events form a flat pool of packed ints with a position
    index, giving O(1) insert, O(1) swap-remove and O(1) uniform
    sampling: a timeout entry is the pid itself, a delivery entry is
    ``((seq + 1) << PID_BITS) | pid``. While the struct-of-arrays core
    drives a run it appends to and samples this same pool in place, so
    the order of the entries is part of the schedule.
    """

    core_drivable = True

    def __init__(self, seed: int = 0) -> None:
        self._pool: list[int] = []
        self._pos: dict[int, int] = {}
        self._rng = Random(seed)

    def _add(self, entry: int) -> None:
        if entry in self._pos:
            return
        self._pos[entry] = len(self._pool)
        self._pool.append(entry)

    def _remove(self, entry: int) -> None:
        idx = self._pos.pop(entry, None)
        if idx is None:
            return
        last = self._pool.pop()
        if last != entry:
            self._pool[idx] = last
            self._pos[last] = idx

    def __len__(self) -> int:
        return len(self._pool)

    def notify_send(self, pid: int, seq: int) -> None:
        self._add(((seq + 1) << PID_BITS) | pid)

    def notify_wake(self, pid: int, stamp: int) -> None:
        self._add(pid)

    def notify_sleep(self, pid: int) -> None:
        self._remove(pid)

    def notify_gone(self, pid: int, pending_seqs: Iterable[int]) -> None:
        self._remove(pid)
        for seq in pending_seqs:
            self._remove(((seq + 1) << PID_BITS) | pid)

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:
        # A timeout stays enabled in place; uniform choice needs no age.
        return

    def select(self, engine: Engine) -> Event | None:
        if not self._pool:
            return None
        entry = self._pool[self._rng.randrange(len(self._pool))]
        if entry <= PID_MASK:
            return TimeoutEvent(entry)
        self._remove(entry)
        return DeliverEvent(entry & PID_MASK, (entry >> PID_BITS) - 1)


class OldestFirstScheduler(Scheduler):
    """Deterministic: always execute the event that has waited longest.

    Every event carries a *stamp* drawn from the engine's global counter
    (messages use their sequence number; a timeout is re-stamped each time
    it executes). Selecting the minimum stamp yields a deterministic,
    provably fair schedule: an event enabled at stamp ``s`` executes after
    at most as many steps as there are smaller stamps.
    """

    core_drivable = True

    def __init__(self) -> None:
        self._heap: list[tuple[int, tuple]] = []
        self._live: set[tuple] = set()
        self._timeout_stamp: dict[int, int] = {}
        # One scheduler-local clock for BOTH event kinds: a re-armed
        # timeout is stamped after every message already pending, so the
        # backlog drains before the timeout re-fires (mixing engine
        # message seqs with engine stamps skews this and lets channels
        # grow without bound).
        self._arrival = 0

    def _next_arrival(self) -> int:
        value = self._arrival
        self._arrival = value + 1
        return value

    def notify_send(self, pid: int, seq: int) -> None:
        entry = ("d", pid, seq)
        self._live.add(entry)
        heapq.heappush(self._heap, (self._next_arrival(), entry))

    def notify_wake(self, pid: int, stamp: int) -> None:
        entry = ("t", pid)
        if entry in self._live:
            return
        self._live.add(entry)
        stamp = self._next_arrival()
        self._timeout_stamp[pid] = stamp
        heapq.heappush(self._heap, (stamp, entry))

    def notify_sleep(self, pid: int) -> None:
        self._live.discard(("t", pid))

    def notify_gone(self, pid: int, pending_seqs: Iterable[int]) -> None:
        self._live.discard(("t", pid))
        for seq in pending_seqs:
            self._live.discard(("d", pid, seq))

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:
        entry = ("t", pid)
        if entry in self._live:
            stamp = self._next_arrival()
            self._timeout_stamp[pid] = stamp
            heapq.heappush(self._heap, (stamp, entry))

    def select(self, engine: Engine) -> Event | None:
        while self._heap:
            stamp, entry = heapq.heappop(self._heap)
            if entry not in self._live:
                continue
            if entry[0] == "t":
                # Stale heap copies of a re-stamped timeout are skipped.
                if self._timeout_stamp.get(entry[1]) != stamp:
                    continue
                return TimeoutEvent(entry[1])
            self._live.discard(entry)
            return DeliverEvent(entry[1], entry[2])
        return None


class AdversarialScheduler(Scheduler):
    """Newest-first schedule bounded by a fairness *patience*.

    Prefers the most recently enabled event (LIFO), which maximizes the
    time stale information — in particular invalid mode beliefs planted by
    the fault injector — lingers undelivered. To remain a fair schedule,
    any event older than ``patience`` executed steps is forced next. With
    probability ``jitter`` a uniformly random event is chosen instead,
    which prevents pathological livelocks while keeping the schedule
    hostile.

    Entries are tuples, ``("t", pid)`` or ``("d", pid, seq)``: the age
    heap breaks ties between equal ages by comparing them.
    """

    core_drivable = True

    def __init__(self, patience: int = 64, seed: int = 0, jitter: float = 0.1) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self._pool: list[tuple] = []
        self._pos: dict[tuple, int] = {}
        self._stamp: dict[tuple, int] = {}
        # Scheduler-local arrival clock. Ordering-sensitive schedulers must
        # NOT mix engine message seqs with engine scheduler stamps: the two
        # counters advance at different rates (one per post vs one per
        # executed event), which skews newest/oldest comparisons — measured
        # as an unbounded channel backlog under oldest-first scheduling.
        self._arrival = 0
        self._patience = patience
        self._rng = Random(seed)
        self._jitter = jitter
        self._age_heap: list[tuple[int, tuple]] = []
        self._steps = 0

    def _next_arrival(self) -> int:
        value = self._arrival
        self._arrival = value + 1
        return value

    def _add(self, entry: tuple, stamp: int) -> None:
        if entry in self._pos:
            return
        self._pos[entry] = len(self._pool)
        self._pool.append(entry)
        self._stamp[entry] = stamp
        heapq.heappush(self._age_heap, (self._steps, entry))

    def _remove(self, entry: tuple) -> None:
        idx = self._pos.pop(entry, None)
        if idx is None:
            return
        last = self._pool.pop()
        if last != entry:
            self._pool[idx] = last
            self._pos[last] = idx
        self._stamp.pop(entry, None)

    def __len__(self) -> int:
        return len(self._pool)

    def notify_send(self, pid: int, seq: int) -> None:
        self._add(("d", pid, seq), self._next_arrival())

    def notify_wake(self, pid: int, stamp: int) -> None:
        self._add(("t", pid), self._next_arrival())

    def notify_sleep(self, pid: int) -> None:
        self._remove(("t", pid))

    def notify_gone(self, pid: int, pending_seqs: Iterable[int]) -> None:
        self._remove(("t", pid))
        for seq in pending_seqs:
            self._remove(("d", pid, seq))

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:
        entry = ("t", pid)
        if entry in self._pos:
            self._stamp[entry] = self._next_arrival()

    def _consume(self, entry: tuple) -> Event:
        if entry[0] == "t":
            return TimeoutEvent(entry[1])
        self._remove(entry)
        return DeliverEvent(entry[1], entry[2])

    def select(self, engine: Engine) -> Event | None:
        if not self._pool:
            return None
        self._steps += 1
        # Fairness bound: force the oldest event if it exceeded patience.
        while self._age_heap:
            born, entry = self._age_heap[0]
            if entry not in self._pos:
                heapq.heappop(self._age_heap)
                continue
            if self._steps - born >= self._patience:
                heapq.heappop(self._age_heap)
                if entry[0] == "t":
                    # Timeouts stay enabled: re-enter the age heap as fresh.
                    heapq.heappush(self._age_heap, (self._steps, entry))
                return self._consume(entry)
            break
        if self._rng.random() < self._jitter:
            entry = self._pool[self._rng.randrange(len(self._pool))]
        else:
            # Newest enabled event = maximum stamp.
            entry = max(self._pool, key=self._stamp.__getitem__)
        return self._consume(entry)


class SynchronousScheduler(Scheduler):
    """Lock-step rounds: deliver everything pending, then run every timeout.

    In round ``r`` the scheduler first delivers (in a seeded random order)
    every message that was pending at the start of the round, then executes
    the timeout action of every process that is awake when its turn comes.
    Messages sent during round ``r`` are delivered in round ``r+1``. The
    :attr:`round_count` is the time measure for round-complexity
    experiments (Theorem 1's O(log n) clique formation, E3).
    """

    def __init__(self, seed: int = 0, timeouts_first: bool = False) -> None:
        self._rng = Random(seed)
        self._queue: list[tuple] = []
        self._round = 0
        self._timeouts_first = timeouts_first

    @property
    def round_count(self) -> int:
        """Number of completed rounds."""
        return self._round

    # Round rebuilding makes incremental notifications unnecessary.
    def attach(self, engine: Engine) -> None:  # noqa: D102
        return

    def notify_send(self, pid: int, seq: int) -> None:  # noqa: D102
        return

    def notify_wake(self, pid: int, stamp: int) -> None:  # noqa: D102
        return

    def notify_sleep(self, pid: int) -> None:  # noqa: D102
        return

    def notify_gone(self, pid: int, pending_seqs: Iterable[int]) -> None:  # noqa: D102
        return

    def notify_timeout_executed(self, pid: int, new_stamp: int) -> None:  # noqa: D102
        return

    def _build_round(self, engine: Engine) -> None:
        deliveries: list[tuple] = []
        timeouts: list[tuple] = []
        for pid, proc in engine.processes.items():
            state = proc.state.value
            if state == "gone":
                continue
            deliveries.extend(("d", pid, seq) for seq in engine.channels[pid].seqs())
            if state == "awake":
                timeouts.append(("t", pid))
        self._rng.shuffle(deliveries)
        self._rng.shuffle(timeouts)
        phases = (timeouts, deliveries) if self._timeouts_first else (deliveries, timeouts)
        # The queue is consumed from the back; reverse so phase order holds.
        self._queue = [*phases[1], *phases[0]][::-1]
        self._round += 1

    def select(self, engine: Engine) -> Event | None:
        for _ in range(2):  # at most one rebuild per call
            while self._queue:
                entry = self._queue.pop()
                # A pid scheduled this round may have been reaped since the
                # round was built (open-system churn between computations):
                # a missing process is treated like a gone one.
                if entry[0] == "t":
                    proc = engine.processes.get(entry[1])
                    if proc is not None and proc.state.value == "awake":
                        return TimeoutEvent(entry[1])
                else:
                    _, pid, seq = entry
                    proc = engine.processes.get(pid)
                    if proc is None or proc.state.value == "gone":
                        continue
                    if seq in engine.channels[pid]:
                        return DeliverEvent(pid, seq)
            self._build_round(engine)
            if not self._queue:
                return None
        return None
