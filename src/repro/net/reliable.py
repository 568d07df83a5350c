"""Reliable-delivery transport over the unreliable underlay.

The engine's contract with the paper is that a posted message sits in
the target's channel until delivered, and the reference it carries
counts as an edge of PG for exactly that long. This transport keeps
that contract under loss, duplication, delay and transient partitions
by the classic end-to-end recipe:

* the paper-level :class:`~repro.sim.messages.Message` enters the
  channel at post time and **never leaves it because of a fault** —
  only an actual engine delivery removes it. Faults act on transport
  *frames* (announcements that the message has become deliverable), so
  ref conservation, LiveGraph, Φ and Lemma 2 are exact by construction;
* each directed channel ``src -> dst`` numbers its frames with a
  transport sequence number (``tseq``), the receiver acknowledges with
  a **cumulative floor** plus an above-floor seen-set (dedup), and the
  sender retransmits unacked frames on an exponential-backoff timer
  with seeded jitter;
* what the underlay faults *actually* delay is the moment the
  scheduler learns the message is deliverable (``notify_send``).
  Recorded schedules stay valid verbatim — a ``ReplayScheduler``
  ignores notifications and only checks channel membership — so a v3
  capsule replays bit-identically whether or not the transport is
  re-attached.

All transport state advances on a virtual clock that normally tracks
``engine.step_count``. When every pending frame is in flight and the
scheduler starves (e.g. an FSP population all asleep while the only
wake-up frame is being retransmitted), :meth:`ReliableTransport.run_dry`
fast-forwards the clock to the next due transport event so the run
cannot falsely quiesce.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.net.underlay import ACK, DATA, RTO, Underlay, UnderlayConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

__all__ = [
    "NetStats",
    "ReliableTransport",
    "default_net_config",
    "journal_digest",
]

#: per-call bound on events a starvation fast-forward may process; keeps
#: a 100%-loss configuration from spinning the retransmit timer forever.
_RUN_DRY_LIMIT = 10_000


@dataclass
class NetStats:
    """O(1) transport counters, published as ``engine.net_stats``.

    ``delivered`` counts data frames that reached the destination
    (first attempts and retransmissions alike); ``dropped`` folds loss
    and partition blocks together; ``deduped`` counts received frames
    discarded as duplicates of an already-arrived ``tseq``.
    """

    sends: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    retransmits: int = 0
    acks: int = 0
    deduped: int = 0
    cancelled_gone: int = 0

    def as_dict(self) -> dict:
        return {
            name: getattr(self, name)
            for name in (
                "sends",
                "delivered",
                "dropped",
                "duplicated",
                "delayed",
                "retransmits",
                "acks",
                "deduped",
                "cancelled_gone",
            )
        }


def default_net_config(
    seed: int = 0,
    *,
    loss: float = 0.1,
    dup: float = 0.1,
    delay: float = 0.1,
    partition_at: int | None = 64,
    partition_for: int = 48,
) -> dict:
    """The documented default fault campaign: 10% loss + dup + delay
    plus one transient partition early in the run."""
    return {
        "underlay": {
            "seed": seed,
            "loss": loss,
            "dup": dup,
            "delay": delay,
            "delay_min": 1,
            "delay_max": 32,
            "partition_at": partition_at,
            "partition_for": partition_for,
        },
        "rto": 24,
        "backoff": 2.0,
        "max_rto": 2_048,
        "jitter": 0.25,
        "journal_cap": 4_096,
    }


def journal_digest(journal: list[dict]) -> str:
    """Canonical digest of a retransmit journal (capsule tamper check)."""
    blob = json.dumps(list(journal), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


class _Flight:
    """One unacked data frame: which paper-message, how many attempts."""

    __slots__ = ("announced", "attempts", "mseq")

    def __init__(self, mseq: int) -> None:
        self.mseq = mseq
        self.attempts = 1
        self.announced = False


class _Rx:
    """Receiver-side dedup state for one directed channel."""

    __slots__ = ("floor", "seen")

    def __init__(self) -> None:
        self.floor = -1
        self.seen: set[int] = set()

    def admit(self, tseq: int) -> bool:
        """Record arrival of ``tseq``; False when it is a duplicate."""
        if tseq <= self.floor or tseq in self.seen:
            return False
        self.seen.add(tseq)
        while self.floor + 1 in self.seen:
            self.floor += 1
            self.seen.remove(self.floor)
        return True


#: a directed channel ``src -> dst`` is the int ``src << _SRC_SHIFT | dst``.
_SRC_SHIFT = 32
_DST_MASK = (1 << _SRC_SHIFT) - 1


class ReliableTransport:
    """Ack/retransmit transport; installed as ``engine.net``.

    The engine (or the struct-of-arrays core, while it drives a run)
    calls :meth:`on_post` instead of ``notify_send`` for protocol posts,
    :meth:`flush` at every step boundary, :meth:`on_gone` when a process
    departs, and :meth:`run_dry` when the scheduler starves. Everything
    else is internal.

    A retransmit timer enters the event heap at its jitter's lower
    bound, under the event id the exact due will have: its jitter (one
    seeded draw) is drawn only when the timer reaches that bound with
    its flight still open, or when a starvation fast-forward must order
    it. Most flights are acked long before, and their timers expire
    without a draw; the events fire in the same ``(due, id)`` order as
    if every due had been drawn at the push (docs/PERF.md "Transport on
    the core").
    """

    def __init__(
        self,
        underlay: Underlay | None = None,
        *,
        rto: int = 24,
        backoff: float = 2.0,
        max_rto: int = 2_048,
        jitter: float = 0.25,
        journal_cap: int = 4_096,
    ) -> None:
        self.underlay = underlay if underlay is not None else Underlay()
        self.rto = rto
        self.backoff = backoff
        self.max_rto = max_rto
        self.jitter = jitter
        self.journal_cap = journal_cap
        self.stats = NetStats()
        self.journal: deque[dict] = deque(maxlen=journal_cap)
        self.engine: Engine | None = None
        #: the engine's struct-of-arrays core while it drives a run
        #: (``EngineCore.drive``): the state to read instead of objects.
        self.core: Any = None
        self._now = 0
        self._eid = 0
        self._ack_id = 0
        # event heap, ordered by (due, eid); chan = src << 32 | dst:
        #   (due, eid, "d", chan, tseq)   data-frame arrival at dst
        #   (due, eid, "a", chan, floor)  ack arrival at src
        #   (low, eid, "t", chan, tseq, attempt, sent)
        #       retransmit timer at its lower bound; due not drawn yet
        #   (due, eid, "r", chan, tseq, attempt, sent)
        #       retransmit timer at its drawn due
        self._events: list[tuple] = []
        #: timers whose flight closed before their lower bound, while
        #: their due may still lie ahead: (upper bound, eid, chan, tseq,
        #: attempt, sent). A fast-forward draws their dues (it counts
        #: them as events); past the upper bound they are forgotten.
        self._expired: list[tuple[int, int, int, int, int, int]] = []
        #: attempt -> the (least, greatest) timeout any draw gives it
        self._bounds: dict[int, tuple[int, int]] = {}
        self._next_tseq: dict[int, int] = {}
        self._flights: dict[int, dict[int, _Flight]] = {}
        #: dst -> the channels into it, in order of their first frame
        self._into: dict[int, list[int]] = {}
        self._rx: dict[int, _Rx] = {}

    # ------------------------------------------------------------ config i/o

    def config(self) -> dict:
        return {
            "underlay": self.underlay.config.as_dict(),
            "rto": self.rto,
            "backoff": self.backoff,
            "max_rto": self.max_rto,
            "jitter": self.jitter,
            "journal_cap": self.journal_cap,
        }

    @classmethod
    def from_config(cls, config: dict) -> ReliableTransport:
        data = dict(config)
        underlay = Underlay(UnderlayConfig.from_dict(data.pop("underlay")))
        return cls(underlay, **data)

    def install(self, engine: Engine) -> ReliableTransport:
        """Attach to ``engine`` (must happen before the run starts)."""
        engine.net = self
        engine.net_stats = self.stats
        self.engine = engine
        return self

    # ------------------------------------------------------------- internals

    def _log(self, ev: str, src: int, dst: int, tseq: int, attempt: int) -> None:
        self.journal.append(
            {"at": self._now, "ev": ev, "src": src, "dst": dst,
             "tseq": tseq, "attempt": attempt}
        )

    def _base(self, attempt: int) -> float:
        """The un-jittered timeout of *attempt*: exponential, capped."""
        try:
            grown = self.rto * self.backoff ** (attempt - 1)
        except OverflowError:  # past the float range, hence past the cap
            return self.max_rto
        return min(grown, self.max_rto)

    def _rto_after(self, src: int, dst: int, tseq: int, attempt: int) -> int:
        base = self._base(attempt)
        uniform = (self.underlay.words(RTO, src, dst, tseq, attempt)[0] >> 11) * 2.0**-53
        factor = 1.0 + self.jitter * (2.0 * uniform - 1.0)
        return max(1, int(base * factor))

    def _rto_bounds(self, attempt: int) -> tuple[int, int]:
        """The least and the greatest :meth:`_rto_after` of *attempt*
        over every jitter draw: the jitter factor lies in ``[1 - |j|,
        1 + |j|]``, and every operation after the draw is monotone."""
        bounds = self._bounds.get(attempt)
        if bounds is None:
            base = self._base(attempt)
            spread = abs(self.jitter)
            bounds = self._bounds[attempt] = (
                max(1, int(base * (1.0 - spread))),
                max(1, int(base * (1.0 + spread))),
            )
        return bounds

    def _arm(self, chan: int, tseq: int, attempt: int) -> None:
        """Push the retransmit timer of *attempt* at its lower bound."""
        self._eid += 1
        now = self._now
        heapq.heappush(
            self._events,
            (now + self._rto_bounds(attempt)[0], self._eid, "t",
             chan, tseq, attempt, now),
        )

    def _drawn(self, timer: tuple) -> tuple:
        """A lower-bound timer re-keyed at its drawn due."""
        _low, eid, _kind, chan, tseq, attempt, sent = timer
        due = sent + self._rto_after(chan >> _SRC_SHIFT, chan & _DST_MASK, tseq, attempt)
        return (due, eid, "r", chan, tseq, attempt, sent)

    def _transmit(self, chan: int, src: int, dst: int, tseq: int, attempt: int) -> None:
        """Roll the fate of one data-frame attempt, schedule arrivals."""
        fate = self.underlay.fate(src, dst, DATA, tseq, attempt, self._now)
        if fate.blocked or fate.dropped:
            self.stats.dropped += 1
            self._log("part" if fate.blocked else "drop", src, dst, tseq, attempt)
            return
        if fate.duplicated:
            self.stats.duplicated += 1
            self._log("dup", src, dst, tseq, attempt)
        if fate.delayed:
            self.stats.delayed += 1
            self._log("delay", src, dst, tseq, attempt)
        events = self._events
        now = self._now
        for offset in fate.arrivals:
            self._eid += 1
            heapq.heappush(events, (now + offset, self._eid, "d", chan, tseq))

    def _send_ack(self, chan: int, src: int, dst: int, tseq: int, floor: int) -> None:
        """Ack travels dst -> src; lossy like any other frame."""
        self.stats.acks += 1
        self._ack_id += 1
        fate = self.underlay.fate(dst, src, ACK, self._ack_id, 0, self._now)
        if fate.blocked or fate.dropped:
            self._log("ack_drop", src, dst, tseq, 0)
            return
        events = self._events
        now = self._now
        for offset in fate.arrivals:
            self._eid += 1
            heapq.heappush(events, (now + offset, self._eid, "a", chan, floor))

    def _announce(self, dst: int, mseq: int) -> bool:
        """Tell the scheduler the message became deliverable.

        Its flight is open, so *dst* has not departed: :meth:`on_gone`
        closes every flight into a departing process, and no flight
        opens into a departed one (a post to it bounces).
        """
        engine = self.engine
        if engine is None:
            return False
        core = self.core
        channel = engine.channels[dst] if core is None else core.ch[core.slot_of[dst]]
        if mseq not in channel:
            return False
        engine.scheduler.notify_send(dst, mseq)
        return True

    # --------------------------------------------------------- event firing

    def _fire(self, event: tuple) -> bool:
        """Process one due event; True when a message was announced."""
        kind = event[2]
        chan = event[3]
        if kind == "d":  # a data frame reaches dst
            tseq = event[4]
            rx = self._rx.get(chan)
            if rx is None:
                rx = self._rx[chan] = _Rx()
            src = chan >> _SRC_SHIFT
            dst = chan & _DST_MASK
            fresh = rx.admit(tseq)
            if fresh:
                self.stats.delivered += 1
            else:
                self.stats.deduped += 1
                self._log("dedup", src, dst, tseq, 0)
            self._send_ack(chan, src, dst, tseq, rx.floor)
            if not fresh:
                return False
            flight = self._flights[chan].get(tseq)
            if flight is not None and not flight.announced:
                flight.announced = True
                return self._announce(dst, flight.mseq)
            return False
        flights = self._flights[chan]
        if kind == "a":  # cumulative ack: the flights are in tseq order
            floor = event[4]
            acked = []
            for tseq in flights:
                if tseq > floor:
                    break
                acked.append(tseq)
            for tseq in acked:
                del flights[tseq]
            return False
        tseq = event[4]
        flight = flights.get(tseq)
        if kind == "t":  # a timer at its lower bound
            if flight is not None:
                heapq.heappush(self._events, self._drawn(event))
            else:
                upper = event[6] + self._rto_bounds(event[5])[1]
                if upper > self._now:
                    _low, eid, _kind, chan, tseq, attempt, sent = event
                    heapq.heappush(self._expired, (upper, eid, chan, tseq, attempt, sent))
            return False
        # kind == "r": a timer at its drawn due
        if flight is None:
            return False  # acked or cancelled in the meantime
        src = chan >> _SRC_SHIFT
        dst = chan & _DST_MASK
        flight.attempts += 1
        self.stats.retransmits += 1
        self._log("rtx", src, dst, tseq, flight.attempts)
        self._transmit(chan, src, dst, tseq, flight.attempts)
        self._arm(chan, tseq, flight.attempts)
        return False

    # ------------------------------------------------------------ engine API

    def on_post(self, sender: int, dst: int, mseq: int) -> None:
        """Protocol post ``sender -> dst`` of the message with seq
        *mseq*: open a flight for its frame."""
        chan = sender << _SRC_SHIFT | dst
        tseq = self._next_tseq.get(chan)
        if tseq is None:
            tseq = 0
            self._flights[chan] = {}
            into = self._into.get(dst)
            if into is None:
                self._into[dst] = [chan]
            else:
                into.append(chan)
        self._next_tseq[chan] = tseq + 1
        self._flights[chan][tseq] = _Flight(mseq)
        self.stats.sends += 1
        self._transmit(chan, sender, dst, tseq, 1)
        self._arm(chan, tseq, 1)

    def flush(self, step: int) -> None:
        """Advance the clock to ``step`` and fire every due event."""
        if step > self._now:
            self._now = step
        now = self._now
        events = self._events
        fire = self._fire
        while events and events[0][0] <= now:
            fire(heapq.heappop(events))
        expired = self._expired
        while expired and expired[0][0] <= now:
            heapq.heappop(expired)  # its due passed in the flushes so far

    def on_gone(self, pid: int) -> None:
        """Cancel in-flight frames to a departed process."""
        flights_of = self._flights
        for chan in self._into.get(pid, ()):
            flights = flights_of[chan]
            if not flights:
                continue
            src = chan >> _SRC_SHIFT
            for tseq, flight in flights.items():
                self.stats.cancelled_gone += 1
                self._log("cancel", src, pid, tseq, flight.attempts)
            flights.clear()

    def run_dry(self) -> bool:
        """Fast-forward to due transport events while the scheduler starves.

        Pops events in virtual-time order — advancing the clock past
        step_count, so delayed frames arrive and partitions heal —
        until an announcement gives the scheduler something to select,
        the heap drains, or the safety cap trips (permanently-lossy
        configurations would otherwise spin the retransmit timer).
        Returns True when at least one message was announced.

        The order needs every timer at its drawn due: a timer still at
        its lower bound is re-keyed when it reaches the top, and the
        expired timers whose due lies ahead go back on the heap, so a
        timer that finds its flight closed still advances the clock and
        counts towards the cap.
        """
        events = self._events
        expired = self._expired
        if expired:
            now = self._now
            for upper, eid, chan, tseq, attempt, sent in expired:
                timer = self._drawn((upper, eid, "t", chan, tseq, attempt, sent))
                if timer[0] > now:
                    heapq.heappush(events, timer)
            expired.clear()
        popped = 0
        while popped < _RUN_DRY_LIMIT:
            if not events:
                return False
            if events[0][2] == "t":
                heapq.heapreplace(events, self._drawn(events[0]))
                continue
            popped += 1
            due = events[0][0]
            if due > self._now:
                self._now = due
            if self._fire(heapq.heappop(events)):
                return True
        return False
