"""Struct-of-arrays execution core: the engine's int-domain fast path.

:class:`EngineCore` holds the *entire* mutable simulation state of an
eligible run in flat, int-indexed structures — no ``Ref``, ``RefInfo``,
``Message`` or per-process Python objects on the hot path:

* processes live in **slots** ``0..n-1`` (engine pid order); per-slot
  ``bytearray``/``array`` columns carry mode, lifecycle state, the FSP
  flag bits and the per-process statistics counters;
* references are **tagged ints** (:func:`~repro.sim.refs.tag_ref`): the
  low bits index the slot, the high bits a generation bumped when the
  slot's process exits, so a stale tag never equals a live one;
* neighbourhood/anchor/parked stores are per-slot dicts keyed by slot
  index with small-int belief codes, preserving the object model's
  insertion order (drain order ⇒ message seq order ⇒ bit-identity);
* channels are per-slot insertion-ordered ``{seq: record}`` maps whose
  records pack label, belief, subject slot and sender into one int;
* Φ, the edge multiset totals and the pending-message count are running
  counters updated by the same delta rules as
  :class:`~repro.graphs.livegraph.LiveGraph`.

The core runs in two roles selected by ``Engine(engine_mode=...)``:

* ``verify`` — the object engine executes every step and the core
  *mirrors* it (:meth:`mirror_step`), replaying the event through the
  int kernels. After every step it cross-checks every counter of the
  :data:`_COUNTERS` table, the Φ/pending/edge totals and the acting
  process's lifecycle state; a deep structural comparison
  (:meth:`verify_full`) follows at run end. Divergence raises
  :class:`~repro.errors.StateViolation`. The same mode also
  cross-checks the engine's write-through ref log against a
  fingerprint diff after every action.
* ``soa`` — the core *drives* (:meth:`run_batch`): it selects events
  from the engine's own scheduler (:meth:`drive`) and executes kernels.
  After each batch the engine copies back only the counters
  (:meth:`export_counters`); the process stores and channels follow
  (:meth:`export_to`) when something first reads an object; a run
  returns with that export still deferred. The scheduler has one
  state only: the core samples and appends to a
  :class:`~repro.sim.scheduler.RandomScheduler`'s packed-int pool in
  place, and notifies any other scheduler through its public hooks.
  When the engine has a tracer, the kernels also log each step in
  :attr:`EngineCore.step_log`, which the engine hands to the tracer at
  the end of the batch (:meth:`EngineCore.take_steps`).

While the core holds the current state it also answers the engine's
graph queries in the int domain (:meth:`partners` and the hop
distance over :meth:`neighbours`, :meth:`same_component`,
:meth:`state_of`, :meth:`lifecycle_clauses`, :meth:`staying_pids`,
:meth:`pending_count`, and the Φ and edge counters), so neither the
live graph nor the object model is rebuilt just to answer a question.
Hibernation (which needs sleepers' channel and reachability fixpoint)
stays a live-graph query; with no sleeper, :meth:`alive_pids` is the
relevant set. The out-of-band faults a chaos campaign injects are core
operations too: :meth:`post` plants a message and
:meth:`rewrite_belief` flips a stored belief, each with the same
record, tallies and Φ/edge deltas as the object path, and verify mode
applies them to both sides and compares (:meth:`cross_check`).

Every scalar counter that crosses between the engine and the core is
named once, in :data:`_COUNTERS`: construction imports through it, the
export writes through it and verify mode compares through it. A
process's stores enter the int domain through one encoder
(:meth:`EngineCore._encode_stores`) at construction and at admit, and a
slot's out-edges enter and leave the edge multiset through one walk
(:meth:`EngineCore._out_edges`).

Eligibility is checked at construction: homogeneous exact-type
FDP/FSP populations, a kernelizable oracle (``None``/SINGLE/ALWAYS/
NEVER), stores without self-references, and encodable channel
content. Anything else raises :class:`CoreUnsupported` and the engine
falls back to (or stays on) the object path, recording the reason in
``Engine.core_status``.

The kernels below are line-for-line transcriptions of
:class:`~repro.core.fdp.FDPProcess` / :class:`~repro.core.fsp.FSPProcess`
and the engine's post/deliver/transition plumbing; every send, clock
consumption and scheduler notification happens in the exact order of
the object path so that message sequence numbers, RNG draws and dict
iteration orders stay bit-identical between the two cores.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import compress
from math import isqrt
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.errors import (
    ConfigurationError,
    SlotRecycleOverflow,
    StateViolation,
    UnknownActionError,
)
from repro.graphs.connectivity import connecting_path, first_member_labels
from repro.sim.engine import _DRY_TRIES, _TALLY_FIELDS
from repro.sim.messages import Message, RefInfo
from repro.sim.refs import REF_GEN_BITS, REF_SLOT_BITS
from repro.sim.replay import ReplayScheduler
from repro.sim.scheduler import (
    PID_BITS,
    PID_MASK,
    DeliverEvent,
    RandomScheduler,
    Scheduler,
    TimeoutEvent,
)
from repro.sim.states import Mode, PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["EngineCore", "CoreUnsupported"]

# Belief codes: raw piggybacked/stored beliefs. Normalization (the Φ
# convention: an absent belief counts as a staying claim) maps 2 → 0.
_STAYING, _LEAVING, _NONE = 0, 1, 2
# Lifecycle codes, aligned with PState ordering used throughout.
_AWAKE, _ASLEEP, _GONE = 0, 1, 2

#: Steps for which a scan of the store sizes serves the send bound
#: (:meth:`EngineCore.backlog_horizon`) before it is scanned again. A
#: scan reads every slot (38 µs at 1,024 slots), and the backlog
#: watchdog asks at every core batch (2,919 asks per 50k-step
#: ``supervised`` replay, 112 ms of scans); a window of 256 steps takes
#: that to 197 scans while the horizon it serves stays at 465 steps or
#: more, far beyond the 32 to 37 steps between the other monitors'
#: wakeups (docs/PERF.md "Monitors on the core").
_STORE_RESCAN = 256

_MODE_BY_CODE: tuple = (Mode.STAYING, Mode.LEAVING, None)
#: ``bytes.translate`` table of the lifecycle column: 1 unless gone.
_NOT_GONE = bytes(int(code != _GONE) for code in range(256))
_STATE_BY_CODE: tuple = (PState.AWAKE, PState.ASLEEP, PState.GONE)

# Channel record layout: one Python int per pending message.
#   bits 0-7   label id (0=present, 1=forward, >=2 interned others)
#   bits 8-9   raw belief code of the single RefInfo parameter
#   bits 10-31 subject slot + 1 (0 = no reference parameter)
#   bits 32+   sender *pid* + 1 (0 = planted message, sender None).
#              The sender is trace-only metadata keyed by pid, not slot:
#              pids are never reused within a run, so a record survives
#              its sender's slot being reaped and recycled, while a
#              subject slot is always pinned live by the record itself.
# Each field starts where the previous one ends, so the layout partitions
# the word by construction, and the subject field is REF_SLOT_BITS + 1 wide
# so that every slot + 1 fits.
_BEL_SHIFT = 8
_LABEL_MASK = (1 << _BEL_SHIFT) - 1
_SUBJ_SHIFT = _BEL_SHIFT + 2
_SUBJ_MASK = (1 << (REF_SLOT_BITS + 1)) - 1
_SENDER_SHIFT = _SUBJ_SHIFT + REF_SLOT_BITS + 1


def _code(belief: Mode | None) -> int:
    if belief is Mode.STAYING:
        return _STAYING
    if belief is Mode.LEAVING:
        return _LEAVING
    if belief is None:
        return _NONE
    raise CoreUnsupported(f"unencodable belief {belief!r}")


class CoreUnsupported(Exception):
    """This run cannot execute on the struct-of-arrays core.

    Raised during :class:`EngineCore` construction; the engine catches
    it, stays on the object path and records the message in
    ``core_status["reason"]``.
    """


#: Label ids 0.. of the mirrored protocols' remotely callable actions:
#: the packed record's label field, and the index into
#: ``EngineCore._deliver_kernels``. Other labels are interned after them.
_LABELS: tuple[str, ...] = ("present", "forward")

#: Every scalar counter that crosses between the engine and the core,
#: named once as (core attribute, engine attribute); a ``stats.`` prefix
#: names an :class:`~repro.sim.engine.EngineStats` field. Construction
#: imports through this table, :meth:`EngineCore.export_counters` exports
#: through it and verify mode compares through it, so verify mode checks
#: exactly what the export writes.
_COUNTERS: tuple[tuple[str, str], ...] = (
    ("steps", "step_count"),
    ("clock", "_clock"),
    ("next_seq", "_msg_seq"),
    ("stat_steps", "stats.steps"),
    ("timeouts", "stats.timeouts"),
    ("deliveries", "stats.deliveries"),
    ("posted", "stats.messages_posted"),
    ("dropped", "stats.dropped_unknown"),
    ("dropped_gone", "stats.dropped_gone"),
    ("bounced", "stats.bounced"),
    ("exits", "stats.exits"),
    ("sleeps", "stats.sleeps"),
    ("wakes", "stats.wakes"),
    ("oq", "stats.oracle_queries"),
    ("otrue", "stats.oracle_true"),
    ("asleep", "_asleep_count"),
    ("gone", "_gone_count"),
    ("last_progress", "_last_progress_step"),
    ("last_phi_seen", "_last_phi_seen"),
)

#: The per-pid tallies: a per-slot list on the core and a pid → count
#: dict of the same name on :class:`~repro.sim.engine.EngineStats`.
_TALLIES = _TALLY_FIELDS


#: :data:`_COUNTERS` as (core attribute, whether the engine side is a
#: stats field, engine-side attribute), split once.
_ROWS: tuple[tuple[str, bool, str], ...] = tuple(
    (name, path.startswith("stats."), path.rpartition(".")[2]) for name, path in _COUNTERS
)


def _engine_side(engine: Engine) -> Iterator[tuple[str, Any, str]]:
    """(core attribute, engine-side owner, attribute) per
    :data:`_COUNTERS` row."""
    stats = engine.stats
    for name, in_stats, attr in _ROWS:
        yield name, stats if in_stats else engine, attr


def _slot(ref: Any, pid: int, slot_of: dict[int, int], what: str) -> int:
    """Slot of a reference that *pid* holds in store *what*."""
    rpid = ref._pid  # noqa: SLF001
    if rpid == pid:
        # The object path's ctx.send auto-completes beliefs on self
        # references when draining such (corrupted) stores; the kernels
        # do not model that corner.
        raise CoreUnsupported(f"self-reference {what} by pid {pid}")
    v = slot_of.get(rpid)
    if v is None:
        raise CoreUnsupported(f"pid {pid} {what} unknown pid {rpid}")
    return v


# ---------------------------------------------------------------------------
# The core itself.


class EngineCore:
    """Flat-array replica of one engine's simulation state.

    Built from an attached :class:`~repro.sim.engine.Engine`; raises
    :class:`CoreUnsupported` when the population, oracle or channel
    content cannot be kernelized. See the module docstring for the
    layout and the two operating roles.
    """

    __slots__ = (
        "is_fsp",
        "oracle_kind",
        "pids",
        "slot_of",
        "strict",
        "mode_",
        "state_",
        "gen_",
        "anchor_",
        "abelief_",
        "N",
        "parked",
        "averified_",
        "aprobe_",
        "labels",
        "_label_of",
        "_deliver_kernels",
        "ch",
        "in_",
        "free_slots",
        "dead_pins",
        "archived_stats",
        "phi",
        "edge_total",
        "pending",
        "steps",
        "stat_steps",
        "timeouts",
        "deliveries",
        "posted",
        "dropped",
        "dropped_gone",
        "bounced",
        "exits",
        "sleeps",
        "wakes",
        "oq",
        "otrue",
        "timeouts_by",
        "deliveries_by",
        "sent_by",
        "received_by",
        "clock",
        "next_seq",
        "_seq0",
        "_posted0",
        "_pending0",
        "_del0",
        "_drop0",
        "asleep",
        "gone",
        "last_progress",
        "last_phi_seen",
        "last_acted",
        "sched",
        "net",
        "_pool",
        "_pos",
        "step_log",
        "_labels",
        "_cert",
        "_cert_at",
        "_cert_pending",
        "_dirty",
        "_epoch",
        "_store_scan",
        "_next_label",
        "label_checks",
        "label_repairs",
        "label_relabels",
    )

    def __init__(self, engine: Engine) -> None:
        from repro.core.fdp import FDPProcess
        from repro.core.fsp import FSPProcess
        from repro.core.oracles import AlwaysOracle, NeverOracle, SingleOracle

        procs = list(engine.processes.values())
        if not procs:
            raise CoreUnsupported("empty population")
        n = len(procs)
        if n > (1 << REF_SLOT_BITS):
            raise CoreUnsupported(f"population {n} exceeds slot space")
        first = type(procs[0])
        # exact classes only: subclasses are not core-eligible.
        is_fsp = {FDPProcess: False, FSPProcess: True}.get(first)
        if is_fsp is None:
            raise CoreUnsupported(f"non-FDP/FSP population ({first.__name__})")
        self.is_fsp = is_fsp
        cap = engine.capability
        if not (cap.allows_sleep if is_fsp else cap.allows_exit):
            raise CoreUnsupported(
                "FSP population without SLEEP capability"
                if is_fsp
                else "FDP population without EXIT capability"
            )
        if any(type(p) is not first for p in procs):
            raise CoreUnsupported("heterogeneous population")

        oracle = engine._oracle  # noqa: SLF001 - core is an engine internal
        if oracle is None:
            self.oracle_kind: str | None = None
        elif type(oracle) is SingleOracle:
            self.oracle_kind = "single"
        elif type(oracle) is AlwaysOracle:
            self.oracle_kind = "always"
        elif type(oracle) is NeverOracle:
            self.oracle_kind = "never"
        else:
            raise CoreUnsupported(f"unkernelized oracle {oracle!r}")

        self.pids: list[int] = [p.pid for p in procs]
        self.slot_of: dict[int, int] = {pid: i for i, pid in enumerate(self.pids)}
        self.strict = engine.strict

        self.mode_ = bytearray(n)
        self.state_ = bytearray(n)
        self.gen_ = array("I", bytes(4 * n))
        # Plain lists for the slot columns the kernels index every step:
        # list item access reuses the stored int objects, while array()
        # re-boxes a fresh int on every read.
        self.anchor_ = [-1] * n
        self.abelief_ = bytearray([_NONE]) * n
        self.N: list[dict[int, int]] = [dict() for _ in range(n)]
        self.parked: list[dict[int, int]] = [dict() for _ in range(n if is_fsp else 0)]
        self.averified_ = bytearray(n if is_fsp else 0)
        self.aprobe_ = bytearray(n if is_fsp else 0)
        for i, p in enumerate(procs):
            self._fill_slot(i, p, self._encode_stores(p))

        # Channels: per-slot insertion-ordered {seq: packed record}.
        self.labels: list[str] = list(_LABELS)
        self._label_of = {label: i for i, label in enumerate(_LABELS)}
        self._deliver_kernels = (self._present_kernel, self._forward_kernel)
        self.ch: list[dict[int, int]] = [
            {msg.seq: self._encode_msg(msg, self._label_of) for msg in engine.channels[pid]}
            for pid in self.pids
        ]

        # Edge multiset totals + incoming adjacency, built by the LiveGraph
        # scan order (explicit stores first, then channel content; gone
        # sources contribute pending but no edges). Only the *incoming*
        # direction is indexed: the SINGLE oracle reads a process's
        # out-partners straight from its own stores at query time, so the
        # hot path pays one adjacency update per edge delta, not two.
        self.in_: list[dict[int, int]] = [dict() for _ in range(n)]
        #: open-system slot management. ``free_slots`` is the LIFO of
        #: reaped slots available for recycling; ``dead_pins[v]`` counts
        #: references to slot v physically held by *gone* slots (their
        #: stores and channels are outside the edge multiset but still
        #: pin v against reaping); ``archived_stats`` keeps the per-pid
        #: counters of reaped slots so exports stay lossless.
        self.free_slots: list[int] = []
        self.dead_pins: dict[int, int] = {}
        self.archived_stats: dict[str, dict[int, int]] = {name: {} for name in _TALLIES}
        self.phi = 0
        self.edge_total = 0
        self.pending = sum(len(c) for c in self.ch)
        for i in range(n):
            if self.state_[i] == _GONE:
                self._pin_holdings(i, 1)
            else:
                self._out_edges(i, 1)

        # Counters, copied from the engine's current position.
        if engine._lifecycle_stale:  # noqa: SLF001
            engine._recount_lifecycle()  # noqa: SLF001
        for name, owner, attr in _engine_side(engine):
            setattr(self, name, getattr(owner, attr))
        for name in _TALLIES:
            setattr(self, name, self._by_list(getattr(engine.stats, name), n, name))
        # posted/pending bases: both counters move in lockstep with
        # next_seq/deliveries/dropped, so the hot path skips their
        # read-modify-writes and _sync_flow recomputes them on demand.
        self._seq0 = self.next_seq
        self._posted0 = self.posted
        self._pending0 = self.pending
        self._del0 = self.deliveries
        self._drop0 = self.dropped
        #: action cursor: the step index at which each slot last executed
        #: an action (timeout or delivery) — new SoA-only observability.
        self.last_acted = [-1] * n
        #: the engine's scheduler while the core drives (soa mode); None
        #: while mirroring (verify mode). ``_pool``/``_pos`` are its
        #: packed-int pool and position index when it is exactly a
        #: :class:`RandomScheduler`, whose sends the kernels append inline.
        self.sched: Scheduler | None = None
        #: the engine's reliable transport while the core drives a run
        #: over it (:meth:`drive`): protocol sends open its flights
        #: instead of notifying the scheduler, and every step starts
        #: with its flush.
        self.net: Any = None
        self._pool: list[int] | None = None
        self._pos: dict[int, int] | None = None
        #: the steps of the current batch while the engine has a tracer
        #: (see :meth:`drive` and :meth:`take_steps`), else None.
        self.step_log: list[tuple] | None = None
        #: weak-component label per slot, computed on the first
        #: connectivity query and then kept: ``_cert`` is the certificate
        #: of slot pairs that proves it as the relabel listed it, until
        #: the first walk moves it into ``_cert_at`` (slot → the slots it
        #: is paired with); ``_cert_pending`` says a batch ran since it
        #: was last walked, ``_dirty`` holds the slots that lost an
        #: ``in_`` entry or went gone since then (at most one entry per
        #: slot), ``_epoch`` names the labelling and ``_next_label`` is
        #: the next unused label (see :meth:`_component_labels`).
        self._labels: list[int] | None = None
        self._cert: list[tuple[int, int]] | None = []
        self._cert_at: defaultdict[int, list[int]] | None = None
        self._cert_pending = False
        self._dirty: set[int] = set()
        self._epoch: object = None
        self._next_label = 0
        #: (bound, steps): a scan of the store sizes for the send bound
        #: of :meth:`backlog_horizon`, or None until the first ask.
        self._store_scan: tuple[int, int] | None = None
        #: certificate walks, pairs repaired by a search, and full
        #: relabels (the first labelling included).
        self.label_checks = 0
        self.label_repairs = 0
        self.label_relabels = 0

    def _by_list(self, by: dict[int, int], n: int, name: str) -> list[int]:
        arr = [0] * n
        slot_of = self.slot_of
        archive = self.archived_stats[name]
        for pid, count in by.items():
            slot = slot_of.get(pid)
            if slot is None:
                # Reaped (or otherwise departed) pids keep their history
                # in the archive; exports merge it back.
                archive[pid] = count
            else:
                arr[slot] = count
        return arr

    def _tally(self, name: str) -> dict[int, int]:
        """Per-pid tally *name* as the engine keeps it (pid → count),
        the archive of reaped pids included."""
        d = dict(self.archived_stats[name])
        pids = self.pids
        for i, c in enumerate(getattr(self, name)):
            if c and pids[i] is not None:
                d[pids[i]] = c
        return d

    def _encode_stores(self, proc: Any) -> tuple:
        """*proc*'s stores in the int domain: (N, anchor slot, anchor
        belief, parked, anchor_verified, anchor_probe_sent).

        Raises :class:`CoreUnsupported` for a self-reference or for a
        reference to a pid without a slot, before anything is written.
        """
        pid = proc.pid
        slot_of = self.slot_of
        nd = {_slot(r, pid, slot_of, "stored"): _code(b) for r, b in proc.N.items()}
        anchor = proc.anchor
        aslot = -1 if anchor is None else _slot(anchor, pid, slot_of, "anchored")
        abel = _code(proc.anchor_belief)
        if not self.is_fsp:
            return nd, aslot, abel, None, 0, 0
        pk = {_slot(r, pid, slot_of, "parked"): _code(b) for r, b in proc.parked.items()}
        return (
            nd,
            aslot,
            abel,
            pk,
            1 if proc.anchor_verified else 0,
            1 if proc.anchor_probe_sent else 0,
        )

    def _fill_slot(self, u: int, proc: Any, stores: tuple) -> None:
        """Write *proc*'s mode, lifecycle state and encoded *stores*
        (:meth:`_encode_stores`) into slot *u*; no edge deltas."""
        nd, aslot, abel, pk, verified, probe = stores
        self.mode_[u] = _LEAVING if proc.mode is Mode.LEAVING else _STAYING
        self.state_[u] = _STATE_BY_CODE.index(proc.state)
        self.N[u] = nd
        self.anchor_[u] = aslot
        self.abelief_[u] = abel
        if self.is_fsp:
            self.parked[u] = pk
            self.averified_[u] = verified
            self.aprobe_[u] = probe

    def _encode_msg(self, msg: Message, label_of: dict[str, int]) -> int:
        label_id = label_of.get(msg.label)
        if label_id is None:
            if len(self.labels) > _LABEL_MASK:
                raise CoreUnsupported("label table overflow")
            label_id = len(self.labels)
            self.labels.append(msg.label)
            label_of[msg.label] = label_id
        args = msg.args
        if len(args) == 1 and type(args[0]) is RefInfo:
            info = args[0]
            subj = self.slot_of.get(info.ref._pid)  # noqa: SLF001
            if subj is None:
                raise CoreUnsupported("message references unknown pid")
            bel = _code(info.mode)
        elif len(args) == 0:
            if label_id < len(self._deliver_kernels):
                raise CoreUnsupported(f"malformed zero-arg {msg.label!r} message")
            subj, bel = -1, _NONE
        else:
            raise CoreUnsupported("message with unencodable parameter list")
        # Senders pack as pids, not slots: trace-only metadata must stay
        # decodable after the sender's slot is reaped and recycled.
        sender = msg.sender if msg.sender is not None else -1
        return (
            label_id
            | (bel << _BEL_SHIFT)
            | ((subj + 1) << _SUBJ_SHIFT)
            | ((sender + 1) << _SENDER_SHIFT)
        )

    # ------------------------------------------------------------------ edges

    def _edge(self, src: int, dst: int, nb: int, count: int) -> None:
        """Apply an edge-multiset delta (*nb* is the normalized belief).
        Deleting an ``in_`` entry marks its owner for the certificate
        walk, as the two inlined dequeues do."""
        inn = self.in_[dst]
        c = inn.get(src, 0) + count
        if c:
            inn[src] = c
        else:
            del inn[src]
            self._dirty.add(dst)
        self.edge_total += count
        if nb != self.mode_[dst]:
            self.phi += count

    def _out_edges(self, u: int, delta: int) -> None:
        """Apply the slot's out-edges (explicit stores, then channel
        subjects) to the edge multiset with multiplicity *delta*: +1 at
        construction and admit, -1 at exit. An exit leaves the underlying
        stores physically intact, exactly like the object model's gone
        processes."""
        for v, bel in self.N[u].items():
            self._edge(u, v, _STAYING if bel == _NONE else bel, delta)
        a = self.anchor_[u]
        if a >= 0:
            ab = self.abelief_[u]
            self._edge(u, a, _STAYING if ab == _NONE else ab, delta)
        if self.is_fsp:
            for v, bel in self.parked[u].items():
                self._edge(u, v, _STAYING if bel == _NONE else bel, delta)
        for rec in self.ch[u].values():
            subj = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
            if subj >= 0:
                bel = (rec >> _BEL_SHIFT) & 3
                self._edge(u, subj, _STAYING if bel == _NONE else bel, delta)

    # ------------------------------------------------------------------ plumbing

    def _send(self, src: int, dst: int, label_id: int, subj: int, bel: int) -> None:
        """Kernel of ``Engine.post`` for an in-protocol single-RefInfo send."""
        if self.state_[dst] == _GONE:
            # Kernel of ``Engine._bounce``: a protocol send to a gone
            # process never enters the dead channel. A message carrying
            # only the sender's or the target's own reference drops
            # silently; a third-party subject bounces back to the sender.
            if subj == src or subj == dst:
                self.dropped_gone += 1
            else:
                self._bounce(src, dst, subj, bel)
            return
        seq = self.next_seq
        self.next_seq = seq + 1
        self.ch[dst][seq] = (
            label_id
            | (bel << _BEL_SHIFT)
            | ((subj + 1) << _SUBJ_SHIFT)
            | ((self.pids[src] + 1) << _SENDER_SHIFT)
        )
        # posted/pending are derived from next_seq by _sync_flow.
        self.sent_by[src] += 1
        self.received_by[dst] += 1
        # _edge(dst, subj, normalized bel, +1), inlined: the enqueue
        # edge is the hottest delta in the whole simulation.
        inn = self.in_[subj]
        inn[dst] = inn.get(dst, 0) + 1
        self.edge_total += 1
        if (_STAYING if bel == _NONE else bel) != self.mode_[subj]:
            self.phi += 1
        pool = self._pool
        net = self.net
        if net is not None:
            # Engine.post over a transport: the message is in the channel
            # and the transport announces it when a frame arrives.
            net.on_post(self.pids[src], self.pids[dst], seq)
        elif pool is not None:
            # RandomScheduler.notify_send, inlined. A freshly allocated
            # seq can never already be pooled, so the dedup is elided.
            entry = ((seq + 1) << PID_BITS) | self.pids[dst]
            self._pos[entry] = len(pool)
            pool.append(entry)
        else:
            sched = self.sched
            if sched is not None:
                sched.notify_send(self.pids[dst], seq)

    def _bounce(self, src: int, dst: int, subj: int, bel: int) -> None:
        """Kernel of ``Engine._bounce`` for the two-record reintegration:
        ``present(dst, leaving)`` hint + ``forward(subj, bel)``, both into
        the *sender's* channel with no sender metadata (packs as 0, the
        object side's ``sender=None``)."""
        seq = self.next_seq
        self.next_seq = seq + 2
        ch = self.ch[src]
        ch[seq] = (_LEAVING << _BEL_SHIFT) | ((dst + 1) << _SUBJ_SHIFT)  # present
        ch[seq + 1] = 1 | (bel << _BEL_SHIFT) | ((subj + 1) << _SUBJ_SHIFT)  # forward
        self.received_by[src] += 2
        # The hint's in-edge pins the gone slot against reaping until it
        # is consumed — exactly like the object side's channel ref.
        self._edge(src, dst, _LEAVING, 1)
        self._edge(src, subj, _STAYING if bel == _NONE else bel, 1)
        self.bounced += 1
        pid = self.pids[src]
        pool = self._pool
        if pool is not None:
            pos = self._pos
            enc = ((seq + 1) << PID_BITS) | pid
            pos[enc] = len(pool)
            pool.append(enc)
            enc = ((seq + 2) << PID_BITS) | pid
            pos[enc] = len(pool)
            pool.append(enc)
        else:
            sched = self.sched
            if sched is not None:
                sched.notify_send(pid, seq)
                sched.notify_send(pid, seq + 1)

    def _transition(self, u: int, new_state: int) -> None:
        """Kernel of ``Engine._transition`` (legality is guaranteed by the
        kernels: awake→gone, awake→asleep, asleep→awake only)."""
        old = self.state_[u]
        if old == new_state:
            return
        self.state_[u] = new_state
        self.last_progress = self.steps
        if old == _ASLEEP:
            self.asleep -= 1
        sched = self.sched
        if new_state == _GONE:
            self.exits += 1
            self.gone += 1
            self.gen_[u] += 1
            self._dirty.add(u)  # every certificate pair at u died
            if sched is not None:
                sched.notify_gone(self.pids[u], list(self.ch[u]))
            net = self.net
            if net is not None:
                net.on_gone(self.pids[u])
            self._out_edges(u, -1)
            # The purged references stay physically present in the gone
            # slot's stores and channel — convert them to dead pins so
            # their targets cannot be reaped out from under them.
            self._pin_holdings(u, 1)
        elif new_state == _ASLEEP:
            self.sleeps += 1
            self.asleep += 1
            if sched is not None:
                sched.notify_sleep(self.pids[u])
        else:
            self.wakes += 1
            stamp = self.clock
            self.clock = stamp + 1
            if sched is not None:
                sched.notify_wake(self.pids[u], stamp)

    # ------------------------------------------------------------------ open-system churn

    def _pin_holdings(self, u: int, delta: int) -> None:
        """Apply ±1 dead pins for every reference slot *u* physically
        holds (neighbourhood, anchor, parked store, channel subjects).

        Called with +1 when *u* becomes gone (its holdings leave the edge
        multiset but still exist) and at construction for initially-gone
        slots; with -1 when *u* is reaped (the holdings are destroyed).
        Self-references never pin: reaping destroys them together with
        the holder.
        """

        dp = self.dead_pins
        for v in self._held(u):
            if v == u:
                continue
            c = dp.get(v, 0) + delta
            if c:
                dp[v] = c
            else:
                del dp[v]

    def _held(self, u: int) -> list[int]:
        """Every slot *u* physically references, with multiplicity:
        neighbourhood, anchor, parked store, channel subjects."""
        held = list(self.N[u])
        a = self.anchor_[u]
        if a >= 0:
            held.append(a)
        if self.is_fsp:
            held.extend(self.parked[u])
        for rec in self.ch[u].values():
            v = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
            if v >= 0:
                held.append(v)
        return held

    def set_leaving(self, u: int) -> None:
        """Mirror of ``Engine.request_leave``: flip slot *u* to leaving.

        Φ reprices in one pass over *u*'s in-holders: every in-edge whose
        normalized belief was valid (staying) turns invalid and vice
        versa. The in-index names the holders and their edge counts;
        their stores, and only where those fall short of the count their
        channels, are walked for the belief breakdown — a per-session-end
        cost, so no per-edge belief buckets burden the hot path.
        """

        if self.mode_[u] == _LEAVING:
            return
        N, anchor_, abelief_ = self.N, self.anchor_, self.abelief_
        parked = self.parked if self.is_fsp else None
        staying = leaving = 0
        for src, count in self.in_[u].items():
            held = staying + leaving
            bel = N[src].get(u, -1)
            if bel >= 0:
                if bel == _LEAVING:
                    leaving += 1
                else:
                    staying += 1
            if anchor_[src] == u:
                if abelief_[src] == _LEAVING:
                    leaving += 1
                else:
                    staying += 1
            if parked is not None:
                bel = parked[src].get(u, -1)
                if bel >= 0:
                    if bel == _LEAVING:
                        leaving += 1
                    else:
                        staying += 1
            if staying + leaving - held == count:
                continue  # every src → u edge is a stored one
            for rec in self.ch[src].values():
                if ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1 == u:
                    if ((rec >> _BEL_SHIFT) & 3) == _LEAVING:
                        leaving += 1
                    else:
                        staying += 1
        self.mode_[u] = _LEAVING
        # Previously-invalid in-edges believed leaving; now the staying
        # beliefs are the invalid ones.
        self.phi += staying - leaving

    def can_reap(self, u: int) -> bool:
        """Whether slot *u* is gone and completely unreferenced: no live
        in-edges and no dead pins. O(1)."""
        return (
            self.pids[u] is not None
            and self.state_[u] == _GONE
            and not self.in_[u]
            and not self.dead_pins.get(u)
        )

    def reap(self, u: int) -> None:
        """Reclaim gone, unreferenced slot *u* onto the free list.

        The slot's generation was already bumped when its process exited,
        so every tagged ref minted for the old occupant is stale the
        moment the slot is recycled. Per-slot statistics move to the
        archive under the departing pid (exports merge them back); the
        stores and channel are destroyed, unpinning whatever they held.
        """

        pid = self.pids[u]
        if pid is None or self.state_[u] != _GONE:
            raise StateViolation(f"slot {u} is not a gone process; cannot reap")
        if self.in_[u] or self.dead_pins.get(u):
            raise StateViolation(
                f"process {pid} (slot {u}) is still referenced; cannot reap"
            )
        self._pin_holdings(u, -1)
        self._pending0 -= len(self.ch[u])
        for name in _TALLIES:
            arr = getattr(self, name)
            if arr[u]:
                self.archived_stats[name][pid] = arr[u]
                arr[u] = 0
        self.N[u] = {}
        self.ch[u] = {}
        self.anchor_[u] = -1
        self.abelief_[u] = _NONE
        if self.is_fsp:
            self.parked[u] = {}
            self.averified_[u] = 0
            self.aprobe_[u] = 0
        self.last_acted[u] = -1
        self.pids[u] = None
        del self.slot_of[pid]
        self.free_slots.append(u)
        self.gone -= 1

    def admit(self, pid: int, proc: Any) -> None:
        """Mirror of ``Engine.admit``: give *pid* a slot, recycling from
        the free list when possible.

        A recycled slot keeps its exit-bumped generation — zeroing it
        would let a stale tagged ref alias the new occupant. When the
        generation no longer fits the packed layout
        (:data:`~repro.sim.refs.REF_GEN_BITS`), the slot is retired and
        :class:`~repro.errors.SlotRecycleOverflow` raised instead of
        silently wrapping.
        """

        from repro.core.fdp import FDPProcess
        from repro.core.fsp import FSPProcess

        expected = FSPProcess if self.is_fsp else FDPProcess
        if type(proc) is not expected:
            raise CoreUnsupported(
                f"admitted process type {type(proc).__name__} is not mirrored"
            )
        stores = self._encode_stores(proc)  # raises before a slot is taken
        free = self.free_slots
        if free:
            u = free.pop()
            if self.gen_[u] >= (1 << REF_GEN_BITS):
                # Retired for good: re-admitting it can never become safe.
                raise SlotRecycleOverflow(
                    f"slot {u} exhausted its generation space "
                    f"(gen={self.gen_[u]}, cap=2^{REF_GEN_BITS})",
                    slot=u,
                    gen=self.gen_[u],
                )
            self.pids[u] = pid
        else:
            u = len(self.pids)
            if u >= (1 << REF_SLOT_BITS):
                raise CoreUnsupported(f"population {u + 1} exceeds slot space")
            self.pids.append(pid)
            self.mode_.append(_STAYING)
            self.state_.append(_AWAKE)
            self.gen_.append(0)
            self.anchor_.append(-1)
            self.abelief_.append(_NONE)
            self.N.append({})
            if self.is_fsp:
                self.parked.append({})
                self.averified_.append(0)
                self.aprobe_.append(0)
            self.ch.append({})
            self.in_.append({})
            self.last_acted.append(-1)
            for name in _TALLIES:
                getattr(self, name).append(0)
        self.slot_of[pid] = u
        self._fill_slot(u, proc, stores)
        self._store_scan = None
        self._out_edges(u, 1)
        if self._labels is not None:
            self._join_labels(u)
        self.last_progress = self.steps  # Engine.admit marks progress too
        # The engine's scheduler wake consumes one freshness stamp.
        self.clock += 1

    # ------------------------------------------------------------------ out-of-band faults

    def post(self, u: int, msg: Message) -> None:
        """Kernel of an out-of-band ``Engine.post(None, ...)`` of *msg*
        (one ``RefInfo`` argument, seq :attr:`next_seq`) to non-gone slot
        *u*: the record (sender packed as 0), tally and Φ/edge delta of a
        :meth:`_send`. The engine notifies the scheduler. A plant that
        joins two labelled components drops the labels for a relabel.
        Raises :class:`CoreUnsupported` before any write when the label
        table is full."""
        rec = self._encode_msg(msg, self._label_of)
        self.next_seq = msg.seq + 1
        self.ch[u][msg.seq] = rec
        self.received_by[u] += 1
        v = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
        bel = (rec >> _BEL_SHIFT) & 3
        self._edge(u, v, _STAYING if bel == _NONE else bel, 1)
        labels = self._labels
        if labels is not None and self.state_[v] != _GONE and labels[v] != labels[u]:
            self._labels = None

    def beliefs_of(self, u: int) -> list[tuple[str, int, Mode | None]]:
        """Slot *u*'s stored beliefs as ``(store, pid, belief)``: each
        ``N`` entry in store order, then the anchor if one is set."""
        pids = self.pids
        found = [("N", pids[v], _MODE_BY_CODE[bel]) for v, bel in self.N[u].items()]
        a = self.anchor_[u]
        if a >= 0:
            found.append(("anchor", pids[a], _MODE_BY_CODE[self.abelief_[u]]))
        return found

    def rewrite_belief(self, u: int, store: str, pid: int, belief: Mode) -> None:
        """Set the belief slot *u* stores about *pid* in *store* (``"N"``
        or ``"anchor"``), with its Φ delta: a belief fault. The reference
        stays, so the edge endpoints and the component labels do too."""
        v = self.slot_of[pid]
        bel = _code(belief)
        if store == "N":
            self._nstore(u, v, bel)
            return
        old = self.abelief_[u]
        self._edge(u, v, _STAYING if old == _NONE else old, -1)
        self.abelief_[u] = bel
        self._edge(u, v, _STAYING if bel == _NONE else bel, 1)

    # ------------------------------------------------------------------ oracle

    def _single(self, u: int) -> bool:
        """SINGLE(u): at most one distinct non-gone partner in either
        direction (sleeper-free populations only — enforced at build).

        Incoming partners come from the maintained index; outgoing ones
        are enumerated from u's own stores (N, anchor, parked, channel
        subjects) at query time — oracle queries are rare enough that
        indexing the outgoing direction on the hot path never pays off.
        """
        state_ = self.state_
        first = -1
        for q in self.in_[u]:
            if q != u and state_[q] != _GONE and q != first:
                if first >= 0:
                    return False
                first = q
        for q in self.N[u]:
            if q != u and state_[q] != _GONE and q != first:
                if first >= 0:
                    return False
                first = q
        a = self.anchor_[u]
        if a >= 0 and a != u and state_[a] != _GONE and a != first:
            if first >= 0:
                return False
            first = a
        if self.is_fsp:
            for q in self.parked[u]:
                if q != u and state_[q] != _GONE and q != first:
                    if first >= 0:
                        return False
                    first = q
        for rec in self.ch[u].values():
            q = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
            if q >= 0 and q != u and state_[q] != _GONE and q != first:
                if first >= 0:
                    return False
                first = q
        return True

    # ------------------------------------------------------------------ queries

    def adjacent(self, u: int) -> Iterator[int]:
        """The slots of the non-gone processes that share an edge with
        slot *u* in either direction, straight from the ``in_`` index
        and *u*'s own stores (N, anchor, parked, channel subjects): a
        slot may come more than once, and *u* itself when it holds its
        own reference. A gone slot has no edges, so no neighbours. The
        neighbour walk of the searches (the engine's hop distance, the
        certificate repair), which skip what they have seen and so need
        no set per visited slot."""
        state_ = self.state_
        if state_[u] == _GONE:
            return
        for q in self.in_[u]:
            if state_[q] != _GONE:
                yield q
        for q in self.N[u]:
            if state_[q] != _GONE:
                yield q
        a = self.anchor_[u]
        if a >= 0 and state_[a] != _GONE:
            yield a
        if self.is_fsp:
            for q in self.parked[u]:
                if state_[q] != _GONE:
                    yield q
        for rec in self.ch[u].values():
            q = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
            if q >= 0 and state_[q] != _GONE:
                yield q

    def neighbours(self, u: int) -> set[int]:
        """The distinct slots of :meth:`adjacent` other than *u*."""
        found = set(self.adjacent(u))
        found.discard(u)
        return found

    def partners(self, u: int) -> set[int]:
        """Pids of :meth:`neighbours`."""
        pids = self.pids
        return {pids[q] for q in self.neighbours(u)}

    def state_of(self, u: int) -> PState:
        """Lifecycle state of slot *u*."""
        return _STATE_BY_CODE[self.state_[u]]

    def alive_pids(self) -> frozenset[int]:
        """Pids of the non-gone slots: the relevant processes while no
        slot is asleep, since only sleepers hibernate."""
        # Reaped slots (pid None) stay gone until recycled.
        return frozenset(compress(self.pids, self.state_.translate(_NOT_GONE)))

    def _relabel(self) -> tuple[list[int], list[tuple[int, int]]]:
        """One full labelling: the weak-component label of every slot, by
        union-find over the ``in_`` index (every edge of PG is some
        ``in_[v][u]`` entry with a non-gone source *u*), and its
        certificate, the ``(v, u)`` edge of every successful union: a
        spanning forest of each component. Gone slots keep singleton
        labels. O(V + distinct pairs); stores nothing."""
        state_ = self.state_
        parent = list(range(len(self.pids)))
        cert: list[tuple[int, int]] = []
        for v, inn in enumerate(self.in_):
            if not inn or state_[v] == _GONE:
                continue
            root = v
            while parent[root] != root:
                parent[root] = parent[parent[root]]
                root = parent[root]
            for s in inn:
                u = s
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                if u != root:
                    parent[u] = root
                    cert.append((v, s))
        for i, p in enumerate(parent):
            while parent[p] != p:
                p = parent[p]
            parent[i] = p
        return parent, cert

    def _component_labels(self) -> list[int]:
        """Weak-component label of every slot, kept across boundaries and
        checked against a certificate instead of recomputed.

        Kernel actions are copy-store-send, so components never merge:
        after a batch the true partition can only be finer than the
        labels. The certificate (:meth:`_relabel`'s spanning forest, kept
        up to date) proves it is not. The first connectivity query after
        a batch or a mirrored step walks the part of it that may have
        died (:meth:`_check_certificate`); only a failed repair, a
        genuine split, pays a full O(V + distinct pairs) :meth:`_relabel`.
        Admits extend the labels (:meth:`_join_labels`), reaps,
        departure flips and belief faults keep them, a planted message
        that joins two labels drops them (:meth:`post`), and any other
        out-of-band mutation rebuilds the whole core. A dropped labelling
        is relabelled before anything reads it, so every labelling a
        query sees comes from one relabel, named by
        :meth:`partition_epoch`. Gone slots' labels are stale: every
        query filters gone slots first.
        """
        if self._labels is None:
            self._full_relabel()
        elif self._cert_pending:
            self._cert_pending = False
            self.label_checks += 1
            if not self._check_certificate():
                self._full_relabel()
        return self._labels  # type: ignore[return-value]

    def _full_relabel(self) -> None:
        self._labels, self._cert = self._relabel()
        self._cert_at = None
        self._cert_pending = False
        self._dirty.clear()
        self._epoch = object()
        self._next_label = len(self._labels)
        self.label_relabels += 1

    def partition_epoch(self) -> object:
        """The epoch of the kept labelling, after checking it: a fresh
        token at every full relabel, unequal to any other. Between
        relabels no non-gone slot's label changes (admits only label
        the newcomer), so the same epoch means every slot still non-gone
        kept its label: components never merge, and a split relabels."""
        self._component_labels()
        return self._epoch

    def _certificate_index(self) -> defaultdict[int, list[int]]:
        """:attr:`_cert_at`, built from the relabel's pair list on the
        first walk after it. Lists, not sets: a slot has a few pairs,
        and a list holds them in a third of the memory."""
        at = self._cert_at
        if at is None:
            at = self._cert_at = defaultdict(list)
            for pair in self._cert:  # type: ignore[union-attr]
                self._link(at, pair)
            self._cert = None
        return at

    def dead_certificate_pairs(self) -> list[tuple[int, int]]:
        """The certificate pairs that are not live now: none right after
        a walk (the oracle verify mode holds each walk to)."""
        at = self._cert_at
        pairs = (
            self._cert
            if at is None
            else [(a, b) for a, bs in at.items() for b in bs if a < b]
        )
        state_, in_ = self.state_, self.in_
        return [
            (a, b)
            for a, b in pairs  # type: ignore[union-attr]
            if state_[a] == _GONE
            or state_[b] == _GONE
            or (b not in in_[a] and a not in in_[b])
        ]

    def _check_certificate(self) -> bool:
        """Walk the certificate pairs that may have died since the last
        walk, cut out the dead ones and repair the cuts; False when a
        repair fails, i.e. the partition may have split.

        A pair is live when both slots are non-gone and an ``in_`` entry
        joins them either way. It can only die where an ``in_`` entry
        is deleted or a slot goes gone, and both mark a slot of the pair
        in :attr:`_dirty`: the entry's owner, or the departed slot. So
        the walk reads only the pairs at the marked slots, from the
        certificate index (:meth:`_certificate_index`). The marks are a
        set of slots, so they never outgrow the slot count, and a walk
        over them never costs more than one over every pair. A dead pair
        between non-gone slots is replaced by a live path between them
        (:meth:`_reconnect`). The pairs at gone slots are cut out: the
        non-gone slots the gone ones held together in the certificate
        are reconnected to the first of them.
        """
        dirty = self._dirty
        if not dirty:
            return True
        at = self._certificate_index()
        state_ = self.state_
        in_ = self.in_
        dead: set[tuple[int, int]] = set()
        gone: list[int] = []
        for a in dirty:
            bs = at.get(a)
            if not bs:
                continue
            if state_[a] == _GONE:
                gone.append(a)
                continue
            for b in bs:
                # a gone b is marked too, and cut out from its side
                if state_[b] != _GONE and b not in in_[a] and a not in in_[b]:
                    dead.add((a, b) if a < b else (b, a))
        dirty.clear()
        for a, b in dead:
            at[a].remove(b)
            at[b].remove(a)
            if not self._link(at, self._reconnect(a, b)):
                return False
        for g in gone:
            if g not in at:
                continue  # cut out with an earlier cluster
            # the certificate's non-gone neighbours of this cluster of
            # gone slots, which the cut leaves to reconnect
            todo = [g]
            ends: dict[int, None] = {}
            while todo:
                x = todo.pop()
                for y in at.pop(x, ()):
                    if state_[y] != _GONE:
                        at[y].remove(x)
                        ends[y] = None
                    elif y in at:
                        todo.append(y)
            hub = next(iter(ends), -1)
            for x in ends:
                if x != hub and not self._link(at, self._reconnect(hub, x)):
                    return False
        return True

    @staticmethod
    def _link(at: defaultdict[int, list[int]], path: Sequence[int] | None) -> bool:
        """Add the pairs of *path* that it lacks to the certificate
        index *at*; False when there is no path."""
        if path is None:
            return False
        for a, b in zip(path, path[1:], strict=False):
            if b not in at[a]:
                at[a].append(b)
                at[b].append(a)
        return True

    def _reconnect(self, a: int, b: int) -> list[int] | None:
        """A live path between non-gone slots *a* and *b*, as a slot
        list: their edge, else a surviving common neighbour, else a
        bidirectional search over :meth:`adjacent`. None when none
        exists."""
        in_ = self.in_
        if b in in_[a] or a in in_[b]:
            return [a, b]
        self.label_repairs += 1
        na, nb = self.neighbours(a), self.neighbours(b)
        if len(nb) < len(na):
            na, nb = nb, na
        for c in na:
            if c in nb:
                return [a, c, b]
        return connecting_path(self.adjacent, a, b)

    def _join_labels(self, u: int) -> None:
        """Label admitted slot *u* with the component of its non-gone
        neighbours, and certify it by one edge to one of them; a
        neighbourless newcomer gets a fresh singleton label. A newcomer
        that joins two labels merges components, so the labels are
        dropped for a full relabel. Nothing references a newcomer yet,
        so its neighbours are the slots it holds."""
        labels = self._labels
        state_ = self.state_
        nbrs = (q for q in self._held(u) if state_[q] != _GONE)
        c = next(nbrs, None)
        if c is None:
            label = self._next_label
            self._next_label += 1
        else:
            label = labels[c]
            if any(labels[q] != label for q in nbrs):
                self._labels = None
                return
            at = self._cert_at
            if at is None:
                self._cert.append((u, c))  # type: ignore[union-attr]
            else:
                self._link(at, (u, c))
        if u < len(labels):
            labels[u] = label
        else:
            labels.append(label)

    def partition(self, *, fresh: bool = False) -> dict[int, int]:
        """Label of every non-gone slot: the first slot of its component.
        From the kept labels (:meth:`_component_labels`), or with *fresh*
        from a new :meth:`_relabel`, the oracle verify mode holds the
        kept labels to."""
        labels = self._relabel()[0] if fresh else self._component_labels()
        state_ = self.state_
        return first_member_labels(
            (u for u in range(len(labels)) if state_[u] != _GONE), labels.__getitem__
        )

    def component_labels(self, pids: Iterable[int]) -> dict[int, int]:
        """Label of every non-gone pid in *pids*: the first pid, in
        *pids* order, of its weakly connected component (the engine's
        ``component_labels`` answer, from :meth:`_component_labels`)."""
        roots = self._component_labels()
        state_ = self.state_
        slot_of = self.slot_of
        return first_member_labels(
            (pid for pid in pids if state_[slot_of[pid]] != _GONE),
            lambda pid: roots[slot_of[pid]],
        )

    def same_component(self, slots: list[int]) -> bool:
        """Whether every slot in *slots* is non-gone and all of them lie
        in one weakly connected component of PG (paths through any
        non-gone process, asleep ones included)."""
        if not slots:
            return True
        state_ = self.state_
        for u in slots:
            if state_[u] == _GONE:
                return False
        labels = self._component_labels()
        root = labels[slots[0]]
        for u in slots:
            if labels[u] != root:
                return False
        return True

    def lifecycle_clauses(self) -> tuple[bool, bool]:
        """Legitimacy conditions (i) and (ii) in their FDP reading, from
        the lifecycle columns: every staying process is awake, every
        leaving process is gone."""
        staying_awake = leaving_gone = True
        for pid, mode, state in zip(self.pids, self.mode_, self.state_, strict=True):
            if pid is None:
                continue
            if mode == _LEAVING:
                if state != _GONE:
                    leaving_gone = False
            elif state != _AWAKE:
                staying_awake = False
        return staying_awake, leaving_gone

    def staying_pids(self) -> frozenset[int]:
        """Pids of the staying processes that are not gone."""
        return frozenset(
            pid
            for pid, mode, state in zip(self.pids, self.mode_, self.state_, strict=True)
            if pid is not None and mode == _STAYING and state != _GONE
        )

    def pending_count(self) -> int:
        """Messages pending across all channels (gone slots included)."""
        self._sync_flow()
        return self.pending

    def backlog_horizon(self, limit: int) -> int:
        """The largest k such that :meth:`pending_count` cannot exceed
        *limit* after any of the next k steps (0 when it may after the
        first).

        The send bound: with every slot's ``|N| + 2·|parked|`` at most
        D, one step adds at most D + 2 messages. A timeout sends one
        message per stored reference, a parked one possibly to a gone
        anchor, where the bounce puts two in its place, plus at most
        two more; a delivery sends at most one, which may bounce. A
        step grows one store by at most one entry, so D grows by at
        most 1 (2 for FSP, whose parked entries count twice). After k
        steps the backlog has grown by at most k·(D + 2) + g·k(k − 1)/2.
        """
        slack = limit - self.pending_count()
        if slack < 0:
            return 0
        g = 2 if self.is_fsp else 1
        first = self._store_bound(g) + 2
        # largest k with g·k² + (2·first − g)·k ≤ 2·slack
        b = 2 * first - g
        k = (isqrt(b * b + 8 * g * slack) - b) // (2 * g)
        while g * (k + 1) * (k + 1) + b * (k + 1) <= 2 * slack:
            k += 1
        return k

    def _store_bound(self, growth: int) -> int:
        """An upper bound on ``|N| + 2·|parked|`` over every slot: a scan
        of the store sizes, which serves :data:`_STORE_RESCAN` steps
        with *growth* per step added. Kernel steps and the out-of-band
        writes that keep every reference (:meth:`post`,
        :meth:`rewrite_belief`, :meth:`set_leaving`, reaps) grow no
        store by more; :meth:`admit` fills a store, so it drops the
        scan."""
        scan = self._store_scan
        steps = self.steps
        if scan is None or steps - scan[1] > _STORE_RESCAN:
            bound = max(map(len, self.N), default=0)
            if self.is_fsp:
                bound += 2 * max(map(len, self.parked), default=0)
            self._store_scan = scan = (bound, steps)
        return scan[0] + growth * (steps - scan[1])

    def _consult_oracle(self, u: int) -> bool:
        if self.is_fsp:
            # FSP overrides _consult_oracle with a constant — no oracle
            # machinery, no stats.
            return True
        kind = self.oracle_kind
        if kind is None:
            raise ConfigurationError(
                "no oracle configured but the protocol consulted one"
            )
        self.oq += 1
        if kind == "always":
            verdict = True
        elif kind == "never":
            verdict = False
        else:
            verdict = self._single(u)
        if verdict:
            self.otrue += 1
        return verdict

    # ------------------------------------------------------------------ protocol kernels

    def _drop_anchor_edge(self, u: int) -> None:
        """``anchor := ⊥`` with its edge delta (raw belief key removal)."""
        a = self.anchor_[u]
        ab = self.abelief_[u]
        self._edge(u, a, _STAYING if ab == _NONE else ab, -1)
        self.anchor_[u] = -1
        self.abelief_[u] = _NONE

    def _set_anchor(self, u: int, v: int, m: int) -> None:
        """``anchor := v; anchor_belief := m`` (net edge delta)."""
        self.anchor_[u] = v
        self.abelief_[u] = m
        self._edge(u, v, m, 1)

    def _nstore(self, u: int, v: int, m: int) -> None:
        """``N[v] := m`` with RefMap write-through semantics."""
        nd = self.N[u]
        old = nd.get(v, -1)
        if old == m:
            return
        nd[v] = m
        if old >= 0:
            self._edge(u, v, _STAYING if old == _NONE else old, -1)
        self._edge(u, v, m, 1)

    def _ndrop(self, u: int, v: int) -> None:
        """``del N[v]`` with its edge delta."""
        old = self.N[u].pop(v)
        self._edge(u, v, _STAYING if old == _NONE else old, -1)

    def _timeout_kernel(self, u: int) -> int | None:
        """Algorithm 1 (+ the FSP pre-phase); returns the requested
        lifecycle code or None, applied by the caller after the action."""
        mode = self.mode_[u]
        if self.is_fsp:
            anchor = self.anchor_[u]
            trusted = anchor >= 0 and self.abelief_[u] != _LEAVING
            pk = self.parked[u]
            if trusted and pk:
                for v, bel in pk.items():
                    if v == anchor:
                        self._send(u, u, 0, v, bel)
                    else:
                        self._send(u, anchor, 1, v, bel)
                for v, bel in pk.items():
                    self._edge(u, v, _STAYING if bel == _NONE else bel, -1)
                pk.clear()
            if trusted and mode == _LEAVING and not self.averified_[u] and not self.aprobe_[u]:
                self._send(u, anchor, 0, u, mode)
                self.aprobe_[u] = 1
        # Algorithm 1 lines 1-3: purge an anchor believed to be leaving.
        if self.anchor_[u] >= 0 and self.abelief_[u] == _LEAVING:
            self._send(u, u, 0, self.anchor_[u], self.abelief_[u])
            self._drop_anchor_edge(u)
        if mode == _LEAVING:  # line 4
            nd = self.N[u]
            if not nd:  # line 5
                if self._consult_oracle(u):  # line 6
                    # line 7: exit (FDP) / sleep (FSP departure hook)
                    return _ASLEEP if self.is_fsp else _GONE
                anchor = self.anchor_[u]
                if anchor >= 0:  # lines 8-10
                    self._send(u, anchor, 0, u, mode)
            else:  # lines 11-14: drain the neighbourhood to ourselves
                for v, bel in nd.items():
                    self._send(u, u, 1, v, bel)
                for v, bel in nd.items():
                    self._edge(u, v, _STAYING if bel == _NONE else bel, -1)
                nd.clear()
        else:  # lines 15-22: staying
            if self.anchor_[u] >= 0:  # lines 16-18
                self._send(u, u, 0, self.anchor_[u], self.abelief_[u])
                self._drop_anchor_edge(u)
            # line 19: iterate the store directly; drops are deferred to
            # after the loop (the edge deltas commute with the sends —
            # neither reads N — and Φ is only observed between actions).
            drops = None
            nd = self.N[u]
            pool = self._pool
            if pool is None or self.net is not None:
                for v, bel in nd.items():
                    if bel == _LEAVING:  # lines 20-21
                        if drops is None:
                            drops = [v]
                        else:
                            drops.append(v)
                    self._send(u, v, 0, u, mode)  # line 22
            elif nd:
                # line 22 bulk-specialized for the RandomScheduler pool
                # (without a transport, whose flights take _send):
                # sender and subject are both u, the belief is u's own
                # mode (staying), so the packed record is loop-constant
                # and Φ can never move (the enqueue edge always agrees
                # with mode_[u]). Everything batchable is batched.
                seq = self.next_seq
                pos = self._pos
                pids = self.pids
                ch = self.ch
                state_ = self.state_
                received_by = self.received_by
                inn = self.in_[u]
                rec = (
                    (mode << _BEL_SHIFT)
                    | ((u + 1) << _SUBJ_SHIFT)
                    | ((self.pids[u] + 1) << _SENDER_SHIFT)
                )
                edges = 0
                sent = 0
                dropped = 0
                for v, bel in nd.items():
                    if bel == _LEAVING:  # lines 20-21
                        if drops is None:
                            drops = [v]
                        else:
                            drops.append(v)
                    if state_[v] != _GONE:
                        ch[v][seq] = rec
                        received_by[v] += 1
                        inn[v] = inn.get(v, 0) + 1
                        edges += 1
                        sent += 1
                        enc = ((seq + 1) << PID_BITS) | pids[v]
                        pos[enc] = len(pool)
                        pool.append(enc)
                        seq += 1
                    else:
                        # Self-introduction to a gone neighbour: the
                        # bounce rule drops it silently (subject is u
                        # itself — nothing to reintegrate).
                        dropped += 1
                self.next_seq = seq
                self.sent_by[u] += sent
                self.edge_total += edges
                self.dropped_gone += dropped
            if drops is not None:
                for v in drops:
                    self._ndrop(u, v)
        return None

    def _present_kernel(self, u: int, v: int, bel_in: int) -> None:
        """Algorithm 2 (with the FSP learning wrappers)."""
        fsp = self.is_fsp
        if fsp and v != u:
            # _note_anchor_answer on the normalized incoming belief.
            if self.anchor_[u] == v and (_STAYING if bel_in == _NONE else bel_in) == _STAYING:
                self.averified_[u] = 1
        had_anchor = self.anchor_[u]
        if v != u:  # transcription note 2: self-references are discarded
            m = _STAYING if bel_in == _NONE else bel_in
            # _drop_stale_anchor, inlined (Algorithm 2 lines 1-2).
            if m == _LEAVING and self.anchor_[u] == v:
                self._drop_anchor_edge(u)
            mode = self.mode_[u]
            if m == _LEAVING:  # line 3
                if mode == _LEAVING:  # lines 4-5: reversal (both variants)
                    self._send(u, v, 1, u, mode)
                else:  # lines 6-9
                    if v in self.N[u]:
                        self._ndrop(u, v)
                    self._send(u, v, 1, u, mode)
            else:  # line 10
                if mode == _LEAVING:  # line 11
                    if self.anchor_[u] >= 0:  # lines 12-13
                        self._send(u, v, 1, u, mode)
                    else:  # lines 14-15
                        self._set_anchor(u, v, m)
                else:  # lines 16-17: N[v] := m — _nstore inlined; this is
                    # the dominant delivery outcome, and a belief rewrite
                    # leaves the edge count untouched (only Φ can move).
                    nd = self.N[u]
                    old = nd.get(v, -1)
                    if old != m:
                        nd[v] = m
                        mv = self.mode_[v]
                        if old >= 0:
                            if (_STAYING if old == _NONE else old) != mv:
                                self.phi -= 1
                            if m != mv:
                                self.phi += 1
                        else:
                            inn = self.in_[v]
                            inn[u] = inn.get(u, 0) + 1
                            self.edge_total += 1
                            if m != mv:
                                self.phi += 1
        if fsp and self.anchor_[u] != had_anchor:
            self.averified_[u] = 0
            self.aprobe_[u] = 0

    def _forward_kernel(self, u: int, v: int, bel_in: int) -> None:
        """Algorithm 3 (with the FSP parking variant and wrappers)."""
        fsp = self.is_fsp
        if fsp and v != u:
            if self.anchor_[u] == v and (_STAYING if bel_in == _NONE else bel_in) == _STAYING:
                self.averified_[u] = 1
        had_anchor = self.anchor_[u]
        if v != u:
            m = _STAYING if bel_in == _NONE else bel_in
            # _drop_stale_anchor, inlined (Algorithm 3 lines 1-2).
            if m == _LEAVING and self.anchor_[u] == v:
                self._drop_anchor_edge(u)
            mode = self.mode_[u]
            if m == _LEAVING:  # line 3
                if mode == _LEAVING:  # line 4
                    anchor = self.anchor_[u]
                    if anchor < 0:  # lines 5-6
                        if fsp:
                            # FSP: park + one-shot self-introduction.
                            pk = self.parked[u]
                            fresh = v not in pk
                            old = pk.get(v, -1)
                            if old != m:
                                pk[v] = m
                                if old >= 0:
                                    self._edge(
                                        u, v, _STAYING if old == _NONE else old, -1
                                    )
                                self._edge(u, v, m, 1)
                            if fresh:
                                self._send(u, v, 0, u, mode)
                        else:
                            self._send(u, v, 1, u, mode)  # reversal
                    else:  # lines 7-8: delegate to the anchor
                        self._send(u, anchor, 1, v, m)
                else:  # lines 9-12: staying
                    if v in self.N[u]:
                        self._ndrop(u, v)
                    self._send(u, v, 1, u, mode)
            else:  # line 13
                if mode == _LEAVING:  # line 14
                    anchor = self.anchor_[u]
                    if anchor >= 0:  # lines 15-16
                        self._send(u, anchor, 1, v, m)
                    else:  # lines 17-18
                        self._set_anchor(u, v, m)
                else:  # lines 19-20
                    self._nstore(u, v, m)
        if fsp and self.anchor_[u] != had_anchor:
            self.averified_[u] = 0
            self.aprobe_[u] = 0

    # ------------------------------------------------------------------ events

    def _run_timeout(self, u: int) -> None:
        if self.state_[u] != _AWAKE:  # pragma: no cover - scheduler contract
            raise StateViolation(
                f"timeout selected for non-awake process {self.pids[u]}"
            )
        requested = self._timeout_kernel(u)
        if requested is not None:
            self._transition(u, requested)
        self.timeouts += 1
        self.timeouts_by[u] += 1
        self.last_acted[u] = self.steps
        if self.state_[u] == _AWAKE:
            stamp = self.clock
            self.clock = stamp + 1
            sched = self.sched
            if sched is not None:
                sched.notify_timeout_executed(self.pids[u], stamp)

    def _run_delivery(self, u: int, seq: int) -> int:
        if self.state_[u] == _GONE:  # pragma: no cover - scheduler contract
            raise StateViolation(
                f"delivery selected for gone process {self.pids[u]}"
            )
        rec = self.ch[u].pop(seq)
        subj = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
        bel = (rec >> _BEL_SHIFT) & 3
        if subj >= 0:
            # _edge(u, subj, normalized bel, -1), inlined (dequeue edge).
            inn = self.in_[subj]
            c = inn[u] - 1
            if c:
                inn[u] = c
            else:
                del inn[u]
                self._dirty.add(subj)
            self.edge_total -= 1
            if (_STAYING if bel == _NONE else bel) != self.mode_[subj]:
                self.phi -= 1
        if self.state_[u] == _ASLEEP:
            self._transition(u, _AWAKE)
        label_id = rec & _LABEL_MASK
        kernels = self._deliver_kernels
        if label_id >= len(kernels):
            # "All other messages will be ignored by the processes."
            self.dropped += 1
            if self.strict:
                tname = "FSPProcess" if self.is_fsp else "FDPProcess"
                raise UnknownActionError(
                    f"process {self.pids[u]} ({tname}) has no action "
                    f"'{self.labels[label_id]}'"
                )
        else:
            kernels[label_id](u, subj, bel)
        self.deliveries += 1
        self.deliveries_by[u] += 1
        self.last_acted[u] = self.steps
        return label_id

    def _sync_flow(self) -> None:
        """Materialize the derived message-flow counters.

        ``posted`` advances exactly with ``next_seq`` and ``pending`` is
        posted minus delivered minus strict-dropped, so the hot path never
        updates either — callers that *read* them (export, verification)
        sync first. A non-strict drop counts as a delivery too, so only a
        strict core subtracts its drops (which raise before the delivery
        is counted).
        """
        d = self.next_seq - self._seq0
        self.posted = self._posted0 + d
        self.pending = (
            self._pending0
            + d
            - (self.deliveries - self._del0)
            - (self.dropped - self._drop0 if self.strict else 0)
        )

    def _after_step(self) -> None:
        self.steps += 1
        self.stat_steps += 1
        phi = self.phi
        last = self.last_phi_seen
        if last is None or phi > last:
            self.last_phi_seen = phi
        elif phi < last:
            self.last_phi_seen = phi
            self.last_progress = self.steps

    # ------------------------------------------------------------------ driving (soa)

    def drive(
        self, sched: Scheduler | None, *, log_steps: bool = False, net: Any = None
    ) -> None:
        """Hand the core the engine's scheduler (and its transport *net*,
        if any) for batched runs; ``None`` takes them back.

        Nothing is copied: a :class:`RandomScheduler`'s pool is sampled
        and appended to in place, and any other scheduler hears every
        event through its public hooks, so the object loop continues from
        the same scheduler state after a batch. With *log_steps* every
        executed step is also appended to :attr:`step_log`, for the
        engine to hand to its tracer (:meth:`take_steps`). A bound
        transport reads the core's columns (``ReliableTransport.core``)
        until it is taken back.
        """
        if self.net is not None:
            self.net.core = None
        self.net = net if sched is not None else None
        if self.net is not None:
            self.net.core = self
        self.sched = sched
        self.step_log = [] if sched is not None and log_steps else None
        if type(sched) is RandomScheduler:
            self._pool = sched._pool  # noqa: SLF001 - the core shares the pool
            self._pos = sched._pos  # noqa: SLF001
        else:
            self._pool = self._pos = None

    def _replay_select(self, sched: ReplayScheduler) -> TimeoutEvent | DeliverEvent | None:
        """``ReplayScheduler.select`` with its validation guards checked
        against the core's own columns (``state_``, ``ch``), so recorded
        schedules — chaos capsules included — replay on the core. The
        cursor advances on the scheduler itself, so the object path
        continues seamlessly after a batch."""
        events = sched._events  # noqa: SLF001 - shared-cursor contract
        cursor = sched._cursor  # noqa: SLF001
        if cursor >= len(events):
            return None
        event = events[cursor]
        sched._cursor = cursor + 1  # noqa: SLF001
        u = self.slot_of.get(event.pid)
        if event.kind == "timeout":
            if u is None or self.state_[u] != _AWAKE:
                raise ConfigurationError(
                    f"replay diverged at #{cursor + 1}: timeout for "
                    f"non-awake process {event.pid}"
                )
            return TimeoutEvent(event.pid)
        if event.kind == "deliver":
            if u is None or event.seq not in self.ch[u]:
                raise ConfigurationError(
                    f"replay diverged at #{cursor + 1}: message "
                    f"{event.seq} not pending at process {event.pid}"
                )
            return DeliverEvent(event.pid, event.seq)
        raise ConfigurationError(f"unknown recorded event kind {event.kind!r}")

    def run_batch(self, budget: int) -> int:
        """Execute up to *budget* events chosen by the scheduler handed
        over in :meth:`drive`.

        Returns the executed count; fewer than *budget* means the system
        went quiescent. While :attr:`step_log` is a list, each executed
        step appends ``(index, pid, seq, label id, lifecycle code,
        oracle queries, oracle true)`` to it, with ``seq`` and the label
        id ``None`` for a timeout; a step that raises appends nothing.
        """
        sched = self.sched
        if sched is None:
            raise ConfigurationError("run_batch requires a scheduler; call drive()")
        self._cert_pending = True
        if self._pool is not None:
            return self._run_batch_random(sched, budget)
        select = (
            (lambda: self._replay_select(sched))
            if isinstance(sched, ReplayScheduler)
            else (lambda: sched.select(None))
        )
        slot_of = self.slot_of
        log = self.step_log
        net = self.net
        executed = 0
        while executed < budget:
            # Engine._step_objects: the transport's due events first, and
            # a starved scheduler waits on the transport clock.
            if net is not None:
                net.flush(self.steps)
            ev = select()
            if ev is None and net is not None:
                for _ in range(_DRY_TRIES):
                    if not net.run_dry():
                        break
                    ev = select()
                    if ev is not None:
                        break
            if ev is None:
                break
            u = slot_of[ev.pid]
            if type(ev) is TimeoutEvent:
                self._run_timeout(u)
                seq = label_id = None
            else:
                seq = ev.seq
                label_id = self._run_delivery(u, seq)
            if log is not None:
                log.append(
                    (self.steps, ev.pid, seq, label_id, self.state_[u], self.oq, self.otrue)
                )
            self._after_step()
            executed += 1
        return executed

    def _run_batch_random(self, sched: RandomScheduler, budget: int) -> int:
        """:meth:`run_batch` specialized for the default scheduler.

        ``RandomScheduler.select`` (one ``randrange`` + a swap-remove) and
        the per-step bookkeeping are inlined: at n=4096 the generic
        select-and-dispatch loop spends a third of its time on these
        delegating calls alone.
        """
        pool = self._pool
        pos = self._pos
        # randrange(n) for a positive int upper bound is exactly
        # _randbelow(n), and _randbelow_with_getrandbits is small enough
        # to inline below: the identical random bits are consumed while
        # skipping two Python call frames per step.
        getrandbits = sched._rng.getrandbits  # noqa: SLF001
        slot_of = self.slot_of
        pid_mask = PID_MASK
        # the event handlers' containers, hoisted out of the loop.
        ch = self.ch
        state_ = self.state_
        in_ = self.in_
        mark = self._dirty.add
        mode_ = self.mode_
        deliveries_by = self.deliveries_by
        timeouts_by = self.timeouts_by
        last_acted = self.last_acted
        deliver_kernels = self._deliver_kernels
        n_labels = len(deliver_kernels)
        timeout_kernel = self._timeout_kernel
        strict = self.strict
        log = self.step_log
        net = self.net
        if net is not None:
            flush = net.flush
            run_dry = net.run_dry
        # Per-step scalar counters, batched into locals and flushed on
        # every exit path: the kernels never read them mid-batch, and
        # _transition (the one callee that reads self.steps) gets the
        # current value written just before each call site.
        steps = self.steps
        last_phi = self.last_phi_seen
        lprog = self.last_progress
        dcount = 0
        executed = 0
        try:
            while executed < budget:
                if net is not None:
                    # as in run_batch: transport events, then starvation
                    flush(steps)
                    if not pool:
                        for _ in range(_DRY_TRIES):
                            if not run_dry() or pool:
                                break
                lp = len(pool)
                if not lp:
                    break
                # inline Random._randbelow_with_getrandbits(lp)
                k = lp.bit_length()
                r = getrandbits(k)
                while r >= lp:
                    r = getrandbits(k)
                enc = pool[r]
                if enc > pid_mask:
                    # inline sched._remove(enc): swap-remove, order-faithful.
                    idx = pos.pop(enc)
                    last = pool.pop()
                    if last != enc:
                        pool[idx] = last
                        pos[last] = idx
                    # inline _run_delivery(u, seq). The gone-process
                    # contract check is elided: notify_gone strips every
                    # pending delivery of a gone process from the pool.
                    pid = enc & pid_mask
                    seq = (enc >> PID_BITS) - 1
                    u = slot_of[pid]
                    rec = ch[u].pop(seq)
                    subj = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
                    bel = (rec >> _BEL_SHIFT) & 3
                    if subj >= 0:
                        # _edge(u, subj, normalized bel, -1) (dequeue edge).
                        inn = in_[subj]
                        c = inn[u] - 1
                        if c:
                            inn[u] = c
                        else:
                            del inn[u]
                            mark(subj)
                        self.edge_total -= 1
                        if (_STAYING if bel == _NONE else bel) != mode_[subj]:
                            self.phi -= 1
                    if state_[u] == _ASLEEP:
                        self.steps = steps
                        self._transition(u, _AWAKE)
                    label_id = rec & _LABEL_MASK
                    if label_id >= n_labels:
                        # "All other messages will be ignored by the processes."
                        self.dropped += 1
                        if strict:
                            tname = "FSPProcess" if self.is_fsp else "FDPProcess"
                            raise UnknownActionError(
                                f"process {self.pids[u]} ({tname}) has no action "
                                f"'{self.labels[label_id]}'"
                            )
                    else:
                        deliver_kernels[label_id](u, subj, bel)
                    dcount += 1
                    deliveries_by[u] += 1
                    last_acted[u] = steps
                    if log is not None:
                        log.append(
                            (steps, pid, seq, label_id, state_[u], self.oq, self.otrue)
                        )
                else:
                    # inline _run_timeout(u): the pool only holds timeout
                    # entries for awake processes, so the contract check is
                    # elided.
                    u = slot_of[enc]
                    requested = timeout_kernel(u)
                    if requested is not None:
                        self.steps = steps
                        self._transition(u, requested)
                    timeouts_by[u] += 1
                    last_acted[u] = steps
                    if state_[u] == _AWAKE:
                        # the re-enable stamp; RandomScheduler's
                        # notify_timeout_executed ignores it.
                        self.clock += 1
                    if log is not None:
                        log.append(
                            (steps, enc, None, None, state_[u], self.oq, self.otrue)
                        )
                # inline _after_step()
                steps += 1
                phi = self.phi
                if last_phi is None or phi > last_phi:
                    last_phi = phi
                elif phi < last_phi:
                    last_phi = phi
                    lprog = steps
                executed += 1
        finally:
            self.steps = steps
            self.stat_steps += executed
            self.deliveries += dcount
            self.timeouts += executed - dcount
            self.last_phi_seen = last_phi
            if lprog > self.last_progress:
                self.last_progress = lprog
        return executed

    def take_steps(self) -> list[tuple]:
        """Empty :attr:`step_log`, returning its steps oldest first as
        :class:`~repro.sim.engine.ExecutedStep` argument tuples."""
        log = self.step_log
        labels = self.labels
        steps = [
            (index, "timeout", pid, None, None, _STATE_BY_CODE[st], oq, ot)
            if seq is None
            else (index, "deliver", pid, labels[lid], seq, _STATE_BY_CODE[st], oq, ot)
            for index, pid, seq, lid, st, oq, ot in log
        ]
        log.clear()
        return steps

    # ------------------------------------------------------------------ mirroring (verify)

    def mirror_step(self, engine: Engine, executed: Any) -> None:
        """Replay *executed* (the object step's record) through the int
        kernels and cross-check the cheap invariants; raises
        :class:`~repro.errors.StateViolation` on divergence."""
        u = self.slot_of[executed.pid]
        pre_state = self.state_[u]
        pre_gen = self.gen_[u]
        self._cert_pending = True
        if executed.kind == "timeout":
            self._run_timeout(u)
        else:
            self._run_delivery(u, executed.seq)
        self._after_step()
        self._check_step(engine, executed, u)
        if (
            self.state_[u] == _GONE
            and pre_state != _GONE
            and self.gen_[u] != pre_gen + 1
        ):
            # Tagged-ref contract (slot | gen << REF_SLOT_BITS): a slot
            # whose process exits must change generation, or a stale
            # reference would compare equal to a live one.
            raise StateViolation(
                "struct-of-arrays core diverged from the object engine at "
                f"step {engine.step_count} ({executed!r}): generation of "
                f"slot {u} not bumped on exit (gen={self.gen_[u]})"
            )

    def _check_step(self, engine: Engine, executed: Any, u: int) -> None:
        """Per-step cross-check: every :data:`_COUNTERS` scalar, Φ,
        pending and edge totals (while the live graph is current) and the
        acting process's lifecycle state. The O(n) per-pid tallies wait
        for :meth:`verify_full`."""
        want = _STATE_BY_CODE.index(engine.processes[executed.pid].state)
        wrong = (
            [f"state[{executed.pid}]: core={self.state_[u]} obj={want}"]
            if self.state_[u] != want
            else []
        )
        self.cross_check(engine, repr(executed), wrong)

    def cross_check(self, engine: Engine, what: str, wrong: Iterable[str] = ()) -> None:
        """Verify mode's check after *what*, a mirrored step or a core
        operation applied to both sides: every :data:`_COUNTERS` scalar,
        plus Φ, pending and edge totals while the live graph is current.
        *wrong* lists mismatches the caller already found."""
        mismatches = self._counter_mismatches(engine) + list(wrong)
        live = engine._live  # noqa: SLF001
        if live is not None and not engine._live_stale:  # noqa: SLF001
            mismatches += self._total_mismatches(live)
        if mismatches:
            raise StateViolation(
                "struct-of-arrays core diverged from the object engine at "
                f"step {engine.step_count} ({what}): "
                + "; ".join(mismatches)
            )

    def _counter_mismatches(self, engine: Engine) -> list[str]:
        """One line per :data:`_COUNTERS` row whose core value differs
        from the engine's."""
        self._sync_flow()
        if engine._lifecycle_stale:  # noqa: SLF001
            engine._recount_lifecycle()  # noqa: SLF001
        return [
            f"{attr}: core={getattr(self, name)} obj={getattr(owner, attr)}"
            for name, owner, attr in _engine_side(engine)
            if getattr(self, name) != getattr(owner, attr)
        ]

    def _total_mismatches(self, live: Any) -> list[str]:
        """Φ, edge and pending totals against the live graph's."""
        return [
            f"{name}: core={got} obj={want}"
            for name, got, want in (
                ("phi", self.phi, live.phi),
                ("edges", self.edge_total, live.edge_total),
                ("pending", self.pending, live.pending_total),
            )
            if got != want
        ]

    # ------------------------------------------------------------------ deep verify

    def verify_full(self, engine: Engine) -> None:
        """Deep structural comparison against the object model; raises
        :class:`~repro.errors.StateViolation` listing every mismatch."""
        mismatches = self._counter_mismatches(engine)
        slot_of = self.slot_of
        want_pop = {p for p in self.pids if p is not None}
        if set(engine.processes) != want_pop:
            mismatches.append(
                f"population: core={sorted(want_pop)} obj={sorted(engine.processes)}"
            )
        for i, pid in enumerate(self.pids):
            if pid is None:
                continue
            proc = engine.processes[pid]
            want = _STATE_BY_CODE.index(proc.state)
            if self.state_[i] != want:
                mismatches.append(f"pid {pid} state: {self.state_[i]} != {want}")
            obj_n = [
                (slot_of[r._pid], _code(b))  # noqa: SLF001
                for r, b in proc.N.items()
            ]
            if list(self.N[i].items()) != obj_n:
                mismatches.append(f"pid {pid} N: {list(self.N[i].items())} != {obj_n}")
            anchor = proc.anchor
            aslot = -1 if anchor is None else slot_of[anchor._pid]  # noqa: SLF001
            if self.anchor_[i] != aslot:
                mismatches.append(f"pid {pid} anchor: {self.anchor_[i]} != {aslot}")
            elif aslot >= 0 and self.abelief_[i] != _code(proc.anchor_belief):
                mismatches.append(
                    f"pid {pid} anchor_belief: {self.abelief_[i]} != "
                    f"{_code(proc.anchor_belief)}"
                )
            if self.is_fsp:
                obj_pk = [
                    (slot_of[r._pid], _code(b))  # noqa: SLF001
                    for r, b in proc.parked.items()
                ]
                if list(self.parked[i].items()) != obj_pk:
                    mismatches.append(f"pid {pid} parked differs")
                if bool(self.averified_[i]) != proc.anchor_verified:
                    mismatches.append(f"pid {pid} anchor_verified differs")
                if bool(self.aprobe_[i]) != proc.anchor_probe_sent:
                    mismatches.append(f"pid {pid} anchor_probe_sent differs")
            chan = engine.channels[pid]
            got = list(self.ch[i].items())
            want_ch = [(m.seq, self._encode_msg(m, self._label_of)) for m in chan]
            if got != want_ch:
                mismatches.append(f"pid {pid} channel: {got} != {want_ch}")
        for name in _TALLIES:
            by = getattr(engine.stats, name)
            if self._tally(name) != {p: c for p, c in by.items() if c}:
                mismatches.append(f"{name} differs")
        # Pin-invariant oracle: recount the dead pins from first
        # principles (every reference physically held by a gone slot,
        # self-references excluded) and compare to the running counts.
        want_pins: dict[int, int] = {}
        for i, pid in enumerate(self.pids):
            if pid is None or self.state_[i] != _GONE:
                continue
            for v in self._held(i):
                if v != i:
                    want_pins[v] = want_pins.get(v, 0) + 1
        if want_pins != self.dead_pins:
            mismatches.append(
                f"dead_pins: running={self.dead_pins} recount={want_pins}"
            )
        mismatches += self._total_mismatches(engine.live_graph)
        if mismatches:
            raise StateViolation(
                "struct-of-arrays core state diverged from the object model: "
                + "; ".join(mismatches[:20])
                + (f" (+{len(mismatches) - 20} more)" if len(mismatches) > 20 else "")
            )

    # ------------------------------------------------------------------ export (soa)

    def export_counters(self, engine: Engine) -> None:
        """Write the core's scalar counters back into the engine: the
        run statistics, step count, clocks, lifecycle counts and
        progress marks, every :data:`_COUNTERS` row and nothing else.

        This is the cheap part of an export, done after every core
        batch. The per-pid tallies are O(n) dicts, so they are only
        deferred: the engine's stats build them from the core when one
        is first read (:meth:`~repro.sim.engine.EngineStats.defer_tallies`),
        or at :meth:`export_to`. The live view is disarmed, since the
        process stores and channels it was fed from are now behind the
        core; the next object read completes the export.
        """
        self._sync_flow()
        engine._live_stale = True  # noqa: SLF001
        engine._stale = True  # noqa: SLF001
        engine._snapshot_cache = None  # noqa: SLF001
        stats = engine.stats
        for name, in_stats, attr in _ROWS:
            setattr(stats if in_stats else engine, attr, getattr(self, name))
        engine._lifecycle_stale = False  # noqa: SLF001
        engine.stats.defer_tallies(self._fill_tallies)

    def _fill_tallies(self, stats: Any) -> None:
        """Write the per-pid tallies into *stats* (pid → count dicts)."""
        for name in _TALLIES:
            setattr(stats, name, self._tally(name))

    def export_to(self, engine: Engine) -> None:
        """Write the core's whole state back into the object model.

        The counters (:meth:`export_counters`) and the per-pid tallies,
        then every process's lifecycle state, tracked stores and
        channel, so the engine continues (predicates, analysis, further
        object-path steps) as if the object loop had executed every
        event itself.
        """
        self.export_counters(engine)
        engine.stats.load_tallies()
        processes = engine._processes  # noqa: SLF001
        channels = engine._channels  # noqa: SLF001
        procs = [processes[pid] if pid is not None else None for pid in self.pids]
        # Reaped slots leave a None hole; nothing live can reference one
        # (reap requires zero in-edges and zero dead pins), so refs[v] is
        # never dereferenced for a hole.
        refs = [p.self_ref if p is not None else None for p in procs]
        labels = self.labels
        for i, proc in enumerate(procs):
            if proc is None:
                continue
            # Bulk state restore: the core executed the lifecycle
            # transitions itself (legality enforced by the kernels), so
            # this is the engine writing back its own bookkeeping.
            proc._state = _STATE_BY_CODE[self.state_[i]]  # noqa: SLF001  # repro: noqa[API003]
            d = proc.N._d  # noqa: SLF001
            d.clear()
            for v, bel in self.N[i].items():
                d[refs[v]] = _MODE_BY_CODE[bel]
            cell = proc._anchor_cell  # noqa: SLF001
            a = self.anchor_[i]
            cell._ref = refs[a] if a >= 0 else None  # noqa: SLF001
            cell._belief = _MODE_BY_CODE[self.abelief_[i]]  # noqa: SLF001
            if self.is_fsp:
                d = proc.parked._d  # noqa: SLF001
                d.clear()
                for v, bel in self.parked[i].items():
                    d[refs[v]] = _MODE_BY_CODE[bel]
                proc.anchor_verified = bool(self.averified_[i])
                proc.anchor_probe_sent = bool(self.aprobe_[i])
            proc._ref_log.pending.clear()  # noqa: SLF001
            msgs: dict[int, Message] = {}
            for seq, rec in self.ch[i].items():
                subj = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1
                spid = (rec >> _SENDER_SHIFT) - 1
                sender = spid if spid >= 0 else None
                if subj >= 0:
                    args: tuple = (
                        RefInfo(refs[subj], _MODE_BY_CODE[(rec >> _BEL_SHIFT) & 3]),
                    )
                else:
                    args = ()
                msgs[seq] = Message(labels[rec & _LABEL_MASK], args, seq, sender)
            channels[self.pids[i]]._messages = msgs  # noqa: SLF001
        # The engine now matches the core exactly — the export itself is
        # not a reason to rebuild the core on the next run.
        engine._core_stale = False  # noqa: SLF001
