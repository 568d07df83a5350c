"""The simulation engine: atomic action execution over the paper's model.

:class:`Engine` owns the processes, their channels, the scheduler and the
oracle, and executes one enabled action per :meth:`step`, exactly as the
model of Section 1.1 prescribes:

* an enabled **timeout** runs the process's timeout action;
* an enabled **delivery** removes one message from a channel and invokes
  the action its label names, waking the receiver if it was asleep;
* actions are atomic — the next event is selected only after the current
  action (including all its sends and its requested ``exit``/``sleep``
  transition) completes;
* messages whose label matches no action of the receiver are ignored
  (dropped), per the model; *strict* mode turns this into an error so the
  test-suite catches typos.

The engine is also the measurement instrument: it evaluates oracles,
computes the potential Φ of Lemma 3, answers connectivity queries and
exposes the run statistics the experiment harness aggregates. Those
observations are served by a :class:`~repro.graphs.livegraph.LiveGraph`
fed with typed deltas at every mutation source (channel enqueue/dequeue,
per-action ref store/drop diffs, lifecycle transitions), so per-step
observation cost scales with the *change*, not the *system*. It is
built on demand (:meth:`Engine.attach`), so a soa engine whose core
answers every query never builds one:

* ``potential()`` reads a running counter (O(1));
* ``partner_pids()`` reads the live partner index (O(deg));
* connectivity checks use an epoch-based union-find (O(Δ) amortized);
* ``snapshot()`` materializes an immutable
  :class:`~repro.graphs.snapshot.ProcessGraph` on demand (cached per
  state) for analysis code that wants the whole graph at once.

Deltas commit at atomic-action boundaries: an oracle consulted *inside*
an action observes the pre-action explicit edges plus all sends made so
far. This is equivalent for the shipped oracles — a process's in-edges
cannot change during its own action, and the protocols' purge-to-message
idiom (dropping a stored ref by mailing it to oneself) preserves the
outgoing partner multiset mid-action.

:meth:`Engine.rebuild_snapshot` rebuilds PG by a from-scratch scan; it is
the differential-testing oracle for the live graph, never an observation
path.

``engine_mode`` selects the execution core the same way: ``"objects"``
(default) runs the historical object-per-process step loop above;
``"soa"`` executes eligible runs on the struct-of-arrays
:class:`~repro.sim.soa.EngineCore` (int-slotted processes, tagged-int
refs) and exports its state back into the object model when something
first reads an object;
``"verify"`` runs both in lockstep and raises
:class:`~repro.errors.StateViolation` on any divergence — the
differential oracle. Verify mode also cross-checks each action's
write-through ref log against a before/after fingerprint diff.

The read methods above form one query facade (:meth:`Engine._checked`):
``potential()``, ``edge_count``, ``pending_count``, ``describe()``,
``progress_diagnostics()``, ``partners()``/``partner_pids()``,
``hops()``, ``same_component()``, ``component_labels()``, ``state_of()``,
``lifecycle_clauses()``, ``staying_pids()``, ``relevant_pids()`` (with
no sleepers) and ``beliefs_of()``. While the soa core holds
the current state it answers them in the int domain; otherwise the live
graph (or the object model) does. Verify mode answers from the live graph and cross-checks
the core's answer. In soa mode the ``processes``/``channels`` properties
complete any export the core deferred (at a predicate boundary or at the
end of a run), so object readers stay exact; the open-system operations
(``admit``, ``request_leave``, ``can_reap``, ``reap``, ``reap_gone``)
never need it, nor do the out-of-band fault operations a chaos
campaign uses (``post`` with ``sender=None`` and one ``RefInfo``,
``rewrite_beliefs``): while the core is current they write the core,
and verify mode writes both sides and cross-checks them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    CopyStoreSendViolation,
    SlotRecycleOverflow,
    StateViolation,
    UnknownActionError,
)
from repro.graphs.connectivity import first_member_labels, hop_distance
from repro.graphs.livegraph import LiveGraph, explicit_fingerprint
from repro.graphs.snapshot import Edge, EdgeKind, NodeView, ProcessGraph
from repro.sim.channel import Channel
from repro.sim.messages import Message, RefInfo, iter_refs
from repro.sim.process import ActionContext, Process
from repro.sim.refs import KeyProvider, Ref, pid_of
from repro.sim.scheduler import (
    PID_BITS,
    DeliverEvent,
    RandomScheduler,
    Scheduler,
    TimeoutEvent,
)
from repro.sim.states import LEGAL_TRANSITIONS, Capability, Mode, PState

__all__ = ["Engine", "ExecutedStep", "EngineStats", "TRACE_BATCH_CAP"]

#: Oracle signature: a predicate over (engine, pid) — equivalently over the
#: current process graph and the calling process, the paper's O : PG × P.
Oracle = Callable[["Engine", int], bool]


#: Most steps a core batch runs while the engine has a tracer: the core
#: logs a batch's steps and hands them over at its end, so this bounds
#: the log's memory.
TRACE_BATCH_CAP = 4096

#: how many times a step whose scheduler starves lets the reliable
#: transport fast-forward (``ReliableTransport.run_dry``) before the
#: run counts as quiescent; the core's batches keep the same bound.
_DRY_TRIES = 32


def _check_pid(pid: int) -> None:
    if not 0 <= pid < 1 << PID_BITS:
        raise ConfigurationError(
            f"pid {pid} outside [0, 2**{PID_BITS}); the scheduler pool packs "
            f"pids into {PID_BITS} bits"
        )


class ExecutedStep:
    """Record of one executed event, handed to monitors and tracers.

    One is allocated per step, so this is a ``__slots__`` class (not a
    dataclass) to keep the hot loop allocation-light. Treat as immutable.
    ``oracle_queries`` and ``oracle_true`` are the run's cumulative
    oracle counters after the step, so a tracer needs nothing but the
    step to record what the oracle saw.
    """

    __slots__ = (
        "index", "kind", "pid", "label", "seq", "new_state",
        "oracle_queries", "oracle_true",
    )

    def __init__(
        self,
        index: int,
        kind: str,  # "timeout" | "deliver"
        pid: int,
        label: str | None = None,
        seq: int | None = None,
        new_state: PState | None = None,
        oracle_queries: int = 0,
        oracle_true: int = 0,
    ) -> None:
        self.index = index
        self.kind = kind
        self.pid = pid
        self.label = label
        self.seq = seq
        self.new_state = new_state
        self.oracle_queries = oracle_queries
        self.oracle_true = oracle_true

    def _key(self) -> tuple:
        return (
            self.index, self.kind, self.pid, self.label, self.seq,
            self.new_state, self.oracle_queries, self.oracle_true,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExecutedStep):
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"ExecutedStep(index={self.index}, kind={self.kind!r}, "
            f"pid={self.pid}, label={self.label!r}, seq={self.seq}, "
            f"new_state={self.new_state}, oracle_queries={self.oracle_queries}, "
            f"oracle_true={self.oracle_true})"
        )


#: The per-pid tally fields of :class:`EngineStats` (pid → count dicts).
_TALLY_FIELDS: tuple[str, ...] = ("timeouts_by", "deliveries_by", "sent_by", "received_by")


@dataclass
class EngineStats:
    """Counters accumulated over a run.

    The ``*_by`` dicts hold per-process counts (pid → count) — the raw
    material for fairness and load-balance analysis: who executed how
    often, who sent how much, whose channel received how much. After a
    struct-of-arrays batch they are deferred (:meth:`defer_tallies`) and
    built on their first read.
    """

    steps: int = 0
    timeouts: int = 0
    deliveries: int = 0
    messages_posted: int = 0
    dropped_unknown: int = 0
    dropped_gone: int = 0
    bounced: int = 0
    exits: int = 0
    sleeps: int = 0
    wakes: int = 0
    oracle_queries: int = 0
    oracle_true: int = 0
    timeouts_by: dict = field(default_factory=dict)
    deliveries_by: dict = field(default_factory=dict)
    sent_by: dict = field(default_factory=dict)
    received_by: dict = field(default_factory=dict)

    @staticmethod
    def _bump(counter: dict, pid: int) -> None:
        counter[pid] = counter.get(pid, 0) + 1

    def defer_tallies(self, fill: Callable[["EngineStats"], None]) -> None:
        """Drop the ``*_by`` dicts until one is read; *fill* then writes
        all four. A soa engine defers them at every batch export, so
        only a reader pays the O(n) build."""
        d = self.__dict__
        for name in _TALLY_FIELDS:
            d.pop(name, None)
        d["_fill_tallies"] = fill

    def load_tallies(self) -> None:
        """Build deferred ``*_by`` dicts now (no-op if none are)."""
        fill = self.__dict__.pop("_fill_tallies", None)
        if fill is not None:
            fill(self)

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks: a deferred tally.
        if name in _TALLY_FIELDS and "_fill_tallies" in self.__dict__:
            self.load_tallies()
            return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def as_dict(self) -> dict[str, int]:
        """Scalar counters only (per-pid detail via the ``*_by`` attrs)."""
        return {
            k: v for k, v in self.__dict__.items() if isinstance(v, int)
        }

    def load_imbalance(self) -> float:
        """max/mean ratio of per-process delivered messages (1.0 = even).

        Returns 1.0 for empty runs.
        """
        if not self.deliveries_by:
            return 1.0
        values = list(self.deliveries_by.values())
        mean = sum(values) / len(values)
        return (max(values) / mean) if mean else 1.0


class Engine:
    """Executes a protocol over a set of processes under a fair scheduler.

    Parameters
    ----------
    processes:
        The process population. Pids must be unique ints in
        ``[0, 2**PID_BITS)`` (:data:`~repro.sim.scheduler.PID_BITS` is 32):
        the default scheduler packs a pid into the low bits of each pool
        entry. :meth:`admit` enforces the same bound.
    scheduler:
        A :class:`~repro.sim.scheduler.Scheduler`; defaults to a seeded
        :class:`~repro.sim.scheduler.RandomScheduler`.
    capability:
        Which special commands exist: ``Capability.EXIT`` for FDP runs,
        ``Capability.SLEEP`` for FSP runs.
    oracle:
        Oracle predicate consulted via ``ctx.oracle()``; ``None`` means any
        consultation raises (protocols that never consult may omit it).
        :class:`~repro.core.oracles.AuditedOracle` checks its true
        verdicts against a reference oracle.
    seed:
        Seed of the default :class:`~repro.sim.scheduler.RandomScheduler`,
        used only when *scheduler* is ``None``.
    strict:
        If True, messages with unknown labels raise
        :class:`~repro.errors.UnknownActionError` instead of being ignored.
    monitors:
        Callables ``(engine, executed_step) -> None`` run after every step,
        in order; they raise :class:`~repro.errors.SafetyViolation` on
        invariant breaks. A monitor may declare ``next_wakeup(step)``,
        the next step count after *step* at which its call may act
        (``None``: never again), a sound lower bound that may depend
        on the engine's current state. When every monitor does, a
        ``soa`` run stays on the core: :meth:`run` ends each core batch
        at the earliest wakeup (or sooner) and calls every monitor after
        it with ``executed_step=None``, so such a monitor reads only O(1) or
        core-served engine state (docs/OBSERVABILITY.md "Monitors on the
        core"). Any other monitor keeps the run on the object loop.
    tracer:
        Optional object whose ``record(engine, executed_step)`` is called
        once per step, in step order, e.g. a
        :class:`~repro.sim.tracing.Tracer` or a
        :class:`~repro.obs.trace.JsonlTraceSink`. On the object loop it
        runs after each step, before the monitors. A ``soa`` run keeps
        the tracer on the core: the core logs each step, and
        :meth:`run` hands a batch's steps over at the end of the batch
        (before the predicate runs, and before the run returns or
        re-raises). So a tracer reads only the ``ExecutedStep`` it is
        given, plus O(1) engine counters at the step counts that are
        multiples of its optional ``metrics_every`` attribute, where
        batches end. Batches run at most :data:`TRACE_BATCH_CAP` steps.
    require_staying_per_component:
        Validate the paper's Section 3/4 precondition that every weakly
        connected component initially contains a staying process.
    engine_mode:
        Which execution core runs the step loop. ``"objects"`` (default)
        is the object-per-process loop. ``"soa"`` executes eligible runs
        (homogeneous FDP/FSP populations under a core-drivable
        scheduler, monitors that declare ``next_wakeup``) on the
        struct-of-arrays
        :class:`~repro.sim.soa.EngineCore` and falls back to the object
        loop otherwise. ``"verify"`` executes every step on both cores
        and cross-checks them — the differential oracle. It also diffs
        each action's ``explicit_fingerprint`` against the write-through
        :class:`~repro.sim.refs.RefDeltaLog` the live graph drains
        otherwise. ``None`` consults the ``REPRO_ENGINE_MODE``
        environment variable.
    """

    def __init__(
        self,
        processes: Iterable[Process],
        scheduler: Scheduler | None = None,
        *,
        capability: Capability = Capability.EXIT,
        oracle: Oracle | None = None,
        seed: int = 0,
        strict: bool = True,
        monitors: Sequence[Callable[["Engine", ExecutedStep], None]] = (),
        tracer: Any | None = None,
        require_staying_per_component: bool = True,
        engine_mode: str | None = None,
    ) -> None:
        self._processes: dict[int, Process] = {}
        for proc in processes:
            _check_pid(proc.pid)
            if proc.pid in self._processes:
                raise ConfigurationError(f"duplicate pid {proc.pid}")
            self._processes[proc.pid] = proc
        self._channels: dict[int, Channel] = {}
        for pid in self._processes:
            # Observed from the start: direct channel surgery marks the
            # core stale, and a live graph (once built) takes the deltas.
            channel = self._channels[pid] = Channel()
            channel.observer = partial(self._observe_channel, pid)
        self.scheduler: Scheduler = (
            scheduler if scheduler is not None else RandomScheduler(seed)
        )
        self.capability = capability
        self._oracle = oracle
        #: ordered keys for protocols declaring ``requires_order``.
        self._key_provider = KeyProvider()
        self.strict = strict
        self.monitors = list(monitors)
        self.tracer = tracer
        self._require_staying = require_staying_per_component

        #: scheduler freshness stamps — deliberately SEPARATE from message
        #: sequence numbers: schedulers consume stamps at attach/bookkeeping
        #: time in scheduler-specific amounts, and message seqs must stay a
        #: pure function of the posting order so that recorded schedules
        #: replay bit-identically under a ReplayScheduler. Plain ints (not
        #: itertools.count) so the struct-of-arrays core can read the
        #: current position and hand the counters back after a batch.
        self._clock = 0
        self._msg_seq = 0
        self.stats = EngineStats()
        self.step_count = 0
        self._attached = False
        self._stale = True
        self._live_stale = False
        self._snapshot_cache: ProcessGraph | None = None
        self._initial_components: tuple[frozenset[int], ...] | None = None
        self._initial_pid_union: frozenset[int] | None = None
        if engine_mode is None:
            engine_mode = os.environ.get("REPRO_ENGINE_MODE", "objects")
        if engine_mode not in ("objects", "soa", "verify"):
            raise ConfigurationError(
                f"unknown engine_mode {engine_mode!r} (objects|soa|verify)"
            )
        self._engine_mode = engine_mode
        #: the struct-of-arrays execution core (``engine_mode`` soa/verify);
        #: ``None`` when the population/config is core-ineligible, with the
        #: reason kept for ``core_status``.
        self._core: Any | None = None
        self._core_stale = False
        #: verify mode's record of the last partition epoch served and
        #: the raw core label of every non-gone pid under it.
        self._epoch_labels: tuple[object, dict[int, int]] | None = None
        #: True while the core is ahead of the process stores and
        #: channels: a soa predicate boundary exported only the counters.
        #: The ``processes``/``channels`` properties finish the export.
        self._export_pending = False
        self._core_reason: str | None = (
            None if engine_mode != "objects" else "engine_mode=objects"
        )
        #: True while :meth:`step` is executing — distinguishes in-step
        #: mutations (which the verify core replays itself) from
        #: out-of-band ones (fault injection, tests poking state), which
        #: mark the core stale for a rebuild.
        self._stepping = False
        #: True → drain write-through logs; False (verify mode) →
        #: additionally cross-check them against fingerprint diffs.
        self._track = engine_mode != "verify"
        #: pooled action context, reset per action instead of allocated.
        self._ctx = ActionContext(self, None)  # type: ignore[arg-type]
        self._live: LiveGraph | None = None
        #: lifecycle counters maintained at the same transition points
        #: that feed the live graph (counted at attach); they replace
        #: the O(n) sleeper/gone scans on the observation hot paths.
        #: ``_lifecycle_stale`` defers the recount after out-of-band
        #: mutations until a counter is actually read — step and describe
        #: paths never pay the O(n) scan.
        self._asleep_count = 0
        self._gone_count = 0
        self._lifecycle_stale = True
        #: open-system churn tallies: processes admitted mid-run and gone
        #: processes reclaimed. ``_retired_pids`` remembers reaped pids so
        #: a pid can never be reused — references must stay unambiguous
        #: for the lifetime of a run (the object-model analogue of the
        #: core's generation-tagged slots).
        self.admitted_count = 0
        self.reaped_count = 0
        self._retired_pids: set[int] = set()
        #: journal of open-system mutations (admit/leave/reap) with the
        #: step index each was applied at — everything a failure capsule
        #: needs to replay a churn run bit-identically.
        self.churn_journal: list[dict] = []
        #: open-system workload counters; set by
        #: :class:`repro.traffic.TrafficDriver`, read by the O(1) traffic
        #: probes in :mod:`repro.obs.metrics` (None = no traffic attached).
        self.traffic_stats = None
        #: reliable-delivery transport over an unreliable underlay; set
        #: by :meth:`repro.net.ReliableTransport.install` (None = the
        #: paper's perfect channels). ``net_stats`` mirrors its O(1)
        #: counters for the ``net_*`` probes in :mod:`repro.obs.metrics`.
        self.net = None
        self.net_stats = None
        #: step index of the last observed progress event: a lifecycle
        #: transition or a strict Φ decrease.
        self._last_progress_step = 0
        self._last_phi_seen: int | None = None

    # ------------------------------------------------------------------ plumbing

    def next_stamp(self) -> int:
        """Advance and return the global freshness clock."""
        value = self._clock
        self._clock = value + 1
        return value

    @property
    def _dirty(self) -> bool:
        return self._stale

    @_dirty.setter
    def _dirty(self, value: bool) -> None:
        # Out-of-band mutation hook. Tests and tools that edit process or
        # channel state directly (rather than through actions) signal it by
        # setting ``engine._dirty = True``; the live graph cannot have seen
        # those edits, so schedule a full lazy rebuild and mark the
        # lifecycle counters stale (recounted on next read, never on the
        # step path). Engine-internal code paths — whose mutations the
        # live graph *does* observe as deltas — set ``_stale`` instead.
        if value:
            self._complete_export()
        self._stale = bool(value)
        if value:
            self._lifecycle_stale = True
            if self._live is not None:
                self._live_stale = True
            if self._core is not None:
                self._core_stale = True

    @property
    def processes(self) -> dict[int, Process]:
        """pid → process, for every process in the system (gone ones
        included, reaped ones not).

        Reading it completes any export the struct-of-arrays core has
        deferred, so callers always see the exact current state. A soa
        :meth:`run` returns with the export deferred, so a
        :class:`~repro.sim.process.Process` held across a run is stale
        until this property is read again. The engine's own step loop
        reads the private dict instead.
        """
        if self._export_pending:
            self._complete_export()
        return self._processes

    @property
    def channels(self) -> dict[int, Channel]:
        """pid → channel, completing any deferred core export first
        (see :attr:`processes`)."""
        if self._export_pending:
            self._complete_export()
        return self._channels

    def _complete_export(self) -> None:
        """Finish a deferred core export: process stores and channels.

        Every path that reads the objects, drops or rebuilds the core,
        or falls back to the object loop goes through here first.
        """
        if self._export_pending:
            self._export_pending = False
            self._core.export_to(self)

    @property
    def engine_mode(self) -> str:
        """Active execution core: ``"objects"``, ``"soa"`` or ``"verify"``."""
        return self._engine_mode

    @property
    def core_status(self) -> dict[str, Any]:
        """Whether the struct-of-arrays core is active, and why not if not.

        O(1); safe for probes. ``active`` is True when a core instance is
        mirroring (verify) or eligible to drive (soa) this engine.
        """
        return {
            "engine_mode": self._engine_mode,
            "active": self._core is not None,
            "reason": self._core_reason,
        }

    @property
    def asleep_count(self) -> int:
        """Number of currently asleep processes (O(1) counter; recounted
        lazily after out-of-band mutations)."""
        if self._lifecycle_stale:
            self._recount_lifecycle()
        return self._asleep_count

    @property
    def gone_count(self) -> int:
        """Number of gone processes (O(1) counter; recounted lazily after
        out-of-band mutations)."""
        if self._lifecycle_stale:
            self._recount_lifecycle()
        return self._gone_count

    @property
    def alive_count(self) -> int:
        """Number of processes that are not gone (O(1), no export)."""
        return len(self._processes) - self.gone_count

    @property
    def last_progress_step(self) -> int:
        """Step index of the most recent progress event.

        Progress means a lifecycle transition (exit/sleep/wake) or a
        strict Φ decrease (Φ is an O(1) live-graph read). Watchdogs and
        the budget-exhaustion diagnostics use it to say *when* a stuck
        run last did anything useful.
        """
        return self._last_progress_step

    def progress_diagnostics(self) -> dict[str, int]:
        """Where the run stands right now, as a plain dict.

        The payload :meth:`run` attaches to a budget-exhaustion
        :class:`~repro.errors.ConvergenceError`: current Φ, pending
        messages, gone/asleep counts and the last-progress step. All O(1)
        counter reads, from the core or the live graph (see
        :meth:`_checked`).
        """
        return {
            "step": self.step_count,
            "phi": self.potential(),
            "pending": self.pending_count,
            "edges": self.edge_count,
            "gone": self.gone_count,
            "asleep": self.asleep_count,
            "last_progress_step": self._last_progress_step,
        }

    @property
    def edge_count(self) -> int:
        """Number of edges in PG (parallel copies and self-loops counted).

        O(1) — a counter read from the core or the live graph (see
        :meth:`_checked`). This is the sanctioned way for probes and
        monitors to observe the edge count: reading it never
        materializes a snapshot.
        """
        core = self._query_core()
        if core is None:
            return self._ensure_live().edge_total
        if self._engine_mode == "soa":
            return core.edge_total
        return self._checked("edge_count", core.edge_total, self._ensure_live().edge_total)

    @property
    def pending_count(self) -> int:
        """Messages pending across all channels (gone pids included).

        O(1) — a counter read from the core or the live graph; no
        snapshot is built.
        """
        core = self._query_core()
        if core is None:
            return self._ensure_live().pending_total
        if self._engine_mode == "soa":
            return core.pending_count()
        return self._checked(
            "pending_count", core.pending_count(), self._ensure_live().pending_total
        )

    def _query_core(self) -> Any | None:
        """The core, if it holds exactly the engine's current state.

        It does not while it is stale, while an action is half applied
        (an oracle consulted mid-step), or while verify mode has not yet
        mirrored the step the object loop just took (a monitor's read).
        """
        core = self._core
        if (
            core is None
            or self._core_stale
            or self._stepping
            or core.steps != self.step_count
        ):
            return None
        return core

    def _checked(self, name: str, expected: Any, answer: Any) -> Any:
        """Verify mode's cross-check of one facade query: *answer* (from
        the live graph, the objects or, for the core's kept component
        labels, a full relabel) must equal the core's *expected*.

        Every read method of the query facade follows one pattern. In
        soa mode a core that holds the current state (:meth:`_query_core`)
        answers in the int domain, so no live-graph rebuild and no object
        export happens just to answer a question. Otherwise the live
        graph (or the object model) answers. Verify mode always answers
        from the live graph and, while the core is current, recomputes
        the answer on the core and calls this.
        """
        if expected != answer:
            raise StateViolation(
                f"core query {name} diverged from its oracle at step "
                f"{self.step_count}: core={expected!r} oracle={answer!r}"
            )
        return answer

    def _recount_lifecycle(self) -> None:
        """Recount the lifecycle tallies in one pass over the population.

        Called while the tallies are stale: at attach, and lazily after
        an out-of-band mutation, from the counter properties or a rebuild
        — never from the step or describe paths, which read the
        incrementally maintained counters.
        """
        asleep = gone = 0
        for p in self.processes.values():
            state = p.state
            if state is PState.ASLEEP:
                asleep += 1
            elif state is PState.GONE:
                gone += 1
        self._asleep_count = asleep
        self._gone_count = gone
        self._lifecycle_stale = False

    def _build_live(self) -> LiveGraph:
        """(Re)build the live graph from a full scan; the channel
        observers then feed it every later mutation as a delta."""
        if self._lifecycle_stale:
            self._recount_lifecycle()
        self._live_stale = False
        self._live = LiveGraph(self)
        return self._live

    def _observe_channel(self, pid: int, msg: Message, delta: int) -> None:
        if self._core is not None and not self._stepping:
            # Direct channel surgery outside an action (fault injectors
            # dropping/duplicating messages) invalidates the mirror core.
            self._core_stale = True
        live = self._live
        if live is None or self._live_stale:
            return
        if delta > 0:
            live.on_enqueue(pid, msg)
        else:
            live.on_dequeue(pid, msg)

    def _ensure_live(self) -> LiveGraph:
        """The current live graph, built on demand: an engine whose core
        answers every query never builds one."""
        live = self._live
        if live is None or self._live_stale:
            live = self._build_live()
        return live

    @property
    def live_graph(self) -> LiveGraph:
        """The incrementally maintained graph view."""
        return self._ensure_live()

    def actual_mode(self, pid: int) -> Mode:
        """The true (read-only) mode of process *pid*."""
        # The core export never writes a mode: request_leave sets both.
        return self._processes[pid].mode

    def beliefs_of(self, pid: int) -> list[tuple[str, int, Any]]:
        """The mode beliefs process *pid* stores, as ``(store, target
        pid, belief)``: each entry of its ``N`` table, then of a
        ``beliefs`` table, in store order, then its anchor if one is set.

        The core's ``N`` and anchor columns answer while the core holds
        the current state, else the process object (see :meth:`_checked`).
        """
        core = self._query_core()
        if core is None:
            return self._object_beliefs(pid)
        found = core.beliefs_of(core.slot_of[pid])
        if self._engine_mode == "soa":
            return found
        return self._checked("beliefs_of", found, self._object_beliefs(pid))

    def _object_beliefs(self, pid: int) -> list[tuple[str, int, Any]]:
        proc = self.processes[pid]
        found = []
        for store in ("N", "beliefs"):
            table = getattr(proc, store, None)
            if table is not None and hasattr(table, "items"):
                found += [(store, pid_of(ref), belief) for ref, belief in table.items()]
        anchor = getattr(proc, "anchor", None)
        if anchor is not None:
            found.append(("anchor", pid_of(anchor), getattr(proc, "anchor_belief", None)))
        return found

    def rewrite_beliefs(self, pid: int, changes: Sequence[tuple[str, int, Mode]]) -> None:
        """Overwrite stored beliefs of process *pid*, out of band: each
        ``(store, target pid, belief)`` names an entry :meth:`beliefs_of`
        lists. A belief fault keeps every reference, so only Φ moves.

        While the core holds the current state it is a core operation:
        with the object export deferred only the core is written,
        otherwise the objects are too and verify mode cross-checks the
        two. Else the objects are written and the core marked stale.
        """
        core = self._query_core()
        if core is not None:
            u = core.slot_of[pid]
            for store, target, belief in changes:
                core.rewrite_belief(u, store, target, belief)
            if self._export_pending:
                # No counter moved: the objects are just further behind.
                self._stale = True
                return
        self._complete_export()
        proc = self._processes[pid]
        live = self._live if not self._live_stale else None
        before = explicit_fingerprint(proc) if live is not None else None
        for store, target, belief in changes:
            if store == "anchor":
                proc.anchor_belief = belief
            else:
                getattr(proc, store)[self._processes[target].self_ref] = belief
        if live is not None:
            live.apply_explicit_diff(pid, before, proc)
        self._stale = True
        if core is not None:
            if self._engine_mode == "verify":
                core.cross_check(self, f"belief rewrite at pid {pid}")
        elif self._core is not None:
            self._core_stale = True

    def ref(self, pid: int) -> Ref:
        """Reference for process *pid* (raises if unknown — no dead refs)."""
        if pid not in self._processes:
            raise ConfigurationError(f"no process with pid {pid}")
        return self._processes[pid].self_ref  # immutable: no export needed

    def key_provider_for(self, process: Process) -> KeyProvider:
        """Hand ordered keys to a protocol, iff it declared the requirement."""
        if not process.requires_order:
            raise CopyStoreSendViolation(
                f"{type(process).__name__} did not declare requires_order; "
                "copy-store-send protocols may not observe an order on references"
            )
        return self._key_provider

    # ------------------------------------------------------------------ messaging

    def post(
        self,
        sender: int | None,
        target: Ref,
        label: str,
        args: tuple[Any, ...] = (),
    ) -> Message | None:
        """Deposit ``target ← label(args)`` into the target's channel.

        Validates that every reference in *args* (and the target itself)
        denotes an existing process — the model admits no references that
        do not belong to a process in the system (Section 1.2).

        A protocol send (``sender`` is a pid) addressed to a *gone*
        process is undeliverable and takes the bounce path instead of
        entering the dead channel: see :meth:`_bounce`, which returns
        ``None``. Out-of-band posts (``sender=None`` — fault injection,
        tests planting messages) keep the historical park-in-channel
        semantics, so planted initial states are expressible unchanged.
        An out-of-band post of one :class:`RefInfo` to a non-gone
        process, while the struct-of-arrays core holds the current state,
        is a core operation (:meth:`_post_on_core`): it needs no export
        and leaves the core current.
        """

        processes = self._processes
        tpid = pid_of(target)
        if tpid not in processes:
            raise ConfigurationError(f"message targets unknown process {tpid}")
        for arg in args:
            # One flat pass: a top-level RefInfo (every protocol send and
            # planted message) is checked in place; only a container
            # argument takes the nested walk.
            for ref in (arg.ref,) if type(arg) is RefInfo else iter_refs(arg):
                if pid_of(ref) not in processes:
                    raise ConfigurationError(
                        f"message parameter references unknown process {pid_of(ref)}"
                    )
        if sender is None and len(args) == 1 and type(args[0]) is RefInfo:
            core = self._query_core()
            if core is not None and core.state_of(core.slot_of[tpid]) is not PState.GONE:
                msg = self._post_on_core(core, tpid, label, args[0])
                if msg is not None:
                    return msg
        if self._export_pending:
            # An out-of-band post from a soa predicate: the target
            # channel must be current before it grows.
            self._complete_export()
        if sender is not None and processes[tpid].state is PState.GONE:
            return self._bounce(sender, tpid, args)
        seq = self._msg_seq
        self._msg_seq = seq + 1
        msg = Message(label, tuple(args), seq, sender)
        self._channels[tpid].add(msg)
        stats = self.stats
        stats.messages_posted += 1
        if sender is not None:
            by = stats.sent_by
            try:
                by[sender] += 1
            except KeyError:
                by[sender] = 1
        by = stats.received_by
        try:
            by[tpid] += 1
        except KeyError:
            by[tpid] = 1
        self._stale = True
        if self._core is not None and not self._stepping:
            # Out-of-band post (fault injection, tests planting messages
            # mid-run): the mirror core did not see it — rebuild lazily.
            self._core_stale = True
        if self._attached and processes[tpid].state is not PState.GONE:
            if self.net is not None and sender is not None:
                # Protocol send over the unreliable underlay: the message
                # is already parked in the channel (refs conserved); the
                # transport decides when the scheduler learns it is
                # deliverable. Out-of-band posts keep perfect channels.
                self.net.on_post(sender, tpid, msg.seq)
            else:
                self.scheduler.notify_send(tpid, msg.seq)
        return msg

    def _post_on_core(self, core: Any, tpid: int, label: str, info: RefInfo) -> Message | None:
        """:meth:`post` of ``label(info)`` from outside the protocol to
        non-gone *tpid*, as a core operation: the core's channel takes
        the message with the seq, tallies and Φ/edge deltas the object
        path gives it. While a soa run has the object export deferred,
        only the core is written; otherwise the objects take it too, and
        verify mode cross-checks the two. ``None`` when the core cannot
        encode it (a full label table): the caller takes the object path.
        """
        from repro.sim.soa import CoreUnsupported

        msg = Message(label, (info,), self._msg_seq, None)
        try:
            core.post(core.slot_of[tpid], msg)
        except CoreUnsupported:
            return None
        if self._export_pending:
            self._defer_export(core)
        else:
            self._msg_seq = msg.seq + 1
            # The core took this post too: keep the channel observer from
            # marking it stale.
            self._stepping = True
            try:
                self._channels[tpid].add(msg)
            finally:
                self._stepping = False
            stats = self.stats
            stats.messages_posted += 1
            stats.received_by[tpid] = stats.received_by.get(tpid, 0) + 1
            self._stale = True
            if self._engine_mode == "verify":
                core.cross_check(self, f"out-of-band post {msg!r}")
        if self._attached:
            self.scheduler.notify_send(tpid, msg.seq)
        return msg

    def _bounce(self, sender: int, tpid: int, args: tuple[Any, ...]) -> None:
        """Open-system semantics for a send to a *gone* process.

        A message addressed to a gone process can never be delivered;
        parking it in the dead channel would silently remove the
        references it carries from the process graph — a staying
        process's connectivity could hinge on exactly those references
        (e.g. a leaving process delegating its neighbourhood to an
        anchor that has since exited). The paper's Section 4 postprocess
        sanctions the repair: references *extracted from messages that
        could not be delivered* are reintegrated.

        Concretely, the references in *args* split into two classes:

        * references to third parties (neither the sender's own nor the
          dead target's) bounce back into the **sender's** channel as
          fresh ``forward`` messages, prefixed by one truthful
          ``present(target, leaving)`` hint so a stale anchor pointing
          at the dead process is purged on receipt (Algorithm 2/3
          lines 1–2) instead of black-holing every future delegation;
        * messages carrying only the sender's or the target's own
          reference (self-introductions, reversals) are dropped
          silently and counted — the edge they would have created died
          with the target, and bouncing them back would keep reversal
          ping-pong alive forever, preventing quiescence.

        The hint's ``leaving`` belief is truthful: only leaving
        processes exit. Re-delegations racing ahead of the hint simply
        bounce again; a fair scheduler eventually delivers a hint, the
        stale anchor is purged, and the refs come to rest. Mirrored
        bit-exactly by ``EngineCore._bounce``.
        """
        third = [
            info
            for info in args
            if type(info) is RefInfo and pid_of(info.ref) not in (sender, tpid)
        ]
        if not third:
            self.stats.dropped_gone += 1
            return None
        sref = self._processes[sender].self_ref
        tref = self._processes[tpid].self_ref
        self.post(None, sref, "present", (RefInfo(tref, Mode.LEAVING),))
        for info in third:
            self.post(None, sref, "forward", (RefInfo(info.ref, info.mode),))
        self.stats.bounced += len(third)
        return None

    # ------------------------------------------------------------------ lifecycle

    def _transition(self, proc: Process, new_state: PState) -> None:
        if self._export_pending:  # *proc* may be stale after a soa run
            self._complete_export()
        old = proc.state
        if old is new_state:
            return
        if (old, new_state) not in LEGAL_TRANSITIONS:
            raise StateViolation(f"illegal transition {old.value} → {new_state.value}")
        proc._state = new_state  # noqa: SLF001 - engine owns lifecycle
        self._stale = True
        if self._core is not None and not self._stepping:
            # An out-of-band transition (a test or tool driving the
            # lifecycle directly): the core did not make it.
            self._core_stale = True
        self._last_progress_step = self.step_count
        if old is PState.ASLEEP:
            self._asleep_count -= 1
        if new_state is PState.GONE:
            self.stats.exits += 1
            self._gone_count += 1
            if self._attached:
                self.scheduler.notify_gone(
                    proc.pid, list(self._channels[proc.pid].seqs())
                )
            if self.net is not None:
                # Frames in flight to a departed process will never be
                # delivered; stop retransmitting them (their messages
                # stay parked in the gone channel, exactly as on
                # perfect channels).
                self.net.on_gone(proc.pid)
        elif new_state is PState.ASLEEP:
            self.stats.sleeps += 1
            self._asleep_count += 1
            if self._attached:
                self.scheduler.notify_sleep(proc.pid)
        elif new_state is PState.AWAKE:
            self.stats.wakes += 1
            if self._attached:
                self.scheduler.notify_wake(proc.pid, self.next_stamp())
        if self._live is not None:
            self._live.on_state(proc.pid, new_state)

    # ------------------------------------------------------------------ open-system churn

    def admit(self, proc: Process) -> None:
        """Admit *proc* into a running system (an open-system join).

        The paper's admissible initial states extend one node at a time:
        a newcomer attaches *by edge* to a contact already in the system.
        We enforce exactly that — *proc* must be awake, its pid fresh for
        the whole run (reaped pids are retired forever), and every
        reference it stores must denote an existing process. All engine
        structures update incrementally: the channel map grows, the live
        graph learns the node and its explicit edges, the scheduler sees
        the newcomer as a wake, and the struct-of-arrays core allocates
        (or recycles) a slot.
        """

        if not self._attached:
            raise ConfigurationError(
                "admit() is for mid-run joins; pass initial processes to Engine()"
            )
        pid = proc.pid
        _check_pid(pid)
        processes = self._processes
        if pid in processes or pid in self._retired_pids:
            raise ConfigurationError(
                f"pid {pid} already used this run; pids are never reused"
            )
        if proc.state is not PState.AWAKE:
            raise ConfigurationError("admitted processes must be awake")
        for info in proc.stored_refs():
            if pid_of(info.ref) not in processes:
                raise ConfigurationError(
                    "admitted process references unknown process "
                    f"{pid_of(info.ref)}"
                )
        processes[pid] = proc  # a deferred export covers its new core slot
        channel = self._channels[pid] = Channel()
        channel.observer = partial(self._observe_channel, pid)
        log = proc._ref_log  # noqa: SLF001 - engine owns the drain
        log.enabled = proc.ref_tracking
        log.pending.clear()
        live = self._live
        if live is not None and not self._live_stale:
            live.on_admit(pid, proc)
        self._stale = True
        self._last_progress_step = self.step_count
        self.admitted_count += 1
        anchor = getattr(proc, "anchor", None)
        anchor_belief = getattr(proc, "anchor_belief", None)
        self.churn_journal.append(
            {
                "at": self.step_count,
                "op": "admit",
                "pid": pid,
                "proto": type(proc).__name__,
                "mode": proc.mode.value,
                "neighbors": [
                    [pid_of(r), None if b is None else b.value]
                    for r, b in getattr(proc, "N", {}).items()
                ],
                "anchor": None
                if anchor is None
                else [
                    pid_of(anchor),
                    None if anchor_belief is None else anchor_belief.value,
                ],
            }
        )
        if self._core is not None and not self._core_stale:
            from repro.sim.soa import CoreUnsupported

            try:
                self._core.admit(pid, proc)
            except CoreUnsupported as exc:
                self._complete_export()
                self._core = None
                self._core_reason = str(exc)
            except SlotRecycleOverflow:
                # The structured overflow is the caller's problem, but a
                # half-admitted core must not keep executing: drop it so
                # the run (if the caller survives) falls back to objects.
                self._complete_export()
                self._core = None
                self._core_reason = "slot generation space exhausted"
                raise
        self.scheduler.notify_wake(pid, self.next_stamp())

    def request_leave(self, pid: int) -> None:
        """Flip process *pid* to leaving mode (open-system departure intent).

        Within one computation the paper's ``mode`` is read-only; in the
        open-system regime a session ends by the process *deciding* to
        leave, which starts a new computation whose initial state differs
        only in ``mode(pid)``. This is the engine's sanctioned way to make
        that flip: Φ is repriced (in-flight beliefs about *pid* may have
        just become invalid), and the struct-of-arrays mirror follows.
        Idempotent for already-leaving processes.
        """

        state = self.state_of(pid)
        if state is None:
            raise ConfigurationError(f"no process with pid {pid}")
        if state is PState.GONE:
            raise StateViolation("gone processes cannot request departure")
        proc = self._processes[pid]
        if proc.mode is Mode.LEAVING:
            return
        proc._mode = Mode.LEAVING  # noqa: SLF001 - engine owns lifecycle
        live = self._live
        if live is not None and not self._live_stale:
            live.reprice(pid, Mode.LEAVING)
        self._stale = True
        self.churn_journal.append(
            {"at": self.step_count, "op": "leave", "pid": pid}
        )
        if self._core is not None and not self._core_stale:
            self._core.set_leaving(self._core.slot_of[pid])

    def _object_side_referenced(self, pid: int) -> bool:
        """Whether any *other* process physically holds a reference to
        *pid* — in a neighbourhood variable or in a channel message.

        Gone holders count: their stores and channels still physically
        contain references, and reclaiming a referenced slot is exactly
        the aliasing bug the generation tags exist to prevent. O(system);
        only the core-less fallback path pays it.
        """

        for opid, proc in self.processes.items():
            if opid == pid:
                continue
            for info in proc.stored_refs():
                if pid_of(info.ref) == pid:
                    return True
        for opid, channel in self.channels.items():
            if opid == pid:
                continue
            for msg in channel:
                for dpid, _bel in msg.edge_pairs():
                    if dpid == pid:
                        return True
        return False

    def can_reap(self, pid: int) -> bool:
        """Whether *pid* is gone and completely unreferenced, i.e. safe to
        reclaim. O(1) when the struct-of-arrays core is fresh (it keeps
        per-slot reference pins); an O(system) scan otherwise.
        """

        if self.state_of(pid) is not PState.GONE:
            return False
        core = self._core
        if core is not None and not self._core_stale:
            return core.can_reap(core.slot_of[pid])
        return not self._object_side_referenced(pid)

    def reap(self, pid: int) -> None:
        """Remove a gone, unreferenced process from the system entirely.

        Gone is absorbing but not free: a gone process still occupies its
        slot in every engine structure. Once nothing in the system holds
        its reference any more (see :meth:`can_reap`), the process can be
        reclaimed — its pid is retired for the rest of the run, and the
        core's slot returns to the free list with a generation already
        bumped at exit, so any stale tagged ref can never alias the
        slot's next occupant.
        """

        state = self.state_of(pid)
        if state is None:
            raise ConfigurationError(f"no process with pid {pid}")
        if state is not PState.GONE:
            raise StateViolation("only gone processes can be reaped")
        if not self.reap_gone((pid,))[0]:
            raise StateViolation(f"process {pid} is still referenced; cannot reap")

    def reap_gone(self, pids: Iterable[int]) -> tuple[list[int], list[int]]:
        """Reap every pid of *pids*, in order, that is gone and
        unreferenced (:meth:`can_reap`) when its turn comes, so a reap
        that unpins a later pid lets the same sweep reap it too.

        Returns the reaped pids and the pids unknown to the engine (never
        admitted or already reaped). One call per churn boundary: the
        core, while current, answers every test from its columns.
        """
        reaped: list[int] = []
        unknown: list[int] = []
        core = self._core if not self._core_stale else None
        check = core is not None and self._engine_mode == "verify"
        processes = self._processes
        for pid in pids:
            proc = processes.get(pid)
            if proc is None:
                unknown.append(pid)
                continue
            if core is not None:
                slot = core.slot_of[pid]
                if check:
                    self._checked("state_of", core.state_of(slot), proc.state)
                if not core.can_reap(slot):
                    continue
                core.reap(slot)
            elif self.state_of(pid) is not PState.GONE or self._object_side_referenced(pid):
                continue
            channel = self._channels.pop(pid)  # a deferred export skips the slot
            channel.observer = None
            del processes[pid]
            self._retired_pids.add(pid)
            if not self._lifecycle_stale:
                self._gone_count -= 1
            live = self._live
            if live is not None and not self._live_stale:
                live.on_reap(pid)
            self._stale = True
            self.reaped_count += 1
            self.churn_journal.append({"at": self.step_count, "op": "reap", "pid": pid})
            reaped.append(pid)
        return reaped, unknown

    # ------------------------------------------------------------------ execution

    def attach(self) -> None:
        """Bind the scheduler and validate/record the initial state.

        Called automatically by the first :meth:`step`/:meth:`run`; all
        initial-state construction (planting messages, corrupting process
        variables) must happen before.

        The struct-of-arrays core (soa/verify) is built first, from one
        scan of the initial state. The live graph is built here only
        when something must answer from it: the object loop, verify
        mode's cross-checks, or a core-ineligible population. A soa
        engine builds it later, if ever, on the first query the core
        cannot answer (:meth:`_ensure_live`) or the first object-loop
        step.
        """

        if self._attached:
            return
        for proc in self.processes.values():
            # Arm the write-through logs only where a drain will consume
            # them; everywhere else mutations cost a single dead branch.
            log = proc._ref_log  # noqa: SLF001 - engine owns the drain
            log.enabled = proc.ref_tracking
            log.pending.clear()
        # Initial-state construction is over: count and scan once, stream
        # deltas after. Construction may have edited stores behind the
        # back of a live graph a pre-attach query built.
        self._recount_lifecycle()
        self._live_stale = True
        if self._engine_mode != "objects":
            self._rebuild_core()
        if self._core is None or self._engine_mode == "verify":
            self._build_live()
        self._stale = True
        labels = self.component_labels()
        components: dict[int, list[int]] = {}
        for pid, label in labels.items():
            components.setdefault(label, []).append(pid)
        if self._require_staying:
            covered = {labels[pid] for pid in self.staying_pids()}
            for label, members in components.items():
                if label not in covered:
                    raise ConfigurationError(
                        "initial component without a staying process "
                        f"(pids {sorted(members)}); Sections 3-4 require at "
                        "least one staying process per connected component"
                    )
        self._initial_components = tuple(frozenset(m) for m in components.values())
        self._initial_pid_union = None
        self._attached = True
        self.scheduler.attach(self)
        if self._core is not None:
            # The scheduler consumed freshness stamps after the core
            # copied the clock.
            self._core.clock = self._clock

    def _rebuild_core(self) -> None:
        """(Re)build the struct-of-arrays mirror from the object state.

        Ineligible populations (heterogeneous process types, kernel-unknown
        oracles, unencodable channel content, …) leave ``_core`` as ``None``
        with the reason recorded — verify/soa modes then fall back to the
        object loop rather than failing the run.
        """
        from repro.sim.soa import CoreUnsupported, EngineCore

        self._complete_export()
        self._core_stale = False
        try:
            self._core = EngineCore(self)
            self._core_reason = None
        except CoreUnsupported as exc:
            self._core = None
            self._core_reason = str(exc)

    @property
    def initial_components(self) -> tuple[frozenset[int], ...]:
        """Weakly connected components of the initial process graph,
        ordered by their first member in :attr:`processes` order."""
        if self._initial_components is None:
            raise ConfigurationError("engine not attached yet; call attach() or run()")
        return self._initial_components

    @property
    def initial_pids(self) -> frozenset[int]:
        """Union of the initial components — the seed population.

        Mid-run admissions are exactly ``processes.keys() - initial_pids``
        (reaped pids belong to neither). Open-system invariants need the
        split: a joiner attaches by edge to one component, so paths
        through it are legitimate for that component's connectivity
        claims, yet it is a member of no *initial* component.
        """
        if self._initial_pid_union is None:
            self._initial_pid_union = frozenset().union(
                frozenset(), *self.initial_components
            )
        return self._initial_pid_union

    def step(self) -> ExecutedStep | None:
        """Execute one enabled action; return its record, or ``None`` if
        no action is enabled (the system is quiescent)."""

        if not self._attached:
            self.attach()
        if self._engine_mode == "verify":
            executed = self._step_verified()
        else:
            if self._core is not None:
                # soa mode stepped one-at-a-time runs on the object loop;
                # the core re-syncs from the object state at the next run().
                if self._export_pending:
                    self._complete_export()
                self._core_stale = True
            executed = self._step_objects()
        if executed is not None:
            # After verify mode's mirror, so that the core holds the
            # current state and a monitor's fault injection is a core
            # operation there as on a soa run.
            for monitor in self.monitors:
                monitor(self, executed)
        return executed

    def _step_verified(self) -> ExecutedStep | None:
        """One object-loop step, mirrored and cross-checked on the core.

        The differential oracle of ``engine_mode="verify"``: the core
        replays the same event on its int-slotted state and
        :meth:`~repro.sim.soa.EngineCore.mirror_step` raises
        :class:`~repro.errors.StateViolation` if any counter, Φ value or
        lifecycle outcome disagrees.
        """
        if self._core_stale:
            self._rebuild_core()
        core = self._core
        if core is None:
            return self._step_objects()
        self._stepping = True
        try:
            executed = self._step_objects()
        except BaseException:
            # The object step may have half-applied effects (e.g. a strict
            # unknown-label raise mid-delivery); resync before reuse.
            self._core_stale = True
            raise
        finally:
            self._stepping = False
        if executed is not None and not self._core_stale:
            # A tracer that mutated state out of band marked the core
            # stale; that is not an event the mirror can replay, so skip
            # the cross-check here — the next step's entry rebuild resyncs.
            core.mirror_step(self, executed)
        return executed

    def _step_objects(self) -> ExecutedStep | None:
        net = self.net
        if net is not None:
            net.flush(self.step_count)
        event = self.scheduler.select(self)
        if event is None and net is not None:
            # Starved scheduler with transport events still in flight
            # (e.g. every awake-able message is being retransmitted):
            # fast-forward the transport clock to the next due arrivals
            # so the run cannot falsely quiesce. Bounded retries — with
            # a permanently lossy underlay run_dry gives up and the run
            # ends non-converged, which the chaos outcome classifies.
            for _ in range(_DRY_TRIES):
                if not net.run_dry():
                    break
                event = self.scheduler.select(self)
                if event is not None:
                    break
        if event is None:
            return None
        if self._live is None:
            # The first object-loop step of an engine that attached on
            # its core. Built before the event runs, so even a step that
            # never reaches an action (a dropped unknown label) samples Φ.
            self._build_live()

        kind = type(event)
        if kind is TimeoutEvent:
            executed = self._run_timeout(event.pid)
        elif kind is DeliverEvent:
            executed = self._run_delivery(event.pid, event.seq)
        else:  # pragma: no cover - scheduler contract
            raise ConfigurationError(f"unknown event {event!r}")

        self.step_count += 1
        self.stats.steps += 1
        self._stale = True
        live = self._live
        if live is not None and not self._live_stale:
            phi = live.phi
            last = self._last_phi_seen
            if last is None or phi > last:
                # First sample, or an out-of-band injection raised Φ:
                # rebase so only decreases from the new level count.
                self._last_phi_seen = phi
            elif phi < last:
                self._last_phi_seen = phi
                self._last_progress_step = self.step_count
        if self.tracer is not None:
            self.tracer.record(self, executed)
        return executed

    # -- per-action ref-delta plumbing ------------------------------------

    def _pre_action(self, proc: Process):
        """Pre-action ref bookkeeping for *proc*.

        Returns the fingerprint *before* image for the diff fallback, or
        ``None`` when the process's write-through log will supply the
        deltas (the O(1)-for-unchanged-refs fast path).
        """
        if self._live_stale:
            # An out-of-band mutation (``_dirty``) scheduled a rebuild.
            # Do it now, before the action body runs: deferred any
            # further, the rebuild can fire mid-action (an oracle
            # connectivity query calls ``_ensure_live``), scan the
            # half-applied action and then double-count its deltas in
            # ``_post_action``.
            self._build_live()
        if proc.ref_tracking:
            pending = proc._ref_log.pending  # noqa: SLF001
            if pending:
                # Out-of-band mutations since the last drain (tests/tools
                # poking process state) are reconciled via the ``_dirty``
                # hook or a manual apply_explicit_diff; either way the
                # action starts from a clean log.
                pending.clear()
            if self._track:
                return None
        return explicit_fingerprint(proc)

    def _post_action(self, pid: int, proc: Process, before) -> None:
        """Commit the action's ref store/drop deltas to the live graph.

        Runs before the requested lifecycle ``_transition`` so an exit
        purges exactly the edges the action left behind.
        """
        if self._live_stale:
            # An out-of-band mutation (``_dirty``) scheduled a full
            # rebuild that will re-scan this action's effects; applying
            # deltas now would hit pre-mutation edge keys.
            if proc.ref_tracking:
                proc._ref_log.pending.clear()  # noqa: SLF001
            return
        live = self._live
        if before is None:
            pending = proc._ref_log.pending  # noqa: SLF001
            if pending:
                live.apply_ref_deltas(pid, pending)
                pending.clear()
            return
        if proc.ref_tracking:
            # Only verify mode takes a fingerprint of a tracked process.
            self._verify_ref_log(pid, proc, before)
        live.apply_explicit_diff(pid, before, proc)

    def _verify_ref_log(self, pid: int, proc: Process, before) -> None:
        """Differential oracle: the write-through log must equal the
        before/after fingerprint diff, key for key (verify mode)."""
        after = explicit_fingerprint(proc)
        net: dict = {}
        for key, count in after.items():
            diff = count - before.get(key, 0)
            if diff:
                net[key] = diff
        for key, count in before.items():
            if key not in after:
                net[key] = -count
        log = proc._ref_log  # noqa: SLF001
        if net != log.pending:
            raise StateViolation(
                f"write-through ref log diverged from fingerprint diff for "
                f"pid {pid}: logged={log.pending!r} fingerprint={net!r}"
            )
        log.pending.clear()

    def _run_timeout(self, pid: int) -> ExecutedStep:
        proc = self._processes[pid]
        if proc.state is not PState.AWAKE:  # pragma: no cover - scheduler contract
            raise StateViolation(f"timeout selected for non-awake process {pid}")
        before = self._pre_action(proc)
        ctx = self._ctx
        ctx._reset(proc)  # noqa: SLF001 - engine owns context lifecycle
        proc.timeout(ctx)
        requested = ctx._close()  # noqa: SLF001
        # Ref store/drop deltas commit before the lifecycle change so
        # an exit purges exactly the edges the action left behind.
        self._post_action(pid, proc, before)
        if requested is not None:
            self._transition(proc, requested)
        stats = self.stats
        stats.timeouts += 1
        by = stats.timeouts_by
        try:
            by[pid] += 1
        except KeyError:
            by[pid] = 1
        if proc.state is PState.AWAKE:
            self.scheduler.notify_timeout_executed(pid, self.next_stamp())
        return ExecutedStep(
            self.step_count, "timeout", pid, None, None, proc.state,
            stats.oracle_queries, stats.oracle_true,
        )

    def _run_delivery(self, pid: int, seq: int) -> ExecutedStep:
        proc = self._processes[pid]
        if proc.state is PState.GONE:  # pragma: no cover - scheduler contract
            raise StateViolation(f"delivery selected for gone process {pid}")
        msg = self._channels[pid].remove(seq)
        self._stale = True
        if proc.state is PState.ASLEEP:
            # Processing a message wakes an asleep process (Figure 1).
            self._transition(proc, PState.AWAKE)
        handler = proc.handler(msg.label)
        if handler is None:
            # "All other messages will be ignored by the processes."
            self.stats.dropped_unknown += 1
            if self.strict:
                raise UnknownActionError(
                    f"process {pid} ({type(proc).__name__}) has no action "
                    f"'{msg.label}'"
                )
        else:
            before = self._pre_action(proc)
            ctx = self._ctx
            ctx._reset(proc)  # noqa: SLF001
            handler(ctx, *msg.args)
            requested = ctx._close()  # noqa: SLF001
            self._post_action(pid, proc, before)
            if requested is not None:
                self._transition(proc, requested)
        stats = self.stats
        stats.deliveries += 1
        by = stats.deliveries_by
        try:
            by[pid] += 1
        except KeyError:
            by[pid] = 1
        return ExecutedStep(
            self.step_count, "deliver", pid, msg.label, seq, proc.state,
            stats.oracle_queries, stats.oracle_true,
        )

    def run(
        self,
        max_steps: int,
        *,
        until: Callable[["Engine"], bool] | None = None,
        check_every: int = 1,
        raise_on_budget: bool = False,
    ) -> bool:
        """Execute steps until *until* holds, quiescence, or the budget ends.

        Returns True iff *until* was satisfied (vacuously False when no
        predicate is given and the budget ran out). ``check_every`` spaces
        out predicate evaluation — legitimacy checks walk the whole graph,
        so evaluating every step would dominate large runs. It must be at
        least 1 (:class:`~repro.errors.ConfigurationError` otherwise, before
        any step runs).

        The run is one loop over batches, each ending at the next
        predicate boundary (or at the end of the budget when there is no
        predicate); the predicate runs at the start, once per boundary,
        at the end of the budget and at quiescence. A batch is either
        :meth:`~repro.sim.soa.EngineCore.run_batch` on the
        struct-of-arrays core or that many calls of :meth:`step`, and a
        batch that executes fewer steps than asked means quiescence.
        With a tracer, core batches also end where the ``tracer``
        parameter says; the predicate still runs only at its boundaries.

        In ``engine_mode="soa"`` eligible runs (monitors that declare
        ``next_wakeup``, a core-drivable scheduler) take core batches,
        which also end at the monitors' earliest wakeup. After each
        one only the counters are exported, then its steps go to the
        tracer, then the monitors run, and the core
        answers graph queries through the query facade; the process
        stores and channels are exported when something first reads
        :attr:`processes` or :attr:`channels`. The run returns with that
        export still deferred, and so does a run that raises while the
        core holds the state, so a :class:`~repro.sim.process.Process`
        object held across a soa run is stale: read it through
        :attr:`processes` afterwards. A predicate that mutates engine
        state out-of-band marks the core stale (or drops it), and the
        rest of the budget runs in object batches. In ``"verify"`` mode
        the whole run additionally ends with a deep state cross-check.
        """

        if check_every < 1:
            raise ConfigurationError(f"check_every must be >= 1, got {check_every}")
        if not self._attached:
            self.attach()
        driven = self._soa_core() if self._engine_mode == "soa" else None
        core = driven
        tracer = self.tracer if driven is not None else None
        monitors = self.monitors if driven is not None else ()
        if driven is not None:
            driven.drive(self.scheduler, log_steps=tracer is not None, net=self.net)
        try:
            i = 0
            while True:
                if (
                    until is not None
                    and (i % check_every == 0 or i >= max_steps)
                    and until(self)
                ):
                    result = True
                    break
                if i >= max_steps:
                    if raise_on_budget:
                        raise ConvergenceError(
                            f"predicate not reached within {max_steps} steps",
                            stats=self.stats.as_dict(),
                            diagnostics=self.progress_diagnostics(),
                        )
                    result = False
                    break
                if until is None:
                    batch = max_steps - i
                else:
                    batch = min(check_every - i % check_every, max_steps - i)
                if core is not None and (self._core is not core or self._core_stale):
                    # The predicate poked engine state (which completed
                    # the export first); the core no longer mirrors it,
                    # and a transport must read the objects again.
                    core = None
                    driven.drive(None)
                if core is not None:
                    if tracer is not None:
                        batch = self._trace_batch(tracer, batch)
                    wake = self._next_wakeup(monitors) if monitors else None
                    if wake is not None:
                        batch = min(batch, wake - self.step_count)
                    executed = core.run_batch(batch)
                    self._defer_export(core)
                    if tracer is not None:
                        self._hand_over_steps(tracer, core)
                    if executed:  # a round after every batch, as after every step
                        for monitor in monitors:
                            monitor(self, None)
                else:
                    executed = 0
                    while executed < batch and self.step() is not None:
                        executed += 1
                i += executed
                if executed < batch:  # quiescent: state can no longer change
                    result = until is not None and until(self)
                    break
        except BaseException:
            if core is not None and self._core is core and not self._core_stale:
                self._defer_export(core)  # the objects may be behind
                if tracer is not None:
                    self._hand_over_steps(tracer, core)
            raise
        finally:
            if driven is not None:
                driven.drive(None)
        if (
            self._engine_mode == "verify"
            and self._core is not None
            and not self._core_stale
        ):
            self._core.verify_full(self)
        return result

    def _soa_core(self) -> Any | None:
        """The core for a batched soa run, or ``None`` to fall back.

        A monitor without ``next_wakeup`` needs the object model at every
        step, and a scheduler that reads engine state in ``select`` is not
        core-drivable; either forces the object loop, and
        ``core_status["reason"]`` then names the cause. A tracer does
        not: the core logs its steps for it. Nor does a monitor that
        declares ``next_wakeup``: core batches end at its wakeups.
        """
        if not all(callable(getattr(m, "next_wakeup", None)) for m in self.monitors):
            if self._core is not None:
                self._core_reason = "observers attached: monitors"
            return None
        if self._core_stale:
            self._rebuild_core()
        core = self._core
        if core is None:
            return None
        if not self.scheduler.core_drivable:
            self._core_reason = (
                "scheduler not core-drivable: " + type(self.scheduler).__name__
            )
            return None
        self._core_reason = None
        return core

    def _trace_batch(self, tracer: Any, batch: int) -> int:
        """*batch* cut so that the core logs at most
        :data:`TRACE_BATCH_CAP` steps, and so that a batch ends at every
        step count the tracer samples engine counters at (a multiple of
        its optional ``metrics_every``)."""
        every = getattr(tracer, "metrics_every", 0)
        if every:
            batch = min(batch, every - self.step_count % every)
        return min(batch, TRACE_BATCH_CAP)

    def _next_wakeup(self, monitors: Sequence[Any]) -> int | None:
        """The earliest step count after the current one at which a
        monitor's call may act (its ``next_wakeup``), or ``None`` when
        none ever will. A core batch ends there at the latest, and every
        monitor is called after it, as the object loop would after its
        last step."""
        now = self.step_count
        wake = None
        for monitor in monitors:
            at = monitor.next_wakeup(now)
            if at is not None and (wake is None or at < wake):
                wake = at
        return None if wake is None else max(wake, now + 1)

    def _hand_over_steps(self, tracer: Any, core: Any) -> None:
        """Give the tracer the steps of the core batch that just ended,
        after its counters were exported."""
        record = tracer.record
        for fields in core.take_steps():
            record(self, ExecutedStep(*fields))

    def _defer_export(self, core: Any) -> None:
        """Export the core's counters now and its objects on demand."""
        core.export_counters(self)
        self._export_pending = True

    def verify_core_state(self) -> bool:
        """Deep cross-check of the struct-of-arrays core against the
        object state (per-slot lifecycle, neighbor stores, anchors,
        channels, counters, Φ).

        Returns ``False`` when no core is active (``engine_mode=objects``
        or an ineligible population); raises
        :class:`~repro.errors.StateViolation` on any divergence.
        """
        if self._engine_mode == "objects":
            return False
        if not self._attached:
            self.attach()
        if self._core_stale:
            self._rebuild_core()
        if self._core is None:
            return False
        self._core.verify_full(self)
        return True

    # ------------------------------------------------------------------ snapshots

    def snapshot(self) -> ProcessGraph:
        """Snapshot of the current process multigraph (cached until the
        state next changes). Gone processes and their edges are excluded —
        exit removes a process and its incident edges from PG.

        The snapshot is materialized from the live graph on demand;
        :meth:`rebuild_snapshot` is the from-scratch oracle it must equal.
        """

        if not self._stale and self._snapshot_cache is not None:
            return self._snapshot_cache
        graph = self._ensure_live().materialize()
        self._snapshot_cache = graph
        self._stale = False
        return graph

    def rebuild_snapshot(self) -> ProcessGraph:
        """Always build the snapshot by a from-scratch scan of processes
        and channels — the differential-testing oracle for the live
        graph and :meth:`snapshot`."""

        nodes: list[NodeView] = []
        edges: list[Edge] = []
        for pid, proc in self.processes.items():
            if proc.state is PState.GONE:
                continue
            nodes.append(
                NodeView(
                    pid=pid,
                    mode=proc.mode,
                    state=proc.state,
                    channel_len=len(self.channels[pid]),
                )
            )
            for info in proc.stored_refs():
                edges.append(
                    Edge(pid, pid_of(info.ref), EdgeKind.EXPLICIT, info.mode)
                )
            for msg in self.channels[pid]:
                for info in msg.refinfos():
                    edges.append(
                        Edge(pid, pid_of(info.ref), EdgeKind.IMPLICIT, info.mode)
                    )
        return ProcessGraph(nodes, edges)

    # ------------------------------------------------------------------ oracles & Φ

    def partners(self, pid: int) -> set[int]:
        """Non-gone processes (≠ *pid*) having an edge with *pid*, in
        either direction. Empty for a gone, reaped or unknown pid.

        O(deg): the core's in-edge index plus *pid*'s own stores, or the
        live partner index (see :meth:`_checked`).
        """
        core = self._query_core()
        if core is None:
            return self._ensure_live().partners(pid)
        slot = core.slot_of.get(pid)
        found = set() if slot is None else core.partners(slot)
        if self._engine_mode == "soa":
            return found
        return self._checked("partners", found, self._ensure_live().partners(pid))

    def hops(self, src: int, dst: int) -> int | None:
        """Hop distance between *src* and *dst* in PG (edges in either
        direction, through non-gone processes), or ``None`` if no path:
        :func:`~repro.graphs.connectivity.hop_distance` over the core's
        slot walk or the live partners (see :meth:`_checked`)."""
        if src == dst:
            return 0
        core = self._query_core()
        if core is None:
            return hop_distance(self._ensure_live().partners, src, dst)
        s, t = core.slot_of.get(src), core.slot_of.get(dst)
        found = None if s is None or t is None else hop_distance(core.adjacent, s, t)
        if self._engine_mode == "soa":
            return found
        return self._checked(
            "hops", found, hop_distance(self._ensure_live().partners, src, dst)
        )

    def state_of(self, pid: int) -> PState | None:
        """Lifecycle state of process *pid*; ``None`` for an unknown or
        reaped pid. O(1): the core's lifecycle column, or the object
        (see :meth:`_checked`)."""
        proc = self._processes.get(pid)
        if proc is None:
            return None
        core = self._query_core()
        if core is None:
            return proc.state
        state = core.state_of(core.slot_of[pid])
        if self._engine_mode == "soa":
            return state
        return self._checked("state_of", state, proc.state)

    def partner_pids(self, pid: int) -> set[int]:
        """Relevant processes (≠ *pid*) having an edge with *pid*, in either
        direction — the quantity the SINGLE oracle is defined over.

        :meth:`partners`, from the core or the live graph: O(deg). With
        sleepers present (an O(1) counter test) the set is narrowed to
        the relevant processes, since SINGLE quantifies over those only;
        hibernation is a live-graph query.
        """

        partners = self.partners(pid)
        if partners and self.asleep_count:
            partners &= self.relevant_pids()
        return partners

    def same_component(self, pids: Iterable[int]) -> bool:
        """Whether every pid in *pids* names a non-gone process and all
        of them lie in one weakly connected component of PG (paths
        through any non-gone process count, asleep ones included).

        Answered by the core's kept component labels (a certificate walk
        after each batch, a full relabel only after a genuine split) or
        by the live union-find (see :meth:`_checked`).
        """
        core = self._query_core()
        if core is None:
            return self._ensure_live().same_component(pids)
        members = list(pids)
        slots = list(map(core.slot_of.get, members))
        connected = None not in slots and core.same_component(slots)
        if self._engine_mode == "soa":
            return connected
        self._check_labels(core)
        return self._checked(
            "same_component", connected, self._ensure_live().same_component(members)
        )

    def component_labels(self) -> dict[int, int]:
        """pid → component label, for every non-gone pid.

        Two pids share a label iff they lie in one weakly connected
        component of PG (paths through any non-gone process, asleep
        ones included). The label is the component's first member in
        :attr:`processes` order, so the answer does not depend on who
        computed it, and grouping pids by label lists the components by
        first member.

        Answered by the core's labelling while the core holds the
        current state, else by the live union-find while the live graph
        is current, else by one union-find scan of the stores and
        channels (see :meth:`_checked`).
        """
        core = self._query_core()
        if core is not None:
            labels = core.component_labels(self._processes)
            if self._engine_mode == "soa":
                return labels
            self._check_labels(core)
            return self._checked(
                "component_labels",
                labels,
                self._ensure_live().component_labels(self._processes),
            )
        live = self._live
        if live is not None and not self._live_stale:
            return live.component_labels(self._processes)
        return self._scan_component_labels()

    def _check_labels(self, core: Any) -> None:
        """Verify mode: the core's kept, certificate-checked labels must
        give the partition a full relabel of the core gives, and right
        after the walk every certificate pair must be live."""
        self._checked("component labelling", core.partition(), core.partition(fresh=True))
        self._checked("dead certificate pairs", [], core.dead_certificate_pairs())

    def _scan_component_labels(self) -> dict[int, int]:
        """:meth:`component_labels` by one list-based union-find pass
        over the stores (:meth:`~repro.sim.process.Process.stored_pids`)
        and channels of the non-gone processes (edges into gone processes
        do not connect), with path halving."""
        processes, channels = self.processes, self.channels
        alive = [pid for pid, proc in processes.items() if proc.state is not PState.GONE]
        index = {pid: i for i, pid in enumerate(alive)}.get
        parent = list(range(len(alive)))
        for i, pid in enumerate(alive):
            root = i
            while parent[root] != root:
                parent[root] = root = parent[parent[root]]
            dsts = processes[pid].stored_pids()
            for msg in channels[pid]:
                args = msg.args
                if len(args) == 1 and type(args[0]) is RefInfo:
                    dsts.append(args[0].ref._pid)  # noqa: SLF001
                elif args:
                    dsts += [dst for dst, _belief in msg.edge_pairs()]
            for dst in dsts:
                j = index(dst)
                if j is None:
                    continue
                while parent[j] != j:
                    parent[j] = j = parent[parent[j]]
                if j != root:
                    parent[j] = root

        def find(pid: int) -> int:
            i = index(pid)
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            return i

        return first_member_labels(alive, find)

    def lifecycle_clauses(self) -> tuple[bool, bool]:
        """Legitimacy conditions (i) and (ii) in their FDP reading:
        (every staying process is awake, every leaving process is gone).

        One pass over the core's lifecycle columns, or over the process
        objects (see :meth:`_checked`).
        """
        core = self._query_core()
        if core is not None and self._engine_mode == "soa":
            return core.lifecycle_clauses()
        staying_awake = leaving_gone = True
        for proc in self.processes.values():
            if proc.mode is Mode.LEAVING:
                if proc.state is not PState.GONE:
                    leaving_gone = False
            elif proc.state is not PState.AWAKE:
                staying_awake = False
        if core is None:
            return staying_awake, leaving_gone
        return self._checked(
            "lifecycle_clauses",
            core.lifecycle_clauses(),
            (staying_awake, leaving_gone),
        )

    def staying_pids(self) -> frozenset[int]:
        """Pids of the staying processes that are not gone."""
        core = self._query_core()
        if core is not None and self._engine_mode == "soa":
            return core.staying_pids()
        staying = frozenset(
            pid
            for pid, proc in self.processes.items()
            if proc.mode is Mode.STAYING and proc.state is not PState.GONE
        )
        if core is None:
            return staying
        return self._checked("staying_pids", core.staying_pids(), staying)

    def oracle_value(self, pid: int) -> bool:
        """Evaluate the configured oracle for process *pid*."""
        if self._oracle is None:
            raise ConfigurationError(
                "no oracle configured but the protocol consulted one"
            )
        self.stats.oracle_queries += 1
        verdict = self._oracle(self, pid)
        if verdict:
            self.stats.oracle_true += 1
        return verdict

    def potential(self) -> int:
        """The potential Φ of Lemma 3: number of (explicit or implicit)
        edges ``(x, y)`` whose attached belief differs from ``mode(y)``.

        O(1) — the core's running counter, or the live graph's, bucketed
        by target pid (see :meth:`_checked`).
        """

        core = self._query_core()
        if core is None:
            return self._ensure_live().phi
        if self._engine_mode == "soa":
            return core.phi
        return self._checked("potential", core.phi, self._ensure_live().phi)

    def relevant_pids(self) -> frozenset[int]:
        """Pids of relevant (non-gone, non-hibernating) processes.

        Only sleepers hibernate, so while none is asleep (an O(1) counter
        test; every FDP run) the core's lifecycle column answers: the
        non-gone pids. Hibernation is a live-graph query (see
        :meth:`_checked`).
        """
        core = self._query_core()
        if core is None or self.asleep_count:
            return self._ensure_live().relevant()
        found = core.alive_pids()
        if self._engine_mode == "soa":
            return found
        return self._checked("relevant_pids", found, self._ensure_live().relevant())

    def members_weakly_connected(self, members: frozenset[int]) -> bool:
        """Whether *members* (all relevant) lie in one weakly connected
        component of the relevant process graph — the per-initial-
        component invariant of Lemma 2, served without a snapshot.

        Sleeper-free runs answer via :meth:`same_component`
        (exact: components never merge under copy-store-send protocols,
        so every path between members stays inside their component).
        With sleepers present the induced check runs directly on the
        live adjacency, excluding hibernating processes but allowing
        paths through relevant mid-run admissions — a joiner attaches
        by edge to one component, so it can legitimately become the
        joint holding two seed members' references together (the
        closed-system members-only reading would flag that as a
        phantom Lemma 2 violation).
        """

        if len(members) <= 1:
            return True
        if self.asleep_count == 0:
            return self.same_component(members)
        admitted = frozenset(self.processes) - self.initial_pids
        live = self._ensure_live()
        via = (live.relevant() & admitted) if admitted else frozenset()
        return live.induced_connected(members, via=via)

    def partition_epoch(self) -> object | None:
        """A token of the current weak-component partition: while two
        reads return the same token (``is``), every process that was non-gone at
        the first read and still is kept its component, and no two
        components merged. ``None`` when the engine cannot serve one:
        no core holds the current state, or a process sleeps (relevance
        is then a live-graph question).

        The core's :meth:`~repro.sim.soa.EngineCore.partition_epoch`,
        read after its certificate walk. Verify mode holds the kept
        labels to a full relabel (:meth:`_check_labels`) and, while the
        token repeats, every non-gone pid's raw label to the one it had
        when the token was first served.
        """
        core = self._query_core()
        if core is None or self.asleep_count:
            return None
        epoch = core.partition_epoch()
        if self._engine_mode == "verify":
            self._check_labels(core)
            self._check_epoch(core, epoch)
        return epoch

    def _check_epoch(self, core: Any, epoch: object) -> None:
        """Verify mode: a repeated partition epoch left every label of a
        pid that is still non-gone where it was."""
        labels = core._labels  # noqa: SLF001
        now = {
            pid: labels[slot]
            for pid, slot in core.slot_of.items()
            if core.state_of(slot) is not PState.GONE
        }
        seen = self._epoch_labels
        if seen is None or seen[0] is not epoch:
            self._epoch_labels = (epoch, now)
            return
        then = seen[1]
        kept = [pid for pid in now if pid in then]
        self._checked(
            "labels under one partition epoch",
            {pid: then[pid] for pid in kept},
            {pid: now[pid] for pid in kept},
        )

    def backlog_horizon(self, limit: int) -> int | None:
        """How many more steps :attr:`pending_count` is sure to stay at
        or below *limit*: the largest k such that no step among the next
        k can take it above, from the current counters and a bound on
        how many messages one step sends. ``None`` when the engine
        cannot bound its sends: no core holds the current state (the
        object loop, or a population the core does not run).

        Served by :meth:`~repro.sim.soa.EngineCore.backlog_horizon`.
        """
        core = self._query_core()
        if core is None:
            return None
        return core.backlog_horizon(limit)

    # ------------------------------------------------------------------ reporting

    def states(self) -> dict[int, PState]:
        """Map pid → lifecycle state for all processes (including gone)."""
        return {pid: proc.state for pid, proc in self.processes.items()}

    def alive_pids(self) -> list[int]:
        """Pids of non-gone processes."""
        return [p for p, proc in self.processes.items() if proc.state is not PState.GONE]

    def describe(self) -> dict[str, Any]:
        """Diagnostic summary of the current system state.

        Cheap enough for hot loops: ``edges``,
        ``pending_messages`` and ``potential`` are counter reads through
        the query facade and the lifecycle tallies are O(1), so no
        snapshot is built and no deferred core export is forced.
        """

        return {
            "step": self.step_count,
            # Current population — under open-system churn this is not a
            # constant: admissions grow it and reaps shrink it.
            "processes": len(self._processes),
            "admitted": self.admitted_count,
            "reaped": self.reaped_count,
            # Lifecycle tallies come from the maintained counters —
            # describe() never scans the population.
            "gone": self.gone_count,
            "asleep": self.asleep_count,
            "edges": self.edge_count,
            "pending_messages": self.pending_count,
            "potential": self.potential(),
            "stats": self.stats.as_dict(),
        }
