"""Incrementally maintained live view of the process multigraph.

:class:`~repro.graphs.snapshot.ProcessGraph` is a *rebuild-on-read*
snapshot: one full pass over every local memory and channel. That is the
right shape for analysis code, but per-step monitoring and oracle
evaluation made the engine rebuild it after nearly every step —
O(steps·(V+E)) observation cost dominating oracle- and monitor-heavy
runs. :class:`LiveGraph` replaces that path with *event-sourced
incremental maintenance*: the engine feeds it typed deltas at the
mutation sources and every observable quantity is updated in O(Δ).

The delta vocabulary (the only ways the process graph can change):

* ``on_enqueue(pid, msg)`` / ``on_dequeue(pid, msg)`` — a message enters
  or leaves ``pid.Ch``; its :class:`~repro.sim.messages.RefInfo` payloads
  are the implicit edges ``(pid, ref)``.
* ``apply_ref_deltas(pid, deltas)`` — the acting process's tracked ref
  containers recorded net store/drop deltas write-through during the
  action (only the acting process may mutate its own local memory); the
  engine drains them here at O(writes) cost.
* ``apply_explicit_diff(pid, before)`` — fingerprint fallback for
  untracked processes (and the ``engine_mode="verify"`` ref-log check):
  the engine diffs the acting process's ``stored_refs()`` around the
  action, yielding the same deltas at O(refs) cost.
* ``on_state(pid, state)`` — lifecycle transitions. ``exit`` purges the
  process's out-edges (exit removes a process and its incident edges
  from PG); ``sleep``/wake only flip the state used by relevance queries.
* ``on_admit(pid, proc)`` / ``on_reap(pid)`` — open-system churn: a
  process joins mid-run (node plus its initial explicit edges appear) or
  a gone, unreferenced process is reclaimed. Reaped pids keep a ``GONE``
  tombstone in the state map so stale pair counts naming them stay
  excluded from connectivity rebuilds.
* ``reprice(pid, new_mode)`` — re-derive pid's Φ contribution after a
  mode change. Within one computation modes are read-only; the engine
  calls this from ``request_leave`` — the open-system session-end event —
  because the per-target Φ bucketing makes the flip an O(1) repricing.

Maintained structures:

* an edge multiset with per-``(src, dst, kind, belief)`` counts, indexed
  by source process (so an exiting process's edges purge in O(deg));
* per-node out/in partner indices (``pid → partner → multiplicity``) —
  the ``SINGLE`` oracle's partner set becomes an O(deg) dictionary read;
* the potential Φ of Lemma 3 as a running counter, bucketed by target
  pid and (normalized) believed mode, so each edge delta is O(1) and a
  mode reprice touches only that pid's incident beliefs;
* weak connectivity via an epoch-based union-find: edge additions union
  incrementally; a deletion that kills the last parallel copy of an
  undirected pair only records the pair as *dead*. At the next
  connectivity query each dead pair gets the cheap bridge-candidate
  test — endpoints sharing a surviving common neighbour exhibit a
  2-edge path, so the union-find cannot over-merge — and only a pair
  failing it invalidates the epoch, triggering a lazy rebuild from the
  maintained pair counts (O(V + distinct pairs), no edge expansion).
  Deferring the test to query time is what absorbs the protocols'
  dominant churn pattern: a reference dequeued from a channel and
  immediately stored (implicit edge dies, same explicit pair reappears
  within one atomic step) never costs a rebuild.

Invariant (enforced by the differential property tests): at every step,
``LiveGraph ≡ rebuild(state)`` — materializing a
:class:`ProcessGraph` from the live counters is step-for-step identical,
as an edge multiset and in every derived predicate, to a from-scratch
rebuild of the engine state.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.graphs.connectivity import UnionFind, first_member_labels
from repro.graphs.snapshot import Edge, EdgeKind, NodeView, ProcessGraph
from repro.sim.refs import pid_of
from repro.sim.states import Mode, PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine
    from repro.sim.messages import Message
    from repro.sim.process import Process

__all__ = ["LiveGraph", "explicit_fingerprint"]

#: Edge-multiset key: (dst, kind, raw belief). Keyed per source process.
_EdgeKey = tuple[int, EdgeKind, "Mode | None"]

#: Explicit-edge fingerprint / delta key: (dst pid, stored belief).
_RefKey = tuple[int, "Mode | None"]


def _normalize(belief: Mode | None) -> Mode:
    """Missing beliefs count as *staying* claims (Φ convention; see
    :meth:`ProcessGraph.iter_invalid_edges`)."""
    return belief if belief is not None else Mode.STAYING


def explicit_fingerprint(proc: Process) -> Counter[_RefKey]:
    """Multiset of *proc*'s explicit edges as ``(dst, belief)`` counts.

    Taken by the engine before and after each atomic action; the
    difference is exactly the set of ref store/drop deltas the action
    performed on its own local memory.
    """

    return Counter((pid_of(info.ref), info.mode) for info in proc.stored_refs())


class LiveGraph:
    """Event-sourced, O(Δ)-maintained view of the process multigraph."""

    __slots__ = (
        "_mode",
        "_pstate",
        "_channel_len",
        "_edges_by_src",
        "_out",
        "_in",
        "_phi_buckets",
        "_phi",
        "_edge_total",
        "_pending_total",
        "_pair_counts",
        "_dead_pairs",
        "_uf",
        "_uf_stale",
    )

    def __init__(self, engine: Engine) -> None:
        #: immutable per-pid mode (defined even for gone processes — Φ
        #: counts edges whose target already left).
        self._mode: dict[int, Mode] = {}
        self._pstate: dict[int, PState] = {}
        self._channel_len: dict[int, int] = {}
        #: src → {(dst, kind, belief) → count}; only non-gone sources.
        self._edges_by_src: dict[int, dict[_EdgeKey, int]] = {}
        #: src → {dst → multiplicity} and the reverse index.
        self._out: dict[int, dict[int, int]] = {}
        self._in: dict[int, dict[int, int]] = {}
        #: dst → {normalized belief → count of incident edges}.
        self._phi_buckets: dict[int, dict[Mode, int]] = {}
        self._phi = 0
        self._edge_total = 0
        self._pending_total = 0
        #: unordered pair (a < b) → number of parallel edge copies.
        self._pair_counts: dict[tuple[int, int], int] = {}
        #: pairs whose last copy died since the union-find was last
        #: trusted; bridge-tested lazily at the next connectivity query.
        self._dead_pairs: set[tuple[int, int]] = set()
        self._uf: UnionFind = UnionFind()
        self._uf_stale = True
        self._build(engine)

    # ------------------------------------------------------------------ build

    def _build(self, engine: Engine) -> None:
        """Full scan of the engine state — done once, at attach time.

        Everything afterwards arrives as deltas.
        """

        for pid, proc in engine.processes.items():
            self._mode[pid] = proc.mode
            self._pstate[pid] = proc.state
            self._channel_len[pid] = len(engine.channels[pid])
            self._edges_by_src[pid] = {}
            self._out[pid] = {}
            self._in.setdefault(pid, {})
            self._phi_buckets.setdefault(pid, {})
        for pid, proc in engine.processes.items():
            self._pending_total += len(engine.channels[pid])
            if proc.state is PState.GONE:
                continue
            for info in proc.stored_refs():
                self._add_edge(pid, pid_of(info.ref), EdgeKind.EXPLICIT, info.mode)
            for msg in engine.channels[pid]:
                for dst, belief in msg.edge_pairs():
                    self._add_edge(pid, dst, EdgeKind.IMPLICIT, belief)

    # ------------------------------------------------------------------ edge deltas

    def _add_edge(
        self, src: int, dst: int, kind: EdgeKind, belief: Mode | None, count: int = 1
    ) -> None:
        key: _EdgeKey = (dst, kind, belief)
        store = self._edges_by_src[src]
        store[key] = store.get(key, 0) + count
        out = self._out[src]
        out[dst] = out.get(dst, 0) + count
        inn = self._in.setdefault(dst, {})
        inn[src] = inn.get(src, 0) + count
        self._edge_total += count
        # Φ: bucketed by target pid so a reprice touches only one pid.
        nb = _normalize(belief)
        bucket = self._phi_buckets.setdefault(dst, {})
        bucket[nb] = bucket.get(nb, 0) + count
        if nb is not self._mode[dst]:
            self._phi += count
        # Connectivity: self-loops and edges to gone targets never count.
        if src != dst and self._pstate.get(dst) is not PState.GONE:
            pair = (src, dst) if src < dst else (dst, src)
            self._pair_counts[pair] = self._pair_counts.get(pair, 0) + count
            self._dead_pairs.discard(pair)
            if not self._uf_stale:
                self._uf.union(src, dst)

    def _remove_edge(
        self, src: int, dst: int, kind: EdgeKind, belief: Mode | None, count: int = 1
    ) -> None:
        key: _EdgeKey = (dst, kind, belief)
        store = self._edges_by_src[src]
        left = store[key] - count
        if left:
            store[key] = left
        else:
            del store[key]
        out = self._out[src]
        left = out[dst] - count
        if left:
            out[dst] = left
        else:
            del out[dst]
        inn = self._in[dst]
        left = inn[src] - count
        if left:
            inn[src] = left
        else:
            del inn[src]
        self._edge_total -= count
        nb = _normalize(belief)
        bucket = self._phi_buckets[dst]
        left = bucket[nb] - count
        if left:
            bucket[nb] = left
        else:
            del bucket[nb]
        if nb is not self._mode[dst]:
            self._phi -= count
        if src != dst and self._pstate.get(dst) is not PState.GONE:
            pair = (src, dst) if src < dst else (dst, src)
            left = self._pair_counts[pair] - count
            if left:
                self._pair_counts[pair] = left
            else:
                del self._pair_counts[pair]
                # Last parallel copy of the pair died; the union-find may
                # now over-merge. Defer the judgment: the pair usually
                # reappears within the same atomic step (dequeue → store),
                # and the bridge-candidate test runs at the next query.
                if not self._uf_stale:
                    self._dead_pairs.add(pair)

    def _neighbours(self, pid: int) -> set[int]:
        """Live undirected neighbours of *pid* (non-gone, no self)."""
        found: set[int] = set()
        for q in self._out.get(pid, ()):
            if q != pid and self._pstate.get(q) is not PState.GONE:
                found.add(q)
        for q in self._in.get(pid, ()):
            if q != pid and self._pstate.get(q) is not PState.GONE:
                found.add(q)
        return found

    def _share_neighbour(self, a: int, b: int) -> bool:
        na, nb = self._neighbours(a), self._neighbours(b)
        if len(nb) < len(na):
            na, nb = nb, na
        return any(q in nb for q in na)

    # ------------------------------------------------------------------ deltas

    def on_enqueue(self, pid: int, msg: Message) -> None:
        """A message entered ``pid.Ch`` (implicit edges appear)."""
        self._channel_len[pid] = self._channel_len.get(pid, 0) + 1
        self._pending_total += 1
        if self._pstate.get(pid) is PState.GONE:
            return  # gone processes are outside PG; their mail is inert
        # The int-pair delta feed: no Ref objects, no generator chain —
        # the pairs were computed once when the message was first seen.
        for dst, belief in msg.edge_pairs():
            self._add_edge(pid, dst, EdgeKind.IMPLICIT, belief)

    def on_dequeue(self, pid: int, msg: Message) -> None:
        """A message left ``pid.Ch`` (implicit edges disappear)."""
        self._channel_len[pid] -= 1
        self._pending_total -= 1
        if self._pstate.get(pid) is PState.GONE:
            return
        for dst, belief in msg.edge_pairs():
            self._remove_edge(pid, dst, EdgeKind.IMPLICIT, belief)

    def apply_explicit_diff(
        self, pid: int, before: Counter[_RefKey], proc: Process
    ) -> None:
        """Commit the acting process's ref store/drop deltas.

        *before* is the :func:`explicit_fingerprint` taken when the action
        started; the current ``stored_refs()`` of *proc* is the after
        image. Cost is O(deg) of the acting process — the Δ of the step.
        """

        after = explicit_fingerprint(proc)
        if after == before:
            return
        for (dst, belief), count in before.items():
            extra = count - after.get((dst, belief), 0)
            if extra > 0:
                self._remove_edge(pid, dst, EdgeKind.EXPLICIT, belief, extra)
        for (dst, belief), count in after.items():
            extra = count - before.get((dst, belief), 0)
            if extra > 0:
                self._add_edge(pid, dst, EdgeKind.EXPLICIT, belief, extra)

    def apply_ref_deltas(self, pid: int, deltas: dict[_RefKey, int]) -> None:
        """Commit net explicit-edge deltas recorded write-through.

        *deltas* is a drained :class:`~repro.sim.refs.RefDeltaLog`
        ``pending`` dict: ``(dst_pid, belief) → ±count`` accumulated by
        the acting process's tracked ref containers during one atomic
        action. Equivalent to :meth:`apply_explicit_diff` with the
        before/after fingerprints, but O(writes) instead of O(refs) —
        no fingerprint is ever taken.
        """

        for (dst, belief), count in deltas.items():
            if count > 0:
                self._add_edge(pid, dst, EdgeKind.EXPLICIT, belief, count)
            elif count < 0:
                self._remove_edge(pid, dst, EdgeKind.EXPLICIT, belief, -count)

    def on_state(self, pid: int, state: PState) -> None:
        """Lifecycle delta: exit purges the pid's out-edges; sleep/wake
        only flips the state consulted by relevance queries."""

        old = self._pstate.get(pid)
        self._pstate[pid] = state
        if state is PState.GONE and old is not PState.GONE:
            # Out-edges leave PG with the process (its stored refs and
            # channel content remain physically present but unobservable).
            for (dst, kind, belief), count in list(
                self._edges_by_src.get(pid, {}).items()
            ):
                self._remove_edge(pid, dst, kind, belief, count)
            # In-edges from live processes survive in the multiset (Φ still
            # counts them) but stop carrying connectivity; the union-find
            # must forget the node entirely.
            self._uf_stale = True

    def on_admit(self, pid: int, proc: Process) -> None:
        """Open-system join: *pid* enters the system mid-run.

        The newcomer arrives with an empty channel and whatever explicit
        edges its pre-seeded neighbourhood variables already hold (the
        engine has validated that every target exists). The union-find
        gains a node lazily — marking the epoch stale is correct and
        costs one rebuild at the next connectivity query, amortized over
        the whole admission burst.
        """

        self._mode[pid] = proc.mode
        self._pstate[pid] = proc.state
        self._channel_len[pid] = 0
        self._edges_by_src[pid] = {}
        self._out[pid] = {}
        self._in.setdefault(pid, {})
        self._phi_buckets.setdefault(pid, {})
        # Stale FIRST: _add_edge eagerly unions into a non-stale union-find,
        # which does not contain the newcomer yet.
        self._uf_stale = True
        for info in proc.stored_refs():
            self._add_edge(pid, pid_of(info.ref), EdgeKind.EXPLICIT, info.mode)

    def on_reap(self, pid: int) -> None:
        """Open-system reclaim: gone, unreferenced *pid* leaves entirely.

        The engine guarantees the precondition (no other process stores
        or carries a reference to *pid*), so the pid's in-edge index and
        Φ buckets are already empty and its out-edges were purged when it
        went gone. Only its (inert) channel backlog still counts — drop
        it from the pending total. The pid keeps its ``GONE`` tombstone:
        ``_pair_counts`` may still name it from before its exit, and the
        connectivity rebuild skips pairs with gone endpoints.
        """

        self._pending_total -= self._channel_len.pop(pid, 0)

    def reprice(self, pid: int, new_mode: Mode) -> None:
        """Re-derive Φ's contribution from edges into *pid* after a mode
        change, touching only that pid's belief buckets.

        Called by ``Engine.request_leave`` — the open-system event that
        flips a session's mode to leaving: beliefs about *pid* attached
        to in-flight messages and stored refs may change validity, and
        the per-target bucketing makes that an O(1) repricing.
        """

        self._phi -= self._phi_for(pid)
        self._mode[pid] = new_mode
        self._phi += self._phi_for(pid)

    def _phi_for(self, pid: int) -> int:
        """Φ contribution of the edges currently pointing at *pid*."""
        actual = self._mode[pid]
        return sum(
            c for b, c in self._phi_buckets.get(pid, {}).items() if b is not actual
        )

    def phi_by_subject(self) -> dict[int, int]:
        """Φ broken down by the process the invalid information is *about*.

        ``{y: count}`` over edges ``(x, y)`` whose attached belief differs
        from ``mode(y)`` — read straight from the per-target Φ buckets,
        O(targets with incident edges). Zero contributions are omitted, so
        ``sum(...) == phi``.
        """

        out: dict[int, int] = {}
        for pid in self._phi_buckets:
            contribution = self._phi_for(pid)
            if contribution:
                out[pid] = contribution
        return out

    def phi_by_holder(self) -> dict[int, int]:
        """Φ broken down by the process *holding* the invalid information.

        ``{x: count}`` over edges ``(x, y)`` whose attached belief differs
        from ``mode(y)`` — who still stores or carries stale knowledge,
        the "who is blocking the drain" view used in livelock diagnosis.
        Requires a scan of the edge multiset (O(distinct edge keys)); an
        analysis query, not a per-step probe.
        """

        out: dict[int, int] = {}
        for src, store in self._edges_by_src.items():
            total = 0
            for (dst, _kind, belief), count in store.items():
                if _normalize(belief) is not self._mode[dst]:
                    total += count
            if total:
                out[src] = total
        return out

    # ------------------------------------------------------------------ queries

    @property
    def phi(self) -> int:
        """The potential Φ of Lemma 3, maintained as a running counter."""
        return self._phi

    @property
    def edge_total(self) -> int:
        """Number of edges in PG (parallel copies and self-loops counted)."""
        return self._edge_total

    @property
    def pending_total(self) -> int:
        """Messages pending across *all* channels (gone pids included)."""
        return self._pending_total

    def state_of(self, pid: int) -> PState:
        return self._pstate[pid]

    def alive_pids(self) -> list[int]:
        return [p for p, s in self._pstate.items() if s is not PState.GONE]

    def partners(self, pid: int) -> set[int]:
        """Non-gone processes (≠ *pid*) sharing an edge with *pid* — the
        SINGLE oracle's partner index, read in O(deg)."""

        if self._pstate.get(pid) is PState.GONE:
            return set()
        found = self._neighbours(pid)
        return found

    # -- connectivity ---------------------------------------------------------

    def _fresh_uf(self) -> UnionFind:
        if not self._uf_stale and self._dead_pairs:
            # Bridge-candidate test per dead pair: a surviving common
            # live neighbour exhibits a 2-edge path between the
            # endpoints, so the union-find's historical merge is still
            # sound; any pair without one forces an epoch rebuild.
            for a, b in self._dead_pairs:
                if not self._share_neighbour(a, b):
                    self._uf_stale = True
                    break
            self._dead_pairs.clear()
        if self._uf_stale:
            uf = UnionFind(
                p for p, s in self._pstate.items() if s is not PState.GONE
            )
            for (a, b), _count in self._pair_counts.items():
                if (
                    self._pstate.get(a) is not PState.GONE
                    and self._pstate.get(b) is not PState.GONE
                ):
                    uf.union(a, b)
            self._uf = uf
            self._uf_stale = False
            self._dead_pairs.clear()
        return self._uf

    def same_component(self, members: Iterable[int]) -> bool:
        """Whether *members* are all non-gone pids sharing one weakly
        connected component of the full live graph (False if any is
        gone or unknown).

        Exact for the Lemma 2 check on sleeper-free runs: under
        copy-store-send protocols initial components never merge, so a
        path between members cannot leave their initial component, and
        with no sleepers every same-component node is itself a member.
        """

        pstate = self._pstate
        uf: UnionFind | None = None
        root: int | None = None
        for pid in members:
            if pstate.get(pid, PState.GONE) is PState.GONE:
                return False
            if uf is None:
                uf = self._fresh_uf()
                root = uf.find(pid)
            elif uf.find(pid) != root:
                return False
        return True

    def component_labels(self, pids: Iterable[int]) -> dict[int, int]:
        """Label of every non-gone pid in *pids*: the first pid, in
        *pids* order, of its weakly connected component."""
        pstate = self._pstate
        return first_member_labels(
            (p for p in pids if pstate.get(p, PState.GONE) is not PState.GONE),
            self._fresh_uf().find,
        )

    def n_components(self) -> int:
        """Number of weakly connected components among non-gone processes."""
        return self._fresh_uf().n_sets

    def induced_connected(
        self, members: frozenset[int], via: frozenset[int] = frozenset()
    ) -> bool:
        """Whether all *members* lie in one weakly connected component of
        the subgraph induced on ``members | via`` — the exact predicate
        the monitors need when hibernating processes must be excluded
        (O(Σ deg(members ∪ via)), no snapshot).

        *via* nodes are passage only: paths through them count (the
        open-system monitors pass the relevant mid-run admissions here),
        but their own connectivity is not required."""

        if len(members) <= 1:
            return True
        allowed = members | via
        uf = UnionFind(allowed)
        for a in allowed:
            for b in self._out.get(a, ()):
                if b != a and b in allowed:
                    uf.union(a, b)
        root = None
        for m in members:
            r = uf.find(m)
            if root is None:
                root = r
            elif r != root:
                return False
        return True

    # -- relevance (hibernation) ---------------------------------------------

    def hibernating(self) -> frozenset[int]:
        """Fixpoint of the hibernation definition over the live indices
        (quiet-asleep processes not reachable from any non-quiet one)."""

        quiet = {
            pid
            for pid, s in self._pstate.items()
            if s is PState.ASLEEP and self._channel_len.get(pid, 0) == 0
        }
        if not quiet:
            return frozenset()
        changed = True
        while changed:
            changed = False
            for pid in list(quiet):
                for src in self._in.get(pid, ()):
                    if src not in quiet and self._pstate.get(src) is not PState.GONE:
                        quiet.discard(pid)
                        changed = True
                        break
        return frozenset(quiet)

    def relevant(self) -> frozenset[int]:
        """Non-gone, non-hibernating pids."""
        return frozenset(
            p for p, s in self._pstate.items() if s is not PState.GONE
        ) - self.hibernating()

    # ------------------------------------------------------------------ materialize

    def iter_edges(self) -> Iterator[Edge]:
        """Expand the counted multiset into concrete :class:`Edge` values."""
        for src, store in self._edges_by_src.items():
            for (dst, kind, belief), count in store.items():
                edge = Edge(src, dst, kind, belief)
                for _ in range(count):
                    yield edge

    def materialize(self) -> ProcessGraph:
        """An immutable :class:`ProcessGraph` equal to a from-scratch
        rebuild of the current state — the analysis/test-oracle view,
        built on demand from the live counters."""

        nodes = [
            NodeView(
                pid=pid,
                mode=self._mode[pid],
                state=state,
                channel_len=self._channel_len.get(pid, 0),
            )
            for pid, state in self._pstate.items()
            if state is not PState.GONE
        ]
        return ProcessGraph(nodes, self.iter_edges())

    def __repr__(self) -> str:
        return (
            f"LiveGraph(n={len(self._pstate)}, m={self._edge_total}, "
            f"phi={self._phi}, pending={self._pending_total})"
        )
