"""Section 4: embedding the departure protocol into any overlay protocol P ∈ 𝒫.

Given an overlay maintenance protocol P (as an
:class:`~repro.overlays.base.OverlayLogic`) that

* decomposes into the four primitives (safety),
* self-introduces periodically in its timeout, and
* can reintegrate references via a postprocess hook,

:class:`FrameworkProcess` realizes the combined protocol P′ that solves
the FDP while letting P operate undisturbed for the staying processes
(Theorem 4). The construction follows the paper's description:

**preprocess / verify / process.** Whenever P wants to send
``v ← label(x₁ … x_k)``, the message is *not* sent. It is stored in the
process's ``mlist`` with every referenced process's mode marked
``unknown``, and a ``verify(u)`` message goes to v and each xᵢ. Every
process (staying or leaving) answers ``verify`` with ``process(self)``
carrying its true mode. Once all modes for an mlist entry are known, the
entry is *finalized*: if everyone involved is staying, the original P
message is sent; otherwise the local ``postprocess`` runs — staying
references are reintegrated into P, references of leaving processes are
removed by handing those processes our own reference (a reversal, i.e.
exactly the ``forward``/``present`` machinery of the Section 3 protocol).

**verify retries and the gone-target fallback.** Verify messages are
re-sent in every timeout while unanswered. A process that exited can
never answer, so after ``max_verify_retries`` resends the unanswered
modes are *presumed leaving* and the entry is finalized via postprocess.
This presumption is safe even when wrong: postprocess never destroys
connectivity (it reverses, it does not drop), so a slow-but-staying
process merely costs P some re-stabilization work. The paper leaves this
corner to the unpublished full framework; the retry bound is our
reconstruction and is ablated in the E8 benchmarks.

**leaving processes.** A leaving process does not execute P actions: on
receiving a P message it sends ``present(self)`` to every referenced
process (so they remove references to it), and its timeout drains P's
references and its own mlist into the Section 3 departure machinery
(anchor adoption, delegation, SINGLE-guarded exit).

**staying processes.** ``present``/``forward`` behave as in Section 3
except that a staying reference received from a staying process is handed
to P's ``integrate`` instead of a flat ``N := N ∪ {v}`` — P decides where
the reference belongs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from collections.abc import Iterator
from typing import Any

from repro.core.fdp import FDPProcess, normalize_belief
from repro.sim.messages import RefInfo
from repro.sim.process import ActionContext
from repro.sim.refs import Ref
from repro.sim.states import Mode

__all__ = ["FrameworkProcess", "PendingMessage"]


@dataclass(slots=True)
class PendingMessage:
    """One withheld P message awaiting mode verification."""

    uid: int
    target: Ref
    label: str
    args: tuple[Any, ...]  # bare Refs and opaque payload, original order
    modes: dict[Ref, Mode | None]  # None = unknown (verify outstanding)
    retries: int = 0
    presumed: set[Ref] = field(default_factory=set)  # timeout-presumed leaving

    def unknown_refs(self) -> list[Ref]:
        return [r for r, m in self.modes.items() if m is None]

    def ready(self) -> bool:
        return not self.unknown_refs()

    def all_staying(self) -> bool:
        return all(m is Mode.STAYING for m in self.modes.values())

    def refs(self) -> Iterator[Ref]:
        yield self.target
        for a in self.args:
            if isinstance(a, Ref):
                yield a


class FrameworkProcess(FDPProcess):
    """P′ = framework(P): one process of the combined protocol.

    ``logic_factory`` builds the per-process
    :class:`~repro.overlays.base.OverlayLogic`. The inherited FDP
    neighbourhood ``N`` stays empty for staying processes — P's variables
    replace it — but the anchor machinery is inherited unchanged.
    """

    #: verify resends before unanswered modes are presumed leaving.
    max_verify_retries: int = 8

    #: Stored refs span the overlay logic's internals, ``beliefs`` and the
    #: mlist — too diffuse for write-through tracking; the engine keeps
    #: fingerprint-diffing this protocol (the inherited tracked N/anchor
    #: containers stay dormant: their log is never armed).
    ref_tracking = False

    @classmethod
    def join(cls, pid: int, logic_factory, contact: Ref) -> "FrameworkProcess":
        """A newcomer pre-wired to attach by edge to *contact* — hand the
        result straight to :meth:`repro.sim.engine.Engine.admit`."""
        proc = cls(pid, Mode.STAYING, logic_factory)
        proc.logic.join(contact)
        return proc

    def __init__(self, pid: int, mode: Mode, logic_factory) -> None:
        super().__init__(pid, mode)
        self.logic = logic_factory(self.self_ref)
        self.requires_order = self.logic.requires_order
        #: the framework's knowledge of P-neighbour modes.
        self.beliefs: dict[Ref, Mode] = {}
        self.mlist: list[PendingMessage] = []
        self._uid = itertools.count()
        #: context threaded to P's send function for the current atomic
        #: action (set by _p_send_fn, consumed synchronously by _p_send —
        #: avoids allocating a closure per action).
        self._p_ctx: ActionContext | None = None
        #: per-label dispatchers, built once (handler() must not allocate).
        self._p_handlers = {
            label: partial(self._dispatch_p, label)
            for label in self.logic.message_labels
        }

    # ------------------------------------------------------------------ state

    def stored_refs(self) -> Iterator[RefInfo]:
        yield from super().stored_refs()  # N (leaving transients) + anchor
        seen: set[Ref] = set()
        for ref in self.logic.neighbor_refs():
            if ref not in seen:
                seen.add(ref)
                yield RefInfo(ref, self.beliefs.get(ref, Mode.STAYING))
        for entry in self.mlist:
            for ref in entry.refs():
                if ref != self.self_ref:
                    yield RefInfo(ref, entry.modes.get(ref))

    def describe_vars(self) -> dict:
        out = super().describe_vars()
        out["logic"] = self.logic.describe_vars()
        out["mlist"] = [
            {
                "target": repr(e.target),
                "label": e.label,
                "unknown": [repr(r) for r in e.unknown_refs()],
                "retries": e.retries,
            }
            for e in self.mlist
        ]
        return out

    # ------------------------------------------------------------------ P send path

    def _p_send_fn(self, ctx: ActionContext):
        """The send function handed to P: every send is preprocessed."""
        self._p_ctx = ctx
        return self._p_send

    def _p_send(self, target: Ref, label: str, *args: Any) -> None:
        ctx = self._p_ctx
        assert ctx is not None, "P send outside an atomic action"
        self._preprocess(ctx, target, label, args)

    def _keys(self, ctx: ActionContext):
        return ctx.keys if self.requires_order else None

    def _preprocess(
        self, ctx: ActionContext, target: Ref, label: str, args: tuple[Any, ...]
    ) -> None:
        """Withhold the P message and launch mode verification."""
        modes: dict[Ref, Mode | None] = {}
        for ref in itertools.chain(
            [target], (a for a in args if isinstance(a, Ref))
        ):
            if ref == self.self_ref:
                continue  # our own mode is known and needs no verification
            modes.setdefault(ref, None)
        entry = PendingMessage(
            uid=next(self._uid),
            target=target,
            label=label,
            args=tuple(args),
            modes=modes,
        )
        if entry.ready():  # only self-references: deliver immediately
            self._finalize(ctx, entry)
            return
        self.mlist.append(entry)
        for ref in entry.unknown_refs():
            ctx.send(ref, "verify", RefInfo(self.self_ref, self.mode))

    def _finalize(self, ctx: ActionContext, entry: PendingMessage) -> None:
        """All modes known: send the P message, or postprocess."""
        if entry.all_staying():
            # Building the outgoing payload happens once per *finalized*
            # message; each RefInfo IS the piggybacked belief the model
            # requires the message to carry, not incidental copying.
            wrapped = tuple(
                RefInfo(a, entry.modes.get(a, self.mode))
                if isinstance(a, Ref)
                else a
                for a in entry.args
            )
            ctx.send(entry.target, entry.label, *wrapped)
            return
        self._postprocess(ctx, entry)

    def _postprocess(self, ctx: ActionContext, entry: PendingMessage) -> None:
        """Exclude leaving references, reintegrate staying ones into P."""
        handled: set[Ref] = set()
        for ref in entry.refs():
            if ref == self.self_ref or ref in handled:
                continue
            handled.add(ref)
            mode = entry.modes.get(ref, Mode.STAYING)
            if mode is Mode.STAYING:
                self._integrate(ctx, ref)
            else:
                # Reversal: the (possibly gone, then harmless) leaving
                # process receives our reference instead of us keeping
                # its.                                                    ♣
                # P must also forget the reference (as on_present does for
                # a *verified* leaving mode) — otherwise a presumed-gone
                # neighbour stays in P, P re-targets it on every timeout,
                # and each round spawns a fresh verify cycle that can
                # never be answered: a livelock with unbounded channel
                # growth.
                if self.logic.drop_neighbor(ref):
                    self.beliefs.pop(ref, None)
                ctx.send(ref, "present", RefInfo(self.self_ref, self.mode))
        payload = tuple(a for a in entry.args if not isinstance(a, Ref))
        if payload:
            self.logic.postprocess_extra(ctx, payload)

    def _integrate(self, ctx: ActionContext, ref: Ref) -> None:
        """Hand a staying reference to P (Section 4's modified N ∪ {v})."""
        if ref == self.self_ref:
            return
        if self.mode is Mode.LEAVING:
            # Leaving processes run the Section 3 machinery instead.
            self.on_forward(ctx, RefInfo(ref, Mode.STAYING))
            return
        self.beliefs[ref] = Mode.STAYING
        if self.requires_order:
            # integrate never sends; only key classification is needed.
            if hasattr(self.logic, "integrate_with_keys"):
                from repro.sim.refs import KeyProvider

                self.logic.integrate_with_keys(KeyProvider(), ref)
                return
        self.logic.integrate(self._p_send_fn(ctx), ref)

    # ------------------------------------------------------------------ timeout

    def timeout(self, ctx: ActionContext) -> None:
        if self.mode is Mode.LEAVING:
            self._leaving_timeout(ctx)
        else:
            self._staying_timeout(ctx)

    def _staying_timeout(self, ctx: ActionContext) -> None:
        # Anchor hygiene, inherited from Algorithm 1 lines 16–18.
        if self.anchor is not None:
            self._clear_anchor_to_self(ctx)
        # Drop P-neighbours now known to be leaving (reversal).           ♣
        for ref in list(self.logic.neighbor_refs()):
            if self.beliefs.get(ref, Mode.STAYING) is Mode.LEAVING:
                self.logic.drop_neighbor(ref)
                self.beliefs.pop(ref, None)
                ctx.send(ref, "present", RefInfo(self.self_ref, self.mode))
        # Any stray N content (transients from Section 3 branches) is
        # handed to P.
        for ref, belief in list(self.N.items()):
            del self.N[ref]
            if belief is Mode.LEAVING:
                ctx.send(ref, "present", RefInfo(self.self_ref, self.mode))  # ♣
            else:
                self._integrate(ctx, ref)
        # P's own periodic maintenance (sends are preprocessed).
        self.logic.p_timeout(self._p_send_fn(ctx), self._keys(ctx))
        # mlist maintenance: resend verifies; presume leaving after the
        # retry budget (see module docstring).
        finished: list[PendingMessage] = []
        for entry in self.mlist:
            unknowns = entry.unknown_refs()
            if not unknowns:
                finished.append(entry)  # pragma: no cover - finalized eagerly
                continue
            entry.retries += 1
            if entry.retries > self.max_verify_retries:
                for ref in unknowns:
                    entry.modes[ref] = Mode.LEAVING
                    entry.presumed.add(ref)
                finished.append(entry)
            else:
                for ref in unknowns:
                    ctx.send(ref, "verify", RefInfo(self.self_ref, self.mode))
        for entry in finished:
            self.mlist.remove(entry)
            self._finalize(ctx, entry)

    def _leaving_timeout(self, ctx: ActionContext) -> None:
        # Drain P's references and the mlist into the Section 3 machinery.
        drained = False
        for ref in list(self.logic.neighbor_refs()):
            self.logic.drop_neighbor(ref)
            belief = self.beliefs.pop(ref, Mode.STAYING)
            ctx.send(self.self_ref, "forward", RefInfo(ref, belief))  #    ♦
            drained = True
        for entry in self.mlist:
            for ref in dict.fromkeys(entry.refs()):  # ordered dedup
                if ref == self.self_ref:
                    continue
                ctx.send(
                    self.self_ref,
                    "forward",
                    RefInfo(ref, entry.modes.get(ref) or Mode.STAYING),
                )
                drained = True
        self.mlist.clear()
        if drained:
            return
        # Nothing of P's left: run the plain Algorithm 1 (which handles
        # the N transients, the anchor, SINGLE and exit).
        super().timeout(ctx)

    # ------------------------------------------------------------------ departure-layer handlers

    def on_present(self, ctx: ActionContext, info: RefInfo) -> None:
        """Algorithm 2, with the staying-from-staying branch handed to P."""
        v = info.ref
        if v == self.self_ref:
            return
        m = normalize_belief(info.mode)
        if (
            self.mode is Mode.STAYING
            and m is Mode.STAYING
        ):
            self._drop_stale_anchor(v, m)
            self._integrate(ctx, v)  # Section 4's modified line 17
            return
        if self.mode is Mode.STAYING and m is Mode.LEAVING:
            # Make sure P also forgets v (lines 7–8 analogue).            ♠
            if self.logic.drop_neighbor(v):
                self.beliefs.pop(v, None)
        super().on_present(ctx, info)

    def on_forward(self, ctx: ActionContext, info: RefInfo) -> None:
        """Algorithm 3, with the staying-from-staying branch handed to P."""
        v = info.ref
        if v == self.self_ref:
            return
        m = normalize_belief(info.mode)
        if self.mode is Mode.STAYING and m is Mode.STAYING:
            self._drop_stale_anchor(v, m)
            self._integrate(ctx, v)  # Section 4's modified line 20
            return
        if self.mode is Mode.STAYING and m is Mode.LEAVING:
            if self.logic.drop_neighbor(v):  #                            ♠
                self.beliefs.pop(v, None)
        super().on_forward(ctx, info)

    # ------------------------------------------------------------------ framework messages

    def on_verify(self, ctx: ActionContext, info: RefInfo) -> None:
        """Answer a mode query with our true mode (all processes answer)."""
        requester = info.ref
        if requester == self.self_ref:
            return
        ctx.send(requester, "process", RefInfo(self.self_ref, self.mode))

    def on_process(self, ctx: ActionContext, info: RefInfo) -> None:
        """A verified mode arrived: update mlist entries (and beliefs)."""
        x = info.ref
        if x == self.self_ref:
            return
        m = normalize_belief(info.mode)
        self._drop_stale_anchor(x, m)
        matched = False
        ready: list[PendingMessage] = []
        for entry in self.mlist:
            if x in entry.modes:
                if entry.modes[x] is None:
                    entry.modes[x] = m
                matched = True
                if entry.ready():
                    ready.append(entry)
        if x in self.beliefs or any(r == x for r in self.logic.neighbor_refs()):
            self.beliefs[x] = m
            matched = True
        for entry in ready:
            self.mlist.remove(entry)
            self._finalize(ctx, entry)
        if not matched:
            # Unsolicited/garbage: dispose of the reference safely via the
            # standard forward machinery (never just drop an edge).
            self.on_forward(ctx, RefInfo(x, m))

    # ------------------------------------------------------------------ P messages

    def handler(self, label: str):
        fn = self._p_handlers.get(label)
        if fn is not None:
            return fn
        return super().handler(label)

    def _dispatch_p(self, label: str, ctx: ActionContext, *args) -> None:
        self._handle_p_message(ctx, label, args)

    def _handle_p_message(
        self, ctx: ActionContext, label: str, args: tuple[Any, ...]
    ) -> None:
        infos = [a for a in args if isinstance(a, RefInfo)]
        if self.mode is Mode.LEAVING:
            # Leaving processes do not execute P actions; they remove
            # possible references to themselves instead.                  ♣
            for info in infos:
                if info.ref != self.self_ref:
                    ctx.send(
                        info.ref, "present", RefInfo(self.self_ref, self.mode)
                    )
            return
        leaving_claimed = [
            i for i in infos if normalize_belief(i.mode) is Mode.LEAVING
        ]
        if leaving_claimed:
            # Verified P messages only reference staying processes, so
            # this is corrupted-initial-state garbage: salvage the refs
            # without running P.
            for info in infos:
                if info.ref == self.self_ref:
                    continue
                if normalize_belief(info.mode) is Mode.LEAVING:
                    ctx.send(
                        info.ref, "present", RefInfo(self.self_ref, self.mode)
                    )  #                                                   ♣
                else:
                    self._integrate(ctx, info.ref)
            return
        bare = tuple(a.ref if isinstance(a, RefInfo) else a for a in args)
        for info in infos:
            if info.ref != self.self_ref:
                self.beliefs[info.ref] = Mode.STAYING
        self.logic.handle(self._p_send_fn(ctx), self._keys(ctx), label, *bare)
