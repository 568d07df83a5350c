"""The Finite Sleep Problem variant: departure without an oracle.

In the FSP the ``exit`` command (and hence the gone state) is unavailable;
leaving processes instead ``sleep``, and a sleeping process resumes
computation whenever a message addressed to it is processed. Legitimacy
requires every leaving process to be *hibernating*: asleep with an empty
channel and no directed path from any awake-or-messageful process. By the
claim of Foreback et al. [15] reproduced in the paper, a hibernating
process is permanently asleep — hibernation is the sleep-world analogue
of being gone.

:class:`FSPProcess` reuses the entire Algorithms 1–3 transcription from
:class:`~repro.core.fdp.FDPProcess`. The paper only sketches the FSP
("analogous to the results in [15] we can overcome the use of oracles by
relaxing the FDP to the FSP"), so the precise variant below is our
reconstruction; every adaptation exists to remove a concrete livelock our
adversarial-scheduler tests exhibit for the naive "replace exit by sleep"
translation, and each is recorded in DESIGN.md:

1. **No oracle; sleep instead of exit.** A leaving process whose
   neighbourhood has drained sleeps unconditionally. Sleeping is safely
   reversible: if some process still holds our reference, its periodic
   self-introduction wakes us and we handle the message as usual.

2. **Parking instead of the forward-path leaving↔leaving reversal.**
   In the FDP, an anchor-less leaving process that is *forwarded* a
   reference to another leaving process performs a reversal, handing over
   its own reference. Two mutually-referencing anchor-less leaving
   processes then bounce references forever; the FDP escapes because
   SINGLE eventually lets one exit, but with ``sleep`` the pair wakes
   each other indefinitely. The FSP variant *parks* the reference
   instead: it is stored in a dedicated ``parked`` set (an ordinary
   explicit edge, so weak connectivity is preserved — parking is strictly
   more conservative than reversal) and delegated to the anchor as soon
   as one is known. Parked edges never block the holder's own hibernation
   (hibernation concerns paths *to* a process), so chains of mutually
   parked leaving processes hibernate together.

3. **Park notification.** Parking alone would freeze invalid information:
   if the parked process is actually *staying*, nobody ever tells it — or
   us — the truth, Φ stalls above zero, and the staying process may stay
   severed from the staying subgraph. Therefore the *first* time a
   reference is parked we self-introduce to it (legal ♦ over the parked
   edge, carrying our always-valid self information). A staying recipient
   answers with a reversal, which makes us adopt it as our anchor; a
   leaving recipient answers with its own true information, which we
   silently re-park — one round-trip, no livelock.

4. **One-shot anchor verification.** Corrupted initial states can pair
   two leaving processes as each other's anchors with believed-staying
   (invalid) anchor beliefs; each would forever delegate traffic to the
   other. In the FDP the ``present(u)``-to-anchor of Algorithm 1 runs
   whenever SINGLE is false and flushes such lies; the FSP has no such
   retry loop (it would ping a staying anchor awake forever), so instead
   an adopted-or-inherited anchor is verified exactly once: we
   self-introduce to it and mark it verified when its answer confirms a
   staying mode (a leaving answer purges it via the standard stale-anchor
   rule, after which it is parked).
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.fdp import FDPProcess
from repro.sim.messages import RefInfo
from repro.sim.process import ActionContext
from repro.sim.refs import Ref, RefMap
from repro.sim.states import Mode

__all__ = ["FSPProcess"]


class FSPProcess(FDPProcess):
    """FDP protocol with ``exit`` replaced by oracle-free ``sleep``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: leaving-believed references held while we have no anchor
        #: (tracked, like ``N``, so ref_tracking stays sound).
        self.parked: RefMap = RefMap(self._ref_log)
        #: anchor-verification state (adaptation 4).
        self.anchor_verified = False
        self.anchor_probe_sent = False

    # ------------------------------------------------------------------ state

    def stored_refs(self) -> Iterator[RefInfo]:
        yield from super().stored_refs()
        for ref, belief in self.parked.items():
            yield RefInfo(ref, belief)

    def stored_pids(self) -> list[int]:
        pids = super().stored_pids()
        pids += [ref._pid for ref in self.parked._d]  # noqa: SLF001
        return pids

    def describe_vars(self) -> dict:
        out = super().describe_vars()
        out["parked"] = {repr(r): b.value for r, b in self.parked.items()}
        out["anchor_verified"] = self.anchor_verified
        return out

    # ------------------------------------------------------------------ hooks

    def _consult_oracle(self, ctx: ActionContext) -> bool:
        """No oracle in the FSP: a drained leaving process always proceeds
        to the departure step (sleeping is safely reversible)."""
        return True

    def _departure_ready(self, ctx: ActionContext) -> None:
        """N is empty: sleep instead of exiting (Alg. 1 line 7 analogue)."""
        ctx.sleep()

    def _leaving_ref_no_anchor(self, ctx: ActionContext, v: Ref, m: Mode) -> None:
        """Forwarded a leaving reference while anchor-less: park it, and on
        first contact tell the parked process who we are (adaptations 2+3)."""
        fresh = v not in self.parked
        self.parked[v] = m  # re-parking overwrites: fusion               ♠
        if fresh:
            # Self-introduction over the freshly parked edge: our true
            # mode reaches v, correcting a possibly invalid belief.      ♦
            ctx.send(v, "present", RefInfo(self.self_ref, self.mode))

    # The present-path leaving↔leaving reversal is inherited unchanged from
    # FDPProcess: a reversal answer to a *present* cannot ping-pong, because
    # the answer travels as *forward* and the forward path parks (above).

    # ------------------------------------------------------------------ timeout

    def timeout(self, ctx: ActionContext) -> None:
        """Algorithm 1 plus the parked-reference drain and anchor probe."""
        trusted_anchor = (
            self.anchor is not None and self.anchor_belief is not Mode.LEAVING
        )
        if trusted_anchor and self.parked:
            for v, belief in self.parked.items():
                if v == self.anchor:
                    # u, v, w pairwise distinct: the anchor itself cannot
                    # be delegated to the anchor; requeue it to self as a
                    # pending present, mirroring Alg. 1 line 2.
                    ctx.send(self.self_ref, "present", RefInfo(v, belief))
                else:
                    ctx.send(self.anchor, "forward", RefInfo(v, belief))  # ♥
            self.parked.clear()
        if (
            trusted_anchor
            and self.mode is Mode.LEAVING
            and not self.anchor_verified
            and not self.anchor_probe_sent
        ):
            # Adaptation 4: verify the anchor exactly once.              ♦
            ctx.send(self.anchor, "present", RefInfo(self.self_ref, self.mode))
            self.anchor_probe_sent = True
        super().timeout(ctx)

    # ------------------------------------------------------------------ learning

    def _note_anchor_answer(self, v: Ref, m: Mode) -> None:
        """Record a confirmation that our anchor is staying."""
        if self.anchor is not None and v == self.anchor and m is Mode.STAYING:
            self.anchor_verified = True

    def on_present(self, ctx: ActionContext, info: RefInfo) -> None:
        if info.ref != self.self_ref:
            self._note_anchor_answer(info.ref, self.normalized(info))
        had_anchor = self.anchor
        super().on_present(ctx, info)
        self._reset_probe_if_anchor_changed(had_anchor)

    def on_forward(self, ctx: ActionContext, info: RefInfo) -> None:
        if info.ref != self.self_ref:
            self._note_anchor_answer(info.ref, self.normalized(info))
        had_anchor = self.anchor
        super().on_forward(ctx, info)
        self._reset_probe_if_anchor_changed(had_anchor)

    @staticmethod
    def normalized(info: RefInfo) -> Mode:
        from repro.core.fdp import normalize_belief

        return normalize_belief(info.mode)

    def _reset_probe_if_anchor_changed(self, previous: Ref | None) -> None:
        if self.anchor != previous:
            self.anchor_verified = False
            self.anchor_probe_sent = False
