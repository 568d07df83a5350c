"""Oracles: predicates advising leaving processes when exit is safe.

Foreback et al. [15] proved no distributed algorithm in this model can
decide when a process may safely leave — hence oracles. The paper
restricts attention to oracles of the form ``O : PG × P → {true, false}``
(a function of the current process graph of relevant processes and the
calling process) and introduces:

    **SINGLE** — true for u iff u has edges with at most one other
    relevant process.

If SINGLE(u) holds, removing u and its incident edges cannot disconnect
relevant processes: at most one relevant process loses edges, and it only
loses edges to u. The paper picks SINGLE "for its simplicity, since we
expect it to be easily implementable via timeouts in practice".

Alongside the exact oracle this module ships the ablation variants used
by experiment E11:

* :class:`AlwaysOracle` / :class:`NeverOracle` — the trivial bounds; ALWAYS
  demonstrates *why* an oracle is needed (it admits unsafe exits that can
  disconnect the overlay), NEVER demonstrates that liveness genuinely
  depends on the oracle firing.
* :class:`TimeoutSingleOracle` — a local approximation of SINGLE in the
  spirit of the paper's "implementable via timeouts" remark: it only sees
  *explicit* edges and the caller's own channel, i.e. it misses references
  to the caller that are still in flight inside other processes' channels.
  The experiment measures how often that blind spot would have mattered.
* :class:`AuditedOracle` — wraps any of them and checks each true verdict
  against a reference oracle (SINGLE in E11), counting the exits whose
  safety the wrapped oracle does not guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import SafetyViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = [
    "SingleOracle",
    "AlwaysOracle",
    "NeverOracle",
    "TimeoutSingleOracle",
    "NoIncomingOracle",
    "AuditedOracle",
    "ORACLES",
]


class SingleOracle:
    """The exact SINGLE oracle of Section 1.3.

    ``SINGLE(u)`` is true iff, in the current process graph, u has edges
    (in either direction, explicit or implicit) with at most one other
    *relevant* process. Hibernating and gone processes do not count.
    """

    name = "single"

    def __call__(self, engine: Engine, pid: int) -> bool:
        # engine.partner_pids implements exactly this predicate's partner
        # set: an O(deg) read of the core's or the live graph's partner
        # index.
        return len(engine.partner_pids(pid)) <= 1

    def __repr__(self) -> str:
        return "SingleOracle()"


class AlwaysOracle:
    """Constant true — the unsafe ablation (E11).

    A leaving process exits as soon as its neighbourhood variable empties,
    regardless of in-flight references; disconnection becomes possible and
    the experiment counts how often it happens.
    """

    name = "always"

    def __call__(self, engine: Engine, pid: int) -> bool:
        return True

    def __repr__(self) -> str:
        return "AlwaysOracle()"


class NeverOracle:
    """Constant false — leaving processes can never exit.

    Shows the protocol's liveness is genuinely oracle-dependent: with
    NEVER, safety still holds but legitimacy is unreachable (leaving
    processes drain their neighbourhoods and then wait forever).
    """

    name = "never"

    def __call__(self, engine: Engine, pid: int) -> bool:
        return False

    def __repr__(self) -> str:
        return "NeverOracle()"


class TimeoutSingleOracle:
    """A locally-implementable approximation of SINGLE.

    Sees: the caller's stored references, other relevant processes'
    *stored* references to the caller, and the caller's own channel.
    Misses: references to the caller travelling in *other* processes'
    channels (implicit edges elsewhere) — exactly the information a
    timeout-based implementation cannot observe without waiting for
    worst-case message delays.

    With ``grace`` > 0 the oracle additionally requires that the caller's
    situation looked SINGLE for `grace` consecutive queries, modelling the
    timeout window; longer grace windows shrink (but cannot close) the
    unsafe gap, which is the E11 ablation's measured trade-off.
    """

    name = "timeout_single"

    def __init__(self, grace: int = 0) -> None:
        if grace < 0:
            raise ValueError("grace must be >= 0")
        self.grace = grace
        self._streak: dict[int, int] = {}

    def _locally_single(self, engine: Engine, pid: int) -> bool:
        snap = engine.snapshot()
        if pid not in snap:
            return True
        relevant = snap.relevant()
        partners: set[int] = set()
        # Outgoing edges are all locally visible: stored references plus
        # references inside the caller's own channel.
        for e in snap.out_edges(pid):
            if e.dst != pid and e.dst in relevant:
                partners.add(e.dst)
        # Incoming: only *explicit* edges (another process stores our ref,
        # observable by probing). Implicit in-edges — references to the
        # caller in other processes' channels — are the blind spot.
        for e in snap.in_edges(pid):
            if e.src != pid and e.src in relevant and e.kind.value == "explicit":
                partners.add(e.src)
        return len(partners) <= 1

    def __call__(self, engine: Engine, pid: int) -> bool:
        if self._locally_single(engine, pid):
            self._streak[pid] = self._streak.get(pid, 0) + 1
        else:
            self._streak[pid] = 0
        return self._streak[pid] > self.grace

    def __repr__(self) -> str:
        return f"TimeoutSingleOracle(grace={self.grace})"


class NoIncomingOracle:
    """NIDEC-style oracle (after Foreback et al. [15]): true for u iff no
    other relevant process has an edge *to* u — nobody stores or carries
    u's reference — **and u's own channel is empty**.

    The channel condition is essential: a staying process that sheds a
    leaving neighbour answers with a *reversal*, handing its own reference
    back — that reference sits in u's channel as an outgoing edge of u,
    which a pure no-incoming check would ignore. Exiting with it pending
    destroys the edge and can disconnect staying processes (our baseline
    tests reproduce exactly this race when the condition is dropped).
    SINGLE avoids the issue by construction because it counts edges in
    *both* directions.

    Unlike SINGLE, NoIncoming lets a leaving list node exit while still
    holding its two (bridged) list neighbours. On its own it still does
    not guarantee safety — removing u removes u's out-edges, which may be
    the only path between its neighbours — the baseline's same-action
    bridging discipline supplies that missing half, which is exactly why
    the paper's topology-agnostic SINGLE protocol is the more broadly
    applicable design.
    """

    name = "no_incoming"

    def __call__(self, engine: Engine, pid: int) -> bool:
        if len(engine.channels[pid]):
            return False
        snap = engine.snapshot()
        if pid not in snap:
            return True
        relevant = snap.relevant()
        for e in snap.in_edges(pid):
            if e.src != pid and e.src in relevant:
                return False
        return True

    def __repr__(self) -> str:
        return "NoIncomingOracle()"


class AuditedOracle:
    """An oracle whose true verdicts are checked against a reference.

    Returns the wrapped *oracle*'s verdict unchanged. On every true
    verdict it also evaluates *reference* for the same process on the
    same state, and records the pid in :attr:`unsafe_exits` when the
    reference is false; with ``strict=True`` it then raises
    :class:`~repro.errors.SafetyViolation`.

    On FDP this audits exactly the exits: Algorithm 1 follows a true
    verdict (line 6) with ``exit`` (line 7) in the same action, and the
    process graph does not change in between, so the reference sees the
    pre-exit state and ``audited`` equals the run's exits. Used by the
    oracle-ablation experiment (E11) to count the exits that ALWAYS or
    a timeout approximation admit while SINGLE forbids them. The soa
    core does not kernelize the wrapper: a run that uses it executes on
    the object loop.
    """

    def __init__(
        self,
        oracle: Callable[[Engine, int], bool],
        reference: Callable[[Engine, int], bool],
        strict: bool = False,
    ) -> None:
        self.oracle = oracle
        self.reference = reference
        self.strict = strict
        #: pids whose true verdict the reference contradicted, in order.
        self.unsafe_exits: list[int] = []
        #: number of true verdicts checked.
        self.audited = 0

    def __call__(self, engine: Engine, pid: int) -> bool:
        verdict = self.oracle(engine, pid)
        if verdict:
            self.audited += 1
            if not self.reference(engine, pid):
                self.unsafe_exits.append(pid)
                if self.strict:
                    raise SafetyViolation(
                        f"oracle {self.oracle!r} let process {pid} exit at "
                        f"step {engine.step_count} while {self.reference!r} "
                        "was false"
                    )
        return verdict

    def __repr__(self) -> str:
        return f"AuditedOracle({self.oracle!r}, reference={self.reference!r})"


#: Registry for experiment sweeps.
ORACLES = {
    "single": SingleOracle,
    "always": AlwaysOracle,
    "never": NeverOracle,
    "timeout_single": TimeoutSingleOracle,
    "no_incoming": NoIncomingOracle,
}
