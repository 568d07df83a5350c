"""The process model: actions, modes, lifecycle, and the action context.

A :class:`Process` is the unit of computation of the paper's model
(Section 1.1). It owns protocol variables, a read-only ``mode`` and a
lifecycle state (Figure 1), and defines *actions*:

* the **timeout action** — a guarded action whose guard is ``true``; the
  engine's weakly-fair schedulers execute it infinitely often for every
  process that stays awake;
* **remotely callable actions** — methods named ``on_<label>``; a message
  ``⟨label⟩(⟨params⟩)`` delivered to the process invokes
  ``on_<label>(ctx, *params)``. Messages whose label has no matching
  method are ignored, exactly as the paper specifies ("all other messages
  will be ignored by the processes").

Actions execute *atomically*: the engine runs one action to completion
before selecting the next event. All interaction with the outside world
goes through the :class:`ActionContext` handed to the action — sending
messages (``v ← label(params)``), the ``exit`` and ``sleep`` commands, and
oracle consultation. Keeping the side-effect surface on the context makes
every action a pure function of ``(local state, message, context)``, which
is what lets the test-suite drive each pseudocode branch in isolation.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from repro.errors import StateViolation
from repro.sim.messages import RefInfo
from repro.sim.refs import KeyProvider, Ref, RefDeltaLog
from repro.sim.states import Mode, PState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

__all__ = ["Process", "ActionContext"]


class ActionContext:
    """Capability object through which an executing action affects the world.

    One context is created per action execution. After the action returns,
    the context is *closed*: late calls (e.g. from a handler that stashed
    the context) raise :class:`~repro.errors.StateViolation`, preventing
    accidental violation of action atomicity.
    """

    __slots__ = ("_engine", "_process", "_closed", "_requested_state")

    def __init__(self, engine: Engine, process: Process) -> None:
        self._engine = engine
        self._process = process
        self._closed = False
        #: state transition requested by the action (applied on return)
        self._requested_state: PState | None = None

    # -- plumbing -------------------------------------------------------------

    def _reset(self, process: Process) -> None:
        """Re-arm this context for *process*'s next action.

        The engine keeps one pooled context per run and resets it instead
        of allocating per action; a closed context stays closed for any
        handler that stashed it, because the pool re-arms only at the
        start of the next action.
        """
        self._process = process
        self._closed = False
        self._requested_state = None

    def _check_open(self) -> None:
        if self._closed:
            raise StateViolation(
                "action context used after the action returned; actions are atomic"
            )

    def _close(self) -> PState | None:
        self._closed = True
        return self._requested_state

    # -- the model's communication primitive -----------------------------------

    @property
    def self_ref(self) -> Ref:
        """The executing process's own reference."""
        return self._process.self_ref

    def send(self, target: Ref, label: str, *args: Any) -> None:
        """Execute ``target ← label(args)``: deposit a message in target's channel.

        Reference parameters must be wrapped in
        :class:`~repro.sim.messages.RefInfo` carrying the sender's belief
        about their mode — the paper's "relevant information" piggyback.
        Information about oneself is always valid, so ``RefInfo(self_ref)``
        entries with ``mode=None`` are auto-completed with the actual mode.
        """

        self._check_open()
        proc = self._process
        if len(args) == 1:
            # Fast path: the FDP/FSP protocols always send exactly one
            # RefInfo, and it already carries the right belief unless it
            # is an under-specified self reference — reuse the caller's
            # tuple-free argument and allocate only when auto-completion
            # actually changes it.
            a = args[0]
            if (
                isinstance(a, RefInfo)
                and a.ref == proc.self_ref
                and a.mode is not proc.mode
            ):
                args = (RefInfo(a.ref, proc.mode),)
            self._engine.post(proc.pid, target, label, args)
            return
        self._engine.post(proc.pid, target, label, self._fix_args(args))

    def _fix_args(self, args: tuple[Any, ...]) -> tuple[Any, ...]:
        """Auto-complete self-RefInfo beliefs in a multi-arg parameter list."""
        proc = self._process
        # One RefInfo per under-specified self reference is the protocol
        # contract, not avoidable copying — and this slow path only runs
        # for multi-arg sends, which no shipped protocol issues.
        return tuple(
            RefInfo(a.ref, proc.mode)
            if isinstance(a, RefInfo) and a.ref == proc.self_ref
            else a
            for a in args
        )

    # -- the special commands ----------------------------------------------------

    def exit(self) -> None:
        """Execute the ``exit`` command: enter the designated *gone* state.

        Only available when the run's :class:`~repro.sim.states.Capability`
        includes EXIT (the FDP setting). Takes effect when the current
        action returns, matching atomic action semantics.
        """

        self._check_open()
        if not self._engine.capability.allows_exit:
            raise StateViolation(
                "exit command unavailable in this run (FSP setting: only sleep exists)"
            )
        self._requested_state = PState.GONE

    def sleep(self) -> None:
        """Execute the ``sleep`` command: enter the *asleep* state.

        Only available when the run's capability includes SLEEP (the FSP
        setting). The process wakes when a message addressed to it is next
        processed. Takes effect when the current action returns.
        """

        self._check_open()
        if not self._engine.capability.allows_sleep:
            raise StateViolation(
                "sleep command unavailable in this run (FDP setting: only exit exists)"
            )
        self._requested_state = PState.ASLEEP

    # -- oracle & environment ------------------------------------------------------

    def oracle(self) -> bool:
        """Consult the run's oracle for the executing process.

        Implements the paper's oracle interface ``O : PG × P → {true, false}``:
        the verdict is a function of the current process graph and the
        calling process only.
        """

        self._check_open()
        return self._engine.oracle_value(self._process.pid)

    @property
    def keys(self) -> KeyProvider:
        """Ordered keys, available only to protocols declaring ``requires_order``."""
        self._check_open()
        return self._engine.key_provider_for(self._process)

    @property
    def now(self) -> int:
        """Engine step counter — for tracing/diagnostics, not protocol logic."""
        return self._engine.step_count


class Process:
    """Base class for all protocol processes.

    Subclasses define protocol variables in ``__init__``, override
    :meth:`timeout` and add ``on_<label>`` handlers. They must also keep
    :meth:`stored_refs` accurate — it enumerates every reference held in
    local memory (the *explicit* edges of the process graph) together with
    the stored belief about each referenced process's mode. The engine
    derives connectivity, the Φ potential and the SINGLE oracle from it,
    so a protocol that under-reports its stored references would be
    cheating the model.
    """

    #: Set by protocols that need a total order on processes (see
    #: :class:`~repro.sim.refs.KeyProvider`). The paper's FDP protocol does
    #: not; the linearization overlay and the Foreback-style baseline do.
    requires_order: bool = False

    #: True when every reference this process stores lives in tracked
    #: containers (:class:`~repro.sim.refs.RefMap`/``RefCell``) wired to
    #: ``_ref_log``, so the engine can drain write-through deltas instead
    #: of fingerprint-diffing ``stored_refs()`` around each action.
    #: Protocols whose ref storage is too diffuse to track (e.g. the
    #: Section 4 framework, which spans overlay-logic internals) leave
    #: this False and keep the fingerprint path.
    ref_tracking: bool = False

    #: label → ``on_<label>`` method name, rebuilt per subclass from the
    #: class bodies along the MRO. This *is* the class's declarative
    #: action surface: :meth:`handler` dispatches through it instead of
    #: probing ``getattr`` per delivery, and static analysis reads the
    #: same ``on_<label>`` naming convention it is built from.
    _action_table: dict[str, str] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        table: dict[str, str] = {}
        for klass in reversed(cls.__mro__):
            for name, value in vars(klass).items():
                if name.startswith("on_") and callable(value):
                    table[name[3:]] = name
        cls._action_table = table
        if "stored_refs" in vars(cls) and "stored_pids" not in vars(cls):
            # A class that redefines its stores without a matching fast
            # stored_pids derives it from stored_refs again.
            cls.stored_pids = Process.stored_pids  # type: ignore[method-assign]

    @classmethod
    def action_labels(cls) -> tuple[str, ...]:
        """The message labels this class handles (remotely callable actions)."""
        return tuple(cls._action_table)

    def __init__(self, pid: int, mode: Mode) -> None:
        self._pid = int(pid)
        self._mode = mode
        self._state = PState.AWAKE
        self._self_ref = Ref(self._pid)
        #: net explicit-edge deltas since the last engine drain.
        self._ref_log = RefDeltaLog()

    # -- identity ---------------------------------------------------------------

    @property
    def pid(self) -> int:
        """Engine-facing identifier (protocol code should use ``self_ref``)."""
        return self._pid

    @property
    def self_ref(self) -> Ref:
        """This process's own reference."""
        return self._self_ref

    @property
    def mode(self) -> Mode:
        """The read-only ``mode(u)`` variable."""
        return self._mode

    @property
    def state(self) -> PState:
        """Current lifecycle state (managed by the engine)."""
        return self._state

    @property
    def is_leaving(self) -> bool:
        return self._mode is Mode.LEAVING

    @property
    def is_staying(self) -> bool:
        return self._mode is Mode.STAYING

    # -- protocol surface ----------------------------------------------------------

    def timeout(self, ctx: ActionContext) -> None:
        """The periodically executed timeout action. Default: do nothing."""

    def handler(self, label: str):
        """Return the bound ``on_<label>`` handler, or ``None`` if absent."""
        name = self._action_table.get(label)
        if name is None:
            return None
        return getattr(self, name)

    def stored_refs(self) -> Iterable[RefInfo]:
        """Enumerate references (with mode beliefs) held in local memory.

        Subclasses must override to report every protocol variable that
        stores a reference. Beliefs may be ``None`` for protocols that do
        not track modes.
        """

        return ()

    def stored_pids(self) -> list[int]:
        """Pids of the references :meth:`stored_refs` enumerates, in its
        order and with multiplicity, for scans that need only the edge
        endpoints. Subclasses with flat stores override it to skip the
        per-reference :class:`RefInfo`."""
        return [info.ref._pid for info in self.stored_refs()]  # noqa: SLF001

    def describe_vars(self) -> dict[str, Any]:
        """Human-readable dump of protocol variables (tracing/debugging)."""
        return {}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(pid={self._pid}, {self._mode.value}, "
            f"{self._state.value})"
        )
