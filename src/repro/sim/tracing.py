"""Execution tracing and time-series sampling.

Two instruments, both optional and cheap when unused:

* :class:`Tracer` — bounded ring buffer of executed steps, used by tests
  to assert on event sequences and by examples to narrate runs;
* :class:`SeriesRecorder` — samples engine-level metrics (potential Φ,
  number of gone processes, pending messages, …) every *k* steps, feeding
  the convergence plots/series of experiments E5–E9.

A default recorder samples the :data:`DEFAULT_SERIES` probes of the
one probe registry, :data:`repro.obs.metrics.REGISTRY`. They read the
engine's O(1) lifecycle counters and live graph totals — never
``snapshot()``, never a full process scan — so per-sample cost is
constant on the incremental observation path. The observer spy in
``tests/sim/test_step_path_spy.py`` guards this for every registry
probe, the tracer and the Lemma 2/3 monitors.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine, ExecutedStep

__all__ = [
    "DEFAULT_TRACER_CAPACITY",
    "Tracer",
    "SeriesRecorder",
    "DEFAULT_SERIES",
]

#: Default ring-buffer size of :class:`Tracer`: large enough to hold the
#: interesting suffix of any run, small enough (a few MB of records) that
#: multi-million-step runs — exactly the PR 3 livelock regime — cannot
#: leak memory through a forgotten tracer.
DEFAULT_TRACER_CAPACITY = 65_536


class Tracer:
    """Bounded ring buffer of executed steps.

    Holds the most recent ``capacity`` steps (default
    :data:`DEFAULT_TRACER_CAPACITY`); older entries are evicted, so
    memory stays O(capacity) no matter how long the run. Passing
    ``capacity=None`` explicitly opts in to an unbounded log — memory
    then grows with every step, which is only safe for short runs.
    """

    def __init__(self, capacity: int | None = DEFAULT_TRACER_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(
                "capacity must be >= 1 (pass capacity=None to explicitly "
                "opt in to an unbounded trace)"
            )
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)

    def record(self, engine: Engine, executed: ExecutedStep) -> None:
        """Engine hook: store the executed step."""
        self.events.append(executed)

    def labels(self) -> list[str | None]:
        """Sequence of message labels delivered (None for timeouts)."""
        return [e.label for e in self.events]

    def by_pid(self, pid: int) -> list["ExecutedStep"]:
        """All recorded steps executed by process *pid*."""
        return [e for e in self.events if e.pid == pid]

    def __len__(self) -> int:
        return len(self.events)


#: Registry names a default :class:`SeriesRecorder` samples; their
#: functions live in :data:`repro.obs.metrics.REGISTRY`.
DEFAULT_SERIES: tuple[str, ...] = (
    "potential",
    "gone",
    "asleep",
    "pending_messages",
    "messages_posted",
    "edges",
)


class SeriesRecorder:
    """Samples metric probes every ``every`` executed steps.

    Used as an engine monitor: ``Engine(..., monitors=[recorder])``. The
    collected series are exposed as ``recorder.series[name] -> list`` with
    a parallel ``recorder.steps`` axis, ready for numpy conversion in the
    analysis layer.
    """

    def __init__(
        self,
        probes: dict[str, Callable[["Engine"], float]] | None = None,
        every: int = 1,
    ) -> None:
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        if probes is None:
            # The registry is an observer catalog; the engine itself never
            # imports repro.obs.
            from repro.obs.metrics import REGISTRY

            probes = {name: REGISTRY[name].fn for name in DEFAULT_SERIES}
        self.probes = dict(probes)
        self.every = every
        self.steps: list[int] = []
        self.series: dict[str, list[float]] = {name: [] for name in self.probes}

    def __call__(self, engine: Engine, executed: ExecutedStep) -> None:
        if engine.step_count % self.every != 0:
            return
        self.sample(engine)

    def sample(self, engine: Engine) -> None:
        """Record one sample now (also usable before/after a run)."""
        self.steps.append(engine.step_count)
        for name, probe in self.probes.items():
            self.series[name].append(probe(engine))

    def last(self, name: str) -> float:
        """Most recent sample of probe *name*."""
        return self.series[name][-1]
