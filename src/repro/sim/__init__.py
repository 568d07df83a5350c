"""The simulation substrate: the paper's computational model, executable.

Implements Section 1.1 of the paper: processes with unique opaque
references, unbounded non-FIFO channels, atomic guarded/callable actions,
the awake/asleep/gone lifecycle, weakly-fair schedulers and fair message
receipt, plus the measurement instruments (snapshots, monitors, tracing)
the rest of the library builds on.
"""

from repro.sim.channel import Channel
from repro.sim.engine import Engine, EngineStats, ExecutedStep
from repro.sim.messages import Message, RefInfo, iter_refinfos, iter_refs
from repro.sim.monitors import (
    ConnectivityMonitor,
    PotentialMonitor,
    TransitionMonitor,
)
from repro.sim.process import ActionContext, Process
from repro.sim.replay import (
    RecordedEvent,
    ReplayScheduler,
    ScheduleRecorder,
    replay_run,
)
from repro.sim.refs import KeyProvider, Ref, RefFactory, pid_of
from repro.sim.scheduler import (
    AdversarialScheduler,
    DeliverEvent,
    OldestFirstScheduler,
    RandomScheduler,
    Scheduler,
    SynchronousScheduler,
    TimeoutEvent,
)
from repro.sim.states import Capability, Mode, PState
from repro.sim.tracing import SeriesRecorder, Tracer

__all__ = [
    "ActionContext",
    "AdversarialScheduler",
    "Capability",
    "Channel",
    "ConnectivityMonitor",
    "DeliverEvent",
    "Engine",
    "EngineStats",
    "ExecutedStep",
    "KeyProvider",
    "Message",
    "Mode",
    "OldestFirstScheduler",
    "PState",
    "PotentialMonitor",
    "Process",
    "RandomScheduler",
    "RecordedEvent",
    "Ref",
    "RefFactory",
    "RefInfo",
    "ReplayScheduler",
    "ScheduleRecorder",
    "Scheduler",
    "SeriesRecorder",
    "SynchronousScheduler",
    "TimeoutEvent",
    "Tracer",
    "TransitionMonitor",
    "iter_refinfos",
    "iter_refs",
    "pid_of",
    "replay_run",
]
