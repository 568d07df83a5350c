"""Telemetry: streaming traces and the probe catalog.

The paper's proofs are statements about *executions* — which steps
ran, how the potential Φ drains, when the oracle fired.
This package makes those quantities observable on real runs without
giving up the O(Δ) per-step observation cost of the live graph:

* :mod:`repro.obs.trace` — a bounded-memory JSONL trace sink capturing
  the executed schedule, lifecycle transitions and oracle verdicts; the
  shipped file re-ingests through
  :class:`~repro.sim.replay.ReplayScheduler` for bit-identical replay.
* :mod:`repro.obs.metrics` — the documented probe registry (name,
  description, asymptotic cost) over the engine's O(1) counters, plus
  per-process Φ attribution (who holds / who is the subject of the
  invalid information).

Layering: ``repro.obs`` may import ``repro.sim``; the engine never
imports ``repro.obs`` at runtime — it only holds the optional sink
object it is handed. The one exception is an observer:
a default :class:`~repro.sim.tracing.SeriesRecorder` reads its probes
from :data:`~repro.obs.metrics.REGISTRY` when it is built.
"""

from __future__ import annotations

from repro.obs.metrics import (
    REGISTRY,
    Probe,
    phi_by_holder,
    phi_by_subject,
    sample_all,
)
from repro.obs.trace import (
    JsonlTraceSink,
    TraceData,
    read_trace,
    replay_trace,
)

__all__ = [
    "JsonlTraceSink",
    "TraceData",
    "read_trace",
    "replay_trace",
    "Probe",
    "REGISTRY",
    "sample_all",
    "phi_by_subject",
    "phi_by_holder",
]
