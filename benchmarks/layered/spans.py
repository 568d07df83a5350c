"""Outside-in layer timing: ``perf_counter`` spans around calls into each layer.

Nothing in the program is edited. A traced run wraps the public entry
points of every layer at class level for the duration of one timed
region and restores the originals afterwards; the predicate and the
monitors are wrapped where the benchmark hands them to the engine.
Each wrapper opens a span whose parent is the innermost open span, so a
layer's *self* time is its busy time minus the spans nested inside it
(``Channel.add`` inside ``Engine.step``, ``LiveGraph.on_enqueue``
inside ``Channel.add``). Spans are aggregated per (layer, parent) in
memory; individual spans are kept only for the coarse layers in
:data:`KEPT` and written out once, at the end.
"""

from __future__ import annotations

import importlib
import json
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from time import perf_counter
from typing import Any

#: layer -> methods wrapped at class level, as (module, class, method).
#: An empty tuple marks a layer wrapped where the benchmark passes it in:
#: the ``until`` predicate and the monitors.
LAYERS: dict[str, tuple[tuple[str, str, str], ...]] = {
    "sim.soa.run_batch": (("repro.sim.soa", "EngineCore", "run_batch"),),
    "sim.soa.export_to": (("repro.sim.soa", "EngineCore", "export_to"),),
    # Engine._build_live is the whole O(V+E) rebuild: LiveGraph
    # construction plus re-hooking every channel observer.
    "graphs.livegraph.rebuild": (("repro.sim.engine", "Engine", "_build_live"),),
    "graphs.livegraph.query": (
        ("repro.graphs.livegraph", "LiveGraph", "same_component"),
        ("repro.graphs.livegraph", "LiveGraph", "partners"),
    ),
    # run's self time is the driver's own boundary work; _boundary is
    # wrapped too so that each boundary is a kept span.
    "traffic.driver.boundary": (
        ("repro.traffic.driver", "TrafficDriver", "run"),
        ("repro.traffic.driver", "TrafficDriver", "_boundary"),
    ),
    "sim.engine.churn": (
        ("repro.sim.engine", "Engine", "admit"),
        ("repro.sim.engine", "Engine", "request_leave"),
        ("repro.sim.engine", "Engine", "can_reap"),
        ("repro.sim.engine", "Engine", "reap"),
    ),
    "core.potential.until": (),
    "sim.monitors": (),
    "chaos.campaign": (),
    "chaos.watchdogs": (),
    "sim.scheduler.select": (("repro.sim.scheduler", "RandomScheduler", "select"),),
    "sim.channel": (
        ("repro.sim.channel", "Channel", "add"),
        ("repro.sim.channel", "Channel", "remove"),
    ),
    "graphs.livegraph.upkeep": tuple(
        ("repro.graphs.livegraph", "LiveGraph", method)
        for method in (
            "on_enqueue",
            "on_dequeue",
            "apply_explicit_diff",
            "apply_ref_deltas",
            "on_state",
            "on_admit",
            "on_reap",
            "reprice",
        )
    ),
    "sim.engine.step": (("repro.sim.engine", "Engine", "step"),),
    "net.reliable": tuple(
        ("repro.net.reliable", "ReliableTransport", method)
        for method in ("on_post", "flush", "on_gone", "run_dry")
    ),
    "obs.trace.record": (("repro.obs.trace", "JsonlTraceSink", "record"),),
}

#: layers whose individual spans are kept: batch, export, boundary and
#: predicate calls. Every other layer is per-step and only aggregated.
KEPT = frozenset(
    {
        "sim.soa.run_batch",
        "sim.soa.export_to",
        "traffic.driver.boundary",
        "core.potential.until",
    }
)

#: parent name of spans opened directly inside the timed region.
ROOT = "workload"


def _targets() -> Iterator[tuple[str, type, str]]:
    for layer, methods in LAYERS.items():
        for module, cls, method in methods:
            yield layer, getattr(importlib.import_module(module), cls), method


def leaked() -> list[str]:
    """Class-level methods that are still benchmark wrappers right now."""
    return [
        f"{klass.__name__}.{method}"
        for _layer, klass, method in _targets()
        if hasattr(klass.__dict__[method], "__wrapped__")
    ]


class Spans:
    """Span aggregates of one traced run (one or more timed regions).

    The wrappers' own bookkeeping is timed too and kept apart as
    :attr:`tracing`, so that over the timed regions
    ``wall = sum of self times + tracing + unattributed`` holds exactly.
    """

    def __init__(self) -> None:
        self._stack: list[list[Any]] = [[ROOT, 0.0]]
        self._tracing = [0.0]
        #: (layer, parent layer) -> [calls, busy seconds, self seconds]
        self.agg: dict[tuple[str, str], list[Any]] = {}
        #: (layer, parent, start, duration) of every span in KEPT
        self.kept: list[tuple[str, str, float, float]] = []
        #: total seconds inside timed regions, and how many there were
        self.wall = 0.0
        self.regions = 0
        self._origin: float | None = None

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` inside a span named ``layer``."""
        stack, agg, kept, tracing = self._stack, self.agg, self.kept, self._tracing
        keep = layer in KEPT

        def timed(*args: Any, **kwargs: Any) -> Any:
            enter = perf_counter()
            parent = stack[-1]
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                key = (layer, parent[0])
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if keep:
                    kept.append((layer, parent[0], start, dur))
                leave = perf_counter()
                parent[1] += leave - enter
                tracing[0] += leave - enter - dur

        timed.__wrapped__ = fn  # type: ignore[attr-defined]
        return timed

    @contextmanager
    def region(self) -> Iterator[None]:
        """One timed region with every class-level wrapper installed.

        Installation and removal happen outside the clock; the originals
        are restored even when the region raises.
        """
        installed = []
        try:
            for layer, klass, method in _targets():
                original = klass.__dict__[method]
                setattr(klass, method, self.wrap(layer, original))
                installed.append((klass, method, original))
            start = perf_counter()
            if self._origin is None:
                self._origin = start
            try:
                yield
            finally:
                self.wall += perf_counter() - start
                self.regions += 1
        finally:
            for klass, method, original in reversed(installed):
                setattr(klass, method, original)

    @property
    def tracing(self) -> float:
        """Seconds the wrappers spent on their own bookkeeping."""
        return self._tracing[0]

    @property
    def unattributed(self) -> float:
        """Seconds of timed region outside every span and wrapper."""
        return self.wall - self._stack[0][1]

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, busy and self seconds (totals over regions).

        Busy time skips spans nested in a span of the same layer, so a
        layer is never counted twice; self times add up across layers.
        """
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for (layer, parent), (calls, busy, self_s) in self.agg.items():
            row = out[layer]
            row["calls"] += calls
            row["self_s"] += self_s
            if parent != layer:
                row["busy_s"] += busy
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (start relative to the first
        region)."""
        origin = self._origin or 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for layer, parent, start, dur in self.kept:
                row = {"layer": layer, "parent": parent, "start_s": start - origin, "dur_s": dur}
                fh.write(json.dumps(row) + "\n")


class TimedMonitor:
    """A monitor called through a span; every attribute read forwards.

    :class:`~repro.chaos.campaigns.ChaosCampaign` rebases co-registered
    monitors by looking up ``rebase`` on them. A plain closure would hide
    it, and the next Φ rise after an injection would surface as a phantom
    Lemma 3 violation from :class:`~repro.sim.monitors.PotentialMonitor`.
    """

    __slots__ = ("_call", "inner")

    def __init__(self, spans: Spans, layer: str, inner: Callable) -> None:
        self.inner = inner
        self._call = spans.wrap(layer, inner)

    def __call__(self, engine: Any, executed: Any) -> None:
        self._call(engine, executed)

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)
