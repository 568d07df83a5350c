"""Profiling hooks: measure before optimizing (per the HPC guides).

Small wrappers around :mod:`cProfile` and :mod:`time` so experiments can
answer "where does simulation time go?" without ceremony. The engine's
live graph exists because these hooks showed snapshot construction
dominating per-step monitoring; they stay in the library so future
changes can be re-measured instead of guessed at.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from collections.abc import Callable

__all__ = [
    "profile_call",
    "profile_scenario",
    "Stopwatch",
    "time_block",
]


def profile_call(
    fn: Callable, *args, top: int = 15, sort: str = "cumulative", **kwargs
) -> tuple[object, str]:
    """Run ``fn(*args, **kwargs)`` under cProfile.

    Returns ``(result, report)`` where *report* is the top-``top`` lines
    sorted by *sort* — ready to print or log.
    """

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profiler.disable()
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return result, buf.getvalue()


def profile_scenario(
    scenario: str = "fdp",
    n: int = 128,
    *,
    steps: int = 5_000,
    seed: int = 7,
    leaving_fraction: float = 0.3,
    monitored: bool = False,
    top: int = 20,
    sort: str = "cumulative",
) -> dict:
    """cProfile one standard scenario run (the ``repro profile`` command).

    Builds the same heavily corrupted random-connected scenario the
    throughput benchmarks use — FDP or FSP — optionally with the per-step
    Lemma 2/3 monitors attached, runs it for up to *steps* steps under
    cProfile, and returns the run facts plus the formatted ``report``.
    This is the first stop when a change regresses ``BENCH_step_loop``:
    the top of the report names the function that grew.
    """
    from repro.core.potential import fdp_legitimate, fsp_legitimate
    from repro.core.scenarios import (
        HEAVY_CORRUPTION,
        build_fdp_engine,
        build_fsp_engine,
        choose_leaving,
    )
    from repro.graphs import generators as gen
    from repro.sim.monitors import ConnectivityMonitor, PotentialMonitor

    if scenario not in ("fdp", "fsp"):
        raise ValueError(f"scenario must be 'fdp' or 'fsp', not {scenario!r}")
    build = build_fdp_engine if scenario == "fdp" else build_fsp_engine
    until = fdp_legitimate if scenario == "fdp" else fsp_legitimate
    edges = gen.random_connected(n, extra_edges=n // 2, seed=seed)
    leaving = choose_leaving(n, edges, fraction=leaving_fraction, seed=seed)
    monitors = (
        [ConnectivityMonitor(check_every=1), PotentialMonitor(check_every=1)]
        if monitored
        else []
    )
    engine = build(
        n,
        edges,
        leaving,
        seed=seed,
        corruption=HEAVY_CORRUPTION,
        monitors=monitors,
    )
    engine.attach()
    start = time.perf_counter()
    converged, report = profile_call(
        engine.run, steps, until=until, check_every=256, top=top, sort=sort
    )
    wall = time.perf_counter() - start
    executed = engine.step_count
    return {
        "scenario": scenario,
        "n": n,
        "monitored": monitored,
        "steps": executed,
        "wall_s": round(wall, 4),
        "steps_per_s": round(executed / wall, 1) if wall > 0 else 0.0,
        "converged": converged,
        "report": report,
    }


@dataclass
class Stopwatch:
    """Accumulates named wall-clock timings across repeated sections."""

    totals: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @contextmanager
    def section(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[name] = self.totals.get(name, 0.0) + elapsed
            self.counts[name] = self.counts.get(name, 0) + 1

    def report(self) -> str:
        lines = ["section                    total_s     calls   per_call_ms"]
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            total = self.totals[name]
            count = self.counts[name]
            lines.append(
                f"{name:<25} {total:>9.3f} {count:>9d} {1000 * total / count:>12.3f}"
            )
        return "\n".join(lines)


@contextmanager
def time_block(label: str, sink: Callable[[str], None] = print):
    """Time one block and hand ``'label: 12.3 ms'`` to *sink*."""
    start = time.perf_counter()
    try:
        yield
    finally:
        sink(f"{label}: {(time.perf_counter() - start) * 1000:.1f} ms")
