"""Telemetry overhead benchmarks (library performance, not an experiment).

The observability subsystem promises to be cheap enough to leave on:
the streaming JSONL trace sink (``repro.obs.trace.JsonlTraceSink``)
must keep a fault-injected FDP run within 15% of the tracing-off
steps/sec at n = 256 — the acceptance bound this suite enforces.

Run as a module for the CI smoke check::

    PYTHONPATH=src:. python benchmarks/bench_telemetry.py --smoke

which writes ``benchmarks/results/BENCH_telemetry.json`` with steps/sec
per sink configuration and asserts the JSONL overhead bound. Each
configuration is timed best-of-``REPS`` to absorb host jitter.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.common import save_json
from repro.core.scenarios import HEAVY_CORRUPTION, build_fdp_engine, choose_leaving
from repro.graphs import generators as gen
from repro.obs.trace import JsonlTraceSink

N = 256
STEPS = 20_000
REPS = 5
JSONL_OVERHEAD_LIMIT = 0.15


def _never(engine):
    return False


def _build(tracer=None):
    edges = gen.random_connected(N, 16, seed=9)
    leaving = choose_leaving(N, edges, fraction=0.3, seed=9)
    return build_fdp_engine(
        N,
        edges,
        leaving,
        seed=9,
        corruption=HEAVY_CORRUPTION,
        tracer=tracer,
    )


def _run_fixed(tracer=None) -> float:
    """One fault-injected run of STEPS steps; returns steps/sec."""
    engine = _build(tracer=tracer)
    engine.attach()
    start = time.perf_counter()
    engine.run(STEPS, until=_never)
    wall = time.perf_counter() - start
    assert engine.step_count == STEPS
    return STEPS / wall


def run_off() -> float:
    return _run_fixed()


def run_jsonl(path: str) -> float:
    with JsonlTraceSink(path) as sink:
        return _run_fixed(tracer=sink)


# --------------------------------------------------------- pytest-benchmark


def test_throughput_tracing_off(benchmark):
    rate = benchmark.pedantic(run_off, rounds=3, iterations=1)
    assert rate > 0


def test_throughput_jsonl_sink(benchmark, tmp_path):
    rate = benchmark.pedantic(
        lambda: run_jsonl(str(tmp_path / "bench.jsonl")), rounds=3, iterations=1
    )
    assert rate > 0


# ----------------------------------------------------------- CI smoke entry


def smoke() -> dict:
    """Best-of-REPS steps/sec per sink configuration; returns the payload.

    The configurations are measured *interleaved* (one round runs each
    sink once) and reduced with ``max`` per sink: host jitter — CPU
    frequency ramps, cache state — then hits every configuration alike
    instead of biasing whichever happened to run during a slow window,
    and the best-of reduction approximates the noise-free runtime.
    """
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = str(Path(tmp) / "bench.jsonl")
        samples: dict[str, list[float]] = {"off": [], "jsonl": []}
        for _ in range(REPS):
            samples["off"].append(run_off())
            samples["jsonl"].append(run_jsonl(trace_path))
        rates = {sink: max(values) for sink, values in samples.items()}
    off = rates["off"]
    runs = [
        {
            "sink": sink,
            "steps_per_s": round(rate, 1),
            "overhead_frac": round(1.0 - rate / off, 4),
        }
        for sink, rate in rates.items()
    ]
    jsonl_overhead = next(r["overhead_frac"] for r in runs if r["sink"] == "jsonl")
    return {
        "benchmark": "telemetry",
        "n": N,
        "steps": STEPS,
        "reps": REPS,
        "runs": runs,
        "jsonl_overhead_frac": jsonl_overhead,
        "jsonl_overhead_limit": JSONL_OVERHEAD_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="measure sink overhead and write "
        "benchmarks/results/BENCH_telemetry.json",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("nothing to do; pass --smoke (pytest runs the benchmarks)")
    payload = smoke()
    path = save_json("BENCH_telemetry", payload)
    for run in payload["runs"]:
        print(
            f"sink={run['sink']:<12} steps/s={run['steps_per_s']:>10.1f} "
            f"overhead={100 * run['overhead_frac']:6.2f}%"
        )
    print(f"wrote {path}")
    ok = payload["jsonl_overhead_frac"] <= JSONL_OVERHEAD_LIMIT
    if not ok:
        print(
            f"FAIL: JSONL sink overhead {payload['jsonl_overhead_frac']:.1%} "
            f"exceeds the {JSONL_OVERHEAD_LIMIT:.0%} budget",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
