"""Layered benchmark: five FDP workloads, end-to-end metrics, per-layer trace.

One run of one workload, in this process::

    python3 benchmarks/layered/run.py --workload converge --seed 0 --seconds 15 --trace 0

builds the workload's scenario from the seed, runs it to legitimacy or
its budget, and replays it from fresh builds for about ``--seconds``
seconds (at least once; the replay count follows from ``--seconds`` and
the workload's typical replay time). Every replay stamps the same
chunk boundaries, and each chunk counts at its fastest replay: noise on
a shared host only ever slows a chunk down. The run checks the outcome
and prints one JSON object as its last line: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it, ``detail {...}``, holds
everything else the run measured.

The suite, with no ``--workload``::

    PYTHONPATH=src:. python -m benchmarks.layered.run [--seed S] [--reps 3] [--quick]

runs every workload ``--reps`` times untraced and once traced, each run
in a fresh child process, one child at a time, round-robin across
workloads so that host drift hits every workload alike. It prints every
metric by name and unit, appends one record per workload to
results.jsonl, and exits non-zero when a correctness check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
RESULTS = HERE / "results.jsonl"
#: set-up time is the median of at least this many builds per run, and
#: of enough builds to take this many seconds
SETUP_BUILDS = 5
SETUP_SECONDS = 1.0
#: a child that runs longer than this is a hung benchmark
CHILD_TIMEOUT_S = 600


def spec() -> dict[str, Any]:
    """BENCHMARK.json: workload names and every metric's unit and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bootstrap() -> None:
    """Put the program (``src/``) and this package on the import path."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# ---------------------------------------------------------------- one run


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict[str, Any]:
    """Run one workload in this process; returns the detail dict."""
    from benchmarks.layered.spans import Spans, leaked
    from benchmarks.layered.workloads import (
        WORKLOADS,
        amplification,
        describe,
        sim_digest,
    )
    from repro.errors import SafetyViolation, StateViolation, WatchdogTrip

    wl = WORKLOADS[name]
    params = wl.quick if quick else wl.full
    scenario_seed = wl.seed + seed
    spans = Spans() if trace else None
    OUT.mkdir(exist_ok=True)

    def build():
        gc.collect()
        start = time.perf_counter()
        episode = wl.build(params, scenario_seed, spans, str(OUT))
        return episode, time.perf_counter() - start

    replays = max(1, round(seconds / wl.replay_s))
    setups: list[float] = []
    while not trace and (len(setups) + replays < SETUP_BUILDS or sum(setups) < SETUP_SECONDS):
        episode, elapsed = build()  # set-up only; every replay adds one more
        episode.close()
        setups.append(elapsed)
        del episode
    walls: list[float] = []
    chunks: list[list[float]] = []
    steps: list[int] = []
    digests: set[str] = set()
    errors: list[str] = []
    attempted = failed = 0
    for _ in range(replays):
        episode, elapsed = build()
        setups.append(elapsed)
        gc.collect()
        try:
            with spans.region() if spans is not None else nullcontext():
                start = time.perf_counter()
                reached, tried, bad = episode.run()
                end = time.perf_counter()
        except (SafetyViolation, WatchdogTrip) as exc:
            errors.append(f"{type(exc).__name__}: {exc}")
            attempted += 1
            failed += 1
            episode.close()
            break
        # Untimed checks: the outcome, then the core against the objects.
        attempted += tried
        failed += bad
        if not reached:
            errors.append("missed legitimacy or budget")
        engine = episode.engine
        status = describe(engine)  # before the check, which may rebuild the core
        try:
            engine.verify_core_state()
        except StateViolation as exc:
            errors.append(f"verify_core_state: {exc}")
        edges = [start, *episode.stamps, end]
        chunks.append([b - a for a, b in zip(edges, edges[1:])])
        walls.append(end - start)
        steps.append(engine.step_count)
        digests.add(sim_digest(engine))
        amp = amplification(engine)
        episode.close()
        del episode, engine
        if errors:
            break
    if len(digests) > 1 or len({len(c) for c in chunks}) > 1:
        errors.append("replays of one seed diverged")
    detail: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "scenario_seed": scenario_seed,
        "n": params["n"],
        "params": params,
        "stack": list(wl.stack),
        "trace": int(trace),
        "quick": quick,
        "replays": len(walls),
        "correct": not errors and failed == 0,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "leaked": leaked(),
    }
    if errors:
        return detail
    # Host noise only ever slows a chunk down, so each chunk counts at its
    # fastest replay; the replays executed identical steps.
    best = [min(times) for times in zip(*chunks)]
    detail.update(
        digest=digests.pop(),
        sim_steps=steps[0],
        amplification=amp,
        **status,
        best_chunks=best,
        wall_s=sum(best),
        steps_per_s=steps[0] / sum(best),
        replay_walls=walls,
        setup_s=statistics.median(setups),
        setup_builds=len(setups),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if spans is not None:
        detail.update(_layer_metrics(spans, steps[0], status["core_status_active"]))
        spans.dump(str(OUT / f"spans-{name}-s{seed}.jsonl"))
    return detail


def _layer_metrics(spans, sim_steps: int, core_active: bool) -> dict[str, Any]:
    """Per-layer numbers per traced episode, plus the derived ratios."""
    per = spans.regions
    wall = spans.wall
    layers = {}
    for layer, row in spans.layers().items():
        layers[layer] = {
            "calls": row["calls"] / per,
            "busy_s": row["busy_s"] / per,
            "self_s": row["self_s"] / per,
            "share": row["self_s"] / wall,
            "busy_share": row["busy_s"] / wall,
        }
    batch = layers["sim.soa.run_batch"]
    exports = layers["sim.soa.export_to"]["calls"]
    rebuilds = layers["graphs.livegraph.rebuild"]["calls"]
    return {
        "layers": layers,
        "traced_wall_s": wall / per,
        "unattributed_s": spans.unattributed / per,
        "tracing_s": spans.tracing / per,
        "derived": {
            "unattributed.share": spans.unattributed / wall,
            "tracing.share": spans.tracing / wall,
            "traced_wall_s": wall / per,
            "sim.soa.run_batch.steps_per_call": (
                sim_steps / batch["calls"] if batch["calls"] else 0.0
            ),
            "sim.soa.run_batch.steps_per_s": (
                sim_steps / batch["busy_s"] if batch["busy_s"] else 0.0
            ),
            "sim.soa.export_to.per_1k_steps": 1000 * exports / max(1, sim_steps),
            "graphs.livegraph.rebuild.per_export": (
                rebuilds / exports if exports else 0.0
            ),
            "core_used": float(batch["calls"] > 0),
            "core_status_active": float(core_active),
        },
    }


def result_line(detail: dict[str, Any], benchmark: dict[str, Any]) -> dict[str, Any]:
    """The last output line: the metrics BENCHMARK.json names."""
    metrics = {}
    if detail.get("sim_steps") is not None:
        if detail["trace"]:
            values = dict(detail["derived"])
            for layer, row in detail["layers"].items():
                values[f"{layer}.share"] = row["share"]
                values[f"{layer}.busy_share"] = row["busy_share"]
                values[f"{layer}.calls"] = row["calls"]
            wanted = benchmark["per_layer"]
        else:
            values = detail
            wanted = benchmark["end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        }
    return {
        "correct": detail["correct"],
        "attempted": max(1, detail["attempted"]),
        "failed": detail["failed"],
        "metrics": metrics,
    }


def single(args: argparse.Namespace, benchmark: dict[str, Any]) -> int:
    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(
        f"{detail['workload']} seed={detail['scenario_seed']} n={detail['n']} "
        f"trace={detail['trace']} replays={detail['replays']} "
        f"correct={detail['correct']} {'; '.join(detail['errors'])}"
    )
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result_line(detail, benchmark)))
    return 0 if detail["correct"] else 1


# ---------------------------------------------------------------- the suite


def _child(name: str, args: argparse.Namespace, trace: int) -> tuple[int, dict | None, str]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = proc.stdout.splitlines()
    detail = None
    if len(lines) >= 2 and lines[-2].startswith("detail "):
        detail = json.loads(lines[-2][len("detail "):])
    return proc.returncode, detail, proc.stderr


def run_suite(
    args: argparse.Namespace, benchmark: dict[str, Any], results: Path = RESULTS
) -> dict[str, Any]:
    """All workloads, ``reps`` untraced runs and one traced run each.

    Returns ``{"ok", "problems", "summary", "records", "appended",
    "details"}``; records are appended to ``results`` only when ``ok``.
    """
    from benchmarks.layered import records

    names = [w["name"] for w in benchmark["workloads"]]
    plan = [(name, 0) for _ in range(args.reps) for name in names]
    plan += [(name, 1) for name in names]
    details: dict[str, dict[str, list]] = {n: {"untraced": [], "traced": []} for n in names}
    problems: list[str] = []
    for name, trace in plan:
        start = time.perf_counter()
        code, detail, stderr = _child(name, args, trace)
        took = time.perf_counter() - start
        if detail is None:
            problems.append(f"{name} trace={trace}: no result (exit {code})\n{stderr}")
            print(f"  {name:<10} trace={trace} FAILED in {took:.1f}s", flush=True)
            continue
        details[name]["traced" if trace else "untraced"].append(detail)
        if code != 0 or not detail["correct"]:
            problems.append(f"{name} trace={trace}: {'; '.join(detail['errors']) or 'incorrect'}")
        print(
            f"  {name:<10} trace={trace} {took:5.1f}s "
            f"steps/s={detail.get('steps_per_s', 0):>10.1f} correct={detail['correct']}",
            flush=True,
        )

    summary = {}
    for name in names:
        runs, traced = details[name]["untraced"], details[name]["traced"]
        if not runs or not traced:
            continue
        summary[name] = s = _summarize(runs, traced[0])
        problems += [f"{name}: {p}" for p in s.pop("problems")]

    host = records.host_fingerprint()
    commit = records.git_commit(ROOT)
    stored = records.load(results)
    fresh = []
    for name, s in summary.items():
        rec_id = records.record_id(
            workload=name, stack=s["stack"], params=s["params"],
            seed=s["scenario_seed"], commit=commit, host=host,
        )
        rec = {
            "id": rec_id,
            "workload": name,
            "stack": s["stack"],
            "n": s["n"],
            "params": s["params"],
            "seed": s["scenario_seed"],
            "commit": commit,
            "host": host,
            "cpu_count": host["cpu_count"],
            "quick": args.quick,
            "reps": args.reps,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "parallel_speedup": "unmeasurable: one load-generating process by design",
            "end_to_end": s["end_to_end"],
            "exact": s["exact"],
            "per_layer": s["per_layer"],
        }
        old = stored.get(rec_id)
        if old is not None:
            problems += _compare(name, old, rec, benchmark)
        fresh.append(rec)
    appended = records.append(results, fresh) if not problems else []
    return {
        "ok": not problems,
        "problems": problems,
        "summary": summary,
        "records": fresh,
        "appended": appended,
        "details": details,
    }


#: Metrics the suite adds to BENCHMARK.json's. They depend on the seed by
#: design, so they compare reps of one seed, never runs of other seeds.
SUITE_METRICS: dict[str, dict[str, Any]] = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "sim_steps": {"unit": "steps", "better": "exact", "bound": 0.0},
    "amplification": {"unit": "frames/msg", "better": "exact", "bound": 0.0},
    "fail_frac": {"unit": "ratio", "better": "exact", "bound": 0.0},
}


def _bounds(benchmark: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {m["name"]: m for m in benchmark["end_to_end"]} | SUITE_METRICS


def _summarize(runs: list[dict], traced: dict) -> dict[str, Any]:
    """One workload's suite result from its untraced reps and traced run."""
    problems = []
    everything = [*runs, traced]
    if len({d.get("digest") for d in everything}) != 1:
        problems.append("sim_digest differs across reps or between traced and untraced runs")
    for d in runs:
        if d["leaked"]:
            problems.append(f"wrappers leaked into an untraced run: {d['leaked']}")
    if len({len(d["best_chunks"]) for d in runs}) != 1:
        problems.append("reps stamped different chunk boundaries")
    attempted = sum(d["attempted"] for d in everything)
    failed = sum(d["failed"] for d in everything)
    # The reps replay one seed, so chunks combine across them exactly as
    # across the replays inside one run.
    wall = sum(min(times) for times in zip(*(d["best_chunks"] for d in runs)))
    end_to_end = {
        "steps_per_s": runs[0]["sim_steps"] / wall,
        "wall_s": wall,
        "setup_s": statistics.median(d["setup_s"] for d in runs),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in runs),
    }
    exact = {
        "sim_steps": runs[0]["sim_steps"],
        "amplification": runs[0]["amplification"],
        "fail_frac": failed / max(1, attempted),
        "sim_digest": runs[0]["digest"],
    }
    if exact["fail_frac"] != 0:
        problems.append(f"fail_frac={exact['fail_frac']}")
    per_layer = {
        "layers": {k: v for k, v in traced["layers"].items() if v["calls"]},
        **traced["derived"],
        "unattributed_s": traced["unattributed_s"],
        "tracing_s": traced["tracing_s"],
        "tracing_overhead": traced["traced_wall_s"]
        / statistics.median(w for d in runs for w in d["replay_walls"])
        - 1,
        "core_reason": traced["core_reason"],
    }
    return {
        "stack": traced["stack"],
        "n": traced["n"],
        "params": traced["params"],
        "scenario_seed": traced["scenario_seed"],
        "reps": len(runs),
        "end_to_end": end_to_end,
        # how far the reps' own values lie apart, as a share of the result
        "spread": {
            m: (max(d[m] for d in runs) - min(d[m] for d in runs)) / end_to_end[m]
            for m in end_to_end
        },
        "exact": exact,
        "per_layer": per_layer,
        "problems": problems,
    }


def _compare(name: str, old: dict, new: dict, benchmark: dict[str, Any]) -> list[str]:
    """Check a fresh run against the stored record with the same id.

    Exact results must match: same code, seed and host means the same
    simulation. Timings are reported against their bounds only; host
    noise is not a correctness failure.
    """
    problems = []
    for key, value in new["exact"].items():
        if old["exact"].get(key) != value:
            problems.append(f"{key} {value} != stored {old['exact'].get(key)} ({old['id']})")
    bounds = _bounds(benchmark)
    for metric, value in new["end_to_end"].items():
        before = old["end_to_end"][metric]
        change = (value - before) / before
        worse = change < 0 if bounds[metric]["better"] == "higher" else change > 0
        flag = "  WORSE than bound" if worse and abs(change) > bounds[metric]["bound"] else ""
        print(f"  {name:<10} {metric:<12} {before:>12.4g} -> {value:>12.4g} ({change:+.1%}){flag}")
    return [f"{name}: {p}" for p in problems]


def print_summary(result: dict[str, Any], benchmark: dict[str, Any]) -> None:
    bounds = _bounds(benchmark)
    print(
        "\nend-to-end (untraced reps: timings chunk-wise best, set-up and memory"
        " median; exact metrics identical across reps)"
    )
    for name, s in result["summary"].items():
        print(f"  {name}  (n={s['n']}, seed={s['scenario_seed']}, reps={s['reps']})")
        for metric, value in {**s["end_to_end"], **s["exact"]}.items():
            if metric == "sim_digest" or value is None:
                continue
            b = bounds[metric]
            spread = s["spread"].get(metric)
            note = f"  spread {spread:.1%}" if spread is not None else ""
            print(
                f"    {metric:<14} {value:>14.6g} {b['unit']:<10} "
                f"{b['better']:<6} bound {b['bound']:.0%}{note}"
            )
    print("\nper layer (one traced run: seconds per run, share of traced wall)")
    for name, s in result["summary"].items():
        p = s["per_layer"]
        print(
            f"  {name}  traced wall {p['traced_wall_s']:.3f}s, tracing_overhead "
            f"{p['tracing_overhead']:+.1%} (wrappers {p['tracing.share']:.1%}), "
            f"unattributed {p['unattributed.share']:.1%}, "
            f"core_used={int(p['core_used'])} core_status_active="
            f"{int(p['core_status_active'])} ({p['core_reason']})"
        )
        rows = sorted(p["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for layer, row in rows:
            print(
                f"    {layer:<26} calls {row['calls']:>10.0f}  busy {row['busy_s']:8.3f}s"
                f"  self {row['self_s']:8.3f}s  share {row['share']:6.1%}"
            )
        for key in (
            "sim.soa.run_batch.steps_per_call",
            "sim.soa.run_batch.steps_per_s",
            "sim.soa.export_to.per_1k_steps",
            "graphs.livegraph.rebuild.per_export",
        ):
            if p[key]:
                print(f"    {key:<38} {p[key]:.6g}")


def main(argv: list[str] | None = None) -> int:
    benchmark = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="replay the scenario for about this many seconds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=3, help="suite: untraced runs per workload")
    parser.add_argument("--quick", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.workload is not None:
        return single(args, benchmark)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    result = run_suite(args, benchmark)
    print_summary(result, benchmark)
    for rec_id in result["appended"]:
        print(f"appended record {rec_id} to {RESULTS.relative_to(ROOT)}")
    for problem in result["problems"]:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
