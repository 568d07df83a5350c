"""Bench-regression gate: fresh smoke run vs the committed baseline.

Loads the committed ``benchmarks/results/BENCH_*.json`` baselines
*before* re-running the smoke benchmarks (whose ``save_json`` would
overwrite them), measures afresh, and fails if

* the JSONL trace sink's overhead vs tracing-off exceeds the 15%
  budget recorded in the telemetry baseline, or the tracing-off
  steps/sec dropped more than ``--tolerance`` (default 30%) below the
  committed one, or
* the default watchdog set's overhead vs the unsupervised run exceeds
  the 15% budget recorded in the chaos baseline, or the unsupervised
  steps/sec dropped more than ``--tolerance`` below the committed one, or
* the SoA core's n=4096 steps/sec (``BENCH_soa.json``) dropped more
  than ``--tolerance`` below the committed figure. The fresh run uses
  the committed file's *full* step budget (one interleaved pair,
  ~30 s) — the quartered smoke budget measures systematically lower
  rates, so comparing it against full-budget baselines would eat the
  whole tolerance — and the committed base is the *minimum* soa rate
  across the baseline's pairs, the conservative choice against pair
  variance, or
* the open-system churn workload's n=4096 soa steps/sec
  (``BENCH_churn.json``) dropped more than ``--tolerance`` below the
  committed figure, or the fresh run saw ANY monotonic-searchability
  violation (that check is absolute — it is the open-system acceptance
  invariant, not a performance number), or
* the unreliable-underlay figures (``BENCH_netfault.json``) regressed:
  retransmit amplification or convergence-time inflation at the
  10%-loss point above the committed value by more than ``--tolerance``,
  amplification above the hard 3x acceptance bound, a faulty cell
  failing to converge, or any monotonic-searchability violation under
  loss (the last three are absolute).

Two kinds of drift can trip this gate: a real hot-path regression, or a
slower CI host than the one that committed the baseline. ``--tolerance``
exists to absorb ordinary host jitter; if the gate fires across the
board (every row down by a similar factor) suspect the host, re-baseline
deliberately, and say so in the commit.

Usage::

    PYTHONPATH=src:. python benchmarks/check_regression.py [--tolerance 0.3]
"""

import argparse
import json
import pathlib
import sys

from benchmarks.bench_chaos import smoke as chaos_smoke
from benchmarks.bench_churn import smoke as churn_smoke
from benchmarks.bench_netfault import smoke as netfault_smoke
from benchmarks.bench_step_loop import soa_smoke
from benchmarks.bench_telemetry import smoke as telemetry_smoke

COMMITTED_TELEMETRY = (
    pathlib.Path(__file__).parent / "results" / "BENCH_telemetry.json"
)
COMMITTED_CHAOS = (
    pathlib.Path(__file__).parent / "results" / "BENCH_chaos.json"
)
COMMITTED_SOA = (
    pathlib.Path(__file__).parent / "results" / "BENCH_soa.json"
)
COMMITTED_CHURN = (
    pathlib.Path(__file__).parent / "results" / "BENCH_churn.json"
)
COMMITTED_NETFAULT = (
    pathlib.Path(__file__).parent / "results" / "BENCH_netfault.json"
)


def compare_telemetry(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate the trace-sink overhead budget and the tracing-off floor."""
    failures = []
    limit = committed.get("jsonl_overhead_limit", 0.15)
    if fresh["jsonl_overhead_frac"] > limit:
        failures.append(
            f"telemetry: JSONL sink overhead {fresh['jsonl_overhead_frac']:.1%} "
            f"exceeds the {limit:.0%} budget"
        )
    committed_off = next(
        (r["steps_per_s"] for r in committed["runs"] if r["sink"] == "off"), 0
    )
    fresh_off = next(r["steps_per_s"] for r in fresh["runs"] if r["sink"] == "off")
    if committed_off > 0 and fresh_off < committed_off * (1.0 - tolerance):
        failures.append(
            f"telemetry: tracing-off {fresh_off:.1f} steps/s < floor "
            f"{committed_off * (1.0 - tolerance):.1f} (committed "
            f"{committed_off:.1f}, tolerance {tolerance:.0%})"
        )
    return failures


def compare_chaos(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate the watchdog overhead budget and the unsupervised floor."""
    failures = []
    limit = committed.get("watchdog_overhead_limit", 0.15)
    if fresh["watchdog_overhead_frac"] > limit:
        failures.append(
            f"chaos: watchdog overhead {fresh['watchdog_overhead_frac']:.1%} "
            f"exceeds the {limit:.0%} budget"
        )
    committed_plain = next(
        (r["steps_per_s"] for r in committed["runs"] if r["config"] == "plain"),
        0,
    )
    fresh_plain = next(
        r["steps_per_s"] for r in fresh["runs"] if r["config"] == "plain"
    )
    if committed_plain > 0 and fresh_plain < committed_plain * (1.0 - tolerance):
        failures.append(
            f"chaos: unsupervised {fresh_plain:.1f} steps/s < floor "
            f"{committed_plain * (1.0 - tolerance):.1f} (committed "
            f"{committed_plain:.1f}, tolerance {tolerance:.0%})"
        )
    return failures


def _soa_rates(payload: dict, n: int) -> list[float]:
    return [
        run["steps_per_s"]
        for run in payload["runs"]
        if run["n"] == n and run["mode"] == "soa"
    ]


def compare_soa(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate the SoA core's n=4096 unmonitored throughput floor.

    Base = the committed file's lowest soa rate at n=4096 (pairs of the
    same run legitimately spread ~20% — see the committed artifact — so
    the minimum is the number a healthy host reliably clears); fresh =
    the best fresh pair, both measured on the full step budget.
    """
    rates = _soa_rates(committed, 4096)
    if not rates:
        return []
    base = min(rates)
    if base <= 0:
        return []
    fresh_rate = max(_soa_rates(fresh, 4096))
    floor = base * (1.0 - tolerance)
    if fresh_rate < floor:
        return [
            f"soa core: n=4096 {fresh_rate:.1f} steps/s < floor "
            f"{floor:.1f} (committed {base:.1f}, tolerance {tolerance:.0%})"
        ]
    return []


def compare_churn(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate the open-system churn throughput floor and the zero-violation
    acceptance invariant (the latter is absolute — never jitter)."""
    committed_by = {
        (r["n"], r["mode"]): r["steps_per_s"] for r in committed["runs"]
    }
    failures = []
    for run in fresh["runs"]:
        if run["violations"]:
            failures.append(
                f"churn: n={run['n']} {run['mode']}: {run['violations']} "
                "monotonic-searchability violations in a fault-free run"
            )
        base = committed_by.get((run["n"], run["mode"]))
        if base is None or base <= 0:
            continue
        floor = base * (1.0 - tolerance)
        if run["steps_per_s"] < floor:
            failures.append(
                f"churn: n={run['n']} {run['mode']}: "
                f"{run['steps_per_s']:.1f} steps/s < floor {floor:.1f} "
                f"(committed {base:.1f}, tolerance {tolerance:.0%})"
            )
    return failures


def compare_netfault(committed: dict, fresh: dict, tolerance: float) -> list[str]:
    """Gate the transport's fault-tolerance figures.

    Safety is absolute — a non-converged faulty cell or any
    monotonic-searchability violation under loss fails regardless of
    tolerance, as does breaching the hard 3x amplification acceptance
    bound. The two ratios (retransmit amplification and
    convergence-time inflation at the 10%-loss point) are gated at the
    usual tolerance against the committed baseline.
    """
    failures = []
    if not fresh["all_converged"]:
        failures.append(
            "netfault: a faulty FDP/FSP cell did not converge to legitimacy"
        )
    if fresh["traffic"]["violations"]:
        failures.append(
            f"netfault: {fresh['traffic']['violations']} "
            "monotonic-searchability violations under 10% loss"
        )
    hard = committed.get("max_amplification_limit", 3.0)
    if fresh["amplification_at_10"] > hard:
        failures.append(
            f"netfault: amplification {fresh['amplification_at_10']} at 10% "
            f"loss exceeds the hard {hard}x acceptance bound"
        )
    for key, label in (
        ("amplification_at_10", "retransmit amplification"),
        ("inflation_at_10", "convergence inflation"),
    ):
        base = committed.get(key, 0)
        if base <= 0:
            continue
        ceiling = base * (1.0 + tolerance)
        if fresh[key] > ceiling:
            failures.append(
                f"netfault: {label} {fresh[key]} at 10% loss > ceiling "
                f"{ceiling:.4f} (committed {base}, tolerance {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop below the committed steps/s",
    )
    parser.add_argument(
        "--committed-telemetry",
        type=pathlib.Path,
        default=COMMITTED_TELEMETRY,
        help="telemetry baseline JSON to compare against",
    )
    parser.add_argument(
        "--committed-chaos",
        type=pathlib.Path,
        default=COMMITTED_CHAOS,
        help="chaos-supervision baseline JSON to compare against",
    )
    parser.add_argument(
        "--committed-soa",
        type=pathlib.Path,
        default=COMMITTED_SOA,
        help="SoA-core baseline JSON to compare against",
    )
    parser.add_argument(
        "--committed-churn",
        type=pathlib.Path,
        default=COMMITTED_CHURN,
        help="open-system churn baseline JSON to compare against",
    )
    parser.add_argument(
        "--committed-netfault",
        type=pathlib.Path,
        default=COMMITTED_NETFAULT,
        help="unreliable-underlay baseline JSON to compare against",
    )
    args = parser.parse_args(argv)
    committed_telemetry = json.loads(args.committed_telemetry.read_text())
    committed_chaos = json.loads(args.committed_chaos.read_text())
    committed_soa = json.loads(args.committed_soa.read_text())
    committed_churn = json.loads(args.committed_churn.read_text())
    committed_netfault = json.loads(args.committed_netfault.read_text())
    fresh_telemetry = telemetry_smoke()
    for run in fresh_telemetry["runs"]:
        print(
            f"sink={run['sink']:<12} steps/s={run['steps_per_s']:>10.1f} "
            f"overhead={100 * run['overhead_frac']:6.2f}%"
        )
    fresh_chaos = chaos_smoke()
    for run in fresh_chaos["runs"]:
        print(
            f"config={run['config']:<12} steps/s={run['steps_per_s']:>10.1f} "
            f"overhead={100 * run['overhead_frac']:6.2f}%"
        )
    fresh_soa = soa_smoke([4096], pairs=1)
    for run in fresh_soa["runs"]:
        print(
            f"core n={run['n']:>6} mode={run['mode']:<8} "
            f"steps/s={run['steps_per_s']:>10.1f}"
        )
    fresh_churn = churn_smoke()
    for run in fresh_churn["runs"]:
        print(
            f"churn n={run['n']:>5} mode={run['mode']:<7} "
            f"steps/s={run['steps_per_s']:>10.1f} "
            f"requests={run['requests']} violations={run['violations']}"
        )
    fresh_netfault = netfault_smoke()
    print(
        f"netfault amp@10%={fresh_netfault['amplification_at_10']} "
        f"inflation@10%={fresh_netfault['inflation_at_10']} "
        f"traffic_violations={fresh_netfault['traffic']['violations']} "
        f"converged={fresh_netfault['all_converged']}"
    )
    failures = compare_telemetry(
        committed_telemetry, fresh_telemetry, args.tolerance
    )
    failures += compare_chaos(committed_chaos, fresh_chaos, args.tolerance)
    failures += compare_soa(committed_soa, fresh_soa, args.tolerance)
    failures += compare_churn(committed_churn, fresh_churn, args.tolerance)
    failures += compare_netfault(
        committed_netfault, fresh_netfault, args.tolerance
    )
    if failures:
        for line in failures:
            print(f"REGRESSION: {line}", file=sys.stderr)
        print(
            "Performance regression against the committed baseline. See "
            "docs/PERF.md for the measurement protocol, the profiling "
            "workflow to locate the regression, and how to re-baseline "
            "if CI hardware legitimately shifted.",
            file=sys.stderr,
        )
        return 1
    checked = (
        args.committed_telemetry,
        args.committed_chaos,
        args.committed_soa,
        args.committed_churn,
        args.committed_netfault,
    )
    print(
        "no regression against "
        + ", ".join(path.name for path in checked)
        + f" (tolerance {args.tolerance:.0%})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
