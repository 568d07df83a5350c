"""Fabric resilience: a killed worker loses no results, a slow trial no sweep.

The killer builder must live at module level (workers unpickle it), and
it must only fire *inside a worker* (pid differs from the orchestrating
process) and only *once* (a flag file) — the resubmitted chunk and the
serial baseline then build the very same engines, which is what makes
the bit-identity assertion meaningful.
"""

from __future__ import annotations

import os
from concurrent.futures import wait

import pytest

from repro.analysis.runner import TrialFabric, run_series, run_trial
from repro.core.potential import fdp_legitimate
from repro.core.scenarios import (
    build_fdp_engine,
    choose_leaving,
    corruption_from_factor,
)
from repro.errors import TrialTimeout
from repro.graphs import generators as gen

N = 8
BUDGET = 60_000


def build_fdp(seed: int):
    edges = gen.random_connected(N, N // 2, seed=seed)
    leaving = choose_leaving(N, edges, fraction=0.3, seed=seed)
    return build_fdp_engine(N, edges, leaving, seed=seed, corruption=corruption_from_factor(0.6))


class KillerBuild:
    """Builds normal engines — except the first call inside a worker
    process, which kills that worker outright (``os._exit`` escapes every
    exception handler, exactly like the OOM killer would)."""

    def __init__(self, parent_pid: int, flag_path: str) -> None:
        self.parent_pid = parent_pid
        self.flag_path = flag_path

    def __call__(self, seed: int):
        if os.getpid() != self.parent_pid and not os.path.exists(self.flag_path):
            with open(self.flag_path, "w"):
                pass
            os._exit(1)
        return build_fdp(seed)


class TestWorkerDeath:
    def test_killed_worker_recovers_with_serial_identical_results(self, tmp_path):
        """One worker dies mid-batch: the fabric rebuilds the pool,
        resubmits only the missing chunks, logs the recovery, and the
        reassembled sequence is bit-identical to the serial path."""
        build = KillerBuild(os.getpid(), str(tmp_path / "killed-once"))
        serial = [
            run_trial(
                build, s, until=fdp_legitimate, max_steps=BUDGET,
                capture_errors=True,
            )
            for s in range(6)
        ]
        with TrialFabric(max_workers=2, chunk_size=2) as fabric:
            fanned = fabric.run(
                build, range(6), until=fdp_legitimate, max_steps=BUDGET
            )
            recovery = list(fabric.recovery_log)
        assert os.path.exists(str(tmp_path / "killed-once")), "worker never died"
        assert fanned == serial
        assert all(t.error is None for t in fanned)
        assert recovery, "a pool rebuild must be logged, never silent"
        assert all(
            event["event"] in ("pool_rebuilt", "serial_fallback")
            for event in recovery
        )
        assert all(event["chunks"] for event in recovery)

    def test_exhausted_retries_fall_back_to_serial(self, tmp_path):
        """With zero pool retries the fabric may not rebuild — the
        missing chunks must complete serially in-process instead."""
        build = KillerBuild(os.getpid(), str(tmp_path / "killed-once"))
        with TrialFabric(
            max_workers=2, chunk_size=2, max_pool_retries=0
        ) as fabric:
            fanned = fabric.run(
                build, range(4), until=fdp_legitimate, max_steps=BUDGET
            )
            recovery = list(fabric.recovery_log)
        assert [t.seed for t in fanned] == list(range(4))
        assert all(t.error is None for t in fanned)
        assert any(event["event"] == "serial_fallback" for event in recovery)

    def test_worker_death_during_submission_is_recovered(self, tmp_path, monkeypatch):
        """Regression: a worker that died before every chunk was handed
        out made ``pool.submit`` raise ``BrokenProcessPool`` out of
        ``run``. Each submit here waits for its chunk, so the first
        chunk's worker is dead before the second submit."""
        build = KillerBuild(os.getpid(), str(tmp_path / "killed-once"))
        with TrialFabric(
            max_workers=2, chunk_size=2, max_pool_retries=0
        ) as fabric:
            pool = fabric._ensure_pool()
            submit = pool.submit

            def submit_and_wait(*args, **kwargs):
                future = submit(*args, **kwargs)
                wait([future])
                return future

            monkeypatch.setattr(pool, "submit", submit_and_wait)
            fanned = fabric.run(
                build, range(4), until=fdp_legitimate, max_steps=BUDGET
            )
            recovery = list(fabric.recovery_log)
        assert [t.seed for t in fanned] == list(range(4))
        assert all(t.error is None for t in fanned)
        assert [event["event"] for event in recovery] == ["serial_fallback"]

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError):
            TrialFabric(max_pool_retries=-1)


class TestTrialTimeout:
    def test_timeout_raises_by_default(self):
        with pytest.raises(TrialTimeout):
            run_trial(
                build_fdp,
                1,
                until=lambda e: False,  # never satisfied: run out the clock
                max_steps=10**9,
                check_every=1,
                timeout=0.05,
            )

    def test_timeout_captured_as_structured_failure(self):
        trial = run_trial(
            build_fdp,
            1,
            until=lambda e: False,
            max_steps=10**9,
            check_every=1,
            timeout=0.05,
            capture_errors=True,
        )
        assert trial.failed
        assert trial.error.startswith("TrialTimeout")
        assert not trial.converged
        assert trial.steps > 0  # the run got somewhere before the clock hit
        assert trial.stats  # ... and its stats survived the failure

    def test_run_series_threads_timeout(self):
        series = run_series(
            build_fdp,
            range(2),
            until=lambda e: False,
            max_steps=10**9,
            check_every=1,
            timeout=0.05,
            on_error="capture",
        )
        assert all(t.error.startswith("TrialTimeout") for t in series.trials)

    def test_no_timeout_is_no_limit(self):
        trial = run_trial(
            build_fdp, 1, until=fdp_legitimate, max_steps=BUDGET, timeout=None
        )
        assert trial.converged
