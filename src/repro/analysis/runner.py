"""Trial runner: execute scenario replicas and collect convergence metrics.

A *trial* is one fully-specified run (scenario builder + seed + budget); a
*series* is many trials differing only in seed. The runner is the
experiment harness's engine room: deterministic, budget-bounded, and —
following the HPC guides — embarrassingly parallel across trials.

Parallel execution runs on a :class:`TrialFabric`: a *persistent* worker
pool whose workers are warmed once (the scenario registry is imported by
the pool initializer, not re-imported per task) and fed *seed-chunked*
batches instead of one pickled task per trial. Chunk assignment is a pure
function of the seed list and the chunk size, results are reassembled in
chunk order, and failures inside a worker come back as structured
:class:`TrialResult` errors rather than killing the pool — which is what
makes ``parallel=True`` and ``parallel=False`` produce identical result
sequences for the same seeds (tested property, not an aspiration).

Builders and predicates crossing the process boundary must be picklable:
use module-level scenario functions, as the benchmark suite does.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from repro.errors import TrialTimeout
from repro.sim.engine import Engine

__all__ = [
    "TrialResult",
    "SeriesResult",
    "TrialFabric",
    "run_trial",
    "run_series",
]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one run.

    ``error`` is ``None`` for clean trials; a worker that hit an
    exception (safety violation, builder bug) reports it here as
    ``"ExcType: message"`` instead of tearing down the pool — a failed
    trial is data, not a crash. Budget exhaustion is *not* an error:
    it comes back as ``converged=False`` with ``error=None``.
    """

    converged: bool
    steps: int
    stats: dict[str, int]
    extra: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None
    error: str | None = None

    @property
    def messages(self) -> int:
        return self.stats.get("messages_posted", 0)

    @property
    def exits(self) -> int:
        return self.stats.get("exits", 0)

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass
class SeriesResult:
    """Aggregated outcomes of a seed series (vectorized with numpy)."""

    trials: list[TrialResult]

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def failures(self) -> list[TrialResult]:
        """Trials that errored inside a worker (structured failures)."""
        return [t for t in self.trials if t.error is not None]

    @property
    def convergence_rate(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.converged for t in self.trials]))

    def _converged_values(self, getter: Callable[[TrialResult], float]) -> np.ndarray:
        vals = [getter(t) for t in self.trials if t.converged]
        return np.asarray(vals, dtype=np.float64)

    def steps_summary(self) -> dict[str, float]:
        """min/median/mean/p90/max steps among converged trials."""
        return _summary(self._converged_values(lambda t: t.steps))

    def messages_summary(self) -> dict[str, float]:
        """min/median/mean/p90/max messages among converged trials."""
        return _summary(self._converged_values(lambda t: t.messages))

    def extra_summary(self, key: str) -> dict[str, float]:
        """Summary over a numeric ``extra`` field of converged trials."""
        return _summary(
            self._converged_values(lambda t: float(t.extra.get(key, float("nan"))))
        )


def _summary(values: np.ndarray) -> dict[str, float]:
    if values.size == 0:
        return {k: float("nan") for k in ("min", "median", "mean", "p90", "max")}
    return {
        "min": float(values.min()),
        "median": float(np.median(values)),
        "mean": float(values.mean()),
        "p90": float(np.percentile(values, 90)),
        "max": float(values.max()),
    }


def _deadline_until(
    until: Callable[[Engine], bool] | None,
    deadline: float,
    budget: float,
) -> Callable[[Engine], bool]:
    """Wrap *until* with a wall-clock check (resolution: ``check_every``)."""

    def wrapped(engine: Engine) -> bool:
        if time.monotonic() > deadline:
            raise TrialTimeout(
                f"trial exceeded its {budget:g}s wall-clock budget at step "
                f"{engine.step_count}"
            )
        return until(engine) if until is not None else False

    return wrapped


def run_trial(
    build: Callable[[int], Engine],
    seed: int,
    *,
    until: Callable[[Engine], bool],
    max_steps: int,
    check_every: int = 64,
    collect: Callable[[Engine], dict[str, Any]] | None = None,
    capture_errors: bool = False,
    timeout: float | None = None,
) -> TrialResult:
    """Build the engine for *seed*, run it to *until* or the budget.

    With ``capture_errors=True`` any exception becomes a structured
    :class:`TrialResult` (``error`` set, ``converged=False``, the step
    count and stats preserved as far as the run got) — the form fabric
    workers use so one bad trial cannot kill the pool.

    *timeout* bounds the trial in wall-clock seconds, checked alongside
    the predicate every ``check_every`` steps (a step budget alone does
    not protect a sweep from one pathological scenario whose *steps* are
    slow). Exceeding it raises :class:`~repro.errors.TrialTimeout` —
    captured like any structured failure under ``capture_errors``. Note
    that timeouts are wall-clock facts: unlike every other field, their
    presence may differ between machines (never between the serial and
    parallel paths *given* the same timings, but bit-identity guarantees
    only hold for ``timeout=None``).
    """
    engine: Engine | None = None
    try:
        engine = build(seed)
        run_until = until
        if timeout is not None:
            run_until = _deadline_until(
                until, time.monotonic() + timeout, timeout
            )
        converged = engine.run(
            max_steps, until=run_until, check_every=check_every
        )
        return TrialResult(
            converged=converged,
            steps=engine.step_count,
            stats=engine.stats.as_dict(),
            extra=collect(engine) if collect is not None else {},
            seed=seed,
        )
    except Exception as exc:  # noqa: BLE001 - structured failure surface
        if not capture_errors:
            raise
        return TrialResult(
            converged=False,
            steps=engine.step_count if engine is not None else 0,
            stats=engine.stats.as_dict() if engine is not None else {},
            extra={},
            seed=seed,
            error=f"{type(exc).__name__}: {exc}",
        )


# ---------------------------------------------------------------------------
# the persistent-worker execution fabric


@dataclass(frozen=True)
class _TrialSpec:
    """Everything a worker needs to run one series' trials.

    Pickled once per *chunk* (not per trial); the heavyweight imports the
    callables drag in are already resident from the pool initializer.
    """

    build: Callable[[int], Engine]
    until: Callable[[Engine], bool]
    max_steps: int
    check_every: int
    collect: Callable[[Engine], dict[str, Any]] | None
    timeout: float | None = None


def _fabric_warm() -> None:
    """Pool initializer: import the heavy registries once per worker.

    Workers persist across series (and across a whole sweep grid), so
    this cost is paid ``max_workers`` times total, not per trial.
    """
    import repro.core.scenarios  # noqa: F401
    import repro.graphs.generators  # noqa: F401


def _run_chunk(payload: tuple[int, _TrialSpec, list[int]]) -> tuple[int, list[TrialResult]]:
    """Worker entry: run one seed chunk serially, in seed order."""
    index, spec, seeds = payload
    results = [
        run_trial(
            spec.build,
            seed,
            until=spec.until,
            max_steps=spec.max_steps,
            check_every=spec.check_every,
            collect=spec.collect,
            capture_errors=True,
            timeout=spec.timeout,
        )
        for seed in seeds
    ]
    return index, results


class TrialFabric:
    """Persistent worker pool executing seed-chunked trial batches.

    One fabric outlives many :meth:`run` calls — ``sweep`` reuses a
    single fabric across every grid point, so workers are spawned and
    warmed exactly once per sweep instead of once per point.

    Determinism: chunking is a pure function of ``(seeds, chunk_size)``,
    every chunk runs its seeds in order, and results are reassembled in
    chunk-index order regardless of completion order — the returned
    sequence is bit-identical to the serial path for the same seeds.

    Worker death (OOM-killed child, segfault in native code, an
    ``os._exit`` escaping a trial) breaks a ``ProcessPoolExecutor``
    permanently: every outstanding and future submission raises
    ``BrokenProcessPool``. The fabric absorbs that instead of losing the
    batch — completed chunks are kept, the pool is rebuilt, and only the
    *missing* chunks are resubmitted, up to ``max_pool_retries`` times;
    past the budget the stragglers run serially in-process. Either way
    every chunk executes the same ``_run_chunk`` code on the same seed
    list, so recovered results stay bit-identical to an undisturbed run.
    Recoveries are logged in :attr:`recovery_log` (one dict per rebuild
    or fallback), never silent.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        max_pool_retries: int = 2,
    ) -> None:
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self.chunk_size = chunk_size
        if max_pool_retries < 0:
            raise ValueError("max_pool_retries must be >= 0")
        self.max_pool_retries = max_pool_retries
        self._pool: ProcessPoolExecutor | None = None
        #: structured recovery events: {"event": "pool_rebuilt" |
        #: "serial_fallback", "chunks": [indices], "attempt": k}
        self.recovery_log: list[dict[str, Any]] = []

    # -- lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers, initializer=_fabric_warm
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _discard_pool(self) -> None:
        """Drop a broken pool without waiting on its corpse."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> TrialFabric:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- execution ------------------------------------------------------------

    def _chunks(self, seeds: list[int]) -> list[list[int]]:
        size = self.chunk_size
        if size is None:
            # ~4 chunks per worker: granular enough to balance load,
            # coarse enough to amortize the per-task pickle of the spec.
            size = max(1, math.ceil(len(seeds) / (self.max_workers * 4)))
        return [seeds[lo : lo + size] for lo in range(0, len(seeds), size)]

    def run(
        self,
        build: Callable[[int], Engine],
        seeds: Iterable[int],
        *,
        until: Callable[[Engine], bool],
        max_steps: int,
        check_every: int = 64,
        collect: Callable[[Engine], dict[str, Any]] | None = None,
        progress: Callable[[TrialResult], None] | None = None,
        timeout: float | None = None,
    ) -> list[TrialResult]:
        """Run one trial per seed on the pool; results in seed order.

        ``progress`` (if given) streams each chunk's results as it
        lands — completion order, not seed order — for live reporting
        while the fabric keeps working. ``timeout`` is the per-trial
        wall-clock budget forwarded to :func:`run_trial` (captured as a
        structured ``TrialTimeout`` failure, never a crash).
        """
        seeds = list(seeds)
        if not seeds:
            return []
        spec = _TrialSpec(build, until, max_steps, check_every, collect, timeout)
        chunks = self._chunks(seeds)
        buckets: list[list[TrialResult] | None] = [None] * len(chunks)
        pending: dict[int, list[int]] = dict(enumerate(chunks))
        attempt = 0
        while pending:
            pool = self._ensure_pool()
            futures = []
            broken = False
            try:
                for index, chunk in sorted(pending.items()):
                    futures.append(pool.submit(_run_chunk, (index, spec, chunk)))
            except BrokenProcessPool:
                # a worker died before every chunk was handed out; the
                # unsubmitted chunks stay pending like the lost ones
                broken = True
            for fut in as_completed(futures):
                try:
                    index, results = fut.result()
                except BrokenProcessPool:
                    broken = True
                    continue
                buckets[index] = results
                del pending[index]
                if progress is not None:
                    for trial in results:
                        progress(trial)
            if not pending:
                break
            if not broken:  # pragma: no cover - as_completed covers all futures
                raise RuntimeError("fabric lost chunks without pool breakage")
            self._discard_pool()
            attempt += 1
            if attempt <= self.max_pool_retries:
                self.recovery_log.append(
                    {
                        "event": "pool_rebuilt",
                        "chunks": sorted(pending),
                        "attempt": attempt,
                    }
                )
                continue
            # retry budget spent: run the stragglers serially in-process —
            # same _run_chunk, same seed lists, so results are identical.
            self.recovery_log.append(
                {
                    "event": "serial_fallback",
                    "chunks": sorted(pending),
                    "attempt": attempt,
                }
            )
            for index, chunk in sorted(pending.items()):
                _, results = _run_chunk((index, spec, chunk))
                buckets[index] = results
                if progress is not None:
                    for trial in results:
                        progress(trial)
            pending.clear()
        return [trial for bucket in buckets for trial in bucket or []]


def run_series(
    build: Callable[[int], Engine],
    seeds: Iterable[int],
    *,
    until: Callable[[Engine], bool],
    max_steps: int,
    check_every: int = 64,
    collect: Callable[[Engine], dict[str, Any]] | None = None,
    parallel: bool | None = None,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    fabric: TrialFabric | None = None,
    progress: Callable[[TrialResult], None] | None = None,
    on_error: str = "raise",
    timeout: float | None = None,
) -> SeriesResult:
    """Run one trial per seed; optionally fan out over a worker fabric.

    ``parallel=None`` auto-enables multiprocessing when >1 CPU is
    available and more than 3 seeds are requested (the pool's spawn cost
    isn't worth it below that — measured, not guessed, per the guides).
    Passing an external *fabric* reuses its warm pool (and implies
    ``parallel=True``); otherwise a transient fabric is created and torn
    down around the call.

    ``on_error="raise"`` re-raises the first trial failure (serial path:
    at the failing trial; fabric path: after the batch, as a
    ``RuntimeError`` carrying the structured message). ``"capture"``
    keeps failures as :class:`TrialResult` entries with ``error`` set —
    identical between serial and parallel execution.

    ``timeout`` bounds each trial in wall-clock seconds (see
    :func:`run_trial`); a timed-out trial surfaces as a structured
    ``TrialTimeout`` failure under ``on_error="capture"`` and re-raises
    under ``"raise"``.
    """

    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', not {on_error!r}")
    seeds = list(seeds)
    if parallel is None:
        parallel = fabric is not None or (
            (os.cpu_count() or 1) > 1 and len(seeds) > 3
        )
    if not parallel:
        trials = [
            run_trial(
                build,
                s,
                until=until,
                max_steps=max_steps,
                check_every=check_every,
                collect=collect,
                capture_errors=(on_error == "capture"),
                timeout=timeout,
            )
            for s in seeds
        ]
        return SeriesResult(trials)
    own_fabric = fabric is None
    fab = fabric if fabric is not None else TrialFabric(max_workers, chunk_size)
    try:
        trials = fab.run(
            build,
            seeds,
            until=until,
            max_steps=max_steps,
            check_every=check_every,
            collect=collect,
            progress=progress,
            timeout=timeout,
        )
    finally:
        if own_fabric:
            fab.close()
    if on_error == "raise":
        for t in trials:
            if t.error is not None:
                raise RuntimeError(f"trial seed={t.seed} failed: {t.error}")
    return SeriesResult(trials)
