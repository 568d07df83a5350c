"""A run replays bit for bit under any ``PYTHONHASHSEED``.

``str`` and ``bytes`` hashes are salted per interpreter. Anything on the
step path that orders by such a hash — a ``__hash__`` built from a
string, a walk over a set whose members hash that way — makes the same
(topology, seed, scheduler) execute differently in every worker process.
The tree once shipped exactly that bug: ``Ref.__hash__`` hashed
``("Ref", pid)``, and the protocols that walk sets of ``Ref`` diverged
per interpreter.

Each child interpreter here computes the pinned digests of
``tests/sim/test_golden_schedule.py`` under a fixed hash seed: the
clique and framework(clique) populations, which walk sets of ``Ref``,
and the FDP run of the ``random`` family. The children get a clean
environment (only ``PYTHONPATH`` and ``PYTHONHASHSEED``) and pin the
object loop themselves, so ``REPRO_ENGINE_MODE`` in the parent cannot
change what they compute. Each digest must equal the pinned value, and
the two hash seeds must agree with each other population by population,
which holds even after a deliberate re-pin. The salted children are the
live control: with ``Ref.__hash__`` put back to that salted shape, the
set-walking digests must move away from the pinned values and apart
from each other under the two seeds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.sim.test_golden_schedule import GOLDEN, GOLDEN_SETS

ROOT = Path(__file__).resolve().parents[2]

HASH_SEEDS = (1, 2)

PINNED = {**GOLDEN_SETS, "fdp": GOLDEN["random"]}

_CHILD = """
import json, sys
from repro.sim.refs import Ref
from tests.sim import test_golden_schedule as golden

if sys.argv[1] == "salted":
    Ref.__hash__ = lambda self: hash(("Ref", self._pid))
digests = {p: golden.set_walk_digest(p, "objects") for p in golden.GOLDEN_SETS}
digests["fdp"] = golden.schedule_digest("random", "objects")
print(json.dumps(digests))
"""


def _spawn(hash_seed: int, variant: str) -> subprocess.Popen:
    env = {
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "PYTHONHASHSEED": str(hash_seed),
    }
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, variant],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture(scope="module")
def child_digests() -> dict[tuple[int, str], dict[str, str]]:
    """Digests per (hash seed, Ref hash), from children run side by side."""
    runs = [(seed, variant) for variant in ("shipped", "salted") for seed in HASH_SEEDS]
    procs = {run: _spawn(*run) for run in runs}
    try:
        outputs = {run: proc.communicate(timeout=300) for run, proc in procs.items()}
    finally:
        for proc in procs.values():
            proc.kill()  # no-op for a child that already exited
    out = {}
    for run, (stdout, stderr) in outputs.items():
        assert procs[run].returncode == 0, stderr
        out[run] = json.loads(stdout)
    return out


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_digests_are_pinned_under_hash_seed(child_digests, hash_seed: int) -> None:
    assert child_digests[hash_seed, "shipped"] == PINNED


@pytest.mark.parametrize("population", sorted(PINNED))
def test_runs_agree_across_hash_seeds(child_digests, population: str) -> None:
    first, second = (child_digests[seed, "shipped"] for seed in HASH_SEEDS)
    assert first[population] == second[population]


def test_salted_ref_hash_moves_the_set_walks(child_digests) -> None:
    salted = child_digests[HASH_SEEDS[0], "salted"]
    for population in GOLDEN_SETS:
        assert salted[population] != PINNED[population], population


def test_salted_ref_hash_diverges_across_hash_seeds(child_digests) -> None:
    first, second = (child_digests[seed, "salted"] for seed in HASH_SEEDS)
    for population in GOLDEN_SETS:
        assert first[population] != second[population], population
