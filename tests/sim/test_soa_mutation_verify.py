"""Seeded SoA-core mutations are caught by the tests that execute the core.

Each mutation here textually seeds a real mirror bug into a copy of
``src/repro/sim/soa.py`` — the core drops a counter flush, posts the
wrong message label, skips the generation bump on departure, resets a
recycled slot's generation, overlaps two packed-record fields,
dispatches deliveries to a misspelt kernel, loses a send from the
scheduler pool, drops a progress mark, labels components without one
of its in-edges, trusts a dead pair of its component certificate,
leaves out of a targeted certificate walk the pairs at a slot marked
for losing an edge, groups the engine's component labels by slot
instead of by root, or walks a slot's neighbours without its channel
subjects —
swaps the mutated ``EngineCore`` in, and asserts that the named oracle
rejects it:

* ``verify`` — an engine under ``engine_mode="verify"`` raises on its
  first divergent step (or at attach: a misspelt kernel while building
  the core, a wrong component labelling when attach cross-checks the
  core's partition against the live graph's). It compares every counter the core exports, the progress
  marks included. Its predicate asks the engine's query facade for Φ, partners,
  hop distances, connectivity and the legitimacy clauses every 13
  steps, and verify mode cross-checks each answer against the core's,
  the core's kept component labels against a full relabel, and, right
  after each certificate walk, every certificate pair for liveness, so
  a bug in a core query (the component labelling skipping an ``in_``
  pair, the neighbour walk skipping channel subjects, a walk that
  leaves a dead pair in) trips it too. A
  last run splits a component for real
  (``tests/sim/test_component_certificate.py``), which a certificate
  that trusts a dead pair misses;
* ``soa_vs_objects`` — bugs inside ``run_batch``, which verify mode never
  calls: the same run on ``engine_mode="soa"`` ends with different
  statistics or progress diagnostics than on the object loop;
* ``recycle`` — the slot-recycle test of ``tests/sim/test_soa_slots.py``
  fails. Both cores agree on every pid-level observable under that bug,
  so only the slot bookkeeping itself can see it.

This is the evidence behind the "Retired rules" table of docs/LINT.md:
every bug class the static mirror analyzer used to flag has a dynamic
test here that fails under it.
"""

from __future__ import annotations

import importlib.util
from itertools import combinations
from pathlib import Path

import pytest

from repro.core.potential import fdp_legitimate
from repro.core.scenarios import (
    HEAVY_CORRUPTION,
    SCHEDULER_FACTORIES,
    build_fdp_engine,
    choose_leaving,
)
from repro.errors import StateViolation
from repro.graphs import generators as gen
from tests.sim import test_soa_slots as slots
from tests.sim.test_component_certificate import run_past_split, split_engine

SOA_PATH = Path(__file__).resolve().parents[2] / "src" / "repro" / "sim" / "soa.py"

# (name, original text, replacement text, oracle that must catch it)
MUTATIONS = [
    (
        "anchor_purge_posts_wrong_label",
        "\n            self._send(u, u, 0, self.anchor_[u], self.abelief_[u])\n",
        "\n            self._send(u, u, 1, self.anchor_[u], self.abelief_[u])\n",
        "verify",
    ),
    (
        "timeout_counter_flush_dropped",
        "        self.timeouts += 1\n",
        "",
        "verify",
    ),
    (
        "generation_bump_skipped",
        "            self.gen_[u] += 1\n",
        "",
        "verify",
    ),
    (
        "layout_fields_overlap",
        "_SUBJ_SHIFT = _BEL_SHIFT + 2\n",
        "_SUBJ_SHIFT = _BEL_SHIFT + 1\n",
        "verify",
    ),
    (
        "registry_kernel_typo",
        "(self._present_kernel, self._forward_kernel)",
        "(self._present_kernel, self._forward_kernal)",
        "verify",
    ),
    (
        "step_progress_mark_dropped",
        "            self.last_progress = self.steps\n",
        "",
        "verify",
    ),
    (
        "labelling_skips_in_pair",
        "            for s in inn:\n                u = s\n",
        "            for s in list(inn)[1:]:\n                u = s\n",
        "verify",
    ),
    (
        "certificate_trusts_dead_pair",
        "if state_[b] != _GONE and b not in in_[a] and a not in in_[b]:",
        "if False:",
        "verify",
    ),
    (
        "component_labels_use_slot_not_root",
        "            lambda pid: roots[slot_of[pid]],\n",
        "            lambda pid: slot_of[pid],\n",
        "verify",
    ),
    (
        "neighbour_walk_skips_channel_subjects",
        "        for rec in self.ch[u].values():\n"
        "            q = ((rec >> _SUBJ_SHIFT) & _SUBJ_MASK) - 1\n"
        "            if q >= 0 and state_[q] != _GONE:\n"
        "                yield q\n",
        "",
        "verify",
    ),
    (
        "targeted_walk_ignores_marked_pair",
        "        for a in dirty:\n",
        "        for a in list(dirty)[1:]:\n",
        "verify",
    ),
    (
        "batch_delivery_flush_dropped",
        "            self.deliveries += dcount\n",
        "",
        "soa_vs_objects",
    ),
    (
        "batch_progress_mark_dropped",
        "                    lprog = steps\n",
        "",
        "soa_vs_objects",
    ),
    (
        "send_pool_append_dropped",
        "            self._pos[entry] = len(pool)\n            pool.append(entry)\n",
        "",
        "soa_vs_objects",
    ),
    (
        "recycled_generation_reset",
        "            self.pids[u] = pid\n",
        "            self.pids[u] = pid\n            self.gen_[u] = 0\n",
        "recycle",
    ),
]


def _load_mutated_soa(tmp_path: Path, name: str, original: str, replacement: str):
    """Exec a mutated copy of soa.py and return the module."""
    source = SOA_PATH.read_text()
    assert source.count(original) == 1, f"mutation target not unique: {original!r}"
    target = tmp_path / f"soa_{name}.py"
    target.write_text(source.replace(original, replacement, 1))
    spec = importlib.util.spec_from_file_location(f"soa_mutated_{name}", target)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(seed: int, engine_mode: str):
    n = 12
    edges = gen.random_connected(n, n // 2, seed=seed + 7)
    leaving = choose_leaving(n, edges, fraction=0.4, seed=seed + 1)
    return build_fdp_engine(
        n,
        edges,
        leaving,
        corruption=HEAVY_CORRUPTION,
        scheduler=SCHEDULER_FACTORIES["random"](seed),
        seed=seed,
        engine_mode=engine_mode,
    )


def _ask_queries(engine) -> bool:
    """A predicate that asks the engine's query facade everything: in
    verify mode each answer is cross-checked against the core's."""
    pids = sorted(engine.processes)
    fdp_legitimate(engine)
    for pid in pids:
        engine.partner_pids(pid)
        engine.hops(pids[0], pid)
    for a, b in combinations(pids, 2):
        engine.same_component((a, b))
    return False


def _verify_catches() -> bool:
    for seed in range(8):
        engine = _build(seed, "verify")
        try:
            # builds the core and its kernel dispatch, and cross-checks
            # the core's component labelling
            engine.attach()
        except (AttributeError, StateViolation):  # no such kernel; labels diverge
            return True
        try:
            engine.run(3000, until=_ask_queries, check_every=13)
        except StateViolation:
            return True
    # a genuine split, which the kept component labels must notice
    try:
        run_past_split(split_engine("verify"))
    except StateViolation:
        return True
    return False


def _soa_diverges_from_objects() -> bool:
    for seed in range(8):
        outcomes = []
        for mode in ("objects", "soa"):
            engine = _build(seed, mode)
            # Diagnostics after every 100-step run, not only at the end:
            # a converged run's last progress is an exit both cores mark.
            trail = []
            for _ in range(30):
                engine.run(100)
                trail.append(engine.progress_diagnostics())
            outcomes.append((engine.stats.as_dict(), trail))
        if outcomes[0] != outcomes[1]:
            return True
    return False


def _recycle_test_fails() -> bool:
    try:
        slots.test_recycled_slot_keeps_exit_generation()
    except AssertionError:
        return True
    return False


#: the oracles for bugs verify mode cannot see
OTHER_ORACLES = {
    "soa_vs_objects": _soa_diverges_from_objects,
    "recycle": _recycle_test_fails,
}

VERIFY_ROWS = [m[:3] for m in MUTATIONS if m[3] == "verify"]
OTHER_ROWS = [m for m in MUTATIONS if m[3] != "verify"]


def _swap_in_mutated_core(tmp_path, monkeypatch, name, original, replacement):
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
    mutated = _load_mutated_soa(tmp_path, name, original, replacement)
    # the engine imports these lazily from repro.sim.soa, so patching the
    # module swaps the core in every mode
    for attr in ("EngineCore", "CoreUnsupported"):
        monkeypatch.setattr(f"repro.sim.soa.{attr}", getattr(mutated, attr))


@pytest.mark.parametrize(
    "name,original,replacement", VERIFY_ROWS, ids=[m[0] for m in VERIFY_ROWS]
)
def test_mutation_trips_verify_oracle(
    tmp_path: Path, monkeypatch, name: str, original: str, replacement: str
) -> None:
    _swap_in_mutated_core(tmp_path, monkeypatch, name, original, replacement)
    assert _verify_catches(), f"verify mode never caught mutation {name!r}"


@pytest.mark.parametrize(
    "name,original,replacement,oracle", OTHER_ROWS, ids=[m[0] for m in OTHER_ROWS]
)
def test_mutation_caught_outside_verify(
    tmp_path: Path, monkeypatch, name: str, original: str, replacement: str, oracle: str
) -> None:
    _swap_in_mutated_core(tmp_path, monkeypatch, name, original, replacement)
    assert OTHER_ORACLES[oracle](), f"{oracle} never caught mutation {name!r}"


def test_unmutated_core_passes_verify(monkeypatch) -> None:
    """Control: the harness itself is violation-free on the real core."""
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
    assert not _verify_catches()


@pytest.mark.parametrize("oracle", sorted(OTHER_ORACLES))
def test_unmutated_core_passes_outside_verify(monkeypatch, oracle: str) -> None:
    monkeypatch.delenv("REPRO_ENGINE_MODE", raising=False)
    assert not OTHER_ORACLES[oracle]()
