"""Immutable result records in one append-only JSON-lines file.

A record's ``id`` is a content hash of what makes two results
comparable: workload, layer stack, sizes (n and step counts), scenario
seed, the program's git
commit, a host fingerprint and ``cpu_count``. Measured values are not
part of the id, so a second run of the same configuration maps to the
same id: the stored record is kept, never rewritten, and the fresh run
is compared against it instead. The file is rewritten whole through a
temporary file and a rename, so a crash never leaves a partial line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Any


def host_fingerprint() -> dict[str, Any]:
    """What the numbers depend on beyond the code: CPU, OS and Python."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout at ``root``, marked ``+dirty`` when ``src/``
    differs from it; ``unknown`` outside a git checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=root,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def record_id(
    *,
    workload: str,
    stack: list[str],
    params: dict[str, int],
    seed: int,
    commit: str,
    host: dict[str, Any],
) -> str:
    """Deterministic id of one benchmark configuration: ``params`` are the
    workload's sizes (n and step counts), ``host`` carries ``cpu_count``."""
    key = {
        "workload": workload,
        "stack": list(stack),
        "params": params,
        "seed": seed,
        "commit": commit,
        "host": host,
    }
    blob = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return "LBR-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def load(path: Path) -> dict[str, dict]:
    """Stored records by id (empty when the file does not exist)."""
    if not path.exists():
        return {}
    out: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                out.setdefault(rec["id"], rec)
    return out


def append(path: Path, records: list[dict]) -> list[str]:
    """Append the records whose id is not stored yet; returns their ids."""
    stored = load(path)
    fresh = [r for r in records if r["id"] not in stored]
    if not fresh:
        return []
    old = path.read_text(encoding="utf-8") if path.exists() else ""
    if old and not old.endswith("\n"):
        old += "\n"
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in fresh)
    fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(old + lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return [r["id"] for r in fresh]
