"""Shared plumbing of the benchmark: statistics, the environment record,
the paper-model contract guard and peak memory."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
from typing import Any, Dict, List, Optional, Sequence

#: Run artifacts (work directories, span dumps, reports, contract
#: records) live here, under the checkout root; the directory is
#: git-ignored.
RUNS_DIR = ".perfbench_runs"

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float], preferred: float) -> Dict[str, Any]:
    """The highest ladder percentile, at most *preferred*, with at least
    :data:`TAIL_MIN_BEYOND` samples beyond it (nearest-rank definition).

    Each workload fixes *preferred* from its expected sample count, so the
    reported percentile stays the same from run to run; the percentile
    and the sample count are returned beside the value.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in TAIL_LADDER:
        if percentile > preferred:
            continue
        rank = max(1, math.ceil(percentile / 100.0 * count))
        beyond = count - rank
        if beyond >= TAIL_MIN_BEYOND:
            return {
                "value": ordered[rank - 1],
                "percentile": percentile,
                "samples": count,
                "beyond": beyond,
            }
    return {
        "value": ordered[-1] if ordered else 0.0,
        "percentile": 100.0,
        "samples": count,
        "beyond": 0,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def _git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read straight from ``.git`` (no subprocess);
    ``None`` in a checkout that is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _source_digest(root: str) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content, so results
    from checkouts without git history still name the code they ran."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def environment(root: str) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
    }


# ----------------------------------------------------------------------
# Paper-model contract guard
# ----------------------------------------------------------------------


def _differences(previous: Any, current: Any, path: str = "") -> List[str]:
    if isinstance(previous, dict) and isinstance(current, dict):
        found: List[str] = []
        for key in sorted(set(previous) | set(current)):
            found += _differences(
                previous.get(key), current.get(key), f"{path}.{key}"
            )
        return found
    if isinstance(previous, list) and isinstance(current, list):
        if len(previous) != len(current):
            return [f"{path}: length {len(previous)} -> {len(current)}"]
        found = []
        for index, (old, new) in enumerate(zip(previous, current)):
            found += _differences(old, new, f"{path}[{index}]")
        return found
    if previous != current:
        return [f"{path}: {previous!r} -> {current!r}"]
    return []


def guard_contract(
    root: str, workload: str, seed: int, record: Dict[str, Any]
) -> Dict[str, Any]:
    """Compare this run's ``CostCounters``/``ResilienceCounters`` with the
    previous recorded run of the same workload and seed, then record
    this run's.  A refactor may move timings, never these counts."""
    directory = os.path.join(root, RUNS_DIR, "contract")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{workload}-seed{seed}.json")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    differences = [] if previous is None else _differences(previous, record)
    return {
        "previous_run_recorded": previous is not None,
        "changed": bool(differences),
        "differences": differences[:20],
    }


def write_json(root: str, name: str, document: Any) -> str:
    directory = os.path.join(root, RUNS_DIR)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True, default=str)
    return path
