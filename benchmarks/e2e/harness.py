"""Shared pieces of the benchmark: windows, percentiles, work dirs, GC rule."""

from __future__ import annotations

import contextlib
import gc
import math
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
#: Scratch space (WAL roots, cluster data roots); inside the checkout
#: because the benchmark may write nowhere else.  Git-ignored.
WORK_ROOT = os.path.join(HERE, ".work")
RESULTS_DIR = os.path.join(HERE, "results")


@dataclass
class Window:
    """What one measured window produced."""

    attempted: int
    failed: int
    commits: int
    wall_s: float
    #: The four measured end-to-end metrics (``setup_s`` is the run's).
    metrics: Dict[str, float]
    #: True when latency and CPU are derived from rounds (sim family).
    derived: bool = False
    #: Correctness failures noticed while measuring (count drift, ...).
    failures: List[str] = field(default_factory=list)
    diagnostics: Dict[str, float] = field(default_factory=dict)

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        return dict(self.metrics, setup_s=setup_s)


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated quantile (steadier than nearest rank on the
    ~40-sample per-round series of the simulator workloads)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@contextlib.contextmanager
def quiet_gc() -> Iterator[None]:
    """Automatic GC off for a timed region.

    With the default collector, identical simulator rounds alternated
    between ~205 and ~270 ms depending on where the gen-2 threshold
    fell; rounds call ``gc.collect()`` once themselves, inside the timer.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def fresh_dir(*parts: str) -> str:
    """Create (empty) ``.work/<parts>`` and return its path."""
    path = os.path.join(WORK_ROOT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(seed: int) -> Dict[str, object]:
    """The provenance every result row carries."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def ensure_importable() -> None:
    """Put ``src/`` on ``sys.path``; fail loudly when it is not there."""
    if not os.path.isdir(os.path.join(SRC_ROOT, "repro")):
        raise SystemExit(
            f"benchmark: no program to measure: {SRC_ROOT}/repro is missing"
        )
    if SRC_ROOT not in sys.path:
        sys.path.insert(0, SRC_ROOT)
    # The history oracle recurses once or twice per audited transaction
    # and overflows the default limit from a few hundred transactions
    # up (a known limit of check_view_serializable, see README).
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
