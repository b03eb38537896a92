"""Shared result type and statistics helpers for the benchmark workloads."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Benchmark outputs (Chrome traces, per-layer tables) land here, inside
#: the checkout the benchmark runs in.
OUT_DIR = ".perfbench"


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` always holds the untraced end-to-end metrics; a traced run also
    fills ``layers`` (per-layer metrics, overhead rows included).
    ``problems`` lists failed output checks: any entry fails the run.
    """

    e2e: Dict[str, float]
    attempted: int
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    trace_path: Optional[str] = None


def pct(values: Sequence[float], p: float) -> float:
    """Percentile (numpy linear interpolation); 0.0 for an empty series."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def out_path(root: str, name: str) -> str:
    directory = os.path.join(root, OUT_DIR)
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, name)


def overhead(traced: Dict[str, float], untraced: Dict[str, float]
             ) -> Dict[str, float]:
    """Traced-minus-untraced difference for every end-to-end metric."""
    return {f"overhead.{k}": traced[k] - untraced[k] for k in untraced}


def steal_ticks() -> int:
    """CPU time the hypervisor gave other guests (USER_HZ ticks, all CPUs);
    0 where ``/proc/stat`` has no steal column."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def steal_share(ticks: int, seconds: float) -> float:
    """Share of the machine's CPU time other guests took over ``seconds``."""
    cpus = os.cpu_count() or 1
    return ticks / os.sysconf("SC_CLK_TCK") / (seconds * cpus)
