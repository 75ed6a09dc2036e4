"""What one workload run hands back, the statistics used on it, and the
calibration that scales its timings to the reference speed.

The benchmark host's CPU speed swings with its neighbours' load — the same
pure-Python loop takes anywhere from 1x to 2x its best time, and the speed
holds for tens of seconds at a time, longer than one run — so raw wall times
of identical work spread far wider than any useful regression bound.
Timed operations are therefore reported at the reference speed: wall time
scaled by ``REFERENCE_CALIBRATION_S`` over the time of a fixed calibration
loop measured in this process just before and just after the work, while
nothing of the program runs (measured during the work, the loop would also
time the work's own use of the CPUs).  The raw wall times are printed on
the ``detail:`` line.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: ``name -> (value, unit)``
Metrics = Dict[str, Tuple[float, str]]


@dataclass
class RunResult:
    """Everything a workload measured in one run.

    ``metrics`` are the end-to-end metrics of ``BENCHMARK.json`` (every workload
    reports all of them); ``detail`` are the workload's own end-to-end
    figures under their specific names (``rules_s``, ``verdict_p90_ms``
    ...), printed for people and recorded in the baseline; ``layers`` are
    the per-layer values a workload measures itself (a traced run adds the
    span-derived ones).
    """

    metrics: Metrics = field(default_factory=dict)
    detail: Metrics = field(default_factory=dict)
    #: Per-layer values by name; units are in ``layers.LAYER_METRICS``.
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: One line per output check that did not match.
    mismatches: List[str] = field(default_factory=list)
    #: Where a traced run wrote its spans (JSONL), if it did, and the
    #: ``time.perf_counter`` window its layer metrics cover (None = all).
    spans: Optional[str] = None
    window: Optional[Tuple[float, float]] = None

    def check(self, ok: bool, what: str) -> None:
        """Count one output check; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(what)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in ``[0, 1]``)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def own_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of another live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


#: The calibration loop's time at the reference speed (about its time on the
#: baseline host in a quiet period); the unit the scaled timings are in.
REFERENCE_CALIBRATION_S = 0.008
CALIBRATION_ROUNDS = 60_000
_CALIBRATION_TABLE = [0] * 1024


def calibration_s() -> float:
    """Time one pass of the fixed calibration loop.

    Integer and list arithmetic only: it allocates no container, so it never
    runs the garbage collector, and its time does not depend on what the
    program under test left on the heap.
    """
    table = _CALIBRATION_TABLE
    total = 0
    started = time.perf_counter()
    for step in range(CALIBRATION_ROUNDS):
        total = (total + table[step & 1023] + step) & 0xFFFFF
        table[step & 1023] = total
    return time.perf_counter() - started


@dataclass
class Clock:
    """Wall times of operations, each also scaled to the reference speed by
    the mean of a calibration just before and just after it."""

    raw: List[float] = field(default_factory=list)
    scaled: List[float] = field(default_factory=list)

    @contextmanager
    def measure(self, per: int = 1) -> Iterator[None]:
        """Time the body; ``per`` operations ran in it (their mean is kept)."""
        before = calibration_s()
        started = time.perf_counter()
        yield
        elapsed = (time.perf_counter() - started) / per
        after = calibration_s()
        self.raw.append(elapsed)
        self.scaled.append(elapsed * 2.0 * REFERENCE_CALIBRATION_S / (before + after))
