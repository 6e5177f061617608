"""In-memory span tracer and the summary statistics the benchmark reports.

A span is one timed call at a layer boundary. Spans nest: a span's self
time is its duration minus the durations of the spans it directly encloses,
so the self times of every span recorded during a call sum to the durations
of the outermost spans. Only per-name totals are kept, which bounds memory
however many autodiff ops a run records.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records nested spans and named counters for one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.totals: dict[str, SpanTotals] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        # open spans, innermost last: [name, start, time covered by children]
        self._open: list[list] = []

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self._open.pop()
        duration = self.clock() - start
        totals = self.totals.setdefault(name, SpanTotals())
        totals.calls += 1
        totals.total_s += duration
        totals.self_s += duration - covered
        if self._open:
            self._open[-1][2] += duration
        return duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def inside(self, prefix: str) -> bool:
        """True when an open span's name starts with ``prefix``."""
        return any(frame[0].startswith(prefix) for frame in self._open)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def self_time_sum(self) -> float:
        """Sum of all spans' self times: the time outermost spans cover."""
        return sum(t.self_s for t in self.totals.values())

    def total(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.total_s if totals else 0.0

    def self_time(self, name: str) -> float:
        totals = self.totals.get(name)
        return totals.self_s if totals else 0.0

    def calls(self, name: str) -> int:
        totals = self.totals.get(name)
        return totals.calls if totals else 0


def tail_percentile(samples) -> tuple[int | None, float | None]:
    """The highest whole percentile with at least ten samples beyond it.

    Uses nearest rank: the p-th percentile of N sorted samples is the one at
    rank ceil(p·N/100), and the samples beyond it are the N minus that rank.
    Returns ``(p, value)``, or ``(None, None)`` when ten or fewer samples
    leave no percentile with ten beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(100, -1, -1):
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None
