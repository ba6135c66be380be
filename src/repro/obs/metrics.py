"""Metric instruments: counters, gauges, and simulated-time histograms.

A :class:`MetricsRegistry` is a namespace of named instruments that
instrumented code creates lazily (``registry.counter("rpc.sent")``),
so layers never coordinate about what exists — readers enumerate
whatever showed up.  :class:`Histogram` keeps its raw samples (runs are
small enough that exact percentiles beat bucketed approximations) and
reports p50/p95/p99, which is what latency distributions with timeout
tails need — a bare mean hides exactly the behaviour the availability
experiments are about.
"""

from __future__ import annotations

import math
from typing import Any, Iterable


def percentile(samples: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0 ≤ p ≤ 100) by linear interpolation.

    NaN on an empty sample set, matching the recorder's convention for
    untouched operations.
    """
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Counter:
    """A monotone event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, live sites, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A distribution of simulated-time samples with exact percentiles."""

    __slots__ = ("name", "_samples", "_sorted")

    def __init__(self, name: str = ""):
        self.name = name
        self._samples: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._samples and value < self._samples[-1]:
            self._sorted = False
        self._samples.append(value)

    def merge(self, other: "Histogram") -> None:
        self._samples.extend(other._samples)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        return tuple(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        return self.total / len(self._samples) if self._samples else float("nan")

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    def quantile(self, p: float) -> float:
        self._ensure_sorted()
        return percentile(self._samples, p)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    @property
    def p50(self) -> float:
        return self.quantile(50)

    @property
    def p95(self) -> float:
        return self.quantile(95)

    @property
    def p99(self) -> float:
        return self.quantile(99)

    def summary(self) -> dict[str, float]:
        """The percentile summary the satellite reports are built from.

        An empty histogram summarizes to zeros rather than NaN: summaries
        feed JSON exports and fixed-width tables, where NaN either breaks
        strict parsers or renders as noise.  Callers that need to
        distinguish "no samples" from "all-zero samples" have ``count``.
        (The ``mean``/``max``/``quantile`` properties keep the NaN
        convention — there, NaN is the honest answer.)
        """
        if not self._samples:
            return {
                "count": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
                "max": 0.0,
            }
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


class MetricsRegistry:
    """Lazily-created named instruments, one flat namespace."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is not None:
            return found
        return self._create(name, self._counters, Counter)

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is not None:
            return found
        return self._create(name, self._gauges, Gauge)

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is not None:
            return found
        return self._create(name, self._histograms, Histogram)

    def _create(self, name: str, own: dict, kind):
        """A new instrument in ``own`` — unless another family has the name."""
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(f"metric {name!r} already exists with another type")
        instrument = own[name] = kind(name)
        return instrument

    # -- enumeration ----------------------------------------------------------

    @property
    def counters(self) -> dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every instrument."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """A fixed-width text dump of the whole registry."""
        lines: list[str] = []
        if self._counters:
            lines.append("counters:")
            for name, counter in sorted(self._counters.items()):
                lines.append(f"  {name:<40} {counter.value:>12}")
        if self._gauges:
            lines.append("gauges:")
            for name, gauge in sorted(self._gauges.items()):
                lines.append(f"  {name:<40} {gauge.value:>12.3f}")
        if self._histograms:
            lines.append("histograms:")
            header = (
                f"  {'name':<40} {'count':>7} {'mean':>9} {'p50':>9} "
                f"{'p95':>9} {'p99':>9} {'max':>9}"
            )
            lines.append(header)
            for name, hist in sorted(self._histograms.items()):
                summary = hist.summary()
                lines.append(
                    f"  {name:<40} {int(summary['count']):>7} "
                    f"{summary['mean']:>9.3f} {summary['p50']:>9.3f} "
                    f"{summary['p95']:>9.3f} {summary['p99']:>9.3f} "
                    f"{summary['max']:>9.3f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"

