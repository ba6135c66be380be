"""Metric instruments: counters, gauges, and simulated-time histograms.

A :class:`MetricsRegistry` is a namespace of named instruments that
instrumented code creates lazily (``registry.counter("rpc.sent")``),
so layers never coordinate about what exists — readers enumerate
whatever showed up.  :class:`Histogram` keeps its raw samples (runs are
small enough that exact percentiles beat bucketed approximations) and
reports p50/p95/p99, which is what latency distributions with timeout
tails need — a bare mean hides exactly the behaviour the availability
experiments are about.  :func:`render_table` is the one fixed-width
table the CLI's text reports print.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence


def percentile(samples: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0 ≤ p ≤ 100) by linear interpolation;
    NaN on an empty sample set."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
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
    def mean(self) -> float:
        samples = self._samples
        return sum(samples) / len(samples) if samples else float("nan")

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else float("nan")

    def quantile(self, p: float) -> float:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return percentile(self._samples, p)

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


def render_table(
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    *,
    title: Iterable[str] = (),
    footer: Iterable[str] = (),
) -> str:
    """The fixed-width text table every CLI report prints: ``title``
    lines, ``header``, a rule, one line per row, then ``footer`` lines.

    A float cell prints with two decimals, ``None`` as ``-``, any other
    cell with ``str``.  A column of numbers (and ``None``) is
    right-aligned, any other left-aligned; each is as wide as its widest
    cell.
    """
    rows = [tuple(row) for row in rows]
    cells = [
        ["-" if v is None else f"{v:.2f}" if isinstance(v, float) else str(v)
         for v in row]
        for row in rows
    ]  # fmt: skip
    right = [
        all(isinstance(row[i], (int, float, type(None))) for row in rows)
        for i in range(len(header))
    ]
    widths = [max(map(len, column)) for column in zip(header, *cells)]

    def line(texts) -> str:
        return "  ".join(
            text.rjust(width) if flush else text.ljust(width)
            for text, width, flush in zip(texts, widths, right)
        ).rstrip()

    head = line(header)
    return "\n".join([*title, head, "-" * len(head), *map(line, cells), *footer])
