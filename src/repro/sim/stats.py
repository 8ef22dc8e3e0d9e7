"""Counters and time-series recorders shared across the stack.

A :class:`StatsRegistry` is a flat namespace of named :class:`Counter`,
:class:`TimeSeries` and :class:`Tally` instruments.  Protocols record
into it during a run; :mod:`repro.analysis` reads it afterwards.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterator, Optional


class Counter:
    """A monotonically adjustable scalar (usually a count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A current-value instrument: goes up and down, reads instantly.

    Unlike :class:`Counter` (an accumulating total), a gauge tracks a
    level -- e.g. the number of currently-fresh cache slots maintained by
    the incremental freshness accountant.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self.value})"


class Tally:
    """Streaming mean/variance/min/max over observed samples (Welford).

    Every sample is also retained (8 bytes each) so exact quantiles are
    available after the run via :meth:`percentile`; the sorted copy is
    cached and invalidated on the next :meth:`observe`.
    """

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max",
                 "_samples", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._sorted: Optional[list[float]] = None

    def observe(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._samples.append(value)
        self._sorted = None

    def percentile(self, q: float) -> float:
        """q-th percentile (0 <= q <= 100), linearly interpolated between
        order statistics (numpy's default convention); NaN when no
        samples have been observed."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return math.nan
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._samples)
        rank = (len(ordered) - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); NaN with fewer than 2 samples."""
        return self._m2 / (self.count - 1) if self.count > 1 else math.nan

    @property
    def stdev(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan


class TimeSeries:
    """(time, value) samples recorded over a run.

    ``times`` and ``values`` are ``array('d')``: 8 bytes a sample and no
    float object each, so a finished run's probe series stay small
    while they wait for the cyclic collector.
    """

    __slots__ = ("name", "times", "values")

    def __init__(self, name: str) -> None:
        self.name = name
        self.times = array("d")
        self.values = array("d")

    def record(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def mean(self) -> float:
        """Unweighted mean of the recorded values."""
        return sum(self.values) / len(self.values) if self.values else math.nan

    def time_average(self, horizon: Optional[float] = None) -> float:
        """Piecewise-constant time average of the series.

        Each value is held until the next sample; the final value is held
        until ``horizon`` (defaults to the last sample time, i.e. the
        final value gets zero weight).
        """
        if not self.times:
            return math.nan
        end = self.times[-1] if horizon is None else horizon
        if end <= self.times[0]:
            return self.values[0]
        total = 0.0
        for i, (t, v) in enumerate(zip(self.times, self.values)):
            t_next = self.times[i + 1] if i + 1 < len(self.times) else end
            t_next = min(t_next, end)
            if t_next > t:
                total += v * (t_next - t)
        return total / (end - self.times[0])


class StatsRegistry:
    """Flat namespace of instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._series: dict[str, TimeSeries] = {}
        self._tallies: dict[str, Tally] = {}
        self._gauges: dict[str, Gauge] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def series(self, name: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(name)
        return series

    def tally(self, name: str) -> Tally:
        tally = self._tallies.get(name)
        if tally is None:
            tally = self._tallies[name] = Tally(name)
        return tally

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Read a counter without creating it."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        """Read a gauge without creating it."""
        gauge = self._gauges.get(name)
        return gauge.value if gauge is not None else default

    def gauges(self) -> dict[str, float]:
        """Snapshot of all gauge values."""
        return {name: g.value for name, g in sorted(self._gauges.items())}

    def counters(self) -> dict[str, float]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def all_series(self) -> dict[str, TimeSeries]:
        return dict(self._series)

    def all_tallies(self) -> dict[str, Tally]:
        return dict(self._tallies)
