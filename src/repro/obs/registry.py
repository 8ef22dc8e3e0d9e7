"""Metrics registry: named instruments, snapshotable at any sim time.

:class:`MetricsRegistry` extends the flat
:class:`~repro.sim.stats.StatsRegistry` namespace (counters, gauges,
tallies, time series) with

- **histograms** -- :class:`~repro.sim.stats.Tally` instruments whose
  snapshot includes the exact p50/p95/p99 percentiles the tally now
  computes from its retained samples, and
- **snapshots** -- :meth:`MetricsRegistry.snapshot` renders every
  instrument into one plain JSON-serialisable dict, stamped with the
  simulation time it was taken at.

``build_simulation`` hands every scheme a ``MetricsRegistry`` (it *is*
a ``StatsRegistry``, so all existing recording code is unaffected);
experiments and protocol handlers register additional instruments by
simply naming them: ``stats.histogram("refresh.hop_delay")``.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.stats import StatsRegistry, Tally

#: percentiles included in every histogram snapshot
SNAPSHOT_PERCENTILES = (50.0, 95.0, 99.0)


class MetricsRegistry(StatsRegistry):
    """A :class:`StatsRegistry` with histograms and full snapshots."""

    def __init__(self) -> None:
        super().__init__()
        self._histograms: dict[str, Tally] = {}

    def histogram(self, name: str) -> Tally:
        """A percentile-capable distribution instrument.

        Backed by :class:`~repro.sim.stats.Tally` (same ``observe``
        API); listed under ``histograms`` in :meth:`snapshot` with its
        percentile summary.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Tally(name)
        return histogram

    @staticmethod
    def _summarise(tally: Tally) -> dict[str, float]:
        summary = {
            "count": tally.count,
            "mean": tally.mean,
            "stdev": tally.stdev,
            "min": tally.min,
            "max": tally.max,
        }
        for q in SNAPSHOT_PERCENTILES:
            summary[f"p{q:g}"] = tally.percentile(q)
        return summary

    def snapshot(self, now: Optional[float] = None) -> dict:
        """Every instrument's current value as one plain dict.

        ``now`` stamps the snapshot with the simulation time it was
        taken at (callers pass ``sim.now``); the registry itself keeps
        no clock, so snapshots can be taken mid-run at any point.
        Tallies and histograms share the same summary shape; histograms
        are the instruments registered via :meth:`histogram`.
        """
        return {
            "time": now,
            "counters": self.counters(),
            "gauges": self.gauges(),
            "tallies": {
                name: self._summarise(t)
                for name, t in sorted(self._tallies.items())
            },
            "histograms": {
                name: self._summarise(t)
                for name, t in sorted(self._histograms.items())
            },
            "series": {
                name: len(series)
                for name, series in sorted(self._series.items())
            },
        }
