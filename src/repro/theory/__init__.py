"""Analytical freshness-guarantee model (the paper's math, end to end).

``repro.theory`` composes the per-edge closed forms of
:mod:`repro.core.replication` over a wired refresh hierarchy into
whole-scheme predictions, and diffs them against simulation:

- :class:`FreshnessModel` -- rates + trees + relay plans + catalog in,
  :class:`ModelPrediction` out (per-node and per-level delivery CDFs,
  renewal-average freshness/validity, on-time ratio, PASTA query
  predictions);
- :func:`compare` / :class:`ModelReport` -- predicted-vs-measured rows
  with an agreement verdict;
- :func:`agreement_band` -- the KS-anchored tolerance that says *how
  close the simulation must track the model* on a given trace.

See ``docs/MODEL.md`` for the derivations, `repro predict` for the CLI
entry point, and E16 for the validation sweep.
"""

from repro.theory.model import (
    DEFAULT_GRID_POINTS,
    DelayDistribution,
    FreshnessModel,
    ModelPrediction,
    NodePrediction,
    UnsupportedRuntime,
    edge_delivery_cdf,
    relay_path_probability,
)
from repro.theory.validate import (
    BAND_FLOOR,
    BAND_SCALE,
    DEFAULT_METRICS,
    ModelReport,
    ModelRow,
    agreement_band,
    compare,
    measured_values,
)

__all__ = [
    "BAND_FLOOR",
    "BAND_SCALE",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_METRICS",
    "DelayDistribution",
    "FreshnessModel",
    "ModelPrediction",
    "ModelReport",
    "ModelRow",
    "NodePrediction",
    "UnsupportedRuntime",
    "agreement_band",
    "compare",
    "edge_delivery_cdf",
    "measured_values",
    "relay_path_probability",
]
