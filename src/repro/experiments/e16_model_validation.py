"""E16 -- model-vs-simulation validation of the analytical freshness model.

Sweeps the refresh interval and the replication factor (``max_relays``)
under the paper's scheme, and at every sweep point diffs the
:mod:`repro.theory` closed-form predictions (freshness, validity,
on-time ratio) against the simulated measurements.

The agreement target is anchored in E2: the model is exact under the
pairwise-Poisson assumption, so its error budget on a given trace is
that trace's Kolmogorov-Smirnov deviation from exponential
inter-contacts.  Each seed's trace gets the band
:func:`~repro.theory.validate.agreement_band` ``= floor + scale * KS``
(E2 method: pair-normalised gaps, ``min_gaps_per_pair=3``), and a sweep
point *agrees* when every metric's mean absolute error is inside the
mean band.

Expected shape: the simulation tracks the model within the band at
every point.  The direct-only column exercises the closed forms with
no recruitment dynamics and tracks near-exactly; replicated columns
lean on the pooled-recruitment relay model and carry their largest
residual in validity at short refresh intervals, where the
supersession-censored lag terms are a lower bound on relay remnants
delivering old-but-valid versions (see docs/MODEL.md).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.tables import format_table
from repro.contacts.intercontact import (
    aggregate_intercontact_samples,
    fit_exponential,
    ks_distance,
)
from repro.core.scheme import scheme_variant
from repro.experiments.config import HOUR, Settings
from repro.experiments.runner import (
    ExperimentResult,
    RunSpec,
    make_trace,
    prepare,
    score,
)
from repro.theory import BAND_FLOOR, BAND_SCALE, FreshnessModel, agreement_band

TITLE = "Model-vs-simulation validation (analytical freshness model)"

#: metrics diffed at every sweep point, in report order
METRICS = ("freshness", "validity", "on_time_ratio")


def _grid(settings: Settings) -> tuple[list[float], list[int]]:
    """(refresh intervals, replication factors) swept at this scale."""
    if settings.profile == "small":
        return [settings.refresh_interval, 2 * settings.refresh_interval], [0, 5]
    return [12 * HOUR, 24 * HOUR, 48 * HOUR], [0, 2, 5]


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data.

    ``jobs`` is accepted for harness uniformity but unused: every run
    here needs its wired runtime (trees, plans, rates) for prediction,
    which the sweep workers do not return.
    """
    settings = settings or Settings()
    intervals, relay_factors = _grid(settings)

    # Per-seed trace deviation from exponentiality -> agreement band.
    bands = []
    for seed in settings.seeds:
        samples = aggregate_intercontact_samples(
            make_trace(settings, seed), normalise=True, min_gaps_per_pair=3
        )
        ks = ks_distance(samples, fit_exponential(samples))
        bands.append(agreement_band(ks))
    band = sum(bands) / len(bands)

    rows = []
    agreeing = 0
    for interval in intervals:
        point_settings = settings.with_(refresh_interval=interval)
        for relays in relay_factors:
            config = scheme_variant("hdr", max_relays=relays)
            predicted = {name: [] for name in METRICS}
            measured = {name: [] for name in METRICS}
            for seed in settings.seeds:
                spec = RunSpec(point_settings, seed, config).resolved(len(rows))
                with prepare(spec) as runtime:
                    prediction = FreshnessModel.from_runtime(runtime).predict()
                    runtime.run(until=point_settings.duration)
                observed = score(runtime, spec)
                for name in METRICS:
                    predicted[name].append(prediction.summary()[name])
                    measured[name].append(getattr(observed, name))
            row: dict = {
                "interval_h": interval / HOUR,
                "relays": relays,
            }
            max_err = 0.0
            for name in METRICS:
                pred = summarize(predicted[name]).mean
                meas = summarize(measured[name]).mean
                err = abs(pred - meas)
                max_err = max(max_err, err)
                short = {"freshness": "fresh", "validity": "valid",
                         "on_time_ratio": "on_time"}[name]
                row[f"{short}(model)"] = pred
                row[f"{short}(sim)"] = meas
                row[f"{short}|err|"] = err
            row["within"] = "yes" if max_err <= band else "NO"
            agreeing += max_err <= band
            rows.append(row)

    total = len(rows)
    text = format_table(
        rows,
        title=f"{TITLE}\nagreement band {band:.3f} "
        f"(= {BAND_FLOOR:g} + {BAND_SCALE:g} x KS deviation from "
        "exponential, E2 method)",
        precision=3,
    )
    notes = (
        f"{agreeing}/{total} sweep points agree: every metric within "
        f"{band:.3f} of the closed-form prediction.  Freshness and "
        "on-time track tightest (the pooled-recruitment relay model, "
        "docs/MODEL.md); validity carries the largest residual at short "
        "intervals, where the supersession-censored lag terms bound the "
        "relay remnants' late deliveries from below."
    )
    return ExperimentResult(
        exp_id="E16",
        title=TITLE,
        text=text,
        data={"rows": rows, "band": band, "bands_per_seed": bands,
              "agreeing": agreeing, "points": total},
        notes=notes,
    )
