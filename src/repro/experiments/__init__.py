"""Experiment harness: one module per reproduced table/figure.

Every experiment module exposes ``run(settings, jobs=None) ->
ExperimentResult``; :data:`EXPERIMENTS` maps the stable experiment ids
(E1..E8, see DESIGN.md) to those callables.  ``settings`` is an
:class:`~repro.experiments.config.Settings` instance; ``Settings.fast()``
gives the scaled-down variant the CI benchmarks run.  ``jobs`` selects
the process-pool worker count (``None`` consults ``$REPRO_JOBS``, then
runs serially); parallel output is identical to serial.
"""

from repro.experiments.artifacts import SeedArtifacts, seed_artifacts
from repro.experiments.config import Settings
from repro.experiments.parallel import (
    SweepPoint,
    resolve_jobs,
    run_sweep,
    run_tasks,
)
from repro.experiments.runner import (
    ExperimentResult,
    RunMetrics,
    RunSpec,
    make_trace,
    prepare,
    run_once,
    run_replicated,
    score,
)
from repro.experiments import (
    e1_traces,
    e2_intercontact,
    e3_freshness_time,
    e4_refresh_interval,
    e5_validity,
    e6_overhead,
    e7_caching_nodes,
    e8_ablation,
    e9_churn,
    e10_estimation,
    e11_cache_pressure,
    e12_delay_cdf,
    e13_invalidation,
    e14_ncl_metric,
    e15_fault_tolerance,
    e16_model_validation,
)

#: E1-E8 and E12 reproduce the paper's (reconstructed) tables and
#: figures; E9-E11 and E13-E16 are extensions exercising maintenance,
#: estimation, cache pressure, consistency-model, NCL-selection,
#: fault-tolerance and model-validation aspects (see DESIGN.md's
#: experiment index).
EXPERIMENTS = {
    "E1": e1_traces.run,
    "E2": e2_intercontact.run,
    "E3": e3_freshness_time.run,
    "E4": e4_refresh_interval.run,
    "E5": e5_validity.run,
    "E6": e6_overhead.run,
    "E7": e7_caching_nodes.run,
    "E8": e8_ablation.run,
    "E9": e9_churn.run,
    "E10": e10_estimation.run,
    "E11": e11_cache_pressure.run,
    "E12": e12_delay_cdf.run,
    "E13": e13_invalidation.run,
    "E14": e14_ncl_metric.run,
    "E15": e15_fault_tolerance.run,
    "E16": e16_model_validation.run,
}

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "RunMetrics",
    "RunSpec",
    "SeedArtifacts",
    "Settings",
    "SweepPoint",
    "make_trace",
    "prepare",
    "resolve_jobs",
    "run_once",
    "run_replicated",
    "run_sweep",
    "run_tasks",
    "score",
    "seed_artifacts",
]
