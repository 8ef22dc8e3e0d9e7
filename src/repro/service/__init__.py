"""Live service mode: streaming ingestion + online queries.

The batch simulator answers "what freshness *did* a scheme achieve over
this trace"; :mod:`repro.service` answers it *while the trace is still
happening*.  A pipeline of asyncio handlers (contact source -> planner
-> cache stage -> result builder) ingests contact events from a replay,
a JSONL file tail, or a TCP stream, drives the exact scheme/refresh
machinery of :func:`~repro.core.scheme.build_simulation` incrementally,
and serves item queries plus freshness/metrics snapshots over HTTP.

Correctness anchor: replaying a recorded trace at infinite
time-dilation yields freshness/validity metrics identical to the batch
run on the same (trace, scheme, seed) -- see
:mod:`repro.service.runtime` and ``docs/SERVICE.md``.  The durability
layer (:mod:`repro.service.durability`, ``docs/DURABILITY.md``) extends
the same guarantee across a crash: journal + checkpoint + restore keeps
a killed-and-resumed run ``same_as``-identical to an uninterrupted one,
and :mod:`repro.service.supervisor` automates the restart.
"""

from repro.service.durability import (
    BuildSpec,
    CheckpointError,
    Checkpointer,
    DurableSource,
    Journal,
    RestoredService,
    restore_service,
    restore_service_async,
    resume_replay_scores,
    runtime_digest,
    scan_journal,
)
from repro.service.events import ContactEvent, MalformedEvent, QueryResult
from repro.service.http import HttpApi
from repro.service.pipeline import Handler, Pipeline
from repro.service.runtime import (
    LiveService,
    replay,
    replay_scores,
    scores_match,
    serve_and_score,
    service_from_settings,
)
from repro.service.sources import FileTailSource, ReplaySource, SocketSource
from repro.service.supervisor import CrashLoop, RestartPolicy, Supervisor


__all__ = [
    "BuildSpec",
    "CheckpointError",
    "Checkpointer",
    "ContactEvent",
    "CrashLoop",
    "DurableSource",
    "FileTailSource",
    "Handler",
    "HttpApi",
    "Journal",
    "LiveService",
    "MalformedEvent",
    "Pipeline",
    "QueryResult",
    "ReplaySource",
    "RestartPolicy",
    "RestoredService",
    "SocketSource",
    "Supervisor",
    "replay",
    "replay_scores",
    "restore_service",
    "restore_service_async",
    "resume_replay_scores",
    "runtime_digest",
    "scan_journal",
    "scores_match",
    "serve_and_score",
    "service_from_settings",
]
