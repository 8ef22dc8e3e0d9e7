"""Render ``repro report`` text from a trace summary.

The report answers the two questions end-of-run aggregates cannot:
*where did the messages go* (per-kind flow table plus the busiest
links) and *how did cache freshness evolve* (hourly timeline of
upgrades vs expirations).  It consumes the plain summary dict from
:func:`repro.obs.export.summarize_trace`, so it works on any trace --
fresh from a bus, reloaded from JSONL, or merged from a manifest.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.tables import format_table
from repro.obs.export import summarize_trace
from repro.obs.records import TraceRecord

#: timeline rows beyond this are resampled into coarser buckets
_MAX_TIMELINE_ROWS = 14


def _span_text(span) -> str:
    if span is None:
        return "empty"
    t0, t1 = span
    return f"t={t0:.0f}s .. t={t1:.0f}s ({(t1 - t0) / 3600.0:.1f} h)"


def _timeline_rows(timeline: dict[int, dict[str, int]]) -> list[dict]:
    if not timeline:
        return []
    hours = sorted(timeline)
    lo, hi = hours[0], hours[-1]
    step = max(1, -(-(hi - lo + 1) // _MAX_TIMELINE_ROWS))
    rows = []
    for start in range(lo, hi + 1, step):
        bucket = {"puts": 0, "upgrades": 0, "expired": 0, "lost": 0}
        for hour in range(start, min(start + step, hi + 1)):
            entry = timeline.get(hour)
            if entry:
                for key in bucket:
                    bucket[key] += entry[key]
        rows.append({
            "hour": f"{start}-{start + step}" if step > 1 else str(start),
            "puts": bucket["puts"],
            "upgrades": bucket["upgrades"],
            "expired": bucket["expired"],
            "invalidated": bucket["lost"],
        })
    return rows


def format_trace_report(records: Sequence[TraceRecord],
                        title: str = "trace report") -> str:
    """The full ``repro report`` text for a record list."""
    summary = summarize_trace(records)
    lines = [
        f"== {title} ==",
        f"records   : {summary['records']}",
        f"nodes     : {summary['nodes']}",
        f"span      : {_span_text(summary['time_span'])}",
    ]

    if summary["kinds"]:
        rows = [{"record": kind, "count": count}
                for kind, count in summary["kinds"].items()]
        lines += ["", format_table(rows, title="record counts")]

    if summary["flows"]:
        rows = [
            {"message": kind, **{k: int(v) for k, v in flow.items()}}
            for kind, flow in summary["flows"].items()
        ]
        lines += ["", format_table(rows, title="message flow")]

    if summary["top_pairs"]:
        rows = [
            {"link": f"{a}->{b}", "transfers": count}
            for (a, b), count in summary["top_pairs"]
        ]
        lines += ["", format_table(rows, title="busiest links")]

    fault_rows = [
        {"fault": kind.split(".", 1)[1], "count": count}
        for kind, count in summary["kinds"].items()
        if kind.startswith("fault.")
    ]
    if fault_rows:
        lines += ["", format_table(fault_rows, title="injected faults")]

    model_rows = [
        {
            "metric": record.metric,
            "predicted": record.predicted,
            "measured": record.measured,
            "|error|": record.error,
        }
        for record in records
        if record.kind == "model.predict"
    ]
    if model_rows:
        lines += ["", format_table(
            model_rows, title="model predictions vs measured",
            columns=["metric", "predicted", "measured", "|error|"],
        )]

    service_rows = [
        {
            "sim_time": round(record.time, 1),
            "uptime_s": round(record.uptime_s, 2),
            "contacts": record.contacts,
            "queries": record.queries,
            "shed": record.shed,
            "p95_ms": round(record.p95_ms, 3),
            "freshness": round(record.freshness, 4),
            "validity": round(record.validity, 4),
        }
        for record in records
        if record.kind == "service.snapshot"
    ]
    if service_rows:
        lines += ["", format_table(
            service_rows, title="live service snapshots",
            columns=["sim_time", "uptime_s", "contacts", "queries",
                     "shed", "p95_ms", "freshness", "validity"],
        )]

    durability_rows = []
    for record in records:
        if record.kind == "service.checkpoint":
            durability_rows.append({
                "event": "checkpoint",
                "sim_time": round(record.time, 1),
                "records": record.records,
                "detail": (f"{record.journal_bytes:,d} B journal, "
                           f"{record.wall_ms:.1f} ms"
                           + (f", {record.quarantined} rejected"
                              if record.quarantined else "")),
            })
        elif record.kind == "service.restore":
            durability_rows.append({
                "event": "restore",
                "sim_time": round(record.time, 1),
                "records": record.records,
                "detail": (f"cursor {record.cursor}, "
                           + ("digest verified" if record.verified
                              else "unverified")
                           + f", {record.wall_ms:.0f} ms"),
            })
        elif record.kind == "service.restart":
            durability_rows.append({
                "event": "restart",
                "sim_time": round(record.time, 1),
                "records": record.attempt,
                "detail": f"exit {record.exit_code} after "
                          f"{record.uptime_s:.1f}s, backoff "
                          f"{record.backoff_s:.1f}s",
            })
        elif record.kind == "source.reconnect":
            durability_rows.append({
                "event": "reconnect",
                "sim_time": round(record.time, 1),
                "records": record.disconnects,
                "detail": f"peer {record.peer} "
                          f"({record.peers} connected)",
            })
    if durability_rows:
        lines += ["", format_table(
            durability_rows, title="durability events",
            columns=["event", "sim_time", "records", "detail"],
        )]

    queries = summary["queries"]
    if queries["issued"]:
        lines += ["", format_table(
            [queries], title="query funnel",
            columns=["issued", "hits", "misses", "completed"],
        )]

    timeline_rows = _timeline_rows(summary["timeline"])
    if timeline_rows:
        lines += ["", format_table(
            timeline_rows, title="freshness timeline (cache activity per hour)"
        )]

    return "\n".join(lines)
