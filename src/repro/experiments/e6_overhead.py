"""E6 -- refresh overhead and load distribution.

For the default configuration, the number of refresh-plane
transmissions per scheme, absolute and per useful delivery, next to the
freshness each scheme buys with it.  The headline trade-off of the
paper: HDR achieves near-flooding freshness at a small fraction of
flooding's transmissions.

A second dimension is *where* the transmissions happen: the hierarchy
spreads refresh load over the tree's interior nodes, while star-rooted
schemes concentrate it at the data source (``src_share``: the source's
fraction of all refresh transmissions, from one representative run with
transfer recording; ``gini``: inequality over all senders).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.aggregate import summarize
from repro.analysis.metrics import transmission_load
from repro.analysis.tables import format_table
from repro.baselines import COMPARISON_ORDER
from repro.experiments.config import Settings
from repro.experiments.runner import (
    ExperimentResult,
    RunSpec,
    run_replicated,
    simulate,
)

TITLE = "Refresh overhead, load distribution, and achieved freshness"


def _load_profile(settings: Settings, scheme: str) -> tuple[float, float]:
    """(source share of transmissions, gini) from one recorded run."""
    spec = RunSpec(settings, settings.seeds[0], scheme).resolved()
    runtime = simulate(spec, record_transfers=True)
    load = transmission_load(runtime)
    if load.total == 0:
        return float("nan"), float("nan")
    by_source = sum(
        1
        for t in runtime.network.transfers
        if t.kind.startswith("refresh") and t.sender in runtime.sources
    )
    return by_source / load.total, load.gini


def run(settings: Optional[Settings] = None,
        jobs: Optional[int] = None) -> ExperimentResult:
    """Run the experiment and return its formatted table + raw data."""
    settings = settings or Settings()
    results = run_replicated(COMPARISON_ORDER, settings, jobs=jobs)
    flooding_msgs = summarize([m.messages for m in results["flooding"]]).mean
    rows = []
    data = {}
    for name in COMPARISON_ORDER:
        runs = results[name]
        freshness = summarize([m.freshness for m in runs])
        messages = summarize([m.messages for m in runs])
        per_update = summarize([m.messages_per_update for m in runs])
        src_share, gini = _load_profile(settings, name)
        row = {
            "scheme": name,
            "freshness": round(freshness.mean, 3),
            "messages": round(messages.mean, 1),
            "msgs_per_update": round(per_update.mean, 2),
            "vs_flooding": round(messages.mean / flooding_msgs, 3)
            if flooding_msgs
            else float("nan"),
            "src_share": round(src_share, 3),
            "gini": round(gini, 3),
        }
        rows.append(row)
        data[name] = {
            "freshness": freshness,
            "messages": messages,
            "messages_per_update": per_update,
            "src_share": src_share,
            "gini": gini,
        }
    text = format_table(rows, title=TITLE, precision=3)
    return ExperimentResult(
        exp_id="E6",
        title=TITLE,
        text=text,
        data=data,
        notes="hdr should sit near flooding in freshness at a small "
        "fraction of its transmissions.",
    )
