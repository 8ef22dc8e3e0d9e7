"""Caching-node (NCL) selection.

Cooperative caching in this research line places data at *network
central locations*: the nodes whose contact processes reach the rest of
the network fastest.  Selection ranks nodes by a centrality metric over
the estimated pairwise rates and takes the top ``k``, always including
each item's source implicitly (sources hold their own data regardless).

Metrics:

- ``"contact"`` (default) -- expected distinct nodes met within a window
  (the metric of the paper's caching substrate);
- ``"degree"`` -- total contact rate;
- ``"betweenness"`` -- delay-weighted betweenness;
- ``"random"`` -- uniform random selection (ablation baseline).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.contacts.centrality import (
    betweenness_centrality,
    contact_centrality,
    contact_centrality_array,
    degree_centrality,
    degree_centrality_array,
    rank_nodes,
)
from repro.contacts.graph import contact_graph
from repro.contacts.rates import RateTable

DEFAULT_WINDOW = 6 * 3600.0


def select_caching_nodes(
    rates: RateTable,
    k: int,
    metric: str = "contact",
    window: float = DEFAULT_WINDOW,
    exclude: Optional[set[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> list[int]:
    """Select ``k`` caching nodes by the given centrality metric.

    ``exclude`` removes candidates (e.g. nodes reserved as pure
    sources).  The ``"random"`` metric requires ``rng``.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if rates.is_array_backed and metric in ("contact", "degree"):
        return _select_array(rates, k, metric, window, exclude)
    candidates = sorted(rates.nodes() - (exclude or set()))
    if len(candidates) < k:
        raise ValueError(f"only {len(candidates)} candidates for k={k}")

    if metric == "random":
        if rng is None:
            raise ValueError("random selection needs an rng")
        picked = rng.choice(len(candidates), size=k, replace=False)
        return sorted(candidates[i] for i in picked)

    if metric == "contact":
        scores = contact_centrality(rates, window, node_ids=candidates)
    elif metric == "degree":
        scores = degree_centrality(rates, node_ids=candidates)
    elif metric == "betweenness":
        graph = contact_graph(rates).subgraph(candidates)
        scores = betweenness_centrality(graph)
        scores = {nid: scores.get(nid, 0.0) for nid in candidates}
    else:
        raise ValueError(f"unknown metric {metric!r}")
    return rank_nodes(scores, top=k)


def _select_array(
    rates: RateTable,
    k: int,
    metric: str,
    window: float,
    exclude: Optional[set[int]],
) -> list[int]:
    """Array fast path: score candidates and rank without dicts.

    Produces the same selection as the dict path -- candidates ascend,
    scores accumulate in the same order, and the ranking key is
    ``(-score, id)`` like :func:`rank_nodes`.
    """
    candidates = rates.node_array()
    if exclude:
        candidates = candidates[~np.isin(candidates, sorted(exclude))]
    if len(candidates) < k:
        raise ValueError(f"only {len(candidates)} candidates for k={k}")
    if metric == "contact":
        scores = contact_centrality_array(rates, window, candidates)
    else:
        scores = degree_centrality_array(rates, candidates)
    order = np.lexsort((candidates, -scores))
    return candidates[order[:k]].tolist()
