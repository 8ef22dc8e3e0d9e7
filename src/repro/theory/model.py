"""Closed-form freshness model: compose the per-edge analysis end to end.

:mod:`repro.core.replication` gives the per-edge building blocks under
the pairwise-Poisson contact model -- direct delivery is Exp(lambda),
a two-hop relay is hypoexponential, and independent relay paths multiply
their miss probabilities.  This module composes those into whole-tree
predictions:

- the **edge delivery CDF** ``F_e(t)``: probability a provisioned tree
  edge (direct path plus its provisioned relay copies, modelled as
  pooled recruitment over the qualifying population -- see
  :meth:`FreshnessModel._relay_paths`) hands a new version from parent
  to child within ``t`` seconds of the parent holding it;
- the **end-to-end delivery CDF** for each caching node: the hops along
  its path to the root are independent, so the node's delay is the sum
  of per-hop delays and its CDF is the convolution of the hop CDFs
  (a generalised hypoexponential chain, computed numerically on a grid);
- the **renewal-average freshness** of each node: a new version appears
  every ``R`` seconds, so the long-run fresh fraction is the mean of the
  delivery CDF over one cycle, ``(1/R) * integral_0^R F(s) ds`` --
  the multi-hop generalisation of
  :func:`~repro.core.replication.expected_fresh_fraction`;
- the **validity** of each node: the cached copy at cycle offset ``s``
  is the newest version the node has received; it is valid while that
  version's age is below the item lifetime.  Versions are delivered
  independently, so the probability the node holds the ``j``-cycles-old
  version is ``F(s + jR) * prod_{i<j} (1 - F(s + iR))``;
- **query predictions** via PASTA: Poisson query arrivals see
  time averages, so a cache hit is fresh with probability equal to the
  time-averaged freshness and valid with the time-averaged validity.

Everything here is a pure function of the wired structures (rate table,
refresh trees, relay plans, catalog) -- prediction never touches the
simulator state, consumes no randomness, and is therefore passive
(``tests/test_theory.py::TestFromRuntime::test_prediction_is_passive``).

Example -- a two-level chain, predicted against the closed forms it is
built from::

    >>> from repro.caching.items import DataCatalog
    >>> from repro.contacts.rates import RateTable
    >>> from repro.core.hierarchy import RefreshTree
    >>> rates = RateTable({(0, 1): 2.0 / 3600.0, (1, 2): 1.0 / 3600.0})
    >>> tree = RefreshTree(root=0)
    >>> tree.attach(1, 0)
    >>> tree.attach(2, 1)
    >>> catalog = DataCatalog.uniform(
    ...     num_items=1, sources=[0], refresh_interval=3600.0, lifetime=7200.0)
    >>> model = FreshnessModel(rates, {0: tree}, {}, catalog)
    >>> prediction = model.predict()
    >>> from repro.core.replication import contact_probability, two_hop_probability
    >>> p1 = prediction.nodes[(0, 1)]
    >>> abs(p1.on_time - contact_probability(2.0 / 3600.0, 3600.0)) < 1e-6
    True
    >>> p2 = prediction.nodes[(0, 2)]
    >>> abs(p2.on_time - two_hop_probability(2/3600, 1/3600, 3600.0)) < 1e-3
    True
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

import numpy as np

from repro.caching.items import DataCatalog
from repro.contacts.rates import RateTable
from repro.core.hierarchy import RefreshTree
from repro.core.replication import (
    RelayPlan,
    contact_probability,
    two_hop_probability,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.scheme import SchemeRuntime

#: grid resolution of the numeric CDFs; at the default model horizon of
#: ``lifetime + 2 * refresh_interval`` this puts ~250 points per
#: refresh interval, far below the closed forms' curvature scale.
DEFAULT_GRID_POINTS = 1024

#: sample count for the renewal-average integrals over one cycle
_INTEGRAL_SAMPLES = 257

#: ``np.trapz`` was renamed ``trapezoid`` in NumPy 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _erlang_weight(rate: float, stages: int, t: float) -> float:
    """``int_0^t rate^i x^(i-1)/(i-1)! e^(-rate x) dx`` for any ``rate != 0``.

    For positive ``rate`` this is the Erlang(``stages``, ``rate``) CDF;
    the polynomial-exponential identity it evaluates holds for negative
    ``rate`` too, which :func:`relay_path_probability` exploits.
    """
    total = sum((rate * t) ** n / math.factorial(n) for n in range(stages))
    return 1.0 - math.exp(-rate * t) * total


def relay_path_probability(
    pool_rate: float, stages: int, delivery_rate: float, t: float
) -> float:
    """P(the ``stages``-th pooled recruit delivers within ``t``).

    The path's delay is ``Erlang(stages, pool_rate)`` (time until the
    ``stages``-th qualifying encounter when qualifying encounters arrive
    at the pooled rate) plus ``Exp(delivery_rate)`` (the recruit's
    carry-to-target time).  With one stage this *is* the two-hop
    hypoexponential; with more it is the exact convolution, obtained by
    integrating the Erlang density against the exponential tail::

        P = G(pool, i, t) - (pool / (pool - mu))**i * e**(-mu t) * G(pool - mu, i, t)

    where ``G`` is :func:`_erlang_weight` (valid for either sign of
    ``pool - mu``; the equal-rate case collapses to an
    ``Erlang(i + 1)``).  Using the exact Erlang wait matters: replacing
    it by an exponential of the same mean front-loads probability mass
    and overestimates early delivery for every path beyond the first.

    >>> relay_path_probability(2.0, 1, 1.0, 1.5) == two_hop_probability(2.0, 1.0, 1.5)
    True
    >>> round(relay_path_probability(3.0, 2, 0.7, 2.0), 4)  # vs Monte Carlo 0.5867
    0.5867
    >>> relay_path_probability(1.0, 2, 1.0, 2.0) == _erlang_weight(1.0, 3, 2.0)
    True
    """
    if pool_rate <= 0.0 or delivery_rate <= 0.0 or t <= 0.0:
        return 0.0
    if abs(pool_rate - delivery_rate) < 1e-9 * max(pool_rate, delivery_rate):
        return _erlang_weight(pool_rate, stages + 1, t)
    ratio = (pool_rate / (pool_rate - delivery_rate)) ** stages
    return (
        _erlang_weight(pool_rate, stages, t)
        - ratio
        * math.exp(-delivery_rate * t)
        * _erlang_weight(pool_rate - delivery_rate, stages, t)
    )


def edge_delivery_cdf(
    direct_rate: float,
    relay_rates: Sequence[tuple],
    t: float,
) -> float:
    """P(a provisioned edge delivers within ``t``).

    The direct path completes within ``t`` with probability
    ``1 - exp(-direct_rate * t)``; each relay path is an independent
    two-stage chain -- either ``(rate_up, rate_down)`` (a specific
    relay: hypoexponential) or ``(pool_rate, stages, rate_down)``
    (the ``stages``-th recruit from a pooled qualifying population,
    :func:`relay_path_probability`).  Paths fail independently, so the
    edge misses only if every path misses::

        F_e(t) = 1 - (1 - P_direct(t)) * prod_r (1 - P_relay_r(t))

    This generalises :func:`~repro.core.replication.plan_edge`'s
    ``achieved`` to an arbitrary ``t`` instead of only the hop window.

    >>> round(edge_delivery_cdf(1.0, [], 1.0), 6)  # direct only: 1 - e^-1
    0.632121
    >>> edge_delivery_cdf(0.0, [(1.0, 1.0)], 2.0) == two_hop_probability(1.0, 1.0, 2.0)
    True
    >>> edge_delivery_cdf(0.0, [(2.0, 1, 1.0)], 1.5) == two_hop_probability(2.0, 1.0, 1.5)
    True
    """
    miss = 1.0 - contact_probability(direct_rate, t)
    for path in relay_rates:
        if len(path) == 2:
            rate_up, rate_down = path
            p_path = two_hop_probability(rate_up, rate_down, t)
        else:
            pool_rate, stages, rate_down = path
            p_path = relay_path_probability(pool_rate, stages, rate_down, t)
        miss *= 1.0 - p_path
    return 1.0 - miss


@dataclass(frozen=True)
class DelayDistribution:
    """A delivery-delay CDF sampled on a uniform grid ``[0, horizon]``.

    The distribution may be *defective* (``cdf[-1] < 1``): a path
    through a zero-rate edge never completes, and the missing mass is
    the probability of never delivering.  Evaluation beyond the horizon
    clamps to the last grid value (a slight underestimate of the true
    CDF there; the model sizes its horizon so nothing it integrates
    reaches that regime).

    >>> d = DelayDistribution.from_function(
    ...     lambda t: contact_probability(1.0, t), horizon=20.0)
    >>> round(d.at(1.0), 4)      # 1 - e^-1
    0.6321
    >>> two = d.convolve(d)      # sum of two Exp(1) delays
    >>> round(two.at(2.0), 3) == round(two_hop_probability(1.0, 1.0, 2.0), 3)
    True
    """

    grid: np.ndarray
    cdf: np.ndarray

    def __post_init__(self) -> None:
        if self.grid.shape != self.cdf.shape or self.grid.ndim != 1:
            raise ValueError("grid and cdf must be equal-length 1-D arrays")
        if len(self.grid) < 2:
            raise ValueError("need at least two grid points")

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float], float],
        horizon: float,
        points: int = DEFAULT_GRID_POINTS,
    ) -> "DelayDistribution":
        """Sample a closed-form CDF ``fn`` on ``[0, horizon]``."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        grid = np.linspace(0.0, horizon, points)
        cdf = np.clip(np.array([fn(t) for t in grid], dtype=float), 0.0, 1.0)
        return cls(grid=grid, cdf=cdf)

    @property
    def horizon(self) -> float:
        return float(self.grid[-1])

    def at(self, t) -> "float | np.ndarray":
        """CDF value(s) at ``t`` (scalar or array), clamped outside the grid."""
        out = np.interp(t, self.grid, self.cdf)
        return float(out) if np.ndim(out) == 0 else out

    def convolve(self, other: "DelayDistribution") -> "DelayDistribution":
        """CDF of the sum of two independent delays (same grid required).

        Bucket masses are convolved and the result truncated at the
        horizon -- exact there, because any pair of components summing
        past the horizon lands past it.  Each bucket's mass sits a half
        step below its grid point on average, so the raw convolution
        index overshoots time by one step; averaging the cumulative sum
        at ``k`` and ``k+1`` re-centres it (empirically O(step^2):
        ~2e-5 absolute CDF error at the default resolution, vs ~4e-3
        uncorrected).
        """
        if not np.array_equal(self.grid, other.grid):
            raise ValueError("convolve requires identical grids")
        n = len(self.grid)
        pmf_a = np.diff(self.cdf, prepend=0.0)
        pmf_b = np.diff(other.cdf, prepend=0.0)
        full = np.cumsum(np.convolve(pmf_a, pmf_b))
        cdf = np.clip(0.5 * (full[:n] + full[1 : n + 1]), 0.0, 1.0)
        return DelayDistribution(grid=self.grid, cdf=cdf)

    def fresh_fraction(self, refresh_interval: float) -> float:
        """Renewal-average fresh fraction: ``(1/R) * int_0^R F(s) ds``.

        At cycle offset ``s`` the node is fresh iff the current version
        (published ``s`` ago) has already arrived, which happens with
        probability ``F(s)``; averaging over the cycle gives the
        long-run fraction of time spent fresh.
        """
        if refresh_interval <= 0:
            raise ValueError("refresh_interval must be positive")
        s = np.linspace(0.0, refresh_interval, _INTEGRAL_SAMPLES)
        return float(_trapezoid(np.asarray(self.at(s)), s) / refresh_interval)

    def valid_fraction(self, refresh_interval: float, lifetime: float) -> float:
        """Renewal-average probability the cached copy is unexpired.

        At cycle offset ``s`` the node holds the newest version it has
        received, and that copy is valid while its age is below the
        lifetime.  The protocol *supersedes* refresh tasks: once version
        ``v+1`` reaches a refresher, it stops pushing ``v`` -- so a
        version's delivery effort is censored at (roughly) one refresh
        interval after its publication.  Hence the node lags ``j >= 1``
        cycles with probability::

            (1 - F(s)) * (1 - F(R))**(j-1) * F(R)

        (the current version has not arrived in ``s`` seconds; the
        ``j-1`` versions before it were never delivered inside their
        effort window; the ``j``-lagged one was), and is fresh (lag 0)
        with probability ``F(s)``.  A ``j``-lagged copy is valid while
        ``s + jR < lifetime``; the never-delivered residual counts as
        invalid.
        """
        if refresh_interval <= 0 or lifetime <= 0:
            raise ValueError("refresh_interval and lifetime must be positive")
        R = refresh_interval
        s = np.linspace(0.0, R, _INTEGRAL_SAMPLES)
        current = np.asarray(self.at(s))
        on_time = float(self.at(R))
        total = current.copy()  # lag 0: fresh and (age s < R <= lifetime) valid
        lagged = 1.0 - current  # P(current version still missing at s)
        j = 1
        while j * R < lifetime:
            age_ok = (s + j * R) < lifetime
            total += np.where(age_ok, lagged * on_time, 0.0)
            lagged = lagged * (1.0 - on_time)
            j += 1
        return float(_trapezoid(total, s) / R)


@dataclass(frozen=True)
class NodePrediction:
    """Model outputs for one (item, caching node) pair."""

    item_id: int
    node: int
    depth: int
    on_time: float  #: P(new version arrives within one refresh interval)
    fresh: float  #: long-run fraction of time the copy is fresh
    valid: float  #: long-run fraction of time the copy is unexpired
    distribution: DelayDistribution = field(repr=False)


@dataclass(frozen=True)
class ModelPrediction:
    """Closed-form predictions for one wired scheme instance.

    ``nodes`` maps ``(item_id, node)`` to per-node predictions;
    ``level_grid``/``levels`` hold the depth-averaged delivery CDFs on a
    grid of *fractions of the refresh interval* (so items with different
    intervals average coherently); the scalar aggregates mirror the
    same-named :class:`~repro.experiments.runner.RunMetrics` fields.
    """

    nodes: dict[tuple[int, int], NodePrediction]
    level_grid: np.ndarray
    levels: dict[int, np.ndarray]
    freshness: float
    validity: float
    on_time_ratio: float
    query_rate: float
    num_requesters: int

    @property
    def query_fresh_ratio(self) -> float:
        """PASTA: Poisson arrivals sample the time-averaged freshness."""
        return self.freshness

    @property
    def query_valid_ratio(self) -> float:
        """PASTA: Poisson arrivals sample the time-averaged validity."""
        return self.validity

    def expected_queries(self, duration: float) -> float:
        """Expected workload size over ``duration`` seconds."""
        return self.query_rate * self.num_requesters * duration

    def level_rows(self, fractions: Sequence[float] = (0.25, 0.5, 1.0, 2.0)) -> list[dict]:
        """Per-depth delivery CDF sampled at fractions of the interval."""
        rows = []
        for depth in sorted(self.levels):
            row: dict = {"depth": depth, "nodes": sum(
                1 for p in self.nodes.values() if p.depth == depth
            )}
            for frac in fractions:
                value = float(np.interp(frac, self.level_grid, self.levels[depth]))
                row[f"P(d<={frac:g}R)"] = value
            rows.append(row)
        return rows

    def summary(self) -> dict[str, float]:
        """The scalar predictions, keyed like ``RunMetrics`` fields."""
        return {
            "freshness": self.freshness,
            "validity": self.validity,
            "on_time_ratio": self.on_time_ratio,
            "query_fresh_ratio": self.query_fresh_ratio,
            "query_valid_ratio": self.query_valid_ratio,
        }

    def as_dict(self) -> dict:
        """JSON-ready structure: summary, per-level and per-node tables."""
        return {
            "summary": self.summary(),
            "query_rate": self.query_rate,
            "num_requesters": self.num_requesters,
            "levels": self.level_rows(),
            "nodes": [
                {
                    "item_id": p.item_id,
                    "node": p.node,
                    "depth": p.depth,
                    "on_time": p.on_time,
                    "fresh": p.fresh,
                    "valid": p.valid,
                }
                for p in self.nodes.values()
            ],
        }


class UnsupportedRuntime(ValueError):
    """The model cannot read the static wiring of the given runtime."""


class FreshnessModel:
    """Closed-form freshness predictions for a wired scheme.

    Takes the fitted contact-rate table, the per-item refresh trees, the
    relay plans the provisioning produced, and the catalog; yields a
    :class:`ModelPrediction`.  Build one straight from a
    :class:`~repro.core.scheme.SchemeRuntime` with :meth:`from_runtime`.

    The model covers the tree-structured schemes (``hdr``, ``flat``,
    ``random``, ``source``); epidemic schemes have no per-edge closed
    form and raise.
    """

    def __init__(
        self,
        rates: RateTable,
        trees: Mapping[int, RefreshTree],
        plans: Mapping[tuple[int, int, int], RelayPlan],
        catalog: DataCatalog,
        *,
        query_rate: float = 0.0,
        num_requesters: int = 0,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> None:
        if not trees:
            raise ValueError(
                "no refresh trees to model (epidemic/none schemes have no "
                "closed-form structure)"
            )
        self.rates = rates
        self.trees = dict(trees)
        self.plans = dict(plans)
        self.catalog = catalog
        self.query_rate = query_rate
        self.num_requesters = num_requesters
        self.grid_points = grid_points
        self._neighbor_cache: Optional[dict[int, list[tuple[int, float]]]] = None

    @classmethod
    def from_runtime(
        cls,
        runtime: "SchemeRuntime",
        *,
        query_rate: float = 0.0,
        grid_points: int = DEFAULT_GRID_POINTS,
    ) -> "FreshnessModel":
        """Model the plan a wired runtime will simulate.

        Reads only ``runtime.plan`` (rates, trees, relay plans, catalog
        and requesters), which the object and SoA runtimes both carry;
        never touches the simulator, so building and evaluating the
        model before ``runtime.run()`` cannot perturb the run.
        ``query_rate`` is the per-requester Poisson rate (1/s) used for
        query predictions; requesters are the plan's
        (:attr:`~repro.core.plan.RefreshPlan.requesters`), the nodes
        :func:`~repro.workloads.queries.schedule_queries` schedules.
        Raises :class:`UnsupportedRuntime` for a runtime without a plan.
        """
        try:
            plan = runtime.plan
        except AttributeError as exc:
            raise UnsupportedRuntime(
                f"cannot model a {type(runtime).__name__}: {exc}"
            ) from None
        return cls(
            plan.rates,
            plan.trees,
            plan.plans,
            plan.catalog,
            query_rate=query_rate,
            num_requesters=len(plan.requesters),
            grid_points=grid_points,
        )

    # -- per-edge and per-node distributions --------------------------------

    @property
    def _neighbor_rates(self) -> dict[int, list[tuple[int, float]]]:
        """Adjacency view of the rate table: node -> [(peer, rate)]."""
        if self._neighbor_cache is None:
            cached: dict[int, list[tuple[int, float]]] = {}
            for (a, b), rate in self.rates.pairs():
                if rate > 0.0:
                    cached.setdefault(a, []).append((b, rate))
                    cached.setdefault(b, []).append((a, rate))
            self._neighbor_cache = cached
        return self._neighbor_cache

    def _relay_paths(
        self, item_id: int, parent: int, child: int
    ) -> list[tuple[float, int, float]]:
        """(pool_rate, stages, delivery_rate) for the edge's relay paths.

        The plan provisions ``k = num_relays`` copies, but the runtime
        does not wait for the *planned* relays: it hands a copy to the
        first ``k`` encountered nodes that qualify (a planned relay, or
        any node with a better contact rate to the target than the
        parent itself -- see ``HdrRefreshHandler._relay_qualifies``).
        Modelling ``k`` specific relays therefore badly underestimates
        the recruitment speed whenever many nodes qualify.

        Instead the model pools recruitment over the qualifying set
        ``Q``: qualifying encounters arrive at the pooled rate ``Lam =
        sum_{r in Q} lambda(parent, r)``, so the ``i``-th recruit is
        found after an ``Erlang(i, Lam)`` wait and then delivers at the
        recruitment-likelihood-weighted mean rate ``lbar = sum_{r in Q}
        lambda(parent, r) * lambda(r, child) / Lam``.  The edge gets
        ``min(k, |Q|)`` independent relay paths ``(Lam, i, lbar)``,
        evaluated exactly by :func:`relay_path_probability`.
        """
        plan = self.plans.get((item_id, parent, child))
        if plan is None or plan.num_relays == 0:
            return []
        own = self.rates.rate(parent, child)
        planned = set(plan.relays)
        meet = []
        deliver = []
        for peer, rate_to_parent in self._neighbor_rates.get(parent, ()):
            if peer == child:
                continue
            rate_to_child = self.rates.rate(peer, child)
            if peer in planned or rate_to_child > own:
                meet.append(rate_to_parent)
                deliver.append(rate_to_child)
        if not meet:
            return []
        pooled = float(sum(meet))
        weighted = float(
            sum(m * d for m, d in zip(meet, deliver)) / pooled
        )
        paths = min(plan.num_relays, len(meet))
        return [(pooled, i, weighted) for i in range(1, paths + 1)]

    def _horizon(self, item) -> float:
        """Grid horizon: far enough that every integral stays on-grid.

        ``valid_fraction`` evaluates the CDF up to ``lifetime +
        refresh_interval``; one extra interval of slack keeps the
        clamped tail out of every integrand.
        """
        return item.lifetime + 2.0 * item.refresh_interval

    def edge_distribution(
        self, item_id: int, parent: int, child: int
    ) -> DelayDistribution:
        """Delivery-delay CDF of one provisioned tree edge."""
        item = self.catalog.get(item_id)
        direct = self.rates.rate(parent, child)
        relays = self._relay_paths(item_id, parent, child)
        return DelayDistribution.from_function(
            lambda t: edge_delivery_cdf(direct, relays, t),
            horizon=self._horizon(item),
            points=self.grid_points,
        )

    # -- whole-scheme prediction --------------------------------------------

    def predict(self) -> ModelPrediction:
        """Evaluate the model for every (item, caching node) pair."""
        nodes: dict[tuple[int, int], NodePrediction] = {}
        # Shared hop distributions: sibling subtrees reuse parent edges.
        hop_cache: dict[tuple[int, int, int], DelayDistribution] = {}
        chain_cache: dict[tuple[int, int], Optional[DelayDistribution]] = {}

        def chain(item_id: int, node: int) -> Optional[DelayDistribution]:
            key = (item_id, node)
            if key in chain_cache:
                return chain_cache[key]
            tree = self.trees[item_id]
            if node == tree.root:
                chain_cache[key] = None
                return None
            parent = tree.parent[node]
            edge_key = (item_id, parent, node)
            hop = hop_cache.get(edge_key)
            if hop is None:
                hop = self.edge_distribution(item_id, parent, node)
                hop_cache[edge_key] = hop
            upstream = chain(item_id, parent)
            dist = hop if upstream is None else upstream.convolve(hop)
            chain_cache[key] = dist
            return dist

        for item_id, tree in sorted(self.trees.items()):
            item = self.catalog.get(item_id)
            for node in sorted(tree.members):
                dist = chain(item_id, node)
                assert dist is not None
                nodes[(item_id, node)] = NodePrediction(
                    item_id=item_id,
                    node=node,
                    depth=tree.depth_of(node),
                    on_time=float(dist.at(item.refresh_interval)),
                    fresh=dist.fresh_fraction(item.refresh_interval),
                    valid=dist.valid_fraction(item.refresh_interval, item.lifetime),
                    distribution=dist,
                )

        level_grid, levels = self._level_cdfs(nodes)
        predictions = list(nodes.values())
        return ModelPrediction(
            nodes=nodes,
            level_grid=level_grid,
            levels=levels,
            freshness=_mean(p.fresh for p in predictions),
            validity=_mean(p.valid for p in predictions),
            on_time_ratio=_mean(p.on_time for p in predictions),
            query_rate=self.query_rate,
            num_requesters=self.num_requesters,
        )

    def _level_cdfs(
        self, nodes: dict[tuple[int, int], NodePrediction]
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Depth-averaged CDFs on a normalised time grid.

        Time is expressed in fractions of each item's refresh interval
        so items with different intervals average coherently; the grid
        spans the smallest normalised horizon across items.
        """
        max_frac = min(
            (
                self._horizon(self.catalog.get(item_id))
                / self.catalog.get(item_id).refresh_interval
                for item_id in self.trees
            ),
            default=3.0,
        )
        grid = np.linspace(0.0, max_frac, self.grid_points)
        levels: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        for (item_id, _), pred in nodes.items():
            interval = self.catalog.get(item_id).refresh_interval
            sampled = np.asarray(pred.distribution.at(grid * interval))
            if pred.depth in levels:
                levels[pred.depth] = levels[pred.depth] + sampled
                counts[pred.depth] += 1
            else:
                levels[pred.depth] = sampled.copy()
                counts[pred.depth] = 1
        for depth in levels:
            levels[depth] /= counts[depth]
        return grid, levels


def _mean(values) -> float:
    items = list(values)
    return sum(items) / len(items) if items else math.nan
