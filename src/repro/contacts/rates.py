"""Pairwise contact-rate estimation.

Under the pairwise-Poisson model the maximum-likelihood estimate of a
pair's contact rate over an observation window is simply
``count / window``.  :func:`mle_rates` computes that offline from a
trace; :func:`ewma_rates` is the recency-weighted variant; and
:class:`ContactRateEstimator` is the *online, node-local* estimator each
device runs over its own contact history -- the distributed source of
rate knowledge the scheme actually uses.

All estimators produce a :class:`RateTable`, the symmetric pair->rate
mapping consumed by hierarchy construction and the replication analysis.

Both offline estimators accept either a :class:`ContactTrace` (object
path) or a :class:`repro.mobility.arrays.ContactArrays` (array path).
On arrays they run fully vectorised -- pairs keyed by packing
``(a, b)`` into one int64 and grouped with ``np.unique``, EWMA gaps
reduced round-by-round -- and produce bit-identical tables to the
object path.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

import numpy as np

from repro.sim.node import Node, ProtocolHandler

if TYPE_CHECKING:  # pragma: no cover
    from repro.mobility.arrays import ContactArrays
    from repro.mobility.trace import ContactTrace

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _norm_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _is_arrays(trace) -> bool:
    from repro.mobility.arrays import ContactArrays

    return isinstance(trace, ContactArrays)


class RateTable:
    """Symmetric mapping of node pairs to contact rates (1/s).

    Backed either by a plain dict (mutable, built pair by pair) or by
    sorted pair/rate arrays (:meth:`from_arrays`, what the vectorised
    estimators emit) -- lookups work the same either way, and the dict
    is only materialised on demand, so a million-pair table built at
    scale never pays for per-pair Python objects.

    >>> table = RateTable({(1, 2): 0.5})
    >>> table.rate(2, 1)            # symmetric lookup
    0.5
    >>> table.rate(1, 3)            # never observed -> 0
    0.0
    >>> table.set(3, 1, 0.25)
    >>> sorted(table.neighbors(1).items())
    [(2, 0.5), (3, 0.25)]
    """

    def __init__(self, rates: Optional[Mapping[tuple[int, int], float]] = None) -> None:
        self._rates: Optional[dict[tuple[int, int], float]] = {}
        self._arr_a: Optional[np.ndarray] = None
        self._arr_b: Optional[np.ndarray] = None
        self._arr_rate: Optional[np.ndarray] = None
        self._packed: Optional[np.ndarray] = None
        self._csr = None
        if rates:
            for (a, b), rate in rates.items():
                self.set(a, b, rate)

    @classmethod
    def from_arrays(cls, a, b, rates) -> "RateTable":
        """Build a table straight from parallel pair/rate arrays.

        ``a``/``b`` must be normalised (``a < b`` per row), unique as
        pairs and sorted by ``(a, b)``; ``rates`` non-negative.  This is
        the trusted constructor used by the vectorised estimators.
        """
        table = cls()
        table._rates = None
        table._arr_a = np.ascontiguousarray(a, dtype=np.int64)
        table._arr_b = np.ascontiguousarray(b, dtype=np.int64)
        table._arr_rate = np.ascontiguousarray(rates, dtype=np.float64)
        return table

    # -- backing management --------------------------------------------------

    @property
    def is_array_backed(self) -> bool:
        """True while the table lives in arrays only (no dict built)."""
        return self._rates is None

    def _ensure_dict(self) -> dict[tuple[int, int], float]:
        if self._rates is None:
            self._rates = {
                (a, b): r
                for a, b, r in zip(
                    self._arr_a.tolist(), self._arr_b.tolist(), self._arr_rate.tolist()
                )
            }
        return self._rates

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(a, b, rate)`` arrays sorted by ``(a, b)`` (cached)."""
        if self._arr_a is None:
            items = sorted(self._rates.items())
            self._arr_a = np.fromiter(
                (p[0] for p, _ in items), dtype=np.int64, count=len(items)
            )
            self._arr_b = np.fromiter(
                (p[1] for p, _ in items), dtype=np.int64, count=len(items)
            )
            self._arr_rate = np.fromiter(
                (r for _, r in items), dtype=np.float64, count=len(items)
            )
        return self._arr_a, self._arr_b, self._arr_rate

    def _packed_keys(self) -> np.ndarray:
        if self._packed is None:
            a, b, _ = self.as_arrays()
            self._packed = (a << 32) | b
        return self._packed

    def _neighbor_csr(self):
        """CSR view over positive-rate edges, both directions (cached).

        Built with one packed-key argsort (ids fit 31 bits, so
        ``(node << 32) | peer`` orders like ``(node, peer)``) and
        difference-based group boundaries -- measurably cheaper than a
        two-key lexsort plus ``np.unique`` at millions of edges.
        """
        if self._csr is None:
            a, b, r = self.as_arrays()
            na = np.concatenate([a, b])
            nb = np.concatenate([b, a])
            nr = np.concatenate([r, r])
            pos = nr > 0
            if not pos.all():
                na, nb, nr = na[pos], nb[pos], nr[pos]
            order = np.argsort((na << 32) | nb)
            na, nb, nr = na[order], nb[order], nr[order]
            if len(na):
                first = np.empty(len(na), dtype=bool)
                first[0] = True
                np.not_equal(na[1:], na[:-1], out=first[1:])
                starts = np.nonzero(first)[0]
            else:
                starts = np.empty(0, dtype=np.int64)
            node_list = na[starts]
            indptr = np.append(starts, len(na))
            self._csr = (node_list, indptr, nb, nr)
        return self._csr

    def _invalidate(self) -> None:
        self._arr_a = self._arr_b = self._arr_rate = None
        self._packed = None
        self._csr = None

    # -- mutation ------------------------------------------------------------

    def set(self, a: int, b: int, rate: float) -> None:
        if a == b:
            raise ValueError(f"self-rate for node {a}")
        if rate < 0:
            raise ValueError(f"negative rate for pair ({a}, {b})")
        self._ensure_dict()[_norm_pair(a, b)] = float(rate)
        self._invalidate()

    # -- lookups -------------------------------------------------------------

    def rate(self, a: int, b: int, default: float = 0.0) -> float:
        """Contact rate between ``a`` and ``b`` (0 when never observed)."""
        if self._rates is not None:
            return self._rates.get(_norm_pair(a, b), default)
        lo, hi = (a, b) if a <= b else (b, a)
        key = (lo << 32) | hi
        packed = self._packed_keys()
        i = int(np.searchsorted(packed, key))
        if i < len(packed) and packed[i] == key:
            return float(self._arr_rate[i])
        return default

    def pairs(self) -> Iterable[tuple[tuple[int, int], float]]:
        if self._rates is not None:
            return self._rates.items()
        a, b, r = self.as_arrays()
        return (
            ((ai, bi), ri)
            for ai, bi, ri in zip(a.tolist(), b.tolist(), r.tolist())
        )

    def neighbor_view(self, node_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Positive-rate peers of ``node_id`` as ``(ids, rates)`` arrays.

        Ids ascend; backed by the cached CSR structure, so repeated
        calls (tree/replica planning) are O(log N) each.
        """
        node_list, indptr, nb, nr = self._neighbor_csr()
        i = int(np.searchsorted(node_list, node_id))
        if i == len(node_list) or node_list[i] != node_id:
            return _EMPTY_I, _EMPTY_F
        return nb[indptr[i]:indptr[i + 1]], nr[indptr[i]:indptr[i + 1]]

    def neighbors(self, node_id: int) -> dict[int, float]:
        """Peers of ``node_id`` with a positive rate."""
        if self._rates is not None:
            out = {}
            for (a, b), rate in self._rates.items():
                if rate <= 0:
                    continue
                if a == node_id:
                    out[b] = rate
                elif b == node_id:
                    out[a] = rate
            return out
        ids, rs = self.neighbor_view(node_id)
        return dict(zip(ids.tolist(), rs.tolist()))

    def nodes(self) -> set[int]:
        if self._rates is not None:
            seen: set[int] = set()
            for a, b in self._rates:
                seen.add(a)
                seen.add(b)
            return seen
        a, b, _ = self.as_arrays()
        return set(np.unique(np.concatenate([a, b])).tolist())

    def node_array(self) -> np.ndarray:
        """Sorted array of all nodes appearing in the table."""
        a, b, _ = self.as_arrays()
        return np.unique(np.concatenate([a, b]))

    def matrix(self, node_ids: list[int]) -> np.ndarray:
        """Dense rate matrix in the order of ``node_ids``."""
        ids = np.asarray(list(node_ids), dtype=np.int64)
        out = np.zeros((len(ids), len(ids)))
        if len(self) == 0 or len(ids) == 0:
            return out
        a, b, r = self.as_arrays()
        order = np.argsort(ids, kind="stable")
        sids = ids[order]
        ai = np.searchsorted(sids, a).clip(0, len(sids) - 1)
        bi = np.searchsorted(sids, b).clip(0, len(sids) - 1)
        valid = (sids[ai] == a) & (sids[bi] == b)
        rows = order[ai[valid]]
        cols = order[bi[valid]]
        out[rows, cols] = r[valid]
        out[cols, rows] = r[valid]
        return out

    def __len__(self) -> int:
        if self._rates is not None:
            return len(self._rates)
        return len(self._arr_rate)


def mle_rates(
    trace: Union["ContactTrace", "ContactArrays"],
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> RateTable:
    """Whole-window MLE: rate = contact count / window length.

    ``[t0, t1)`` defaults to the trace's own span.  Contacts are counted
    by their start time; the window is half-open so tiled windows (as
    produced by chunked generation) count a boundary contact exactly
    once.

    Two contacts of pair (0, 1) over a 100 s window:

    >>> from repro.mobility.trace import Contact, ContactTrace
    >>> trace = ContactTrace([Contact.make(0, 1, 10, 20),
    ...                       Contact.make(0, 1, 60, 70)])
    >>> mle_rates(trace, t0=0.0, t1=100.0).rate(0, 1)
    0.02
    """
    start = trace.start_time if t0 is None else t0
    end = trace.end_time if t1 is None else t1
    window = end - start
    if window <= 0:
        raise ValueError(f"empty estimation window [{start}, {end}]")
    if _is_arrays(trace):
        return _mle_rates_arrays(trace, start, end, window)
    counts: dict[tuple[int, int], int] = {}
    for c in trace:
        if start <= c.start < end:
            counts[c.pair] = counts.get(c.pair, 0) + 1
    return RateTable({pair: n / window for pair, n in counts.items()})


def _mle_rates_arrays(trace: "ContactArrays", start: float, end: float,
                      window: float) -> RateTable:
    mask = (trace.start >= start) & (trace.start < end)
    packed = trace.pair_keys()[mask]
    keys, counts = np.unique(packed, return_counts=True)
    rates = counts / window
    return RateTable.from_arrays(keys >> 32, keys & 0xFFFFFFFF, rates)


def ewma_rates(
    trace: Union["ContactTrace", "ContactArrays"],
    alpha: float = 0.3,
    t1: Optional[float] = None,
) -> RateTable:
    """Recency-weighted rates from per-pair inter-contact gaps.

    For each pair the EWMA of inter-contact gaps is maintained
    (``est = alpha * gap + (1 - alpha) * est``) and the rate is its
    inverse.  Pairs with a single contact fall back to
    ``1 / time-since-that-contact`` measured at ``t1``.

    One 40 s gap (between contact end and next start) gives rate 1/40:

    >>> from repro.mobility.trace import Contact, ContactTrace
    >>> trace = ContactTrace([Contact.make(0, 1, 10, 20),
    ...                       Contact.make(0, 1, 60, 70)])
    >>> ewma_rates(trace, t1=100.0).rate(0, 1)
    0.025
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    horizon = trace.end_time if t1 is None else t1
    if _is_arrays(trace):
        return _ewma_rates_arrays(trace, alpha, horizon)
    table = RateTable()
    for pair, contacts in trace.pair_contacts().items():
        gaps = [n.start - p.end for p, n in zip(contacts, contacts[1:]) if n.start > p.end]
        if gaps:
            est = gaps[0]
            for gap in gaps[1:]:
                est = alpha * gap + (1 - alpha) * est
            if est > 0:
                table.set(pair[0], pair[1], 1.0 / est)
        else:
            age = horizon - contacts[0].start
            if age > 0:
                table.set(pair[0], pair[1], 1.0 / age)
    return table


def _ewma_rates_arrays(trace: "ContactArrays", alpha: float,
                       horizon: float) -> RateTable:
    n = len(trace)
    if n == 0:
        return RateTable()
    # Pair-grouped, time-ordered view: within a pair, (start, end) order
    # matches the trace iteration order the object path consumes.
    order = np.lexsort((trace.end, trace.start, trace.b, trace.a))
    s = trace.start[order]
    e = trace.end[order]
    a = trace.a[order].astype(np.int64)
    b = trace.b[order].astype(np.int64)
    new_pair = np.empty(n, dtype=bool)
    new_pair[0] = True
    new_pair[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    pid = np.cumsum(new_pair) - 1
    num_pairs = int(pid[-1]) + 1
    first_idx = np.nonzero(new_pair)[0]
    pair_a = a[first_idx]
    pair_b = b[first_idx]
    # Positive inter-contact gaps, grouped per pair in time order.
    gap_row = np.zeros(n, dtype=bool)
    gap_row[1:] = ~new_pair[1:] & (s[1:] > e[:-1])
    gvals = (s[1:] - e[:-1])[gap_row[1:]]
    gpid = pid[gap_row]
    gcount = np.bincount(gpid, minlength=num_pairs)
    goff = np.concatenate(([0], np.cumsum(gcount)))[:-1]
    has_gaps = gcount > 0
    est = np.zeros(num_pairs)
    est[has_gaps] = gvals[goff[has_gaps]]
    # Round r folds in every pair's r-th gap at once; the per-element
    # float op sequence is exactly the object path's recurrence.
    max_rounds = int(gcount.max()) if num_pairs else 0
    one_minus = 1 - alpha
    for r in range(1, max_rounds):
        active = gcount > r
        est[active] = alpha * gvals[goff[active] + r] + one_minus * est[active]
    rates = np.zeros(num_pairs)
    gap_ok = has_gaps & (est > 0)
    rates[gap_ok] = 1.0 / est[gap_ok]
    age = horizon - s[first_idx]
    age_ok = ~has_gaps & (age > 0)
    rates[age_ok] = 1.0 / age[age_ok]
    keep = gap_ok | age_ok
    return RateTable.from_arrays(pair_a[keep], pair_b[keep], rates[keep])


class ContactRateEstimator(ProtocolHandler):
    """Node-local online rate estimator.

    Each node counts contacts per peer from the moment it starts and
    estimates ``rate = count / elapsed``.  This is the distributed
    knowledge base: a node knows its *own* rates exactly and learns
    nothing about pairs it is not part of (peers exchange summaries at
    the protocol layer above when needed).

    An optional EWMA mode tracks inter-contact gaps instead, adapting
    faster when mobility changes.
    """

    def __init__(self, mode: str = "cumulative", alpha: float = 0.3) -> None:
        super().__init__()
        if mode not in ("cumulative", "ewma"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.alpha = alpha
        self.counts: dict[int, int] = {}
        self.last_seen: dict[int, float] = {}
        self.ewma_gap: dict[int, float] = {}
        self.started_at: Optional[float] = None

    def on_start(self) -> None:
        self.started_at = self.node.sim.now

    def on_contact_start(self, peer: Node) -> None:
        now = self.node.sim.now
        pid = peer.node_id
        self.counts[pid] = self.counts.get(pid, 0) + 1
        if pid in self.last_seen:
            gap = now - self.last_seen[pid]
            if gap > 0:
                if pid in self.ewma_gap:
                    self.ewma_gap[pid] = self.alpha * gap + (1 - self.alpha) * self.ewma_gap[pid]
                else:
                    self.ewma_gap[pid] = gap
        self.last_seen[pid] = now

    def rate_to(self, peer_id: int) -> float:
        """Current estimate of the contact rate to ``peer_id`` (1/s)."""
        if self.mode == "ewma":
            gap = self.ewma_gap.get(peer_id)
            if gap:
                return 1.0 / gap
            # fall through to cumulative for peers seen at most once
        count = self.counts.get(peer_id, 0)
        if count == 0 or self.started_at is None:
            return 0.0
        elapsed = self.node.sim.now - self.started_at
        return count / elapsed if elapsed > 0 else 0.0

    def known_peers(self) -> dict[int, float]:
        """All peers ever met, with their current rate estimates."""
        return {pid: self.rate_to(pid) for pid in self.counts}

    def expected_meeting_delay(self, peer_id: int) -> float:
        """``1 / rate``; infinity for peers never met."""
        rate = self.rate_to(peer_id)
        return 1.0 / rate if rate > 0 else math.inf
