"""Heterogeneous pairwise-Poisson contact generation.

The analytical core of the paper assumes pairwise inter-contact times
are exponentially distributed with per-pair rates ``lambda_ij`` -- the
standard empirical fit for the tail of the CRAWDAD traces it evaluates
on.  This module generates traces directly from that model:

1. build a symmetric rate matrix (homogeneous, gamma-heterogeneous or
   community-structured);
2. for every pair with a positive rate, draw a Poisson process of
   contact start times over the horizon and attach contact durations.

Because the generated process matches the model the scheme's analysis
assumes, analytical predictions (replication factors, freshness
probabilities) can be validated exactly against these traces.

Every contact model in :mod:`repro.mobility` draws its contacts in one
method, ``generate_chunks``, which yields lexsorted ``(start, end, a,
b)`` array blocks of roughly ``chunk_contacts`` rows each;
``generate_arrays`` assembles them into a :class:`ContactArrays`, and
``generate`` is ``generate_arrays(...).to_trace()``.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.mobility.arrays import ContactArrays
from repro.mobility.trace import ContactTrace

#: Default block size (contacts) for the chunked generators.
DEFAULT_CHUNK_CONTACTS = 262_144


def homogeneous_rate_matrix(n: int, rate: float) -> np.ndarray:
    """All pairs meet at the same ``rate`` (contacts per second)."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if rate < 0:
        raise ValueError("rate must be non-negative")
    matrix = np.full((n, n), float(rate))
    np.fill_diagonal(matrix, 0.0)
    return matrix


def gamma_rate_matrix(
    n: int,
    mean_rate: float,
    shape: float,
    rng: np.random.Generator,
    sparsity: float = 0.0,
) -> np.ndarray:
    """Pairwise rates drawn i.i.d. from Gamma(shape, mean_rate/shape).

    ``shape`` controls heterogeneity: small shape gives a heavy spread of
    rates (a few strong pairs, many weak ones), which is what real
    human-contact traces exhibit.  ``sparsity`` zeroes that fraction of
    pairs entirely (pairs that never meet).
    """
    if mean_rate <= 0 or shape <= 0:
        raise ValueError("mean_rate and shape must be positive")
    if not 0.0 <= sparsity < 1.0:
        raise ValueError("sparsity must be in [0, 1)")
    matrix = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    num_pairs = len(iu[0])
    rates = rng.gamma(shape, mean_rate / shape, size=num_pairs)
    if sparsity > 0:
        mask = rng.random(num_pairs) < sparsity
        rates[mask] = 0.0
    matrix[iu] = rates
    matrix += matrix.T
    return matrix


def community_rate_matrix(
    n: int,
    num_communities: int,
    intra_rate: float,
    inter_rate: float,
    rng: np.random.Generator,
    hub_fraction: float = 0.1,
    hub_multiplier: float = 4.0,
    jitter_shape: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Community-structured rates: dense inside, sparse across.

    A ``hub_fraction`` of nodes are hubs whose rates to *everyone* are
    multiplied by ``hub_multiplier`` -- these model the socially central
    people whose devices the NCL-selection metric discovers.  Per-pair
    gamma jitter (shape ``jitter_shape``, mean 1) keeps pairs distinct.

    Returns ``(rates, membership)`` where ``membership[i]`` is node i's
    community index.
    """
    if num_communities < 1 or num_communities > n:
        raise ValueError("num_communities must be in [1, n]")
    membership = rng.integers(0, num_communities, size=n)
    base = np.where(
        membership[:, None] == membership[None, :], float(intra_rate), float(inter_rate)
    )
    num_hubs = max(1, int(round(hub_fraction * n))) if hub_fraction > 0 else 0
    if num_hubs:
        hubs = rng.choice(n, size=num_hubs, replace=False)
        boost = np.ones(n)
        boost[hubs] = hub_multiplier
        base = base * np.sqrt(np.outer(boost, boost))
    jitter = rng.gamma(jitter_shape, 1.0 / jitter_shape, size=(n, n))
    jitter = np.triu(jitter, k=1)
    jitter += jitter.T
    rates = base * jitter
    np.fill_diagonal(rates, 0.0)
    return rates, membership


class PoissonContactModel:
    """Generates a :class:`ContactTrace` from a pairwise rate matrix.

    Contact start times per pair form a Poisson process with the pair's
    rate; contact durations are exponential with ``mean_duration``
    (truncated so contacts never outlive the horizon).  Rates are
    interpreted as *contact initiation* rates; for mean durations much
    shorter than mean inter-contacts this coincides with the usual
    inter-contact rate to first order.
    """

    def __init__(
        self,
        rates: np.ndarray,
        mean_duration: float = 120.0,
        node_ids: Optional[list[int]] = None,
        name: str = "poisson",
    ) -> None:
        rates = np.asarray(rates, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != rates.shape[1]:
            raise ValueError("rates must be a square matrix")
        if not np.allclose(rates, rates.T):
            raise ValueError("rates must be symmetric")
        if (rates < 0).any():
            raise ValueError("rates must be non-negative")
        if mean_duration <= 0:
            raise ValueError("mean_duration must be positive")
        self.rates = rates
        self.mean_duration = float(mean_duration)
        n = rates.shape[0]
        self.node_ids = list(range(n)) if node_ids is None else [int(i) for i in node_ids]
        if len(self.node_ids) != n:
            raise ValueError("node_ids length must match rate matrix")
        self.name = name

    def generate(self, duration: float, rng: np.random.Generator) -> ContactTrace:
        """Generate a trace over ``[0, duration]`` seconds (see
        :meth:`generate_chunks`)."""
        return self.generate_arrays(duration, rng).to_trace()

    def generate_chunks(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield the trace as lexsorted ``(start, end, a, b)`` blocks.

        This is the one place the model draws contacts.  Per pair, in
        row-major order, it draws the contact count, then uniform order
        statistics for the start times and exponential durations --
        equivalent to simulating the Poisson process, one vector op per
        quantity.  Each pair's overlapping intervals are merged with
        :class:`ContactTrace`'s rule and a pair never spans two blocks,
        so the block size does not change the trace (tests hold it
        against a per-contact reference, including odd block sizes).
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if chunk_contacts < 1:
            raise ValueError("chunk_contacts must be positive")
        n = self.rates.shape[0]
        mean_duration = self.mean_duration
        node_ids = self.node_ids
        buf_s: list[np.ndarray] = []
        buf_e: list[np.ndarray] = []
        buf_a: list[int] = []
        buf_b: list[int] = []
        buf_counts: list[int] = []
        buffered = 0
        for i in range(n):
            row = self.rates[i]
            a_id = node_ids[i]
            for j in range(i + 1, n):
                rate = row[j]
                if rate <= 0:
                    continue
                count = rng.poisson(rate * duration)
                if count == 0:
                    continue
                starts = np.sort(rng.random(count)) * duration
                lengths = rng.exponential(mean_duration, size=count)
                ends = np.minimum(starts + lengths, duration)
                keep = ends > starts
                s = starts[keep]
                e = ends[keep]
                if not len(s):
                    continue
                s, e = _merge_sorted_intervals(s, e)
                a, b = a_id, node_ids[j]
                if a > b:
                    a, b = b, a
                buf_s.append(s)
                buf_e.append(e)
                buf_a.append(a)
                buf_b.append(b)
                buf_counts.append(len(s))
                buffered += len(s)
                if buffered >= chunk_contacts:
                    yield _flush_block(buf_s, buf_e, buf_a, buf_b, buf_counts)
                    buf_s, buf_e, buf_a, buf_b, buf_counts = [], [], [], [], []
                    buffered = 0
        if buffered:
            yield _flush_block(buf_s, buf_e, buf_a, buf_b, buf_counts)

    def generate_arrays(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> ContactArrays:
        """Chunked generation assembled into a :class:`ContactArrays`."""
        return ContactArrays.from_blocks(
            self.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=False,
        )

    def expected_contacts(self, duration: float) -> float:
        """Expected total number of contacts over ``duration`` seconds."""
        return float(np.triu(self.rates, k=1).sum() * duration)


def _merge_sorted_intervals(s: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge one pair's overlapping intervals (starts already ascending).

    Same rule as ``trace._merge_overlapping``: an interval starting at
    or before the running max end joins the open one.  Within one pair
    the global running max equals the per-group running max (a group
    break requires a start above every earlier end), so the cummax test
    is exact, not conservative.
    """
    if len(s) < 2:
        return s, e
    order = np.lexsort((e, s))
    s = s[order]
    e = e[order]
    cm = np.maximum.accumulate(e)
    brk = np.empty(len(s), dtype=bool)
    brk[0] = True
    brk[1:] = s[1:] > cm[:-1]
    if bool(brk.all()):
        return s, e
    first = np.nonzero(brk)[0]
    last = np.append(first[1:] - 1, len(s) - 1)
    return s[first], cm[last]


def _flush_block(
    buf_s: list[np.ndarray],
    buf_e: list[np.ndarray],
    buf_a: list[int],
    buf_b: list[int],
    buf_counts: list[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Assemble buffered per-pair runs into one lexsorted block."""
    s = np.concatenate(buf_s)
    e = np.concatenate(buf_e)
    counts = np.asarray(buf_counts)
    a = np.repeat(np.asarray(buf_a, dtype=np.int64), counts)
    b = np.repeat(np.asarray(buf_b, dtype=np.int64), counts)
    order = np.lexsort((b, a, e, s))
    return s[order], e[order], a[order], b[order]
