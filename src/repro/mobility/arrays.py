"""Array-native contact-trace container.

:class:`ContactArrays` holds a whole contact trace as four parallel
NumPy arrays (``start``, ``end``, ``a``, ``b``) lexsorted by
``(start, end, a, b)`` -- exactly the order :class:`ContactTrace`
iterates in -- without materialising one :class:`Contact` object per
row.  It is the interchange format of the chunked build pipeline: the
mobility generators emit lexsorted blocks, :func:`repro.contacts.rates`
estimates rates straight off the arrays, and
:class:`repro.sim.soa.ContactEventStream` consumes them without an
object round-trip.

Construction reproduces :class:`ContactTrace`'s semantics bit for bit:

* pairs are normalised to ``a < b``;
* overlapping/touching intervals of the same pair are merged with the
  same rule as ``trace._merge_overlapping`` (``next.start <= cur.end``
  extends ``cur.end`` to the max);
* rows are sorted by the ``(start, end, a, b)`` tuple order.

``ContactArrays.from_trace(t).to_trace()`` round-trips losslessly, and
the equivalence is enforced by tests (normalisation against
``ContactTrace``, chunked generation against per-contact references).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.mobility.trace import Contact, ContactTrace

#: Node ids must fit a non-negative int32 so a pair packs into one int64
#: key (``a << 32 | b``) for vectorised grouping.
MAX_NODE_ID = 2**31 - 1

_EMPTY_F = np.empty(0, dtype=np.float64)
_EMPTY_I = np.empty(0, dtype=np.int64)


def _pack_pairs(a, b):
    """One int64 key per row ordering exactly like ``(a, b)`` (ids are
    non-negative and fit 31 bits)."""
    return (a.astype(np.int64) << 32) | b.astype(np.int64)


def _final_sort(s, e, a, b):
    """Sort rows by ``(start, end, a, b)`` -- Contact tuple order."""
    order = np.lexsort((_pack_pairs(a, b), e, s))
    return s[order], e[order], a[order], b[order]


def _merge_pair_runs(s, e, a, b):
    """Merge overlapping same-pair intervals, array-natively.

    Exact equivalent of ``trace._merge_overlapping``: rows are grouped
    by pair and time-ordered; a row starting at or before the current
    open interval's end extends it (``end = max(ends)``).  Output row
    order is unspecified (callers re-sort globally).

    Two regimes, picked by how often a pair repeats.  Sparse traces
    (city-scale uniform mixing: almost every pair occurs once) need only
    a single int-key argsort to *find* the few repeated pairs, each of
    which is merged exactly in Python.  Dense traces (small populations
    with many contacts per pair) keep the fully vectorised
    grouped-lexsort path.
    """
    n = len(s)
    if n < 2:
        return s, e, a, b
    pack = _pack_pairs(a, b)
    order = np.argsort(pack, kind="stable")
    ps = pack[order]
    dup = ps[1:] == ps[:-1]
    ndup = int(dup.sum())
    if ndup == 0:
        # Every pair occurs exactly once: nothing can merge.
        return s, e, a, b
    if ndup > n // 100:
        return _merge_pair_runs_dense(s, e, a, b, pack)
    s, e, a, b = s[order], e[order], a[order], b[order]
    keys = np.unique(ps[1:][dup])
    los = np.searchsorted(ps, keys, side="left")
    his = np.searchsorted(ps, keys, side="right")
    keep = np.ones(n, dtype=bool)
    merged_s: list[float] = []
    merged_e: list[float] = []
    merged_a: list[int] = []
    merged_b: list[int] = []
    for lo, hi in zip(los.tolist(), his.tolist()):
        keep[lo:hi] = False
        seg = np.lexsort((e[lo:hi], s[lo:hi]))
        ss = s[lo:hi][seg].tolist()
        ee = e[lo:hi][seg].tolist()
        cs = ss[0]
        ce = ee[0]
        for i in range(1, len(ss)):
            si = ss[i]
            if si <= ce:
                if ee[i] > ce:
                    ce = ee[i]
            else:
                merged_s.append(cs)
                merged_e.append(ce)
                cs = si
                ce = ee[i]
        merged_s.append(cs)
        merged_e.append(ce)
        count = len(merged_a)
        pair_rows = len(merged_s) - count
        merged_a.extend([int(a[lo])] * pair_rows)
        merged_b.extend([int(b[lo])] * pair_rows)
    s = np.concatenate([s[keep], np.asarray(merged_s, dtype=np.float64)])
    e = np.concatenate([e[keep], np.asarray(merged_e, dtype=np.float64)])
    a = np.concatenate([a[keep], np.asarray(merged_a, dtype=a.dtype)])
    b = np.concatenate([b[keep], np.asarray(merged_b, dtype=b.dtype)])
    return s, e, a, b


def _merge_pair_runs_dense(s, e, a, b, pack):
    """The dense regime of :func:`_merge_pair_runs`.

    One grouped lexsort orders every pair's run by ``(start, end)``.
    The overlap test uses a *global* running max of ``end`` as a
    conservative superset: within one pair the global running max
    equals the group-local one (a group break would need a start above
    every earlier end), so the candidate mask is exact per pair; the
    few pair groups it flags are merged exactly in Python.
    """
    n = len(s)
    order = np.lexsort((e, s, pack))
    s, e, a, b = s[order], e[order], a[order], b[order]
    same = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    running_max = np.maximum.accumulate(e)
    cand = same & (s[1:] <= running_max[:-1])
    if not bool(cand.any()):
        return s, e, a, b
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = ~same
    gid = np.cumsum(new_group) - 1
    num_groups = int(gid[-1]) + 1
    affected = np.zeros(num_groups, dtype=bool)
    affected[gid[1:][cand]] = True
    row_affected = affected[gid]
    keep = ~row_affected
    group_starts = np.nonzero(new_group)[0]
    merged_s: list[float] = []
    merged_e: list[float] = []
    merged_a: list[int] = []
    merged_b: list[int] = []
    for g in np.nonzero(affected)[0]:
        lo = int(group_starts[g])
        hi = int(group_starts[g + 1]) if g + 1 < num_groups else n
        cs = s[lo]
        ce = e[lo]
        for i in range(lo + 1, hi):
            si = s[i]
            if si <= ce:
                ei = e[i]
                if ei > ce:
                    ce = ei
            else:
                merged_s.append(cs)
                merged_e.append(ce)
                cs = si
                ce = e[i]
        merged_s.append(cs)
        merged_e.append(ce)
        count = len(merged_a)
        pair_rows = len(merged_s) - count
        merged_a.extend([int(a[lo])] * pair_rows)
        merged_b.extend([int(b[lo])] * pair_rows)
    s = np.concatenate([s[keep], np.asarray(merged_s, dtype=np.float64)])
    e = np.concatenate([e[keep], np.asarray(merged_e, dtype=np.float64)])
    a = np.concatenate([a[keep], np.asarray(merged_a, dtype=a.dtype)])
    b = np.concatenate([b[keep], np.asarray(merged_b, dtype=b.dtype)])
    return s, e, a, b


class ContactArrays:
    """Lexsorted struct-of-arrays contact trace.

    ``start``/``end`` are float64 seconds, ``a``/``b`` int32 node ids
    with ``a < b`` per row; rows are sorted by ``(start, end, a, b)``.
    """

    __slots__ = ("start", "end", "a", "b", "name", "_node_id_arr", "_node_ids")

    def __init__(
        self,
        start,
        end,
        a,
        b,
        node_ids: Optional[Iterable[int]] = None,
        name: str = "arrays",
        merge_overlaps: bool = True,
    ) -> None:
        s = np.ascontiguousarray(start, dtype=np.float64)
        e = np.ascontiguousarray(end, dtype=np.float64)
        aa = np.ascontiguousarray(a, dtype=np.int64)
        bb = np.ascontiguousarray(b, dtype=np.int64)
        if not (len(s) == len(e) == len(aa) == len(bb)):
            raise ValueError("contact arrays must have equal length")
        if len(s):
            if bool((aa == bb).any()):
                raise ValueError("self-contact in contact arrays")
            if bool((e < s).any()):
                raise ValueError("contact ends before it starts")
            lo = min(int(aa.min()), int(bb.min()))
            hi = max(int(aa.max()), int(bb.max()))
            if lo < 0 or hi > MAX_NODE_ID:
                raise ValueError(f"node ids must be in [0, {MAX_NODE_ID}]")
            swap = aa > bb
            if bool(swap.any()):
                aa2 = np.where(swap, bb, aa)
                bb = np.where(swap, aa, bb)
                aa = aa2
        aa = aa.astype(np.int32)
        bb = bb.astype(np.int32)
        if merge_overlaps and len(s):
            s, e, aa, bb = _merge_pair_runs(s, e, aa, bb)
        s, e, aa, bb = _final_sort(s, e, aa, bb)
        self.start = s
        self.end = e
        self.a = aa
        self.b = bb
        self.name = name
        seen = np.unique(np.concatenate([aa, bb])) if len(aa) else _EMPTY_I.astype(np.int32)
        if node_ids is not None:
            ids = np.unique(np.asarray(list(node_ids), dtype=np.int64))
            if len(seen):
                pos = np.searchsorted(ids, seen)
                pos_ok = pos < len(ids)
                known = np.zeros(len(seen), dtype=bool)
                known[pos_ok] = ids[pos[pos_ok]] == seen[pos_ok]
                if not bool(known.all()):
                    missing = seen[~known].tolist()
                    raise ValueError(f"contacts reference unknown nodes: {sorted(missing)}")
            self._node_id_arr = ids
        else:
            self._node_id_arr = seen.astype(np.int64)
        self._node_ids: Optional[tuple[int, ...]] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_blocks(
        cls,
        blocks: Iterable[tuple],
        node_ids: Optional[Iterable[int]] = None,
        name: str = "arrays",
        merge_overlaps: bool = True,
    ) -> "ContactArrays":
        """Assemble a trace from ``(start, end, a, b)`` array blocks.

        Generators that already merge each pair's intervals (and never
        split a pair across blocks) pass ``merge_overlaps=False``.
        """
        parts = list(blocks)
        if not parts:
            return cls(_EMPTY_F, _EMPTY_F, _EMPTY_I, _EMPTY_I, node_ids=node_ids,
                       name=name, merge_overlaps=False)
        s = np.concatenate([np.asarray(p[0], dtype=np.float64) for p in parts])
        e = np.concatenate([np.asarray(p[1], dtype=np.float64) for p in parts])
        a = np.concatenate([np.asarray(p[2], dtype=np.int64) for p in parts])
        b = np.concatenate([np.asarray(p[3], dtype=np.int64) for p in parts])
        return cls(s, e, a, b, node_ids=node_ids, name=name, merge_overlaps=merge_overlaps)

    @classmethod
    def from_trace(cls, trace: ContactTrace) -> "ContactArrays":
        s = np.fromiter((c.start for c in trace), dtype=np.float64, count=len(trace))
        e = np.fromiter((c.end for c in trace), dtype=np.float64, count=len(trace))
        a = np.fromiter((c.a for c in trace), dtype=np.int64, count=len(trace))
        b = np.fromiter((c.b for c in trace), dtype=np.int64, count=len(trace))
        return cls(s, e, a, b, node_ids=trace.node_ids, name=trace.name,
                   merge_overlaps=False)

    def to_trace(self) -> ContactTrace:
        """Materialise the object representation (tests, object backend)."""
        contacts = [
            Contact(s, e, a, b)
            for s, e, a, b in zip(
                self.start.tolist(), self.end.tolist(),
                self.a.tolist(), self.b.tolist(),
            )
        ]
        return ContactTrace(contacts, node_ids=self.node_ids, name=self.name,
                            merge_overlaps=False)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    @property
    def node_id_array(self) -> np.ndarray:
        """Sorted node ids as an int64 array (no tuple materialisation)."""
        return self._node_id_arr

    @property
    def node_ids(self) -> tuple[int, ...]:
        if self._node_ids is None:
            self._node_ids = tuple(self._node_id_arr.tolist())
        return self._node_ids

    @property
    def num_nodes(self) -> int:
        return len(self._node_id_arr)

    @property
    def start_time(self) -> float:
        return float(self.start[0]) if len(self.start) else 0.0

    @property
    def end_time(self) -> float:
        return float(self.end.max()) if len(self.end) else 0.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def pair_keys(self) -> np.ndarray:
        """Per-row pair id packed into one int64 (``a << 32 | b``)."""
        return (self.a.astype(np.int64) << 32) | self.b.astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ContactArrays({self.name!r}, contacts={len(self)}, "
                f"nodes={self.num_nodes})")
