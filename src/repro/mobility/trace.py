"""Contact-trace data model.

A *contact* is an interval during which two nodes can exchange data.  A
*trace* is the full time-ordered set of contacts over a node population,
either recorded from real devices (CRAWDAD-style) or synthesised by the
generators in this package.

The trace is the only interface between mobility and everything above
it: the simulator replays contacts, the contact-analysis layer estimates
rates from them, and the schemes never see positions or radio models.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

#: Sort key matching :class:`Contact`'s dataclass ordering exactly.
#: Sorting large generated traces through a key of plain tuples is much
#: faster than the dataclass ``__lt__`` (one Python call per comparison).
_CONTACT_ORDER = attrgetter("start", "end", "a", "b")


def _sort_contacts(contacts: list) -> None:
    contacts.sort(key=_CONTACT_ORDER)


@dataclass(frozen=True, order=True)
class Contact:
    """One contact interval between nodes ``a`` and ``b``.

    Ordering is by ``(start, end, a, b)`` so sorting a contact list gives
    replay order.  ``a < b`` is normalised by :meth:`make`.
    """

    start: float
    end: float
    a: int
    b: int

    @classmethod
    def make(cls, a: int, b: int, start: float, end: float) -> "Contact":
        """Validated constructor that normalises the pair order."""
        if a == b:
            raise ValueError(f"self-contact for node {a}")
        if end < start:
            raise ValueError(f"contact ends before it starts: [{start}, {end}]")
        if a > b:
            a, b = b, a
        return cls(float(start), float(end), int(a), int(b))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def involves(self, node_id: int) -> bool:
        return node_id == self.a or node_id == self.b

    def peer_of(self, node_id: int) -> int:
        """The other endpoint of this contact."""
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise ValueError(f"node {node_id} is not part of contact {self}")


@dataclass
class TraceStats:
    """Aggregate statistics of a trace (rows of the E1 table)."""

    num_nodes: int
    num_contacts: int
    duration: float
    num_pairs_with_contact: int
    mean_contacts_per_pair: float
    mean_contact_duration: float
    mean_inter_contact: float
    median_inter_contact: float

    def as_row(self) -> dict[str, float]:
        return {
            "nodes": self.num_nodes,
            "contacts": self.num_contacts,
            "duration_days": self.duration / 86400.0,
            "pairs_with_contact": self.num_pairs_with_contact,
            "contacts_per_pair": self.mean_contacts_per_pair,
            "mean_contact_s": self.mean_contact_duration,
            "mean_intercontact_h": self.mean_inter_contact / 3600.0,
            "median_intercontact_h": self.median_inter_contact / 3600.0,
        }


class ContactTrace:
    """Time-ordered, validated collection of contacts.

    Construction sorts contacts and (optionally) merges overlapping
    intervals of the same pair -- real traces frequently contain
    overlapping sightings from both endpoints.
    """

    def __init__(
        self,
        contacts: Iterable[Contact],
        node_ids: Optional[Iterable[int]] = None,
        name: str = "trace",
        merge_overlaps: bool = True,
    ) -> None:
        sorted_contacts = list(contacts)
        _sort_contacts(sorted_contacts)
        if merge_overlaps:
            sorted_contacts = _merge_overlapping(sorted_contacts)
        self._contacts: list[Contact] = sorted_contacts
        self.name = name
        seen: set[int] = set()
        for c in self._contacts:
            seen.add(c.a)
            seen.add(c.b)
        if node_ids is not None:
            ids = set(int(n) for n in node_ids)
            missing = seen - ids
            if missing:
                raise ValueError(f"contacts reference unknown nodes: {sorted(missing)}")
            self.node_ids: tuple[int, ...] = tuple(sorted(ids))
        else:
            self.node_ids = tuple(sorted(seen))
        self._starts = [c.start for c in self._contacts]
        self._pair_index: Optional[dict[tuple[int, int], list[Contact]]] = None

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self._contacts)

    def __iter__(self) -> Iterator[Contact]:
        return iter(self._contacts)

    def __getitem__(self, index: int) -> Contact:
        return self._contacts[index]

    @property
    def contacts(self) -> Sequence[Contact]:
        return self._contacts

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def start_time(self) -> float:
        return self._contacts[0].start if self._contacts else 0.0

    @property
    def end_time(self) -> float:
        return max((c.end for c in self._contacts), default=0.0)

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    # -- queries -------------------------------------------------------------

    def pair_contacts(self) -> dict[tuple[int, int], list[Contact]]:
        """Contacts grouped by (a, b) pair, each list time-ordered."""
        if self._pair_index is None:
            index: dict[tuple[int, int], list[Contact]] = {}
            for c in self._contacts:
                index.setdefault(c.pair, []).append(c)
            self._pair_index = index
        return self._pair_index

    def contacts_of(self, node_id: int) -> list[Contact]:
        """All contacts involving ``node_id``, time-ordered."""
        return [c for c in self._contacts if c.involves(node_id)]

    def window(self, t0: float, t1: float, clip: bool = True) -> "ContactTrace":
        """Contacts overlapping [t0, t1], optionally clipped to it."""
        if t1 < t0:
            raise ValueError(f"empty window [{t0}, {t1}]")
        picked = []
        lo = bisect_left(self._starts, t0 - self._max_duration())
        for c in self._contacts[lo:]:
            if c.start > t1:
                break
            if c.end < t0:
                continue
            if clip:
                picked.append(Contact.make(c.a, c.b, max(c.start, t0), min(c.end, t1)))
            else:
                picked.append(c)
        return ContactTrace(
            picked, node_ids=self.node_ids, name=f"{self.name}[{t0},{t1}]",
            merge_overlaps=False,
        )

    def subset(self, node_ids: Iterable[int]) -> "ContactTrace":
        """Restrict the trace to contacts among ``node_ids``."""
        keep = set(int(n) for n in node_ids)
        picked = [c for c in self._contacts if c.a in keep and c.b in keep]
        return ContactTrace(
            picked, node_ids=keep, name=f"{self.name}|{len(keep)}n",
            merge_overlaps=False,
        )

    def shifted(self, offset: float) -> "ContactTrace":
        """The same trace with every timestamp shifted by ``offset``."""
        moved = [Contact.make(c.a, c.b, c.start + offset, c.end + offset) for c in self]
        return ContactTrace(moved, node_ids=self.node_ids, name=self.name, merge_overlaps=False)

    def _max_duration(self) -> float:
        return max((c.duration for c in self._contacts), default=0.0)

    # -- statistics ------------------------------------------------------------

    def inter_contact_times(self) -> dict[tuple[int, int], list[float]]:
        """Per-pair gaps between the end of a contact and the next start."""
        gaps: dict[tuple[int, int], list[float]] = {}
        for pair, contacts in self.pair_contacts().items():
            pair_gaps = []
            for prev, nxt in zip(contacts, contacts[1:]):
                gap = nxt.start - prev.end
                if gap > 0:
                    pair_gaps.append(gap)
            if pair_gaps:
                gaps[pair] = pair_gaps
        return gaps

    def stats(self) -> TraceStats:
        """Aggregate statistics (row of the E1 trace table)."""
        pairs = self.pair_contacts()
        durations = [c.duration for c in self._contacts]
        all_gaps = [g for gaps in self.inter_contact_times().values() for g in gaps]
        all_gaps.sort()
        n = len(all_gaps)
        if n:
            median = all_gaps[n // 2] if n % 2 else 0.5 * (all_gaps[n // 2 - 1] + all_gaps[n // 2])
            mean_gap = sum(all_gaps) / n
        else:
            median = float("nan")
            mean_gap = float("nan")
        return TraceStats(
            num_nodes=self.num_nodes,
            num_contacts=len(self._contacts),
            duration=self.duration,
            num_pairs_with_contact=len(pairs),
            mean_contacts_per_pair=(len(self._contacts) / len(pairs)) if pairs else 0.0,
            mean_contact_duration=(sum(durations) / len(durations)) if durations else 0.0,
            mean_inter_contact=mean_gap,
            median_inter_contact=median,
        )


def _merge_overlapping(contacts: list[Contact]) -> list[Contact]:
    """Merge overlapping/adjacent contacts of the same pair.

    Input must already be sorted.  Output is sorted too.
    """
    open_by_pair: dict[tuple[int, int], Contact] = {}
    merged: list[Contact] = []
    for c in contacts:
        key = (c.a, c.b)
        current = open_by_pair.get(key)
        if current is not None and c.start <= current.end:
            if c.end > current.end:
                open_by_pair[key] = Contact(current.start, c.end, c.a, c.b)
        else:
            if current is not None:
                merged.append(current)
            open_by_pair[key] = c
    merged.extend(open_by_pair.values())
    _sort_contacts(merged)
    return merged
