"""Working-day mobility: contacts from daily routines (Ekman et al. style).

Where the Poisson generators postulate pairwise rates, this model
*derives* contacts from behaviour: every node has a **home**, an
**office** and access to shared **meeting spots**; days cycle through
night (at home), work (at the office, with occasional meetings), and an
evening slot (some nodes visit a spot).  Two nodes are in contact while
co-located in the same hour-slot.

The emergent trace has the structures real traces show -- households
(nodes sharing a home meet every night), office communities, hub spots
-- generated from first principles rather than calibrated rates.  It
serves as an out-of-model check: the schemes' rate estimators and
hierarchy builder never see the behavioural ground truth, only the
contacts.

Hour-by-hour schedule (local time):

====== ==========================================================
hours  behaviour
====== ==========================================================
0-7    at home
8      commute (no contacts)
9-16   at the office; each hour a node joins a meeting spot with
       probability ``meeting_prob`` instead of its office
17     commute (no contacts)
18-21  with probability ``evening_prob`` at a random spot, else home
22-23  at home
====== ==========================================================
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mobility.arrays import ContactArrays
from repro.mobility.synthetic import DEFAULT_CHUNK_CONTACTS
from repro.mobility.trace import ContactTrace

HOUR = 3600.0


class WorkingDayModel:
    """Behavioural contact generator built on homes, offices and spots."""

    def __init__(
        self,
        n: int,
        num_offices: int = 4,
        num_spots: int = 3,
        household_size: int = 2,
        meeting_prob: float = 0.15,
        evening_prob: float = 0.3,
        contact_fraction: float = 0.5,
        rng: np.random.Generator | None = None,
        name: str = "workingday",
    ) -> None:
        """Assign homes and offices.

        ``household_size`` groups consecutive nodes into shared homes
        (1 = everyone lives alone).  ``contact_fraction`` is the mean
        fraction of a co-located hour two nodes actually spend within
        radio range (contact durations are Exp with that mean, capped
        at the hour).
        """
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if num_offices < 1 or num_spots < 1:
            raise ValueError("need at least one office and one spot")
        if household_size < 1:
            raise ValueError("household_size must be >= 1")
        if not 0.0 <= meeting_prob <= 1.0 or not 0.0 <= evening_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if not 0.0 < contact_fraction <= 1.0:
            raise ValueError("contact_fraction must be in (0, 1]")
        self.n = int(n)
        self.num_offices = int(num_offices)
        self.num_spots = int(num_spots)
        self.meeting_prob = float(meeting_prob)
        self.evening_prob = float(evening_prob)
        self.contact_fraction = float(contact_fraction)
        self.name = name
        self.node_ids = list(range(self.n))
        rng = rng or np.random.default_rng()
        self.home = np.array([k // household_size for k in range(self.n)])
        self.office = rng.integers(0, self.num_offices, size=self.n)

    def household_of(self, node: int) -> int:
        return int(self.home[node])

    def office_of(self, node: int) -> int:
        return int(self.office[node])

    def _locations_at(self, hour_of_day: int, rng: np.random.Generator) -> np.ndarray:
        """Location token per node for one hour (-1 = travelling/alone)."""
        locations = np.full(self.n, -1, dtype=np.int64)
        if hour_of_day <= 7 or hour_of_day >= 22:
            locations = 1_000_000 + self.home
        elif 9 <= hour_of_day <= 16:
            locations = 2_000_000 + self.office
            meeting = rng.random(self.n) < self.meeting_prob
            if meeting.any():
                spots = rng.integers(0, self.num_spots, size=int(meeting.sum()))
                locations[meeting] = 3_000_000 + spots
        elif 18 <= hour_of_day <= 21:
            out = rng.random(self.n) < self.evening_prob
            locations = 1_000_000 + self.home
            if out.any():
                spots = rng.integers(0, self.num_spots, size=int(out.sum()))
                locations[out] = 3_000_000 + spots
        return locations

    def generate(self, duration: float, rng: np.random.Generator) -> ContactTrace:
        """Generate a trace over ``[0, duration]`` seconds."""
        return self.generate_arrays(duration, rng).to_trace()

    def generate_chunks(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield the trace as lexsorted ``(start, end, a, b)`` blocks.

        Hour by hour, every co-located pair draws a start offset and a
        length (``uniform`` then ``exponential``, interleaved per pair,
        so they cannot be batched without changing the stream).  Rows
        are buffered into arrays and flushed at hour boundaries.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if chunk_contacts < 1:
            raise ValueError("chunk_contacts must be positive")
        num_hours = int(duration // HOUR)
        mean_len = self.contact_fraction * HOUR
        buf_s: list[float] = []
        buf_e: list[float] = []
        buf_a: list[int] = []
        buf_b: list[int] = []
        for hour_index in range(num_hours):
            hour_of_day = hour_index % 24
            locations = self._locations_at(hour_of_day, rng)
            slot_start = hour_index * HOUR
            by_place: dict[int, list[int]] = {}
            for node, place in enumerate(locations):
                if place >= 0:
                    by_place.setdefault(int(place), []).append(node)
            for members in by_place.values():
                if len(members) < 2:
                    continue
                for i, a in enumerate(members):
                    for b in members[i + 1 :]:
                        offset = rng.uniform(0.0, 0.5 * HOUR)
                        length = min(
                            float(rng.exponential(mean_len)), HOUR - offset
                        )
                        if length <= 0:
                            continue
                        start = slot_start + offset
                        end = min(start + length, slot_start + HOUR, duration)
                        if end > start:
                            buf_s.append(start)
                            buf_e.append(end)
                            buf_a.append(a)
                            buf_b.append(b)
            if len(buf_s) >= chunk_contacts:
                yield _sorted_block(buf_s, buf_e, buf_a, buf_b)
                buf_s, buf_e, buf_a, buf_b = [], [], [], []
        if buf_s:
            yield _sorted_block(buf_s, buf_e, buf_a, buf_b)

    def generate_arrays(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> ContactArrays:
        """Chunked generation assembled into a :class:`ContactArrays`.

        A pair co-located in consecutive hours can (measure-zero offset
        draw) produce touching intervals across blocks, so assembly
        keeps the merge pass on, matching :class:`ContactTrace`.
        """
        return ContactArrays.from_blocks(
            self.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=True,
        )


def _sorted_block(
    buf_s: list[float], buf_e: list[float], buf_a: list[int], buf_b: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    s = np.asarray(buf_s, dtype=np.float64)
    e = np.asarray(buf_e, dtype=np.float64)
    a = np.asarray(buf_a, dtype=np.int64)
    b = np.asarray(buf_b, dtype=np.int64)
    order = np.lexsort((b, a, e, s))
    return s[order], e[order], a[order], b[order]
