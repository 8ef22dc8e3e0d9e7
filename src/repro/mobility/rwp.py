"""Random-waypoint spatial mobility with contact extraction.

Unlike the Poisson generators, this model moves nodes through space and
derives contacts geometrically: two nodes are in contact while their
distance is below ``radio_range``.  It exists (a) as an independent
cross-check that the schemes do not depend on the exponential
inter-contact assumption, and (b) to exercise the trace pipeline with a
mobility model whose contacts have realistic spatial correlation.

Nodes move on a square of side ``area``: pick a uniform waypoint, move
toward it at a speed uniform in ``[speed_min, speed_max]``, optionally
pause, repeat.  Positions are sampled every ``sample_interval`` seconds
and :func:`proximity_chunks` builds contact intervals from the sampled
proximity indicator; the Levy-walk model reuses it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mobility.arrays import ContactArrays
from repro.mobility.synthetic import DEFAULT_CHUNK_CONTACTS
from repro.mobility.trace import ContactTrace


class RandomWaypointModel:
    """Random-waypoint mobility on a square area."""

    def __init__(
        self,
        n: int,
        area: float = 1000.0,
        radio_range: float = 30.0,
        speed_min: float = 0.5,
        speed_max: float = 2.0,
        pause_max: float = 120.0,
        sample_interval: float = 10.0,
        name: str = "rwp",
    ) -> None:
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if not 0 < speed_min <= speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        if radio_range <= 0 or area <= 0 or sample_interval <= 0:
            raise ValueError("area, radio_range and sample_interval must be positive")
        self.n = int(n)
        self.area = float(area)
        self.radio_range = float(radio_range)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.pause_max = float(pause_max)
        self.sample_interval = float(sample_interval)
        self.name = name
        self.node_ids = list(range(self.n))

    def positions(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        """Sampled positions, shape ``(num_samples, n, 2)``."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        num_samples = int(duration / self.sample_interval) + 1
        pos = rng.random((self.n, 2)) * self.area
        target = rng.random((self.n, 2)) * self.area
        speed = rng.uniform(self.speed_min, self.speed_max, size=self.n)
        pause_left = np.zeros(self.n)
        out = np.empty((num_samples, self.n, 2))
        dt = self.sample_interval
        for k in range(num_samples):
            out[k] = pos
            for i in range(self.n):
                if pause_left[i] > 0:
                    pause_left[i] = max(0.0, pause_left[i] - dt)
                    continue
                vec = target[i] - pos[i]
                dist = float(np.hypot(vec[0], vec[1]))
                step = speed[i] * dt
                if dist <= step:
                    pos[i] = target[i]
                    target[i] = rng.random(2) * self.area
                    speed[i] = rng.uniform(self.speed_min, self.speed_max)
                    if self.pause_max > 0:
                        pause_left[i] = rng.uniform(0.0, self.pause_max)
                else:
                    pos[i] = pos[i] + vec * (step / dist)
        return out

    def generate(self, duration: float, rng: np.random.Generator) -> ContactTrace:
        """Derive contact intervals from sampled proximity."""
        return self.generate_arrays(duration, rng).to_trace()

    def generate_chunks(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Yield the trace as lexsorted ``(start, end, a, b)`` blocks
        (see :func:`proximity_chunks`)."""
        yield from proximity_chunks(
            self.positions(duration, rng), self.sample_interval,
            self.radio_range, chunk_contacts,
        )

    def generate_arrays(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> ContactArrays:
        """Chunked generation assembled into a :class:`ContactArrays`.

        A pair that closes can only reopen a full sample later, so
        intervals of one pair never overlap or touch and assembly skips
        the merge pass.
        """
        return ContactArrays.from_blocks(
            self.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=False,
        )


def proximity_chunks(
    samples: np.ndarray,
    sample_interval: float,
    radio_range: float,
    chunk_contacts: int,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Contact intervals of sampled positions, as lexsorted blocks.

    ``samples`` has shape ``(num_samples, n, 2)``, sample ``k`` taken at
    ``k * sample_interval``.  A contact spans every maximal run of
    samples in which a pair sits within ``radio_range``: it opens at the
    run's first sample and closes at the first sample out of range, or
    at the last sample (the horizon) if it is still open and opened
    before it.  Intervals are discovered in close-time order, and a
    block is flushed once it holds at least ``chunk_contacts`` of them.
    The spatial models share this extractor; it draws no random numbers.
    """
    if chunk_contacts < 1:
        raise ValueError("chunk_contacts must be positive")
    num_samples, n = samples.shape[:2]
    range2 = radio_range**2
    iu_i, iu_j = np.triu_indices(n, k=1)
    open_mask = np.zeros(len(iu_i), dtype=bool)
    open_start = np.zeros(len(iu_i), dtype=np.float64)
    buf: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    buffered = 0
    for k in range(num_samples):
        t = k * sample_interval
        pts = samples[k]
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = (diff**2).sum(axis=2)
        near = dist2[iu_i, iu_j] <= range2
        closes = open_mask & ~near
        if bool(closes.any()):
            s = open_start[closes]
            buf.append((s, np.full(len(s), t), iu_i[closes], iu_j[closes]))
            buffered += len(s)
        opens = near & ~open_mask
        open_start[opens] = t
        open_mask = near
        if buffered >= chunk_contacts:
            yield _flush(buf)
            buf, buffered = [], 0
    horizon = (num_samples - 1) * sample_interval
    final = open_mask & (open_start < horizon)
    if bool(final.any()):
        s = open_start[final]
        buf.append((s, np.full(len(s), horizon), iu_i[final], iu_j[final]))
    if buf:
        yield _flush(buf)


def _flush(
    buf: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    s = np.concatenate([p[0] for p in buf])
    e = np.concatenate([p[1] for p in buf])
    a = np.concatenate([p[2] for p in buf])
    b = np.concatenate([p[3] for p in buf])
    order = np.lexsort((b, a, e, s))
    return s[order], e[order], a[order], b[order]
