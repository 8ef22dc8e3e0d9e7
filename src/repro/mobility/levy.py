"""Levy-walk spatial mobility with contact extraction.

Vehicular and human GPS traces show *scale-free* displacement: most
moves are short, but occasional long flights relocate a node across the
whole area (Rhee et al., "On the Levy-walk nature of human mobility").
A random waypoint model misses this heavy tail; this model generates it
directly:

1. draw a flight length from a truncated Pareto (power-law exponent
   ``alpha``, cut off at the arena diagonal) and a uniform direction;
2. traverse the flight at a speed coupled to its length (long flights
   are faster -- the vehicular regime), reflecting off the arena walls;
3. pause for a truncated-Pareto time (exponent ``beta``) and repeat.

Contacts are derived geometrically by the extractor
:class:`~repro.mobility.rwp.RandomWaypointModel` uses,
:func:`~repro.mobility.rwp.proximity_chunks`: positions are sampled
every ``sample_interval`` seconds and a contact spans every maximal run
of samples in which two nodes sit within ``radio_range``.  The
heavy-tailed flights produce the bursty, long-range re-mixing that makes
vehicular traces hard for purely rate-based schemes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.mobility.arrays import ContactArrays
from repro.mobility.rwp import proximity_chunks
from repro.mobility.synthetic import DEFAULT_CHUNK_CONTACTS
from repro.mobility.trace import ContactTrace


def truncated_pareto(
    rng: np.random.Generator,
    alpha: float,
    lo: float,
    hi: float,
    size: int | None = None,
) -> "np.ndarray | float":
    """Draw from a Pareto(``alpha``) truncated to ``[lo, hi]``.

    Inverse-CDF sampling of ``p(x) ~ x**-(alpha+1)`` restricted to the
    interval, so the tail is genuinely power-law up to the cutoff
    (re-drawing until below ``hi`` would consume an unbounded number of
    RNG draws and break per-seed determinism).

    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> x = truncated_pareto(rng, alpha=1.5, lo=10.0, hi=1000.0, size=1000)
    >>> bool((x >= 10.0).all() and (x <= 1000.0).all())
    True
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    u = rng.random(size) if size is not None else rng.random()
    lo_a = lo**-alpha
    hi_a = hi**-alpha
    return (lo_a - u * (lo_a - hi_a)) ** (-1.0 / alpha)


class LevyWalkModel:
    """Levy-walk mobility on a square arena (vehicular regime).

    ``alpha`` is the flight-length exponent (smaller = heavier tail;
    Rhee et al. report ~1.5 for human walks, vehicular traces trend
    lower), ``beta`` the pause-time exponent.  Speed scales with flight
    length as ``speed = speed_scale * length**speed_exponent`` clipped
    to ``[speed_min, speed_max]`` -- long flights are driven, short ones
    walked.
    """

    def __init__(
        self,
        n: int,
        area: float = 2000.0,
        radio_range: float = 50.0,
        alpha: float = 1.4,
        beta: float = 1.8,
        flight_min: float = 20.0,
        pause_min: float = 10.0,
        pause_max: float = 600.0,
        speed_min: float = 1.0,
        speed_max: float = 15.0,
        speed_scale: float = 0.5,
        speed_exponent: float = 0.5,
        sample_interval: float = 10.0,
        name: str = "levy",
    ) -> None:
        if n < 2:
            raise ValueError("need at least 2 nodes")
        if area <= 0 or radio_range <= 0 or sample_interval <= 0:
            raise ValueError("area, radio_range and sample_interval must be positive")
        if alpha <= 0 or beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if not 0 < flight_min < area:
            raise ValueError("need 0 < flight_min < area")
        if not 0 < pause_min < pause_max:
            raise ValueError("need 0 < pause_min < pause_max")
        if not 0 < speed_min <= speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        self.n = int(n)
        self.area = float(area)
        self.radio_range = float(radio_range)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.flight_min = float(flight_min)
        self.flight_max = float(np.hypot(area, area))
        self.pause_min = float(pause_min)
        self.pause_max = float(pause_max)
        self.speed_min = float(speed_min)
        self.speed_max = float(speed_max)
        self.speed_scale = float(speed_scale)
        self.speed_exponent = float(speed_exponent)
        self.sample_interval = float(sample_interval)
        self.name = name
        self.node_ids = list(range(self.n))

    def _flight_speed(self, length: np.ndarray) -> np.ndarray:
        speed = self.speed_scale * length**self.speed_exponent
        return np.clip(speed, self.speed_min, self.speed_max)

    def positions(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        """Sampled positions, shape ``(num_samples, n, 2)``.

        All nodes draw their next flight/pause in node-id order whenever
        they finish the previous one, so the draw sequence -- and hence
        the trace -- is a pure function of the seed.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        num_samples = int(duration / self.sample_interval) + 1
        pos = rng.random((self.n, 2)) * self.area
        # Per-node leg state: target of the current flight, speed, and
        # remaining pause.  Nodes start paused for a uniform fraction of
        # a pause draw so they do not all depart in lockstep.
        target = pos.copy()
        speed = np.full(self.n, self.speed_min)
        pause_left = truncated_pareto(
            rng, self.beta, self.pause_min, self.pause_max, size=self.n
        ) * rng.random(self.n)
        out = np.empty((num_samples, self.n, 2))
        dt = self.sample_interval
        for k in range(num_samples):
            out[k] = pos
            for i in range(self.n):
                if pause_left[i] > 0:
                    pause_left[i] -= dt
                    if pause_left[i] > 0:
                        continue
                    pause_left[i] = 0.0
                    self._new_flight(i, pos, target, speed, rng)
                vec = target[i] - pos[i]
                dist = float(np.hypot(vec[0], vec[1]))
                step = speed[i] * dt
                if dist <= step:
                    pos[i] = target[i]
                    pause_left[i] = float(
                        truncated_pareto(rng, self.beta, self.pause_min, self.pause_max)
                    )
                else:
                    pos[i] = pos[i] + vec * (step / dist)
        return out

    def _new_flight(
        self,
        i: int,
        pos: np.ndarray,
        target: np.ndarray,
        speed: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        length = float(
            truncated_pareto(rng, self.alpha, self.flight_min, self.flight_max)
        )
        angle = rng.random() * 2.0 * np.pi
        dest = pos[i] + length * np.array([np.cos(angle), np.sin(angle)])
        # Reflect off the arena walls (a vehicle turns at the boundary).
        dest = np.abs(dest)
        dest = self.area - np.abs(self.area - dest % (2.0 * self.area))
        target[i] = dest
        speed[i] = float(self._flight_speed(np.array([length]))[0])

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
        (see :func:`~repro.mobility.rwp.proximity_chunks`)."""
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
        intervals of one pair never overlap and assembly skips the
        merge pass.
        """
        return ContactArrays.from_blocks(
            self.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=False,
        )

