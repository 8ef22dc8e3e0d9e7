"""Community-structured and diurnal contact models.

Human contact traces show two structures beyond pairwise heterogeneity:

- **communities** -- groups (labs, classes, households) whose members
  meet each other far more often than outsiders, plus a few socially
  central "hub" people; and
- **diurnal rhythm** -- contact activity follows the day/night cycle.

:class:`CommunityModel` composes the community rate matrix of
:mod:`repro.mobility.synthetic` with the Poisson generator.
:class:`DiurnalModel` wraps any rate matrix in an inhomogeneous Poisson
process via thinning, modulated by a 24-hour activity profile.  These
are the HCMM-flavoured generators used by the calibrated trace profiles.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from repro.mobility.arrays import ContactArrays
from repro.mobility.synthetic import (
    DEFAULT_CHUNK_CONTACTS,
    PoissonContactModel,
    community_rate_matrix,
)
from repro.mobility.trace import ContactTrace

#: Default 24-hour activity profile (fraction of peak rate per hour),
#: low overnight, peaks mid-morning and mid-afternoon.
DEFAULT_ACTIVITY = (
    0.05, 0.03, 0.02, 0.02, 0.03, 0.08,  # 00-05
    0.20, 0.50, 0.90, 1.00, 0.95, 0.85,  # 06-11
    0.90, 0.95, 1.00, 0.95, 0.85, 0.70,  # 12-17
    0.55, 0.45, 0.35, 0.25, 0.15, 0.08,  # 18-23
)


class CommunityModel:
    """Community-structured heterogeneous Poisson contact generator."""

    def __init__(
        self,
        n: int,
        num_communities: int,
        intra_rate: float,
        inter_rate: float,
        rng: np.random.Generator,
        mean_duration: float = 300.0,
        hub_fraction: float = 0.1,
        hub_multiplier: float = 4.0,
        name: str = "community",
    ) -> None:
        self.rates, self.membership = community_rate_matrix(
            n,
            num_communities,
            intra_rate,
            inter_rate,
            rng,
            hub_fraction=hub_fraction,
            hub_multiplier=hub_multiplier,
        )
        self.mean_duration = float(mean_duration)
        self._model = PoissonContactModel(self.rates, mean_duration=mean_duration, name=name)
        self.name = name

    @property
    def node_ids(self) -> list[int]:
        return self._model.node_ids

    def generate(self, duration: float, rng: np.random.Generator) -> ContactTrace:
        return self._model.generate(duration, rng)

    def generate_chunks(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Chunked generation (see :meth:`PoissonContactModel.generate_chunks`)."""
        return self._model.generate_chunks(duration, rng, chunk_contacts=chunk_contacts)

    def generate_arrays(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> ContactArrays:
        return self._model.generate_arrays(duration, rng, chunk_contacts=chunk_contacts)

    def community_of(self, node_id: int) -> int:
        return int(self.membership[node_id])


class DiurnalModel:
    """Inhomogeneous Poisson contacts: base rates x time-of-day activity.

    Generation uses thinning: candidate contacts are drawn at the peak
    rate and kept with probability equal to the activity level at their
    start time.  The activity profile is a sequence of per-hour
    multipliers in [0, 1] (length 24), repeated over the horizon.
    """

    def __init__(
        self,
        rates: np.ndarray,
        activity: Sequence[float] = DEFAULT_ACTIVITY,
        mean_duration: float = 300.0,
        node_ids: Optional[list[int]] = None,
        name: str = "diurnal",
    ) -> None:
        if len(activity) != 24:
            raise ValueError("activity profile must have 24 hourly values")
        activity_arr = np.asarray(activity, dtype=float)
        if (activity_arr < 0).any() or (activity_arr > 1).any():
            raise ValueError("activity values must be in [0, 1]")
        self.activity = activity_arr
        self._peak_model = PoissonContactModel(
            np.asarray(rates, dtype=float), mean_duration=mean_duration,
            node_ids=node_ids, name=name,
        )
        self.name = name

    @property
    def node_ids(self) -> list[int]:
        return self._peak_model.node_ids

    def activity_at(self, time: float) -> float:
        """Activity multiplier at absolute time ``time`` (seconds)."""
        hour = int(time // 3600) % 24
        return float(self.activity[hour])

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
        """Yield the thinned trace as lexsorted ``(start, end, a, b)`` blocks.

        Every candidate is drawn before any thinning uniform, and one
        uniform is drawn per candidate in global trace order -- so the
        candidate blocks are generated first, assembled sorted, and then
        thinned slice by slice (consecutive ``rng.random(k)`` calls read
        the same stream as one big draw, so the block size does not
        change the trace).
        """
        candidate = ContactArrays.from_blocks(
            self._peak_model.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=False,
        )
        m = len(candidate)
        for lo in range(0, m, chunk_contacts):
            hi = min(lo + chunk_contacts, m)
            starts = candidate.start[lo:hi]
            u = rng.random(hi - lo)
            hours = (starts // 3600.0).astype(np.int64) % 24
            keep = u < self.activity[hours]
            yield (
                starts[keep],
                candidate.end[lo:hi][keep],
                candidate.a[lo:hi][keep],
                candidate.b[lo:hi][keep],
            )

    def generate_arrays(
        self,
        duration: float,
        rng: np.random.Generator,
        chunk_contacts: int = DEFAULT_CHUNK_CONTACTS,
    ) -> ContactArrays:
        return ContactArrays.from_blocks(
            self.generate_chunks(duration, rng, chunk_contacts=chunk_contacts),
            node_ids=self.node_ids,
            name=self.name,
            merge_overlaps=False,
        )

    def effective_mean_activity(self) -> float:
        """Average of the activity profile (thinning acceptance rate)."""
        return float(self.activity.mean())
