"""Deterministic discrete-event simulation engine.

The engine is a classic event-heap design: callbacks are scheduled at
absolute simulation times, and :meth:`Simulator.run` pops them in
(time, priority, insertion-order) order.  Ties on time are broken first
by an explicit integer priority (lower runs first) and then by insertion
order, so a simulation with a fixed seed replays event-for-event.

A fresh simulator can also take one presorted *schedule*
(:meth:`Simulator.load_schedule`): events known before the run starts,
such as a contact trace, kept in plain lists instead of as heap events.
Events due at the current time join a same-time FIFO
(:meth:`Simulator.schedule_now`) instead of the heap: they can only run
before the clock moves on, in the order they were queued.  The run loop
merges its three sources -- schedule, heap and FIFO -- in the same
(time, priority, insertion-order) order, so an event runs at the same
place whichever source holds it.

Times are plain floats in seconds.  The engine knows nothing about
networks or traces; :mod:`repro.sim.network` builds on it.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from heapq import heappop
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.obs.records import EngineRun

#: Compaction kicks in only past this many cancelled entries, so small
#: simulations never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64

_INF = math.inf

#: Schedule times of a simulator with no schedule left: only the
#: sentinel every loaded schedule ends with.
_NO_SCHEDULE = (_INF,)


class SimulationError(RuntimeError):
    """Raised for invalid engine usage (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Events compare by ``(time, priority, seq)`` so the heap pops them
    deterministically.  ``cancelled`` events stay in the heap but are
    skipped when popped (lazy deletion).

    The heap itself stores ``(time, priority, seq, event)`` tuples so
    the run loop's comparisons are C-level tuple compares; the ordering
    methods here exist for API compatibility and match the tuple order
    exactly (``seq`` is unique, so the comparison never goes past it).
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple = (),
        cancelled: bool = False,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        self.sim = sim

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Event") -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Event") -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Event") -> bool:
        return self.sort_key() >= other.sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Event(t={self.time}, priority={self.priority}, seq={self.seq}, "
            f"cancelled={self.cancelled})"
        )

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._note_cancelled()


class Simulator:
    """Event heap plus simulation clock.

    Example::

        sim = Simulator()
        sim.schedule_at(5.0, print, "hello at t=5")
        sim.run(until=10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        #: heap of (time, priority, seq, Event) -- tuple entries keep the
        #: hottest comparison in the run loop a single C-level compare
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_executed = 0
        #: upper bound on cancelled events still sitting in the heap
        #: (an event cancelled after it was popped is counted but never
        #: found in the heap, so this may over-estimate -- compaction
        #: resets it to the truth)
        self._cancelled = 0
        #: the loaded schedule (see :meth:`load_schedule`): entry times
        #: followed by an ``inf`` sentinel, entry priorities, the
        #: dispatch callable, and the position of the next entry
        self._sched_times: Sequence[float] = _NO_SCHEDULE
        self._sched_prios: Sequence[int] = ()
        self._sched_dispatch: Optional[Callable[[int], None]] = None
        self._sched_pos = 0
        #: the same-time FIFO (see :meth:`schedule_now`): entries
        #: ``(time, priority, seq, callback, args)``, all at ``now`` and
        #: at one priority, so queue order is ``(priority, seq)`` order
        self._fifo: deque[tuple[float, int, int, Callable[..., None], tuple]] = deque()
        #: optional :class:`repro.obs.bus.EventBus`.  Checked once per
        #: :meth:`run` call -- never inside the event loop -- so a run
        #: without a bus executes the exact pre-instrumentation loop.
        self.trace = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks executed so far (skipped events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of events not yet run: schedule entries left, heap
        events (including cancelled ones) and same-time FIFO entries."""
        return (len(self._sched_prios) - self._sched_pos + len(self._heap)
                + len(self._fifo))

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling exactly at ``now`` is allowed (the event runs after
        the current callback returns).
        """
        # Single chained comparison covers the hot path: it is False for
        # times in the past, for +/-inf and for NaN, so the expensive
        # diagnostics only run on the error branch.
        if not (self._now <= time < _INF):
            if not math.isfinite(time):
                raise SimulationError(
                    f"cannot schedule at non-finite time {time!r}"
                )
            raise SimulationError(
                f"cannot schedule at t={time:.6f}, now is t={self._now:.6f}"
            )
        seq = next(self._seq)
        event = Event(float(time), priority, seq, callback, args, False, self)
        heapq.heappush(self._heap, (event.time, priority, seq, event))
        return event

    def schedule_now(
        self,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> None:
        """Schedule ``callback(*args)`` at ``now`` through the same-time
        FIFO.

        Runs exactly where ``schedule_at(now, callback, *args,
        priority=priority)`` would have, without an :class:`Event` or a
        heap push, and cannot be cancelled.  The FIFO holds one priority
        at a time: while it holds entries of another priority, the call
        falls back to the heap, which keeps the order exact.
        """
        fifo = self._fifo
        if fifo and fifo[0][1] != priority:
            self.schedule_at(self._now, callback, *args, priority=priority)
            return
        fifo.append((self._now, priority, next(self._seq), callback, args))

    def schedule_after(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after a relative ``delay`` seconds."""
        if not (0.0 <= delay < _INF):
            if not math.isfinite(delay):
                raise SimulationError(f"non-finite delay {delay!r}")
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def load_schedule(
        self,
        times: Sequence[float],
        priorities: Sequence[int],
        dispatch: Callable[[int], None],
    ) -> int:
        """Load a presorted schedule into a fresh simulator.

        Entry ``i`` runs as ``dispatch(i)`` at ``times[i]`` with priority
        ``priorities[i]``; ``dispatch`` is called exactly once per entry,
        in entry order.  The entries (arrays or sequences) must be
        sorted by ``(time, priority)``, finite and not in the past.

        The run order is identical to calling :meth:`schedule_at` once
        per entry before anything else.  Those calls would have given
        the entries lower sequence numbers than any later event, so at
        an equal ``(time, priority)`` the entry goes first.  That holds
        only while the entries are the first events of the run, so a
        simulator with pending or executed events raises
        :class:`SimulationError`.  A dispatched entry counts as an
        executed event.  Returns the number of entries loaded.
        """
        if (self._running or self._heap or self._fifo or self._events_executed
                or self._sched_dispatch is not None):
            raise SimulationError(
                "load_schedule needs a fresh simulator: nothing pending "
                "and nothing executed"
            )
        times = np.asarray(times, dtype=np.float64)
        priorities = np.asarray(priorities, dtype=np.int64)
        if times.ndim != 1 or times.shape != priorities.shape:
            raise SimulationError(
                "schedule times and priorities must be 1-d and of equal "
                f"length, got shapes {times.shape} and {priorities.shape}"
            )
        if not len(times):
            return 0
        finite = np.isfinite(times)
        if not finite.all():
            bad = float(times[~finite][0])
            raise SimulationError(f"cannot schedule at non-finite time {bad!r}")
        if times[0] < self._now:
            raise SimulationError(
                f"cannot schedule at t={times[0]:.6f}, now is t={self._now:.6f}"
            )
        step = np.diff(times)
        if ((step < 0) | ((step == 0) & (np.diff(priorities) < 0))).any():
            raise SimulationError("schedule is not sorted by (time, priority)")
        sched_times = times.tolist()
        sched_times.append(_INF)
        self._sched_times = sched_times
        self._sched_prios = priorities.tolist()
        self._sched_dispatch = dispatch
        self._sched_pos = 0
        return len(self._sched_prios)

    def _release_schedule(self) -> None:
        """Drop a consumed schedule, and with its dispatch callable
        whatever per-entry data that callable holds."""
        self._sched_times = _NO_SCHEDULE
        self._sched_prios = ()
        self._sched_dispatch = None
        self._sched_pos = 0

    def _note_cancelled(self) -> None:
        """Account one cancellation; compact the heap when cancelled
        entries outnumber live ones.

        Lazy deletion alone lets churn-heavy runs (periodic probes and
        timers cancelled en masse) grow the heap without bound.  The
        rebuild filters live entries and re-heapifies in place -- pops
        compare the full ``(time, priority, seq)`` key, so the pop order
        after compaction is identical.
        """
        self._cancelled += 1
        heap = self._heap
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(heap)
        ):
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Execute events in order until nothing is left or limits hit.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        Returns the simulation time when the run stopped.  When no event
        at or before ``until`` is left, the clock advances to ``until``,
        so a subsequent ``run`` continues from there.  A run that
        ``max_events`` stops leaves the clock at its last event, because
        the events after it may still be due before ``until``.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        fifo = self._fifo
        heappop = heapq.heappop
        popleft = fifo.popleft
        times = self._sched_times
        prios = self._sched_prios
        dispatch = self._sched_dispatch
        pos = self._sched_pos
        limit = _INF if until is None else until
        trace = self.trace
        if trace is not None:
            trace.emit(EngineRun(self._now, "begin", self._events_executed))
        try:
            executed = 0
            while True:
                # The next schedule entry (the inf sentinel once none is
                # left) runs unless the earlier of the FIFO and heap
                # heads is strictly before it.
                sched_time = times[pos]
                if fifo:
                    head = fifo[0]
                    from_fifo = not (heap and heap[0] < head)
                    if not from_fifo:
                        head = heap[0]
                elif heap:
                    head = heap[0]
                    from_fifo = False
                elif sched_time == _INF:
                    break
                else:
                    head = None
                if head is not None and (head[0] < sched_time or (
                        head[0] == sched_time and head[1] < prios[pos])):
                    if head[0] > limit:
                        break
                    if from_fifo:
                        # FIFO entries are due now: the clock stays
                        popleft()
                        head[3](*head[4])
                    else:
                        heappop(heap)
                        event = head[3]
                        if event.cancelled:
                            if self._cancelled > 0:
                                self._cancelled -= 1
                            continue
                        self._now = head[0]
                        event.callback(*event.args)
                else:
                    if sched_time > limit:
                        break
                    self._now = sched_time
                    pos += 1
                    self._sched_pos = pos
                    dispatch(pos - 1)
                self._events_executed += 1
                executed += 1
                if max_events is not None and executed >= max_events:
                    return self._now
            if until is not None and self._now < until:
                self._now = until
            return self._now
        finally:
            if dispatch is not None and pos == len(prios):
                self._release_schedule()
            self._running = False
            if trace is not None:
                trace.emit(EngineRun(self._now, "end", self._events_executed))

    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event ran, ``False`` if nothing is left.
        """
        if self._running:
            raise SimulationError("step() cannot run inside run()")
        # The merge test of run(), repeated rather than shared: run()
        # brackets itself with engine.run records, and the live service
        # calls step() once per event.
        heap = self._heap
        fifo = self._fifo
        while True:
            pos = self._sched_pos
            sched_time = self._sched_times[pos]
            if fifo:
                head = fifo[0]
                from_fifo = not (heap and heap[0] < head)
                if not from_fifo:
                    head = heap[0]
            elif heap:
                head = heap[0]
                from_fifo = False
            else:
                head = None
            if head is not None and (head[0] < sched_time or (
                    head[0] == sched_time and head[1] < self._sched_prios[pos])):
                if from_fifo:
                    fifo.popleft()
                    head[3](*head[4])
                    self._events_executed += 1
                    return True
                time, _, _, event = head
                heappop(heap)
                if event.cancelled:
                    if self._cancelled > 0:
                        self._cancelled -= 1
                    continue
                self._now = time
                event.callback(*event.args)
                self._events_executed += 1
                return True
            if sched_time == _INF:
                return False
            dispatch = self._sched_dispatch
            self._sched_pos = pos + 1
            if pos + 1 == len(self._sched_prios):
                self._release_schedule()
            self._now = sched_time
            dispatch(pos)
            self._events_executed += 1
            return True

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if drained."""
        if self._fifo:
            # FIFO entries are due now, and nothing pending is earlier
            return self._fifo[0][0]
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            if self._cancelled > 0:
                self._cancelled -= 1
        sched_time = self._sched_times[self._sched_pos]
        if heap:
            time = heap[0][0]
            if time < sched_time:
                return time
        return None if sched_time == _INF else sched_time
