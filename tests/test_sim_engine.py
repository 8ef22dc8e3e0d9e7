"""Unit and property tests for the discrete-event engine."""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Event, SimulationError, Simulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, order.append, "b")
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(9.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_ties_broken_by_priority_then_insertion(self):
        sim = Simulator()
        order = []
        sim.schedule_at(1.0, order.append, "late", priority=10)
        sim.schedule_at(1.0, order.append, "first", priority=0)
        sim.schedule_at(1.0, order.append, "second", priority=0)
        sim.run()
        assert order == ["first", "second", "late"]

    def test_schedule_after_is_relative(self):
        sim = Simulator(start_time=100.0)
        seen = []
        sim.schedule_after(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [105.0]

    def test_scheduling_in_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(9.999, lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_scheduling_at_now_runs_after_current(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_at(sim.now, order.append, "nested")

        sim.schedule_at(1.0, first)
        sim.schedule_at(1.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]


class TestRun:
    def test_until_is_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, seen.append, "at")
        sim.schedule_at(5.0001, seen.append, "after")
        sim.run(until=5.0)
        assert seen == ["at"]

    def test_clock_reaches_until_even_when_drained(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_run_resumes(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, seen.append, 1)
        sim.schedule_at(10.0, seen.append, 10)
        sim.run(until=5.0)
        assert seen == [1]
        sim.run(until=20.0)
        assert seen == [1, 10]

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for t in range(5):
            sim.schedule_at(float(t), seen.append, t)
        sim.run(max_events=2)
        assert seen == [0, 1]

    def test_max_events_stop_keeps_the_clock(self):
        """A run that ``max_events`` stops must not move the clock to
        ``until``: the events after its last are still due before it."""
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0, 50.0):
            sim.schedule_at(t, seen.append, t)
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert (sim.now, sim.peek_time(), sim.pending) == (1.0, 2.0, 3)
        sim.schedule_at(5.0, seen.append, 5.0)
        clock = []
        sim.schedule_at(2.0, lambda: clock.append(sim.now))
        assert sim.run(until=10.0) == 10.0
        assert seen == [1.0, 2.0, 3.0, 5.0] and clock == [2.0]
        assert sim.pending == 1

    def test_max_events_stop_with_same_time_entries_left(self):
        sim = Simulator()
        seen = []

        def deliver():
            seen.append("sent")
            for tag in ("a", "b"):
                sim.schedule_now(seen.append, tag, priority=5)

        sim.schedule_at(1.0, deliver)
        assert sim.run(until=10.0, max_events=2) == 1.0
        assert seen == ["sent", "a"] and sim.pending == 1
        assert sim.run(until=10.0) == 10.0
        assert seen == ["sent", "a", "b"]

    def test_max_events_stop_at_the_last_event_keeps_the_clock(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.run(until=10.0, max_events=1) == 1.0
        assert sim.run(until=10.0) == 10.0

    def test_events_executed_counts_only_run_events(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        sim.schedule_at(2.0, lambda: None)
        sim.run()
        assert sim.events_executed == 1

    def test_reentrant_run_raises(self):
        sim = Simulator()

        def reenter():
            sim.run()

        sim.schedule_at(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancelStepPeek:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        seen = []
        event = sim.schedule_at(1.0, seen.append, "cancelled")
        sim.schedule_at(2.0, seen.append, "kept")
        event.cancel()
        sim.run()
        assert seen == ["kept"]

    def test_step_runs_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, seen.append, "a")
        sim.schedule_at(2.0, seen.append, "b")
        assert sim.step() is True
        assert seen == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_empty(self):
        assert Simulator().peek_time() is None


class TestEventOrderingProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=-5, max_value=5),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_pops_in_sorted_order(self, specs):
        sim = Simulator()
        executed = []

        def record(time, priority, index):
            executed.append((time, priority, index))

        for index, (time, priority) in enumerate(specs):
            sim.schedule_at(time, record, time, priority, index, priority=priority)
        sim.run()
        assert executed == sorted(executed)
        assert len(executed) == len(specs)

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_clock_never_goes_backwards(self, times):
        sim = Simulator()
        observed = []
        for t in times:
            sim.schedule_at(t, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)


class TestSameTimeFifo:
    """``schedule_now`` runs exactly where ``schedule_at(now)`` would."""

    def test_merges_with_heap_and_schedule_by_priority_then_seq(self):
        sim = Simulator()
        fired = []
        sim.load_schedule([1.0, 1.0], [0, 5], fired.append)

        def burst():
            fired.append("burst")
            sim.schedule_now(fired.append, "fifo-1", priority=5)
            sim.schedule_at(1.0, fired.append, "heap-0", priority=0)
            sim.schedule_at(1.0, fired.append, "heap-5", priority=5)
            sim.schedule_now(fired.append, "fifo-2", priority=5)
            sim.schedule_at(1.0, fired.append, "heap-10", priority=10)

        sim.schedule_at(1.0, fired.append, "early-5", priority=5)
        sim.schedule_at(1.0, burst)
        sim.run()
        assert fired == [0, "burst", "heap-0", 1, "early-5", "fifo-1",
                         "heap-5", "fifo-2", "heap-10"]
        assert sim.events_executed == 9

    def test_other_priority_keeps_its_place(self):
        sim = Simulator()
        fired = []

        def burst():
            sim.schedule_now(fired.append, "five", priority=5)
            sim.schedule_now(fired.append, "zero", priority=0)
            sim.schedule_now(fired.append, "five-again", priority=5)
            sim.schedule_now(fired.append, "ten", priority=10)

        sim.schedule_at(2.0, burst)
        sim.run()
        assert fired == ["zero", "five", "five-again", "ten"]

    def test_step_peek_and_pending_see_the_fifo(self):
        sim = Simulator()
        fired = []

        def burst():
            sim.schedule_now(fired.append, "a", priority=5)
            sim.schedule_now(fired.append, "b", priority=5)

        sim.schedule_at(1.0, burst)
        sim.schedule_at(3.0, fired.append, "later")
        assert sim.step()
        assert (sim.peek_time(), sim.pending) == (1.0, 3)
        assert sim.step() and fired == ["a"]
        assert sim.step() and fired == ["a", "b"]
        assert sim.peek_time() == 3.0
        assert sim.step() and not sim.step()
        assert fired == ["a", "b", "later"] and sim.events_executed == 4

    def test_load_schedule_needs_an_empty_fifo(self):
        sim = Simulator()
        sim.schedule_now(lambda: None)
        with pytest.raises(SimulationError, match="fresh simulator"):
            sim.load_schedule([1.0], [0], lambda pos: None)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]),
                st.sampled_from([0, 5, 5, 10]),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from(["run", "chunks", "step"]),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_order_as_schedule_at_now(self, plan, mode, chunk):
        """Every callback schedules ``plan``'s children, those due now
        through the FIFO; the run must match the all-heap run, however
        it is driven."""

        def build(use_fifo):
            sim = Simulator()
            log = []

            def fire(tag, depth):
                log.append((sim.now, tag))
                if depth >= 2:
                    return
                for k, (delay, priority, fan) in enumerate(plan):
                    for j in range(fan):
                        child = f"{tag}.{k}{j}"
                        if delay == 0.0 and use_fifo:
                            sim.schedule_now(fire, child, depth + 1,
                                             priority=priority)
                        else:
                            sim.schedule_at(sim.now + delay, fire, child,
                                            depth + 1, priority=priority)

            sim.load_schedule([0.0, 1.0, 1.0], [0, 5, 10],
                              lambda pos: fire(f"s{pos}", 1))
            sim.schedule_at(0.0, fire, "root", 0, priority=5)
            return sim, log

        expected_sim, expected = build(False)
        expected_sim.run()
        sim, log = build(True)
        if mode == "run":
            sim.run()
        elif mode == "chunks":
            until = 0.0
            while sim.pending:
                sim.run(until=until, max_events=chunk)
                until += 0.5
        else:
            while sim.step():
                pass
        assert log == expected
        assert sim.events_executed == expected_sim.events_executed
        assert sim.pending == 0


class TestEventDataclass:
    def test_event_comparison_ignores_callback(self):
        a = Event(1.0, 0, 0, lambda: None)
        b = Event(1.0, 0, 1, print)
        assert a < b


class TestHeapOrderEquivalence:
    """The tuple-entry heap must pop in exactly the order the old
    ``@dataclass(order=True)`` event heap did."""

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
                st.integers(min_value=-3, max_value=3),
                st.booleans(),
            ),
            min_size=1,
            max_size=150,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_pop_order_matches_legacy_dataclass_heap(self, specs):
        import heapq
        from dataclasses import dataclass, field
        from typing import Callable

        @dataclass(order=True)
        class LegacyEvent:  # the seed engine's heap entry, verbatim
            time: float
            priority: int
            seq: int
            callback: Callable[..., None] = field(compare=False)
            args: tuple = field(compare=False, default=())
            cancelled: bool = field(compare=False, default=False)

        legacy_heap = []
        cancelled_seqs = set()
        sim = Simulator()
        current_order = []

        def record(event):
            current_order.append(event.sort_key())

        for seq, (time, priority, cancel) in enumerate(specs):
            heapq.heappush(
                legacy_heap, LegacyEvent(time, priority, seq, lambda: None)
            )
            event = sim.schedule_at(time, record, priority=priority)
            event.args = (event,)
            if cancel:
                cancelled_seqs.add(seq)
                event.cancel()

        legacy_order = []
        while legacy_heap:
            legacy = heapq.heappop(legacy_heap)
            if legacy.seq not in cancelled_seqs:
                legacy_order.append((legacy.time, legacy.priority, legacy.seq))
        sim.run()

        assert current_order == legacy_order


class TestNonFiniteTimes:
    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(float("nan"), lambda: None)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")])
    def test_schedule_at_rejects_inf(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_at(bad, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_schedule_after_rejects_non_finite_delay(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule_after(bad, lambda: None)

    def test_heap_stays_usable_after_rejection(self):
        # a NaN time used to slip into the heap and poison its ordering
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "a")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), fired.append, "poison")
        sim.schedule_at(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]


class TestCancelledCompaction:
    def test_mass_cancellation_shrinks_heap(self):
        sim = Simulator()
        events = [sim.schedule_at(float(i), lambda: None) for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        # lazy deletion alone would leave all 1000 entries in the heap
        assert sim.pending < 500
        sim.run()
        assert sim.events_executed == 100

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        events = [sim.schedule_at(float(i), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
            event.cancel()
        sim.run()
        assert sim.events_executed == 0

    def test_pop_order_preserved_across_compaction(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(300):
            event = sim.schedule_at(float(i % 7), fired.append, i,
                                    priority=i % 3)
            if i % 4 == 0:
                keep.append((i % 7, i % 3, i))
            else:
                event.cancel()
        sim.run()
        assert fired == [seq for (_, _, seq) in sorted(keep)]

    def test_cancel_inside_callback_compacts_safely(self):
        sim = Simulator()
        victims = [sim.schedule_at(5.0, lambda: None) for _ in range(200)]
        fired = []

        def cancel_all():
            for event in victims:
                event.cancel()

        sim.schedule_at(1.0, cancel_all)
        sim.schedule_at(6.0, fired.append, "late")
        sim.run()
        assert fired == ["late"]
        assert sim.events_executed == 2


class TestScheduleBatch:
    """A loaded schedule must run in the order of the equivalent
    sequence of ``schedule_at`` calls made before anything else."""

    @staticmethod
    def load(sim, spec, fired):
        """Load ``(time, priority, tag)`` entries, firing ``tag``."""
        return sim.load_schedule(
            [time for time, _, _ in spec],
            [priority for _, priority, _ in spec],
            lambda pos: fired.append(spec[pos][2]),
        )

    def test_empty_batch_is_noop(self):
        sim = Simulator()
        assert self.load(sim, [], []) == 0
        sim.run()
        assert sim.events_executed == 0
        assert sim.peek_time() is None

    def test_batch_matches_sequential_pop_order(self):
        spec = sorted((float(i % 5), i % 3, i) for i in range(200))

        fired_seq = []
        sim_seq = Simulator()
        for time, priority, tag in spec:
            sim_seq.schedule_at(time, fired_seq.append, tag,
                                priority=priority)
        sim_seq.run()

        fired_batch = []
        sim_batch = Simulator()
        count = self.load(sim_batch, spec, fired_batch)
        assert sim_batch.pending == len(spec)
        sim_batch.run()

        assert count == len(spec)
        assert fired_batch == fired_seq
        assert sim_batch.events_executed == len(spec)
        assert sim_batch.pending == 0

    def test_batch_interleaves_with_dynamic_events(self):
        """Events scheduled after the load (dynamic protocol events)
        break time/priority ties *after* the schedule's entries, exactly
        as with sequential scheduling."""
        fired = []
        sim = Simulator()
        self.load(sim, [(1.0, 0, "static"), (2.0, 5, "static-5")], fired)
        sim.schedule_at(1.0, fired.append, "dynamic", priority=0)
        sim.schedule_at(2.0, fired.append, "dynamic-0", priority=0)
        sim.schedule_at(2.0, fired.append, "dynamic-5", priority=5)
        assert sim.peek_time() == 1.0
        sim.run()
        assert fired == ["static", "dynamic", "dynamic-0", "static-5",
                         "dynamic-5"]

    def test_batch_rejects_past_times(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(SimulationError, match="now is"):
            self.load(sim, [(1.0, 0, "late")], [])

    def test_batch_rejects_non_finite_times(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-finite"):
            self.load(sim, [(float("nan"), 0, "nan")], [])
        with pytest.raises(SimulationError, match="non-finite"):
            self.load(sim, [(0.0, 0, "ok"), (float("inf"), 0, "inf")], [])

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=60,
    ))
    @settings(max_examples=50, deadline=None)
    def test_batch_pop_order_property(self, pairs):
        spec = sorted((time, priority, i)
                      for i, (time, priority) in enumerate(pairs))
        fired = []
        sim = Simulator()
        self.load(sim, spec, fired)
        # dynamic events on the same keys run after the schedule's
        for time, priority, tag in spec:
            sim.schedule_at(time, fired.append, -1 - tag, priority=priority)
        sim.run()
        # (time, priority, insertion order): every entry before any event
        order = [(time, priority, k, tag)
                 for k, (time, priority, tag) in enumerate(spec)]
        order += [(time, priority, len(spec) + k, -1 - tag)
                  for k, (time, priority, tag) in enumerate(spec)]
        assert fired == [tag for (_, _, _, tag) in sorted(order)]


    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_consumed_batch_is_released(self, drive):
        """The simulator drops a schedule once it has run every entry,
        and with it the dispatch callable and whatever that holds."""

        class Dispatch:
            def __init__(self):
                self.fired = []

            def __call__(self, pos):
                self.fired.append(pos)

        sim = Simulator()
        dispatch = Dispatch()
        fired = dispatch.fired
        sim.load_schedule([1.0, 2.0], [0, 10], dispatch)
        released = weakref.ref(dispatch)
        del dispatch
        if drive == "run":
            sim.run(until=1.5)
        else:
            sim.step()
        assert released() is not None
        assert sim.pending == 1
        if drive == "run":
            sim.run()
        else:
            sim.step()
        assert released() is None
        assert fired == [0, 1]
        assert sim.pending == 0
        assert sim.events_executed == 2


class TestLoadScheduleMisuse:
    """The merge is exact only for a schedule loaded first."""

    def test_rejects_pending_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match="fresh simulator"):
            sim.load_schedule([2.0], [0], lambda pos: None)

    def test_rejects_executed_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="fresh simulator"):
            sim.load_schedule([2.0], [0], lambda pos: None)

    def test_rejects_a_second_schedule(self):
        sim = Simulator()
        sim.load_schedule([1.0], [0], lambda pos: None)
        with pytest.raises(SimulationError, match="fresh simulator"):
            sim.load_schedule([2.0], [0], lambda pos: None)

    def test_rejects_loading_inside_run(self):
        sim = Simulator()
        errors = []

        def load():
            try:
                sim.load_schedule([2.0], [0], lambda pos: None)
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule_at(1.0, load)
        sim.run()
        assert len(errors) == 1

    @pytest.mark.parametrize("times,priorities", [
        ([2.0, 1.0], [0, 0]),
        ([1.0, 1.0], [10, 0]),
    ])
    def test_rejects_unsorted_entries(self, times, priorities):
        with pytest.raises(SimulationError, match="not sorted"):
            Simulator().load_schedule(times, priorities, lambda pos: None)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(SimulationError, match="equal"):
            Simulator().load_schedule([1.0, 2.0], [0], lambda pos: None)

    def test_step_inside_run_raises(self):
        sim = Simulator()
        errors = []

        def nested_step():
            try:
                sim.step()
            except SimulationError as exc:
                errors.append(exc)

        sim.load_schedule([1.0, 2.0], [0, 0], lambda pos: None)
        sim.schedule_at(1.0, nested_step)
        sim.run()
        assert len(errors) == 1
        assert sim.events_executed == 3
