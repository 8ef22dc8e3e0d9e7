"""Passive span tracer installed around the program's public functions.

The benchmark times the program from the outside: :class:`Tracer`
replaces each :class:`Target` (a module-level function or a method of a
class) with a wrapper that records how long every call took, then puts
the originals back on :meth:`Tracer.uninstall`.  No file under ``src/``
knows it is being timed.

A module-level function is patched everywhere it is bound: in its own
module and in every ``repro`` or ``bench`` module that imported it by
name (``from repro.contacts.rates import mle_rates``).  A method is patched on the
class that defines it, which every instance and subclass picks up.

Per layer the tracer keeps the call count, the total time and the self
time (a span's duration minus the time covered by the spans it
caused).  Spans of non-hot layers are also kept, one tuple each, for
the Chrome trace-event export; hot layers -- handlers called once per
simulation event -- are only aggregated, which bounds memory.  Loop
targets additionally record the executor's event and contact counters
before and after the call, which is how the benchmark splits set-up
time from event-loop time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _sim_counts(runtime) -> tuple[int, float]:
    return runtime.sim.events_executed, runtime.stats.counter_value("net.contacts")


def _soa_counts(runtime) -> tuple[int, float]:
    return runtime.events_processed, runtime.stats.counter_value("net.contacts")


def _live_counts(service) -> tuple[int, float]:
    return _sim_counts(service.runtime)


def _length(result) -> int:
    return len(result)


def _relays(result) -> int:
    return len(result.relays)


@dataclass(frozen=True)
class Target:
    """One public function or method to time."""

    #: span name; the metric prefix the layer reports under
    layer: str
    #: module that defines the function or its class
    module: str
    #: ``"function"`` or ``"Class.method"``
    attr: str
    #: called once per simulation event: aggregate, do not keep spans
    hot: bool = False
    #: executor loop: ``counts(self) -> (events, contacts)`` read around
    #: the call
    counts: Optional[Callable] = None
    #: ``(counter name, result -> int)`` added up over calls
    tally: Optional[tuple[str, Callable]] = None


#: The executor loops.  The untraced benchmark installs only these, so
#: it records one timestamp pair per simulation run.
LOOP_TARGETS = (
    Target("core.scheme.run", "repro.core.scheme", "SchemeRuntime.run",
           counts=_sim_counts),
    Target("core.soa.run", "repro.core.soa", "SoaRuntime.run",
           counts=_soa_counts),
    Target("service.serve", "repro.service.runtime", "LiveService.serve",
           counts=_live_counts),
    Target("service.finish", "repro.service.runtime", "LiveService.finish",
           counts=_live_counts),
)

#: Every layer boundary the traced benchmark times, grouped by module.
LAYER_TARGETS = LOOP_TARGETS + (
    Target("scenarios.load", "repro.scenarios.registry", "load_scenario"),
    Target("scenarios.load", "repro.scenarios.compose", "compose_scenario"),
    Target("mobility.synth", "repro.mobility.calibration",
           "TraceProfile.generate", tally=("mobility.contacts", _length)),
    Target("mobility.synth", "repro.mobility.community",
           "CommunityModel.generate_arrays",
           tally=("mobility.contacts", _length)),
    Target("contacts.estimate", "repro.contacts.rates", "mle_rates"),
    Target("contacts.centrality", "repro.contacts.centrality",
           "contact_centrality"),
    Target("contacts.centrality", "repro.contacts.centrality",
           "contact_centrality_array"),
    Target("caching.ncl.select", "repro.caching.ncl", "select_caching_nodes"),
    Target("core.hierarchy.tree", "repro.core.hierarchy", "build_tree"),
    Target("core.replication.plan", "repro.core.replication", "plan_edge",
           tally=("core.replication.relays", _relays)),
    Target("sim.soa.stream", "repro.sim.soa", "ContactEventStream.from_arrays"),
    Target("core.scheme.build", "repro.core.scheme", "build_simulation"),
    Target("workloads.schedule", "repro.workloads.queries", "schedule_queries",
           tally=("workloads.queries", int)),
    Target("sim.engine", "repro.sim.engine", "Simulator.run"),
    Target("sim.network.transfer", "repro.sim.network",
           "ContactNetwork.transfer", hot=True),
    Target("routing.contact", "repro.routing.base",
           "RoutingAgent.on_contact_start", hot=True),
    Target("routing.message", "repro.routing.base", "RoutingAgent.on_message",
           hot=True),
    Target("caching.query.handler", "repro.caching.query",
           "QueryManager.on_contact_start", hot=True),
    Target("caching.query.handler", "repro.caching.query",
           "QueryManager.on_message", hot=True),
    Target("core.refresh.hdr", "repro.core.refresh",
           "HdrRefreshHandler.on_contact_start", hot=True),
    Target("core.refresh.hdr", "repro.core.refresh",
           "HdrRefreshHandler.on_message", hot=True),
    Target("core.refresh.flood", "repro.core.refresh",
           "FloodingRefreshHandler.on_contact_start", hot=True),
    Target("core.refresh.flood", "repro.core.refresh",
           "FloodingRefreshHandler.on_message", hot=True),
    Target("core.refresh.invalidate", "repro.core.refresh",
           "InvalidationRefreshHandler.on_contact_start", hot=True),
    Target("core.refresh.invalidate", "repro.core.refresh",
           "InvalidationRefreshHandler.on_message", hot=True),
    Target("core.accounting.probe", "repro.core.accounting",
           "FreshnessAccountant.snapshot", hot=True),
    Target("analysis.score", "repro.analysis.metrics", "freshness_summary"),
    Target("analysis.score", "repro.analysis.metrics", "refresh_outcomes"),
    Target("analysis.score", "repro.analysis.metrics", "judge_queries"),
    Target("service.ingest", "repro.service.runtime", "LiveService.ingest_batch"),
    Target("service.journal", "repro.service.durability", "Journal.append_batch"),
    Target("service.journal", "repro.service.durability", "Journal.sync"),
    Target("service.manifest", "repro.service.durability", "Checkpointer.write"),
    Target("service.answer", "repro.service.runtime", "LiveService.answer_query",
           hot=True),
)


class Tracer:
    """Times the calls into a set of targets while installed.

    ``clock`` returns integer nanoseconds; tests substitute a fake.
    """

    def __init__(self, targets=LAYER_TARGETS,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.targets = tuple(targets)
        self.clock = clock
        #: layer -> [calls, total ns, self ns]
        self.stats: dict[str, list[int]] = {}
        #: tally counter -> sum
        self.tallies: dict[str, int] = {}
        #: kept spans: (layer, start ns, duration ns, depth)
        self.spans: list[tuple[str, int, int, int]] = []
        #: loop spans: (layer, start ns, end ns, events, contacts)
        self.loops: list[tuple[str, int, int, int, float]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded (wrappers hold the rows, so the
        rows are zeroed in place)."""
        for row in self.stats.values():
            row[:] = [0, 0, 0]
        for name in self.tallies:
            self.tallies[name] = 0
        self.spans.clear()
        self.loops.clear()

    def layers(self) -> dict[str, tuple[int, float, float]]:
        """``layer -> (calls, total s, self s)`` for layers that ran."""
        return {
            layer: (calls, total / 1e9, own / 1e9)
            for layer, (calls, total, own) in sorted(self.stats.items())
            if calls
        }

    def _wrap(self, fn, target: Target):
        row = self.stats.setdefault(target.layer, [0, 0, 0])
        if target.tally is not None:
            self.tallies.setdefault(target.tally[0], 0)
        stack, clock = self._stack, self.clock
        spans, loops, tallies = self.spans, self.loops, self.tallies
        layer, keep, counts, tally = (target.layer, not target.hot,
                                      target.counts, target.tally)

        def begin(args):
            before = counts(args[0]) if counts is not None else None
            stack.append(0)
            return before, clock()

        def end(args, before, start, result):
            stop = clock()
            child = stack.pop()
            duration = stop - start
            if stack:
                stack[-1] += duration
            row[0] += 1
            row[1] += duration
            row[2] += duration - child
            if keep:
                spans.append((layer, start, duration, len(stack)))
            if counts is not None:
                events, contacts = counts(args[0])
                loops.append((layer, start, stop, events - before[0],
                              contacts - before[1]))
            if tally is not None and result is not None:
                tallies[tally[0]] += tally[1](result)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                before, start = begin(args)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(args, before, start, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before, start = begin(args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(args, before, start, result)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        functions = {}
        for target in self.targets:
            module = importlib.import_module(target.module)
            owner_name, _, name = target.attr.rpartition(".")
            if not owner_name:
                original = getattr(module, name)
                wrapped = self._wrap(original, target)
                functions[id(original)] = wrapped
                self._patched.append((None, name, original, wrapped))
                continue
            owner = getattr(module, owner_name)
            original = owner.__dict__[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, target))
            else:
                wrapped = self._wrap(original, target)
            setattr(owner, name, wrapped)
            self._patched.append((owner, name, original, wrapped))
        _rebind(functions)
        return self

    def uninstall(self) -> None:
        """Put every original back, including into modules imported
        (and so bound to a wrapper) after :meth:`install`."""
        functions = {}
        for owner, name, original, wrapped in reversed(self._patched):
            if owner is None:
                functions[id(wrapped)] = original
            else:
                setattr(owner, name, original)
        _rebind(functions)
        self._patched.clear()
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _rebind(replacements: dict[int, object]) -> None:
    """Swap every ``repro`` or ``bench`` module attribute whose id is a
    key (the benchmark's own modules call the program by name too)."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".", 1)[0] not in ("repro", "bench"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            replacement = replacements.get(id(value))
            if replacement is not None:
                namespace[attr] = replacement


def chrome_trace(spans, label: str, pid: int = 1) -> dict:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto) of
    kept spans, one complete (``"X"``) event each."""
    events = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 1,
         "args": {"name": label}},
    ]
    origin = min((span[1] for span in spans), default=0)
    for layer, start, duration, _depth in spans:
        events.append({
            "name": layer,
            "cat": layer.split(".", 1)[0],
            "ph": "X",
            "ts": (start - origin) / 1e3,
            "dur": duration / 1e3,
            "pid": pid,
            "tid": 1,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
