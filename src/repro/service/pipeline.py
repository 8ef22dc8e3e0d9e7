"""Asyncio handler pipeline for the live service.

The ingest path is a chain of single-responsibility handlers connected
by bounded :class:`asyncio.Queue` stages::

    source --> [planner] --> [cache] --> [results]

Each handler consumes items from its inbound queue, does one thing
(parse, schedule onto the simulator, aggregate), and forwards its
output downstream.  The queues are the backpressure mechanism: a slow
stage fills its inbound queue and the feeder's ``await put()`` blocks,
which propagates all the way back to the source (a TCP source simply
stops reading, letting the kernel push back on the sender).  Contact
events are therefore **never dropped** -- they are correctness-carrying
state -- while the query plane (see
:class:`~repro.service.runtime.LiveService`) sheds under overload
instead, because a stale answer stream is recoverable but a missed
contact never is.

Per-stage observability goes through the service's
:class:`~repro.obs.registry.MetricsRegistry`:

- ``service.stage.<name>_ms`` -- histogram of per-batch handling time;
- ``service.stage.<name>.in`` / ``.out`` -- items consumed/produced;
- ``service.queue.<name>`` -- gauge of the stage's inbound queue depth;
- ``service.queue.<name>.peak`` -- high-water mark of that depth.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import AsyncIterator, Optional

from repro.obs.registry import MetricsRegistry

#: End-of-stream sentinel forwarded through every queue so each stage
#: can flush and terminate in order.
EOS = object()


class Handler:
    """One pipeline stage.

    Subclasses implement :meth:`handle`, transforming one inbound item
    into one outbound item (or ``None`` to swallow it).  ``on_start`` /
    ``on_finish`` bracket the stream for setup and flushing.
    """

    name = "handler"

    async def on_start(self) -> None:  # pragma: no cover - default no-op
        return None

    async def handle(self, item):
        return item

    async def on_finish(self) -> None:  # pragma: no cover - default no-op
        return None


class Pipeline:
    """Run items from an async source through a chain of handlers.

    ``queue_size`` bounds every inter-stage queue; the source feeder
    blocks when the first queue is full (backpressure, not shedding).
    """

    def __init__(
        self,
        handlers: list[Handler],
        registry: Optional[MetricsRegistry] = None,
        queue_size: int = 256,
    ) -> None:
        if not handlers:
            raise ValueError("need at least one handler")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.handlers = handlers
        self.registry = registry if registry is not None else MetricsRegistry()
        self.queues: list[asyncio.Queue] = [
            asyncio.Queue(maxsize=queue_size) for _ in handlers
        ]

    async def run(self, source: AsyncIterator) -> None:
        """Drive ``source`` through every stage until it is exhausted.

        Returns once the final stage has flushed.  Worker exceptions
        propagate (the remaining workers are cancelled first).
        """
        workers = [
            asyncio.ensure_future(self._stage(index))
            for index in range(len(self.handlers))
        ]
        feeder = asyncio.ensure_future(self._feed(source))
        try:
            await asyncio.gather(feeder, *workers)
        finally:
            for task in (feeder, *workers):
                if not task.done():
                    task.cancel()
            await asyncio.gather(feeder, *workers, return_exceptions=True)

    async def _feed(self, source: AsyncIterator) -> None:
        queue = self.queues[0]
        async for item in source:
            await queue.put(item)  # blocks when full: backpressure
        await queue.put(EOS)

    async def _stage(self, index: int) -> None:
        handler = self.handlers[index]
        inbound = self.queues[index]
        outbound = (
            self.queues[index + 1] if index + 1 < len(self.queues) else None
        )
        registry = self.registry
        latency = registry.histogram(f"service.stage.{handler.name}_ms")
        consumed = registry.counter(f"service.stage.{handler.name}.in")
        produced = registry.counter(f"service.stage.{handler.name}.out")
        depth = registry.gauge(f"service.queue.{handler.name}")
        peak = registry.gauge(f"service.queue.{handler.name}.peak")
        peak_seen = 0

        await handler.on_start()
        while True:
            size = inbound.qsize()
            depth.set(size)
            if size > peak_seen:
                peak_seen = size
                peak.set(size)
            item = await inbound.get()
            if item is EOS:
                break
            consumed.add(1)
            started = perf_counter()
            result = await handler.handle(item)
            latency.observe((perf_counter() - started) * 1e3)
            if result is not None and outbound is not None:
                produced.add(1)
                await outbound.put(result)
        await handler.on_finish()
        depth.set(inbound.qsize())
        if outbound is not None:
            await outbound.put(EOS)
