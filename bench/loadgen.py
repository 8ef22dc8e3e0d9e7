"""Open-loop HTTP load against a ``repro serve`` child process.

Independent users issue queries on their own schedule, so the load is
open-loop: each of the keep-alive connections draws a Poisson arrival
schedule up front and sends each request when it falls due, whether or
not the previous one has been answered.  Latency is timed from the due
time, so a stall in the service also counts against the requests that
queued behind it; how late the generator itself sent each request is
reported beside it, to show when the generator and not the service set
the latency.  Items are Zipf-distributed over the ids the service
reports, discovered by asking it rather than assumed.
"""

from __future__ import annotations

import asyncio
import json
import re
import time

import numpy as np

from repro.workloads.popularity import ZipfPopularity

#: stdout line of ``repro serve`` naming its HTTP endpoint
_SERVING = re.compile(rb"serving queries on http://([\d.]+):(\d+)")

#: ``repro serve`` end-of-run contact summary
_CONTACTS = re.compile(r"contacts ingested : (\d+) \(late (\d+), unknown (\d+)")


async def _get(reader, writer, path: str) -> tuple[int, bytes]:
    """One keep-alive ``GET``; returns ``(status, body)``."""
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii"))
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        if header.lower().startswith(b"content-length:"):
            length = int(header.split(b":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _request(host: str, port: int, path: str) -> tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await _get(reader, writer, path)
    finally:
        writer.close()
        await writer.wait_closed()


async def _wait_healthy(host: str, port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            status, _ = await _request(host, port, "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError("service never reported healthy")
        await asyncio.sleep(0.01)


async def discover_items(host: str, port: int) -> list[int]:
    """Catalog ids as the service reports them: ``/query?item=N`` for
    N = 0, 1, ... until the first 404."""
    items = []
    for item in range(10_000):
        status, _ = await _request(host, port, f"/query?item={item}")
        if status == 404:
            break
        items.append(item)
    if not items:
        raise RuntimeError("service reports an empty catalog")
    return items


async def open_loop(host: str, port: int, items: list[int], rate: float,
                    seconds: float, connections: int, seed: int) -> dict:
    """Poisson ``rate`` q/s split over ``connections`` for ``seconds``."""
    loop = asyncio.get_running_loop()
    latency: list[float] = []
    lateness: list[float] = []
    counts = {"offered": 0, "ok": 0, "failed": 0}

    async def connection(index: int, start: float) -> None:
        rng = np.random.default_rng([seed, index])
        expected = int(rate / connections * seconds * 1.3) + 64
        offsets = np.cumsum(rng.exponential(connections / rate, expected))
        offsets = offsets[offsets < seconds]
        picks = ZipfPopularity(items, s=0.8).sample_array(len(offsets), rng)
        counts["offered"] += len(offsets)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for offset, item in zip(offsets.tolist(), picks.tolist()):
                due = start + offset
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(loop.time() - due)
                try:
                    status, _ = await _get(reader, writer, f"/query?item={item}")
                except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                    counts["failed"] += 1
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                    continue
                latency.append(loop.time() - due)
                counts["ok" if status == 200 else "failed"] += 1
        finally:
            writer.close()

    cpu = time.process_time()
    start = loop.time() + 0.05
    await asyncio.gather(*(connection(i, start) for i in range(connections)))
    return {
        **counts,
        "latency_ms": np.asarray(latency) * 1e3,
        "late_ms": np.asarray(lateness) * 1e3,
        "gen_cpu_s": time.process_time() - cpu,
    }


async def serve_under_load(command: list[str], env: dict, cwd: str,
                           seconds: float, rate: float, connections: int,
                           seed: int) -> dict:
    """Launch ``command`` (a ``repro serve`` invocation), load it while
    it replays, and wait for it to finish its run.

    Returns the load report plus the service's own ``/metrics`` snapshot
    (taken when the load ends), the time from launch to the first
    healthy answer, and the child's contact summary.
    """
    launched = time.perf_counter()
    proc = await asyncio.create_subprocess_exec(
        *command, stdout=asyncio.subprocess.PIPE,
        stderr=asyncio.subprocess.STDOUT, env=env, cwd=cwd,
    )
    output = []
    try:
        while True:
            line = await asyncio.wait_for(proc.stdout.readline(), timeout=120)
            if not line:
                raise RuntimeError("repro serve exited before serving:\n"
                                   + b"".join(output).decode(errors="replace"))
            output.append(line)
            match = _SERVING.search(line)
            if match:
                host, port = match.group(1).decode(), int(match.group(2))
                break
        await _wait_healthy(host, port, timeout=60)
        ready_s = time.perf_counter() - launched
        items = await discover_items(host, port)
        report = await open_loop(host, port, items, rate, seconds,
                                 connections, seed)
        _, body = await _request(host, port, "/metrics")
        output.append(await asyncio.wait_for(proc.stdout.read(), timeout=120))
        code = await asyncio.wait_for(proc.wait(), timeout=60)
    finally:
        if proc.returncode is None:
            proc.kill()
            await proc.wait()
    text = b"".join(output).decode(errors="replace")
    if code != 0:
        raise RuntimeError(f"repro serve exited with {code}:\n{text}")
    contacts = _CONTACTS.search(text)
    if contacts is None:
        raise RuntimeError(f"no contact summary from repro serve:\n{text}")
    ingested, late, unknown = (int(g) for g in contacts.groups())
    return {
        **report,
        "ready_s": ready_s,
        "service_metrics": json.loads(body),
        "contacts": {"ingested": ingested, "late": late, "unknown": unknown},
    }
