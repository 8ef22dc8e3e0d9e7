"""Tests for the live service mode (:mod:`repro.service`).

The anchor test is replay equivalence: streaming a recorded trace
through the service at infinite time-dilation must produce scores
field-identical to the batch ``run_once`` on the same (trace, scheme,
seed).  The rest covers the backpressure contract (contacts block,
queries shed), the pipeline/source/HTTP plumbing, and the CLI's
graceful-shutdown behaviour via real subprocesses.
"""

import asyncio
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.config import DAY, Settings
from repro.service import (
    ContactEvent,
    FileTailSource,
    HttpApi,
    MalformedEvent,
    Pipeline,
    ReplaySource,
    SocketSource,
    replay,
    replay_scores,
    scores_match,
    service_from_settings,
)
from repro.service.pipeline import Handler

REPO_ROOT = Path(__file__).resolve().parent.parent


def _settings(days: float = 2.0, seed: int = 1) -> Settings:
    return Settings.fast().with_(duration=days * DAY, seeds=(seed,))


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


class TestContactEvent:
    def test_line_roundtrip(self):
        event = ContactEvent(a=3, b=7, start=10.0, end=15.5)
        assert ContactEvent.from_line(event.to_line()) == event

    def test_malformed_line_raises(self):
        with pytest.raises(MalformedEvent):
            ContactEvent.from_line("not json at all")
        with pytest.raises(MalformedEvent):
            ContactEvent.from_line('{"a": 1}')

    def test_end_before_start_rejected(self):
        with pytest.raises(MalformedEvent):
            ContactEvent(a=0, b=1, start=10.0, end=5.0)


class TestReplayEquivalence:
    """Infinite-dilation replay == batch run, field for field."""

    @pytest.mark.parametrize("scheme", ["hdr", "flooding"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_batch_run(self, scheme, seed):
        from repro.experiments.runner import make_trace, run_once

        settings = _settings(seed=seed)
        trace = make_trace(settings, seed)
        batch = run_once(trace, scheme, settings, seed=seed)
        score = replay_scores(settings, seed=seed, scheme=scheme)
        assert scores_match(score, batch), (
            f"replay diverged from batch for {scheme}/seed={seed}: "
            f"{score} vs {batch}"
        )

    def test_finite_dilation_same_scores(self):
        """Pacing changes wall-clock timing, never the simulation."""
        from repro.experiments.runner import make_trace, run_once

        settings = _settings(days=1.0)
        trace = make_trace(settings, 1)
        batch = run_once(trace, "hdr", settings, seed=1)
        score = replay_scores(settings, seed=1, scheme="hdr", dilation=1e6)
        assert scores_match(score, batch)


class TestBackpressure:
    def test_full_query_queue_sheds(self):
        async def scenario():
            service, _ = service_from_settings(
                _settings(), seed=1, query_queue=4
            )
            # no worker running, so the queue only fills
            futures = [service.submit_query(0) for _ in range(10)]
            status = service.status()
            assert status["queries"]["offered"] == 10
            assert status["queries"]["shed"] == 6
            assert status["queries"]["queue_depth"] == 4
            assert [f is None for f in futures].count(True) == 6

        asyncio.run(scenario())

    def test_contacts_never_shed_only_filtered(self):
        """Late/unknown/past-horizon contacts are counted, not queued."""
        async def scenario():
            service, trace = service_from_settings(_settings(), seed=1)
            known = trace.node_ids[0], trace.node_ids[1]
            service.ingest_batch([
                ContactEvent(*known, start=100.0, end=160.0)
            ])
            service.ingest_batch([
                ContactEvent(*known, start=50.0, end=90.0),      # late
                ContactEvent(a=10**6, b=known[0],                # unknown
                             start=200.0, end=260.0),
                ContactEvent(*known, start=service.horizon + 1,  # beyond
                             end=service.horizon + 2),
            ])
            contacts = service.status()["contacts"]
            assert contacts["ingested"] == 1
            assert contacts["shed_late"] == 1
            assert contacts["shed_unknown"] == 1
            assert contacts["shed_past_horizon"] == 1

        asyncio.run(scenario())

    def test_overload_subprocess_sheds_within_rss_cap(self):
        """2x overload: bounded queue sheds, memory stays flat."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "loadgen", "--json",
             "--days", "2", "--rate", "1000", "--duration", "2",
             "--serve-rate", "500", "--query-queue", "64"],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=REPO_ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["shed"] > 0, "overload produced no sheds"
        assert report["completed"] > 0, "overload served nothing"
        assert report["errors"] == 0
        assert report["peak_rss_mb"] < 600.0, (
            f"overloaded service used {report['peak_rss_mb']:.0f} MB"
        )


class _Doubler(Handler):
    name = "double"

    async def handle(self, item):
        return item * 2


class _Collector(Handler):
    name = "collect"

    def __init__(self):
        self.items = []

    async def handle(self, item):
        self.items.append(item)
        return None


class TestPipeline:
    @staticmethod
    async def _numbers():
        for value in (1, 2, 3):
            yield value

    def test_stages_chain_and_instrument(self):
        async def scenario():
            collector = _Collector()
            pipeline = Pipeline([_Doubler(), collector])
            await pipeline.run(self._numbers())
            assert collector.items == [2, 4, 6]
            counters = pipeline.registry.counters()
            assert counters["service.stage.double.in"] == 3
            assert counters["service.stage.double.out"] == 3
            assert counters["service.stage.collect.in"] == 3
            snapshot = pipeline.registry.snapshot(0.0)
            assert "service.stage.double_ms" in json.dumps(snapshot)

        asyncio.run(scenario())

    def test_malformed_lines_counted_and_dropped(self):
        async def scenario():
            service, trace = service_from_settings(_settings(), seed=1)
            a, b = trace.node_ids[0], trace.node_ids[1]
            lines = [
                json.dumps({"a": a, "b": b, "start": 100.0, "end": 160.0}),
                "garbage line",
                '{"a": 1}',
            ]

            async def source():
                yield lines

            await service.serve(source())
            await service.stop()
            status = service.status()
            assert status["contacts"]["ingested"] == 1
            assert status["contacts"]["malformed"] == 2

        asyncio.run(scenario())

    def test_validation(self):
        with pytest.raises(ValueError):
            Pipeline([])
        with pytest.raises(ValueError):
            Pipeline([_Doubler()], queue_size=0)


class TestSources:
    def test_file_source_one_shot(self, tmp_path):
        path = tmp_path / "contacts.jsonl"
        events = [ContactEvent(a=0, b=1, start=float(k), end=k + 0.5)
                  for k in range(5)]
        path.write_text("".join(e.to_line() + "\n" for e in events))

        async def scenario():
            lines = []
            async for batch in FileTailSource(path, follow=False):
                lines.extend(batch)
            return [ContactEvent.from_line(line) for line in lines]

        assert asyncio.run(scenario()) == events

    def test_replay_source_batches_in_order(self):
        events = [ContactEvent(a=0, b=1, start=float(k), end=k + 0.5)
                  for k in range(10)]

        async def scenario():
            seen = []
            async for batch in ReplaySource(events, batch_size=3):
                seen.append(len(batch))
            return seen

        assert asyncio.run(scenario()) == [3, 3, 3, 1]

    def test_socket_source_receives_lines(self):
        async def scenario():
            source = SocketSource()
            await source.start()
            reader, writer = await asyncio.open_connection(
                source.host, source.port
            )
            event = ContactEvent(a=2, b=3, start=5.0, end=9.0)
            writer.write((event.to_line() + "\n").encode())
            await writer.drain()

            iterator = source.__aiter__()
            batch = await asyncio.wait_for(iterator.__anext__(), timeout=5)
            source.stop.set()
            writer.close()
            return [ContactEvent.from_line(line) for line in batch]

        assert asyncio.run(scenario()) == [
            ContactEvent(a=2, b=3, start=5.0, end=9.0)
        ]

    def test_replay_source_validation(self):
        with pytest.raises(ValueError):
            ReplaySource([], dilation=0.0)
        with pytest.raises(ValueError):
            ReplaySource([], batch_size=0)


class TestHttpApi:
    @staticmethod
    async def _get(api: HttpApi, path: str) -> tuple[int, dict]:
        reader, writer = await asyncio.open_connection(api.host, api.port)
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            .encode()
        )
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        raw = await reader.read()
        writer.close()
        body = raw.split(b"\r\n\r\n", 1)[1]
        return status, json.loads(body)

    def test_routes(self):
        async def scenario():
            service, trace = service_from_settings(_settings(), seed=1)
            await service.start()
            api = HttpApi(service)
            await api.start()
            try:
                status, body = await self._get(api, "/healthz")
                assert status == 200
                assert body == {"ok": True, "state": "ok",
                                "degraded": False}
                status, body = await self._get(api, "/status")
                assert status == 200
                assert body["scheme"] == "hdr"
                status, body = await self._get(api, "/freshness")
                assert status == 200
                assert body["total"] > 0
                status, body = await self._get(api, "/query?item=0")
                assert status == 200
                assert body["item_id"] == 0
                status, body = await self._get(api, "/query?item=999")
                assert status == 404
                status, body = await self._get(api, "/query?item=nope")
                assert status == 400
                status, body = await self._get(api, "/query")
                assert status == 400
                status, body = await self._get(api, "/missing")
                assert status == 404
            finally:
                await api.stop()
                await service.stop()

        asyncio.run(scenario())


class TestServeAndLoad:
    def test_in_process_serve_with_load(self):
        """Replay + open-loop load: clean shutdown, latency measured."""
        from repro.service import loadgen

        report = loadgen.run_loadgen(days=1.0, seed=1, rate=300.0,
                                     duration=1.0)
        assert report["completed"] > 0
        assert report["shed"] == 0
        assert report["errors"] == 0
        assert math.isfinite(report["p50_ms"])
        assert math.isfinite(report["p95_ms"])
        assert report["contacts_ingested"] > 0
        assert report["sim_time"] > 0

    def test_replay_helper_scores(self):
        async def scenario():
            service, trace = service_from_settings(_settings(days=1.0), seed=1)
            return await replay(service, trace)

        score = asyncio.run(scenario())
        assert 0.0 <= score["freshness"] <= 1.0
        assert score["messages"] >= 0


class TestCliLifecycle:
    def test_serve_runs_to_completion(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--days", "1",
             "--http", "off", "--wall-limit", "60"],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=REPO_ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "final score" in proc.stdout
        assert "contacts ingested" in proc.stdout

    def test_loadgen_json_report(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "loadgen", "--days", "1",
             "--rate", "200", "--duration", "1", "--json"],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=REPO_ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["completed"] > 0

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
    def test_simulate_interrupts_cleanly(self, signum):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "simulate",
             "--days", "200", "--profile", "small"],
            env=_subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(3.0)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
        if proc.returncode == 0:
            pytest.skip("simulation finished before the signal landed")
        assert proc.returncode == 130, err
        assert "Traceback" not in err
        assert "shutting down cleanly" in err

    def test_serve_sigterm_graceful(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        feed.write_text("")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--days", "1",
             "--source", "tail", "--file", str(feed), "--http", "off"],
            env=_subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        time.sleep(4.0)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "Traceback" not in err
        assert "sim time" in out
