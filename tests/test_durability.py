"""Tests for crash-safe checkpoints, supervised restart, stream faults.

The anchor is kill/resume equivalence: a serving process SIGKILLed
mid-replay and resumed from its latest checkpoint must finish with
metrics ``same_as``-identical to the uninterrupted batch run -- the
streaming replay-equivalence guarantee extended across a crash.  The
rest covers the journal wire format (CRC, commit markers, torn-tail
recovery), quarantine of malformed lines, build-spec round-trips,
digest verification, supervisor backoff + circuit breaker, degraded
``/healthz`` states, source cursors, and deterministic stream-fault
injection.
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
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.experiments.config import DAY, Settings
from repro.faults import FaultPlan, plan_from_dict
from repro.faults.stream import StreamFaultInjector
from repro.obs.bus import EventBus
from repro.service import (
    BuildSpec,
    CheckpointError,
    ContactEvent,
    CrashLoop,
    DurableSource,
    FileTailSource,
    HttpApi,
    Journal,
    ReplaySource,
    RestartPolicy,
    SocketSource,
    Supervisor,
    replay_scores,
    restore_service,
    resume_replay_scores,
    runtime_digest,
    scan_journal,
    scores_match,
    serve_and_score,
    service_from_settings,
)
from repro.service.durability import (
    JOURNAL_FILE,
    MANIFEST_FILE,
    QUARANTINE_FILE,
    SPEC_FILE,
    Quarantine,
    load_manifest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _settings(days: float = 1.0, seed: int = 1) -> Settings:
    return Settings.fast().with_(duration=days * DAY, seeds=(seed,))


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _events(n: int = 6) -> list[ContactEvent]:
    return [ContactEvent(a=0, b=1, start=10.0 * k, end=10.0 * k + 5.0)
            for k in range(n)]


class TestJournal:
    def test_append_scan_roundtrip(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        events = _events(6)
        assert journal.append_batch(events[:4], cursor=4) == 4
        assert journal.append_batch(events[4:], cursor=6) == 6
        journal.close()
        scan = scan_journal(path)
        assert list(scan.events) == events
        assert scan.cursor == 6
        assert scan.records == 6
        assert scan.commits == 2
        assert scan.valid_bytes == path.stat().st_size

    def test_empty_batch_still_commits_cursor(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        journal.append_batch([], cursor=17)
        journal.close()
        scan = scan_journal(path)
        assert scan.records == 0
        assert scan.cursor == 17

    def test_torn_tail_truncated_to_last_commit(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        events = _events(6)
        journal.append_batch(events[:3], cursor=3)
        journal.append_batch(events[3:], cursor=6)
        journal.close()
        # tear the file inside the second batch: its commit is gone, so
        # only the first batch survives
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])
        scan = scan_journal(path)
        assert list(scan.events) == events[:3]
        assert scan.cursor == 3
        # re-opening truncates the torn region and appends cleanly
        journal = Journal.open(path)
        assert journal.records == 3
        journal.append_batch(events[3:], cursor=6)
        journal.close()
        again = scan_journal(path)
        assert list(again.events) == events
        assert again.cursor == 6

    def test_corrupt_crc_stops_scan(self, tmp_path):
        path = tmp_path / JOURNAL_FILE
        journal = Journal.open(path)
        events = _events(4)
        journal.append_batch(events[:2], cursor=2)
        journal.append_batch(events[2:], cursor=4)
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        # corrupt a value in the third record line (second batch): the
        # stored CRC no longer matches the payload
        lines[3] = lines[3].replace(b'"start": 20.0', b'"start": 21.0')
        if lines[3] == path.read_bytes().splitlines(keepends=True)[3]:
            lines[3] = lines[3].replace(b"20.0", b"21.0", 1)
        path.write_bytes(b"".join(lines))
        scan = scan_journal(path)
        assert list(scan.events) == events[:2]
        assert scan.cursor == 2

    def test_missing_file_scans_empty(self, tmp_path):
        scan = scan_journal(tmp_path / "nope.jsonl")
        assert scan.records == 0 and scan.cursor is None

    @given(
        n=st.integers(min_value=0, max_value=30),
        batch=st.integers(min_value=1, max_value=7),
        cut=st.integers(min_value=0, max_value=2000),
    )
    @hyp_settings(max_examples=40, deadline=None)
    def test_torn_journal_never_yields_uncommitted(self, tmp_path_factory,
                                                   n, batch, cut):
        """Property: any byte-truncation of a journal recovers a prefix
        of whole committed batches -- never a partial batch."""
        tmp = tmp_path_factory.mktemp("journal")
        path = tmp / JOURNAL_FILE
        journal = Journal.open(path)
        events = _events(n)
        boundaries = [0]
        for start in range(0, n, batch):
            journal.append_batch(events[start:start + batch],
                                 cursor=min(start + batch, n))
            boundaries.append(min(start + batch, n))
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: min(cut, len(data))])
        scan = scan_journal(path)
        assert scan.records in boundaries
        assert list(scan.events) == events[: scan.records]
        if scan.records:
            assert scan.cursor == scan.records


class TestQuarantineAndDurableSource:
    def test_malformed_lines_quarantined_not_dropped_silently(
        self, tmp_path
    ):
        async def scenario():
            journal = Journal.open(tmp_path / JOURNAL_FILE)
            quarantine = Quarantine(tmp_path / QUARANTINE_FILE)
            events = _events(3)

            async def raw():
                yield [events[0].to_line(), "garbage", events[1].to_line()]
                yield ['{"a": 1}', events[2].to_line()]

            source = DurableSource(raw(), journal, quarantine)
            seen = []
            async for committed in source:
                seen.extend(committed)
                assert committed.commit == len(seen)
            journal.close()
            quarantine.close()
            return seen, quarantine.count

        seen, rejected = asyncio.run(scenario())
        assert seen == _events(3)
        assert rejected == 2
        sidecar = [
            json.loads(line)
            for line in (tmp_path / QUARANTINE_FILE).read_text().splitlines()
        ]
        assert len(sidecar) == 2
        assert sidecar[0]["line"] == "garbage"
        assert "reason" in sidecar[0]
        # the journal holds only the valid events
        assert list(scan_journal(tmp_path / JOURNAL_FILE).events) == seen

    def test_rejected_counter_exposed_in_metrics(self, tmp_path):
        async def scenario():
            service, trace = service_from_settings(_settings(), seed=1)
            spec = BuildSpec.from_settings(_settings(), seed=1, scheme="hdr")
            service.enable_checkpointing(tmp_path / "ck", spec=spec)
            a, b = trace.node_ids[0], trace.node_ids[1]

            async def raw():
                yield [json.dumps({"a": a, "b": b, "start": 50.0,
                                   "end": 90.0}),
                       "not json"]

            await service.serve(raw())
            await service.stop()
            service.checkpointer.close()
            return service.stats.counters(), service.status()

        counters, status = asyncio.run(scenario())
        assert counters["service.events.rejected"] == 1
        assert status["contacts"]["ingested"] == 1


class TestBuildSpec:
    def test_roundtrip_and_fingerprint(self, tmp_path):
        spec = BuildSpec.from_settings(_settings(), seed=3, scheme="hdr",
                                       contact_queue=128)
        spec.save(tmp_path)
        loaded = BuildSpec.load(tmp_path)
        assert loaded == spec
        assert loaded.fingerprint() == spec.fingerprint()
        assert loaded.settings_obj() == _settings()
        # saving the identical spec again is a no-op...
        spec.save(tmp_path)
        # ...but a different one is refused (mixed checkpoints)
        other = BuildSpec.from_settings(_settings(), seed=4, scheme="hdr")
        with pytest.raises(CheckpointError):
            other.save(tmp_path)

    def test_rejects_unserialisable(self):
        from repro.core.scheme import SchemeConfig

        with pytest.raises(CheckpointError):
            BuildSpec.from_settings(
                _settings(), seed=1,
                scheme=SchemeConfig(name="hdr", structure="tree"),
            )
        with pytest.raises(CheckpointError):
            BuildSpec.from_settings(_settings(), seed=1, scheme="hdr",
                                    weird=object())

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            BuildSpec.load(tmp_path)

    @pytest.mark.parametrize("key", ["fanout", "max_depth", "max_relays"])
    def test_restore_of_spec_with_removed_setting_names_it(self, tmp_path,
                                                           key):
        """A spec.json written while Settings still had the tree-shape
        fields restores to a CheckpointError naming the key, not a
        TypeError out of the Settings constructor."""
        spec = BuildSpec.from_settings(_settings(), seed=1, scheme="hdr")
        payload = spec.as_dict()
        payload["settings"][key] = 3
        (tmp_path / SPEC_FILE).write_text(json.dumps(payload),
                                          encoding="utf-8")
        with pytest.raises(CheckpointError, match=key):
            restore_service(tmp_path)


class TestCheckpointRestore:
    """The heart of the PR: restore == never-crashed, digest-verified."""

    def test_durable_replay_matches_batch(self, tmp_path):
        from repro.experiments.runner import make_trace, run_once

        settings = _settings()
        trace = make_trace(settings, 1)
        batch = run_once(trace, "hdr", settings, seed=1)
        score = replay_scores(settings, seed=1, scheme="hdr",
                              checkpoint=tmp_path / "ck",
                              checkpoint_interval_s=0.0)
        assert scores_match(score, batch)
        manifest = load_manifest(tmp_path / "ck")
        assert manifest["records"] == manifest["journal"]["records"]
        assert manifest["digest"]["watermark"] > 0

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_partial_serve_then_restore_matches_batch(self, tmp_path,
                                                      fraction):
        """Serve a prefix durably, 'crash', restore, finish: identical."""
        from repro.experiments.runner import make_trace, run_once

        settings = _settings()
        trace = make_trace(settings, 1)
        batch = run_once(trace, "hdr", settings, seed=1)
        events = ContactEvent.from_contacts(trace)
        split = int(len(events) * fraction)
        directory = tmp_path / "ck"

        async def partial():
            service, _ = service_from_settings(settings, seed=1)
            spec = BuildSpec.from_settings(settings, seed=1, scheme="hdr")
            service.enable_checkpointing(directory, spec=spec,
                                         interval_s=0.0)
            await service.serve(ReplaySource(events[:split]))
            await service.stop()
            # crash: drop the service without finish() or close()

        asyncio.run(partial())
        score = resume_replay_scores(directory)
        assert scores_match(score, batch)

    def test_restore_verifies_manifest_digest(self, tmp_path):
        settings = _settings()
        events_split = 64
        directory = tmp_path / "ck"

        async def partial():
            service, trace = service_from_settings(settings, seed=1)
            spec = BuildSpec.from_settings(settings, seed=1, scheme="hdr")
            service.enable_checkpointing(directory, spec=spec,
                                         interval_s=0.0)
            events = ContactEvent.from_contacts(trace)
            await service.serve(ReplaySource(events[:events_split]))
            await service.stop()

        asyncio.run(partial())
        restored = restore_service(directory)
        assert restored.verified
        assert restored.records == restored.manifest["records"]
        assert restored.cursor == events_split
        assert (runtime_digest(restored.service)
                == restored.manifest["digest"])
        restored.service.checkpointer.close()
        # a tampered journal record must fail the digest check
        journal_path = directory / JOURNAL_FILE
        lines = journal_path.read_bytes().splitlines(keepends=True)
        first = json.loads(lines[0])
        first["a"] = 10 ** 6  # unknown node: the replayed ingest sheds it
        payload = {k: v for k, v in first.items() if k != "crc"}
        import zlib

        payload["crc"] = zlib.crc32(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode())
        lines[0] = (json.dumps(payload, sort_keys=True,
                               separators=(",", ":")) + "\n").encode()
        journal_path.write_bytes(b"".join(lines))
        with pytest.raises(CheckpointError, match="digest"):
            restore_service(directory)

    def test_restore_without_manifest_still_replays(self, tmp_path):
        from repro.experiments.runner import make_trace, run_once

        settings = _settings()
        trace = make_trace(settings, 1)
        batch = run_once(trace, "hdr", settings, seed=1)
        events = ContactEvent.from_contacts(trace)
        directory = tmp_path / "ck"

        async def partial():
            service, _ = service_from_settings(settings, seed=1)
            spec = BuildSpec.from_settings(settings, seed=1, scheme="hdr")
            service.enable_checkpointing(directory, spec=spec,
                                         interval_s=0.0)
            await service.serve(ReplaySource(events[: len(events) // 2]))
            await service.stop()

        asyncio.run(partial())
        (directory / MANIFEST_FILE).unlink()
        restored = restore_service(directory)
        assert not restored.verified  # nothing to verify against
        restored.service.checkpointer.close()
        score = resume_replay_scores(directory)
        assert scores_match(score, batch)

    def test_fresh_enable_on_populated_dir_refused(self, tmp_path):
        directory = tmp_path / "ck"
        journal = Journal.open(directory / JOURNAL_FILE)
        journal.append_batch(_events(2), cursor=2)
        journal.close()
        service, _ = service_from_settings(_settings(), seed=1)
        spec = BuildSpec.from_settings(_settings(), seed=1, scheme="hdr")
        with pytest.raises(CheckpointError, match="resume"):
            service.enable_checkpointing(directory, spec=spec)

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    @hyp_settings(max_examples=6, deadline=None)
    def test_checkpoint_restore_roundtrips_runtime_state(
        self, tmp_path_factory, fraction
    ):
        """Property: for any stream split point, the restored runtime's
        digest equals the original's at the same prefix."""
        settings = _settings(days=0.5)
        directory = tmp_path_factory.mktemp("ck") / "d"

        async def partial():
            service, trace = service_from_settings(settings, seed=1)
            spec = BuildSpec.from_settings(settings, seed=1, scheme="hdr")
            service.enable_checkpointing(directory, spec=spec,
                                         interval_s=0.0)
            events = ContactEvent.from_contacts(trace)
            split = int(len(events) * fraction)
            await service.serve(ReplaySource(events[:split]))
            await service.stop()
            return runtime_digest(service)

        original = asyncio.run(partial())
        restored = restore_service(directory)
        assert runtime_digest(restored.service) == original
        assert restored.verified
        restored.service.checkpointer.close()


class TestKillResumeSubprocess:
    def test_sigkill_mid_replay_then_resume_is_identical(self, tmp_path):
        """A real SIGKILL mid-replay; resume finishes byte-identical."""
        from repro.experiments.runner import make_trace, run_once

        settings = _settings()
        trace = make_trace(settings, 1)
        batch = run_once(trace, "hdr", settings, seed=1)
        ckpt = tmp_path / "ck"
        serve_cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--days", "1",
            "--seed", "1", "--profile", "small", "--http", "off",
            "--checkpoint", str(ckpt), "--checkpoint-interval", "0.1",
        ]
        # pace the replay (~9s of wall for the day) so the kill lands
        # mid-stream, then SIGKILL as soon as a manifest exists
        proc = subprocess.Popen(
            serve_cmd + ["--dilation", "10000"],
            env=_subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        manifest = ckpt / MANIFEST_FILE
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if manifest.exists():
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "serve exited before a manifest appeared: "
                        + (proc.stderr.read() or "")[-500:]
                    )
                time.sleep(0.05)
            else:
                pytest.fail("no manifest within 60s")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        assert proc.returncode == -signal.SIGKILL
        scan = scan_journal(ckpt / JOURNAL_FILE)
        assert scan.records < len(trace), "kill landed after the replay"

        score_path = tmp_path / "score.json"
        resume = subprocess.run(
            serve_cmd + ["--resume", "--score-json", str(score_path)],
            capture_output=True, text=True, env=_subprocess_env(),
            cwd=REPO_ROOT, timeout=300,
        )
        assert resume.returncode == 0, resume.stderr[-500:]
        assert "resumed from" in resume.stdout
        score = json.loads(score_path.read_text())
        assert scores_match(score, batch), (
            f"kill/resume diverged: {score} vs batch"
        )


class _FakeChild:
    def __init__(self, code: int) -> None:
        self.code = code

    def wait(self) -> int:
        return self.code

    def poll(self):
        return self.code

    def send_signal(self, signum) -> None:  # pragma: no cover
        pass


class TestSupervisor:
    @staticmethod
    def _supervisor(codes, tmp_path, **policy):
        queue = list(codes)
        sleeps = []
        supervisor = Supervisor(
            ["true"],
            policy=RestartPolicy(min_healthy_s=1e9, **policy),
            log_path=tmp_path / "restarts.jsonl",
            spawn=lambda cmd: _FakeChild(queue.pop(0)),
            sleep=sleeps.append,
            echo=lambda line: None,
        )
        return supervisor, sleeps

    def test_restarts_until_clean_exit(self, tmp_path):
        supervisor, sleeps = self._supervisor([1, 1, 0], tmp_path)
        assert supervisor.run(install_signals=False) == 0
        assert supervisor.restarts == 2
        assert sleeps == [0.5, 1.0]  # bounded exponential backoff
        log = [json.loads(line) for line in
               (tmp_path / "restarts.jsonl").read_text().splitlines()]
        assert [entry["exit_code"] for entry in log] == [1, 1]
        assert [entry["attempt"] for entry in log] == [1, 2]
        assert log[0]["kind"] == "service.restart"

    def test_crash_loop_circuit_breaker(self, tmp_path):
        supervisor, _ = self._supervisor(
            [9] * 4, tmp_path, max_restarts=2
        )
        with pytest.raises(CrashLoop):
            supervisor.run(install_signals=False)
        assert supervisor.restarts == 2

    def test_backoff_is_bounded(self):
        policy = RestartPolicy(backoff_base_s=1.0, backoff_factor=3.0,
                               backoff_cap_s=10.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == [
            1.0, 3.0, 9.0, 10.0
        ]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)

    def test_supervised_cli_restarts_crashed_child(self, tmp_path):
        """Smoke: child self-crashes once, supervisor resumes it."""
        ckpt = tmp_path / "ck"
        env = _subprocess_env()
        env["REPRO_SERVE_CRASH_AT"] = "256"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--days", "1",
             "--seed", "1", "--profile", "small", "--http", "off",
             "--checkpoint", str(ckpt), "--checkpoint-interval", "0",
             "--supervised", "--min-healthy", "0.01"],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        assert "restart" in proc.stdout
        log_lines = (ckpt / "restarts.jsonl").read_text().splitlines()
        assert len(log_lines) == 1
        assert json.loads(log_lines[0])["exit_code"] == 17


class TestHealthStates:
    @staticmethod
    async def _get(api, path):
        reader, writer = await asyncio.open_connection(api.host, api.port)
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            .encode()
        )
        await writer.drain()
        status = int((await reader.readline()).split()[1])
        body = (await reader.read()).split(b"\r\n\r\n", 1)[1]
        writer.close()
        return status, json.loads(body)

    def test_degraded_states_and_http_codes(self, tmp_path):
        async def scenario():
            service, _ = service_from_settings(
                _settings(), seed=1, query_queue=1
            )
            await service.start()
            api = HttpApi(service)
            await api.start()
            out = {}
            try:
                out["ok"] = await self._get(api, "/healthz")

                service.state = "resuming"
                out["resuming"] = await self._get(api, "/healthz")
                service.state = "ok"

                # overflow the 1-slot queue -> shedding (429)
                service.submit_query(0, wait=False)
                service.submit_query(0, wait=False)
                out["shedding"] = await self._get(api, "/healthz")
                service._last_shed_wall -= service.SHED_WINDOW_S + 1.0

                spec = BuildSpec.from_settings(_settings(), seed=1,
                                               scheme="hdr")
                checkpointer = service.enable_checkpointing(
                    tmp_path / "ck", spec=spec, interval_s=1e9
                )
                checkpointer.stale_after_s = 0.0
                checkpointer.note_commit(5)
                await asyncio.sleep(0.01)
                out["stale"] = await self._get(api, "/healthz")
                checkpointer.close()
            finally:
                await api.stop()
                await service.stop()
            return out

        out = asyncio.run(scenario())
        assert out["ok"][0] == 200 and out["ok"][1]["state"] == "ok"
        assert out["resuming"][0] == 503
        assert out["resuming"][1]["state"] == "resuming"
        assert out["shedding"][0] == 429
        assert out["shedding"][1]["state"] == "shedding"
        assert out["stale"] == (200, {
            "ok": False, "state": "checkpoint_stale", "degraded": True,
        })


class TestSourceCursors:
    def test_replay_cursor_and_resume(self):
        events = _events(10)

        async def consume(source):
            out = []
            async for batch in source:
                out.extend(batch)
            return out

        source = ReplaySource(events, batch_size=4)
        assert source.cursor() == 0
        assert asyncio.run(consume(source)) == events
        assert source.cursor() == 10
        resumed = ReplaySource(events, start_at=6)
        assert asyncio.run(consume(resumed)) == events[6:]
        assert resumed.cursor() == 10
        with pytest.raises(ValueError):
            ReplaySource(events, start_at=11)

    def test_file_tail_byte_cursor_resumes_exactly(self, tmp_path):
        path = tmp_path / "contacts.jsonl"
        events = _events(6)
        text = "".join(e.to_line() + "\n" for e in events)
        path.write_text(text)

        async def consume(source):
            out = []
            async for batch in source:
                out.extend(batch)
            return out

        first = FileTailSource(path, follow=False, batch_size=2)
        lines = asyncio.run(consume(first))
        assert [ContactEvent.from_line(l) for l in lines] == events
        assert first.cursor() == len(text.encode())
        # resume from a mid-file cursor: exactly the remainder
        offset = len((events[0].to_line() + "\n").encode())
        rest = FileTailSource(path, follow=False, start_offset=offset)
        lines = asyncio.run(consume(rest))
        assert [ContactEvent.from_line(l) for l in lines] == events[1:]

    def test_socket_reconnect_counted_and_recorded(self):
        async def scenario():
            from repro.sim.stats import StatsRegistry

            registry = StatsRegistry()
            bus = EventBus()
            source = SocketSource(registry=registry, bus=bus,
                                  batch_size=1)
            await source.start()
            event = ContactEvent(a=1, b=2, start=3.0, end=4.0)
            iterator = source.__aiter__()
            for _ in range(2):  # connect, send, disconnect -- twice
                reader, writer = await asyncio.open_connection(
                    source.host, source.port
                )
                writer.write((event.to_line() + "\n").encode())
                await writer.drain()
                await asyncio.wait_for(iterator.__anext__(), timeout=5)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.1)
            source.stop.set()
            counters = registry.counters()
            kinds = [record.kind for record in bus.records]
            return counters, kinds, source.disconnects

        counters, kinds, disconnects = asyncio.run(scenario())
        assert counters["service.source.connects"] == 2
        assert counters["service.source.reconnects"] == 1
        assert disconnects >= 1
        assert "source.reconnect" in kinds

    def test_socket_idle_timeout_evicts_peer(self):
        async def scenario():
            source = SocketSource(idle_timeout=0.1)
            await source.start()
            reader, writer = await asyncio.open_connection(
                source.host, source.port
            )
            await asyncio.sleep(0.4)  # stay silent past the timeout
            source.stop.set()
            writer.close()
            disconnects = source.disconnects
            await source.close()
            return disconnects

        assert asyncio.run(scenario()) == 1


class TestStreamFaults:
    PLAN = FaultPlan(
        stream_malformed_rate=0.1,
        stream_duplicate_rate=0.1,
        stream_reorder_rate=0.1,
        stream_skew_rate=0.1,
        stream_skew_max_s=30.0,
    )

    @staticmethod
    async def _drain(injector):
        out = []
        async for batch in injector:
            out.extend(batch)
        return out

    def test_toml_and_flags(self, tmp_path):
        plan_path = tmp_path / "plan.toml"
        plan_path.write_text(
            "[stream]\nmalformed_rate = 0.2\n"
            "disconnect_rate_per_day = 2.0\nmean_disconnect_s = 300.0\n"
        )
        from repro.faults import load_plan

        plan = load_plan(plan_path)
        assert plan.stream_malformed_rate == 0.2
        assert plan.has_stream_faults()
        assert plan.is_null(), "stream-only plans must not touch batch runs"
        assert not FaultPlan().has_stream_faults()
        with pytest.raises(ValueError):
            FaultPlan(stream_malformed_rate=1.5)
        with pytest.raises(ValueError):
            plan_from_dict({"stream": {"bogus": 1}})

    def test_deterministic_given_seed(self):
        events = _events(200)
        runs = []
        for _ in range(2):
            injector = StreamFaultInjector(
                ReplaySource(events), self.PLAN, seed=7
            )
            runs.append((asyncio.run(self._drain(injector)),
                         dict(injector.counts)))
        assert runs[0] == runs[1]
        other = StreamFaultInjector(ReplaySource(events), self.PLAN, seed=8)
        asyncio.run(self._drain(other))
        assert other.counts != runs[0][1]

    def test_actions_applied_and_counted(self):
        events = _events(400)
        bus = EventBus()
        injector = StreamFaultInjector(ReplaySource(events), self.PLAN,
                                       seed=1, bus=bus)
        items = asyncio.run(self._drain(injector))
        counts = injector.counts
        assert counts["malformed"] > 0
        assert counts["duplicate"] > 0
        assert counts["reorder"] > 0
        assert counts["skew"] > 0
        garbage = [i for i in items if isinstance(i, str)
                   and i.startswith("\x00garbage")]
        assert len(garbage) == counts["malformed"]
        assert len(items) == 400 + counts["duplicate"]
        assert any(r.kind == "fault.stream" for r in bus.records)

    def test_disconnect_window_delays_events(self):
        events = _events(500)
        plan = FaultPlan(stream_disconnect_rate_per_day=400.0,
                         stream_mean_disconnect_s=100.0)
        injector = StreamFaultInjector(ReplaySource(events), plan, seed=2)
        items = asyncio.run(self._drain(injector))
        assert sorted(items, key=lambda e: e.start) == events
        assert injector.counts["disconnect"] > 0
        starts = [e.start for e in items]
        assert starts != sorted(starts), "windows must reorder arrivals"

    def test_wrapping_faultless_plan_rejected(self):
        with pytest.raises(ValueError):
            StreamFaultInjector(ReplaySource([]), FaultPlan(), seed=1)

    def test_kill_resume_equivalence_holds_under_faults(self, tmp_path):
        """The journal records the post-fault stream, so a faulted run
        restored mid-stream finishes identical to the same faulted run
        left uninterrupted."""
        settings = _settings(days=0.5)
        plan = self.PLAN
        directories = [tmp_path / "a", tmp_path / "b"]
        scores = []
        for index, directory in enumerate(directories):
            service, trace = service_from_settings(settings, seed=1)
            spec = BuildSpec.from_settings(settings, seed=1, scheme="hdr")
            service.enable_checkpointing(directory, spec=spec,
                                         interval_s=0.0)
            events = ContactEvent.from_contacts(trace)
            injector = StreamFaultInjector(ReplaySource(events), plan,
                                           seed=5)
            if index == 0:
                scores.append(asyncio.run(serve_and_score(service,
                                                          injector)))
            else:
                async def partial():
                    # same faulted stream, but 'crash' after serving --
                    # the journal is what carries the faulted prefix
                    await service.serve(injector)
                    await service.stop()

                asyncio.run(partial())
                restored = restore_service(directory)
                restored.service.checkpointer.close()
                scores.append(resume_replay_scores(directory))
        assert scores[0] == scores[1]
