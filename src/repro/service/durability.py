"""Crash-safe checkpoints for the live service.

The durability layer makes a running :class:`~repro.service.runtime.
LiveService` survive ``SIGKILL`` with a **replay-equivalence
guarantee**: a run that is killed and resumed from its latest
checkpoint finishes with metrics byte-identical to the same run left
uninterrupted (and therefore, transitively, to the batch
``run_once`` -- see ``docs/DURABILITY.md`` for the full argument).

Physically pickling the runtime is a dead end here: the engine heap
holds closures (refresh timers, the freshness probe), which cannot be
serialised.  Instead the checkpoint is *logical*, exploiting the fact
the whole stack is deterministic:

1. **Build spec** (``spec.json``) -- the exact inputs
   :func:`~repro.service.runtime.service_from_settings` needs to
   rebuild the runtime bit-identically (settings, seed, scheme, service
   knobs).  Written once at service start.
2. **Write-ahead journal** (``journal.jsonl``) -- every contact batch
   the pipeline will see is appended (each record CRC-tagged) followed
   by a *commit marker* carrying the source cursor, flushed **before**
   the batch is handed downstream.  Because the ingest path is a
   deterministic function of the event sequence, the journal is the
   runtime's most compact serialisation: caches, version history,
   relay-plan state, pending control events, the engine clock and the
   watermark are all reproduced by replaying it.
3. **Manifest** (``manifest.json``) -- written periodically via
   write-to-temp + atomic rename: the number of journal records the
   simulation has actually ingested (the *watermark-consistent* point;
   FIFO stages guarantee it is a journal prefix), the watermark and
   clock, and a :func:`runtime_digest` of the live state (store
   contents, version history, accountant counts, shed counters).  The
   digest is not needed to restore -- it *verifies* the restore:
   replaying the journal prefix must land on the exact digest, else
   :class:`CheckpointError`.

Recovery truncates any torn journal tail back to the last commit
marker (records past it were never handed downstream, so the upstream
cursor re-serves them), rebuilds the service from the spec, re-ingests
the journal, checks the manifest digest in passing, and resumes the
source at the journaled cursor.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.obs.records import CheckpointRestored, CheckpointWritten
from repro.service.events import ContactEvent, MalformedEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import Settings
    from repro.mobility.trace import ContactTrace
    from repro.service.runtime import LiveService

SPEC_FILE = "spec.json"
MANIFEST_FILE = "manifest.json"
JOURNAL_FILE = "journal.jsonl"
QUARANTINE_FILE = "quarantine.jsonl"

#: default seconds between manifests
DEFAULT_INTERVAL_S = 5.0

#: journal records re-ingested per chunk during a restore (between
#: chunks the async restore path yields so ``/healthz`` stays live)
RESTORE_CHUNK = 1024


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, inconsistent, or corrupt."""


def _canonical(payload: dict) -> bytes:
    """Stable byte encoding for CRCs and fingerprints."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _crc(payload: dict) -> int:
    return zlib.crc32(_canonical(payload))


class CommittedBatch(list):
    """A parsed, journaled contact batch flowing down the pipeline.

    ``commit`` is the journal's total record count once this batch was
    committed; the cache stage reports it to the checkpointer after
    ingesting, which is what makes manifests watermark-consistent.
    """

    __slots__ = ("commit",)


class Quarantine:
    """Sidecar file for stream lines that fail to parse.

    A malformed line must never stall or kill the ingest path, but
    silently dropping it hides feed corruption -- so rejected lines are
    counted (``service.events.rejected``) and appended, with the parse
    error, to ``quarantine.jsonl`` for post-mortems.
    """

    def __init__(self, path, registry=None) -> None:
        self.path = Path(path)
        self.count = 0
        self._handle = None
        self._counter = (
            registry.counter("service.events.rejected")
            if registry is not None else None
        )

    def reject(self, line, reason) -> None:
        self.count += 1
        if self._counter is not None:
            self._counter.add(1)
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(
            {"line": str(line)[:500], "reason": str(reason)[:200]}
        ) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass(frozen=True)
class JournalScan:
    """Recovered content of a journal file (committed prefix only)."""

    events: tuple
    cursor: Optional[int]
    records: int
    commits: int
    valid_bytes: int


def scan_journal(path) -> JournalScan:
    """Read a journal back, stopping at the first torn/corrupt line.

    Only records covered by a valid commit marker count: a tail of
    record lines without their commit was never handed downstream
    (the writer flushes record+commit together, before yielding), so
    the resumed source re-serves those events.  Returns the committed
    events, the last committed cursor, and the byte length of the
    valid region (everything past it is truncated on re-open).
    """
    path = Path(path)
    if not path.exists():
        return JournalScan((), None, 0, 0, 0)
    data = path.read_bytes()
    events: list[ContactEvent] = []
    committed = 0
    commits = 0
    cursor: Optional[int] = None
    valid_bytes = 0
    offset = 0
    for segment in data.split(b"\n")[:-1]:
        offset += len(segment) + 1
        try:
            payload = json.loads(segment)
            if not isinstance(payload, dict):
                break
            crc = payload.pop("crc", None)
            if crc != _crc(payload):
                break
            if "commit" in payload:
                if payload["commit"] != len(events):
                    break
                committed = len(events)
                cursor = payload.get("cursor")
                commits += 1
                valid_bytes = offset
            else:
                events.append(ContactEvent(
                    a=int(payload["a"]), b=int(payload["b"]),
                    start=float(payload["start"]),
                    end=float(payload["end"]),
                ))
        except (ValueError, KeyError, TypeError, MalformedEvent):
            break
    return JournalScan(tuple(events[:committed]), cursor,
                       committed, commits, valid_bytes)


class Journal:
    """Append-only write-ahead log of the accepted contact stream."""

    def __init__(self, path, handle, records: int, commits: int,
                 bytes_written: int, cursor: Optional[int]) -> None:
        self.path = Path(path)
        self._handle = handle
        self.records = records
        self.commits = commits
        self.bytes_written = bytes_written
        self.cursor = cursor

    @classmethod
    def open(cls, path, scan: Optional[JournalScan] = None) -> "Journal":
        """Open (or create) a journal, recovering any torn tail.

        Truncating back to the last commit keeps the invariant that a
        journal always ends at a commit marker, so appends after a
        crash never interleave with garbage.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if scan is None:
            scan = scan_journal(path)
        if path.exists() and path.stat().st_size != scan.valid_bytes:
            with open(path, "rb+") as handle:
                handle.truncate(scan.valid_bytes)
        handle = open(path, "ab")
        return cls(path, handle, scan.records, scan.commits,
                   scan.valid_bytes, scan.cursor)

    def append_batch(self, events: Sequence[ContactEvent],
                     cursor: Optional[int]) -> int:
        """Append a batch plus its commit marker; flush; return the
        total committed record count.

        An empty ``events`` still writes the commit marker -- the
        cursor must advance past source batches that parsed to nothing
        (all-malformed input), or a resume would re-serve them forever.
        """
        lines = []
        for event in events:
            payload = {"a": event.a, "b": event.b,
                       "start": event.start, "end": event.end}
            payload["crc"] = _crc(payload)
            lines.append(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")))
        self.records += len(events)
        commit = {"commit": self.records, "cursor": cursor}
        commit["crc"] = _crc(commit)
        lines.append(json.dumps(commit, sort_keys=True,
                                separators=(",", ":")))
        blob = ("\n".join(lines) + "\n").encode()
        self._handle.write(blob)
        self._handle.flush()
        self.bytes_written += len(blob)
        self.commits += 1
        self.cursor = cursor
        return self.records

    def sync(self) -> None:
        """fsync -- called by the checkpointer before each manifest, so
        a manifest never references journal bytes the disk lacks."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class DurableSource:
    """Write-ahead wrapper: parse, quarantine, journal, then forward.

    Wraps any batch source.  Raw lines are parsed here (malformed ones
    quarantined) so the journal only ever holds valid events; each
    batch is committed to the journal -- with the inner source's cursor
    -- and flushed *before* it is yielded downstream.  Everything the
    simulation ever sees is therefore in the journal, which is the
    whole recovery argument.
    """

    def __init__(self, inner, journal: Journal,
                 quarantine: Optional[Quarantine] = None) -> None:
        self.inner = inner
        self.journal = journal
        self.quarantine = quarantine

    def cursor(self) -> Optional[int]:
        return self.journal.cursor

    async def __aiter__(self):
        cursor_of = getattr(self.inner, "cursor", None)
        async for batch in self.inner:
            events = []
            for item in batch:
                if isinstance(item, ContactEvent):
                    events.append(item)
                    continue
                try:
                    events.append(ContactEvent.from_line(item))
                except MalformedEvent as exc:
                    if self.quarantine is not None:
                        self.quarantine.reject(item, exc)
            cursor = cursor_of() if cursor_of is not None else None
            commit = self.journal.append_batch(events, cursor)
            if events:
                out = CommittedBatch(events)
                out.commit = commit
                yield out


@dataclass(frozen=True)
class BuildSpec:
    """Everything needed to rebuild a service bit-identically.

    Plain JSON-serialisable data (settings fields, seed, scheme *name*,
    service knobs) -- the deterministic half of the checkpoint.  A
    scheme passed as a custom :class:`SchemeConfig` object cannot be
    referenced from disk, so durability requires a named scheme.
    """

    settings: dict
    seed: int
    scheme: str
    service: dict = field(default_factory=dict)
    version: int = 1

    @classmethod
    def from_settings(cls, settings: "Settings", seed: int, scheme: str,
                      **service_kwargs) -> "BuildSpec":
        from dataclasses import asdict

        if not isinstance(scheme, str):
            raise CheckpointError(
                "checkpointing needs a named scheme (str), got "
                f"{type(scheme).__name__}; custom SchemeConfig objects "
                "cannot be rebuilt from a spec file"
            )
        fields_ = asdict(settings)
        fields_["seeds"] = list(fields_["seeds"])
        service = {}
        for key, value in service_kwargs.items():
            if value is None or key == "bus":
                continue  # a bus is rewired at restore, not serialised
            try:
                json.dumps(value)
            except TypeError:
                raise CheckpointError(
                    f"service option {key!r} is not JSON-serialisable; "
                    "it cannot go in a build spec"
                )
            service[key] = value
        return cls(settings=fields_, seed=int(seed), scheme=scheme,
                   service=service)

    def settings_obj(self) -> "Settings":
        """The spec's :class:`Settings`; a key no setting has (say, one
        a later version removed) is a :class:`CheckpointError`."""
        from dataclasses import fields

        from repro.experiments.config import Settings

        fields_ = dict(self.settings)
        unknown = sorted(set(fields_) - {f.name for f in fields(Settings)})
        if unknown:
            raise CheckpointError(
                f"build spec names unknown setting(s) {', '.join(unknown)}; "
                "it was written by an incompatible version"
            )
        fields_["seeds"] = tuple(fields_["seeds"])
        return Settings(**fields_)

    def as_dict(self) -> dict:
        return {"version": self.version, "settings": self.settings,
                "seed": self.seed, "scheme": self.scheme,
                "service": self.service}

    @classmethod
    def from_dict(cls, payload: dict) -> "BuildSpec":
        try:
            return cls(settings=dict(payload["settings"]),
                       seed=int(payload["seed"]),
                       scheme=str(payload["scheme"]),
                       service=dict(payload.get("service", {})),
                       version=int(payload.get("version", 1)))
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad build spec: {exc}") from exc

    def fingerprint(self) -> str:
        return hashlib.sha256(_canonical(self.as_dict())).hexdigest()

    def save(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / SPEC_FILE
        existing = None
        if path.exists():
            existing = BuildSpec.from_dict(
                json.loads(path.read_text(encoding="utf-8"))
            )
            if existing.fingerprint() != self.fingerprint():
                raise CheckpointError(
                    f"{path} already holds a different build spec; "
                    "refusing to mix checkpoints of two services "
                    "(use a fresh --checkpoint directory)"
                )
            return path
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.as_dict(), indent=2) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory) -> "BuildSpec":
        path = Path(directory) / SPEC_FILE
        if not path.exists():
            raise CheckpointError(f"no build spec at {path}")
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable build spec {path}: {exc}")
        return cls.from_dict(payload)

    def build(self, **service_overrides) -> "tuple[LiveService, ContactTrace]":
        from repro.service.runtime import service_from_settings

        kwargs = dict(self.service)
        kwargs.update(service_overrides)
        return service_from_settings(
            self.settings_obj(), seed=self.seed, scheme=self.scheme, **kwargs
        )


#: counters that are part of the consistent state (they are advanced
#: only by the deterministic ingest path, so a restore reproduces them)
_DIGEST_COUNTERS = (
    "service.contacts.ingested",
    "service.contacts.shed_late",
    "service.contacts.shed_unknown",
    "service.contacts.shed_past_horizon",
)


def runtime_digest(service: "LiveService") -> dict:
    """Summarise the ingest-consistent runtime state for verification.

    Everything here is a pure function of (build spec, journal prefix):
    the watermark and clock, executed-event count, ingest counters, the
    O(1) accountant snapshot, and SHA-256 digests over every cache
    entry and the ground-truth version history.  Query-plane counters
    and wall-clock histograms are deliberately excluded -- queries are
    passive and do not restore.
    """
    runtime = service.runtime
    stores = hashlib.sha256()
    for node_id in runtime.caching_nodes:
        store = runtime.stores[node_id]
        for item_id in store.item_ids():
            entry = store.peek(item_id)
            stores.update(_canonical({
                "node": node_id, "item": item_id,
                "version": entry.version,
                "version_time": entry.version_time,
                "cached_at": entry.cached_at,
            }))
    history = hashlib.sha256()
    times = runtime.history._times
    for item_id in sorted(times):
        history.update(_canonical({"item": item_id, "times": times[item_id]}))
    counters = runtime.stats.counters()
    fresh, valid, total = runtime.freshness_snapshot()
    return {
        "watermark": service.watermark,
        "sim_time": runtime.sim.now,
        "events_executed": runtime.sim.events_executed,
        "counters": {name: counters.get(name, 0)
                     for name in _DIGEST_COUNTERS},
        "accountant": [fresh, valid, total],
        "stores_sha256": stores.hexdigest(),
        "history_sha256": history.hexdigest(),
    }


class Checkpointer:
    """Periodic watermark-consistent manifests over a journal.

    The cache stage calls :meth:`note_commit` right after ingesting a
    committed batch; once ``interval_s`` wall seconds have passed, the
    next call fsyncs the journal and atomically replaces
    ``manifest.json``.  The manifest's ``records`` count and digest
    describe *exactly* the ingested journal prefix -- the stage calls
    synchronously between batches, so there is no in-flight state.
    """

    def __init__(self, directory, service: "LiveService", journal: Journal,
                 quarantine: Optional[Quarantine] = None,
                 interval_s: float = DEFAULT_INTERVAL_S,
                 stale_after_s: Optional[float] = None,
                 spec_fingerprint: Optional[str] = None) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be >= 0")
        self.directory = Path(directory)
        self.service = service
        self.journal = journal
        self.quarantine = quarantine
        self.interval_s = interval_s
        self.stale_after_s = (
            stale_after_s if stale_after_s is not None
            else max(5.0 * interval_s, 10.0)
        )
        self.spec_fingerprint = spec_fingerprint
        self.manifest_path = self.directory / MANIFEST_FILE
        self._pending = journal.records
        self._written: Optional[int] = None
        self._last_write = perf_counter()
        stats = service.stats
        self._c_written = stats.counter("service.checkpoint.written")
        self._h_write_ms = stats.histogram("service.checkpoint.write_ms")

    def note_commit(self, commit: int) -> None:
        """Record that the simulation has ingested journal prefix
        ``commit``; write a manifest when the interval elapsed."""
        self._pending = commit
        if perf_counter() - self._last_write >= self.interval_s:
            self.write()

    def stale(self) -> bool:
        """Whether committed state has outrun the manifest for too long."""
        behind = self._written is None or self._pending > self._written
        return behind and (
            perf_counter() - self._last_write > self.stale_after_s
        )

    def write(self) -> Optional[Path]:
        """fsync the journal and atomically publish a manifest."""
        if self.service._finished:
            # past finish() the clock has run to the horizon, which is
            # not an ingest-consistent point -- never manifest it
            return None
        started = perf_counter()
        self.journal.sync()
        digest = runtime_digest(self.service)
        manifest = {
            "version": 1,
            "spec_sha256": self.spec_fingerprint,
            "records": self._pending,
            "watermark": self.service.watermark,
            "sim_time": self.service.runtime.sim.now,
            "digest": digest,
            "journal": {
                "records": self.journal.records,
                "commits": self.journal.commits,
                "bytes": self.journal.bytes_written,
                "cursor": self.journal.cursor,
            },
            "quarantined": (
                self.quarantine.count if self.quarantine is not None else 0
            ),
            "queue_peaks": {
                name: value
                for name, value in self.service.stats.gauges().items()
                if name.endswith(".peak")
            },
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n",
                       encoding="utf-8")
        os.replace(tmp, self.manifest_path)
        self._written = self._pending
        self._last_write = perf_counter()
        wall_ms = (self._last_write - started) * 1e3
        self._c_written.add(1)
        self._h_write_ms.observe(wall_ms)
        if self.service.bus is not None:
            self.service.bus.emit(CheckpointWritten(
                self.service.runtime.sim.now, self._pending,
                self.service.watermark, self.journal.bytes_written, wall_ms,
                self.quarantine.count if self.quarantine is not None else 0,
            ))
        return self.manifest_path

    def close(self) -> None:
        """Final manifest (if anything moved) and release file handles."""
        if not self.service._finished and self._written != self._pending:
            self.write()
        self.journal.close()
        if self.quarantine is not None:
            self.quarantine.close()


def load_manifest(directory) -> Optional[dict]:
    """Read ``manifest.json`` if present (atomic rename means it is
    either absent or complete -- a torn manifest cannot exist)."""
    path = Path(directory) / MANIFEST_FILE
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable manifest {path}: {exc}")


@dataclass
class RestoredService:
    """Everything :func:`restore_service` hands back."""

    service: "LiveService"
    trace: "ContactTrace"
    cursor: Optional[int]
    records: int
    verified: bool
    manifest: Optional[dict]


def _verify_digest(service: "LiveService", manifest: dict) -> None:
    actual = runtime_digest(service)
    expected = manifest.get("digest", {})
    mismatched = sorted(
        key for key in set(actual) | set(expected)
        if actual.get(key) != expected.get(key)
    )
    if mismatched:
        raise CheckpointError(
            "restored state diverged from the manifest digest at record "
            f"{manifest.get('records')}: mismatched {mismatched} "
            f"(expected {expected}, got "
            f"{ {k: actual.get(k) for k in mismatched} })"
        )


def _replay_chunks(service: "LiveService", events: Sequence[ContactEvent],
                   manifest: Optional[dict]):
    """Generator re-ingesting the journal chunk by chunk.

    Yields after every chunk (the async restore awaits there so probes
    stay answered); ``return``s whether the manifest digest verified.
    A chunk boundary is forced at the manifest's ``records`` count so
    the digest is checked at exactly the consistent point.
    """
    verify_at = manifest["records"] if manifest is not None else None
    if verify_at is not None and verify_at > len(events):
        raise CheckpointError(
            f"manifest covers {verify_at} journal records but only "
            f"{len(events)} were recovered -- journal truncated or "
            "manifest from a different run"
        )
    # serve() starts the sim before the first event arrives, so every
    # manifest reflects a started network; match that before verifying
    service.start_sim()
    verified = False
    if verify_at == 0:
        _verify_digest(service, manifest)
        verified = True
    done = 0
    while done < len(events):
        upto = min(done + RESTORE_CHUNK, len(events))
        if verify_at is not None and done < verify_at:
            upto = min(upto, verify_at)
        service.ingest_batch(events[done:upto])
        done = upto
        if verify_at is not None and done == verify_at and not verified:
            _verify_digest(service, manifest)
            verified = True
        yield done
    return verified


def _begin_restore(directory, service_overrides: dict):
    directory = Path(directory)
    spec = BuildSpec.load(directory)
    manifest = load_manifest(directory)
    if manifest is not None and manifest.get("spec_sha256") not in (
        None, spec.fingerprint()
    ):
        raise CheckpointError(
            f"manifest in {directory} was written by a different build "
            "spec; refusing to restore"
        )
    service, trace = spec.build(**service_overrides)
    scan = scan_journal(directory / JOURNAL_FILE)
    service.state = "resuming"
    return spec, manifest, service, trace, scan


def _finish_restore(directory, spec, manifest, service, trace, scan,
                    verified: bool, interval_s: float,
                    started: float) -> RestoredService:
    service.state = "ok"
    journal = Journal.open(Path(directory) / JOURNAL_FILE, scan=scan)
    service.enable_checkpointing(directory, journal=journal,
                                 interval_s=interval_s,
                                 spec_fingerprint=spec.fingerprint())
    wall_ms = (perf_counter() - started) * 1e3
    service.stats.counter("service.checkpoint.restored").add(1)
    if service.bus is not None:
        service.bus.emit(CheckpointRestored(
            service.runtime.sim.now, scan.records, service.watermark,
            scan.cursor, verified, wall_ms,
        ))
    return RestoredService(service=service, trace=trace, cursor=scan.cursor,
                           records=scan.records, verified=verified,
                           manifest=manifest)


def restore_service(directory, interval_s: float = DEFAULT_INTERVAL_S,
                    **service_overrides) -> RestoredService:
    """Rebuild a service from a checkpoint directory, verified.

    Rebuilds the runtime from ``spec.json``, truncates and replays the
    journal (verifying the manifest digest at its consistent point),
    re-attaches checkpointing to the recovered journal, and reports the
    cursor where the upstream source should resume.
    """
    started = perf_counter()
    spec, manifest, service, trace, scan = _begin_restore(
        directory, service_overrides
    )
    try:
        replay = _replay_chunks(service, scan.events, manifest)
        while True:
            try:
                next(replay)
            except StopIteration as done:
                verified = done.value
                break
    except Exception:
        service.state = "ok"
        raise
    return _finish_restore(directory, spec, manifest, service, trace, scan,
                           verified, interval_s, started)


async def restore_service_async(
    directory,
    interval_s: float = DEFAULT_INTERVAL_S,
    on_built: Optional[Callable[["LiveService"], object]] = None,
    **service_overrides,
) -> RestoredService:
    """:func:`restore_service` that yields to the event loop between
    replay chunks.

    ``on_built`` runs (and is awaited, if a coroutine) as soon as the
    service object exists but *before* the journal replays -- the CLI
    uses it to start the HTTP endpoint, so external probes see
    ``503 resuming`` for the whole replay instead of connection
    refused.
    """
    started = perf_counter()
    spec, manifest, service, trace, scan = _begin_restore(
        directory, service_overrides
    )
    try:
        if on_built is not None:
            maybe = on_built(service)
            if asyncio.iscoroutine(maybe):
                await maybe
        replay = _replay_chunks(service, scan.events, manifest)
        while True:
            try:
                next(replay)
            except StopIteration as done:
                verified = done.value
                break
            await asyncio.sleep(0)
    except Exception:
        service.state = "ok"
        raise
    return _finish_restore(directory, spec, manifest, service, trace, scan,
                           verified, interval_s, started)


def resume_replay_scores(directory, dilation: float = math.inf,
                         **service_overrides) -> dict:
    """Restore from ``directory`` and replay the *rest* of the recorded
    trace to completion, returning the final score (tests, bench).

    The resumed :class:`~repro.service.sources.ReplaySource` starts at
    the journaled cursor, so together with the journal replay the
    service sees every trace event exactly once.
    """
    from repro.service.runtime import serve_and_score
    from repro.service.sources import ReplaySource

    restored = restore_service(directory, **service_overrides)
    events = ContactEvent.from_contacts(restored.trace)
    start = restored.cursor or 0
    pace_from = events[start].start if start < len(events) else 0.0
    source = ReplaySource(events, dilation=dilation, start_at=start,
                          pace_from=pace_from)
    return asyncio.run(serve_and_score(restored.service, source))
