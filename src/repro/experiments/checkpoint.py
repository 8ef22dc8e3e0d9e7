"""Sweep-level checkpointing: a journal of completed jobs.

A long sweep is a list of independent jobs; losing the whole run to one
crashed worker (or a killed process) is the failure mode this module
removes.  :class:`SweepJournal` appends one JSONL line per completed
job as it finishes; a re-run opened in resume mode replays those lines
and only executes the jobs that are missing, merging to output
byte-identical to an uninterrupted run.

The journal is guarded by a **fingerprint** of the sweep it belongs to
(function name, job count, and a content hash of every job spec).  A
journal whose fingerprint does not match the sweep being run is stale --
different settings, seeds, or schemes -- and is ignored with a warning
rather than silently mixing results from two different sweeps.

Alongside the journal, :meth:`SweepJournal.write_manifest` records a
human-readable ``manifest.json`` summarising per-job status (completed /
failed with error / pending), which is the partial-results artifact a
degraded run leaves behind.

Results are encoded to JSON losslessly for the types sweeps produce:
:class:`~repro.experiments.runner.RunMetrics` (tagged, floats round-trip
exactly through ``repr``, NaN included), tuples (tagged, so they decode
back to tuples), lists, dicts, and JSON scalars.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import warnings
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

_FORMAT = "repro-sweep-journal-v1"


def sweep_fingerprint(fn: Callable, specs: Sequence[Any]) -> str:
    """Content hash identifying one (function, job list) sweep.

    Specs are already required to be picklable (they ship to workers);
    hashing their pickles catches any change to settings, seeds, schemes
    or fault plans between the interrupted run and the resume.
    """
    digest = hashlib.sha256()
    digest.update(getattr(fn, "__qualname__", repr(fn)).encode())
    digest.update(b"|%d|" % len(specs))
    for spec in specs:
        try:
            payload = pickle.dumps(spec, protocol=4)
        except Exception:
            payload = repr(spec).encode()
        digest.update(hashlib.sha256(payload).digest())
    return digest.hexdigest()


def encode_result(value: Any) -> Any:
    """JSON-encode a job result; lossless for the sweep result types."""
    from repro.experiments.runner import RunMetrics

    if isinstance(value, RunMetrics):
        return {"__runmetrics__": dataclasses.asdict(value)}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_result(v) for v in value]}
    if isinstance(value, list):
        return [encode_result(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"cannot journal dict with non-string key {key!r}"
                )
            out[key] = encode_result(item)
        return out
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot journal result of type {type(value).__name__}; "
        "sweep results must be RunMetrics, tuples, lists, dicts or scalars"
    )


def decode_result(value: Any) -> Any:
    """Invert :func:`encode_result`."""
    from repro.experiments.runner import RunMetrics

    if isinstance(value, dict):
        if "__runmetrics__" in value and len(value) == 1:
            return RunMetrics(**value["__runmetrics__"])
        if "__tuple__" in value and len(value) == 1:
            return tuple(decode_result(v) for v in value["__tuple__"])
        return {key: decode_result(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_result(v) for v in value]
    return value


def _job_label(spec: Any) -> Optional[str]:
    """Human-readable job tag when the spec carries the usual fields
    (directly, or in the run description of a sweep job)."""
    run = getattr(spec, "run", spec)
    parts = []
    for attr, owner in (("point", spec), ("seed", run), ("scheme", run)):
        value = getattr(owner, attr, None)
        if value is None:
            continue
        name = getattr(value, "name", value)
        parts.append(f"{attr}={name}")
    return " ".join(parts) or None


class SweepJournal:
    """Append-only record of completed jobs under one directory.

    Layout: ``<dir>/journal.jsonl`` (header line with the sweep
    fingerprint, then one line per completed job) and
    ``<dir>/manifest.json`` (status summary, rewritten at the end of
    every attempt).
    """

    def __init__(self, directory: str | Path, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.journal_path = self.directory / "journal.jsonl"
        self.manifest_path = self.directory / "manifest.json"
        #: resume mode replays a matching existing journal; otherwise any
        #: existing journal is discarded and the sweep starts clean
        self.resume = resume
        self.fingerprint: Optional[str] = None
        self._completed: dict[int, Any] = {}
        self._attempts: dict[int, int] = {}
        self._labels: dict[int, Optional[str]] = {}
        self._total = 0
        self._handle = None

    # -- lifecycle --------------------------------------------------------

    def open(self, fn: Callable, specs: Sequence[Any]) -> None:
        """Bind to a sweep: load resumable entries, start the journal."""
        self.fingerprint = sweep_fingerprint(fn, specs)
        self._total = len(specs)
        self._labels = {i: _job_label(spec) for i, spec in enumerate(specs)}
        entries: list[dict] = []
        if self.resume and self.journal_path.exists():
            entries = self._load_entries()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.journal_path, "w", encoding="utf-8")
        self._write_line(
            {"format": _FORMAT, "fingerprint": self.fingerprint,
             "total": self._total}
        )
        for entry in entries:
            index = int(entry["job"])
            self._completed[index] = decode_result(entry["result"])
            self._attempts[index] = int(entry.get("attempts", 1))
            self._write_line(entry)

    def _load_entries(self) -> list[dict]:
        try:
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                lines = [line for line in handle if line.strip()]
            if not lines:
                return []
            header = json.loads(lines[0])
        except (OSError, json.JSONDecodeError) as exc:
            warnings.warn(
                f"ignoring unreadable sweep journal {self.journal_path}: {exc}",
                stacklevel=3,
            )
            return []
        if (header.get("format") != _FORMAT
                or header.get("fingerprint") != self.fingerprint):
            warnings.warn(
                f"sweep journal {self.journal_path} belongs to a different "
                "sweep (settings, seeds, schemes or fault plan changed); "
                "ignoring it and starting fresh",
                stacklevel=3,
            )
            return []
        entries = []
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-write leaves at most one torn final line.
                break
            if "job" in entry and "result" in entry:
                entries.append(entry)
        return entries

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- per-job interface ------------------------------------------------

    def completed(self) -> dict[int, Any]:
        """Decoded results of every journaled job, keyed by job index."""
        return dict(self._completed)

    def record(self, index: int, result: Any, attempts: int = 1) -> None:
        """Append one completed job; flushed so a crash loses at most
        the in-flight line."""
        self._completed[index] = result
        self._attempts[index] = attempts
        entry = {"job": index, "attempts": attempts,
                 "result": encode_result(result)}
        label = self._labels.get(index)
        if label:
            entry["label"] = label
        self._write_line(entry)

    def _write_line(self, entry: dict) -> None:
        assert self._handle is not None, "journal not opened"
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    # -- partial-results manifest -----------------------------------------

    def write_manifest(self, failures: Optional[dict[int, str]] = None) -> Path:
        """Summarise job status to ``manifest.json``; the artifact a
        degraded (partially failed) sweep leaves behind."""
        failures = failures or {}
        jobs = []
        for index in range(self._total):
            if index in self._completed:
                status = "completed"
            elif index in failures:
                status = "failed"
            else:
                status = "pending"
            entry: dict[str, Any] = {"job": index, "status": status}
            label = self._labels.get(index)
            if label:
                entry["label"] = label
            if index in self._attempts:
                entry["attempts"] = self._attempts[index]
            if index in failures:
                entry["error"] = failures[index]
            jobs.append(entry)
        manifest = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "total": self._total,
            "completed": len(self._completed),
            "failed": len(failures),
            "complete": len(self._completed) == self._total,
            "jobs": jobs,
        }
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        return self.manifest_path
