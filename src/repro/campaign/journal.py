"""Durable campaign journal: crash-safe progress, exact resume.

A :class:`CampaignJournal` is an append-only JSONL file recording a
campaign's progress as it happens: a ``campaign`` header per
:func:`~repro.campaign.api.run_campaign` call (label, content digest of
the spec batch, batch size), one ``result`` record per completed
:class:`~repro.campaign.spec.RunSpec` (keyed by the spec's digest, the
same content hash the :class:`~repro.campaign.cache.ResultCache` uses),
and consumer ``checkpoint`` records (the delay-bounded explorer records
its search identity here).

Durability model:

* **Append-only, fsync'd.**  Every record is one JSON line, flushed and
  ``fsync``'d before the method that wrote it returns (tunable via
  ``fsync_every``), so a ``SIGKILL`` at any instant loses at most the
  record currently being written.
* **The journal fsync is the campaign's durability point.**  A result
  cached behind a journal record is not fsync'd a second time:
  :meth:`durable` says whether a digest's record is on disk, syncing
  the pending group first if it is not, and the campaign layer writes
  the cache entry without an fsync of its own only when it is.  After a
  power loss such an entry may be missing or fail its checksum; the
  cache reads it as a miss, and the result is still in the journal.
* **Torn tails are expected, not fatal.**  A kill mid-write leaves a
  truncated final line; :meth:`load` skips unparseable lines (counting
  them in ``torn_records``) instead of refusing the journal, so a
  crashed campaign is always resumable.
* **Results are recorded at most once per digest.**  :meth:`record`
  is idempotent — a digest already present (from this process or a
  previous incarnation replayed at open) is never appended again.
  Because a spec's digest determines its result exactly, this is what
  gives resumed campaigns exactly-once semantics: every spec's result
  appears in the journal exactly once, byte-identical to what an
  uninterrupted campaign would have produced.
* **Appending to a torn tail never corrupts the successor.**  A journal
  opened over a file whose final line is torn (the previous owner may
  have died mid-write, or may even still be flushing) starts its own
  appends on a fresh line, so the torn fragment stays confined to one
  unparseable line instead of fusing with the first new record.
* **Writes are thread-safe.**  Several campaigns may share one journal
  from concurrent threads; every mutating method takes the journal's
  lock, so records never interleave mid-line and the idempotence check
  is atomic with the append.

Only results that are pure functions of their spec are worth
journaling; environment-dependent failures (wall-clock timeouts, lost
workers, preemption) are filtered by the campaign layer so a resume
re-attempts them, mirroring the :class:`ResultCache` policy.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Union

from repro.campaign.spec import RunResult
from repro.obs import METRICS

#: Bucket bounds for journal I/O latencies: 10µs to ~0.6s.
_IO_BUCKETS = tuple(1e-5 * 4 ** i for i in range(9))


class JournalError(Exception):
    """A journal cannot be used as requested (identity mismatch, ...)."""


#: Journal format version, stamped on every ``campaign`` record.
JOURNAL_VERSION = 1


def campaign_digest(digests: Iterable[str]) -> str:
    """A content hash of a whole spec batch (by digest), order-sensitive."""
    joined = "\x1d".join(digests)
    return hashlib.sha256(joined.encode()).hexdigest()


def _encode_result(result: RunResult) -> str:
    return base64.b64encode(pickle.dumps(result)).decode("ascii")


def _decode_result(blob: str) -> RunResult:
    result = pickle.loads(base64.b64decode(blob.encode("ascii")))
    if not isinstance(result, RunResult):
        raise JournalError(f"journal result decodes to {type(result).__name__}")
    return result


class CampaignJournal:
    """An append-only, fsync'd JSONL record of campaign progress.

    Opening a path that already holds a journal *replays* it: every
    previously recorded result becomes available in :attr:`replayed`
    (digest -> :class:`RunResult`), and subsequent appends continue the
    same file.  The campaign layer consults :attr:`replayed` before the
    result cache, which is what makes ``--resume`` skip completed work.

    ``fsync_every=1`` (the default) makes every record durable before
    the run that produced it can be considered complete; larger values
    trade a bounded window of re-executable work for fewer syncs.
    """

    def __init__(self, path: Union[str, Path], fsync_every: int = 1) -> None:
        self.path = Path(path)
        self.fsync_every = max(1, fsync_every)
        #: Digest -> result for every result record already on disk.
        self.replayed: Dict[str, RunResult] = {}
        #: Most recent consumer checkpoint per kind (last one wins).
        self._checkpoints: Dict[str, dict] = {}
        #: ``campaign`` header records seen on load, in file order.
        self.campaigns: List[dict] = []
        #: Unparseable lines tolerated on load (torn tails from kills).
        self.torn_records = 0
        #: Records appended by this instance.
        self.appended = 0
        self._unsynced = 0
        #: Result digests appended since the last fsync.
        self._unsynced_digests: Set[str] = set()
        #: True once this instance has fsync'd the file: records replayed
        #: from disk may predate it and are durable only after that.
        self._synced_once = False
        self._lock = threading.RLock()
        #: True when the existing file ends mid-line (torn tail from a
        #: killed — or still-flushing — previous owner); the first
        #: append then starts on a fresh line so the new record cannot
        #: fuse with the fragment.
        self._tail_open = False
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._load()
        self._handle = self.path.open("a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Reading (replay)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        started = time.perf_counter() if METRICS.enabled else 0.0
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        self._tail_open = bool(raw) and not raw.endswith(b"\n")
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                kind = record["type"]
                if kind == "result":
                    self.replayed[record["digest"]] = _decode_result(
                        record["result"]
                    )
                elif kind == "campaign":
                    self.campaigns.append(record)
                elif kind == "checkpoint":
                    if record.get("kind"):
                        self._checkpoints[record["kind"]] = record
            except Exception:
                # A kill mid-append tears at most the line being
                # written; anything unparseable is dropped, never
                # trusted, and never blocks the resume.
                self.torn_records += 1
        if METRICS.enabled:
            METRICS.observe(
                "repro_journal_load_seconds",
                time.perf_counter() - started,
                help="Journal replay (read+decode) latency",
                buckets=_IO_BUCKETS,
            )
            if self.torn_records:
                METRICS.inc("repro_journal_torn_records_total",
                            self.torn_records,
                            help="Unparseable journal lines dropped on load")

    def last_checkpoint(self, kind: str) -> Optional[dict]:
        """The most recent checkpoint record of ``kind`` (or None)."""
        return self._checkpoints.get(kind)

    def __contains__(self, digest: str) -> bool:
        return digest in self.replayed

    def __len__(self) -> int:
        return len(self.replayed)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _append(self, record: dict) -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        started = time.perf_counter() if METRICS.enabled else 0.0
        if self._tail_open:
            # Seal the torn fragment off on its own line before the
            # first new record; the fragment stays one unparseable
            # (tolerated) line instead of swallowing this append.
            self._handle.write("\n")
            self._tail_open = False
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.appended += 1
        self._unsynced += 1
        if METRICS.enabled:
            METRICS.inc("repro_journal_appends_total",
                        help="Journal records appended")
            METRICS.observe(
                "repro_journal_append_seconds",
                time.perf_counter() - started,
                help="Journal append (write+flush) latency",
                buckets=_IO_BUCKETS,
            )

    def _group_commit(self) -> None:
        """Sync once ``fsync_every`` records are pending (lock held)."""
        if self._unsynced >= self.fsync_every:
            self._fsync()

    def begin_campaign(self, label: str, digest: str, total: int) -> None:
        """Stamp a campaign header: what batch this journal is serving."""
        with self._lock:
            self._append(
                {
                    "type": "campaign",
                    "version": JOURNAL_VERSION,
                    "label": label,
                    "digest": digest,
                    "total": total,
                    "already_completed": len(self.replayed),
                }
            )
            self._group_commit()

    def record(self, digest: str, result: RunResult) -> bool:
        """Append one completed run; idempotent per digest.

        Returns True when the record was appended, False when the digest
        was already journaled (replayed or recorded earlier).  The
        membership check and the append happen under the journal lock,
        so concurrent campaigns sharing one journal still record each
        digest at most once.
        """
        with self._lock:
            if digest in self.replayed:
                return False
            self.replayed[digest] = result
            self._append(
                {
                    "type": "result",
                    "digest": digest,
                    "result": _encode_result(result),
                }
            )
            self._unsynced_digests.add(digest)
            self._group_commit()
            return True

    def durable(self, digest: str) -> bool:
        """Whether ``digest``'s result record is fsync'd to disk.

        A digest recorded but not yet synced (``fsync_every > 1``, or a
        record another thread appended to a shared journal) is synced
        first, and so is a digest replayed from a file this instance has
        not yet synced.  False for a digest the journal does not hold,
        or when the record cannot be synced.
        """
        with self._lock:
            if digest not in self.replayed:
                return False
            if digest in self._unsynced_digests or not self._synced_once:
                return self._fsync()
            return True

    def checkpoint(self, kind: str, payload: Dict[str, Any]) -> None:
        """Append a consumer checkpoint (e.g. an explorer's identity)."""
        record = {
            "type": "checkpoint",
            "kind": kind,
            "completed": len(self.replayed),
            "payload": payload,
        }
        with self._lock:
            self._append(record)
            self._checkpoints[kind] = record
            self._group_commit()

    def sync(self) -> None:
        """Flush and fsync pending appends to disk."""
        with self._lock:
            if self._unsynced:
                self._fsync()

    def _fsync(self) -> bool:
        """Flush and fsync the file (lock held); True when it synced."""
        if self._handle is None:
            return False
        started = time.perf_counter() if METRICS.enabled else 0.0
        self._handle.flush()
        self._unsynced = 0
        try:
            os.fsync(self._handle.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            return False
        self._unsynced_digests.clear()
        self._synced_once = True
        if METRICS.enabled:
            METRICS.inc("repro_journal_fsyncs_total",
                        help="Journal fsync group commits")
            METRICS.observe(
                "repro_journal_fsync_seconds",
                time.perf_counter() - started,
                help="Journal fsync latency",
                buckets=_IO_BUCKETS,
            )
        return True

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self.sync()
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_journal(
    journal: Union["CampaignJournal", str, Path, None],
    resume: bool = False,
) -> Optional[CampaignJournal]:
    """Coerce a journal argument (object, path, or None) to a journal.

    With ``resume=True`` the path must already exist — resuming from a
    journal that was never written is almost certainly a typo, and
    silently starting fresh would turn "continue my campaign" into
    "redo everything".
    """
    if journal is None or isinstance(journal, CampaignJournal):
        return journal
    path = Path(journal)
    if resume and not path.exists():
        raise JournalError(f"cannot resume: journal {path} does not exist")
    return CampaignJournal(path)
