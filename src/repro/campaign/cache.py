"""On-disk result cache keyed by the content hash of a spec.

Because a :class:`~repro.campaign.spec.RunSpec` determines its
:class:`~repro.campaign.spec.RunResult` exactly, results can be memoised
across processes and sessions: the cache maps ``spec.digest()`` — a
sha256 over program content, policy spec, machine configuration, seed,
cycle bound, schedule, and fault plan — to a pickled result.

Durability order.  When a campaign journals its results, the journal's
fsync is the durability point: a result's cache entry is written only
after its journal record is durable, and is not fsync'd again.  A cache
used without a journal fsyncs each entry itself.  Either way an entry
is written to a temp file and renamed into place (``os.replace``), and
it carries a sha256 checksum of its pickle.  So after a kill or a power
loss an entry may be missing, or present but failing verification
(truncated, zero-filled, or written in an older format); reading such
an entry quarantines the file (renamed ``*.corrupt``) and reports a
miss.  A cache directory can never poison a campaign, only fail to
accelerate it, and a result lost from the cache is still in the
journal.

With ``max_bytes`` set the cache is additionally *size-bounded*: after
each put that pushes the directory past the budget, the least recently
used entries (hits refresh an entry's mtime) are evicted oldest-first
until the budget holds again — the stepping stone toward the ROADMAP's
content-addressed store.  Eviction is advisory, not transactional: a
concurrent campaign may re-create an entry the moment it is evicted,
which merely costs one re-run.

Concurrent writers sharing one cache directory are expected (parallel
campaigns, on one host or several).  The sweep itself is guarded by a
non-blocking ``.evict.lock`` file: whichever process creates it runs
the sweep, everyone else skips theirs (the holder is already shrinking
the directory), so two processes can never both act on the same stale
size listing and evict twice as much as the budget demands.  A lock
older than :data:`EVICT_LOCK_TTL` is presumed orphaned by a killed
sweeper and broken.  Entries deleted under the sweeper by another
process are counted as reclaimed space, not re-charged to further
evictions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Optional, Union

from repro.campaign.spec import RunResult, RunSpec
from repro.obs import METRICS

#: Age (seconds) past which an eviction lock is presumed orphaned by a
#: killed sweeper and broken.  Sweeps take milliseconds; a minute is
#: generous headroom even on a thrashing machine.
EVICT_LOCK_TTL = 60.0

#: The current :class:`RunResult` layout; a cached entry with any other
#: attribute set was pickled by an older or newer layout.
_RESULT_FIELDS = frozenset(f.name for f in dataclasses.fields(RunResult))

#: An entry is ``_MAGIC``, the pickle, then the pickle's sha256 digest.
_MAGIC = b"RPC1"
_CHECKSUM_BYTES = hashlib.sha256().digest_size


class _Checksummed:
    """A write-only file wrapper that hashes everything written through it."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self.sha = hashlib.sha256()

    def write(self, data) -> int:
        self.sha.update(data)
        return self._fh.write(data)


def _verified_payload(data: bytes) -> memoryview:
    """The pickle inside an entry; ValueError when it fails verification."""
    if len(data) < len(_MAGIC) + _CHECKSUM_BYTES or not data.startswith(_MAGIC):
        raise ValueError("not a checksummed cache entry")
    body = memoryview(data)[len(_MAGIC):-_CHECKSUM_BYTES]
    if hashlib.sha256(body).digest() != data[-_CHECKSUM_BYTES:]:
        raise ValueError("cache entry fails its checksum")
    return body


class ResultCache:
    """A directory of pickled results, one file per spec digest."""

    def __init__(
        self,
        directory: Union[str, Path],
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        #: Size budget in bytes; None means unbounded.
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        #: Entries found unreadable and moved aside (``*.corrupt``).
        self.quarantined = 0
        #: Entries removed by the LRU sweep to hold ``max_bytes``.
        self.evictions = 0
        self.bytes_evicted = 0
        #: Running estimate of resident bytes; lazily seeded by a scan,
        #: maintained incrementally, re-scanned on every eviction sweep.
        self._approx_bytes: Optional[int] = None

    def _path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec.digest()}.pkl"

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        path = self._path(spec)
        try:
            result = pickle.loads(_verified_payload(path.read_bytes()))
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            # A torn, zero-filled or stale-format entry must never be
            # trusted; move it aside so it cannot shadow a future put
            # and is available for post-mortem.
            self._quarantine(path)
            self._miss()
            return None
        if (
            not isinstance(result, RunResult)
            or result.__dict__.keys() != _RESULT_FIELDS
        ):
            # Either not a result at all, or pickled by an older/newer
            # RunResult layout (missing or extra fields) — re-run rather
            # than hand back an object whose attributes may not resolve.
            self._quarantine(path)
            self._miss()
            return None
        self.hits += 1
        if METRICS.enabled:
            METRICS.inc("repro_cache_hits_total",
                        help="Result-cache hits")
        if self.max_bytes is not None:
            try:
                os.utime(path)  # a hit is a use: refresh LRU recency
            except OSError:
                pass
        return result

    def _miss(self) -> None:
        self.misses += 1
        if METRICS.enabled:
            METRICS.inc("repro_cache_misses_total",
                        help="Result-cache misses")

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
            self.quarantined += 1
            if METRICS.enabled:
                METRICS.inc("repro_cache_quarantined_total",
                            help="Corrupt cache entries moved aside")
        except OSError:
            pass

    def put(self, spec: RunSpec, result: RunResult, fsync: bool = True) -> None:
        """Store ``result`` under ``spec``'s digest; errors are swallowed.

        ``fsync=False`` skips the entry's own fsync: the campaign layer
        passes it only once the result's journal record is durable.
        """
        # Write, checksum, then rename: the temp file lives in the same
        # directory (os.replace must not cross filesystems), so a kill
        # at any instant leaves either the old entry, no entry, or the
        # complete new entry under the digest's name.  Without the
        # fsync a power loss may also leave a torn or zero-filled entry
        # there; its checksum fails and the read quarantines it.
        path = self._path(spec)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.directory), suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                fh.write(_MAGIC)
                checksummed = _Checksummed(fh)
                pickle.dump(result, checksummed)
                fh.write(checksummed.sha.digest())
                if fsync:
                    fh.flush()
                    os.fsync(fh.fileno())
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if METRICS.enabled:
                METRICS.inc("repro_cache_put_errors_total",
                            help="Result-cache puts lost to an I/O or "
                                 "pickling error")
            return
        if METRICS.enabled:
            if fsync:
                METRICS.inc("repro_cache_fsyncs_total",
                            help="Result-cache puts that fsync'd their "
                                 "own entry")
            METRICS.inc("repro_cache_puts_total",
                        help="Result-cache entries written")
        if self.max_bytes is not None:
            try:
                written = path.stat().st_size
            except OSError:
                written = 0
            if self._approx_bytes is None:
                self._approx_bytes = self.bytes_on_disk()
            else:
                self._approx_bytes += written
            if self._approx_bytes > self.max_bytes:
                self.evict(self.max_bytes)

    def bytes_on_disk(self) -> int:
        """Actual resident entry bytes (a directory scan)."""
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    @property
    def _evict_lock(self) -> Path:
        return self.directory / ".evict.lock"

    def _acquire_evict_lock(self) -> bool:
        """Try to become the directory's sole sweeper (non-blocking).

        ``O_CREAT | O_EXCL`` makes creation the atomic arbiter: exactly
        one process wins.  A loser checks the holder's lock age and
        breaks it only past :data:`EVICT_LOCK_TTL` (an orphan from a
        killed sweep), then retries once; otherwise it reports the sweep
        as already in other hands.
        """
        lock = self._evict_lock
        for _ in range(2):
            try:
                fd = os.open(str(lock), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - lock.stat().st_mtime
                except OSError:
                    continue  # holder just released; retry the create
                if age <= EVICT_LOCK_TTL:
                    return False
                # Orphaned by a killed sweeper: break it and retry.  Two
                # breakers may race here; the O_EXCL create on the next
                # iteration still elects exactly one winner.
                try:
                    os.unlink(str(lock))
                except OSError:
                    pass
                continue
            except OSError:
                return False
            os.close(fd)
            return True
        return False

    def _release_evict_lock(self) -> None:
        try:
            os.unlink(str(self._evict_lock))
        except OSError:
            pass

    def evict(self, budget: int) -> int:
        """LRU-sweep entries oldest-first until ``budget`` bytes hold.

        Returns the number of entries removed.  Recency is mtime: puts
        create entries fresh and hits re-touch them (when the cache is
        bounded), so the files deleted first are the ones neither
        written nor read for longest.

        One sweeper at a time: if another process holds the eviction
        lock, this call returns 0 immediately — the directory is
        already being shrunk, and sweeping the same stale listing twice
        would evict far below the budget.
        """
        if not self._acquire_evict_lock():
            if METRICS.enabled:
                METRICS.inc("repro_cache_evict_skipped_total",
                            help="Eviction sweeps skipped: lock held "
                                 "by a concurrent sweeper")
            return 0
        try:
            return self._evict_locked(budget)
        finally:
            self._release_evict_lock()

    def _evict_locked(self, budget: int) -> int:
        entries = []
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        entries.sort(key=lambda e: e[0])
        removed = 0
        for _mtime, size, path in entries:
            if total <= budget:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                # Deleted under us by another process: the bytes are
                # gone either way — count the space as reclaimed, or
                # this sweep would delete extra entries to make up for
                # files that no longer exist.
                total -= size
                continue
            except OSError:
                continue
            total -= size
            removed += 1
            self.evictions += 1
            self.bytes_evicted += size
            if METRICS.enabled:
                METRICS.inc("repro_cache_evictions_total",
                            help="Cache entries evicted by the LRU sweep")
                METRICS.inc("repro_cache_evicted_bytes_total", size,
                            help="Bytes reclaimed by the LRU sweep")
        self._approx_bytes = total
        if METRICS.enabled:
            METRICS.set_gauge("repro_cache_bytes_on_disk", total,
                              help="Resident cache bytes after last sweep")
        return removed

    def sweep_stale(self) -> int:
        """Remove temp files orphaned by killed writers; returns count.

        Only temp files older than :data:`EVICT_LOCK_TTL` go: a live
        put holds its temp file for milliseconds, so a concurrent
        campaign's put is never deleted under it.  Call this where a
        long-lived cache is opened, not per put.
        """
        cutoff = time.time() - EVICT_LOCK_TTL
        removed = 0
        for tmp in self.directory.glob("*.tmp"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))
