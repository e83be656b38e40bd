"""Persistent content-addressed result store (JSON on disk), sharded.

Layout (schema 2) under one root directory — safe to share between
schedulers, between processes, and between machines over a shared
filesystem::

    <root>/store.json                the store manifest ({"schema": 2,
                                     "shards": N}); opening an existing
                                     store always uses *its* shard
                                     count, so a key can never change
                                     shard between runs
    <root>/shards/<ss>/results/<key>.json
    <root>/shards/<ss>/memo/<key>.json
    <root>/shards/<ss>/claims/<key>.lock
    <root>/shards/<ss>/claims/.breaker   per-shard claim-breaker lock

with ``<ss>`` the two-hex-digit shard directory chosen by
:func:`shard_of` from the key's leading characters. Sharding bounds
directory sizes (a million results spread over N directories instead
of one) and gives every shard its own in-process lock, so concurrent
memo merges and counter updates on different shards never contend.

The **legacy flat layout** (schema 1: ``<root>/results``, ``memo``,
``claims`` directly under the root) is still read transparently: every
lookup falls back to the flat path, so opening a pre-sharding store
serves byte-identical documents with no migration step.
:meth:`ResultStore.migrate` moves the flat files into their shards
(``os.replace`` — same bytes, same filesystem, atomic), and
:meth:`ResultStore.gc` compacts the live tree: orphaned claims (stale,
crashed owners), memo snapshots whose result already exists, and
leftover temp files.

Every write is atomic (temp file + ``os.replace`` in the same
directory), so a reader never observes a torn JSON document; a result,
once written, is immutable — rewrites of the same key are skipped
because content-addressing makes them identical by construction.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

try:  # POSIX file locks serialize cross-process claim breaking
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.archive import ArchiveEntry, DesignArchive
from repro.core.executor import decode_memo_entries, encode_memo_entries
from repro.errors import ConfigurationError

DEFAULT_SHARDS = 16
_MANIFEST_NAME = "store.json"
_BREAKER_NAME = ".breaker"
#: Temp files older than this are presumed leaked by a crashed writer.
_TMP_GC_AGE = 3600.0


def shard_of(key: str, num_shards: int) -> int:
    """The shard index of ``key`` — stable across releases by contract.

    Content keys are hex digests, so their two-character prefix is
    already uniform: the shard is ``int(key[:2], 16) % num_shards``.
    Non-hex keys (allowed by the key charset) fall back to a CRC over
    the whole key. Changing this mapping would orphan every stored
    result, which is why ``tests/test_serve_store.py`` pins a golden
    key->shard table.
    """
    try:
        bucket = int(key[:2], 16)
    except (ValueError, IndexError):
        bucket = zlib.crc32(key.encode("utf-8"))
    return bucket % num_shards


@dataclass
class StoreStats:
    """Aggregate view of a store (the ``GET /store/stats`` payload)."""

    results: int
    result_bytes: int
    memo_files: int
    memo_bytes: int
    claims: int
    hits: int
    misses: int
    puts: int
    models: Dict[str, int]
    shards: int = 1
    legacy_files: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "results": self.results,
            "result_bytes": self.result_bytes,
            "memo_files": self.memo_files,
            "memo_bytes": self.memo_bytes,
            "claims": self.claims,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "models": dict(self.models),
            "shards": self.shards,
            "legacy_files": self.legacy_files,
        }


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass removed."""

    stale_claims: int = 0
    orphaned_memos: int = 0
    tmp_files: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {
            "stale_claims": self.stale_claims,
            "orphaned_memos": self.orphaned_memos,
            "tmp_files": self.tmp_files,
        }


@dataclass
class MigrationReport:
    """What one :meth:`ResultStore.migrate` pass moved."""

    results: int = 0
    memos: int = 0
    claims_dropped: int = 0

    def to_payload(self) -> Dict[str, int]:
        return {
            "results": self.results,
            "memos": self.memos,
            "claims_dropped": self.claims_dropped,
        }


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so concurrent readers never see partial JSON."""
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "wb") as tmp:
            tmp.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed synthesis results + persisted evaluation memos.

    Instance counters (``hits``/``misses``/``puts``) track this
    process's traffic; the on-disk state is the shared truth. All
    methods are thread-safe; state mutations are per-shard, so traffic
    on different shards never serializes in-process.

    Parameters
    ----------
    root:
        Store directory (created as needed).
    shards:
        Shard count for a *new* store. An existing store's manifest
        always wins; passing a conflicting explicit count raises
        :class:`ConfigurationError` instead of silently splitting the
        keyspace.
    """

    def __init__(
        self, root: Union[str, Path], shards: Optional[int] = None
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.shards_dir = self.root / "shards"
        # Legacy flat layout (schema 1) — read-only fallback.
        self.legacy_results_dir = self.root / "results"
        self.legacy_memo_dir = self.root / "memo"
        self.legacy_claims_dir = self.root / "claims"
        self.num_shards = self._resolve_shards(shards)
        for index in range(self.num_shards):
            shard = self.shards_dir / f"{index:02x}"
            for sub in ("results", "memo", "claims"):
                (shard / sub).mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._counter_lock = threading.Lock()
        self._shard_locks = [
            threading.Lock() for _ in range(self.num_shards)
        ]
        self._tomb_seq = itertools.count()

    def _resolve_shards(self, requested: Optional[int]) -> int:
        manifest = self.root / _MANIFEST_NAME
        try:
            existing = json.loads(manifest.read_text("utf-8"))
            current = int(existing["shards"])
        except (FileNotFoundError, KeyError, ValueError,
                json.JSONDecodeError):
            current = None
        if current is not None:
            if requested is not None and requested != current:
                raise ConfigurationError(
                    f"store {self.root} was created with {current} "
                    f"shards; reopening with shards={requested} would "
                    "split the keyspace"
                )
            return current
        shards = DEFAULT_SHARDS if requested is None else int(requested)
        if not 1 <= shards <= 256:
            raise ConfigurationError(
                f"store shard count must be in [1, 256], got {shards}"
            )
        _atomic_write(manifest, json.dumps(
            {"schema": 2, "shards": shards}
        ).encode("utf-8"))
        return shards

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _validate_key(self, key: str) -> None:
        if not key or any(c in key for c in "/\\."):
            raise ConfigurationError(f"malformed store key {key!r}")

    def _shard_lock(self, key: str) -> threading.Lock:
        return self._shard_locks[shard_of(key, self.num_shards)]

    def _shard_dir(self, key: str) -> Path:
        return self.shards_dir / f"{shard_of(key, self.num_shards):02x}"

    def _result_path(self, key: str) -> Path:
        self._validate_key(key)
        return self._shard_dir(key) / "results" / f"{key}.json"

    def _memo_path(self, key: str) -> Path:
        self._validate_key(key)
        return self._shard_dir(key) / "memo" / f"{key}.json"

    def _claim_path(self, key: str) -> Path:
        self._validate_key(key)
        return self._shard_dir(key) / "claims" / f"{key}.lock"

    def _legacy_result_path(self, key: str) -> Path:
        self._validate_key(key)
        return self.legacy_results_dir / f"{key}.json"

    def _legacy_memo_path(self, key: str) -> Path:
        self._validate_key(key)
        return self.legacy_memo_dir / f"{key}.json"

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Existence check that does not touch the hit/miss counters."""
        return (
            self._result_path(key).exists()
            or self._legacy_result_path(key).exists()
        )

    def _read_bytes(self, key: str) -> Optional[bytes]:
        """Raw document (shard first, legacy fallback); no counters."""
        for path in (
            self._result_path(key), self._legacy_result_path(key)
        ):
            try:
                return path.read_bytes()
            except FileNotFoundError:
                continue
        return None

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored result document, verbatim (byte-identical)."""
        data = self._read_bytes(key)
        with self._counter_lock:
            if data is None:
                self.misses += 1
            else:
                self.hits += 1
        return data

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored result payload, parsed; None on a miss."""
        data = self.get_bytes(key)
        if data is None:
            return None
        return json.loads(data.decode("utf-8"))

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Like :meth:`get`, but outside the hit/miss accounting.

        For internal re-checks of a lookup that was already counted
        once (a worker re-checking after claiming, ``wait_for``'s final
        read): counting those again would inflate the hit/miss stats
        with retries of the same logical request.
        """
        data = self._read_bytes(key)
        if data is None:
            return None
        return json.loads(data.decode("utf-8"))

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Persist a result document atomically (first write wins)."""
        path = self._result_path(key)
        if not self.contains(key):
            _atomic_write(
                path,
                json.dumps(payload, indent=2).encode("utf-8"),
            )
        with self._counter_lock:
            self.puts += 1
        return path

    def keys(self) -> List[str]:
        found = {
            p.stem
            for p in self.shards_dir.glob("*/results/*.json")
        }
        if self.legacy_results_dir.is_dir():
            found.update(
                p.stem for p in self.legacy_results_dir.glob("*.json")
            )
        return sorted(found)

    def wait_for(
        self, key: str, timeout: float, poll: float = 0.02
    ) -> Optional[Dict[str, Any]]:
        """Block until ``key`` appears (another worker is computing it).

        Gives up early when the claim disappears without a result (the
        owner crashed or was interrupted) and at ``timeout``. The final
        read is a :meth:`peek`: the caller counted this logical lookup
        at submission, and a timed-out poll is not a second miss.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.contains(key):
                return self.peek(key)
            if not self.claimed(key):
                break
            time.sleep(poll)
        return self.peek(key)

    # ------------------------------------------------------------------
    # Claims (cross-scheduler double-run prevention)
    # ------------------------------------------------------------------
    def claim(
        self, key: str, owner: str, stale_after: float = 600.0
    ) -> bool:
        """Try to become the unique computer of ``key``.

        ``O_CREAT | O_EXCL`` makes the claim atomic across processes.
        A claim older than ``stale_after`` seconds belongs to a crashed
        owner and is broken — atomically: breakers serialize on a
        per-shard lock and re-verify staleness while holding it, so two
        waiters that both observed the stale claim can never both
        unlink it (the second unlink used to delete the *fresh* claim
        the first waiter had just created, letting two schedulers
        compute the same key).
        """
        path = self._claim_path(key)
        body = json.dumps(
            {"owner": owner, "pid": os.getpid(), "time": time.time()}
        ).encode("utf-8")
        for _attempt in range(3):
            try:
                fd = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                if self._claim_age(path) > stale_after:
                    # Whether or not *we* won the break, the claim is
                    # (being) removed — retry the O_EXCL create and let
                    # it pick the single new owner.
                    self._break_stale_claim(path, stale_after)
                    continue
                return False
            with os.fdopen(fd, "wb") as handle:
                handle.write(body)
            return True
        return False

    def _break_stale_claim(
        self, path: Path, stale_after: float
    ) -> bool:
        """Atomically remove ``path`` iff it is *still* stale.

        Serialized on the shard's ``.breaker`` file (``flock``), with
        staleness re-verified under the lock: a racing breaker that
        arrives after the claim was broken and re-created sees a fresh
        claim (or none) and backs off instead of unlinking it.
        """
        breaker = path.parent / _BREAKER_NAME
        try:
            fd = os.open(breaker, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return False
        try:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                except OSError:  # pragma: no cover - exotic filesystems
                    pass
            # Re-verify under the lock. A vanished file reads age 0.0:
            # someone else already broke it.
            if not self._claim_age(path) > stale_after:
                return False
            try:
                os.unlink(path)
            except OSError:
                return False
            return True
        finally:
            os.close(fd)

    def refresh_claim(self, key: str) -> None:
        """Heartbeat: bump the claim's mtime so a long-running owner
        (jobs longer than ``stale_after``) is not presumed dead."""
        try:
            os.utime(self._claim_path(key))
        except OSError:
            pass

    def release(self, key: str) -> None:
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def claimed(self, key: str) -> bool:
        return self._claim_path(key).exists()

    @staticmethod
    def _claim_age(path: Path) -> float:
        try:
            return time.time() - path.stat().st_mtime
        except OSError:
            return 0.0

    # ------------------------------------------------------------------
    # Evaluation memos (resuming an interrupted job)
    # ------------------------------------------------------------------
    def load_memo(
        self, key: str
    ) -> List[Tuple[Hashable, float]]:
        """Decoded memo entries for ``Pimsyn(warm_memo=...)``; [] if none.

        Only an interrupted job writes a memo (:meth:`merge_memo`), so
        a resubmission of its key resumes instead of restarting.
        """
        for path in (
            self._memo_path(key), self._legacy_memo_path(key)
        ):
            try:
                raw = json.loads(path.read_text("utf-8"))
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            return decode_memo_entries(raw.get("entries", []))
        return []

    def merge_memo(
        self,
        key: str,
        entries: Sequence[Tuple[Hashable, float]],
    ) -> int:
        """Fold new memo entries into the key's snapshot; returns size.

        Read-merge-write under the key's *shard* lock (threads); the
        write itself is atomic, so a concurrent process-level merge can
        at worst lose entries, never corrupt the file. A legacy flat
        snapshot is folded in on first merge (the write always lands in
        the shard).
        """
        if not entries:
            entries = []
        with self._shard_lock(key):
            merged: Dict[str, List] = {}
            path = self._memo_path(key)
            existing: List = []
            for source in (path, self._legacy_memo_path(key)):
                try:
                    raw = json.loads(source.read_text("utf-8"))
                    existing = raw.get("entries", [])
                    break
                except (FileNotFoundError, json.JSONDecodeError):
                    continue
            for encoded_key, value in existing:
                merged[json.dumps(encoded_key)] = [encoded_key, value]
            for encoded_key, value in encode_memo_entries(entries):
                merged.setdefault(
                    json.dumps(encoded_key), [encoded_key, value]
                )
            if merged:
                _atomic_write(path, json.dumps(
                    {"schema": 1, "entries": list(merged.values())}
                ).encode("utf-8"))
            return len(merged)

    # ------------------------------------------------------------------
    # Migration + compaction
    # ------------------------------------------------------------------
    def migrate(self) -> MigrationReport:
        """Move legacy flat-layout files into their shards.

        ``os.replace`` within one filesystem: the document bytes are
        untouched, and a reader switching from the legacy path to the
        shard path mid-migration sees the file at one of the two (both
        are checked on every read). Legacy claims are dropped — a
        pre-sharding scheduler's in-flight markers are meaningless to
        this store generation.
        """
        report = MigrationReport()
        if self.legacy_results_dir.is_dir():
            for path in sorted(self.legacy_results_dir.glob("*.json")):
                target = self._result_path(path.stem)
                if target.exists():
                    path.unlink(missing_ok=True)
                else:
                    os.replace(path, target)
                report.results += 1
        if self.legacy_memo_dir.is_dir():
            for path in sorted(self.legacy_memo_dir.glob("*.json")):
                target = self._memo_path(path.stem)
                if target.exists():
                    path.unlink(missing_ok=True)
                else:
                    os.replace(path, target)
                report.memos += 1
        if self.legacy_claims_dir.is_dir():
            for path in sorted(self.legacy_claims_dir.glob("*.lock")):
                path.unlink(missing_ok=True)
                report.claims_dropped += 1
        for directory in (
            self.legacy_results_dir, self.legacy_memo_dir,
            self.legacy_claims_dir,
        ):
            try:
                directory.rmdir()
            except OSError:
                pass  # not empty (new files raced in) or never existed
        return report

    def gc(self, stale_claims_after: float = 600.0) -> GCReport:
        """Compact the store; never touches a result document.

        Removes: claims whose owner is presumed crashed (older than
        ``stale_claims_after``, re-verified under the shard breaker
        lock so a live claim re-created mid-walk survives); memo
        snapshots whose result already exists (a re-run of that key
        answers from the store before it would load the memo, so the
        snapshot is dead weight: e.g. the memo of an interrupted job
        whose resubmission has finished); and temp files leaked by
        crashed writers (older than an hour — in-flight writes are
        younger).
        """
        report = GCReport()
        claim_dirs = list(self.shards_dir.glob("*/claims"))
        if self.legacy_claims_dir.is_dir():
            claim_dirs.append(self.legacy_claims_dir)
        for claims in claim_dirs:
            for path in claims.glob("*.lock"):
                if self._claim_age(path) > stale_claims_after:
                    if self._break_stale_claim(
                        path, stale_claims_after
                    ):
                        report.stale_claims += 1
        memo_dirs = list(self.shards_dir.glob("*/memo"))
        if self.legacy_memo_dir.is_dir():
            memo_dirs.append(self.legacy_memo_dir)
        for memos in memo_dirs:
            for path in memos.glob("*.json"):
                if self.contains(path.stem):
                    with self._shard_lock(path.stem):
                        try:
                            path.unlink()
                        except OSError:
                            continue
                    report.orphaned_memos += 1
        now = time.time()
        for path in self.root.rglob(".*.tmp"):
            try:
                if now - path.stat().st_mtime > _TMP_GC_AGE:
                    path.unlink()
                    report.tmp_files += 1
            except OSError:
                continue
        return report

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _file_size(path: Path) -> int:
        """st_size, tolerating files that vanish between the directory
        walk and the stat (claim released, memo GC'd mid-stats)."""
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def stats(self, include_models: bool = True) -> StoreStats:
        """Walk the store; per-model result counts ride along.

        The per-model inventory parses every result document —
        O(store size). Pass ``include_models=False`` for the cheap
        counters-only view (startup banners, tight polling loops).
        Concurrent activity is expected: files that vanish between the
        directory listing and their stat/read are simply skipped, never
        an error.
        """
        result_files = list(self.shards_dir.glob("*/results/*.json"))
        memo_files = list(self.shards_dir.glob("*/memo/*.json"))
        claims = len(list(self.shards_dir.glob("*/claims/*.lock")))
        legacy_files = 0
        if self.legacy_results_dir.is_dir():
            legacy = list(self.legacy_results_dir.glob("*.json"))
            result_files.extend(legacy)
            legacy_files += len(legacy)
        if self.legacy_memo_dir.is_dir():
            legacy = list(self.legacy_memo_dir.glob("*.json"))
            memo_files.extend(legacy)
            legacy_files += len(legacy)
        if self.legacy_claims_dir.is_dir():
            claims += len(list(self.legacy_claims_dir.glob("*.lock")))
        models: Dict[str, int] = {}
        for path in result_files if include_models else ():
            try:
                payload = json.loads(path.read_text("utf-8"))
                name = str(payload["solution"]["model"])
            except FileNotFoundError:
                continue  # vanished mid-walk; not even <unreadable>
            except (OSError, KeyError, TypeError, json.JSONDecodeError):
                name = "<unreadable>"
            models[name] = models.get(name, 0) + 1
        with self._counter_lock:
            hits, misses, puts = self.hits, self.misses, self.puts
        return StoreStats(
            results=len(result_files),
            result_bytes=sum(
                self._file_size(p) for p in result_files
            ),
            memo_files=len(memo_files),
            memo_bytes=sum(self._file_size(p) for p in memo_files),
            claims=claims,
            hits=hits,
            misses=misses,
            puts=puts,
            models=models,
            shards=self.num_shards,
            legacy_files=legacy_files,
        )

    def to_archive(self, capacity: int = 256) -> DesignArchive:
        """Stored results as a :class:`DesignArchive`.

        Reuses the analysis layer's archive format so the store's
        contents plug straight into :func:`repro.core.archive.
        pareto_front` and the reporting helpers.
        """
        archive = DesignArchive(capacity=capacity)
        for key in self.keys():
            payload = self.peek(key)
            if payload is None:
                continue
            try:
                sol = payload["solution"]
                point = sol["design_point"]
                metrics = sol["metrics"]
                archive.record(ArchiveEntry(
                    ratio_rram=float(point["ratio_rram"]),
                    res_rram=int(point["res_rram"]),
                    xb_size=int(point["xb_size"]),
                    res_dac=int(point["res_dac"]),
                    wt_dup=tuple(int(d) for d in sol["wt_dup"]),
                    throughput=float(metrics["throughput_img_s"]),
                    power=float(metrics["power_w"]),
                    tops_per_watt=float(metrics["tops_per_watt"]),
                    latency=float(metrics["latency_s"]),
                    num_macros=int(sol["num_macros"]),
                ))
            except (KeyError, TypeError, ValueError):
                continue
        return archive
