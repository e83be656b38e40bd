"""Persistent content-addressed result store (JSON on disk), sharded.

One layout (schema 2) under one root directory — safe to share between
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

Every read path knows this layout alone. Opening a pre-sharding flat
store (schema 1: ``results``, ``memo`` and ``claims`` directly under
the root) first moves its files into their shards (``os.replace`` —
same bytes, same filesystem, atomic); a shard copy already present
wins, and flat claims are dropped. A missing or unreadable manifest is
rebuilt from the shard directories when they are exactly ``00`` to
``N-1``; otherwise opening raises :class:`ConfigurationError`, since
guessing a count would re-shard the store and hide its keys.
:meth:`ResultStore.gc` compacts the tree: orphaned claims (stale,
crashed owners), memo snapshots whose result already exists, and
leftover temp files.

Every write is atomic (temp file + ``os.replace`` in the same
directory), so a reader never observes a torn JSON document; a result,
once written, is immutable — rewrites of the same key are skipped
because content-addressing makes them identical by construction.
"""

from __future__ import annotations

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


def _is_key(key: str) -> bool:
    return bool(key) and not any(c in key for c in "/\\.")


def _listdir(directory: Path) -> List[str]:
    """Entry names, or [] for a directory that is absent (or was just
    removed by a concurrent opener)."""
    try:
        return sorted(os.listdir(directory))
    except FileNotFoundError:
        return []


def _manifest_shards(manifest: Path) -> Optional[int]:
    """The manifest's shard count; None when the file is missing or is
    not a JSON object whose ``shards`` is an int in [1, 256]."""
    try:
        shards = json.loads(manifest.read_bytes()).get("shards")
    except (FileNotFoundError, ValueError, AttributeError):
        return None
    if type(shards) is int and 1 <= shards <= 256:
        return shards
    return None


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
        Store directory (created as needed). A flat (schema-1) store
        there is moved into its shards before the constructor returns.
        A root that is not a directory, or that cannot be created,
        raises :class:`ConfigurationError` naming it.
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
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            raise ConfigurationError(
                f"store {self.root} is not a directory"
            ) from None
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create store {self.root}: {exc.strerror or exc}"
            ) from exc
        self.shards_dir = self.root / "shards"
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
        self._move_flat_layout()

    def _resolve_shards(self, requested: Optional[int]) -> int:
        """The manifest's shard count; for a missing or unreadable
        manifest, the count the shard directories spell out (and the
        manifest is rewritten); for a root without shard directories,
        ``requested`` or the default (a new store)."""
        manifest = self.root / _MANIFEST_NAME
        current = _manifest_shards(manifest)
        if current is None:
            names = _listdir(self.shards_dir)
            # A new store's opener writes the manifest before its first
            # shard directory, so directories seen here may belong to a
            # concurrent opener whose manifest is now readable.
            current = _manifest_shards(manifest)
        if current is None:
            if names:
                if names != [f"{i:02x}" for i in range(len(names))]:
                    raise ConfigurationError(
                        f"store {self.root}: {_MANIFEST_NAME} is "
                        "missing or unreadable and the entries of "
                        f"shards/ ({names[0]} .. {names[-1]}, "
                        f"{len(names)} of them) are not 00 to N-1; "
                        f"restore {_MANIFEST_NAME} as "
                        '{"schema": 2, "shards": N}'
                    )
                current = len(names)
            else:
                current = (
                    DEFAULT_SHARDS if requested is None
                    else int(requested)
                )
                if not 1 <= current <= 256:
                    raise ConfigurationError(
                        "store shard count must be in [1, 256], got "
                        f"{current}"
                    )
            _atomic_write(manifest, json.dumps(
                {"schema": 2, "shards": current}
            ).encode("utf-8"))
        if requested is not None and requested != current:
            raise ConfigurationError(
                f"store {self.root} was created with {current} "
                f"shards; reopening with shards={requested} would "
                "split the keyspace"
            )
        return current

    def _move_flat_layout(self) -> None:
        """Move a flat (schema-1) store's files into their shards.

        ``os.replace`` within one filesystem, so the bytes are
        untouched. A shard copy already present wins; flat claims are
        dropped (a pre-sharding scheduler's in-flight markers mean
        nothing to this store); the emptied flat directories are
        removed. Every opener runs this, and a file a concurrent
        opener already moved is skipped, so when any constructor
        returns, no flat document is left for a read to miss.
        """
        for sub in ("results", "memo"):
            flat = self.root / sub
            for name in _listdir(flat):
                key, ext = os.path.splitext(name)
                if ext != ".json" or not _is_key(key):
                    continue
                target = self._shard_dir(key) / sub / name
                try:
                    if target.exists():
                        (flat / name).unlink()
                    else:
                        os.replace(flat / name, target)
                except FileNotFoundError:
                    continue
        for name in _listdir(self.root / "claims"):
            if name.endswith(".lock"):
                (self.root / "claims" / name).unlink(missing_ok=True)
        for sub in ("results", "memo", "claims"):
            try:
                (self.root / sub).rmdir()
            except OSError:
                pass  # absent, or holds files that are not documents

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _validate_key(self, key: str) -> None:
        if not _is_key(key):
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

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Existence check that does not touch the hit/miss counters."""
        return self._result_path(key).exists()

    def _read_bytes(self, key: str) -> Optional[bytes]:
        """Raw document; no counters."""
        try:
            return self._result_path(key).read_bytes()
        except FileNotFoundError:
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
        return sorted(
            p.stem for p in self.shards_dir.glob("*/results/*.json")
        )

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
    def _read_memo(
        self, key: str
    ) -> Tuple[List, List[Tuple[Hashable, float]]]:
        """The one memo reader: the stored entries and their decoding.

        A memo that is missing, torn, or of a shape that does not
        decode into hashable keys and float values reads as absent
        (``[], []``): the run it would have warmed goes cold, and the
        next :meth:`merge_memo` replaces it.
        """
        try:
            stored = json.loads(
                self._memo_path(key).read_bytes()
            )["entries"]
            if not all(isinstance(pair, list) for pair in stored):
                raise TypeError("memo entries are [key, value] pairs")
            decoded = decode_memo_entries(stored)
            dict(decoded)  # every key must hash
        except (FileNotFoundError, KeyError, TypeError, ValueError):
            return [], []
        return stored, decoded

    def load_memo(
        self, key: str
    ) -> List[Tuple[Hashable, float]]:
        """Decoded memo entries for ``Pimsyn(warm_memo=...)``; [] if none.

        Only an interrupted job writes a memo (:meth:`merge_memo`), so
        a resubmission of its key resumes instead of restarting.
        """
        return self._read_memo(key)[1]

    def merge_memo(
        self,
        key: str,
        entries: Sequence[Tuple[Hashable, float]],
    ) -> int:
        """Fold new memo entries into the key's snapshot; returns size.

        Read-merge-write under the key's *shard* lock (threads); the
        write itself is atomic, so a concurrent process-level merge can
        at worst lose entries, never corrupt the file. A readable
        snapshot keeps its stored entries verbatim; an unreadable one
        is replaced.
        """
        if not entries:
            entries = []
        with self._shard_lock(key):
            merged: Dict[str, List] = {}
            for encoded_key, value in self._read_memo(key)[0]:
                merged[json.dumps(encoded_key)] = [encoded_key, value]
            for encoded_key, value in encode_memo_entries(entries):
                merged.setdefault(
                    json.dumps(encoded_key), [encoded_key, value]
                )
            if merged:
                _atomic_write(self._memo_path(key), json.dumps(
                    {"schema": 1, "entries": list(merged.values())}
                ).encode("utf-8"))
            return len(merged)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
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
        for path in self.shards_dir.glob("*/claims/*.lock"):
            if self._claim_age(path) > stale_claims_after:
                if self._break_stale_claim(path, stale_claims_after):
                    report.stale_claims += 1
        for path in self.shards_dir.glob("*/memo/*.json"):
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
