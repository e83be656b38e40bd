"""Sharded result store: layout, migration, compaction, claim races.

Pins the concurrency contracts the serve rebuild introduced:

- the key->shard mapping is frozen (golden table) — changing it would
  orphan every stored result;
- an unreadable manifest is rebuilt from the shard directories, never
  replaced by a default count that would hide the store's keys;
- opening a legacy flat-layout (schema 1) store moves it into its
  shards with byte-identical documents, also when several threads and
  processes open it at once;
- a memo of any unreadable shape reads as absent;
- breaking a stale claim is atomic: racing takeover attempts elect
  exactly one new owner and never unlink a *fresh* claim (the
  double-unlink bug that let two schedulers compute the same key);
- ``stats()`` tolerates files vanishing mid-walk (live stores are
  always being written);
- concurrent put + gc traffic never loses a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.errors import ConfigurationError
from repro.serve import ResultStore, shard_of


def _payload(model: str = "lenet5") -> dict:
    return {"schema": 1, "solution": {"model": model}}


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
class TestShardRouting:
    #: Golden key->shard pins (shards=16). shard_of is an on-disk
    #: contract: a changed mapping orphans every stored result, so a
    #: failure here is a data-loss bug, not a test to update.
    GOLDEN_16 = {
        "00" + "0" * 62: 0x00,
        "ff" + "0" * 62: 0x0F,
        "a3" + "0" * 62: 0x03,
        "7b" + "1" * 62: 0x0B,
        "1c" + "e" * 62: 0x0C,
        # non-hex keys fall back to a CRC over the whole key
        "zz-batch-tag": 3972499672 % 16,
        "grid:alexnet": 421801134 % 16,
    }

    def test_golden_table(self):
        for key, shard in self.GOLDEN_16.items():
            assert shard_of(key, 16) == shard, key

    def test_single_shard_degenerates(self):
        for key in self.GOLDEN_16:
            assert shard_of(key, 1) == 0

    def test_equal_keys_route_equal(self):
        key = "ab" * 32
        for shards in (1, 4, 16, 256):
            assert shard_of(key, shards) == shard_of(
                str(key), shards
            )

    def test_hex_prefix_spreads_over_all_shards(self):
        hit = {shard_of(f"{i:02x}" + "0" * 62, 16) for i in range(256)}
        assert hit == set(range(16))

    def test_routing_places_files_in_named_shard_dir(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "a3" + "0" * 62
        store.put(key, _payload())
        expected = tmp_path / "shards" / "03" / "results"
        assert (expected / f"{key}.json").is_file()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
class TestManifest:
    def test_shard_count_persists_across_reopen(self, tmp_path):
        assert ResultStore(tmp_path, shards=4).num_shards == 4
        assert ResultStore(tmp_path).num_shards == 4

    def test_conflicting_explicit_count_rejected(self, tmp_path):
        ResultStore(tmp_path, shards=4)
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path, shards=8)
        assert ResultStore(tmp_path, shards=4).num_shards == 4

    def test_default_shard_count(self, tmp_path):
        assert ResultStore(tmp_path).num_shards == 16

    def test_shard_count_bounds(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path / "a", shards=0)
        with pytest.raises(ConfigurationError):
            ResultStore(tmp_path / "b", shards=257)

    @pytest.mark.parametrize("name, message", [
        ("a-file", "store {root} is not a directory"),
        ("a-file/store", "cannot create store {root}: Not a directory"),
    ], ids=("file", "under-a-file"))
    def test_a_root_that_cannot_be_a_directory(self, tmp_path, name, message):
        (tmp_path / "a-file").write_text("not a store")
        root = tmp_path / name
        with pytest.raises(ConfigurationError) as exc:
            ResultStore(root)
        assert str(exc.value) == message.format(root=root)
        assert (tmp_path / "a-file").read_text() == "not a store"

    #: On 4 shards all three keys sit in shards 0 and 3; a re-shard to
    #: the default 16 would look for the first two in shards 11 and 12.
    KEYS = ("7b" + "1" * 62, "1c" + "e" * 62, "00" + "0" * 62)

    @pytest.mark.parametrize("body", [
        b'{"schema": 2, "sha', b"[]", b'{"schema": 2, "shards": 0}',
        b'{"shards": "x"}', None,
    ], ids=("truncated", "list", "zero", "string", "deleted"))
    def test_unreadable_manifest_is_rebuilt_from_shard_dirs(
        self, tmp_path, body
    ):
        store = ResultStore(tmp_path, shards=4)
        for key in self.KEYS:
            store.put(key, _payload(key[:2]))
        manifest = tmp_path / "store.json"
        if body is None:
            manifest.unlink()
        else:
            manifest.write_bytes(body)

        reopened = ResultStore(tmp_path)
        assert reopened.num_shards == 4
        for key in self.KEYS:
            assert reopened.get(key) == _payload(key[:2])
        assert json.loads(manifest.read_text("utf-8")) == {
            "schema": 2, "shards": 4,
        }

    def test_rebuilt_count_still_rejects_a_conflicting_count(
        self, tmp_path
    ):
        ResultStore(tmp_path, shards=4)
        (tmp_path / "store.json").unlink()
        with pytest.raises(ConfigurationError, match="split"):
            ResultStore(tmp_path, shards=8)
        assert ResultStore(tmp_path, shards=4).num_shards == 4

    def test_a_concurrent_new_store_is_not_taken_for_a_lost_manifest(
        self, tmp_path, monkeypatch
    ):
        """A new store's opener writes the manifest before its first
        shard directory. A second opener that read no manifest and then
        lists a half-built ``shards/`` takes the manifest's count, not
        the number of directories it saw."""
        real_listdir = os.listdir

        def listdir(path):
            if Path(path) == tmp_path / "shards":
                # the first opener lands between our two manifest reads
                (tmp_path / "store.json").write_text(
                    '{"schema": 2, "shards": 16}'
                )
                for index in range(3):
                    (tmp_path / "shards" / f"{index:02x}").mkdir(
                        parents=True
                    )
            return real_listdir(path)

        monkeypatch.setattr(os, "listdir", listdir)
        assert ResultStore(tmp_path).num_shards == 16

    def test_gap_in_shard_dirs_raises_naming_the_manifest(
        self, tmp_path
    ):
        ResultStore(tmp_path, shards=4)
        (tmp_path / "store.json").write_bytes(b"{")
        shutil.rmtree(tmp_path / "shards" / "02")
        with pytest.raises(ConfigurationError, match="store.json"):
            ResultStore(tmp_path)


# ----------------------------------------------------------------------
# Legacy flat layout: moved into the shards on open
# ----------------------------------------------------------------------
def _build_legacy_store(root: Path, keys) -> dict:
    """A schema-1 flat store as the pre-sharding code laid it out."""
    documents = {}
    (root / "results").mkdir(parents=True)
    (root / "memo").mkdir()
    (root / "claims").mkdir()
    for index, key in enumerate(keys):
        # indent=2 exactly as ResultStore.put writes; the trailing
        # comment-free spacing is part of the byte-identity contract.
        data = json.dumps(
            _payload(model=f"model-{index}"), indent=2
        ).encode("utf-8")
        (root / "results" / f"{key}.json").write_bytes(data)
        documents[key] = data
    (root / "memo" / f"{keys[0]}.json").write_text(
        json.dumps({"schema": 1, "entries": [[["k"], 1.5]]})
    )
    (root / "claims" / f"{keys[0]}.lock").write_text("{}")
    return documents


def _tree(root: Path) -> dict:
    """Every file under ``root`` with its bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


_FLAT_DIRS = ("results", "memo", "claims")

#: Opens the store at argv[1] once the file argv[2] appears, then
#: prints {key: document hex, or null on a miss} for the keys argv[3:].
_OPENER = """
import json, os, sys, time
from repro.serve import ResultStore
print("ready", flush=True)
while not os.path.exists(sys.argv[2]):
    time.sleep(0.001)
store = ResultStore(sys.argv[1])
documents = {key: store.get_bytes(key) for key in sys.argv[3:]}
print(json.dumps({
    key: None if data is None else data.hex()
    for key, data in documents.items()
}))
"""


class TestLegacyMigration:
    KEYS = ("00" + "a" * 62, "ff" + "b" * 62, "7b" + "c" * 62)

    def test_legacy_reads_without_migration(self, tmp_path):
        """No migrate step: opening the store is enough."""
        documents = _build_legacy_store(tmp_path, self.KEYS)
        store = ResultStore(tmp_path)
        for key, data in documents.items():
            assert store.contains(key)
            assert store.get_bytes(key) == data
        assert store.keys() == sorted(self.KEYS)
        stats = store.stats()
        assert stats.results == len(self.KEYS)
        assert stats.memo_files == 1
        assert "legacy_files" not in stats.to_payload()

    def test_migration_is_byte_identical(self, tmp_path):
        documents = _build_legacy_store(tmp_path, self.KEYS)
        store = ResultStore(tmp_path)
        for key, data in documents.items():
            assert store.get_bytes(key) == data
        # flat dirs are gone, flat claims with them; the files now
        # live in their shards
        for sub in _FLAT_DIRS:
            assert not (tmp_path / sub).exists()
        assert store.stats().claims == 0
        assert not store.claimed(self.KEYS[0])
        for key in self.KEYS:
            shard = f"{shard_of(key, store.num_shards):02x}"
            assert (
                tmp_path / "shards" / shard / "results" / f"{key}.json"
            ).read_bytes() == documents[key]

    def test_migrated_store_reads_with_fresh_instance(self, tmp_path):
        documents = _build_legacy_store(tmp_path, self.KEYS)
        ResultStore(tmp_path)
        reopened = ResultStore(tmp_path)
        for key, data in documents.items():
            assert reopened.get_bytes(key) == data
        assert reopened.load_memo(self.KEYS[0]) == [(("k",), 1.5)]

    def test_migration_is_idempotent(self, tmp_path):
        _build_legacy_store(tmp_path, self.KEYS)
        ResultStore(tmp_path)
        before = _tree(tmp_path)
        ResultStore(tmp_path)
        assert _tree(tmp_path) == before

    def test_shard_write_wins_over_legacy_duplicate(self, tmp_path):
        key = self.KEYS[0]
        documents = _build_legacy_store(tmp_path, self.KEYS)
        # as a release that read the flat layout in place left it: a
        # manifest, and a shard copy beside the flat duplicate
        (tmp_path / "store.json").write_text('{"schema": 2, "shards": 16}')
        shard = f"{shard_of(key, 16):02x}"
        sharded = tmp_path / "shards" / shard / "results" / f"{key}.json"
        sharded.parent.mkdir(parents=True)
        sharded.write_bytes(b'{"schema": 1, "solution": {}}')
        store = ResultStore(tmp_path)
        assert store.num_shards == 16
        # the shard copy was already authoritative; the flat one dropped
        assert store.get_bytes(key) == b'{"schema": 1, "solution": {}}'
        assert store.get_bytes(self.KEYS[1]) == documents[self.KEYS[1]]
        assert not (tmp_path / "results").exists()

    def test_concurrent_openers_all_read_every_document(self, tmp_path):
        """Threads and processes open one flat store at once: each
        open succeeds and reads every document byte-identically, and
        no flat directory is left."""
        root = tmp_path / "store"
        keys = tuple(f"{i:02x}" + "c" * 62 for i in range(0, 256, 2))
        documents = _build_legacy_store(root, keys)
        go = tmp_path / "go"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        children = [
            subprocess.Popen(
                [sys.executable, "-c", _OPENER, str(root), str(go),
                 *keys],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            )
            for _ in range(2)
        ]
        start = threading.Event()
        reads, errors = [], []

        def opener() -> None:
            start.wait()
            try:
                store = ResultStore(root)
                reads.append({key: store.get_bytes(key) for key in keys})
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=opener, daemon=True)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for child in children:  # every child has imported repro
                assert child.stdout.readline().strip() == "ready"
        finally:
            go.touch()
            start.set()
        for thread in threads:
            thread.join(timeout=60)
        for child in children:
            out, err = child.communicate(timeout=60)
            assert child.returncode == 0, err
            hexes = json.loads(out)
            reads.append({
                key: None if data is None else bytes.fromhex(data)
                for key, data in hexes.items()
            })

        assert not errors, errors[:3]
        assert len(reads) == 6
        for read in reads:
            assert read == documents
        for sub in _FLAT_DIRS:
            assert not (root / sub).exists()


# ----------------------------------------------------------------------
# Memo shapes
# ----------------------------------------------------------------------
class TestMemoShapes:
    KEY = "ab" * 32

    @pytest.mark.parametrize("body", [
        "[]", '{"entries": 5}', '{"entries": [[1]]}',
        '{"entries": [[null, null]]}',
    ], ids=("list", "int-entries", "short-pair", "null-pair"))
    def test_unreadable_memo_reads_as_absent(self, tmp_path, body):
        store = ResultStore(tmp_path)
        store._memo_path(self.KEY).write_text(body)
        assert store.load_memo(self.KEY) == []
        # a merge replaces the unreadable memo
        assert store.merge_memo(self.KEY, [(("k",), 1.0)]) == 1
        assert store.load_memo(self.KEY) == [(("k",), 1.0)]

    def test_readable_memo_keeps_its_stored_entries(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store._memo_path(self.KEY)
        path.write_text('{"schema": 1, "entries": [[["k"], 1]]}')
        assert store.merge_memo(self.KEY, [(("j",), 2.0)]) == 2
        entries = json.loads(path.read_text("utf-8"))["entries"]
        assert entries == [[["k"], 1], [["j"], 2.0]]
        assert type(entries[0][1]) is int


# ----------------------------------------------------------------------
# Atomic stale-claim takeover (the S1 regression)
# ----------------------------------------------------------------------
class TestClaimBreakRace:
    KEY = "e" * 64

    def _backdate(self, store: ResultStore, key: str,
                  seconds: float = 3600.0) -> None:
        path = store._claim_path(key)
        past = time.time() - seconds
        os.utime(path, (past, past))

    def test_break_refuses_fresh_claim(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="alive")
        path = store._claim_path(self.KEY)
        assert store._break_stale_claim(path, stale_after=600.0) is (
            False
        )
        assert store.claimed(self.KEY)

    def test_break_removes_stale_claim_exactly_once(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="dead")
        self._backdate(store, self.KEY)
        path = store._claim_path(self.KEY)
        assert store._break_stale_claim(path, stale_after=600.0)
        assert not store.claimed(self.KEY)
        # the second breaker (the racing waiter) backs off
        assert store._break_stale_claim(path, stale_after=600.0) is (
            False
        )

    def test_delayed_breaker_spares_the_new_owners_claim(
        self, tmp_path
    ):
        """The exact pre-fix failure: waiter B decided to unlink while
        waiter A had already broken the stale claim AND re-claimed.
        B's (delayed) break must see A's fresh claim and back off."""
        store = ResultStore(tmp_path)
        assert store.claim(self.KEY, owner="dead")
        self._backdate(store, self.KEY)
        # waiter A: takes the stale claim over
        assert store.claim(self.KEY, owner="waiter-a")
        # waiter B: acts on its earlier staleness observation
        path = store._claim_path(self.KEY)
        assert not store._break_stale_claim(path, stale_after=600.0)
        assert store.claimed(self.KEY), (
            "a delayed breaker deleted the new owner's fresh claim"
        )
        # and B's full claim() path agrees the key is taken
        assert not store.claim(self.KEY, owner="waiter-b")

    def test_racing_takeovers_elect_exactly_one_owner(self, tmp_path):
        store = ResultStore(tmp_path)
        waiters = 8
        rounds = 10
        for round_index in range(rounds):
            key = f"{round_index:02x}" + "d" * 62
            assert store.claim(key, owner="dead")
            self._backdate(store, key)

            barrier = threading.Barrier(waiters)
            wins = []
            lock = threading.Lock()

            def takeover(index: int, key: str = key) -> None:
                barrier.wait()
                if store.claim(key, owner=f"w{index}"):
                    with lock:
                        wins.append(index)

            threads = [
                threading.Thread(target=takeover, args=(i,))
                for i in range(waiters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(wins) == 1, (
                f"round {round_index}: {len(wins)} winners (the "
                "double-unlink race deleted a fresh claim)"
            )
            assert store.claimed(key), "winner's claim must survive"
            store.release(key)


# ----------------------------------------------------------------------
# stats() under concurrent deletion (the S3 regression)
# ----------------------------------------------------------------------
class TestStatsRace:
    def test_stats_survives_files_vanishing_mid_walk(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        survivor, vanisher = "aa" * 32, "bb" * 32
        store.put(survivor, _payload("kept"))
        store.put(vanisher, _payload("gone"))

        vanished_name = f"{vanisher}.json"
        real_stat = Path.stat
        real_read_text = Path.read_text

        def stat(self, *args, **kwargs):
            if self.name == vanished_name:
                raise FileNotFoundError(self)
            return real_stat(self, *args, **kwargs)

        def read_text(self, *args, **kwargs):
            if self.name == vanished_name:
                raise FileNotFoundError(self)
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", stat)
        monkeypatch.setattr(Path, "read_text", read_text)

        stats = store.stats()  # used to raise FileNotFoundError
        assert stats.results == 2  # listed before it vanished
        assert stats.models == {"kept": 1}  # skipped, not <unreadable>
        kept_bytes = len(
            json.dumps(_payload("kept"), indent=2).encode()
        )
        assert stats.result_bytes == kept_bytes

    def test_claim_age_of_vanished_file_is_zero(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store._claim_age(tmp_path / "nope.lock") == 0.0


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
class TestGC:
    def test_gc_breaks_stale_keeps_fresh_claims(self, tmp_path):
        store = ResultStore(tmp_path)
        stale, fresh = "ab" * 32, "cd" * 32
        assert store.claim(stale, owner="dead")
        assert store.claim(fresh, owner="alive")
        past = time.time() - 3600
        os.utime(store._claim_path(stale), (past, past))

        report = store.gc(stale_claims_after=600.0)
        assert report.stale_claims == 1
        assert not store.claimed(stale)
        assert store.claimed(fresh)

    def test_gc_drops_only_completed_job_memos(self, tmp_path):
        store = ResultStore(tmp_path)
        finished, pending = "ab" * 32, "cd" * 32
        store.merge_memo(finished, [(("k",), 1.0)])
        store.merge_memo(pending, [(("k",), 2.0)])
        store.put(finished, _payload())

        report = store.gc()
        assert report.orphaned_memos == 1
        assert store.load_memo(finished) == []
        assert len(store.load_memo(pending)) == 1

    def test_gc_reaps_only_aged_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = store._shard_dir("aa" * 32) / "results"
        old = shard / ".aaaa.json.x1.tmp"
        young = shard / ".bbbb.json.x2.tmp"
        old.write_bytes(b"{")
        young.write_bytes(b"{")
        past = time.time() - 7200
        os.utime(old, (past, past))

        report = store.gc()
        assert report.tmp_files == 1
        assert not old.exists()
        assert young.exists()

    def test_gc_never_touches_results(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, _payload())
        data = store.get_bytes(key)
        store.gc(stale_claims_after=0.0)
        assert store.get_bytes(key) == data

    def test_concurrent_put_and_gc_loses_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        writers, per_writer = 4, 16
        stop = threading.Event()
        errors = []

        def writer(index: int) -> None:
            try:
                for job in range(per_writer):
                    key = f"{index * per_writer + job:02x}" + "f" * 62
                    assert store.claim(key, owner=f"w{index}")
                    store.merge_memo(key, [(("k", job), 1.0)])
                    store.put(key, _payload(f"w{index}"))
                    store.release(key)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(repr(exc))

        def collector() -> None:
            try:
                while not stop.is_set():
                    store.gc(stale_claims_after=3600.0)
                    store.stats()
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(writers)
        ]
        gc_thread = threading.Thread(target=collector)
        gc_thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        gc_thread.join(timeout=60)

        assert not errors, errors[:3]
        expected = {
            f"{i:02x}" + "f" * 62 for i in range(writers * per_writer)
        }
        assert set(store.keys()) == expected
        for key in expected:
            assert store.peek(key) is not None
        assert store.stats().claims == 0
