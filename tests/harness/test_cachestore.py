"""Tests for the blob stores behind the sweep result cache.

Covers the :class:`CacheStore` contract on both stores (directory and
memory): blob round trips, atomic first-writer-wins publishes, the
result cache's grid lookup over each store, quarantine, and the
in-flight lease protocol (acquire / refuse / refresh / expire / steal /
release).
"""

import pytest

from repro.common.config import ConsistencyModel, RecorderConfig, RecorderMode
from repro.harness.cachestore import DirStore, MemoryStore
from repro.harness.parallel_runner import ResultCache
from repro.harness.runner import RunKey, execute_run

TINY_VARIANTS = {"opt_4k": RecorderConfig(mode=RecorderMode.OPT,
                                          max_interval_instructions=4096)}


class FakeClock:
    """Deterministic stand-in for ``time.time`` (lease expiry tests)."""

    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture(params=["dir", "memory"])
def store(request, tmp_path):
    clock = FakeClock()
    if request.param == "dir":
        built = DirStore(tmp_path / "cache", clock=clock)
    else:
        built = MemoryStore(clock=clock)
    built.test_clock = clock
    return built


# ------------------------------------------------------------------- blobs

class TestBlobContract:
    def test_round_trip_and_miss(self, store):
        assert store.get("k1") is None
        assert store.put("k1", b"payload") is True
        assert store.get("k1") == b"payload"
        assert store.keys() == ["k1"]
        assert len(store) == 1

    def test_first_writer_wins(self, store):
        assert store.put("k", b"first") is True
        # The losing publish reports False and never clobbers the winner.
        assert store.put("k", b"second") is False
        assert store.get("k") == b"first"

    def test_delete(self, store):
        store.put("k", b"x")
        assert store.delete("k") is True
        assert store.delete("k") is False
        assert store.get("k") is None

    def test_get_many_returns_only_hits(self, store):
        """The sweep's grid lookup: hits come back, misses are left out,
        and each key is counted once."""
        cache = ResultCache(store=store)
        hit = RunKey("fft", 2, 0.05, 1, ConsistencyModel.RC, False)
        miss = RunKey("radix", 2, 0.05, 1, ConsistencyModel.RC, False)
        cache.put(hit, execute_run(hit, TINY_VARIANTS), TINY_VARIANTS)
        found = cache.get_many([hit, miss], TINY_VARIANTS)
        assert list(found) == [hit]
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.get_many([], TINY_VARIANTS) == {}


class TestDirStoreLayout:
    def test_classic_json_layout_is_preserved(self, tmp_path):
        """Back-compat: entries still live at ``<root>/<key>.json`` so an
        existing ``.repro_cache/`` keeps working."""
        store = DirStore(tmp_path / "cache")
        store.put("abc123", b"{}")
        assert (tmp_path / "cache" / "abc123.json").read_bytes() == b"{}"
        # One file per entry: no sidecars next to it.
        assert [p.name for p in (tmp_path / "cache").iterdir()] == \
            ["abc123.json"]
        # Entries written by earlier code are readable too.
        (tmp_path / "cache" / "old999.json").write_bytes(b"legacy")
        assert store.get("old999") == b"legacy"

    def test_quarantine_renames_not_deletes(self, tmp_path):
        store = DirStore(tmp_path / "cache")
        store.put("bad", b"torn")
        store.quarantine("bad", "decode")
        assert store.get("bad") is None
        assert (tmp_path / "cache" / "bad.corrupt").exists()

    def test_no_tmp_droppings_after_put_race(self, tmp_path):
        store = DirStore(tmp_path / "cache")
        store.put("k", b"first")
        store.put("k", b"second")   # loses the race
        leftovers = [p.name for p in (tmp_path / "cache").iterdir()
                     if ".tmp" in p.name]
        assert leftovers == []


# ------------------------------------------------------------------ leases

class TestLeases:
    def test_acquire_then_peer_refused(self, store):
        mine = store.acquire_lease("cell", "alice", ttl_s=30.0)
        assert mine.acquired and mine.owner == "alice" and not mine.stolen
        theirs = store.acquire_lease("cell", "bob", ttl_s=30.0)
        assert not theirs.acquired
        assert theirs.owner == "alice"
        assert theirs.deadline == pytest.approx(mine.deadline)

    def test_same_owner_refreshes(self, store):
        store.acquire_lease("cell", "alice", ttl_s=30.0)
        store.test_clock.advance(10.0)
        again = store.acquire_lease("cell", "alice", ttl_s=30.0)
        assert again.acquired and not again.stolen

    def test_release_frees_the_cell(self, store):
        store.acquire_lease("cell", "alice", ttl_s=30.0)
        store.release_lease("cell", "alice")
        theirs = store.acquire_lease("cell", "bob", ttl_s=30.0)
        assert theirs.acquired and not theirs.stolen

    def test_release_by_non_owner_is_ignored(self, store):
        store.acquire_lease("cell", "alice", ttl_s=30.0)
        store.release_lease("cell", "mallory")
        theirs = store.acquire_lease("cell", "bob", ttl_s=30.0)
        assert not theirs.acquired

    def test_expired_lease_is_stolen(self, store):
        store.acquire_lease("cell", "alice", ttl_s=5.0)
        store.test_clock.advance(6.0)
        stolen = store.acquire_lease("cell", "bob", ttl_s=30.0)
        assert stolen.acquired and stolen.stolen

    def test_torn_lease_file_is_stolen(self, tmp_path):
        store = DirStore(tmp_path / "cache")
        store.acquire_lease("cell", "alice", ttl_s=30.0)
        (tmp_path / "cache" / "cell.lease").write_text("{ not json")
        info = store.acquire_lease("cell", "bob", ttl_s=30.0)
        assert info.acquired

