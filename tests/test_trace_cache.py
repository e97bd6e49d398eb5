"""TraceCache bounds: LRU size cap, stale-version pruning, concurrency.

The concurrency cases exercise the entry store's upkeep through both of
its caches, the trace cache and the result cache.
"""

import os
import time

import pytest

from repro.config import scaled_system
from repro.errors import ConfigurationError
from repro.results import ResultCache
from repro.sim.engine import CoreResult, SimulationResult
from repro.workloads.generator import generate_traces
from repro.workloads.suite import scaled_workload, workload_by_name
from repro.workloads.trace_cache import (
    CACHE_FORMAT_VERSION,
    MAX_BYTES_ENV_VAR,
    TraceCache,
    trace_cache_key,
)

SYSTEM = scaled_system()


def make_trace(seed: int, blocks: int = 300):
    spec = scaled_workload(workload_by_name("oltp_db2"), SYSTEM.scale)
    key = trace_cache_key(spec, SYSTEM, seed, 2, blocks)
    trace = generate_traces(spec, SYSTEM, seed=seed, num_cores=2, blocks_per_core=blocks)
    return key, trace


def make_entry(cache_class, seed):
    """A (key, value) pair that ``cache_class`` stores."""
    if cache_class is TraceCache:
        return make_trace(seed)
    cores = [CoreResult(core_id=0, accesses=seed + 1)]
    return f"{seed:064x}", SimulationResult("none", SYSTEM, cores)


def load_entry(cache, key):
    if isinstance(cache, TraceCache):
        return cache.load(key)
    return cache.load(key, SYSTEM)


#: A file name each cache wrote under an older format version.
STALE_NAME = {TraceCache: "v2-{}.pkl", ResultCache: "r0-{}.json"}


def entry_sidecars(path):
    return sorted(path.glob(f"v{CACHE_FORMAT_VERSION}-*.json"))


def entry_size(cache, key):
    return (
        cache.disk.sidecar_path(key).stat().st_size
        + cache.disk.column_path(key).stat().st_size
    )


def touch_entry(cache, key, timestamp):
    for path in (cache.disk.sidecar_path(key), cache.disk.column_path(key)):
        os.utime(path, (timestamp, timestamp))


class TestSizeCap:
    def test_store_evicts_oldest_beyond_cap(self, tmp_path):
        key0, trace = make_trace(0)
        probe = TraceCache(tmp_path, max_bytes=0)
        probe.store(key0, trace)
        size = entry_size(probe, key0)
        probe.disk.remove(key0)
        # Room for two entries; capping after four stores must keep only
        # the two newest (distinct mtimes make LRU order deterministic on
        # coarse filesystem timestamps).
        keys = []
        base = time.time()
        for seed in range(4):
            key, trace = make_trace(seed)
            keys.append(key)
            probe.store(key, trace)
            touch_entry(probe, key, base + seed)
        cache = TraceCache(tmp_path, max_bytes=int(size * 2.5))
        assert cache.disk.enforce_cap() == 2
        assert cache.load(keys[0]) is None
        assert cache.load(keys[1]) is None
        assert cache.load(keys[2]) is not None
        assert cache.load(keys[3]) is not None

    def test_load_refreshes_lru_position(self, tmp_path):
        key0, trace0 = make_trace(0)
        probe = TraceCache(tmp_path, max_bytes=0)
        probe.store(key0, trace0)
        size = entry_size(probe, key0)
        cache = TraceCache(tmp_path, max_bytes=int(size * 2.5))
        key1, trace1 = make_trace(1)
        cache.store(key1, trace1)
        now = time.time()
        touch_entry(cache, key0, now - 100)
        touch_entry(cache, key1, now - 50)
        # Touch the older entry via load; the next store must evict key1.
        assert cache.load(key0) is not None
        key2, trace2 = make_trace(2)
        cache.store(key2, trace2)
        assert cache.evicted == 1
        assert cache.load(key0) is not None
        assert cache.load(key1) is None

    def test_zero_cap_means_unbounded(self, tmp_path):
        cache = TraceCache(tmp_path, max_bytes=0)
        for seed in range(3):
            key, trace = make_trace(seed)
            cache.store(key, trace)
        assert cache.evicted == 0
        assert len(entry_sidecars(tmp_path)) == 3

    def test_env_var_sets_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "12345")
        assert TraceCache(tmp_path).max_bytes == 12345
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigurationError):
            TraceCache(tmp_path)
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "-1")
        with pytest.raises(ConfigurationError):
            TraceCache(tmp_path)


class TestVersionPruning:
    def test_open_prunes_older_versions_and_legacy_names(self, tmp_path):
        digest = "deadbeef" * 8  # 64 hex chars, like a real entry name
        stale_old_format = tmp_path / f"{digest}.pkl"
        stale_old_format.write_bytes(b"legacy PR-2 entry")
        stale_pickle_version = tmp_path / f"v{CACHE_FORMAT_VERSION - 1}-{digest}.pkl"
        stale_pickle_version.write_bytes(b"pickle-era versioned entry")
        newer_version = tmp_path / f"v{CACHE_FORMAT_VERSION + 1}-{digest}.npy"
        newer_version.write_bytes(b"a newer checkout's entry")
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("keep me")
        foreign_pickle = tmp_path / "model.pkl"
        foreign_pickle.write_bytes(b"someone else's pickle")
        foreign_npy = tmp_path / "weights.npy"
        foreign_npy.write_bytes(b"someone else's array")
        # Bare sha256-hex names were only ever written as .pkl; unversioned
        # hex .npy/.json belong to other content-addressed stores.
        foreign_hex_npy = tmp_path / f"{digest}.npy"
        foreign_hex_npy.write_bytes(b"another store's artifact")
        foreign_hex_json = tmp_path / f"{digest}.json"
        foreign_hex_json.write_text("{}")
        cache = TraceCache(tmp_path)
        key, trace = make_trace(0)
        cache.store(key, trace)
        assert not stale_old_format.exists()
        assert not stale_pickle_version.exists()
        assert newer_version.exists(), "a newer checkout's entries must survive"
        assert unrelated.exists()
        assert foreign_pickle.exists(), "pruning must not touch foreign .pkl files"
        assert foreign_npy.exists(), "pruning must not touch foreign .npy files"
        assert foreign_hex_npy.exists(), "bare hex .npy is foreign, not PR-2-era"
        assert foreign_hex_json.exists(), "bare hex .json is foreign, not PR-2-era"
        assert cache.load(key) is not None

    def test_v2_pickle_is_pruned_and_regenerated_as_v3(self, tmp_path):
        """The migration path: a PR-4-era pickle entry disappears on open
        and the same logical trace comes back as a binary v3 entry."""
        key, trace = make_trace(0)
        v2_entry = tmp_path / f"v2-{key}.pkl"
        v2_entry.write_bytes(b"\x80\x04 not actually a TraceSet pickle")
        cache = TraceCache(tmp_path)
        assert not v2_entry.exists(), "v2 entries must be pruned on open"
        assert cache.load(key) is None  # pruned, so a miss: regenerate
        cache.store(key, trace)
        assert cache.disk.sidecar_path(key).exists()
        assert cache.disk.column_path(key).exists()
        assert cache.load(key) == trace

    def test_current_version_entries_survive_reopen(self, tmp_path):
        cache = TraceCache(tmp_path)
        key, trace = make_trace(0)
        cache.store(key, trace)
        reopened = TraceCache(tmp_path)
        assert reopened.load(key) == trace


@pytest.mark.parametrize("cache_class", [TraceCache, ResultCache], ids=["trace", "result"])
class TestConcurrentWorkers:
    """Maintenance must tolerate sibling workers racing on the same dir."""

    def test_enforce_cap_tolerates_already_deleted_entries(
        self, tmp_path, monkeypatch, cache_class
    ):
        writer = cache_class(tmp_path, max_bytes=0)
        for seed in range(2):
            writer.store(*make_entry(cache_class, seed))
        capped = cache_class(tmp_path, max_bytes=1)  # everything is over cap
        stale_listing = capped.disk.entries_by_age()
        assert len(stale_listing) == 2
        # A sibling worker deletes the oldest entry between our listing and
        # our unlink: pin the stale listing and remove the files behind it.
        writer.disk.remove(stale_listing[0][2])
        monkeypatch.setattr(capped.disk, "entries_by_age", lambda: stale_listing)
        evicted = capped.disk.enforce_cap()  # must not raise on the vanished entry
        monkeypatch.undo()
        assert capped.disk.entries_by_age() == []
        assert evicted == 1  # only the entry *we* removed counts

    def test_prune_tolerates_vanishing_files(self, tmp_path, monkeypatch, cache_class):
        from pathlib import Path

        digest = "cafebabe" * 8
        stale = tmp_path / STALE_NAME[cache_class].format(digest)
        stale.write_bytes(b"stale")
        original_unlink = Path.unlink
        raced = []

        # Patch Path.unlink itself (pruning goes through it on every
        # Python version; os.unlink is bypassed by pathlib on 3.10).
        def racing_unlink(self, *args, **kwargs):
            original_unlink(self)  # the sibling wins the race ...
            raced.append(self)
            return original_unlink(self)  # ... and ours raises

        monkeypatch.setattr(Path, "unlink", racing_unlink)
        cache_class(tmp_path)  # must not raise
        monkeypatch.undo()
        assert raced == [stale], "the race must actually have been exercised"
        assert not stale.exists()

    def test_sidecar_without_column_is_a_miss(self, tmp_path, cache_class):
        """Half-deleted entries (eviction removes the sidecar first, but a
        crash can leave either half) fall back to regeneration."""
        cache = cache_class(tmp_path)
        key, value = make_entry(cache_class, 0)
        cache.store(key, value)
        cache.disk.column_path(key).unlink()
        assert load_entry(cache, key) is None
        cache.store(key, value)
        cache.disk.sidecar_path(key).unlink()
        assert load_entry(cache, key) is None

    def test_orphaned_column_files_count_against_the_cap(self, tmp_path, cache_class):
        """A crash between the column and sidecar publishes must not leak
        invisible bytes forever: orphans are listed, capped and removed."""
        writer = cache_class(tmp_path, max_bytes=0)
        key, value = make_entry(cache_class, 0)
        writer.store(key, value)
        writer.disk.sidecar_path(key).unlink()  # simulate the half-published state
        orphan = writer.disk.column_path(key)
        assert orphan.exists()
        entries = writer.disk.entries_by_age()
        assert [entry[2] for entry in entries] == [key], "orphan must be listed"
        capped = cache_class(tmp_path, max_bytes=1)
        capped.disk.enforce_cap()
        assert not orphan.exists(), "orphan bytes must be reclaimable"

    def test_store_leaves_no_temp_files(self, tmp_path, cache_class):
        cache = cache_class(tmp_path)
        cache.store(*make_entry(cache_class, 0))
        assert not list(tmp_path.glob("*.tmp"))
