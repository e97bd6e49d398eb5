"""The content-addressed result cache: round-trips, corruption, races."""

import json
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.experiments.cells as cells_module
from repro.config import scaled_system
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.cells import CellSpec, execute_cells, run_cell
from repro.results import (
    DEFAULT_MAX_BYTES,
    MAX_BYTES_ENV_VAR,
    ResultCache,
    result_cache_key,
    system_digest,
)
from repro.sim.engine import CoreResult, SimulationResult
from repro.sim.llc import LLCStats
from repro.sweeps import run_sweep

CELL = CellSpec(workload="oltp_db2", engine="pif", num_cores=2, blocks_per_core=400)

EXPERIMENT = dict(workloads=["oltp_db2"], num_cores=2, blocks_per_core=400, seed=1)


def _random_result(seed: int, with_llc: bool = True) -> SimulationResult:
    rng = random.Random(seed)
    system = scaled_system(num_cores=4)
    cores = [
        CoreResult(
            core_id=core_id,
            accesses=rng.randrange(1, 10**7),
            instructions=rng.randrange(1, 10**8),
            demand_hits=rng.randrange(10**6),
            prefetch_hits=rng.randrange(10**5),
            late_hits=rng.randrange(10**4),
            misses=rng.randrange(10**5),
            prefetches_issued=rng.randrange(10**5),
            prefetches_unused=rng.randrange(10**4),
            history_block_reads=rng.randrange(10**4),
            llc_hits=rng.randrange(10**4),
            memory_misses=rng.randrange(10**4),
        )
        for core_id in range(rng.randrange(1, 5))
    ]
    llc = None
    if with_llc:
        llc = LLCStats(
            total_blocks=rng.randrange(1, 10**5),
            num_sets=rng.randrange(1, 1024),
            associativity=rng.randrange(1, 16),
            banks=4,
            pinned_blocks=rng.randrange(128),
            resident_blocks=rng.randrange(10**4),
            demand_hits=rng.randrange(10**5),
            demand_misses=rng.randrange(10**5),
            prefetch_hits=rng.randrange(10**5),
            prefetch_misses=rng.randrange(10**5),
            history_reads=rng.randrange(10**4),
            bank_accesses=[rng.randrange(10**6) for _ in range(4)],
        )
    return SimulationResult(
        prefetcher_name=rng.choice(["none", "next_line", "pif", "shift"]),
        system=system,
        cores=cores,
        storage_bytes_per_core=rng.randrange(10**6),
        llc=llc,
    )


class TestResultKey:
    def test_key_is_engine_and_param_sensitive(self):
        key = result_cache_key(CELL)
        assert key != result_cache_key(replace(CELL, engine="shift"))
        assert key != result_cache_key(replace(CELL, seed=7))
        assert key != result_cache_key(replace(CELL, history_entries=4096))
        assert key != result_cache_key(replace(CELL, llc_bytes_per_core=64 * 1024))
        assert key != result_cache_key(CELL, code_version="sim-v2")

    def test_key_ignores_backend(self):
        assert result_cache_key(CELL) == result_cache_key(replace(CELL, backend="numpy"))

    def test_system_digest_covers_geometry(self):
        assert system_digest(scaled_system(num_cores=4)) != system_digest(
            scaled_system(num_cores=8)
        )


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_results_round_trip(self, tmp_path, seed):
        cache = ResultCache(tmp_path)
        result = _random_result(seed, with_llc=seed % 2 == 0)
        cache.store(f"{seed:064x}", result)
        loaded = cache.load(f"{seed:064x}", result.system)
        assert loaded == result
        assert cache.stats() == {"hits": 1, "misses": 0, "stored": 1, "evicted": 0}

    def test_real_cell_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_cell(CELL)
        key = cache.key_for(CELL)
        cache.store(key, result)
        assert cache.load(key, result.system) == result

    def test_loaded_counters_are_python_ints(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _random_result(0)
        cache.store("0" * 64, result)
        loaded = cache.load("0" * 64, result.system)
        assert type(loaded.cores[0].misses) is int
        assert all(type(count) is int for count in loaded.llc.bank_accesses)


class TestCorruption:
    """Any damaged entry is a miss, never an error."""

    def _stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _random_result(1)
        key = "1" * 64
        cache.store(key, result)
        return cache, key, result

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("f" * 64, scaled_system()) is None
        assert cache.misses == 1

    def test_corrupt_sidecar_is_a_miss(self, tmp_path):
        cache, key, result = self._stored(tmp_path)
        cache.disk.sidecar_path(key).write_text("{not json")
        assert cache.load(key, result.system) is None

    def test_wrong_sidecar_version_is_a_miss(self, tmp_path):
        cache, key, result = self._stored(tmp_path)
        header = json.loads(cache.disk.sidecar_path(key).read_text())
        header["version"] = 99
        cache.disk.sidecar_path(key).write_text(json.dumps(header))
        assert cache.load(key, result.system) is None

    def test_truncated_column_is_a_miss(self, tmp_path):
        cache, key, result = self._stored(tmp_path)
        blob = cache.disk.column_path(key).read_bytes()
        cache.disk.column_path(key).write_bytes(blob[:-8])
        assert cache.load(key, result.system) is None

    def test_foreign_counter_layout_is_a_miss(self, tmp_path):
        cache, key, result = self._stored(tmp_path)
        header = json.loads(cache.disk.sidecar_path(key).read_text())
        header["core_fields"] = ["mystery"]
        cache.disk.sidecar_path(key).write_text(json.dumps(header))
        assert cache.load(key, result.system) is None

    def test_missing_column_is_a_miss(self, tmp_path):
        cache, key, result = self._stored(tmp_path)
        cache.disk.column_path(key).unlink()
        assert cache.load(key, result.system) is None


class TestBounds:
    def test_lru_cap_evicts_oldest(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path, max_bytes=1)  # everything over budget
        result = _random_result(2)
        cache.store("a" * 64, result)
        # The store's own cap pass evicts the entry it just published.
        assert cache.evicted >= 1
        assert cache.load("a" * 64, result.system) is None
        # Unlimited cache keeps both entries, LRU touch updates mtime.
        cache = ResultCache(tmp_path, max_bytes=0)
        cache.store("b" * 64, result)
        before = cache.disk.sidecar_path("b" * 64).stat().st_mtime
        time.sleep(0.01)
        os.utime(cache.disk.sidecar_path("b" * 64), (before - 100, before - 100))
        assert cache.load("b" * 64, result.system) is not None
        assert cache.disk.sidecar_path("b" * 64).stat().st_mtime > before - 100

    def test_usage_reports_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.usage() == {"entries": 0, "bytes": 0}
        cache.store("c" * 64, _random_result(3))
        usage = cache.usage()
        assert usage["entries"] == 1 and usage["bytes"] > 0

    def test_stale_format_versions_pruned_on_open(self, tmp_path):
        stale = tmp_path / f"r0-{'d' * 64}.json"
        stale.write_text("{}")
        foreign = tmp_path / "unrelated.json"
        foreign.write_text("{}")
        ResultCache(tmp_path)
        assert not stale.exists()
        assert foreign.exists()

    def test_env_cap_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv(MAX_BYTES_ENV_VAR, "not-a-number")
        with pytest.raises(ConfigurationError):
            ResultCache(tmp_path)
        monkeypatch.delenv(MAX_BYTES_ENV_VAR)
        assert ResultCache(tmp_path).max_bytes == DEFAULT_MAX_BYTES


def _store_worker(args):
    directory, key = args
    from repro.experiments.cells import run_cell
    from repro.results import ResultCache

    cache = ResultCache(directory)
    cache.store(key, run_cell(CELL))
    return True


class TestConcurrency:
    def test_concurrent_publication_race(self, tmp_path):
        """Two processes storing the same key concurrently corrupt nothing."""
        key = result_cache_key(CELL)
        with ProcessPoolExecutor(max_workers=2) as pool:
            assert all(pool.map(_store_worker, [(str(tmp_path), key)] * 2))
        loaded = ResultCache(tmp_path).load(key, run_cell(CELL).system)
        assert loaded == run_cell(CELL)


class TestWarmExecution:
    def test_warm_run_executes_zero_cells_and_is_byte_identical(self, tmp_path, monkeypatch):
        cold = run_experiment(result_cache=tmp_path, **EXPERIMENT)
        assert cold.result_cache_stats["misses"] == 4
        assert cold.result_cache_stats["stored"] == 4

        def explode(*args, **kwargs):
            raise AssertionError("a warm run must not simulate any cell")

        monkeypatch.setattr(cells_module, "run_cell", explode)
        warm = run_experiment(result_cache=tmp_path, **EXPERIMENT)
        assert warm.result_cache_stats == {"hits": 4, "misses": 0, "stored": 0, "evicted": 0}
        assert warm.to_json() == cold.to_json()

    def test_partial_invalidation_recomputes_only_changed_cells(self, tmp_path):
        run_experiment(result_cache=tmp_path, **EXPERIMENT)
        changed = run_experiment(result_cache=tmp_path, **{**EXPERIMENT, "seed": 2})
        # A different seed changes every cell's trace key: full recompute.
        assert changed.result_cache_stats["hits"] == 0
        again = run_experiment(result_cache=tmp_path, **EXPERIMENT)
        assert again.result_cache_stats == {"hits": 4, "misses": 0, "stored": 0, "evicted": 0}

    def test_parallel_warm_run_matches_serial(self, tmp_path):
        serial = run_experiment(result_cache=tmp_path, **EXPERIMENT)
        parallel = run_experiment(result_cache=tmp_path, workers=2, **EXPERIMENT)
        assert parallel.to_json() == serial.to_json()
        assert parallel.result_cache_stats["hits"] == 4

    def test_execute_cells_shares_cache_across_duplicate_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        results = execute_cells([CELL, CELL], result_cache=cache)
        assert cache.stats()["stored"] == 1
        assert results[CELL] == run_cell(CELL)

    def test_sweep_shares_one_cache_across_points(self, tmp_path):
        config = dict(
            workloads=["oltp_db2"], num_cores=2, blocks_per_core=400, result_cache=tmp_path
        )
        cold = run_sweep(axis="seeds", values=[0, 1], **config)
        assert cold.result_cache_stats["misses"] == 8
        warm = run_sweep(axis="seeds", values=[0, 1], **config)
        assert warm.result_cache_stats == {"hits": 8, "misses": 0, "stored": 0, "evicted": 0}
        assert warm.to_json() == cold.to_json()
        # Extending the sweep recomputes only the new point (incrementality).
        extended = run_sweep(axis="seeds", values=[0, 1, 2], **config)
        assert extended.result_cache_stats["hits"] == 8
        assert extended.result_cache_stats["misses"] == 4

    def test_corrupt_entry_recomputes_instead_of_crashing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_experiment(result_cache=cache, **EXPERIMENT)
        for sidecar in tmp_path.glob("r1-*.json"):
            sidecar.write_text("{broken")
        warm = run_experiment(result_cache=cache, **EXPERIMENT)
        assert warm.result_cache_stats["hits"] == 0
        assert warm.result_cache_stats["misses"] == 4
        assert warm.to_json() == cold.to_json()
