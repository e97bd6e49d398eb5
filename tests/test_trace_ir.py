"""The columnar trace IR and its binary persistence format.

Covers the PR-5 tentpole end-to-end: array-backed :class:`CoreTrace`
buffers (NumPy and ``array('q')`` fallback), vectorized run expansion,
content fingerprints, TraceSet -> bytes -> TraceSet round trips including
address layouts, corrupted/truncated cache entries degrading to misses,
and memory-mapped loads feeding byte-identical experiment reports whether
cells run serially or across worker processes.
"""

import json
import pickle
import random
from array import array

import pytest

import repro.workloads.trace as trace_mod
from repro.config import scaled_system
from repro.errors import TraceError
from repro.experiments import run_experiment
from repro.workloads.consolidation import ConsolidationMix, generate_consolidated_traces
from repro.workloads.generator import generate_traces
from repro.workloads.suite import scaled_workload, workload_by_name
from repro.workloads.trace import CoreTrace, TraceSet, column_fingerprint, expand_runs
from repro.workloads.trace_cache import TraceCache, trace_cache_key

np = pytest.importorskip("numpy")

SYSTEM = scaled_system()


def small_trace_set(seed=0, num_cores=2, blocks=600, workload="oltp_db2"):
    spec = scaled_workload(workload_by_name(workload), SYSTEM.scale)
    key = trace_cache_key(spec, SYSTEM, seed, num_cores, blocks)
    trace_set = generate_traces(
        spec, SYSTEM, seed=seed, num_cores=num_cores, blocks_per_core=blocks
    )
    return key, trace_set


class TestColumnarCoreTrace:
    def test_buffer_is_contiguous_int64(self):
        trace = CoreTrace(core_id=0, addresses=[5, 6, 7, 100])
        assert isinstance(trace.array, np.ndarray)
        assert trace.array.dtype == np.int64
        assert trace.addresses == [5, 6, 7, 100]
        assert list(trace) == [5, 6, 7, 100]
        assert trace[2] == 7
        assert len(trace) == 4

    def test_accepts_existing_buffers_zero_copy(self):
        column = np.arange(10, dtype=np.int64)
        trace = CoreTrace(core_id=1, addresses=column)
        assert trace.array is column
        qbuf = array("q", [3, 2, 1])
        assert CoreTrace(core_id=2, addresses=qbuf).addresses == [3, 2, 1]

    def test_empty_trace_rejected_for_any_buffer_kind(self):
        with pytest.raises(TraceError):
            CoreTrace(core_id=0, addresses=np.empty(0, dtype=np.int64))
        with pytest.raises(TraceError):
            CoreTrace(core_id=0, addresses=array("q"))

    def test_fingerprint_is_content_addressed(self):
        a = CoreTrace(core_id=0, addresses=[1, 2, 3])
        b = CoreTrace(core_id=5, addresses=np.asarray([1, 2, 3], dtype=np.int64))
        c = CoreTrace(core_id=0, addresses=[1, 2, 4])
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint
        assert a.fingerprint == column_fingerprint(array("q", [1, 2, 3]))

    def test_equality_and_pickle_round_trip(self):
        _key, trace_set = small_trace_set(blocks=300)
        clone = pickle.loads(pickle.dumps(trace_set, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == trace_set
        assert [t.addresses for t in clone.traces] == [
            t.addresses for t in trace_set.traces
        ]
        assert clone.layouts == trace_set.layouts

    def test_expand_runs_matches_scalar_expansion(self):
        rng = random.Random(13)
        for _ in range(25):
            runs = [
                (rng.randrange(0, 1 << 40), rng.randint(1, 9))
                for _ in range(rng.randint(1, 40))
            ]
            expected = [a for base, length in runs for a in range(base, base + length)]
            assert expand_runs(runs).tolist() == expected
            limit = rng.randint(1, len(expected))
            assert expand_runs(runs, limit=limit).tolist() == expected[:limit]

    def test_expand_runs_fallback_matches_numpy(self, monkeypatch):
        runs = [(100, 3), (50, 1), (200, 5)]
        vectorized = expand_runs(runs, limit=7)
        monkeypatch.setattr(trace_mod, "_np", None)
        fallback = expand_runs(runs, limit=7)
        assert isinstance(fallback, array)
        assert list(fallback) == vectorized.tolist()


class TestPersistenceRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        cache = TraceCache(tmp_path)
        key, trace_set = small_trace_set(seed=3)
        cache.store(key, trace_set)
        loaded = cache.load(key)
        assert loaded == trace_set
        assert loaded.layouts == trace_set.layouts
        assert loaded.seed == trace_set.seed and loaded.name == trace_set.name
        assert loaded.workload_of_core == trace_set.workload_of_core
        for ours, theirs in zip(loaded.traces, trace_set.traces):
            assert ours.addresses == theirs.addresses
            assert ours.fingerprint == theirs.fingerprint
            assert ours.requests == theirs.requests
            assert ours.instructions_per_block == theirs.instructions_per_block

    def test_round_trip_property_random_sets(self, tmp_path):
        """Randomized round-trip: hand-built sets with ragged lengths,
        explicit workload maps and no layouts survive the byte cycle."""
        rng = random.Random(99)
        cache = TraceCache(tmp_path)
        for case in range(8):
            traces = [
                CoreTrace(
                    core_id=core,
                    addresses=[rng.randrange(0, 1 << 45) for _ in range(rng.randint(1, 80))],
                    instructions_per_block=rng.randint(1, 12),
                    workload=f"w{core % 2}",
                    requests=rng.randint(0, 9),
                )
                for core in range(rng.randint(1, 5))
            ]
            trace_set = TraceSet(traces=traces, seed=case, name=f"case{case}")
            key = f"{case:02d}" + "ab" * 31  # 64 hex chars
            cache.store(key, trace_set)
            assert cache.load(key) == trace_set

    def test_consolidated_round_trip_keeps_all_layouts(self, tmp_path):
        specs = [
            scaled_workload(workload_by_name("oltp_db2"), SYSTEM.scale),
            scaled_workload(workload_by_name("web_search"), SYSTEM.scale),
        ]
        mix = ConsolidationMix.even_split(specs, 4)
        trace_set = generate_consolidated_traces(mix, SYSTEM, seed=2, blocks_per_core=400)
        cache = TraceCache(tmp_path)
        key = "cc" * 32
        cache.store(key, trace_set)
        loaded = cache.load(key)
        assert loaded == trace_set
        assert len(loaded.layouts) == 2
        assert loaded.workload_of_core == trace_set.workload_of_core

    def test_loaded_buffers_are_readonly_memmap_slices(self, tmp_path):
        cache = TraceCache(tmp_path)
        key, trace_set = small_trace_set()
        cache.store(key, trace_set)
        loaded = cache.load(key)
        for trace in loaded.traces:
            assert isinstance(trace.array, np.memmap)
            assert not trace.array.flags.writeable
        # The mmap-backed set simulates identically to the generated one.
        from repro.sim import simulate

        fresh = simulate(trace_set, SYSTEM, "next_line")
        mapped = simulate(loaded, SYSTEM, "next_line")
        assert [vars(c) for c in mapped.cores] == [vars(c) for c in fresh.cores]

    @pytest.mark.parametrize(
        "corruption",
        [
            "truncate_column",
            "bad_magic",
            "wrong_shape",
            "bitflip_column",
            "sidecar_garbage",
            "invalid_metadata",
            "wrong_version",
        ],
    )
    def test_corrupted_entries_load_as_none(self, tmp_path, corruption):
        cache = TraceCache(tmp_path)
        key, trace_set = small_trace_set()
        cache.store(key, trace_set)
        column = cache.disk.column_path(key)
        sidecar = cache.disk.sidecar_path(key)
        if corruption == "truncate_column":
            column.write_bytes(column.read_bytes()[:-16])
        elif corruption == "bad_magic":
            column.write_bytes(b"\x00" * 64)
        elif corruption == "wrong_shape":
            header = json.loads(sidecar.read_text())
            header["total"] += 7
            header["cores"][-1]["length"] += 7
            sidecar.write_text(json.dumps(header))
        elif corruption == "bitflip_column":
            # Size-preserving damage: only the fingerprint check can see it.
            blob = bytearray(column.read_bytes())
            blob[-5] ^= 0x40
            column.write_bytes(bytes(blob))
        elif corruption == "sidecar_garbage":
            sidecar.write_bytes(b"\x93NUMPY not json at all")
        elif corruption == "invalid_metadata":
            # Parseable JSON whose values fail CoreTrace validation: must be
            # a miss, not an escaping TraceError.
            header = json.loads(sidecar.read_text())
            header["cores"][0]["instructions_per_block"] = 0
            sidecar.write_text(json.dumps(header))
        elif corruption == "wrong_version":
            header = json.loads(sidecar.read_text())
            header["version"] = 999
            sidecar.write_text(json.dumps(header))
        assert cache.load(key) is None
        assert cache.misses == 1


class TestMmapParallelReports:
    FAST = dict(workloads=["oltp_db2"], num_cores=4, blocks_per_core=1_200, seed=17)

    def test_serial_and_parallel_mmap_reports_are_byte_identical(self, tmp_path):
        import repro.experiments.cells as cells_module

        reference = run_experiment(**self.FAST).to_json()
        # Populate the cache, then force every subsequent path through the
        # memory-mapped loads (the in-process memo is cleared between runs).
        warmup = run_experiment(trace_cache=tmp_path, **self.FAST)
        assert warmup.to_json() == reference
        cells_module._TRACE_MEMO.clear()
        warm_serial = run_experiment(trace_cache=tmp_path, **self.FAST)
        assert warm_serial.to_json() == reference
        cells_module._TRACE_MEMO.clear()
        warm_parallel = run_experiment(workers=2, trace_cache=tmp_path, **self.FAST)
        assert warm_parallel.to_json() == reference
