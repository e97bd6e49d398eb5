"""Cell-level experiment execution.

A *cell* is the atomic unit of experiment work: one (workload-or-mix,
engine, configuration, seed) simulation.  :func:`execute_cells` runs a batch
of cells either in-process or fanned out over a
:class:`concurrent.futures.ProcessPoolExecutor`, and guarantees that the two
paths produce identical results in an identical order:

* a :class:`CellSpec` is a frozen dataclass of primitives, so it pickles to
  workers and hashes as a dict key;
* every cell is simulated from a freshly generated (or cache-loaded) trace
  set and a fresh prefetcher, so no state leaks between cells whichever
  process runs them;
* ``ProcessPoolExecutor.map`` preserves submission order, so result merging
  never depends on completion order.

Within one process, trace sets are memoized (the baseline and the three
prefetch engines of one workload share one trace set); across processes the
optional on-disk :class:`~repro.workloads.trace_cache.TraceCache` plays the
same role.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import envvars
from ..config import (
    SystemConfig,
    paper_pif_config,
    paper_shift_config,
    paper_system,
    scaled_pif_config,
    scaled_shift_config,
    scaled_system,
)
from ..errors import ConfigurationError
from ..sim import Backend, SimulationResult, simulate
from ..workloads.consolidation import ConsolidationMix, generate_consolidated_traces
from ..workloads.generator import generate_traces
from ..workloads.suite import scaled_workload, workload_by_name
from ..workloads.trace import TraceSet
from ..workloads.trace_cache import TraceCache, trace_cache_key

#: Environment variable consulted when ``workers`` is not given explicitly:
#: set it to 4 to route every experiment through the parallel executor (CI
#: uses this to exercise the parallel path for the whole suite).  Declared
#: in :mod:`repro.envvars`; this alias keeps the historical import working.
WORKERS_ENV_VAR = envvars.WORKERS.name

#: Per-process memo of generated trace sets (key -> TraceSet), bounded so a
#: long-lived worker or test process cannot accumulate traces forever.
_TRACE_MEMO: Dict[str, TraceSet] = {}
_TRACE_MEMO_MAX = 8


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker process needs to simulate one experiment cell."""

    workload: str
    engine: str
    system: str = "scaled"
    scale: int = 16
    seed: int = 0
    num_cores: Optional[int] = None
    blocks_per_core: Optional[int] = None
    #: Paper-scale history budget override for PIF/SHIFT (None = 32K).
    history_entries: Optional[int] = None
    #: Workload names of a consolidation mix; empty tuple = single workload.
    consolidation: Tuple[str, ...] = ()
    #: Paper-scale LLC slice size override (None = 512 KB per core).
    llc_bytes_per_core: Optional[int] = None
    #: Simulation backend name or instance (None = ``REPRO_BACKEND`` or
    #: ``python``).  Execution strategy only — results are byte-identical
    #: across backends, so the backend is deliberately *not* part of report
    #: params or trace cache keys.
    backend: "str | Backend | None" = None
    #: Chunked-streaming window in blocks (None = monolithic).  Reports are
    #: byte-identical for every chunk geometry; the window still joins the
    #: result-cache key (it selects a different execution path, and the
    #: chunking-invariance CI checks must not serve one geometry's result
    #: from another's cache entry) but *not* the trace cache key (traces are
    #: chunking-independent).
    chunk_blocks: Optional[int] = None


def system_for(
    name: str,
    scale: int,
    num_cores: Optional[int] = None,
    llc_bytes_per_core: Optional[int] = None,
) -> SystemConfig:
    """Resolve a system configuration by name.

    ``num_cores`` sizes the whole CMP — core count, one LLC slice per core,
    and a mesh auto-sized to cover the tiles — not just the traced subset:
    a 4-core sweep point gets a 4-slice LLC (on the 16-tile die of Table I)
    and a 32-core point a 32-slice LLC on a 4x8 mesh, instead of both
    simulating against the default 16-core system (which made >16-core
    sweeps crash outright).  ``llc_bytes_per_core`` overrides the
    paper-scale LLC slice (the Section 5.4 sensitivity axis).
    """
    cores = num_cores if num_cores is not None else 16
    if name == "paper":
        return paper_system(num_cores=cores, llc_bytes_per_core=llc_bytes_per_core)
    if name == "scaled":
        return scaled_system(
            num_cores=cores, scale=scale, llc_bytes_per_core=llc_bytes_per_core
        )
    raise ConfigurationError(f"unknown system {name!r}; known: paper, scaled")


def system_for_cell(cell: CellSpec) -> SystemConfig:
    """The system configuration a cell simulates against."""
    return system_for(cell.system, cell.scale, cell.num_cores, cell.llc_bytes_per_core)


def _specs_for(cell: CellSpec, sys_config: SystemConfig):
    scale = sys_config.scale
    if cell.consolidation:
        return tuple(scaled_workload(workload_by_name(n), scale) for n in cell.consolidation)
    return (scaled_workload(workload_by_name(cell.workload), scale),)


def consolidation_mix_for(cell: CellSpec, sys_config: SystemConfig) -> ConsolidationMix:
    """The single source of the core-group split for a consolidation cell.

    Both trace generation and the SHIFT group construction go through this
    function, so the per-core workload assignment and the prefetcher's
    history groups can never diverge.
    """
    cores = cell.num_cores if cell.num_cores is not None else sys_config.num_cores
    return ConsolidationMix.even_split(_specs_for(cell, sys_config), cores)


def _generate(cell: CellSpec, sys_config: SystemConfig) -> TraceSet:
    if cell.consolidation:
        return generate_consolidated_traces(
            consolidation_mix_for(cell, sys_config),
            sys_config,
            seed=cell.seed,
            blocks_per_core=cell.blocks_per_core,
        )
    spec = _specs_for(cell, sys_config)[0]
    return generate_traces(
        spec,
        sys_config,
        seed=cell.seed,
        num_cores=cell.num_cores,
        blocks_per_core=cell.blocks_per_core,
    )


def trace_key_for(cell: CellSpec) -> str:
    """The on-disk cache key of ``cell``'s trace set (engine-independent)."""
    sys_config = system_for_cell(cell)
    return trace_cache_key(
        _specs_for(cell, sys_config),
        sys_config,
        cell.seed,
        cell.num_cores,
        cell.blocks_per_core,
    )


def trace_set_for(cell: CellSpec, trace_cache_dir: Optional[str] = None) -> TraceSet:
    """The trace set of ``cell``, via the in-process memo and disk cache."""
    sys_config = system_for_cell(cell)
    key = trace_key_for(cell)
    trace_set = _TRACE_MEMO.get(key)
    if trace_set is not None:
        return trace_set
    cache = TraceCache(trace_cache_dir) if trace_cache_dir else None
    if cache is not None:
        trace_set = cache.load(key)
    if trace_set is None:
        trace_set = _generate(cell, sys_config)
        if cache is not None:
            cache.store(key, trace_set)
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = trace_set
    return trace_set


def _engine_kwargs(cell: CellSpec, sys_config: SystemConfig) -> Dict:
    scale = sys_config.scale
    history = cell.history_entries if cell.history_entries is not None else 32 * 1024
    if cell.engine == "pif":
        if scale > 1:
            return {"pif_config": scaled_pif_config(scale, history_entries=history)}
        return {"pif_config": paper_pif_config(history_entries=history)}
    if cell.engine == "shift":
        if scale > 1:
            config = scaled_shift_config(scale, history_entries=history)
        else:
            config = paper_shift_config(history_entries=history)
        kwargs: Dict = {"shift_config": config}
        if cell.consolidation:
            mix = consolidation_mix_for(cell, sys_config)
            kwargs["shift_groups"] = [tuple(r) for _, r in mix.core_ranges()]
        return kwargs
    return {}


def run_cell(cell: CellSpec, trace_cache_dir: Optional[str] = None) -> SimulationResult:
    """Simulate one cell from scratch (fresh caches, buffers, prefetcher)."""
    sys_config = system_for_cell(cell)
    trace_set = trace_set_for(cell, trace_cache_dir)
    return simulate(
        trace_set,
        sys_config,
        cell.engine,
        backend=cell.backend,
        chunk_blocks=cell.chunk_blocks,
        **_engine_kwargs(cell, sys_config),
    )


def _execute_cell(args: Tuple[CellSpec, Optional[str]]) -> SimulationResult:
    cell, trace_cache_dir = args
    return run_cell(cell, trace_cache_dir)


def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count: the explicit argument, else ``REPRO_WORKERS``.

    Non-positive counts are rejected here rather than deep inside
    ``ProcessPoolExecutor`` (whose ``ValueError`` would not say where the
    value came from); 0 is only ever the *implicit* "no parallelism
    requested" default.
    """
    if workers is not None:
        if workers < 1:
            raise ConfigurationError(
                f"worker count (--workers) must be a positive integer, got {workers!r}"
                f" (or leave it unset / unset {WORKERS_ENV_VAR} to run serially)"
            )
        return workers
    raw = envvars.WORKERS.read()
    if raw is None:
        return 0
    try:
        count = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}"
        ) from None
    if count < 1:
        raise ConfigurationError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {raw!r}"
        )
    return count


def execute_cells(
    cells: Sequence[CellSpec],
    workers: Optional[int] = None,
    trace_cache_dir: Optional[str] = None,
    chunksize: Optional[int] = None,
    result_cache: "object | str | None" = None,
) -> Dict[CellSpec, SimulationResult]:
    """Run every cell, serially or across processes; merge deterministically.

    Results are keyed by cell and produced in submission order on both
    paths, so callers see bit-identical reports for any worker count.
    ``chunksize`` batches consecutive cells onto one worker — callers whose
    cell lists are workload-major (all engines of one workload adjacent)
    pass the engine count so a workload's cells share one worker's trace
    memo instead of regenerating the trace per worker.

    ``result_cache`` (a :class:`~repro.results.ResultCache` or a directory
    path) short-circuits cells whose content key already has a stored
    result: only the missing cells are simulated (serially or in the pool),
    and their results are published back to the cache from the parent
    process.  Cached and computed results are byte-identical by
    construction, so every execution mode still merges to the same report;
    the cache object's ``hits``/``misses``/``stored`` counters record what
    this call recomputed.
    """
    from ..results import as_result_cache

    cache = as_result_cache(result_cache)
    cached: Dict[CellSpec, SimulationResult] = {}
    keys: Dict[CellSpec, str] = {}
    pending: List[CellSpec] = []
    if cache is not None:
        for cell in cells:
            if cell in cached or cell in keys:
                continue
            key = cache.key_for(cell)
            loaded = cache.load(key, system_for_cell(cell))
            if loaded is not None:
                cached[cell] = loaded
            else:
                keys[cell] = key
                pending.append(cell)
    else:
        seen = set()
        for cell in cells:
            if cell not in seen:
                seen.add(cell)
                pending.append(cell)

    effective = resolve_workers(workers)
    args = [(cell, trace_cache_dir) for cell in pending]
    if effective > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=effective) as pool:
            computed: List[SimulationResult] = list(
                pool.map(_execute_cell, args, chunksize=chunksize or 1)
            )
    else:
        computed = [_execute_cell(arg) for arg in args]
    results = dict(zip(pending, computed))
    if cache is not None:
        for cell, result in results.items():
            cache.store(keys[cell], result)
    results.update(cached)
    return {cell: results[cell] for cell in cells}


__all__ = [
    "CellSpec",
    "consolidation_mix_for",
    "execute_cells",
    "resolve_workers",
    "run_cell",
    "system_for",
    "system_for_cell",
    "trace_key_for",
    "trace_set_for",
    "WORKERS_ENV_VAR",
]
