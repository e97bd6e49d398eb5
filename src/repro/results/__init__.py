"""Content-addressed on-disk cache of simulation results.

Every experiment cell is deterministic in its inputs: the trace set is a
pure function of (workload specs, core count, seed, trace length) — that is
what :func:`~repro.experiments.cells.trace_key_for` digests — and the
simulation on top of it is a pure function of the engine, its history
budget, and the full :class:`~repro.config.SystemConfig`.  A
:class:`SimulationResult` can therefore be cached under a content key and
reused across runs: re-running an experiment or a sweep after changing one
axis value recomputes only the cells whose key changed, and a long-running
service (:mod:`repro.serve`) answers repeated requests from disk instead of
from the simulator.

The key (:func:`result_cache_key`) is the SHA-256 of

* the cell's *trace key* — the generation-input digest the trace cache
  already uses, covering workload specs, core count, seed and trace length;
* the engine name and its history-budget override;
* a digest of the resolved :class:`~repro.config.SystemConfig` (so L1/LLC
  geometry, latencies and scale all invalidate results);
* a *code-version tag* (:data:`SIM_CODE_VERSION`) that must be bumped
  whenever simulation semantics change — the invalidation lever for code,
  as the config digest is for parameters.

The execution *backend* is deliberately excluded: results are byte-identical
across backends (pinned by the parity tests), so a result computed by one
backend is valid for all.

Entries are :class:`~repro.store.EntryStore` pairs, like the trace
cache's: an ``int64`` column (per-core counters, then LLC bank-access
counts) plus a JSON sidecar (``r1-<sha256>.npy`` / ``.json``).  The store
publishes them atomically, bounds the directory by an LRU byte cap
(``REPRO_RESULT_CACHE_MAX_BYTES``), prunes stale format versions on open
and tolerates concurrent workers — identical keys produce identical bytes,
and any read problem (truncation, corruption, version skew) is a miss,
never an error.

The cached payload is purely integer counters, and every report metric
(coverage, speedup, MPKI, LLC hit ratios) is derived from those integers
plus the reconstructed system config, so reports built from cached results
are *byte*-identical to cold runs — the invariant CI enforces.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .. import envvars
from ..config import SystemConfig
from ..sim.engine import CoreResult, SimulationResult
from ..sim.llc import LLCStats
from ..store import EntryStore, int64_bytes, read_column

#: Bump when the on-disk entry layout changes (key prefix + sidecar format).
RESULT_FORMAT_VERSION = 1

#: Code-version tag folded into every result key.  Bump whenever simulation
#: *semantics* change — an engine fix, a timing-model change, a new counter —
#: so previously cached results can never be served for the new code.  The
#: config digest invalidates parameter changes; this tag invalidates code.
SIM_CODE_VERSION = "sim-v1-pr6"

#: Default cache directory (sibling of ``.trace_cache``).
DEFAULT_RESULT_CACHE_DIR = ".result_cache"

#: Environment variable naming a default cache directory, to switch the
#: CLIs on without the ``--result-cache`` flag (``--no-result-cache`` still
#: wins).  Declared in :mod:`repro.envvars`; alias kept for imports.
RESULT_CACHE_ENV_VAR = envvars.RESULT_CACHE.name

#: Environment variable overriding the size cap (bytes; 0 = unlimited).
#: Declared in :mod:`repro.envvars`; alias kept for imports.
MAX_BYTES_ENV_VAR = envvars.RESULT_CACHE_MAX_BYTES.name

#: Default on-disk budget.  Result entries are a few hundred bytes of
#: counters each, so 64 MB holds ~10^5 cells — months of sweep traffic.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Every name shape this cache family has ever written.  Pruning must not
#: touch anything else: the directory may be shared with other
#: content-addressed stores (the trace cache uses ``v<N>-`` prefixes).
_ENTRY_NAME_RE = re.compile(r"^r(\d+)-[0-9a-f]{64}\.(?:npy|json)$")

#: CoreResult counter fields, in column order.  Append-only: the sidecar
#: records the list it was written with, and a mismatch is a miss.
_CORE_FIELDS: Tuple[str, ...] = (
    "core_id",
    "accesses",
    "instructions",
    "demand_hits",
    "prefetch_hits",
    "late_hits",
    "misses",
    "prefetches_issued",
    "prefetches_unused",
    "history_block_reads",
    "llc_hits",
    "memory_misses",
)

#: LLCStats scalar fields, in sidecar order (bank_accesses rides the column).
_LLC_FIELDS: Tuple[str, ...] = (
    "total_blocks",
    "num_sets",
    "associativity",
    "banks",
    "pinned_blocks",
    "resident_blocks",
    "demand_hits",
    "demand_misses",
    "prefetch_hits",
    "prefetch_misses",
    "history_reads",
)


def system_digest(system: SystemConfig) -> str:
    """Canonical content digest of a resolved system configuration.

    Every field of the (frozen, primitives-only) config tree participates,
    so any geometry or latency change produces a different result key.
    """
    payload = json.dumps(asdict(system), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: :class:`~repro.experiments.cells.CellSpec` fields that may legitimately
#: be read by the execution path without participating in the result key.
#: ``backend`` is execution strategy only — results are byte-identical
#: across backends (pinned by the parity tests), so a result computed by
#: one backend is valid for all.  The ``cache-key`` checker of
#: :mod:`repro.analysis` cross-references every cell field the execution
#: path reads against the fields reachable from :func:`result_cache_key`;
#: anything uncovered and not listed here fails the analysis gate.
RESULT_KEY_EXEMPT_CELL_FIELDS = frozenset({"backend"})


def result_cache_key(cell, code_version: str = SIM_CODE_VERSION) -> str:
    """The content key of one cell's :class:`SimulationResult`.

    ``cell`` is a :class:`~repro.experiments.cells.CellSpec`.  The backend
    field is excluded on purpose (results are backend-invariant); everything
    else that can influence the counters is covered by the trace key, the
    engine fields, the chunk geometry, the system digest, or the
    code-version tag.  ``chunk_blocks`` participates even though reports are
    chunking-invariant: the chunking CI checks compare a chunked run against
    a monolithic one, and serving both from one entry would turn that
    equality check into a tautology.
    """
    from ..experiments.cells import system_for_cell, trace_key_for

    payload = {
        "format": RESULT_FORMAT_VERSION,
        "code": code_version,
        "trace": trace_key_for(cell),
        "engine": cell.engine,
        "history_entries": cell.history_entries,
        "chunk_blocks": cell.chunk_blocks,
        "system": system_digest(system_for_cell(cell)),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# SimulationResult <-> (sidecar header, int64 column)


def _result_column(result: SimulationResult) -> List[int]:
    """The entry's integer column: per-core counter rows, then LLC banks."""
    column: List[int] = []
    for core in result.cores:
        column.extend(int(getattr(core, field)) for field in _CORE_FIELDS)
    if result.llc is not None:
        column.extend(int(count) for count in result.llc.bank_accesses)
    return column


def _result_header(result: SimulationResult) -> Dict[str, object]:
    llc: Optional[Dict[str, object]] = None
    if result.llc is not None:
        llc = {field: int(getattr(result.llc, field)) for field in _LLC_FIELDS}
        llc["bank_accesses_len"] = len(result.llc.bank_accesses)
    return {
        "prefetcher_name": result.prefetcher_name,
        "storage_bytes_per_core": int(result.storage_bytes_per_core),
        "core_fields": list(_CORE_FIELDS),
        "num_cores": len(result.cores),
        "llc": llc,
    }


def _result_from_entry(
    header: Dict[str, object], column_path: Path, system: SystemConfig
) -> SimulationResult:
    if list(header["core_fields"]) != list(_CORE_FIELDS):
        raise ValueError("entry was written with a different counter layout")
    # Result columns are tiny (a dozen ints per core): read eagerly, never
    # memory-mapped.
    column = read_column(column_path, int(header["total"]))
    num_cores = int(header["num_cores"])
    width = len(_CORE_FIELDS)
    cores: List[CoreResult] = []
    for index in range(num_cores):
        row = column[index * width : (index + 1) * width]
        cores.append(CoreResult(**{f: int(v) for f, v in zip(_CORE_FIELDS, row)}))
    llc_header = header["llc"]
    llc: Optional[LLCStats] = None
    if llc_header is not None:
        banks_len = int(llc_header["bank_accesses_len"])
        offset = num_cores * width
        bank_accesses = [int(v) for v in column[offset : offset + banks_len]]
        if len(bank_accesses) != banks_len:
            raise ValueError("column is shorter than its sidecar claims")
        llc = LLCStats(
            **{f: int(llc_header[f]) for f in _LLC_FIELDS},
            bank_accesses=bank_accesses,
        )
    return SimulationResult(
        prefetcher_name=str(header["prefetcher_name"]),
        system=system,
        cores=cores,
        storage_bytes_per_core=int(header["storage_bytes_per_core"]),
        llc=llc,
    )


class ResultCache:
    """A bounded directory of content-addressed simulation results.

    The same :class:`~repro.store.EntryStore` upkeep as
    :class:`~repro.workloads.trace_cache.TraceCache`: atomic publication,
    LRU byte cap, stale-version pruning, and total tolerance of concurrent
    workers and damaged entries (any read problem is a miss).  ``hits`` /
    ``misses`` / ``stored`` / ``evicted`` count this process's traffic and
    feed the report and service statistics.
    """

    def __init__(
        self,
        directory: "str | Path" = DEFAULT_RESULT_CACHE_DIR,
        max_bytes: Optional[int] = None,
        code_version: str = SIM_CODE_VERSION,
    ) -> None:
        #: The entry files and their upkeep (:mod:`repro.store`).
        self.disk = EntryStore(
            directory,
            prefix=f"r{RESULT_FORMAT_VERSION}-",
            sidecar_format="repro-simulation-result",
            version=RESULT_FORMAT_VERSION,
            names=_ENTRY_NAME_RE,
            max_bytes=max_bytes,
            max_bytes_var=envvars.RESULT_CACHE_MAX_BYTES,
            default_max_bytes=DEFAULT_MAX_BYTES,
        )
        self._code_version = code_version
        #: Guards the traffic counters: one ResultCache is shared by every
        #: job thread of a ``repro.serve`` deployment, and unsynchronized
        #: ``+= 1`` increments lose updates under concurrency.  On-disk
        #: state needs no lock — publication is atomic (temp +
        #: ``os.replace``) and any read problem is a miss by design.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stored = 0
        self.evicted = 0

    @property
    def directory(self) -> Path:
        """The cache's root directory (created on first store)."""
        return self.disk.directory

    @property
    def max_bytes(self) -> int:
        """Size cap in bytes (0 = unlimited)."""
        return self.disk.max_bytes

    @property
    def code_version(self) -> str:
        """The simulation-code version tag entries are keyed under."""
        return self._code_version

    def key_for(self, cell) -> str:
        """The result key of a cell under this cache's code-version tag."""
        return result_cache_key(cell, code_version=self._code_version)

    def stats(self) -> Dict[str, int]:
        """This process's cache traffic (the report/service counters)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stored": self.stored,
                "evicted": self.evicted,
            }

    def usage(self) -> Dict[str, int]:
        """Current on-disk footprint: entry count and total bytes."""
        entries = self.disk.entries_by_age()
        return {
            "entries": len(entries),
            "bytes": sum(size for _mtime, size, _key in entries),
        }

    def load(self, key: str, system: SystemConfig) -> Optional[SimulationResult]:
        """The cached result for ``key``, rebuilt against ``system``.

        The system config is *not* stored — it is a pure function of the
        cell, and its digest is part of the key, so the caller-resolved
        config is by construction the one the result was computed against.
        Any inconsistency on disk is a miss, never an error.
        """
        result = self.disk.load(
            key, lambda header, column_path: _result_from_entry(header, column_path, system)
        )
        with self._lock:
            if result is None:
                self.misses += 1
            else:
                self.hits += 1
        return result

    def store(self, key: str, result: SimulationResult) -> None:
        """Atomically publish ``result`` under ``key``; best-effort."""
        evicted = self.disk.publish(
            key, _result_header(result), [int64_bytes(_result_column(result))]
        )
        if evicted is None:
            return
        with self._lock:
            self.stored += 1
            self.evicted += evicted


def as_result_cache(cache: "ResultCache | str | Path | None") -> Optional[ResultCache]:
    """Normalize the ``result_cache=`` argument the drivers accept."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def resolve_result_cache_dir(
    explicit: "str | Path | None" = None,
    disabled: bool = False,
    default: "str | None" = None,
) -> Optional[str]:
    """CLI/service resolution: flag > environment > caller default.

    ``disabled`` (the ``--no-result-cache`` flag) wins over everything.
    """
    if disabled:
        return None
    if explicit is not None:
        return str(explicit)
    env = envvars.RESULT_CACHE.read()
    if env:
        return env
    return default


__all__ = [
    "ResultCache",
    "as_result_cache",
    "resolve_result_cache_dir",
    "result_cache_key",
    "system_digest",
    "RESULT_FORMAT_VERSION",
    "SIM_CODE_VERSION",
    "DEFAULT_RESULT_CACHE_DIR",
    "RESULT_CACHE_ENV_VAR",
    "MAX_BYTES_ENV_VAR",
    "DEFAULT_MAX_BYTES",
]
