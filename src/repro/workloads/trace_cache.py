"""On-disk cache of generated trace sets (binary, memory-mappable).

Trace generation is deterministic in (workload spec, system, seed, core
count, trace length), so its output can be cached and shared: within one
parallel experiment the baseline and the three prefetch engines all simulate
the same trace set, and across experiment invocations (sweeps, benches,
repeated ``--check`` runs) the same cells recur constantly.  Worker processes
of the parallel executor coordinate purely through this cache — the first
process to need a trace generates and publishes it, later ones load it.

Format v3 stores each entry as a :class:`~repro.store.EntryStore` pair:
``v3-<sha256>.npy`` holds every core's
address column concatenated into one little-endian ``int64`` column, and
``v3-<sha256>.json`` holds the per-core (offset, length) slices plus the
trace metadata the columns cannot carry — core ids, workloads, request
counts, content fingerprints, the address layouts and the set-level
fields.  The store owns publication, the LRU byte cap
(:data:`DEFAULT_MAX_BYTES`, overridden per cache with ``max_bytes=`` or
globally with ``REPRO_TRACE_CACHE_MAX_BYTES``; ``0`` disables it),
stale-version pruning and the tolerance of concurrent workers.

:meth:`TraceCache.load` memory-maps the column file read-only (NumPy
``mmap_mode="r"``): the per-core :class:`~repro.workloads.trace.CoreTrace`
buffers are zero-copy slices of the map, so ``REPRO_WORKERS=N`` worker
processes loading the same entry share one page-cache copy instead of N
private deserialized lists.  Sidecar fingerprints ride along — verified
against the column bytes on load, since the numpy backend keys cross-run
precompute memos on them — which keeps those memos warm across loads.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from .. import envvars
from ..config import SystemConfig
from ..store import EntryStore, read_column
from .address_space import AddressWindow, WorkloadAddressLayout
from .suite import WorkloadSpec
from .trace import CoreTrace, TraceSet, _column_bytes, column_fingerprint

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the array('q') paths
    _np = None

#: Bump when the on-disk payload or generation semantics change.
CACHE_FORMAT_VERSION = 3

#: Default cache directory (under the working directory, like ``.pytest_cache``).
DEFAULT_CACHE_DIR = ".trace_cache"

#: Environment variable overriding the default size cap (bytes; 0 =
#: unlimited).  Declared in :mod:`repro.envvars`; alias kept for imports.
MAX_BYTES_ENV_VAR = envvars.TRACE_CACHE_MAX_BYTES.name

#: Default on-disk budget: enough for hundreds of scaled trace sets while
#: keeping an unattended sweep box from filling its disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Name shapes this cache family has ever written: the v3+ binary pair
#: ``v<N>-<sha256>.npy`` / ``.json``, the PR-2/4 pickle ``v<N>-<sha256>.pkl``
#: and the PR-2-era bare ``<sha256>.pkl`` (the *only* unversioned shape we
#: ever produced).  Pruning must never touch anything else — the user may
#: point the cache at a directory that also holds unrelated files, including
#: sha256-named artifacts of other content-addressed stores.
_ENTRY_NAME_RE = re.compile(
    r"^(?:v(\d+)-[0-9a-f]{64}\.(?:pkl|npy|json)|[0-9a-f]{64}\.pkl)$"
)


def trace_cache_key(
    specs: "tuple[WorkloadSpec, ...] | WorkloadSpec",
    system: SystemConfig,
    seed: int,
    num_cores: Optional[int],
    blocks_per_core: Optional[int],
) -> str:
    """Deterministic content key for one generated trace set.

    ``specs`` is a single spec, or the tuple of specs of a consolidation mix
    (order matters: it fixes the core-group assignment).  Of the system
    configuration only the core count influences generation (the specs are
    already scaled), so cache-geometry sweeps — LLC slice sizes, L1 sizes —
    share one cached trace set per (specs, cores, seed, length) point.
    """
    if isinstance(specs, WorkloadSpec):
        specs = (specs,)
    payload = {
        "version": CACHE_FORMAT_VERSION,
        "specs": [asdict(spec) for spec in specs],
        "cores": num_cores if num_cores is not None else system.num_cores,
        "seed": seed,
        "blocks_per_core": blocks_per_core,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Sidecar header


def _layout_to_dict(layout: WorkloadAddressLayout) -> Dict[str, object]:
    return {
        "workload_index": layout.workload_index,
        "application_code": [layout.application_code.base, layout.application_code.size],
        "os_code": [layout.os_code.base, layout.os_code.size],
        "data": [layout.data.base, layout.data.size],
        "history": [layout.history.base, layout.history.size],
    }


def _layout_from_dict(data: Dict[str, object]) -> WorkloadAddressLayout:
    def window(field: str) -> AddressWindow:
        base, size = data[field]
        return AddressWindow(int(base), int(size))

    return WorkloadAddressLayout(
        workload_index=int(data["workload_index"]),
        application_code=window("application_code"),
        os_code=window("os_code"),
        data=window("data"),
        history=window("history"),
    )


def _sidecar_payload(trace_set: TraceSet) -> Dict[str, object]:
    cores = []
    offset = 0
    for trace in trace_set.traces:
        length = trace.num_accesses
        cores.append(
            {
                "core_id": trace.core_id,
                "offset": offset,
                "length": length,
                "instructions_per_block": trace.instructions_per_block,
                "workload": trace.workload,
                "requests": trace.requests,
                "fingerprint": trace.fingerprint,
            }
        )
        offset += length
    return {
        "cores": cores,
        "layouts": [_layout_to_dict(layout) for layout in trace_set.layouts],
        "seed": trace_set.seed,
        "name": trace_set.name,
        "workload_of_core": {
            str(core): name for core, name in trace_set.workload_of_core.items()
        },
    }


def _trace_set_from_sidecar(header: Dict[str, object], column_path: Path) -> TraceSet:
    """The entry's trace set: with NumPy the column file is memory-mapped
    read-only and each core's trace is a zero-copy slice of the map, so
    concurrent workers share the kernel page cache; without NumPy it is
    read eagerly.  Raises on any mismatch."""
    total = int(header["total"])
    if _np is None:
        column = read_column(column_path, total)
    else:
        column = _np.load(column_path, mmap_mode="r")
        if column.dtype != _np.dtype("<i8") or column.ndim != 1 or column.size != total:
            raise ValueError("column file does not match its sidecar")
    traces = []
    for core in header["cores"]:
        offset = int(core["offset"])
        length = int(core["length"])
        core_column = column[offset : offset + length]
        fingerprint = core.get("fingerprint")
        # The fingerprint is correctness-load-bearing: the numpy backend
        # keys cross-run precompute memos on it, so a stale digest over
        # damaged bytes would poison runs of the *genuine* trace.  One
        # sha256 pass per core makes size-preserving corruption a miss.
        if fingerprint is not None and column_fingerprint(core_column) != fingerprint:
            raise ValueError("column bytes do not match the sidecar fingerprint")
        traces.append(
            CoreTrace(
                core_id=int(core["core_id"]),
                addresses=core_column,
                instructions_per_block=int(core["instructions_per_block"]),
                workload=str(core["workload"]),
                requests=int(core["requests"]),
                fingerprint=fingerprint,
            )
        )
    return TraceSet(
        traces=traces,
        layouts=tuple(_layout_from_dict(layout) for layout in header["layouts"]),
        seed=int(header["seed"]),
        name=str(header["name"]),
        workload_of_core={
            int(core): str(name) for core, name in header["workload_of_core"].items()
        },
    )


class TraceCache:
    """A bounded directory of binary, mmap-able trace-set entries."""

    def __init__(
        self,
        directory: "str | Path" = DEFAULT_CACHE_DIR,
        max_bytes: Optional[int] = None,
    ) -> None:
        #: The entry files and their upkeep (:mod:`repro.store`).
        self.disk = EntryStore(
            directory,
            prefix=f"v{CACHE_FORMAT_VERSION}-",
            sidecar_format="repro-trace-set",
            version=CACHE_FORMAT_VERSION,
            names=_ENTRY_NAME_RE,
            max_bytes=max_bytes,
            max_bytes_var=envvars.TRACE_CACHE_MAX_BYTES,
            default_max_bytes=DEFAULT_MAX_BYTES,
        )
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    @property
    def max_bytes(self) -> int:
        """Size cap in bytes (0 = unlimited)."""
        return self.disk.max_bytes

    def load(self, key: str) -> Optional[TraceSet]:
        """Return the cached trace set for ``key``, or None.

        Any inconsistency — missing files, truncation, corrupt JSON,
        mismatched sizes or fingerprints — is a miss, never an error.
        """
        trace_set = self.disk.load(key, _trace_set_from_sidecar)
        if trace_set is None:
            self.misses += 1
        else:
            self.hits += 1
        return trace_set

    def store(self, key: str, trace_set: TraceSet) -> None:
        """Atomically publish ``trace_set`` under ``key``; best-effort."""
        evicted = self.disk.publish(
            key,
            _sidecar_payload(trace_set),
            [_column_bytes(trace.array) for trace in trace_set.traces],
        )
        self.evicted += evicted or 0


__all__ = [
    "TraceCache",
    "trace_cache_key",
    "CACHE_FORMAT_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "MAX_BYTES_ENV_VAR",
]
