"""The pure-Python backend: the specialized loops of :mod:`repro.sim._fastpath`.

It dispatches on the exact prefetcher type — subclasses may override
``on_access`` and must fall through to the generic round-robin loop
(:meth:`~repro.sim.engine.SimulationEngine._run_round_robin`, the
reference every backend is pinned against) — and otherwise runs the
inlined per-family loops.
"""

from __future__ import annotations

from typing import Dict

from .. import _fastpath
from ..prefetchers import (
    ConsolidatedSHIFTPrefetcher,
    NextLinePrefetcher,
    NullPrefetcher,
    PIFPrefetcher,
    Prefetcher,
    SHIFTPrefetcher,
)
from .base import Backend


class PythonBackend(Backend):
    """Per-family inlined CPython loops."""

    name = "python"

    def run(self, lanes, inflight: Dict[int, int], prefetcher, llc) -> None:
        ptype = type(prefetcher)
        if ptype is NullPrefetcher or ptype is Prefetcher:
            _fastpath.run_baseline(lanes, llc)
        elif ptype is NextLinePrefetcher:
            _fastpath.run_next_line(lanes, inflight, prefetcher._degree, llc)
        elif ptype is PIFPrefetcher:
            _fastpath.run_stream_per_core(lanes, inflight, prefetcher, llc)
        elif ptype is SHIFTPrefetcher or ptype is ConsolidatedSHIFTPrefetcher:
            _fastpath.run_stream_shared(lanes, inflight, prefetcher, llc)
        else:
            # The generic loop lives on the engine because it *defines* the
            # round-robin semantics; imported lazily to avoid the module
            # cycle (engine imports backends at load time).
            from ..engine import SimulationEngine

            SimulationEngine._run_round_robin(lanes, inflight, prefetcher, llc)


__all__ = ["PythonBackend"]
