"""Pluggable execution backends for the simulation kernel.

The simulation *semantics* live in :mod:`repro.sim.prefetchers`,
:mod:`repro.sim.cache` and :mod:`repro.sim.llc`; a backend is purely an
execution strategy for replaying the traces through them.  Two ship here:

* ``python`` — the per-family inlined CPython loops of
  :mod:`repro.sim._fastpath`;
* ``numpy`` — batch-vectorized array passes for every built-in engine
  family (SHIFT's shared-history round-robin split into epochs at its
  history-append boundaries), falling back to the Python loops for
  custom prefetchers and geometries outside the closed forms.

Backends never change results: every counter, the prefetcher's mutable
state, the prefetch-buffer contents and the LLC statistics are exactly
those of the reference round-robin loop
(:meth:`~repro.sim.engine.SimulationEngine._run_round_robin`), so
experiment reports are byte-identical across backends
(``tests/test_backends.py`` pins this).
Selection is ``--backend`` / ``backend=`` > ``REPRO_BACKEND`` > ``python``.
"""

from .base import (
    Backend,
    available_backends,
    backend_names,
    get_backend,
    register_backend,
    resolve_backend_name,
)
from .base import _missing_module_reason
from .python_backend import PythonBackend

register_backend("python", PythonBackend)


def _numpy_backend() -> Backend:
    from .numpy_backend import NumPyBackend

    return NumPyBackend()


register_backend("numpy", _numpy_backend, _missing_module_reason("numpy"))

__all__ = [
    "Backend",
    "PythonBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend_name",
]
