"""Traced stand-in for ``python -m repro ...``: spans around each layer's public calls.

    python perfbench/tracer.py --spans OUT.json --job ID -- <repro arguments>

The program is not changed.  Before calling the CLI's ``main`` this
bootstrap rebinds the functions listed in :data:`TARGETS` in the modules
that call them (methods on their classes) with wrappers that record one
span per call: name, start, end, parent span, job id, thread, plus a few
counts taken where the work happens (fetches generated or simulated, cache
hits, serve job ids).  Spans stay in memory and are written to ``OUT.json``
when ``main`` returns.  A target the program no longer has is listed under
``missing`` instead of failing the run.

Times are ``time.monotonic_ns()``, the system-wide monotonic clock on
Linux, so spans from several processes share one time axis with the
benchmark's own job timestamps.
"""

from __future__ import annotations

import time

_T0 = time.monotonic_ns()

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

_ids = itertools.count(1)
_spans: List[list] = []
_local = threading.local()
_job: Dict[str, Optional[str]] = {"id": None}


def _fetches(trace_set) -> int:
    return int(sum(trace.num_accesses for trace in trace_set.traces))


def _simulate_attrs(args, kwargs, result) -> dict:
    engine = args[2] if len(args) > 2 else kwargs.get("prefetcher", "none")
    name = engine if isinstance(engine, str) else getattr(engine, "name", "custom")
    return {"engine": name, "fetches": _fetches(args[0])}


def _generate_attrs(args, kwargs, result) -> dict:
    return {"fetches": _fetches(result)}


def _hit_attrs(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _submit_attrs(args, kwargs, result) -> dict:
    job, deduped = result
    return {"serve_job": job.id, "deduped": bool(deduped)}


def _job_of_run(args, kwargs) -> Optional[str]:
    return args[1].id


#: (module, attribute path, span name, attrs from (args, kwargs, result),
#: serve job id from (args, kwargs) for calls that run one job).
TARGETS = (
    ("repro.experiments.cells", "generate_traces", "workloads.generate", _generate_attrs, None),
    ("repro.experiments.cells", "generate_consolidated_traces", "workloads.generate",
     _generate_attrs, None),
    ("repro.workloads.trace_cache", "TraceCache.load", "workloads.trace_cache_load",
     _hit_attrs, None),
    ("repro.workloads.trace_cache", "TraceCache.store", "workloads.trace_cache_store", None, None),
    ("repro.experiments.cells", "simulate", "sim.simulate", _simulate_attrs, None),
    ("repro.sim.backends.python_backend", "PythonBackend.run", "sim.backend_run", None, None),
    ("repro.sim.backends.numpy_backend", "NumPyBackend.run", "sim.backend_run", None, None),
    ("repro.sim.backends.numpy_backend", "NumPyBackend.prewarm", "sim.prewarm", None, None),
    ("repro.sim.engine", "SimulationEngine._checkpoint_roundtrip", "sim.checkpoint", None, None),
    ("repro.experiments.cells", "run_cell", "experiments.run_cell", None, None),
    ("repro.experiments", "execute_cells", "experiments.execute_cells", None, None),
    ("repro.experiments.__main__", "run_experiment", "experiments.run_experiment", None, None),
    ("repro.sweeps", "run_experiment", "experiments.run_experiment", None, None),
    ("repro.serve", "run_experiment", "experiments.run_experiment", None, None),
    ("repro.experiments", "ExperimentReport.to_dict", "experiments.report", None, None),
    ("repro.experiments", "ExperimentReport.to_json", "experiments.report", None, None),
    ("repro.experiments", "ExperimentReport.save", "experiments.report", None, None),
    ("repro.experiments.__main__", "format_report", "experiments.report", None, None),
    ("repro.sweeps", "SweepReport.to_dict", "experiments.report", None, None),
    ("repro.sweeps", "SweepReport.to_json", "experiments.report", None, None),
    ("repro.sweeps", "SweepReport.save", "experiments.report", None, None),
    ("repro.sweeps.__main__", "format_sweep", "experiments.report", None, None),
    ("repro.sweeps.__main__", "run_sweep", "sweeps.run_sweep", None, None),
    ("repro.results", "ResultCache.load", "results.load", _hit_attrs, None),
    ("repro.results", "ResultCache.store", "results.store", None, None),
    ("repro.serve", "ExperimentService.submit", "serve.submit", _submit_attrs, None),
    ("repro.serve", "ExperimentService._run", "serve.job_run", None, _job_of_run),
)


#: Modules that only one command imports, and that command.  Their targets
#: are installed for that command alone, so the traced ``cli.import`` span
#: imports what the untraced command imports, no more.
COMMAND_MODULES = {
    "repro.experiments.__main__": "experiments",
    "repro.sweeps.__main__": "sweeps",
    "repro.serve": "serve",
}


def _wrap(fn: Callable, name: str, attrs: Optional[Callable], job_of: Optional[Callable]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        outer_job = getattr(_local, "job", None)
        if job_of is not None:
            _local.job = job_of(args, kwargs)
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.monotonic_ns()
        extra = None
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            return result
        finally:
            end = time.monotonic_ns()
            stack.pop()
            job = getattr(_local, "job", None) or _job["id"]
            _spans.append([span_id, name, start, end, parent, job,
                           threading.current_thread().name, extra])
            if job_of is not None:
                _local.job = outer_job

    return traced


def install(command: str) -> List[str]:
    """Rebind every target ``command`` imports; return the ones this program lacks."""
    missing = []
    for module_name, path, name, attrs, job_of in TARGETS:
        if COMMAND_MODULES.get(module_name, command) != command:
            continue
        try:
            owner = importlib.import_module(module_name)
            *parents, leaf = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}:{path}")
            continue
        setattr(owner, leaf, _wrap(fn, name, attrs, job_of))
    return missing


def main() -> int:
    parser = argparse.ArgumentParser(description="run python -m repro with layer spans")
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--job", default=None, help="job id stamped on this process's spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the repro arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    _job["id"] = args.job
    missing = install(argv[0] if argv else "")
    from repro.__main__ import main as repro_main

    _spans.append([next(_ids), "cli.import", _T0, time.monotonic_ns(), 0, args.job,
                   threading.current_thread().name, None])
    try:
        return _wrap(repro_main, "cli.main", None, None)(argv)
    finally:
        with open(args.spans, "w") as handle:
            json.dump({"job": args.job, "pid": os.getpid(), "missing": missing,
                       "spans": _spans}, handle)


if __name__ == "__main__":
    sys.exit(main())
