"""Long-running experiment service: ``python -m repro.serve``.

The batch CLIs recompute a whole experiment per invocation; this module
turns the repo into something that *serves* experiment traffic.  A
:class:`ExperimentService` owns a FIFO job queue drained by background
worker threads; each job is a full :func:`repro.experiments.run_experiment`
or :func:`repro.sweeps.run_sweep` call, which internally fans its cells out
over the existing :class:`~concurrent.futures.ProcessPoolExecutor`
(``workers=N``) and reads/writes the shared content-addressed
:class:`~repro.results.ResultCache` — so repeated or overlapping requests
cost simulation time only for cells never seen before.

Two layers of deduplication keep a busy service cheap:

* **in-flight jobs** — submitting a request whose canonical job key (kind +
  normalized params) matches a queued or running job returns *that* job's
  id (``deduped: true``) instead of queueing a second copy;
* **finished cells** — a genuinely new job still hits the result cache per
  cell, so only the changed axis values simulate.

The HTTP front end is stdlib-only (:class:`http.server.ThreadingHTTPServer`
— request handling must not block on a running simulation, and the sub-ms
JSON responses don't need more):

=============================  =============================================
endpoint                       meaning
=============================  =============================================
``POST /submit``               body ``{"kind": "experiment"|"sweep",
                               "params": {...}}`` → job id (deduped or new)
``GET /status/<job>``          queue position / running / done / failed
``GET /result/<job>``          the finished report — *verbatim*
                               ``Report.to_dict()``, so clients round-trip
                               it through ``from_dict`` (schema-versioned)
``GET /cache/stats``           result-cache traffic + on-disk usage + job
                               counts
``GET /jobs``                  retained jobs, newest last (finished jobs
                               beyond the retention cap are pruned)
``GET /healthz``               liveness probe
=============================  =============================================

Job params are validated against the library signatures' allowlist before
queueing, so a typo'd key fails the submit with HTTP 400 instead of a
worker-thread crash an hour later.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import queue
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from .. import envvars
from ..errors import ConfigurationError, ReproError
from ..experiments import run_experiment
from ..experiments.cells import resolve_workers
from ..results import ResultCache, as_result_cache
from ..sim.backends import get_backend
from ..sweeps import run_sweep

#: Request kinds the service accepts, mapped to their driver below.
JOB_KINDS: Tuple[str, ...] = ("experiment", "sweep")

#: Finished (done/failed) jobs kept queryable; older ones are pruned as new
#: jobs finish, so a long-running service's job table cannot grow without
#: bound (reports are a few KB each and used to accumulate forever).
#: Queued and running jobs are never pruned.  Overridable per deployment
#: via ``REPRO_SERVE_RETAINED_JOBS`` or the constructor argument.  Declared
#: in :mod:`repro.envvars`; this alias keeps the historical import working.
DEFAULT_RETAINED_JOBS = 256
RETAINED_JOBS_ENV_VAR = envvars.SERVE_RETAINED_JOBS.name


def _resolve_retained_jobs(retained_jobs: Optional[int]) -> int:
    if retained_jobs is None:
        raw = envvars.SERVE_RETAINED_JOBS.read()
        if raw is None:
            return DEFAULT_RETAINED_JOBS
        try:
            retained_jobs = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{RETAINED_JOBS_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if retained_jobs < 1:
        raise ConfigurationError(
            f"the service must retain at least one finished job, got {retained_jobs}"
        )
    return retained_jobs

#: Params a client may set per request.  Execution policy (workers, caches,
#: backend, chunk_blocks) belongs to the deployment, not the request —
#: results are invariant to it, and letting clients choose it would just
#: let one request hog the pool.
EXPERIMENT_PARAM_KEYS = frozenset(
    {
        "system",
        "scale",
        "workloads",
        "engines",
        "num_cores",
        "blocks_per_core",
        "seed",
        "history_entries",
        "llc_kb_per_core",
    }
)
SWEEP_PARAM_KEYS = frozenset(
    {
        "axis",
        "values",
        "system",
        "scale",
        "workloads",
        "num_cores",
        "blocks_per_core",
        "seed",
    }
)

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"


def job_key(kind: str, params: Dict[str, object]) -> str:
    """Canonical content key of one request (the dedupe key)."""
    payload = json.dumps(
        {"kind": kind, "params": params}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def validate_request(kind: str, params: Dict[str, object]) -> None:
    """Reject malformed submissions before they reach the queue."""
    if kind not in JOB_KINDS:
        raise ConfigurationError(f"unknown job kind {kind!r}; known: {', '.join(JOB_KINDS)}")
    if not isinstance(params, dict):
        raise ConfigurationError("params must be a JSON object")
    allowed = EXPERIMENT_PARAM_KEYS if kind == "experiment" else SWEEP_PARAM_KEYS
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown {kind} params {unknown}; allowed: {', '.join(sorted(allowed))}"
        )
    if kind == "sweep" and "axis" not in params:
        raise ConfigurationError("a sweep request needs an 'axis' param")


@dataclass
class Job:
    """One queued/running/finished request."""

    id: str
    kind: str
    params: Dict[str, object]
    key: str
    status: str = QUEUED
    error: Optional[str] = None
    #: The finished report as its verbatim ``to_dict()`` payload.
    report: Optional[Dict[str, object]] = None
    #: Result-cache traffic of this job's run (None when the cache is off).
    cache_stats: Optional[Dict[str, int]] = None

    def summary(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "job": self.id,
            "kind": self.kind,
            "params": self.params,
            "status": self.status,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.cache_stats is not None:
            payload["result_cache"] = self.cache_stats
        return payload


class ExperimentService:
    """The job queue + worker threads behind the HTTP endpoints.

    Usable directly from python (the HTTP layer is a thin shell), which is
    how the tests drive it deterministically.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        trace_cache: Optional[str] = None,
        result_cache: "ResultCache | str | None" = None,
        backend: Optional[str] = None,
        chunk_blocks: Optional[int] = None,
        job_threads: int = 1,
        retained_jobs: Optional[int] = None,
    ) -> None:
        if job_threads < 1:
            raise ConfigurationError("the service needs at least one job thread")
        # Resolve every execution setting now: a bad one must stop the
        # service at startup, not fail each job it accepts.
        resolve_workers(workers)
        self._workers = workers
        self._backend = get_backend(backend).name
        if self._backend == "numpy":
            from ..sim.backends.numpy_backend import memo_max

            memo_max()
        self._trace_cache = trace_cache
        self._result_cache = as_result_cache(result_cache)
        self._chunk_blocks = chunk_blocks
        self._job_threads = job_threads
        self._retained_jobs = _resolve_retained_jobs(retained_jobs)
        self._jobs: Dict[str, Job] = {}
        self._by_key: Dict[str, str] = {}
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._threads: List[threading.Thread] = []
        self._started = False

    @property
    def result_cache(self) -> Optional[ResultCache]:
        return self._result_cache

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the job threads (idempotent, safe to race with itself).

        The started-flag check and the thread bookkeeping happen under
        ``self._lock``: two concurrent ``start()`` calls (e.g. a CLI and a
        health-check hook both poking the service) must spawn exactly
        ``job_threads`` workers, not two full sets.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            # Starting under the lock is safe (a fresh worker blocks on
            # queue.get, not the lock) and means a racing stop() can never
            # snapshot a thread that has not been started yet.
            for index in range(self._job_threads):
                thread = threading.Thread(
                    target=self._work, name=f"repro-serve-job-{index}", daemon=True
                )
                thread.start()
                self._threads.append(thread)

    def stop(self) -> None:
        """Drain-free shutdown: workers exit after their current job.

        The flag flip and the thread-list snapshot happen under
        ``self._lock``, but the joins must not: workers acquire the same
        lock to publish job results, so joining while holding it would
        deadlock against any worker mid-job.
        """
        with self._lock:
            if not self._started:
                return
            self._started = False
            threads = list(self._threads)
            self._threads.clear()
        for _ in threads:
            self._queue.put(None)
        for thread in threads:
            thread.join(timeout=30)

    # -- submission and queries -------------------------------------------

    def submit(self, kind: str, params: Dict[str, object]) -> Tuple[Job, bool]:
        """Queue a request (or return the in-flight duplicate).

        Returns ``(job, deduped)``.  Dedupe only matches *queued or
        running* jobs: finished jobs stay queryable but a resubmission gets
        a fresh job, whose cells then hit the result cache anyway.
        """
        validate_request(kind, params)
        key = job_key(kind, params)
        with self._lock:
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.status in (QUEUED, RUNNING):
                    return existing, True
            job = Job(id=f"job-{next(self._ids)}", kind=kind, params=params, key=key)
            self._jobs[job.id] = job
            self._by_key[key] = job.id
        self._queue.put(job.id)
        return job, False

    def job(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def job_counts(self) -> Dict[str, int]:
        counts = {status: 0 for status in (QUEUED, RUNNING, DONE, FAILED)}
        for job in self.jobs():
            counts[job.status] += 1
        return counts

    def cache_stats(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"jobs": self.job_counts()}
        if self._result_cache is None:
            payload["result_cache"] = None
        else:
            payload["result_cache"] = {
                **self._result_cache.stats(),
                **self._result_cache.usage(),
                "directory": str(self._result_cache.directory),
            }
        return payload

    # -- execution ---------------------------------------------------------

    def _work(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                job.status = RUNNING
            try:
                report = self._run(job)
                with self._lock:
                    job.report = report.to_dict()
                    job.cache_stats = report.result_cache_stats
                    job.status = DONE
                    self._prune_finished_locked()
            except ReproError as error:
                with self._lock:
                    job.error = str(error)
                    job.status = FAILED
                    self._prune_finished_locked()
            except Exception as error:  # noqa: BLE001 - a job must never kill its worker
                with self._lock:
                    job.error = f"{type(error).__name__}: {error}"
                    job.status = FAILED
                    self._prune_finished_locked()

    def _prune_finished_locked(self) -> None:
        """Drop the oldest finished jobs beyond the retention cap.

        Caller holds ``self._lock``.  ``_jobs`` is insertion-ordered, so
        iteration order is submission order — the evicted jobs are the
        oldest finished ones, and ``/jobs`` stays newest-last.  A dedupe
        key is forgotten only when it still points at the evicted job, so
        in-flight dedupe (queued/running jobs, never pruned) is unaffected.
        """
        finished = [job for job in self._jobs.values() if job.status in (DONE, FAILED)]
        for job in finished[: max(0, len(finished) - self._retained_jobs)]:
            del self._jobs[job.id]
            if self._by_key.get(job.key) == job.id:
                del self._by_key[job.key]

    def _run(self, job: Job):
        common = dict(
            workers=self._workers,
            trace_cache=self._trace_cache,
            result_cache=self._result_cache,
            backend=self._backend,
            chunk_blocks=self._chunk_blocks,
        )
        params = dict(job.params)
        if job.kind == "experiment":
            return run_experiment(**params, **common)
        if params.get("values") is not None and params.get("axis") == "consolidation":
            params["values"] = [tuple(mix) for mix in params["values"]]
        return run_sweep(**params, **common)


# ---------------------------------------------------------------------------
# HTTP layer


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the attached :class:`ExperimentService`."""

    service: ExperimentService  # set by make_server on the subclass
    quiet = True

    #: Submissions beyond this size are rejected outright (a params dict is
    #: a few hundred bytes; anything larger is a mistake or abuse).
    MAX_BODY_BYTES = 1 << 20

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if not self.quiet:  # pragma: no cover - debugging aid
            super().log_message(format, *args)

    def _send(self, code: int, payload: Dict[str, object]) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        service = self.service
        path = self.path.rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, {"status": "ok"})
        elif path == "/cache/stats":
            self._send(200, service.cache_stats())
        elif path == "/jobs":
            self._send(200, {"jobs": [job.summary() for job in service.jobs()]})
        elif path.startswith("/status/"):
            self._job_response(path[len("/status/") :], want_result=False)
        elif path.startswith("/result/"):
            self._job_response(path[len("/result/") :], want_result=True)
        else:
            self._send(404, {"error": f"unknown endpoint {self.path!r}"})

    def _job_response(self, job_id: str, want_result: bool) -> None:
        job = self.service.job(job_id)
        if job is None:
            self._send(404, {"error": f"unknown job {job_id!r}"})
            return
        if not want_result:
            self._send(200, job.summary())
            return
        if job.status == DONE:
            payload = job.summary()
            payload["report"] = job.report
            self._send(200, payload)
        elif job.status == FAILED:
            self._send(500, job.summary())
        else:
            self._send(409, {**job.summary(), "error": "job has not finished"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") != "/submit":
            self._send(404, {"error": f"unknown endpoint {self.path!r}"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > self.MAX_BODY_BYTES:
            self._send(400, {"error": "submit needs a JSON body"})
            return
        try:
            request = json.loads(self.rfile.read(length))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            kind = request.get("kind", "experiment")
            params = request.get("params", {})
            job, deduped = self.service.submit(kind, params)
        except (ValueError, ConfigurationError) as error:
            self._send(400, {"error": str(error)})
            return
        self._send(200, {**job.summary(), "deduped": deduped, "key": job.key})


def make_server(
    host: str,
    port: int,
    service: ExperimentService,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` and routing to ``service``.

    ``port=0`` binds an ephemeral port (``server.server_address`` has the
    real one) — the tests' way of avoiding collisions.  The caller owns
    both lifecycles: ``service.start()`` before serving,
    ``service.stop()``/``server.shutdown()`` after.
    """
    handler = type("BoundHandler", (_Handler,), {"service": service, "quiet": quiet})
    return ThreadingHTTPServer((host, port), handler)


__all__ = [
    "DEFAULT_RETAINED_JOBS",
    "ExperimentService",
    "Job",
    "JOB_KINDS",
    "RETAINED_JOBS_ENV_VAR",
    "job_key",
    "validate_request",
    "make_server",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
]
