"""Cold-path end-to-end benchmark of the SHIFT reproduction.

    python3 perfbench/run.py --workload sweep-llc --seed 1 --seconds 30 --trace 0

Workloads (perfbench/README.md says why each was chosen):

``sweep-llc``
    fresh ``python -m repro sweeps --axis llc --backend numpy --check``
    processes;
``stream-chunked``
    fresh ``python -m repro experiments ... --chunk-blocks 1000 --backend
    numpy --check`` processes over 100k-block traces;
``serve-mixed``
    one ``python -m repro serve --backend numpy`` process driven by a
    seeded script of cold, duplicate, hit and overlapping requests.

The load is one closed-loop client with one request in flight; every
program process runs serially (no ``--workers``).  ``--seed`` fixes the
job list and ``--seconds`` its length (never the measured speed).  Every
report is byte-compared with a reference digest from ``refs.json``; any
failed check, non-zero exit, HTTP error or timeout is a failed operation.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``,
named and with the units listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers
import plans
import program

WORKLOADS = ("sweep-llc", "stream-chunked", "serve-mixed")
#: Lists every metric with its unit: ``end_to_end`` and ``per_layer``.
SPEC_PATH = program.ROOT / "BENCHMARK.json"

COLD_TIMEOUT_S = 90.0
LAUNCH_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 30.0
#: A run that has used this much time fails its remaining jobs instead of
#: starting them, so it always ends within the 180 s a run may take.
RUN_BUDGET_S = 160.0
#: Status polls are 1 ms apart: about a tenth of a result-cache hit.
POLL_S = 0.001
SETUP_LAUNCHES = 15
SERVE_SETUP_LAUNCHES = 11


class Tally:
    """Operations attempted and failed; each failure's reason goes to stderr."""

    def __init__(self, deadline: float) -> None:
        self.attempted = 0
        self.failed = 0
        self.deadline = deadline

    def record(self, what: str, errors: Sequence[str]) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(errors)}", file=sys.stderr)
        return not errors

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline


def sha256(text: bytes) -> str:
    return hashlib.sha256(text).hexdigest()


@dataclass
class Job:
    """One operation of a pass, as the client saw it."""

    name: str
    kind: str  # cold, or for serve also hit, mixed or dup
    fetches: int
    start_ns: int = 0
    end_ns: int = 0
    maxrss_mb: float = 0.0
    errors: List[str] = field(default_factory=list)
    spans: Optional[Path] = None
    # serve only
    serve_job: str = ""
    submit_s: float = 0.0
    result_fetch_s: float = 0.0
    polls: int = 0
    rss_after_mb: float = 0.0
    result: Optional[dict] = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


@dataclass
class Pass:
    """Every job of one pass over a workload's job list."""

    jobs: List[Job]
    phase_s: float
    peak_rss_mb: float
    setup_s: List[float] = field(default_factory=list)
    server_spans: Optional[Path] = None

    def of(self, *kinds: str) -> List[Job]:
        return [job for job in self.jobs if job.kind in kinds]

    def latencies(self, *kinds: str) -> List[float]:
        return [job.wall_s for job in self.of(*kinds) if not job.errors]


def repro_argv(args: Sequence[str], spans: Optional[Path], job: str) -> List[str]:
    """``python -m repro ...``, or the traced stand-in writing ``spans``."""
    if spans is None:
        return program.python_argv(args)
    return [sys.executable, str(program.BENCH_DIR / "tracer.py"),
            "--spans", str(spans), "--job", job, "--", *args]


# ---------------------------------------------------------------------------
# batch workloads


@dataclass(frozen=True)
class BatchSpec:
    pool: Tuple[int, ...]
    cold_s: float
    fetches: int
    argv: Callable[[int, str], List[str]]
    ref: Callable[[dict, int], str]
    #: What a job imports before it can take work (the setup_s launches).
    imports: Tuple[str, ...]


BATCH = {
    "sweep-llc": BatchSpec(
        pool=plans.SWEEP_SEEDS,
        cold_s=plans.SWEEP_COLD_S,
        fetches=plans.sweep_fetches(),
        argv=plans.sweep_argv,
        ref=lambda refs, seed: refs["sweep-llc"][str(seed)],
        imports=("repro.__main__", "repro.sweeps.__main__", "repro.sim.backends.numpy_backend"),
    ),
    "stream-chunked": BatchSpec(
        pool=plans.STREAM_SEEDS,
        cold_s=plans.STREAM_COLD_S,
        fetches=plans.stream_fetches(),
        argv=plans.stream_argv,
        ref=lambda refs, seed: refs["stream-chunked"][f"{plans.STREAM_BLOCKS}@{seed}"],
        imports=("repro.__main__", "repro.experiments.__main__",
                 "repro.sim.backends.numpy_backend"),
    ),
}


def check_batch(job: Job, exit_: program.Exit, out: Path, json_path: Path, ref: str) -> None:
    """Exit code, the ``--check`` verdict and the report's bytes."""
    if exit_.timed_out:
        job.errors.append("timed out")
        return
    if exit_.code != 0:
        job.errors.append(f"exit code {exit_.code} (see {out.with_suffix('.err').name})")
        return
    if "paper ordering holds" not in out.read_text():
        job.errors.append("no --check verdict printed")
    if not json_path.is_file():
        job.errors.append("no report written")
    elif sha256(json_path.read_bytes()) != ref:
        job.errors.append("report differs from its reference")


def batch_passes(name: str, seeds: Sequence[int], modes: Sequence[Tuple[Path, bool]],
                 tally: Tally, refs: dict, before: Callable[[int], None] = lambda _: None,
                 ) -> List[Pass]:
    """One cold job per program seed, each in a fresh process with no cache.

    ``modes`` lists one (work directory, traced) pair per pass.  With a
    plain and a traced pass, each job runs in both back to back, in
    alternating order, so both passes see the same machine and their
    difference is the tracing overhead.  ``before(position)`` runs before
    each job; its time is left out of the timed phase.
    """
    spec = BATCH[name]
    pending: List[list] = [[] for _ in modes]
    phase_start = time.monotonic_ns()
    interludes_ns = 0
    for position, seed in enumerate(seeds):
        interlude_start = time.monotonic_ns()
        before(position)
        interludes_ns += time.monotonic_ns() - interlude_start
        order = range(len(modes)) if position % 2 == 0 else reversed(range(len(modes)))
        for mode in order:
            work, traced = modes[mode]
            job = Job(name=f"cold-{position}", kind="cold", fetches=spec.fetches)
            if tally.out_of_time():
                job.errors.append("not started: run time budget spent")
                pending[mode].append((job, None))
                continue
            out = work / f"{job.name}.out"
            json_path = work / f"{job.name}.json"
            job.spans = work / f"{job.name}.spans.json" if traced else None
            exit_ = program.run(repro_argv(spec.argv(seed, str(json_path)), job.spans, job.name),
                                COLD_TIMEOUT_S, out)
            job.start_ns, job.end_ns = exit_.start_ns, exit_.end_ns
            job.maxrss_mb = exit_.maxrss_mb
            pending[mode].append((job, (exit_, out, json_path, spec.ref(refs, seed))))
    phase_s = (time.monotonic_ns() - phase_start - interludes_ns) / 1e9
    passes = []
    for items in pending:
        for job, check in items:
            if check is not None:
                check_batch(job, *check)
            tally.record(f"{name} {job.name}", job.errors)
        jobs = [job for job, _ in items]
        passes.append(Pass(jobs=jobs, phase_s=phase_s,
                           peak_rss_mb=max((job.maxrss_mb for job in jobs), default=0.0)))
    return passes


def spread(launch: Callable[[], None], count: int, slots: int) -> Callable[[int], None]:
    """``before`` hook running ``launch`` ``count`` times, evenly over ``slots`` positions.

    Set-up launches are spread over the timed phase instead of run in one
    burst, so their median samples the same stretch of machine time as the
    jobs do.
    """
    at = Counter((number * slots) // count for number in range(count))

    def before(position: int) -> None:
        for _ in range(at[position]):
            launch()

    return before


def import_launch(modules: Sequence[str], samples: List[float], tally: Tally) -> None:
    """One fresh interpreter importing what a job imports before it can work."""
    exit_ = program.run([sys.executable, "-c", "import " + ", ".join(modules)], LAUNCH_TIMEOUT_S)
    if tally.record("setup launch", [] if exit_.ok else [f"exit {exit_.code}"]):
        samples.append(exit_.wall_s)


def stream_short_job(seed: int, work: Path, tally: Tally, refs: dict) -> Optional[float]:
    """The 10k-block chunked job of the RSS slope; returns its peak RSS (MB)."""
    job = Job(name="short", kind="cold", fetches=plans.stream_fetches(plans.STREAM_SHORT_BLOCKS))
    out, json_path = work / "short.out", work / "short.json"
    args = plans.stream_argv(seed, str(json_path), blocks=plans.STREAM_SHORT_BLOCKS)
    exit_ = program.run(program.python_argv(args), COLD_TIMEOUT_S, out)
    check_batch(job, exit_, out, json_path,
                refs["stream-chunked"][f"{plans.STREAM_SHORT_BLOCKS}@{seed}"])
    return exit_.maxrss_mb if tally.record("stream-chunked short job", job.errors) else None


# ---------------------------------------------------------------------------
# serve-mixed


def serve_args(work: Path) -> List[str]:
    return ["serve", "--port", "0", "--backend", "numpy",
            "--result-cache", str(work / "results"), "--trace-cache", str(work / "traces")]


def run_request(server: program.Server, request: plans.Request,
                dup: Optional[plans.Request], job: Job, dup_job: Optional[Job]) -> None:
    """Submit, poll ``/status`` every :data:`POLL_S`, fetch ``/result``.

    A duplicate is submitted at once after the cold submit, while the cold
    job is queued or running, so it must come back ``deduped``.
    """
    body = {"kind": "experiment", "params": request.params()}
    job.start_ns = time.monotonic_ns()
    status, submitted = server.request("POST", "/submit", body)
    submit_end = time.monotonic_ns()
    job.submit_s = (submit_end - job.start_ns) / 1e9
    if status != 200:
        job.errors.append(f"submit answered {status}: {submitted}")
        job.end_ns = submit_end
        return
    job.serve_job = submitted["job"]
    if dup is not None:
        dup_job.start_ns = time.monotonic_ns()
        status, again = server.request("POST", "/submit", {"kind": "experiment",
                                                           "params": dup.params()})
        dup_job.end_ns = time.monotonic_ns()
        if status != 200 or again.get("deduped") is not True or again.get("job") != job.serve_job:
            dup_job.errors.append(f"duplicate submit was not deduped: {status} {again}")
    deadline = job.start_ns + int(COLD_TIMEOUT_S * 1e9)
    while True:
        status, summary = server.request("GET", f"/status/{job.serve_job}")
        job.polls += 1
        if status != 200:
            job.errors.append(f"status answered {status}: {summary}")
            break
        if summary.get("status") in ("done", "failed"):
            break
        if time.monotonic_ns() > deadline:
            job.errors.append("timed out waiting for the job")
            break
        time.sleep(POLL_S)
    fetch_start = time.monotonic_ns()
    status, result = server.request("GET", f"/result/{job.serve_job}")
    job.end_ns = time.monotonic_ns()
    job.result_fetch_s = (job.end_ns - fetch_start) / 1e9
    if status != 200:
        job.errors.append(f"result answered {status}: {result}")
        return
    job.result = result


def check_served(job: Job, request: plans.Request, refs: dict) -> None:
    """The job's class from its result-cache counts, and its report's bytes."""
    result = job.result
    if job.errors or result is None:
        return
    cells = len(request.workloads) * plans.ENGINES
    # A mixed request's first two workloads are the cold pair's cells.
    hit = {"cold": 0, "mixed": 2 * plans.ENGINES, "hit": cells}[request.kind]
    expect = {"hits": hit, "misses": cells - hit, "stored": cells - hit}
    if result.get("status") != "done":
        job.errors.append(f"job ended {result.get('status')}: {result.get('error')}")
    counts = result.get("result_cache") or {}
    if {key: counts.get(key) for key in expect} != expect:
        job.errors.append(f"result cache {counts}, a {request.kind} job expects {expect}")
    report = json.dumps(result.get("report"), sort_keys=True, indent=2).encode()
    if sha256(report) != refs["serve-mixed"][plans.ref_key(request.workloads, request.seed)]:
        job.errors.append("report differs from its reference")


def serve_passes(script: List[plans.Request], modes: Sequence[Tuple[Path, bool]],
                 tally: Tally, refs: dict, before: Callable[[int], None] = lambda _: None,
                 ) -> List[Pass]:
    """One server per pass for the whole script; fresh trace and result caches.

    ``modes`` lists one (work directory, traced) pair per pass.  With a
    plain and a traced server, each request goes to both in turn, in
    alternating order, so both passes see the same machine.
    ``before(position)`` runs before each request (a cold request and its
    duplicate are one position), while every server is idle; its time is
    left out of the timed phase.
    """
    servers = [program.Server(repro_argv(serve_args(work), _server_spans(work, traced), "server"),
                              work / "server.err", timeout=HTTP_TIMEOUT_S)
               for work, traced in modes]
    jobs: List[List[Job]] = [[] for _ in modes]
    served: List[Tuple[Job, plans.Request]] = []
    phase_start = phase_end = 0
    exits: List[Optional[program.Exit]] = []
    try:
        for server in servers:
            server.start()
        phase_start = time.monotonic_ns()
        index = position = interludes_ns = 0
        while index < len(script):
            interlude_start = time.monotonic_ns()
            before(position)
            interludes_ns += time.monotonic_ns() - interlude_start
            position += 1
            request = script[index]
            # serve_script puts each cold request's duplicate right after it.
            dup = script[index + 1] if request.kind == "cold" else None
            order = range(len(modes)) if index % 2 == 0 else reversed(range(len(modes)))
            for mode in order:
                server, (_work, traced) = servers[mode], modes[mode]
                job = Job(name=f"{request.kind}-{index}", kind=request.kind,
                          fetches=plans.experiment_fetches(request.workloads))
                dup_job = Job(name=f"dup-{index + 1}", kind="dup", fetches=0) if dup else None
                if tally.out_of_time():
                    job.errors.append("not started: run time budget spent")
                else:
                    try:
                        run_request(server, request, dup, job, dup_job)
                    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
                        job.errors.append(f"{type(error).__name__}: {error}")
                        job.end_ns = job.end_ns or time.monotonic_ns()
                if dup_job is not None and not dup_job.end_ns:
                    dup_job.errors.append("duplicate not submitted")
                if request.kind == "cold" and not job.errors and not traced:
                    job.rss_after_mb = server.rss_mb()
                jobs[mode].append(job)
                served.append((job, request))
                if dup_job is not None:
                    jobs[mode].append(dup_job)
            index += 2 if dup else 1
        phase_end = time.monotonic_ns() - interludes_ns
    except (OSError, http.client.HTTPException, RuntimeError) as error:
        print(f"FAILED serve-mixed server: {error}", file=sys.stderr)
    finally:
        exits = [server.stop() for server in servers]
    for job, request in served:
        check_served(job, request, refs)
    passes = []
    for mode, (work, traced) in enumerate(modes):
        for job in jobs[mode]:
            tally.record(f"serve-mixed {job.name}", job.errors)
        for _ in range(len(script) - len(jobs[mode])):
            tally.record("serve-mixed request", ["not run: a server failed"])
        exit_ = exits[mode]
        if exit_ is None or exit_.timed_out:
            tally.record("serve-mixed server exit", ["server did not stop on SIGINT"])
        passes.append(Pass(jobs=jobs[mode], phase_s=max(0.0, (phase_end - phase_start) / 1e9),
                           peak_rss_mb=exit_.maxrss_mb if exit_ else 0.0,
                           setup_s=[servers[mode].setup_s] if servers[mode].setup_s else [],
                           server_spans=_server_spans(work, traced)))
    return passes


def _server_spans(work: Path, traced: bool) -> Optional[Path]:
    return work / "server.spans.json" if traced else None


def serve_launch(work: Path, samples: List[float], tally: Tally) -> None:
    """One launch-to-``/healthz`` time of a server that is stopped at once."""
    launch = Path(tempfile.mkdtemp(prefix="launch-", dir=work))
    server = program.Server(program.python_argv(serve_args(launch)),
                            launch / "server.err", timeout=HTTP_TIMEOUT_S)
    errors = []
    try:
        server.start()
        samples.append(server.setup_s)
    except (OSError, http.client.HTTPException, RuntimeError) as error:
        errors.append(str(error))
    finally:
        exit_ = server.stop()
    if exit_ is None or exit_.timed_out:
        errors.append("server did not stop on SIGINT")
    tally.record("serve setup launch", errors)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(one: Pass) -> Dict[str, float]:
    reported = [job for job in one.jobs if job.kind != "dup" and not job.errors]
    cold = one.latencies("cold")
    return {
        "setup_s": statistics.median(one.setup_s) if one.setup_s else 0.0,
        "fetches_per_s": sum(job.fetches for job in reported) / one.phase_s if one.phase_s else 0.0,
        "cold_job_p50_s": statistics.median(cold) if cold else 0.0,
        "peak_rss_mb": one.peak_rss_mb,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            tally: Tally, refs: dict) -> Dict[str, float]:
    plain = [(work / "plain", False)]
    both = plain + [(work / "traced", True)]
    setup: List[float] = []
    if workload == "serve-mixed":
        script = plans.serve_script(seed, seconds)
        if trace:
            untraced, traced = serve_passes(script, both, tally, refs)
            return layers.serve_layers(untraced, traced)
        requests = sum(1 for request in script if request.kind != "dup")
        before = spread(lambda: serve_launch(work / "setup", setup, tally),
                        SERVE_SETUP_LAUNCHES, requests)
        (untraced,) = serve_passes(script, plain, tally, refs, before)
    else:
        spec = BATCH[workload]
        seeds = plans.batch_seeds(spec.pool, seed, seconds, spec.cold_s)
        if trace:
            untraced, traced = batch_passes(workload, seeds, both, tally, refs)
            short_rss = None
            if workload == "stream-chunked":
                short_rss = stream_short_job(seeds[0], work / "plain", tally, refs)
            return layers.batch_layers(untraced, traced, short_rss)
        before = spread(lambda: import_launch(spec.imports, setup, tally),
                        SETUP_LAUNCHES, len(seeds))
        (untraced,) = batch_passes(workload, seeds, plain, tally, refs, before)
    untraced.setup_s += setup
    return end_to_end(untraced)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="cold-path end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="nominal length of the timed phase; sizes the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    # A terminated run still stops and reaps its program processes (the
    # ``finally`` blocks around every child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    if not program.program_available():
        print(f"error: the program's sources are not at {program.SRC}", file=sys.stderr)
        return 2
    for path in (plans.REFS_PATH, SPEC_PATH):
        if not path.is_file():
            print(f"error: {path} is missing", file=sys.stderr)
            return 2
    refs = json.loads(plans.REFS_PATH.read_text())
    section = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    tally = Tally(deadline=started + RUN_BUDGET_S)
    work = program.BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    for sub in ("setup", "plain", "traced"):
        (work / sub).mkdir()
    try:
        # Compile the program's bytecode before anything is timed.
        prime = program.run([sys.executable, "-c", "import repro.__main__, repro.serve, "
                             "repro.sweeps.__main__, repro.experiments.__main__, "
                             "repro.sim.backends.numpy_backend"], LAUNCH_TIMEOUT_S)
        if not prime.ok:
            print(f"error: the program does not import (exit {prime.code})", file=sys.stderr)
            return 2
        values = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         work, tally, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} are not all "
              f"listed in {SPEC_PATH.name}, or listed ones were not measured", file=sys.stderr)
        return 2
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
