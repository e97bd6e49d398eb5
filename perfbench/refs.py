"""Record the reference report digests the benchmark checks every job against.

Each reference takes a code path that does not share the one under test:

* ``sweep-llc`` jobs run the numpy backend; the reference is the same
  sweep on the python backend;
* ``stream-chunked`` jobs stream 1,000-block windows on numpy; the
  reference is the monolithic run on the python backend;
* ``serve-mixed`` jobs go through the HTTP service, its job queue and the
  result cache; the reference is a direct ``run_experiment`` call with the
  same params on the python backend, no cache.

The references take about ten minutes of one core, far too long for a
benchmark run, so their SHA-256 digests are recorded in ``refs.json`` for
every program seed in the pools of ``plans.py``.  Re-record them only when
the program's reports are meant to change::

    python3 perfbench/refs.py [--jobs 2]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

import plans
import program

TIMEOUT_S = 600.0

#: Runs in a fresh interpreter: one direct run_experiment per request, one
#: digest line per report.
_DIRECT = """
import hashlib, json, sys
from repro import run_experiment
for workloads, seed in json.loads(sys.argv[1]):
    text = run_experiment(workloads=workloads, seed=seed, backend="python").to_json()
    print(json.dumps([workloads, seed, hashlib.sha256(text.encode()).hexdigest()]))
"""


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _batch(name: str, args: List[str], out: Path) -> Tuple[str, str]:
    exit_ = program.run(program.python_argv(args), TIMEOUT_S, out.with_suffix(".log"))
    if not exit_.ok:
        raise RuntimeError(f"reference {name} failed with exit {exit_.code}")
    return name, digest(out)


def _direct(requests: List[Tuple[List[str], int]], out: Path) -> Dict[str, str]:
    argv = [sys.executable, "-c", _DIRECT, json.dumps(requests)]
    exit_ = program.run(argv, TIMEOUT_S, out)
    if not exit_.ok:
        raise RuntimeError(f"direct references failed with exit {exit_.code}")
    refs = {}
    for line in out.read_text().splitlines():
        workloads, seed, sha = json.loads(line)
        refs[plans.ref_key(workloads, seed)] = sha
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1, help="reference processes at once")
    args = parser.parse_args(argv)
    if not program.program_available():
        print("error: the program's sources (src/repro) are not here", file=sys.stderr)
        return 2
    refs: Dict[str, Dict[str, str]] = {"sweep-llc": {}, "stream-chunked": {}, "serve-mixed": {}}
    with tempfile.TemporaryDirectory(dir=program.BENCH_DIR, prefix=".refs-") as tmp:
        work = Path(tmp)
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            futures = []
            for seed in plans.SWEEP_SEEDS:
                out = work / f"sweep-{seed}.json"
                args_ = plans.sweep_argv(seed, str(out), backend="python")
                futures.append(("sweep-llc", pool.submit(_batch, str(seed), args_, out)))
            for seed in plans.STREAM_SEEDS:
                for blocks in (plans.STREAM_BLOCKS, plans.STREAM_SHORT_BLOCKS):
                    out = work / f"stream-{blocks}-{seed}.json"
                    args_ = plans.stream_argv(seed, str(out), blocks=blocks, chunk=None,
                                              backend="python")
                    futures.append(("stream-chunked",
                                    pool.submit(_batch, f"{blocks}@{seed}", args_, out)))
            for seed in plans.SERVE_SEEDS:
                requests = []
                for index in range(len(plans.SUITE)):
                    requests.append((list(plans.serve_pair(index)), seed))
                    requests.append((list(plans.serve_triple(index)), seed))
                out = work / f"serve-{seed}.jsonl"
                futures.append(("serve-mixed", pool.submit(_direct, requests, out)))
            for workload, future in futures:
                result = future.result()
                if isinstance(result, dict):
                    refs[workload].update(result)
                else:
                    name, sha = result
                    refs[workload][name] = sha
                print(f"{workload}: {len(refs[workload])} references", flush=True)
    plans.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {plans.REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
