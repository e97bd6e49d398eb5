"""Seeded job plans shared by the benchmark (run.py) and its references (refs.py).

Every program input the benchmark uses is drawn from the fixed seed pools
below, so each one has a reference digest recorded in ``refs.json``.  A
benchmark ``--seed`` picks which pool members a run uses and in what order;
``--seconds`` picks how many jobs it runs.  Neither depends on how fast the
program is, so a run's job list, its RSS and its per-class sample counts
are the same on every machine.

The seven names are the program's workload suite, in suite order; the
benchmark process stays stdlib-only and never imports the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: SHA-256 digests of every reference report, keyed by workload (see refs.py).
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

SUITE: Tuple[str, ...] = (
    "oltp_db2",
    "oltp_oracle",
    "dss_qry2",
    "dss_qry17",
    "media_streaming",
    "web_frontend",
    "web_search",
)

#: Program seeds with recorded references, per workload.
SWEEP_SEEDS: Tuple[int, ...] = tuple(range(1, 9))
STREAM_SEEDS: Tuple[int, ...] = tuple(range(1, 9))
SERVE_SEEDS: Tuple[int, ...] = tuple(range(1, 8))

#: Program defaults the fetch counts rest on: the scaled system traces 16
#: cores of 120,000 // 16 = 7,500 blocks, and compares four engines.
DEFAULT_CORES = 16
DEFAULT_BLOCKS = 7_500
ENGINES = 4
LLC_POINTS = 5

STREAM_WORKLOAD = "oltp_db2"
STREAM_CORES = 4
STREAM_BLOCKS = 100_000
#: The short chunked job of the traced run: the RSS slope's other end.
STREAM_SHORT_BLOCKS = 10_000
STREAM_CHUNK = 1_000

#: Nominal cold-job costs on a 2-core VM (s), used only to size a run's job
#: list from ``--seconds``; the list never depends on measured speed.
SWEEP_COLD_S = 7.0
STREAM_COLD_S = 4.8
SERVE_ROUND_S = 3.2
SERVE_HITS_PER_ROUND = 15


def sweep_argv(seed: int, json_path: str, backend: str = "numpy") -> List[str]:
    """The paper's Sec. 5.4 command."""
    return [
        "sweeps", "--axis", "llc", "--backend", backend, "--seed", str(seed),
        "--check", "--json", json_path,
    ]


def stream_argv(
    seed: int,
    json_path: str,
    blocks: int = STREAM_BLOCKS,
    chunk: Optional[int] = STREAM_CHUNK,
    backend: str = "numpy",
) -> List[str]:
    """The out-of-core chunked experiment (``chunk=None`` is monolithic)."""
    argv = [
        "experiments", "--workloads", STREAM_WORKLOAD, "--cores", str(STREAM_CORES),
        "--blocks", str(blocks), "--backend", backend, "--seed", str(seed),
        "--check", "--json", json_path,
    ]
    if chunk is not None:
        argv += ["--chunk-blocks", str(chunk)]
    return argv


def sweep_fetches() -> int:
    return len(SUITE) * LLC_POINTS * ENGINES * DEFAULT_CORES * DEFAULT_BLOCKS


def stream_fetches(blocks: int = STREAM_BLOCKS) -> int:
    return ENGINES * STREAM_CORES * blocks


def experiment_fetches(workloads: Sequence[str]) -> int:
    return len(workloads) * ENGINES * DEFAULT_CORES * DEFAULT_BLOCKS


def batch_seeds(pool: Sequence[int], seed: int, seconds: float, cold_s: float) -> Tuple[int, ...]:
    """The program seeds of a batch run's cold jobs, in run order.

    Each job is a fresh process with no cache, so every job is cold.
    """
    rng = random.Random(f"batch:{seed}")
    count = max(2, min(len(pool), round(seconds / cold_s)))
    return tuple(rng.sample(list(pool), count))


@dataclass(frozen=True)
class Request:
    workloads: Tuple[str, ...]
    seed: int
    #: The class the script intends: ``cold``, ``dup``, ``hit`` or ``mixed``.
    kind: str

    def params(self) -> Dict[str, object]:
        return {"workloads": list(self.workloads), "seed": self.seed}


def serve_pair(index: int) -> Tuple[str, str]:
    return SUITE[index % len(SUITE)], SUITE[(index + 1) % len(SUITE)]


def serve_triple(index: int) -> Tuple[str, str, str]:
    return serve_pair(index) + (SUITE[(index + 2) % len(SUITE)],)


def serve_script(seed: int, seconds: float) -> List[Request]:
    """The closed-loop request script of one ``serve-mixed`` run.

    Round ``r`` submits the cold pair ``(w_i, w_i+1)`` at its own program
    seed and a duplicate of it that must dedupe, then repeats of finished
    pairs, then the triple ``(w_i, w_i+1, w_i+2)`` whose first two
    workloads hit, then repeats of finished triples.  A full run walks all
    seven pairs of the suite ring, each at a distinct seed, so every
    workload is in exactly two cold pairs and no two rounds share a cell;
    every run repeats pairs and triples equally often, so the seed changes
    which reports are re-served but not the size mix of the hit jobs.
    """
    rng = random.Random(f"serve:{seed}")
    rounds = max(2, min(len(SUITE), round(seconds / SERVE_ROUND_S)))
    pairs = rng.sample(range(len(SUITE)), rounds)
    seeds = rng.sample(list(SERVE_SEEDS), rounds)
    script: List[Request] = []
    cold_done: List[Request] = []
    mixed_done: List[Request] = []
    for index, program_seed in zip(pairs, seeds):
        cold = Request(serve_pair(index), program_seed, "cold")
        script += [cold, Request(cold.workloads, program_seed, "dup")]
        cold_done.append(cold)
        for _ in range(SERVE_HITS_PER_ROUND // 2):
            script.append(_repeat(rng.choice(cold_done)))
        mixed = Request(serve_triple(index), program_seed, "mixed")
        script.append(mixed)
        mixed_done.append(mixed)
        for _ in range(SERVE_HITS_PER_ROUND - SERVE_HITS_PER_ROUND // 2):
            script.append(_repeat(rng.choice(mixed_done)))
    return script


def _repeat(request: Request) -> Request:
    return Request(request.workloads, request.seed, "hit")


def ref_key(workloads: Sequence[str], seed: int) -> str:
    return f"{','.join(workloads)}@{seed}"
