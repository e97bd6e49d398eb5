"""End-to-end experiment drivers.

:func:`run_experiment` reproduces the paper's headline comparison: for every
workload in the suite it generates per-core fetch traces, simulates the
no-prefetch baseline and the next-line, PIF and SHIFT engines, and reports
L1-I miss coverage and speedup over the baseline.  The expected qualitative
result (Figures 6–7 of the paper) is SHIFT ≈ PIF ≫ next-line ≫ none on the
large-footprint server workloads.

Execution is cell-based (see :mod:`repro.experiments.cells`): every
(workload, engine) pair is an independent unit of work, run either serially
or fanned out over a process pool (``workers=N`` or ``REPRO_WORKERS=N``),
with an optional on-disk trace cache.  Reports are bit-identical across all
execution modes and JSON-round-trippable via
:meth:`ExperimentReport.to_dict` / :meth:`ExperimentReport.from_dict`.

Run it from the command line::

    python -m repro.experiments --system scaled --workers 4

"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim import Backend, SimulationResult
from ..sim.timing import weighted_speedup
from ..workloads.suite import WORKLOAD_NAMES
from .cells import CellSpec, execute_cells, system_for

#: Engines compared by the default experiment, in report order.
DEFAULT_ENGINES: Tuple[str, ...] = ("none", "next_line", "pif", "shift")

#: Serialization schema of :class:`ExperimentReport` /
#: :class:`~repro.sweeps.SweepReport` dicts.  Bump on any incompatible
#: layout change; ``from_dict`` rejects dicts tagged with another version.
#: Dicts without the tag (pre-schema files) are read as version 1.
REPORT_SCHEMA_VERSION = 1


def check_schema_version(data: Dict[str, object], what: str) -> None:
    """Reject serialized reports from an incompatible schema.

    The service returns report dicts verbatim and clients feed them back to
    ``from_dict``, so version skew must fail loudly, not half-parse.
    """
    version = data.get("schema_version", REPORT_SCHEMA_VERSION)
    if version != REPORT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{what} has schema_version {version!r}; this build reads "
            f"version {REPORT_SCHEMA_VERSION}"
        )


@dataclass
class EngineOutcome:
    """Coverage and speedup of one engine on one workload.

    ``storage_bytes_per_core`` is the engine's dedicated history storage
    (the denominator of the paper's ~14x SHIFT-vs-PIF reduction claim);
    ``llc_hit_ratio`` is the shared LLC's hit ratio over all instruction
    accesses, the Section 5.4 metric history virtualization must not
    perturb.
    """

    engine: str
    coverage: float
    speedup: float
    mpki: float
    prefetch_accuracy: float
    storage_bytes_per_core: int = 0
    llc_hit_ratio: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "coverage": self.coverage,
            "speedup": self.speedup,
            "mpki": self.mpki,
            "prefetch_accuracy": self.prefetch_accuracy,
            "storage_bytes_per_core": self.storage_bytes_per_core,
            "llc_hit_ratio": self.llc_hit_ratio,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineOutcome":
        return cls(
            engine=str(data["engine"]),
            coverage=float(data["coverage"]),
            speedup=float(data["speedup"]),
            mpki=float(data["mpki"]),
            prefetch_accuracy=float(data["prefetch_accuracy"]),
            storage_bytes_per_core=int(data.get("storage_bytes_per_core", 0)),
            llc_hit_ratio=float(data.get("llc_hit_ratio", 0.0)),
        )


@dataclass
class ExperimentRow:
    """All engine outcomes for one workload (or consolidation mix)."""

    workload: str
    baseline_mpki: float
    baseline_miss_ratio: float
    baseline_llc_hit_ratio: float = 0.0
    outcomes: Dict[str, EngineOutcome] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "baseline_mpki": self.baseline_mpki,
            "baseline_miss_ratio": self.baseline_miss_ratio,
            "baseline_llc_hit_ratio": self.baseline_llc_hit_ratio,
            "outcomes": {name: outcome.to_dict() for name, outcome in self.outcomes.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentRow":
        outcomes = {
            str(name): EngineOutcome.from_dict(outcome)
            for name, outcome in dict(data["outcomes"]).items()
        }
        return cls(
            workload=str(data["workload"]),
            baseline_mpki=float(data["baseline_mpki"]),
            baseline_miss_ratio=float(data["baseline_miss_ratio"]),
            baseline_llc_hit_ratio=float(data.get("baseline_llc_hit_ratio", 0.0)),
            outcomes=outcomes,
        )


@dataclass
class ExperimentReport:
    """The full comparison across the workload suite."""

    system_name: str
    rows: List[ExperimentRow] = field(default_factory=list)
    #: Input parameters of the run (seed, scale, engine list, ...), carried
    #: so serialized reports are self-describing.
    params: Dict[str, object] = field(default_factory=dict)
    #: Result-cache traffic of the run (hits/misses/stored), populated when
    #: ``run_experiment(result_cache=...)`` was given a cache.  Execution
    #: telemetry, not a result: deliberately excluded from ``to_dict`` and
    #: comparison so cached and uncached reports stay byte-identical.
    result_cache_stats: Optional[Dict[str, int]] = field(default=None, compare=False)

    def check_paper_ordering(self, tolerance: float = 0.10) -> List[str]:
        """Verify the paper's qualitative result on every row.

        Returns a list of violations (empty means the reproduction holds):
        SHIFT's coverage must be within ``tolerance`` (relative) of PIF's,
        and both must exceed next-line's.
        """
        violations: List[str] = []
        for row in self.rows:
            try:
                next_line = row.outcomes["next_line"]
                pif = row.outcomes["pif"]
                shift = row.outcomes["shift"]
            except KeyError:
                violations.append(f"{row.workload}: missing engine results")
                continue
            if shift.coverage < pif.coverage * (1.0 - tolerance):
                violations.append(
                    f"{row.workload}: SHIFT coverage {shift.coverage:.3f} more than "
                    f"{tolerance:.0%} below PIF's {pif.coverage:.3f}"
                )
            if pif.coverage <= next_line.coverage:
                violations.append(
                    f"{row.workload}: PIF coverage {pif.coverage:.3f} does not exceed "
                    f"next-line's {next_line.coverage:.3f}"
                )
            if shift.coverage <= next_line.coverage:
                violations.append(
                    f"{row.workload}: SHIFT coverage {shift.coverage:.3f} does not exceed "
                    f"next-line's {next_line.coverage:.3f}"
                )
        return violations

    def to_dict(self) -> Dict[str, object]:
        """The schema-tagged plain-dict form (what ``repro.serve`` returns)."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "system_name": self.system_name,
            "params": dict(self.params),
            "rows": [row.to_dict() for row in self.rows],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentReport":
        """Rebuild a report from :meth:`to_dict` (schema-version checked)."""
        check_schema_version(data, "experiment report")
        return cls(
            system_name=str(data["system_name"]),
            rows=[ExperimentRow.from_dict(row) for row in list(data["rows"])],
            params=dict(data.get("params", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON: sorted keys, fixed layout — byte-stable across
        serial and parallel execution for identical inputs."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        """Parse a report from its :meth:`to_json` serialization."""
        import json

        return cls.from_dict(json.loads(text))

    def save(self, path: "str | Path") -> None:
        """Write the canonical JSON form (plus trailing newline) to ``path``."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "ExperimentReport":
        """Read a report previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def _open_result_cache(result_cache):
    """Normalize the ``result_cache=`` argument and snapshot its counters,
    so a cache shared across runs (sweeps, the service) still yields
    per-run traffic stats."""
    from ..results import as_result_cache

    cache = as_result_cache(result_cache)
    return cache, (cache.stats() if cache is not None else None)


def _attach_cache_stats(report: "ExperimentReport", cache, before) -> None:
    if cache is None:
        return
    after = cache.stats()
    report.result_cache_stats = {key: after[key] - before[key] for key in after}


def _outcome_for(
    engine: str,
    result: SimulationResult,
    baseline: SimulationResult,
    sys_config,
) -> EngineOutcome:
    issued = sum(c.prefetches_issued for c in result.cores)
    useful = sum(c.prefetch_hits + c.late_hits for c in result.cores)
    return EngineOutcome(
        engine=engine,
        coverage=result.coverage_vs(baseline),
        speedup=weighted_speedup(result, baseline, sys_config),
        mpki=result.mpki,
        prefetch_accuracy=useful / issued if issued else 0.0,
        storage_bytes_per_core=result.storage_bytes_per_core,
        llc_hit_ratio=result.llc_hit_ratio,
    )


def _merge_report(
    system: str,
    sys_config,
    row_labels: Sequence[str],
    engines: Sequence[str],
    cells: Dict[Tuple[str, str], CellSpec],
    results: Dict[CellSpec, SimulationResult],
    params: Dict[str, object],
) -> ExperimentReport:
    """Deterministic merge: rows in label order, outcomes in engine order."""
    report = ExperimentReport(system_name=system, params=params)
    for label in row_labels:
        baseline = results[cells[(label, "none")]]
        row = ExperimentRow(
            workload=label,
            baseline_mpki=baseline.mpki,
            baseline_miss_ratio=baseline.miss_ratio,
            baseline_llc_hit_ratio=baseline.llc_hit_ratio,
        )
        for engine in engines:
            if engine == "none":
                continue
            result = results[cells[(label, engine)]]
            row.outcomes[engine] = _outcome_for(engine, result, baseline, sys_config)
        report.rows.append(row)
    return report


def run_experiment(
    system: str = "scaled",
    scale: int = 16,
    workloads: Optional[Sequence[str]] = None,
    engines: Sequence[str] = DEFAULT_ENGINES,
    num_cores: Optional[int] = None,
    blocks_per_core: Optional[int] = None,
    seed: int = 0,
    history_entries: Optional[int] = None,
    llc_kb_per_core: Optional[int] = None,
    workers: Optional[int] = None,
    trace_cache: "str | Path | None" = None,
    backend: "str | Backend | None" = None,
    chunk_blocks: Optional[int] = None,
    result_cache: "str | Path | object | None" = None,
) -> ExperimentReport:
    """Run the prefetcher comparison and return a report.

    ``system`` selects the paper-scale or shrunken configuration; workload
    footprints and prefetcher histories are shrunk by the same ``scale`` so
    the capacity ratios of the paper are preserved.  ``num_cores`` sizes
    the whole CMP (cores, LLC slices, mesh), not just the traced subset.
    ``history_entries`` overrides the paper-scale history budget of PIF and
    SHIFT (the storage sensitivity axis); ``llc_kb_per_core`` the
    paper-scale LLC slice size (the Section 5.4 axis).  ``workers > 1``
    fans the (workload, engine) cells out over a process pool;
    ``trace_cache`` names a directory where generated traces are shared
    between engines, processes and runs.  ``backend`` selects the
    simulation backend (``python`` / ``numpy`` or a
    :class:`~repro.sim.backends.Backend` instance; default
    ``REPRO_BACKEND`` or ``python``).  ``result_cache`` (a directory or a
    :class:`~repro.results.ResultCache`) skips simulation entirely for
    cells whose content-addressed result is already stored; the traffic
    counts land in :attr:`ExperimentReport.result_cache_stats`.
    ``chunk_blocks`` streams each core's trace through the engine in
    bounded windows for out-of-core runs (see ARCHITECTURE.md).  The
    report is bit-identical for every (workers, trace_cache, backend,
    chunk_blocks, result_cache) combination, which is why none of the
    five appear in the report params.
    """
    if llc_kb_per_core is not None and llc_kb_per_core < 1:
        raise ConfigurationError("llc_kb_per_core must be at least 1 KB per core")
    llc_bytes = llc_kb_per_core * 1024 if llc_kb_per_core is not None else None
    sys_config = system_for(system, scale, num_cores, llc_bytes)
    names = list(workloads) if workloads else list(WORKLOAD_NAMES)
    if "none" not in engines:
        raise ConfigurationError("the engine list must include the 'none' baseline")

    cells: Dict[Tuple[str, str], CellSpec] = {}
    order: List[CellSpec] = []
    for name in names:
        for engine in engines:
            cell = CellSpec(
                workload=name,
                engine=engine,
                system=system,
                scale=scale,
                seed=seed,
                num_cores=num_cores,
                blocks_per_core=blocks_per_core,
                history_entries=history_entries,
                llc_bytes_per_core=llc_bytes,
                backend=backend,
                chunk_blocks=chunk_blocks,
            )
            cells[(name, engine)] = cell
            order.append(cell)
    cache, before = _open_result_cache(result_cache)
    results = execute_cells(
        order,
        workers=workers,
        trace_cache_dir=str(trace_cache) if trace_cache is not None else None,
        chunksize=len(engines),
        result_cache=cache,
    )
    params: Dict[str, object] = {
        "system": system,
        "scale": scale,
        "seed": seed,
        "workloads": names,
        "engines": list(engines),
        "num_cores": num_cores,
        "blocks_per_core": blocks_per_core,
        "history_entries": history_entries,
        "llc_kb_per_core": llc_kb_per_core,
    }
    report = _merge_report(system, sys_config, names, engines, cells, results, params)
    _attach_cache_stats(report, cache, before)
    return report


def run_consolidated_experiment(
    mixes: Sequence[Sequence[str]],
    system: str = "scaled",
    scale: int = 16,
    engines: Sequence[str] = DEFAULT_ENGINES,
    num_cores: Optional[int] = None,
    blocks_per_core: Optional[int] = None,
    seed: int = 0,
    history_entries: Optional[int] = None,
    llc_kb_per_core: Optional[int] = None,
    workers: Optional[int] = None,
    trace_cache: "str | Path | None" = None,
    backend: Optional[str] = None,
    chunk_blocks: Optional[int] = None,
    result_cache: "str | Path | object | None" = None,
) -> ExperimentReport:
    """Run the comparison on consolidated-server mixes (Section 5.5).

    Each mix is a sequence of workload names sharing the CMP with disjoint
    footprints; cores are split evenly between them.  SHIFT runs as one
    logical history per workload with the aggregate budget split (see
    :class:`repro.sim.prefetchers.ConsolidatedSHIFTPrefetcher`); PIF and
    next-line are per-core and unaffected by consolidation.
    """
    if llc_kb_per_core is not None and llc_kb_per_core < 1:
        raise ConfigurationError("llc_kb_per_core must be at least 1 KB per core")
    llc_bytes = llc_kb_per_core * 1024 if llc_kb_per_core is not None else None
    sys_config = system_for(system, scale, num_cores, llc_bytes)
    if "none" not in engines:
        raise ConfigurationError("the engine list must include the 'none' baseline")
    labels: List[str] = []
    cells: Dict[Tuple[str, str], CellSpec] = {}
    order: List[CellSpec] = []
    for mix in mixes:
        mix_names = tuple(mix)
        if not mix_names:
            raise ConfigurationError("a consolidation mix cannot be empty")
        label = "+".join(mix_names)
        labels.append(label)
        for engine in engines:
            cell = CellSpec(
                workload=label,
                engine=engine,
                system=system,
                scale=scale,
                seed=seed,
                num_cores=num_cores,
                blocks_per_core=blocks_per_core,
                history_entries=history_entries,
                consolidation=mix_names,
                llc_bytes_per_core=llc_bytes,
                backend=backend,
                chunk_blocks=chunk_blocks,
            )
            cells[(label, engine)] = cell
            order.append(cell)
    cache, before = _open_result_cache(result_cache)
    results = execute_cells(
        order,
        workers=workers,
        trace_cache_dir=str(trace_cache) if trace_cache is not None else None,
        chunksize=len(engines),
        result_cache=cache,
    )
    params: Dict[str, object] = {
        "system": system,
        "scale": scale,
        "seed": seed,
        "mixes": [list(mix) for mix in mixes],
        "engines": list(engines),
        "num_cores": num_cores,
        "blocks_per_core": blocks_per_core,
        "history_entries": history_entries,
        "llc_kb_per_core": llc_kb_per_core,
    }
    report = _merge_report(system, sys_config, labels, engines, cells, results, params)
    _attach_cache_stats(report, cache, before)
    return report


def _format_bytes(num_bytes: int) -> str:
    if num_bytes >= 1024 * 1024:
        return f"{num_bytes / (1024 * 1024):.1f}MB"
    if num_bytes >= 1024:
        return f"{num_bytes / 1024:.1f}KB"
    return f"{num_bytes}B"


def format_report(report: ExperimentReport) -> str:
    """Render a report as a fixed-width comparison table.

    Per-engine storage cost is constant across rows (it is a property of
    the configuration, not the workload), so it is summarized in a footer
    below the table rather than repeated per row — the workload rows keep
    their fixed 13-character column grid.
    """
    # Column order: the engines actually present in the report, default
    # engines first, so subset runs and future engines both render.
    present: List[str] = []
    for row in report.rows:
        for engine in row.outcomes:
            if engine not in present:
                present.append(engine)
    engines = [e for e in DEFAULT_ENGINES if e in present]
    engines += [e for e in present if e not in engines]
    name_width = max([16] + [len(row.workload) for row in report.rows])
    header = f"{'workload':<{name_width}} {'base MPKI':>9}"
    for engine in engines:
        header += f" {engine + ' cov':>13} {engine + ' spd':>13}"
    lines = [f"system: {report.system_name}", header, "-" * len(header)]
    for row in report.rows:
        line = f"{row.workload:<{name_width}} {row.baseline_mpki:>9.1f}"
        for engine in engines:
            outcome = row.outcomes.get(engine)
            if outcome is None:
                line += f" {'-':>13} {'-':>13}"
            else:
                # Both cells pad to the 13-character header width (the
                # speedup's trailing 'x' is part of its 13 characters).
                line += f" {outcome.coverage:>13.1%} {outcome.speedup:>12.2f}x"
        lines.append(line)
    storage: Dict[str, int] = {}
    for row in report.rows:
        for engine in engines:
            outcome = row.outcomes.get(engine)
            if outcome is not None and engine not in storage:
                storage[engine] = outcome.storage_bytes_per_core
    if any(storage.values()):
        cells_text = "  ".join(
            f"{engine}={_format_bytes(storage[engine])}" for engine in engines if engine in storage
        )
        lines.append(f"storage/core: {cells_text}")
        pif_bytes = storage.get("pif", 0)
        shift_bytes = storage.get("shift", 0)
        if pif_bytes and shift_bytes:
            lines.append(
                f"SHIFT storage reduction vs PIF: {pif_bytes / shift_bytes:.1f}x"
            )
    return "\n".join(lines)


__all__ = [
    "DEFAULT_ENGINES",
    "REPORT_SCHEMA_VERSION",
    "check_schema_version",
    "EngineOutcome",
    "ExperimentRow",
    "ExperimentReport",
    "run_experiment",
    "run_consolidated_experiment",
    "format_report",
]
