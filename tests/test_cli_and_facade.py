"""Public API surface: the facade, the dispatcher, shared CLI options, schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.cli_options import find_duplicates
from repro.errors import ConfigurationError
from repro.experiments import REPORT_SCHEMA_VERSION, ExperimentReport, run_experiment
from repro.sweeps import SweepReport, run_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent
SMALL_ARGS = ["--workloads", "oltp_db2", "--cores", "2", "--blocks", "400"]


def _run_module(args, cwd=None, env=None):
    merged = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **(env or {})}
    merged.pop("REPRO_RESULT_CACHE", None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=merged,
    )


class TestFacade:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_names_are_the_canonical_objects(self):
        from repro.experiments import run_experiment as canonical_experiment
        from repro.results import ResultCache as canonical_cache
        from repro.sweeps import run_sweep as canonical_sweep

        assert repro.run_experiment is canonical_experiment
        assert repro.run_sweep is canonical_sweep
        assert repro.ResultCache is canonical_cache
        assert repro.REPORT_SCHEMA_VERSION == REPORT_SCHEMA_VERSION


class TestDispatcher:
    def test_usage_on_bare_invocation(self):
        result = _run_module(["repro"])
        assert result.returncode == 2
        assert "experiments" in result.stdout and "serve" in result.stdout

    def test_help_exits_zero(self):
        result = _run_module(["repro", "--help"])
        assert result.returncode == 0
        assert "usage: python -m repro" in result.stdout

    def test_unknown_command(self):
        result = _run_module(["repro", "frobnicate"])
        assert result.returncode == 2
        assert "unknown command" in result.stderr

    def test_dispatcher_matches_module_entry_point(self, tmp_path):
        via_dispatcher = _run_module(
            ["repro", "experiments", *SMALL_ARGS, "--json", "d.json"], cwd=tmp_path
        )
        via_module = _run_module(
            ["repro.experiments", *SMALL_ARGS, "--json", "m.json"], cwd=tmp_path
        )
        assert via_dispatcher.returncode == 0, via_dispatcher.stderr
        assert via_module.returncode == 0, via_module.stderr
        assert (tmp_path / "d.json").read_bytes() == (tmp_path / "m.json").read_bytes()

    def test_num_cores_alias_still_works(self, tmp_path):
        aliased = _run_module(
            ["repro.sweeps", "--axis", "cores", "--values", "2", "--num-cores", "2",
             "--workloads", "oltp_db2", "--blocks", "400", "--json", "sweep.json"],
            cwd=tmp_path,
        )
        assert aliased.returncode == 0, aliased.stderr
        payload = json.loads((tmp_path / "sweep.json").read_text())
        assert payload["points"][0]["value"] == 2


class TestResultCacheCLI:
    def test_warm_cli_run_is_byte_identical_and_all_hits(self, tmp_path):
        def invoke(out):
            return _run_module(
                ["repro", "experiments", *SMALL_ARGS, "--json", out,
                 "--result-cache", str(tmp_path / "rc")],
                cwd=tmp_path,
            )

        cold = invoke("cold.json")
        warm = invoke("warm.json")
        assert cold.returncode == 0, cold.stderr
        assert warm.returncode == 0, warm.stderr
        assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
        assert "result cache: 0 hits, 4 misses, 4 stored" in cold.stdout
        assert "result cache: 4 hits, 0 misses, 0 stored" in warm.stdout

    def test_env_default_and_no_result_cache_override(self, tmp_path):
        env = {"REPRO_RESULT_CACHE": str(tmp_path / "env_rc")}
        disabled = _run_module(
            ["repro", "experiments", *SMALL_ARGS, "--no-result-cache"],
            cwd=tmp_path,
            env=env,
        )
        assert disabled.returncode == 0, disabled.stderr
        assert not (tmp_path / "env_rc").exists()
        assert "result cache:" not in disabled.stdout
        enabled = _run_module(
            ["repro", "experiments", *SMALL_ARGS], cwd=tmp_path, env=env
        )
        assert enabled.returncode == 0, enabled.stderr
        assert (tmp_path / "env_rc").is_dir()
        assert "result cache: 0 hits, 4 misses, 4 stored" in enabled.stdout


class TestSharedOptionLint:
    def test_no_shared_flags_declared_outside_cli(self):
        assert find_duplicates(REPO_ROOT / "src" / "repro") == []


class TestSchemaVersioning:
    def _experiment_payload(self):
        return run_experiment(
            workloads=["oltp_db2"], engines=["none"], num_cores=2, blocks_per_core=400
        ).to_dict()

    def test_reports_carry_schema_version(self):
        payload = self._experiment_payload()
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        sweep = run_sweep(
            axis="cores", values=[2], workloads=["oltp_db2"], blocks_per_core=400
        ).to_dict()
        assert sweep["schema_version"] == REPORT_SCHEMA_VERSION

    def test_round_trip_is_symmetric(self):
        payload = self._experiment_payload()
        assert ExperimentReport.from_dict(payload).to_dict() == payload

    def test_missing_version_read_as_v1(self):
        payload = self._experiment_payload()
        del payload["schema_version"]
        report = ExperimentReport.from_dict(payload)
        assert report.to_dict()["schema_version"] == REPORT_SCHEMA_VERSION

    @pytest.mark.parametrize("bad", [0, 2, "two"])
    def test_unknown_versions_rejected(self, bad):
        payload = self._experiment_payload()
        payload["schema_version"] = bad
        with pytest.raises(ConfigurationError, match="schema"):
            ExperimentReport.from_dict(payload)

    def test_sweep_unknown_version_rejected(self):
        payload = run_sweep(
            axis="cores", values=[2], workloads=["oltp_db2"], blocks_per_core=400
        ).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema"):
            SweepReport.from_dict(payload)

    def test_cache_stats_never_serialized(self, tmp_path):
        report = run_experiment(
            workloads=["oltp_db2"],
            engines=["none"],
            num_cores=2,
            blocks_per_core=400,
            result_cache=tmp_path,
        )
        assert report.result_cache_stats is not None
        assert "result_cache_stats" not in report.to_dict()
