"""The experiment service: validation, dedupe, and a localhost smoke test."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.experiments import ExperimentReport, run_experiment
from repro.serve import (
    DEFAULT_RETAINED_JOBS,
    DONE,
    FAILED,
    QUEUED,
    RETAINED_JOBS_ENV_VAR,
    ExperimentService,
    job_key,
    make_server,
    validate_request,
)
from repro.sweeps import SweepReport

PARAMS = {
    "workloads": ["oltp_db2"],
    "engines": ["none", "pif"],
    "num_cores": 2,
    "blocks_per_core": 400,
    "seed": 3,
}


def _wait(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.job(job_id)
        if job.status in (DONE, FAILED):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {service.job(job_id).status} after {timeout}s")


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_request("bake", {})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_request("experiment", {"workers": 8})

    def test_sweep_needs_axis(self):
        with pytest.raises(ConfigurationError):
            validate_request("sweep", {"values": [2, 4]})

    def test_job_key_is_order_insensitive(self):
        assert job_key("experiment", {"seed": 1, "num_cores": 2}) == job_key(
            "experiment", {"num_cores": 2, "seed": 1}
        )
        assert job_key("experiment", {"seed": 1}) != job_key("sweep", {"seed": 1})


class TestServiceDirect:
    """Drive ExperimentService without HTTP for deterministic queue states."""

    def test_inflight_dedupe_and_post_completion_resubmit(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc")
        first, deduped = service.submit("experiment", PARAMS)
        assert not deduped and first.status == QUEUED
        second, deduped = service.submit("experiment", dict(PARAMS))
        assert deduped and second.id == first.id
        other, deduped = service.submit("experiment", {**PARAMS, "seed": 4})
        assert not deduped and other.id != first.id

        service.start()
        try:
            assert _wait(service, first.id).status == DONE
            assert _wait(service, other.id).status == DONE
            # Finished jobs are not dedupe targets; the rerun is a fresh job
            # whose cells all hit the result cache.
            rerun, deduped = service.submit("experiment", PARAMS)
            assert not deduped and rerun.id != first.id
            rerun = _wait(service, rerun.id)
            assert rerun.cache_stats["hits"] > 0 and rerun.cache_stats["misses"] == 0
            assert rerun.report == service.job(first.id).report
        finally:
            service.stop()

    def test_job_report_round_trips_schema(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc")
        service.start()
        try:
            job, _ = service.submit("experiment", PARAMS)
            job = _wait(service, job.id)
        finally:
            service.stop()
        assert job.status == DONE
        restored = ExperimentReport.from_dict(job.report)
        assert restored.to_dict() == job.report

    def test_sweep_job(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc")
        service.start()
        try:
            job, _ = service.submit(
                "sweep",
                {
                    "axis": "cores",
                    "values": [2, 4],
                    "workloads": ["oltp_db2"],
                    "blocks_per_core": 400,
                },
            )
            job = _wait(service, job.id)
        finally:
            service.stop()
        assert job.status == DONE, job.error
        restored = SweepReport.from_dict(job.report)
        assert [point["value"] for point in restored.to_dict()["points"]] == [2, 4]

    def test_failed_job_keeps_worker_alive(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc")
        service.start()
        try:
            bad, _ = service.submit("experiment", {**PARAMS, "engines": ["pif"]})
            bad = _wait(service, bad.id)
            assert bad.status == FAILED
            assert bad.error
            good, _ = service.submit("experiment", PARAMS)
            assert _wait(service, good.id).status == DONE
        finally:
            service.stop()
        counts = service.job_counts()
        assert counts[DONE] == 1 and counts[FAILED] == 1

    @pytest.mark.parametrize(
        "settings, env, message",
        [
            ({"job_threads": 0}, {}, "job thread"),
            ({"backend": "bogus"}, {}, "--backend"),
            ({"workers": 0}, {}, "--workers"),
            ({"backend": "numpy"}, {"REPRO_NUMPY_MEMO_MAX": "0"}, "REPRO_NUMPY_MEMO_MAX"),
        ],
        ids=["job-threads", "backend", "workers", "numpy-memo-max"],
    )
    def test_construction_rejects_bad_settings(self, monkeypatch, settings, env, message):
        """A bad setting stops the service at startup instead of failing
        every job it accepts."""
        if settings.get("backend") == "numpy":
            pytest.importorskip("numpy")
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(ReproError, match=message):
            ExperimentService(**settings)


class TestLifecycleLocking:
    """Regression: start()/stop() mutated _started/_threads outside the lock
    (flagged by the lock-discipline checker), so concurrent start() calls
    could each spawn a full worker set."""

    def test_concurrent_starts_spawn_exactly_one_worker_set(self):
        service = ExperimentService(job_threads=3)
        barrier = threading.Barrier(8)

        def racer():
            barrier.wait()
            service.start()

        racers = [threading.Thread(target=racer) for _ in range(8)]
        try:
            for thread in racers:
                thread.start()
            for thread in racers:
                thread.join(timeout=10)
            assert len(service._threads) == 3
            assert sum(t.is_alive() for t in service._threads) == 3
        finally:
            service.stop()
        assert service._threads == [] and not service._started

    def test_stop_joins_workers_without_holding_the_lock(self):
        # A worker publishing its job result needs self._lock; stop() must
        # therefore join outside the lock or a mid-job shutdown deadlocks.
        service = ExperimentService(job_threads=1)
        service.start()
        job, _ = service.submit("experiment", PARAMS)
        stopper = threading.Thread(target=service.stop)
        stopper.start()
        stopper.join(timeout=120)
        assert not stopper.is_alive(), "stop() deadlocked against its worker"
        assert service.job(job.id).status in (QUEUED, DONE, FAILED)

    def test_start_after_stop_restarts_workers(self):
        service = ExperimentService(job_threads=2)
        service.start()
        service.stop()
        assert service._threads == []
        service.start()
        try:
            assert len(service._threads) == 2
        finally:
            service.stop()


FAST_PARAMS = {
    "workloads": ["oltp_db2"],
    "engines": ["none"],
    "num_cores": 2,
    "blocks_per_core": 200,
}


def _drain(service):
    """Run every queued job on the calling thread (deterministic, no races)."""
    service._queue.put(None)
    service._work()


class TestFinishedJobRetention:
    """Regression: finished jobs used to accumulate forever."""

    def test_oldest_finished_jobs_are_pruned(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc", retained_jobs=2)
        submitted = [
            service.submit("experiment", {**FAST_PARAMS, "seed": seed})[0]
            for seed in range(4)
        ]
        _drain(service)
        retained = service.jobs()
        assert [job.id for job in retained] == [job.id for job in submitted[-2:]]
        assert all(job.status == DONE for job in retained)
        assert service.job_counts()[DONE] == 2
        for evicted in submitted[:2]:
            assert service.job(evicted.id) is None
        # An evicted job's dedupe key is forgotten: resubmitting its params
        # queues a fresh job instead of pointing at the pruned id.
        rerun, deduped = service.submit("experiment", {**FAST_PARAMS, "seed": 0})
        assert not deduped and rerun.id != submitted[0].id

    def test_queued_jobs_are_never_pruned(self, tmp_path):
        service = ExperimentService(result_cache=tmp_path / "rc", retained_jobs=1)
        queued, _ = service.submit("experiment", {**FAST_PARAMS, "seed": 2})
        # Hold the job back from the worker so it stays QUEUED while newer
        # submissions finish around it.
        assert service._queue.get() == queued.id
        first, _ = service.submit("experiment", {**FAST_PARAMS, "seed": 0})
        second, _ = service.submit("experiment", {**FAST_PARAMS, "seed": 1})
        _drain(service)
        # Both finished; only the newest survives the cap of 1.
        assert service.job(first.id) is None
        assert service.job(second.id).status == DONE
        # The older queued job is untouched and still the dedupe target.
        assert service.job(queued.id).status == QUEUED
        again, deduped = service.submit("experiment", {**FAST_PARAMS, "seed": 2})
        assert deduped and again.id == queued.id

    def test_retention_configuration(self, monkeypatch):
        monkeypatch.delenv(RETAINED_JOBS_ENV_VAR, raising=False)
        assert ExperimentService()._retained_jobs == DEFAULT_RETAINED_JOBS
        assert ExperimentService(retained_jobs=7)._retained_jobs == 7
        monkeypatch.setenv(RETAINED_JOBS_ENV_VAR, "3")
        assert ExperimentService()._retained_jobs == 3
        assert ExperimentService(retained_jobs=9)._retained_jobs == 9
        monkeypatch.setenv(RETAINED_JOBS_ENV_VAR, "many")
        with pytest.raises(ConfigurationError):
            ExperimentService()
        monkeypatch.setenv(RETAINED_JOBS_ENV_VAR, "0")
        with pytest.raises(ConfigurationError):
            ExperimentService()
        monkeypatch.delenv(RETAINED_JOBS_ENV_VAR, raising=False)
        with pytest.raises(ConfigurationError):
            ExperimentService(retained_jobs=0)


@pytest.fixture()
def live_server(tmp_path):
    service = ExperimentService(result_cache=tmp_path / "rc")
    server = make_server("127.0.0.1", 0, service)
    service.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        thread.join(timeout=10)


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTP:
    def test_submit_status_result_equals_library_call(self, live_server):
        base, service = live_server
        status, body = _post(f"{base}/submit", {"kind": "experiment", "params": PARAMS})
        assert status == 200 and not body["deduped"]
        job_id = body["job"]

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            status, body = _get(f"{base}/status/{job_id}")
            assert status == 200
            if body["status"] in (DONE, FAILED):
                break
            time.sleep(0.05)
        assert body["status"] == DONE, body.get("error")

        status, body = _get(f"{base}/result/{job_id}")
        assert status == 200
        direct = run_experiment(**PARAMS)
        assert body["report"] == direct.to_dict()

        status, body = _get(f"{base}/cache/stats")
        assert status == 200
        assert body["jobs"][DONE] == 1
        assert body["result_cache"]["stored"] == len(PARAMS["engines"])
        assert body["result_cache"]["entries"] == len(PARAMS["engines"])

    def test_error_paths(self, live_server):
        base, service = live_server
        assert _get(f"{base}/healthz") == (200, {"status": "ok"})
        assert _get(f"{base}/nope")[0] == 404
        assert _get(f"{base}/status/job-999")[0] == 404
        assert _post(f"{base}/submit", {"kind": "experiment", "params": {"bogus": 1}})[0] == 400
        assert _post(f"{base}/submit", ["not", "an", "object"])[0] == 400

        status, body = _post(
            f"{base}/submit", {"kind": "experiment", "params": {**PARAMS, "engines": ["pif"]}}
        )
        assert status == 200
        job_id = body["job"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if service.job(job_id).status in (DONE, FAILED):
                break
            time.sleep(0.02)
        status, body = _get(f"{base}/result/{job_id}")
        assert status == 500 and body["status"] == FAILED

    def test_result_before_completion_is_409(self, tmp_path):
        # Un-started service: the job sits queued forever, deterministically.
        service = ExperimentService(result_cache=tmp_path / "rc")
        server = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            job, _ = service.submit("experiment", PARAMS)
            status, body = _get(f"http://{host}:{port}/result/{job.id}")
            assert status == 409 and body["status"] == QUEUED
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
