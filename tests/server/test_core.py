"""ServerCore routing, job lifecycle, rate limiting and artifact serving.

Everything here drives :meth:`ServerCore.handle` directly — no sockets, no
framework — which is the point of the framework-agnostic core: the full
endpoint surface is testable in dependency-free environments.
"""

from __future__ import annotations

import json
import time

import pytest

import repro.server.queue as queue_module
from repro.engine.cache import default_decomposition_cache
from repro.server import JobState, RateLimiter, ServerConfig, ServerCore
from repro.store import ExperimentStore, LeaseBoard


@pytest.fixture(autouse=True)
def detach_store_after():
    yield
    default_decomposition_cache.detach_store()


@pytest.fixture
def store(tmp_path):
    return ExperimentStore(tmp_path / "store")


@pytest.fixture
def config():
    # workers=1 keeps unit-level jobs in-process; rate limiting off by
    # default (the dedicated tests below bring their own limiter).
    return ServerConfig(job_workers=1, rate_limit=0)


@pytest.fixture
def core(store, config):
    core = ServerCore(store, config)
    yield core
    core.queue.close(wait=True)


def decode(response):
    return json.loads(response.body.decode("utf-8"))


def wait_done(core, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        job = core.queue.get(job_id)
        if job.state in (JobState.DONE, JobState.FAILED):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestRouting:
    def test_healthz_reports_store_and_job_counts(self, core):
        response = core.handle("GET", "/healthz")
        assert response.status == 200
        document = decode(response)
        assert document["status"] == "ok"
        assert document["jobs"] == {"queued": 0, "running": 0, "done": 0, "failed": 0}

    def test_unknown_route_is_a_json_404(self, core):
        response = core.handle("GET", "/nope")
        assert response.status == 404
        assert "no route" in decode(response)["error"]

    def test_wrong_method_is_a_404(self, core):
        assert core.handle("POST", "/healthz").status == 404
        assert core.handle("GET", "/sweeps").status == 404

    def test_invalid_json_body_is_a_400(self, core):
        response = core.handle("POST", "/sweeps", b"{not json")
        assert response.status == 400
        assert "not valid JSON" in decode(response)["error"]

    def test_invalid_spec_is_a_400_with_the_validation_message(self, core):
        response = core.handle("POST", "/sweeps", b'{"experiments": ["nope"]}')
        assert response.status == 400
        assert "unknown experiment" in decode(response)["error"]

    def test_oversized_body_is_rejected(self, core):
        response = core.handle("POST", "/sweeps", b" " * (65 * 1024))
        assert response.status == 413

    def test_unknown_job_is_a_404(self, core):
        assert core.handle("GET", "/jobs/deadbeef").status == 404
        assert core.handle("GET", "/jobs/deadbeef/report").status == 404


class TestJobLifecycle:
    SPEC = b'{"experiments": ["table1"], "workers": 1}'

    def test_post_runs_the_job_and_serves_the_report(self, core):
        response = core.handle("POST", "/sweeps", self.SPEC)
        assert response.status == 202
        document = decode(response)
        job_id = document["job"]
        assert document["deduplicated"] is False
        wait_done(core, job_id)
        status = decode(core.handle("GET", f"/jobs/{job_id}"))
        assert status["status"] == "done"
        assert status["launches"] == 1
        report = core.handle("GET", f"/jobs/{job_id}/report")
        assert report.status == 200
        body = json.loads(report.body.decode("utf-8"))
        assert "table1" in body["experiments"]

    def test_duplicate_post_dedupes_to_the_same_job(self, core):
        first = decode(core.handle("POST", "/sweeps", self.SPEC))
        wait_done(core, first["job"])
        second = core.handle("POST", "/sweeps", self.SPEC)
        assert second.status == 200
        document = decode(second)
        assert document["job"] == first["job"]
        assert document["deduplicated"] is True
        assert document["launches"] == 1

    def test_report_before_completion_is_a_409(self, core, store, config):
        # A hand-planted queued job: the report endpoint must refuse, not 500.
        from repro.server.schemas import parse_sweep_spec, spec_fingerprint
        from repro.server.queue import Job

        spec = parse_sweep_spec({"experiments": ["table1"]}, config)
        job = Job(
            id=spec_fingerprint(spec), spec=spec, state=JobState.QUEUED, created=0.0
        )
        core.queue._jobs[job.id] = job
        response = core.handle("GET", f"/jobs/{job.id}/report")
        assert response.status == 409
        assert "poll" in decode(response)["error"]

    def test_failed_job_surfaces_the_error_and_relaunches_on_resubmit(
        self, core, monkeypatch
    ):
        calls = []

        def explode(spec, store):
            calls.append(spec)
            raise RuntimeError("boom")

        # _run resolves execute_sweep as a queue-module global at call time,
        # so patching the module attribute reroutes every launch.
        monkeypatch.setattr(queue_module, "execute_sweep", explode)
        document = decode(core.handle("POST", "/sweeps", self.SPEC))
        job = wait_done(core, document["job"])
        assert job.state is JobState.FAILED
        assert "boom" in job.error
        assert core.handle("GET", f"/jobs/{job.id}/report").status == 409
        # Resubmitting a failed spec relaunches instead of caching the fault.
        retry = decode(core.handle("POST", "/sweeps", self.SPEC))
        assert retry["job"] == job.id
        wait_done(core, job.id)
        assert len(calls) == 2

    def test_restarted_service_recognizes_a_stored_report(self, store, config):
        core = ServerCore(store, config)
        try:
            document = decode(core.handle("POST", "/sweeps", self.SPEC))
            wait_done(core, document["job"])
        finally:
            core.queue.close(wait=True)
        reborn = ServerCore(store, config)
        try:
            again = decode(reborn.handle("POST", "/sweeps", self.SPEC))
            assert again["job"] == document["job"]
            assert again["status"] == "done"
            assert again["launches"] == 0  # never launched: the store had it
            report = reborn.handle("GET", f"/jobs/{document['job']}/report")
            assert report.status == 200
        finally:
            reborn.queue.close(wait=True)


class TestRateLimit:
    def test_third_burst_request_is_a_429_with_retry_after(self, store):
        config = ServerConfig(job_workers=1, rate_limit=60, rate_burst=2)
        clock = [1000.0]
        limiter = RateLimiter(60, 2, clock=lambda: clock[0])
        core = ServerCore(store, config, limiter=limiter)
        try:
            # Invalid bodies still spend tokens (cheap rejection is the point),
            # so no actual sweep ever launches in this test.
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
            limited = core.handle("POST", "/sweeps", b"{bad", client="a")
            assert limited.status == 429
            assert int(limited.headers["Retry-After"]) >= 1
            # Another client is unaffected; the same client recovers with time.
            assert core.handle("POST", "/sweeps", b"{bad", client="b").status == 400
            clock[0] += 2.0
            assert core.handle("POST", "/sweeps", b"{bad", client="a").status == 400
        finally:
            core.queue.close(wait=True)


class TestArtifacts:
    def test_index_and_fetch_round_trip(self, core, store):
        store.put("table1/row", "ab" * 16, {"value": 7})
        index = decode(core.handle("GET", "/artifacts"))
        assert len(index["artifacts"]) == 1
        entry = index["artifacts"][0]
        assert entry["kind"] == "table1/row"
        response = core.handle(
            "GET", f"/artifacts/{entry['kind']}/{entry['fingerprint']}"
        )
        assert response.status == 200
        wrapper = json.loads(response.body.decode("utf-8"))
        assert wrapper["payload"] == {"value": 7}
        assert wrapper["checksum"]

    def test_unknown_artifact_is_a_404(self, core):
        assert core.handle("GET", "/artifacts/table1/row/none").status == 404

    def test_traversal_attempts_collapse_to_misses(self, core):
        response = core.handle("GET", "/artifacts/../../etc/passwd")
        assert response.status == 404


class TestWorkersEndpoint:
    def test_namespace_state_is_rendered_as_json(self, core, store):
        board = LeaseBoard(store.root, "ns-http", ttl=30.0)
        board.claim(3, "worker-a")
        board.mark_done(1, "worker-a")
        board.beat("worker-a", computed=5)
        document = decode(core.handle("GET", "/workers"))
        namespace = document["namespaces"][0]
        assert namespace["namespace"] == "ns-http"
        assert namespace["shards_done"] == [1]
        assert [lease["shard"] for lease in namespace["leases"]] == [3]
        assert namespace["heartbeats"][0]["owner"] == "worker-a"
        assert namespace["heartbeats"][0]["stale"] is False


class TestJobNamespace:
    """`job_namespace` must name the lease namespace the job's run really uses."""

    class _Stop(Exception):
        pass

    @pytest.mark.parametrize(
        "payload",
        [
            {"experiments": ["fig6", "robustness"], "arrays": [32], "trials": 2, "workers": 2},
            {"arrays": [64], "trials": 3, "workers": 3},
            {"experiments": ["table1", "fig7"], "workers": 2},
        ],
    )
    def test_matches_the_namespace_of_the_parallel_run(self, payload, store, monkeypatch):
        import repro.parallel as parallel_module
        from repro.server.schemas import parse_sweep_spec

        spec = parse_sweep_spec(payload, ServerConfig(max_job_workers=4))
        expected, nshards = queue_module.job_namespace(spec)
        created = []
        real_plan_namespace = parallel_module.plan_namespace

        def recording_plan_namespace(*args, **kwargs):
            created.append(real_plan_namespace(*args, **kwargs))
            raise self._Stop  # stop before any worker process spawns

        monkeypatch.setattr(parallel_module, "plan_namespace", recording_plan_namespace)
        with pytest.raises(self._Stop):
            queue_module.execute_sweep(spec, store)
        assert created == [expected]
        assert nshards == parallel_module.default_shard_count(spec.workers)
