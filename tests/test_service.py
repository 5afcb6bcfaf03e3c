"""Service lifecycle: coalescing, draining shutdown, stream hygiene.

These tests run a real :class:`~repro.service.server.ExperimentService`
on a background thread and drive it through
:class:`repro.client.ServiceClient` -- the full wire path, not mocked
handlers. Where a test needs a job held *in flight* deterministically
(to force coalescing, or to shut down mid-run), it wraps the real
:func:`repro.runner.api.execute_job` behind a gate the test controls,
so nothing depends on racing the executor.
"""

import threading

import pytest

from repro.client import ServiceClient
from repro.engine import Registry
from repro.errors import ServiceError
from repro.runner import api as runner_api
from repro.service import serve_in_thread

_EXECUTE_JOB = runner_api.execute_job


@pytest.fixture
def service(tmp_path):
    """A running service whose handle and registry the test owns.

    Yields a factory so tests choose limits; tears every started
    service down (and releases any execution gates) even on failure.
    """
    handles = []
    gates = []

    def start(**kwargs):
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        kwargs.setdefault("registry", Registry())
        handle = serve_in_thread(**kwargs)
        handles.append(handle)
        client = ServiceClient(handle.base_url, client_id="test")
        return handle, client, kwargs["registry"]

    start.gates = gates
    yield start
    for gate in gates:
        gate.set()
    for handle in handles:
        try:
            handle.stop(timeout_s=30.0)
        except ServiceError:
            pass


def _gate_execution(monkeypatch, gates):
    """Make execute_job block on a gate, then run for real."""
    gate = threading.Event()
    gates.append(gate)

    def gated(request, **kwargs):
        gate.wait(timeout=60.0)
        return _EXECUTE_JOB(request, **kwargs)

    monkeypatch.setattr(runner_api, "execute_job", gated)
    return gate


class TestCoalescing:
    def test_duplicate_submissions_share_one_run(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        first = client.submit("E4", quick=True)
        second = client.submit("E4", quick=True)
        assert second["job_id"] == first["job_id"]
        assert second["coalesced"] == 1
        gate.set()
        result = client.result(first["job_id"])
        assert result.ok
        # One grid executed, one pool worker spawned -- not two.
        assert registry.counter("runner.pool_spawns").value == 1
        assert registry.counter("service.submitted").value == 2
        assert registry.counter("service.coalesced").value == 1
        # The coalesced submission is visible in the job's event log.
        notes = [
            e for e in client.events(first["job_id"])
            if e.get("note", "").startswith("coalesced")
        ]
        assert len(notes) == 1

    def test_repeat_of_done_job_is_fully_cache_served(self, service):
        handle, client, registry = service()
        first = client.submit_and_wait("E4", quick=True)
        assert first.ok
        assert first.stats["recomputed"] == 1
        spawns_after_first = registry.counter("runner.pool_spawns").value
        repeat = client.submit_and_wait("E4", quick=True)
        assert repeat.ok
        assert repeat.stats["recomputed"] == 0
        assert repeat.stats["cache_hits"] == 1
        assert repeat.stats["pool_spawns"] == 0
        assert (
            registry.counter("runner.pool_spawns").value
            == spawns_after_first
        )
        assert repeat.document == first.document


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        envelope = client.submit("E4", quick=True)
        job_id = envelope["job_id"]
        assert client.shutdown()["status"] == "draining"
        # Draining: no new work accepted while the old job is held.
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E2", quick=True)
        assert excinfo.value.code == "shutting-down"
        assert excinfo.value.status == 503
        gate.set()
        handle.stop(timeout_s=30.0)
        # The in-flight job finished; it was drained, not killed.
        job = handle.service.job_table[job_id]
        assert job.state == "done"
        assert job.result is not None and job.result.ok
        assert registry.counter("service.completed").value == 1


class TestEventStreaming:
    def test_ws_disconnect_mid_stream_leaves_job_healthy(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        envelope = client.submit("E4", quick=True)
        job_id = envelope["job_id"]
        stream = client.stream_events(job_id)
        first = next(stream)  # backlog: the queued status event
        assert first["type"] == "status"
        stream.close()  # abrupt client disconnect mid-stream
        gate.set()
        assert client.result(job_id).ok
        # The job ran to completion exactly once and the dead
        # subscriber was reaped -- no orphaned queue, no stuck worker.
        assert registry.counter("runner.pool_spawns").value == 1
        assert handle.service.job_table[job_id].subscribers == []
        assert registry.counter("service.ws_subscribers").value == 1
        # The pool is still serviceable for later jobs.
        assert client.submit_and_wait("E2", quick=True).ok

    def test_stream_replays_backlog_for_finished_job(self, service):
        handle, client, registry = service()
        result = client.submit_and_wait("E4", quick=True)
        events = list(client.stream_events(result.job_id))
        kinds = [e["type"] for e in events]
        assert kinds[0] == "status"
        assert "heartbeat" in kinds
        assert "span" in kinds
        assert kinds[-1] == "status"
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events == client.events(result.job_id)


class TestEndpoints:
    def test_meta_health_and_404(self, service):
        handle, client, registry = service(max_pending=3, per_client=2)
        meta = client.meta()
        assert meta["service"] == "repro.service"
        assert meta["limits"]["max_pending"] == 3
        assert client.health()["accepting"] is True
        with pytest.raises(ServiceError) as excinfo:
            client.job("f" * 64)
        assert excinfo.value.code == "not-found"
        assert excinfo.value.status == 404

    def test_wrong_major_version_rejected_on_the_wire(self, service):
        handle, client, registry = service()
        payload = {
            "schema_version": "99.0",
            "client_id": "test",
            "job": {"experiments": ["E4"]},
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", payload)
        assert excinfo.value.code == "unsupported-version"

    def test_undeclared_override_key_is_bad_request(self, service):
        handle, client, registry = service()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E1", overrides=[{"no_such_key": 3}])
        assert excinfo.value.code == "bad-request"
        assert excinfo.value.status == 400
        assert "no_such_key" in str(excinfo.value)
        assert registry.counter("runner.pool_spawns").value == 0

    def test_admission_sheds_past_the_pending_bound(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service(max_pending=1, per_client=10)
        running = client.submit("E4", quick=True)
        # max_active=1: the first job occupies the executor; a second
        # distinct job sits queued and fills the whole pending bound.
        queued = client.submit("E2", quick=True)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E4", seeds=2, quick=True)
        assert excinfo.value.code == "shed"
        assert excinfo.value.status == 429
        assert registry.counter("service.shed").value == 1
        gate.set()
        assert client.result(running["job_id"]).ok
        assert client.result(queued["job_id"]).ok

    def test_per_client_cap_rejected_with_client_cap_code(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service(max_pending=16, per_client=1)
        first = client.submit("E4", quick=True)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E2", quick=True)
        assert excinfo.value.code == "client-cap"
        gate.set()
        assert client.result(first["job_id"]).ok
