"""Chaos tests: client retries, request deadlines, stale serving, /replan.

Each test that needs HTTP spins up its own short-lived server with a
:class:`FaultPlan` installed, so the injected fault schedule starts from
ordinal zero; everything else drives :meth:`HyParService.handle`
in-process.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
from pathlib import Path

import pytest

from repro.resilience.faults import FaultInjector, FaultPlan
from repro.resilience.replan import run_replan
from repro.resilience.traces import synthesize_trace
from repro.service import HyParService, ServiceClient, build_server
from repro.service.client import ServiceClientError
from repro.service.schemas import ReplanRequest
from repro.sweep.artifacts import payload_to_json
from repro.sweep.engine import SweepEngine

PARTITION_FIELDS = {"model": "SFC", "batch_size": 64, "num_accelerators": 4}

REPLAN_FIELDS = {
    "model": "Lenet-c",
    "preset": "spot",
    "seed": 7,
    "num_events": 6,
    "num_nodes": 16,
    "batch_size": 64,
}


@contextlib.contextmanager
def _live_server(**kwargs):
    server = build_server(port=0, **kwargs)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        # A request that overran its deadline left its computation running
        # on a compute thread; wait for it, so that its table compile cannot
        # land in the shared table cache while a later test counts misses.
        computing = [
            worker
            for worker in threading.enumerate()
            if worker.name == "hypar-serve-compute"
        ]
        for worker in computing:
            worker.join(timeout=60.0)
        server.close()
        thread.join(timeout=5.0)
    assert not any(worker.is_alive() for worker in computing)


def _post(service: HyParService, path: str, payload) -> tuple[int, bytes]:
    return service.handle("POST", path, json.dumps(payload).encode())


class TestClientRetry:
    def test_retry_recovers_from_a_dropped_connection(self):
        plan = FaultPlan.preset("connection-drop")
        with _live_server(fault_plan=plan) as server:
            with ServiceClient("127.0.0.1", server.port, backoff=0.01) as client:
                health = client.healthz()
        assert health["status"] == "ok"
        assert client.retried >= 1
        assert health["faults"]["dropped"] == 1

    def test_delayed_connection_still_answers(self):
        plan = FaultPlan.preset("connection-delay")
        with _live_server(fault_plan=plan) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                health = client.healthz()
        assert health["status"] == "ok"
        assert client.retried == 0
        assert health["faults"]["delayed"] == 1

    def test_a_received_4xx_is_never_retried(self):
        with _live_server() as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                with pytest.raises(ServiceClientError) as excinfo:
                    client.partition(model="no-such-net")
                assert excinfo.value.status == 400
                assert client.retried == 0

    def test_non_idempotent_requests_do_not_retry_after_send(self):
        plan = FaultPlan(drop_requests=(0,))
        with _live_server(fault_plan=plan) as server:
            with ServiceClient("127.0.0.1", server.port, backoff=0.01) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.request("GET", "/healthz", idempotent=False)
                assert client.retried == 0

    def test_exhausted_retries_raise_the_last_transport_error(self):
        plan = FaultPlan(drop_requests=(0, 1, 2))
        with _live_server(fault_plan=plan) as server:
            with ServiceClient(
                "127.0.0.1", server.port, retries=3, backoff=0.01
            ) as client:
                with pytest.raises((http.client.HTTPException, OSError)):
                    client.healthz()
                assert client.retried == 2

    def test_client_parameter_validation(self):
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("127.0.0.1", 1, retries=0)
        with pytest.raises(ValueError, match="backoff"):
            ServiceClient("127.0.0.1", 1, backoff=-0.1)

    def test_backoff_grows_exponentially_and_caps(self):
        client = ServiceClient(
            "127.0.0.1", 1, backoff=0.1, max_backoff=0.3, jitter=0.0
        )
        sleeps = []
        client._sleep_backoff = lambda attempt: sleeps.append(  # type: ignore[method-assign]
            min(client.max_backoff, client.backoff * 2 ** (attempt - 1))
        )
        for attempt in (1, 2, 3, 4):
            client._sleep_backoff(attempt)
        assert sleeps == [0.1, 0.2, 0.3, 0.3]


class TestRequestDeadline:
    def test_overrun_answers_504_and_closes_the_connection(self):
        plan = FaultPlan(compute_delays=(0,), compute_delay_seconds=5.0)
        with _live_server(request_timeout=0.2, fault_plan=plan) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=10.0
            )
            try:
                connection.request(
                    "POST",
                    "/partition",
                    body=json.dumps(PARTITION_FIELDS).encode(),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                body = json.loads(response.read())
                assert response.status == 504
                assert response.getheader("Connection") == "close"
                assert "deadline" in body["error"]
            finally:
                connection.close()
            # The daemon stays healthy: a fresh, fast request succeeds and
            # the timeout is tallied.
            with ServiceClient("127.0.0.1", server.port) as client:
                result = client.partition(
                    model="SFC", batch_size=32, num_accelerators=4
                )
                assert result["model"] == "SFC"
                health = client.healthz()
        assert health["requests"]["timeouts"] == 1
        assert health["requests"]["stale_served"] == 0

    def test_client_reopens_after_a_closing_answer_without_retrying(self):
        # The 504 carries Connection: close; reusing the closed socket
        # would fail the next request and count a retry.
        plan = FaultPlan(compute_delays=(0,), compute_delay_seconds=5.0)
        with _live_server(request_timeout=0.2, fault_plan=plan) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.request("POST", "/partition", PARTITION_FIELDS).status == 504
                assert client.healthz()["requests"]["timeouts"] == 1
                assert client.retried == 0

    def test_fast_requests_are_unaffected_by_the_deadline(self):
        with _live_server(request_timeout=30.0) as server:
            with ServiceClient("127.0.0.1", server.port) as client:
                assert client.healthz()["requests"]["timeouts"] == 0

    def test_non_positive_deadline_is_rejected(self):
        with pytest.raises(ValueError, match="request_timeout"):
            build_server(port=0, request_timeout=0)


def _identity(x: int) -> int:
    """Module-level so the process pool can pickle it."""
    return x


class TestDegradation:
    def test_healthz_reports_a_degraded_pool(self):
        from repro.resilience.faults import faulty_map

        engine = SweepEngine(workers=2)
        try:
            with pytest.warns(RuntimeWarning, match="process pool failed"):
                faulty_map(engine, _identity, [1, 2, 3], FaultPlan(kill_tasks=(0,)))
            service = HyParService(engine=engine)
            status, body = service.handle("GET", "/healthz", None)
            health = json.loads(body)
            assert status == 200
            assert health["degraded"] is True
            assert health["pool_active"] is False
        finally:
            engine.close()

    def test_poisoned_entry_recovers_through_the_stale_store(self):
        # Store ordinal 0 is poisoned; the recompute triggered by the
        # integrity failure (compute ordinal 1) is killed too, so the
        # service falls back to the stale copy; compute ordinal 2 then
        # repairs the cache with identical bytes.
        plan = FaultPlan(poison_stores=(0,), compute_errors=(1,))
        service = HyParService(fault_injector=FaultInjector(plan))
        with service:
            status, original = _post(service, "/partition", PARTITION_FIELDS)
            assert status == 200
            status, stale = _post(service, "/partition", PARTITION_FIELDS)
            assert status == 200
            assert stale == original
            assert service.stale_served == 1
            assert service.result_cache.stats()["poisoned"] == 1
            status, repaired = _post(service, "/partition", PARTITION_FIELDS)
            assert status == 200
            assert repaired == original
            assert service.stale_served == 1

    def test_compute_failure_without_a_stale_copy_is_a_500(self):
        plan = FaultPlan(compute_errors=(0,))
        service = HyParService(fault_injector=FaultInjector(plan))
        with service:
            status, body = _post(service, "/partition", PARTITION_FIELDS)
            assert status == 500
            assert "FaultInjected" in json.loads(body)["error"]
            # The schedule has passed; the same request now succeeds.
            status, _ = _post(service, "/partition", PARTITION_FIELDS)
            assert status == 200


class TestReplanEndpoint:
    @pytest.fixture(scope="class")
    def service(self):
        with HyParService() as service:
            yield service

    def test_response_bytes_match_the_offline_replan(self, service):
        status, body = _post(service, "/replan", REPLAN_FIELDS)
        assert status == 200
        request = ReplanRequest.from_payload(REPLAN_FIELDS)
        offline = run_replan(request.to_trace(), request.to_config())
        assert body == payload_to_json(offline.to_payload()).encode()

    def test_preset_provenance_never_leaks(self, service):
        status, body = _post(service, "/replan", REPLAN_FIELDS)
        payload = json.loads(body)
        assert status == 200
        assert payload["trace"]["preset"] is None
        assert payload["trace"]["seed"] is None
        assert payload["config"]["policy"] == "every-event"

    def test_response_is_the_cli_artifact_without_trace_provenance(self, service):
        """The body of the churn scenario CI replays with ``hypar replan
        --preset spot --seed 7 --events 8 --batch-size 64`` equals that
        run's pinned ``replan.json`` except the trace's provenance: the
        service drops ``preset`` and ``seed``, which the CLI writes."""
        golden_path = Path(__file__).resolve().parents[1] / "resilience" / "golden_replan.json"
        golden = golden_path.read_bytes()
        status, body = _post(
            service,
            "/replan",
            {**REPLAN_FIELDS, "num_events": 8},
        )
        assert status == 200
        assert body != golden
        cli = json.loads(golden)
        assert (cli["trace"]["preset"], cli["trace"]["seed"]) == ("spot", 7)
        cli["trace"].update(preset=None, seed=None)
        assert body == payload_to_json(cli).encode()

    def test_preset_and_inline_trace_share_one_cache_entry(self, service):
        status, preset_body = _post(service, "/replan", REPLAN_FIELDS)
        assert status == 200
        trace = synthesize_trace(
            "spot", num_nodes=16, seed=7, num_events=6
        )
        inline = {
            "model": "Lenet-c",
            "trace": [event.to_json() for event in trace.events],
            "num_nodes": 16,
            "horizon": trace.horizon,
            "batch_size": 64,
        }
        misses_before = service.result_cache.stats()["misses"]
        status, inline_body = _post(service, "/replan", inline)
        assert status == 200
        assert inline_body == preset_body
        assert service.result_cache.stats()["misses"] == misses_before

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"model": "Lenet-c"}, "exactly one of"),
            ({"model": "Lenet-c", "preset": "spot", "trace": []}, "exactly one of"),
            ({"model": "Lenet-c", "preset": "blizzard"}, "unknown trace preset"),
            (
                {"model": "Lenet-c", "trace": [], "seed": 3},
                "only applies to preset traces",
            ),
            ({"model": "Lenet-c", "preset": "spot", "num_nodes": 1}, "num_nodes"),
            ({"model": "Lenet-c", "preset": "spot", "policy": "never"}, "policy"),
            (
                {
                    "model": "Lenet-c",
                    "trace": [{"t": 1.0, "event": "crash", "nodes": [0]}],
                },
                "unknown trace event",
            ),
        ],
    )
    def test_bad_bodies_answer_400(self, service, payload, fragment):
        status, body = _post(service, "/replan", payload)
        assert status == 400
        assert fragment in json.loads(body)["error"]
