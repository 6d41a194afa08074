"""The service layer end to end: app logic, HTTP server, client, lifecycle.

A module-scoped live server (ephemeral port, in-process accept thread)
backs the endpoint tests; unit tests drive :class:`HyParService.handle`
directly where HTTP adds nothing (eviction, concurrency).
"""

from __future__ import annotations

import gc
import json
import os
import signal
import threading

import pytest

from repro.service import HyParService, ServiceClient, build_server
from repro.service.server import DEFAULT_HOST, DEFAULT_PORT, serve
from repro.sweep.cache import shared_table_cache
from repro.sweep.runner import run_sweep
from repro.sweep.spec import SweepSpec

TINY_SPEC = {"name": "tiny", "models": ["SFC"], "batch_sizes": [64], "array_sizes": [4]}


@pytest.fixture(scope="module")
def live_server():
    server = build_server(port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.close()
    thread.join(timeout=5.0)


@pytest.fixture(scope="module")
def client(live_server):
    with ServiceClient("127.0.0.1", live_server.port) as client:
        client.wait_until_healthy()
        yield client


def _post(service: HyParService, path: str, payload) -> tuple[int, dict]:
    status, body = service.handle("POST", path, json.dumps(payload).encode())
    return status, json.loads(body)


class TestGetEndpoints:
    def test_healthz_reports_caches_and_workers(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert set(health["endpoints"]) == {
            "/partition", "/simulate", "/sweep", "/replan",
            "/models", "/strategies", "/healthz",
        }
        assert health["degraded"] is False
        assert health["requests"]["timeouts"] == 0
        assert health["sim_engines"] == {
            "default": "analytic",
            "valid": ["analytic", "network"],
        }
        assert health["requests"]["stale_served"] == 0
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(
            health["result_cache"]
        )
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(
            health["table_cache"]
        )
        assert health["uptime_seconds"] >= 0

    def test_models_lists_the_zoo(self, client):
        names = [model["name"] for model in client.models()["models"]]
        assert "VGG-A" in names and "ResNet-S" in names
        # Parameterized families list at their default depths.
        assert "gpt_s-12" in names and "bert_s-12" in names
        assert len(names) == 15

    def test_strategies_lists_the_registry(self, client):
        shorts = [spec["short"] for spec in client.strategies()["strategies"]]
        assert shorts == ["dp", "mp", "pp"]


class TestPartitionEndpoint:
    def test_partition_matches_the_offline_search(self, client):
        from repro.analysis.experiments import ExperimentRunner
        from repro.accelerator.array import ArrayConfig
        from repro.nn.model_zoo import lenet_c

        served = client.partition(model="Lenet-c", batch_size=64, num_accelerators=4)
        offline = ExperimentRunner(
            array=ArrayConfig(num_accelerators=4), batch_size=64
        ).optimized_parallelism(lenet_c())
        assert served["total_communication_bytes"] == offline.total_communication_bytes
        assert [level["assignment"] for level in served["levels"]] == [
            [choice.short for choice in level.assignment] for level in offline.levels
        ]
        assert served["layers"] == ["conv1", "conv2", "fc1", "fc2"]

    def test_repeated_requests_hit_the_cache(self, client):
        fields = {"model": "Lenet-c", "batch_size": 32, "num_accelerators": 4}
        client.partition(**fields)
        hits_before = client.healthz()["result_cache"]["hits"]
        for _ in range(5):
            client.partition(**fields)
        hits_after = client.healthz()["result_cache"]["hits"]
        assert hits_after >= hits_before + 5

    def test_equivalent_spellings_share_one_entry(self, client):
        canonical = client.partition(model="Lenet-c", batch_size=48, num_accelerators=4)
        misses_before = client.healthz()["result_cache"]["misses"]
        aliased = client.partition(num_accelerators=4, model="lenet", batch_size=48)
        assert client.healthz()["result_cache"]["misses"] == misses_before
        assert aliased == canonical


class TestSimulateEndpoint:
    def test_simulate_returns_the_grid_point_row(self, client):
        result = client.simulate(model="Lenet-c", batch_size=64, num_accelerators=4)
        row = result["row"]
        assert row["hypar_speedup"] > 0
        assert row["hypar_step_seconds"] > 0
        assert row["model"] == "Lenet-c"
        assert result["label"] == "Lenet-c/b64/n4/htree/parallelism-aware/dp,mp"

    def test_single_accelerator_baseline_point(self, client):
        row = client.simulate(model="SFC", batch_size=64, num_accelerators=1)["row"]
        assert row["single_step_seconds"] > 0
        assert "hypar_speedup" not in row

    def test_network_engine_point_is_labelled_and_differs(self, client):
        analytic = client.simulate(
            model="Lenet-c", batch_size=64, num_accelerators=4
        )
        network = client.simulate(
            model="Lenet-c", batch_size=64, num_accelerators=4,
            sim_engine="network",
        )
        assert network["label"] == analytic["label"] + "/network"
        assert network["request"]["sim_engine"] == "network"
        assert "sim_engine" not in analytic["request"]
        assert network["row"]["sim_engine"] == "network"
        assert "sim_engine" not in analytic["row"]
        assert (
            network["row"]["data_parallelism_step_seconds"]
            < analytic["row"]["data_parallelism_step_seconds"]
        )


class TestSweepEndpoint:
    def test_sweep_bytes_match_the_cli_artifact(self, client, tmp_path):
        served = client.request("POST", "/sweep", {"spec": TINY_SPEC})
        assert served.status == 200
        result = run_sweep(SweepSpec.from_json(TINY_SPEC))
        paths = result.write_artifacts(str(tmp_path))
        with open(paths["json"], "rb") as handle:
            assert served.body == handle.read()

    def test_sweep_by_preset_is_cached(self, client):
        first = client.request("POST", "/sweep", {"spec": TINY_SPEC})
        hits_before = client.healthz()["result_cache"]["hits"]
        second = client.request("POST", "/sweep", {"spec": TINY_SPEC})
        assert second.body == first.body
        assert client.healthz()["result_cache"]["hits"] == hits_before + 1


class TestMalformedRequests:
    def test_invalid_json_body(self, client):
        response = client.request("POST", "/partition", None)
        # No payload at all -> empty body.
        assert response.status == 400
        assert "body" in response.json()["error"]

    def test_unparseable_json_names_the_problem(self, live_server):
        status, body = live_server.service.handle("POST", "/partition", b"{nope")
        assert status == 400
        assert "not valid JSON" in json.loads(body)["error"]

    def test_unknown_field_lists_known_fields(self, client):
        response = client.request("POST", "/partition", {"model": "SFC", "batches": 4})
        assert response.status == 400
        error = response.json()["error"]
        assert "batches" in error and "known fields" in error

    def test_unknown_model_lists_the_zoo(self, client):
        response = client.request("POST", "/partition", {"model": "nope"})
        assert response.status == 400
        assert "known models" in response.json()["error"]

    def test_wrong_method_is_405(self, client):
        response = client.request("GET", "/partition")
        assert response.status == 405
        assert "POST" in response.json()["error"]

    def test_unknown_path_is_404_with_endpoint_table(self, client):
        response = client.request("GET", "/nope")
        assert response.status == 404
        assert "/partition" in response.json()["endpoints"]

    def test_errors_count_in_healthz(self, client):
        errors_before = client.healthz()["requests"]["errors"]
        client.request("POST", "/partition", {"model": "nope"})
        assert client.healthz()["requests"]["errors"] == errors_before + 1


class TestTransportHardening:
    """Raw-socket abuse of the HTTP layer (headers the client never sends)."""

    @staticmethod
    def _raw_exchange(server, request: bytes) -> bytes:
        import socket as socket_module

        with socket_module.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        ) as sock:
            sock.sendall(request)
            sock.shutdown(socket_module.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    def test_negative_content_length_is_a_400_not_a_hang(self, live_server):
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: -1\r\n\r\n",
        )
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"invalid Content-Length" in response

    def test_non_numeric_content_length_is_a_400(self, live_server):
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: abc\r\n\r\n",
        )
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"invalid Content-Length" in response

    def test_oversized_body_is_a_413_and_closes_the_connection(self, live_server):
        # A pipelined valid request rides behind the oversized one; the
        # unread body desynchronizes the stream, so the server must close
        # after the 413 instead of parsing the stale bytes as a request.
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2097152\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        status_line = response.split(b"\r\n", 1)[0]
        assert b"413" in status_line
        assert b"exceeds" in response
        assert b"Connection: close" in response
        assert response.count(b"HTTP/1.1") == 1

    def test_chunked_body_is_a_411_and_closes_the_connection(self, live_server):
        # Left unread, the chunk-size line would be parsed as the next
        # request and answered with a second, unasked-for 400.
        body = b'{"model":"SFC"}'
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n",
        )
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in head
        assert "Transfer-Encoding" in json.loads(payload)["error"]
        assert response.count(b"HTTP/1.1") == 1

    def test_conflicting_content_lengths_are_a_400_and_close(self, live_server):
        body = b'{"model":"SFC"}'
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\ncontent-length: 3\r\n\r\n" % len(body) + body,
        )
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "conflicting Content-Length" in json.loads(payload)["error"]
        assert response.count(b"HTTP/1.1") == 1

    def test_repeated_equal_content_length_is_accepted(self, live_server):
        body = b'{"model":"SFC","batch_size":64,"num_accelerators":4}'
        response = self._raw_exchange(
            live_server,
            b"POST /partition HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\nContent-Length: %d \r\n\r\n" % (len(body), len(body))
            + body,
        )
        head, _, payload = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert json.loads(payload)["model"] == "SFC"


class TestServiceUnit:
    def test_lru_evicts_at_cache_size(self):
        with HyParService(cache_size=2) as service:
            for batch in (16, 24, 40):
                status, _ = _post(
                    service,
                    "/partition",
                    {"model": "Lenet-c", "batch_size": batch, "num_accelerators": 4},
                )
                assert status == 200
            stats = service.result_cache.stats()
            assert stats["size"] == 2
            assert stats["evictions"] == 1
            # The evicted (least recently used) first request recomputes.
            _post(
                service,
                "/partition",
                {"model": "Lenet-c", "batch_size": 16, "num_accelerators": 4},
            )
            assert service.result_cache.stats()["misses"] == 4

    def test_concurrent_identical_requests_compile_the_table_once(self):
        # A batch size no other test uses, so the compiled-table cache
        # provably goes from cold to warm inside this test.
        payload = {"model": "Lenet-c", "batch_size": 112, "num_accelerators": 4}
        table_misses_before = shared_table_cache().misses
        with HyParService(cache_size=8) as service:
            results: list[tuple[int, dict]] = []
            barrier = threading.Barrier(6)

            def fire():
                barrier.wait(5.0)
                results.append(_post(service, "/partition", payload))

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)

            assert [status for status, _ in results] == [200] * 6
            bodies = [body for _, body in results]
            assert all(body == bodies[0] for body in bodies)
            assert service.result_cache.stats()["misses"] == 1
        assert shared_table_cache().misses == table_misses_before + 1

    def test_healthz_lists_no_search_backends(self):
        with HyParService(cache_size=2) as service:
            status, body = service.handle("GET", "/healthz", None)
        assert status == 200
        assert "backends" not in json.loads(body)

    def test_partition_serves_only_the_numpy_backend(self):
        payload = {"model": "Lenet-c", "num_accelerators": 4}
        with HyParService(cache_size=4) as service:
            status, body = _post(service, "/partition", {**payload, "backend": "compiled"})
            assert status == 400
            assert body["error"] == "field 'backend' must be 'numpy', got 'compiled'"
            _, implicit = _post(service, "/partition", payload)
            status, explicit = _post(service, "/partition", {**payload, "backend": "numpy"})
            assert status == 200
            assert explicit == implicit
            assert service.result_cache.stats()["misses"] == 1

    def test_unexpected_exception_is_a_500_not_a_crash(self, monkeypatch):
        with HyParService(cache_size=2) as service:
            monkeypatch.setattr(
                service, "_partition_body", lambda request: 1 / 0
            )
            status, body = _post(service, "/partition", {"model": "SFC"})
            assert status == 500
            assert "internal error" in body["error"]


class TestServeLifecycle:
    def test_serve_shuts_down_cleanly_on_stop_event(self):
        ready = threading.Event()
        stop = threading.Event()
        codes: list[int] = []

        def run():
            codes.append(
                serve(
                    port=0,
                    ready=ready,
                    stop=stop,
                    install_signal_handlers=False,
                )
            )

        thread = threading.Thread(target=run)
        thread.start()
        assert ready.wait(10.0)
        stop.set()
        thread.join(10.0)
        assert codes == [0]

    def test_serve_freezes_the_boot_heap_until_it_returns(self):
        ready = threading.Event()
        stop = threading.Event()
        thread = threading.Thread(
            target=serve,
            kwargs={"port": 0, "ready": ready, "stop": stop, "install_signal_handlers": False},
        )
        thread.start()
        try:
            assert ready.wait(10.0)
            frozen_while_serving = gc.get_freeze_count()
        finally:
            stop.set()
            thread.join(10.0)
        assert not thread.is_alive()
        assert frozen_while_serving > 0
        # An embedder gets its collector back once serve() returns.
        assert gc.get_freeze_count() == 0

    def test_serve_handles_sigterm_in_the_main_thread(self):
        # The real CI/ops teardown path: SIGTERM against a serving daemon.
        # serve() runs here in the main thread (signal handlers require
        # it); a helper thread delivers the signal once the socket is up.
        ready = threading.Event()

        def shoot():
            assert ready.wait(10.0)
            os.kill(os.getpid(), signal.SIGTERM)

        shooter = threading.Thread(target=shoot)
        shooter.start()
        assert serve(port=0, ready=ready) == 0
        shooter.join(5.0)
        # The previous SIGTERM disposition was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL


class TestCliDefaults:
    def test_parser_defaults_match_the_service_constants(self):
        from repro.cli import build_parser
        from repro.service.cache import DEFAULT_CACHE_SIZE

        args = build_parser().parse_args(["serve"])
        assert args.host == DEFAULT_HOST
        assert args.port == DEFAULT_PORT
        assert args.cache_size == DEFAULT_CACHE_SIZE
        assert args.workers == 1
        assert args.handler.__name__ == "_cmd_serve"

    def test_parser_accepts_overrides(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4", "--cache-size", "16"]
        )
        assert (args.port, args.workers, args.cache_size) == (0, 4, 16)
