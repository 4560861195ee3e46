"""The front door's contract: one RequestSpec, many doors, same bytes.

Three layers, bottom up:

* :class:`RequestSpec` — the request layer's only form (validation,
  integer row counts, JSON payload parsing, the ``rows`` alias), and the
  rule that the sharded engine takes only the model's ``(n, seed,
  sampling_mode)``, so the form alone decides the default mode;
* the backend router — most-free-slots placement across named backends,
  pinning, slot release, load counted past the slot cap;
* :class:`FrontDoor` — multi-backend routing plus the stdlib HTTP
  endpoint: a served table round-trips through JSON byte-identically
  (same fingerprint), admission rejections surface as ``429`` with a
  ``Retry-After`` header, malformed requests as ``400``, and a request
  over a full in-flight budget waits for it and is served.

The settable values of the serving configuration surface are pinned too.
"""

import dataclasses
import inspect
import io
import json
import logging
import socket
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro.serve
from repro.models.base import Surrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.serve import (
    PRIORITY_CLASSES,
    AdmissionPolicy,
    ChunkPolicy,
    FrontDoor,
    RequestSpec,
    SamplingService,
    ShardedSampler,
    priority_weight,
    table_fingerprint,
)
from repro.serve.http import MAX_BODY_BYTES, _Router
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from test_serve_service import _slow_model  # noqa: E402

CHUNK = 50


def _table(n=400, seed=29):
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.normal(size=n) * 3.0,
        "cat": rng.choice(["a", "b", "c"], n),
        "site": rng.choice([f"s{i}" for i in range(9)], n),
    }
    return Table(
        data, TableSchema.from_columns(numerical=["x"], categorical=["cat", "site"])
    )


@pytest.fixture(scope="module")
def tvae():
    return TVAESurrogate(TVAEConfig.fast(), seed=5).fit(_table())


@pytest.fixture(scope="module")
def service(tvae):
    with SamplingService(tvae, workers=2, chunk_size=CHUNK) as svc:
        yield svc


def _open(request, timeout):
    """``urlopen`` whose error statuses raise an ``HTTPError`` that holds its
    body in memory: the error's own response, socket included, is closed."""
    try:
        return urllib.request.urlopen(request, timeout=timeout)
    except urllib.error.HTTPError as exc:
        with exc:
            body = exc.read()
        raise urllib.error.HTTPError(
            exc.url, exc.code, exc.reason, exc.headers, io.BytesIO(body)
        ) from None


def _post(address, path, payload, timeout=30.0):
    host, port = address
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with _open(request, timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8")), response.headers


def _get(address, path, timeout=30.0):
    host, port = address
    with _open(f"http://{host}:{port}{path}", timeout) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _raw_exchange(address, request):
    """Send raw request bytes, half-close, and read the whole response:
    ``(status, JSON body)``."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            response += data
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestRequestSpec:
    def test_defaults_and_weight(self):
        spec = RequestSpec(100, seed=7)
        assert (spec.sampling_mode, spec.tenant, spec.priority) == ("fast", "default", "normal")
        assert spec.deadline is None
        assert spec.weight == PRIORITY_CLASSES["normal"].weight == 2
        assert priority_weight("interactive") == 4
        assert priority_weight("batch") == 1
        with pytest.raises(KeyError, match="interactive"):
            priority_weight("urgent")

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            RequestSpec(-1)
        with pytest.raises(ValueError, match="sampling mode"):
            RequestSpec(10, sampling_mode="warp")
        with pytest.raises(ValueError, match="tenant"):
            RequestSpec(10, tenant="")
        with pytest.raises(ValueError, match="priority"):
            RequestSpec(10, priority="urgent")
        with pytest.raises(ValueError, match="deadline"):
            RequestSpec(10, deadline=0.0)

    def test_from_payload_accepts_rows_alias_and_rejects_unknown_keys(self):
        spec = RequestSpec.from_payload(
            {"rows": 64, "seed": 3, "tenant": "acme", "priority": "batch", "deadline": 2.5}
        )
        assert spec == RequestSpec(64, seed=3, tenant="acme", priority="batch", deadline=2.5)
        with pytest.raises(ValueError, match="unknown request field"):
            RequestSpec.from_payload({"n": 10, "rws": 10})
        with pytest.raises(ValueError, match="'n'"):
            RequestSpec.from_payload({"seed": 1})

    def test_row_count_must_be_an_integer(self):
        spec = RequestSpec(np.int64(12), seed=np.int64(3))
        assert type(spec.n) is int and spec == RequestSpec(12, seed=3)
        for bad in (10.5, 10.0, True, "10", None):
            with pytest.raises(TypeError, match="integer"):
                RequestSpec(bad)

    def test_from_payload_passes_count_and_seed_through_unconverted(self):
        for payload in ({"n": 10.7}, {"n": True}, {"n": 10, "seed": 2.5}, {"n": 10, "seed": [1, 2]}):
            with pytest.raises(TypeError):
                RequestSpec.from_payload(payload)

    def test_to_dict_round_trips_through_from_payload(self):
        spec = RequestSpec(128, seed=11, sampling_mode="exact", tenant="t0", priority="interactive")
        assert RequestSpec.from_payload(spec.to_dict()) == spec


class TestBackendRouter:
    def test_least_loaded_spreads_and_release_rebalances(self):
        router = _Router({"prod": 1, "canary": 1})
        first = router.acquire()
        second = router.acquire()
        assert {first, second} == {"prod", "canary"}
        assert router.load() == {"prod": 1, "canary": 1}
        router.release(first)
        assert router.load()[first] == 0
        # The freed backend is the least loaded again.
        assert router.acquire() == first

    def test_pinning_counts_load_and_unknown_names_raise(self):
        router = _Router({"prod": 2, "canary": 2})
        for _ in range(3):
            assert router.acquire("canary") == "canary"
        assert router.load() == {"prod": 0, "canary": 3}
        # Unpinned traffic avoids the loaded backend.
        assert router.acquire() == "prod"
        with pytest.raises(KeyError):
            router.acquire("staging")

    def test_release_is_idempotent_at_idle(self):
        router = _Router({"prod": 1})
        router.release("prod")  # nothing held: stays idle, no underflow
        assert router.load() == {"prod": 0}

    def test_load_is_counted_past_the_slot_cap(self):
        router = _Router({"prod": 1, "canary": 1})
        cap = _Router.SLOTS_PER_WORKER
        for _ in range(2 * cap + 2):
            router.acquire()
        assert router.acquire("prod") == "prod"
        assert router.load() == {"prod": cap + 2, "canary": cap + 1}
        # One release frees exactly one placement, however far past the cap.
        router.release("prod")
        assert router.load() == {"prod": cap + 1, "canary": cap + 1}


class TestFrontDoor:
    def test_slots_are_released_when_requests_resolve_unwatched(self):
        # Callers that gave up on result() and only poll done() must still
        # free their slots, or the pinned backend counts as busy for good
        # and unpinned traffic avoids it.  A cancelled request frees its
        # slot too.
        model = _slow_model(delay=0.1)
        with SamplingService(model, workers=1) as a, SamplingService(model, workers=1) as b:
            door = FrontDoor({"a": a, "b": b})
            tickets = [door.submit(RequestSpec(5, seed=i), model="a") for i in range(4)]
            assert tickets.pop().cancel()
            for ticket in tickets:
                with pytest.raises(TimeoutError):
                    ticket.result(timeout=0.01)
            deadline = time.monotonic() + 30
            while not all(ticket.done() for ticket in tickets):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert door.stats()["router"]["in_flight"] == {"a": 0, "b": 0}
            unpinned = door.submit(RequestSpec(5, seed=9))
            assert unpinned.backend == "a"  # ties go to registration order
            assert len(unpinned.result(timeout=30)) == 5

    def test_routing_never_changes_bytes(self, tvae, service):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as canary:
            door = FrontDoor({"prod": service, "canary": canary})
            assert door.models == ["prod", "canary"]
            spec = RequestSpec(110, seed=23)
            direct = service.sample(spec)
            assert door.sample(spec, model="prod") == direct
            assert door.sample(spec, model="canary") == direct
            assert door.sample(spec) == direct  # router-placed, same bytes
            door.close()

    def test_stats_tree_and_unknown_model(self, service):
        door = FrontDoor(service)
        door.sample(RequestSpec(60, seed=3, tenant="acme"))
        tree = door.stats()
        assert set(tree) == {"models", "router"}
        model_tree = tree["models"]["default"]
        for key in ("throughput", "queue", "latency", "workers", "faults", "admission", "tenants"):
            assert key in model_tree, f"stats tree missing {key!r}"
        assert "acme" in model_tree["tenants"]
        assert tree["router"]["in_flight"] == {"default": 0}
        with pytest.raises(KeyError, match="unknown model"):
            door.submit(RequestSpec(10), model="nope")
        door.close()


class TestHttpEndpoint:
    @pytest.fixture(scope="class")
    def door(self, service):
        door = FrontDoor({"prod": service})
        door.start_http()
        yield door
        door.stop_http()

    def test_sample_round_trips_byte_identically(self, door, service):
        spec = RequestSpec(80, seed=41, tenant="acme", priority="interactive")
        status, payload, _ = _post(door.address, "/sample", dict(spec.to_dict(), model="prod"))
        assert status == 200
        local = service.sample(spec)
        assert payload["rows"] == local.n_rows
        assert payload["model"] == "prod"
        assert payload["tenant"] == "acme"
        assert payload["fingerprint"] == table_fingerprint(local)
        # Rebuilding the table from the JSON columns reproduces the bytes.
        rebuilt = Table(
            {name: np.asarray(values) for name, values in payload["columns"].items()},
            local.schema,
        )
        assert table_fingerprint(rebuilt) == payload["fingerprint"]

    def test_fingerprint_only_omits_columns(self, door, service):
        spec = RequestSpec(70, seed=5)
        status, payload, _ = _post(
            door.address, "/sample", dict(spec.to_dict(), fingerprint_only=True)
        )
        assert status == 200
        assert "columns" not in payload
        assert payload["fingerprint"] == table_fingerprint(service.sample(spec))

    def test_rows_alias_matches_n(self, door):
        status_n, by_n, _ = _post(
            door.address, "/sample", {"n": 40, "seed": 9, "fingerprint_only": True}
        )
        status_rows, by_rows, _ = _post(
            door.address, "/sample", {"rows": 40, "seed": 9, "fingerprint_only": True}
        )
        assert status_n == status_rows == 200
        assert by_n["fingerprint"] == by_rows["fingerprint"]

    def test_get_routes(self, door):
        status, health = _get(door.address, "/healthz")
        assert (status, health["status"]) == (200, "ok")
        status, models = _get(door.address, "/models")
        assert status == 200
        assert models["models"]["prod"]["workers"] == 2
        status, stats = _get(door.address, "/stats")
        assert status == 200
        assert "prod" in stats["models"]
        assert "in_flight" in stats["router"]

    def test_error_statuses(self, door):
        with pytest.raises(urllib.error.HTTPError) as bad_spec:
            _post(door.address, "/sample", {"n": 10, "bogus_knob": 1})
        assert bad_spec.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as bad_model:
            _post(door.address, "/sample", {"n": 10, "model": "nope"})
        assert bad_model.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as not_found:
            _get(door.address, "/no-such-route")
        assert not_found.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as wrong_method:
            _get(door.address, "/sample")
        assert wrong_method.value.code == 405

    @pytest.mark.parametrize(
        "length, body, status",
        [
            ("abc", b"", 400),
            ("-5", b"", 400),
            ("100", b'{"n": 10}', 400),  # the body ends short of its length
            (str(MAX_BODY_BYTES + 1), b"", 413),
            ("9" * 5000, b"", 413),
        ],
        ids=["not-a-number", "negative", "short-body", "over-the-limit", "5000-digits"],
    )
    def test_bad_content_length_is_a_client_error(self, door, length, body, status):
        request = (
            "POST /sample HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1")
        got, payload = _raw_exchange(door.address, request + body)
        assert got == status
        assert "Content-Length" in payload["error"]

    def test_fractional_count_or_seed_is_a_400(self, door):
        for body in ({"n": 10.7}, {"rows": 10.2}, {"n": 10, "seed": 2.5}):
            with pytest.raises(urllib.error.HTTPError) as bad:
                _post(door.address, "/sample", body)
            assert bad.value.code == 400, body

    def test_admission_rejection_maps_to_429_with_retry_after(self, tvae):
        # max_queue_depth=0 rejects every request up front: the clean way to
        # exercise the 429 path without racing a real backlog.
        with SamplingService(
            tvae,
            workers=1,
            chunk_size=CHUNK,
            admission=AdmissionPolicy(max_queue_depth=0),
        ) as svc:
            door = FrontDoor({"prod": svc})
            door.start_http()
            try:
                with pytest.raises(urllib.error.HTTPError) as rejected:
                    _post(door.address, "/sample", {"n": 10, "seed": 1})
                assert rejected.value.code == 429
                assert int(rejected.value.headers["Retry-After"]) >= 1
                body = json.loads(rejected.value.read().decode("utf-8"))
                assert body["reason"] == "queue_depth"
                # The slot the rejected request briefly held was released.
                assert door.stats()["router"]["in_flight"] == {"prod": 0}
            finally:
                door.stop_http()

    def test_a_request_over_a_full_budget_waits_and_gets_a_200(self):
        # An 80-row request the slow model serves in 0.5 s fills the
        # 100-row budget: a 50-row POST waits for that budget rather than
        # being turned away, and is served once the first is delivered.
        with SamplingService(
            _slow_model(delay=0.5), workers=1, chunk_size=1000, max_inflight_rows=100
        ) as svc:
            door = FrontDoor({"prod": svc})
            door.start_http()
            try:
                blocking = svc.submit(RequestSpec(80, seed=1))
                status, payload, _ = _post(
                    door.address, "/sample", {"n": 50, "seed": 2, "fingerprint_only": True}
                )
                assert blocking.done()
            finally:
                door.stop_http()
        assert status == 200
        assert payload["rows"] == 50

    def test_failed_generation_is_a_500_naming_its_cause(self):
        # A failed generation reaches the client as its cause, and the log
        # as its traceback.
        records = []
        handler = logging.Handler(logging.ERROR)
        handler.emit = records.append
        logger = logging.getLogger("repro.serve.http")
        logger.addHandler(handler)
        with SamplingService(_BrokenSurrogate().fit(_table(8)), workers=1) as svc:
            door = FrontDoor({"prod": svc})
            door.start_http()
            try:
                with pytest.raises(urllib.error.HTTPError) as failed:
                    _post(door.address, "/sample", {"n": 10, "seed": 1})
                body = json.loads(failed.value.read().decode("utf-8"))
            finally:
                door.stop_http()
                logger.removeHandler(handler)
        assert failed.value.code == 500
        assert body["error"].startswith("ChunkError: chunk 0 (10 rows) failed")
        assert "synthetic generation failure" in body["error"]
        assert [record.exc_info[0].__name__ for record in records] == ["ChunkError"]

    def test_stop_http_is_idempotent_and_restartable(self, service):
        door = FrontDoor({"prod": service})
        first = door.start_http()
        door.stop_http()
        door.stop_http()
        second = door.start_http()
        assert first != second or first[1] != 0  # fresh ephemeral bind
        status, health = _get(door.address, "/healthz")
        assert status == 200 and health["models"] == ["prod"]
        door.stop_http()


class _BrokenSurrogate(Surrogate):
    """Test double whose every sampling call fails."""

    name = "broken"

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        raise RuntimeError("synthetic generation failure")


def _shape(function):
    """``(name, kind, default)`` of every parameter but ``self``."""
    return [
        (parameter.name, parameter.kind.name, parameter.default)
        for parameter in inspect.signature(function).parameters.values()
        if parameter.name != "self"
    ]


class TestOneFormPerLayer:
    """The request layer takes only a RequestSpec; the sharded engine only the
    model's ``(n, seed, sampling_mode)``.  The form alone decides the mode."""

    def test_signatures(self):
        spec = ("spec", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty)
        assert _shape(SamplingService.submit) == [spec, ("wait", "KEYWORD_ONLY", True)]
        assert _shape(SamplingService.sample) == [spec]
        for method in (FrontDoor.submit, FrontDoor.sample):
            assert _shape(method) == [spec, ("model", "KEYWORD_ONLY", None)]
        for method in (ShardedSampler.sample, ShardedSampler.sample_batches):
            assert _shape(method) == [
                ("n", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
                ("seed", "KEYWORD_ONLY", None),
                ("sampling_mode", "KEYWORD_ONLY", "exact"),
            ]

    def test_configuration_surface(self):
        # Every settable serving value has a caller; a new knob edits this.
        assert _shape(SamplingService.__init__) == [
            ("model", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("workers", "KEYWORD_ONLY", None),
            ("chunk_size", "KEYWORD_ONLY", ShardedSampler.DEFAULT_CHUNK_SIZE),
            ("max_inflight_rows", "KEYWORD_ONLY", 4_000_000),
            ("chunk_policy", "KEYWORD_ONLY", None),
            ("fault_plan", "KEYWORD_ONLY", None),
            ("max_pool_restarts", "KEYWORD_ONLY", 5),
            ("admission", "KEYWORD_ONLY", None),
            ("microbatch_rows", "KEYWORD_ONLY", None),
            ("tracer", "KEYWORD_ONLY", None),
        ]
        assert _shape(ShardedSampler.__init__) == [
            ("model", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
            ("workers", "KEYWORD_ONLY", None),
            ("chunk_size", "KEYWORD_ONLY", ShardedSampler.DEFAULT_CHUNK_SIZE),
            ("chunk_policy", "KEYWORD_ONLY", None),
            ("fault_plan", "KEYWORD_ONLY", None),
            ("max_pool_restarts", "KEYWORD_ONLY", 5),
            ("metrics", "KEYWORD_ONLY", None),
            ("tracer", "KEYWORD_ONLY", None),
        ]
        assert [(f.name, f.default) for f in dataclasses.fields(ChunkPolicy)] == [
            ("timeout", None),
            ("max_retries", 2),
            ("hedge_multiplier", None),
        ]
        assert [(f.name, f.default) for f in dataclasses.fields(AdmissionPolicy)] == [
            ("max_queue_depth", None),
            ("max_backlog_rows", None),
        ]
        assert "AutoscalePolicy" not in repro.serve.__all__
        assert not hasattr(repro.serve, "AutoscalePolicy")
        assert not hasattr(ShardedSampler, "resize")

    def test_wrong_form_raises_type_error(self, tvae, service):
        for call in (service.submit, service.sample):
            for count in (100, np.int64(100)):
                with pytest.raises(TypeError, match="RequestSpec"):
                    call(count)
        door = FrontDoor(service)
        with pytest.raises(TypeError, match="RequestSpec"):
            door.sample(100)
        assert door.stats()["router"]["in_flight"] == {"default": 0}
        with ShardedSampler(tvae, workers=1, chunk_size=CHUNK) as sampler:
            for call in (sampler.sample, sampler.sample_batches):
                with pytest.raises(TypeError, match="integer"):
                    call(RequestSpec(100))
