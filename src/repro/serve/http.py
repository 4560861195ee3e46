"""The multi-tenant front door: one entry point over many services.

:class:`FrontDoor` fans a stream of :class:`~repro.serve.api.RequestSpec`
submissions out across named backends — one
:class:`~repro.serve.service.SamplingService` per served model or registry
stage (``prod`` / ``canary`` serving concurrently is the canonical shape).
Placement counts in-flight requests per backend in a dict: an unpinned
request lands on the backend with the most free slots (``64 × workers``
minus its in-flight count; ties go to registration order), a request naming
its ``model`` is pinned but still counted.  Routing never touches *bytes* —
a request's result is a function of its own seed, whichever backend serves
it.

The HTTP endpoint is stdlib-only (started with :meth:`FrontDoor.start_http`):
each connection gets a thread of its own, which makes the calls an
in-process caller makes — one request per connection, JSON in, JSON out.
So every POST enters the service, and its fair queue, when it arrives, and
the status routes never wait behind sample work.  On every route a
``Content-Length`` that is not a non-negative integer, or a body that ends
short of it, gets ``400``, and one above :data:`MAX_BODY_BYTES` gets
``413`` without the body being read.  A connection that stays silent for
30 s before its request is complete is closed (with ``408`` if the body
stalled), also after :meth:`FrontDoor.stop_http`.  Routes:

``POST /sample``
    Body: a JSON object with the :class:`~repro.serve.api.RequestSpec`
    fields (``n`` or ``rows``, ``seed``, ``sampling_mode``, ``tenant``,
    ``priority``, ``deadline``) plus two routing extras — ``model`` (pin a
    backend) and ``fingerprint_only`` (``true`` returns the table's SHA-256
    instead of its columns).  Responses: ``200`` with ``{"fingerprint",
    "rows", "model", "columns"?}``; ``400`` on a malformed spec; ``413`` on
    a body declared larger than :data:`MAX_BODY_BYTES`; ``429`` with a
    ``Retry-After`` header when admission control rejects
    (:class:`~repro.serve.admission.AdmissionRejected`); ``500`` with
    ``{"error": "<type>: <message>"}`` when generation fails (a
    :class:`~repro.serve.sharded.ChunkError` or any other sampling
    exception), its traceback logged.  A request that arrives while the
    backend's in-flight budget is full waits in the service's FIFO line for
    budget, then is served.
``GET /stats``
    The unified stats tree per backend (see
    :meth:`~repro.serve.service.ServiceStats.to_dict`) plus the router's
    per-backend in-flight load.
``GET /models``
    The routable backends and their worker/degraded state.
``GET /metrics``
    Prometheus text exposition (version 0.0.4) over every backend's
    :class:`~repro.obs.metrics.MetricsRegistry`, each series tagged
    ``backend="<name>"`` — the scrape surface behind the same numbers
    ``/stats`` reports (see :func:`~repro.obs.metrics.render_prometheus_multi`).
``GET /healthz``
    Liveness: ``{"status": "ok"}`` while the server accepts connections.
"""

from __future__ import annotations

import http.server
import json
import socketserver
import threading
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import render_prometheus_multi
from repro.serve.admission import AdmissionRejected
from repro.serve.api import RequestSpec, table_fingerprint
from repro.serve.service import SampleRequest, SamplingService
from repro.tabular.table import Table
from repro.utils.logging import get_logger

__all__ = ["FrontDoor", "FrontDoorTicket"]

_LOG = get_logger(__name__)

#: Largest request body read, in bytes; a ``RequestSpec`` body is under 1 KiB.
MAX_BODY_BYTES = 1 << 20


class _Router:
    """Most-free-slots placement over a dict of in-flight request counts.

    A backend has ``SLOTS_PER_WORKER × workers`` slots.  Slots are soft:
    every placement is counted, even past the cap (free slots go negative),
    because admission control, not routing, is the layer that says no.
    Thread-safe.
    """

    SLOTS_PER_WORKER = 64

    def __init__(self, workers: Mapping[str, int]) -> None:
        self._slots = {
            name: self.SLOTS_PER_WORKER * max(1, int(count)) for name, count in workers.items()
        }
        self._in_flight = dict.fromkeys(self._slots, 0)
        self._lock = threading.Lock()

    def acquire(self, backend: Optional[str] = None) -> str:
        """Occupy a slot on ``backend`` (KeyError if unknown) or, unpinned,
        on the backend with the most free slots (ties: registration order)."""
        with self._lock:
            if backend is None:
                backend = max(
                    self._slots, key=lambda name: self._slots[name] - self._in_flight[name]
                )
            self._in_flight[backend] += 1
            return backend

    def release(self, backend: str) -> None:
        """Free a slot on ``backend``; releasing an idle backend is a no-op."""
        with self._lock:
            if self._in_flight[backend] > 0:
                self._in_flight[backend] -= 1

    def load(self) -> Dict[str, int]:
        """In-flight requests per backend."""
        with self._lock:
            return dict(self._in_flight)


class FrontDoorTicket:
    """Handle for a routed request: the service handle plus its slot.

    Wraps the backend's :class:`~repro.serve.service.SampleRequest`, whose
    resolution — delivered, failed or cancelled — releases the request's
    router slot, so the most-free-slots pick sees completions as well as
    arrivals, whether or not anyone is still waiting on the ticket.
    """

    def __init__(self, inner: SampleRequest, router: _Router, backend: str) -> None:
        self._inner = inner
        #: The backend (model/stage name) this request was routed to.
        self.backend = backend
        inner.add_done_callback(lambda _request: router.release(backend))

    @property
    def spec(self) -> RequestSpec:
        return self._inner.spec

    @property
    def latency(self) -> Optional[float]:
        return self._inner.latency

    def done(self) -> bool:
        return self._inner.done()

    def result(self, timeout: Optional[float] = None) -> Table:
        """Block for the table (see :meth:`SampleRequest.result`)."""
        return self._inner.result(timeout)

    def cancel(self) -> bool:
        return self._inner.cancel()


class FrontDoor:
    """Route requests across named sampling services; optionally speak HTTP.

    Parameters
    ----------
    services:
        Either one :class:`SamplingService` (registered as ``"default"``)
        or a mapping of backend name → service — registry stage names
        (``prod``, ``canary``) are the intended keys for multi-stage
        serving.

    The front door does not own its services' lifecycles by default:
    :meth:`close` stops the HTTP endpoint, and ``close(services=True)``
    additionally closes every backend service.
    """

    def __init__(
        self, services: Union[SamplingService, Mapping[str, SamplingService]]
    ) -> None:
        if isinstance(services, SamplingService):
            services = {"default": services}
        if not services:
            raise ValueError("FrontDoor requires at least one backend service")
        self._services: Dict[str, SamplingService] = dict(services)
        self._router = _Router(
            {name: service.workers for name, service in self._services.items()}
        )
        self._server: Optional[_Server] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- programmatic API --------------------------------------------------------
    @property
    def models(self) -> List[str]:
        """The routable backend names, in registration order."""
        return list(self._services)

    def service(self, model: str) -> SamplingService:
        """The backend service for ``model`` (KeyError on unknown names)."""
        try:
            return self._services[model]
        except KeyError:
            known = ", ".join(self._services)
            raise KeyError(f"unknown model {model!r}; serving: {known}") from None

    def submit(self, spec: RequestSpec, *, model: Optional[str] = None) -> FrontDoorTicket:
        """Route one request and queue it on its backend.

        Unpinned requests go to the backend with the most free slots;
        ``model`` pins one.  Raises whatever the backend's admission control
        raises — routing happens first, so a rejected request's slot is
        released immediately.
        """
        if model is not None and model not in self._services:
            known = ", ".join(self._services)
            raise KeyError(f"unknown model {model!r}; serving: {known}")
        backend = self._router.acquire(model)
        try:
            inner = self._services[backend].submit(spec)
        except BaseException:
            self._router.release(backend)
            raise
        return FrontDoorTicket(inner, self._router, backend)

    def sample(self, spec: RequestSpec, *, model: Optional[str] = None) -> Table:
        """Synchronous convenience: route, wait, return the table."""
        return self.submit(spec, model=model).result()

    def stats(self) -> Dict[str, object]:
        """The unified stats tree: per-backend service stats + router load."""
        load = self._router.load()
        return {
            "models": {
                name: service.stats().to_dict()
                for name, service in self._services.items()
            },
            "router": {"in_flight": load},
        }

    def close(self, *, services: bool = False) -> None:
        """Stop the HTTP endpoint (and the backends, with ``services=True``)."""
        self.stop_http()
        if services:
            for service in self._services.values():
                service.close()

    def __enter__(self) -> "FrontDoor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the HTTP endpoint -------------------------------------------------------
    def start_http(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Serve HTTP on a background thread; returns the bound (host, port).

        ``port=0`` binds an ephemeral port (the test/CI-friendly default).
        A bind error raises here.
        """
        if self._server is not None:
            raise RuntimeError("the HTTP endpoint is already running")
        server = self._server = _Server((host, port), _Handler)
        server.door = self
        threading.Thread(
            target=server.serve_forever,
            args=(_Server.SHUTDOWN_POLL_S,),
            name="repro-serve-http",
            daemon=True,
        ).start()
        self.address = server.server_address[:2]
        return self.address

    def stop_http(self) -> None:
        """Stop accepting connections; idempotent, keeps backends serving.

        Exchanges already under way finish on their own threads; one whose
        client has not sent its whole request ends within the handler's read
        timeout.
        """
        if self._server is None:
            return
        self._server.shutdown()  # waits for serve_forever to return
        self._server.server_close()
        self._server = None
        self.address = None

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str]]:
        if path == "/sample":
            if method != "POST":
                return 405, {"error": "POST only"}, {"Allow": "POST"}
            return self._sample_response(body)
        if method != "GET":
            return 405, {"error": "GET only"}, {"Allow": "GET"}
        if path == "/stats":
            return 200, self.stats(), {}
        if path == "/metrics":
            return 200, self._metrics_page(), {}
        if path == "/models":
            models = {
                name: {"workers": service.workers, "degraded": service.degraded}
                for name, service in self._services.items()
            }
            return 200, {"models": models}, {}
        if path == "/healthz":
            return 200, {"status": "ok", "models": self.models}, {}
        return 404, {"error": f"no route for {path}"}, {}

    def _metrics_page(self) -> str:
        """The Prometheus text page over every backend's registry.

        Refreshing each service's stats first folds the point-in-time
        gauges (queue depth, workers, pool restarts) into the registries
        before rendering.
        """
        for service in self._services.values():
            service.stats()
        return render_prometheus_multi(
            {name: service.metrics for name, service in self._services.items()}
        )

    def _sample_response(self, body: bytes) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """``POST /sample``: parse, submit, wait for the table."""
        try:
            raw = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(raw, dict):
                raise ValueError("request body must be a JSON object")
            model = raw.pop("model", None)
            fingerprint_only = raw.pop("fingerprint_only", False)
            if not isinstance(fingerprint_only, bool):
                raise TypeError(f"fingerprint_only must be true or false, got {fingerprint_only!r}")
            spec = RequestSpec.from_payload(raw)
        except (ValueError, TypeError, KeyError) as exc:
            return 400, {"error": str(exc)}, {}
        try:
            ticket = self.submit(spec, model=str(model) if model is not None else None)
        except AdmissionRejected as exc:
            return (
                429,
                {"error": str(exc), "reason": exc.reason, "retry_after": exc.retry_after},
                {"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except KeyError as exc:
            return 400, {"error": str(exc)}, {}
        try:
            table = ticket.result()
        except Exception as exc:
            _LOG.error("POST /sample: generating %r failed", spec, exc_info=True)
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}
        payload: Dict[str, object] = {
            "fingerprint": table_fingerprint(table),
            "rows": table.n_rows,
            "model": ticket.backend,
            "tenant": spec.tenant,
        }
        if not fingerprint_only:
            payload["columns"] = _columns_payload(table)
        return 200, payload, {}


def _columns_payload(table: Table) -> Dict[str, List[object]]:
    """JSON-ready columns: numerical as floats, categorical as strings."""
    columns: Dict[str, List[object]] = {}
    for name in table.schema.numerical:
        columns[name] = np.asarray(table[name], dtype=np.float64).tolist()
    for name in table.schema.categorical:
        columns[name] = np.asarray(table[name]).astype(str).tolist()
    return columns


class _Server(socketserver.ThreadingTCPServer):
    """One daemon thread per connection (not ``http.server.ThreadingHTTPServer``,
    whose ``server_bind`` makes a reverse-DNS lookup with no time bound)."""

    #: ``stop_http`` must not wait for a client that keeps a connection open.
    daemon_threads = True
    #: The listen backlog: a burst of connects past the default 5 would wait
    #: out SYN retransmits.
    request_queue_size = 128
    #: A restart on a fixed port must not wait out TIME_WAIT.
    allow_reuse_address = True
    #: How often ``serve_forever`` checks for a shutdown request, in seconds.
    SHUTDOWN_POLL_S = 0.05

    door: FrontDoor

    def handle_error(self, request, client_address) -> None:
        # Only writing the response can get here: a client that hung up.
        _LOG.debug("HTTP exchange with %s broke off", client_address, exc_info=True)


class _Handler(http.server.BaseHTTPRequestHandler):
    """One HTTP exchange: read the body, route it, write the response."""

    server: _Server

    #: Seconds a socket read or write may block.  Each connection holds a
    #: thread, so a client that connects and then sends nothing, or stops
    #: halfway through its request, must not hold it for ever.  Sampling
    #: time does not count: the socket is idle while the request is served.
    timeout = 30.0

    def _exchange(self) -> None:
        status, payload, extra = 500, {"error": "internal server error"}, {}
        try:
            status, payload, extra = self._read_and_route()
        except Exception:
            # The server must keep running: record the failure, answer 500.
            _LOG.error("HTTP exchange failed", exc_info=True)
        # str payloads (the Prometheus page) ship raw; anything else is JSON.
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in extra.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    # Each method reaches the router, which answers 405 with ``Allow``.
    do_GET = do_POST = do_PUT = do_DELETE = _exchange

    def _read_and_route(self) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str]]:
        declared = self.headers.get("Content-Length", "").strip().lstrip("0") or "0"
        if not declared.isdecimal():
            return 400, {"error": f"invalid Content-Length {declared!r}"}, {}
        # The length test first: int() refuses thousands of digits.
        if len(declared) > len(str(MAX_BODY_BYTES)) or int(declared) > MAX_BODY_BYTES:
            error = f"Content-Length {declared} exceeds the {MAX_BODY_BYTES}-byte limit"
            return 413, {"error": error}, {}
        try:
            body = self.rfile.read(int(declared))
        except TimeoutError:
            self.close_connection = True
            return 408, {"error": f"request body not sent within {self.timeout:g} s"}, {}
        if len(body) < int(declared):
            error = f"body ended after {len(body)} of {declared} Content-Length bytes"
            return 400, {"error": error}, {}
        return self.server.door._route(self.command, self.path.split("?", 1)[0], body)

    def log_message(self, format: str, *args: object) -> None:
        """Silent: the default writes every request to stderr."""
