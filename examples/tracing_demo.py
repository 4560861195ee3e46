#!/usr/bin/env python
"""Observability tour: trace a served request end to end, then export it.

The ``repro.obs`` story in one script:

1. fit a cheap surrogate and serve a few mixed-tenant requests through a
   :class:`~repro.serve.SamplingService` with a
   :class:`~repro.obs.tracing.Tracer` installed,
2. walk one request's span tree — ``request`` → ``admission`` /
   ``queue_wait`` / ``dispatch`` / ``chunk[i]`` → ``attempt[j]`` →
   ``worker_compute`` / ``assemble`` / ``deliver`` — and show the
   identity trick that stitched it together:
   trace and span IDs hash the request seed's ``SeedSequence`` identity,
   so worker-side spans land under the parent trace with no context
   header crossing the pool,
3. export the whole run as Chrome ``trace_event`` JSON — open
   ``tracing_demo_trace.json`` at https://ui.perfetto.dev to see every
   worker process as its own lane under the shared timeline,
4. print the Prometheus text page the same run produced (the ``/metrics``
   surface the front door serves in production).

Run with:  python examples/tracing_demo.py
"""

import numpy as np

from repro.models.smote import SMOTESurrogate
from repro.obs.tracing import Tracer, trace_id_from_seed
from repro.serve import RequestSpec, SamplingService
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

CHUNK_SIZE = 2_048
ROWS_PER_REQUEST = 8_192
TRACE_PATH = "tracing_demo_trace.json"


def training_table(n=4_000, seed=11) -> Table:
    rng = np.random.default_rng(seed)
    data = {
        "cpu_hours": rng.lognormal(2.0, 1.0, n),
        "input_gb": rng.lognormal(1.0, 1.2, n),
        "site": rng.choice([f"site{i:02d}" for i in range(12)], n),
        "status": rng.choice(["finished", "failed", "cancelled"], n, p=[0.8, 0.15, 0.05]),
    }
    return Table(
        data,
        TableSchema.from_columns(
            numerical=["cpu_hours", "input_gb"], categorical=["site", "status"]
        ),
    )


def main() -> None:
    model = SMOTESurrogate(k_neighbors=5).fit(training_table())
    tracer = Tracer()

    # 1. Serve a small mixed-tenant burst with tracing on.  Tracing never
    #    changes the served bytes (tests/test_obs_serving.py asserts it) —
    #    it only records where each request's time went.
    with SamplingService(
        model, workers=2, chunk_size=CHUNK_SIZE, tracer=tracer
    ) as service:
        handles = [
            service.submit(
                RequestSpec(
                    ROWS_PER_REQUEST,
                    seed=100 + i,
                    tenant=("analysis", "production")[i % 2],
                    priority=("interactive", "batch")[i % 2],
                )
            )
            for i in range(4)
        ]
        for handle in handles:
            handle.result()
        metrics_text = service.metrics.render_prometheus()
    print(f"served {len(handles)} requests, recorded {len(tracer)} spans")

    # 2. Walk the first request's tree.  Its trace ID is a pure function of
    #    the request seed — anyone holding seed 100 can find this trace.
    trace = trace_id_from_seed(100)
    spans = tracer.traces()[trace]
    print(f"\ntrace {trace} (request seed=100): {len(spans)} spans")
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        depth = 0
        parent = span.parent_id
        while parent in by_id:
            depth += 1
            parent = by_id[parent].parent_id
        origin = "worker" if span.name == "worker_compute" else "parent"
        print(
            f"  {'  ' * depth}{span.name:<16} {span.duration * 1e3:8.3f} ms "
            f"[{origin} pid {span.pid}]"
        )

    # 3. Export for Perfetto.  *.json selects the Chrome trace_event format;
    #    a .jsonl path would write one JSON object per span instead.
    exported = tracer.export(TRACE_PATH)
    print(f"\nwrote {exported} spans to {TRACE_PATH} — open it at https://ui.perfetto.dev")

    # 4. The same run's metrics, as the /metrics page would serve them.
    wanted = ("repro_serve_requests_total", "repro_serve_rows_total")
    print("\nmetrics (excerpt of the Prometheus text page):")
    for line in metrics_text.splitlines():
        if line.startswith(wanted):
            print(f"  {line}")


if __name__ == "__main__":
    main()
