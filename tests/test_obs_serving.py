"""The observability plane wired through the serving stack.

Three contracts:

* **span taxonomy** — a traced request records the full
  ``request → admission/queue_wait/dispatch/chunk[i] → attempt[j] →
  worker_compute/assemble/deliver`` tree, with worker-side spans
  stitched under the parent's seed-derived trace ID (no context header
  crosses the pool — the chunk's ``SeedSequence`` child *is* the context);
* **byte invisibility** — tracing never changes served bytes: sampler
  output fingerprints and scenario deterministic cores are identical with
  tracing on or off, including under an injected fault plan;
* **exposition** — ``GET /metrics`` on a live front door serves valid
  Prometheus text carrying every required ``repro_serve_*`` series, and
  scenario reports embed the per-backend registry snapshot in their
  timing layer.
"""

import os
import urllib.request

import numpy as np
import pytest

from repro.models.smote import SMOTESurrogate
from repro.obs.metrics import REQUIRED_SERVE_SERIES, validate_prometheus_text
from repro.obs.tracing import Tracer, chunk_span_id, request_span_id, trace_id_from_seed
from repro.scenarios import ScenarioEngine, get_scenario
from repro.serve import (
    FrontDoor,
    RequestSpec,
    SamplingService,
    ShardedSampler,
    table_fingerprint,
)
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

CHUNK = 64


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
def model():
    return SMOTESurrogate(k_neighbors=3).fit(_table())


@pytest.fixture(scope="module")
def traced_run(model):
    """One traced request through a live 2-worker service."""
    tracer = Tracer()
    with SamplingService(model, workers=2, chunk_size=CHUNK, tracer=tracer) as service:
        table = service.submit(
            RequestSpec(4 * CHUNK, seed=42, tenant="acme", priority="interactive")
        ).result(timeout=60)
    return tracer, table


class TestSpanTaxonomy:
    def test_single_trace_with_seed_derived_id(self, traced_run):
        tracer, _table = traced_run
        traces = tracer.traces()
        assert list(traces) == [trace_id_from_seed(42)]

    def test_full_span_taxonomy_recorded(self, traced_run):
        tracer, _table = traced_run
        names = {span.name for span in tracer.spans()}
        assert {
            "request",
            "admission",
            "queue_wait",
            "dispatch",
            "assemble",
            "deliver",
        } <= names
        assert any(name.startswith("chunk[") for name in names)
        assert any(name.startswith("attempt[") for name in names)
        assert "worker_compute" in names

    def test_root_span_and_parent_links(self, traced_run):
        tracer, _table = traced_run
        trace = trace_id_from_seed(42)
        root = request_span_id(trace)
        spans = tracer.spans()
        (request_span,) = [s for s in spans if s.name == "request"]
        assert request_span.span_id == root
        assert request_span.parent_id is None
        for span in spans:
            if span.name in ("admission", "queue_wait", "deliver", "assemble"):
                assert span.parent_id == root
            if span.name.startswith("chunk["):
                assert span.parent_id == root
        # Every worker_compute span hangs off its chunk's deterministic ID.
        chunk_ids = {chunk_span_id(trace, i) for i in range(4)}
        computes = [s for s in spans if s.name == "worker_compute"]
        assert computes
        assert {s.parent_id for s in computes} <= chunk_ids

    def test_worker_spans_recorded_in_worker_processes(self, traced_run):
        tracer, _table = traced_run
        computes = [s for s in tracer.spans() if s.name == "worker_compute"]
        assert any(span.pid != os.getpid() for span in computes)

    def test_request_attrs_carry_tenant_and_priority(self, traced_run):
        tracer, _table = traced_run
        (request_span,) = [s for s in tracer.spans() if s.name == "request"]
        assert request_span.attrs["tenant"] == "acme"
        assert request_span.attrs["priority"] == "interactive"


class TestInProcessSpans:
    def test_single_worker_request_records_chunk_and_compute_spans(self, model):
        tracer = Tracer()
        with SamplingService(model, workers=1, chunk_size=CHUNK, tracer=tracer) as service:
            service.submit(RequestSpec(3 * CHUNK, seed=42)).result(timeout=60)
        trace = trace_id_from_seed(42)
        spans = tracer.spans()
        chunks = {s.name: s for s in spans if s.name.startswith("chunk[")}
        assert sorted(chunks) == ["chunk[0]", "chunk[1]", "chunk[2]"]
        for i in range(3):
            assert chunks[f"chunk[{i}]"].span_id == chunk_span_id(trace, i)
            assert chunks[f"chunk[{i}]"].parent_id == request_span_id(trace)
        computes = [s for s in spans if s.name == "worker_compute"]
        assert sorted(s.parent_id for s in computes) == sorted(
            chunk_span_id(trace, i) for i in range(3)
        )


class TestStatsFromRegistry:
    def test_latency_percentiles_are_the_histogram_quantiles(self, model):
        with SamplingService(model, workers=1, chunk_size=CHUNK) as service:
            for i, (tenant, priority) in enumerate(
                [("acme", "batch"), ("acme", "interactive"), ("beta", "normal")]
            ):
                service.sample(RequestSpec(CHUNK, seed=i, tenant=tenant, priority=priority))
            stats = service.stats()
            latency = service.metrics.get("repro_serve_request_latency_seconds")
        assert latency.total_count() == 3
        assert stats.p50_latency == latency.quantile(0.50)
        assert stats.p95_latency == latency.quantile(0.95)
        assert set(stats.tenants) == {"acme", "beta"}
        for tenant, values in stats.tenants.items():
            assert values["p50_wait_s"] == latency.quantile(0.50, tenant=tenant)
            assert values["p95_wait_s"] == latency.quantile(0.95, tenant=tenant)


class TestByteInvisibility:
    def test_sampler_bytes_identical_traced_vs_untraced(self, model):
        with ShardedSampler(model, workers=2, chunk_size=CHUNK) as plain:
            expected = table_fingerprint(plain.sample(300, seed=5))
        with ShardedSampler(
            model, workers=2, chunk_size=CHUNK, tracer=Tracer()
        ) as traced:
            actual = table_fingerprint(traced.sample(300, seed=5))
        assert actual == expected


#: The chaos-drift proving ground, scaled to CI size — drift plus a worker
#: kill armed at tick 3, so the invariance check below covers tracing under
#: an injected FaultPlan (retries, pool restart, resubmission) too.
CHAOS_DRIFT_SMALL = get_scenario("chaos-drift").scaled(
    ticks=8,
    window_rows=256,
    train_rows=1024,
    canary_rows=512,
    fault_arm_ticks=(3,),
)


@pytest.fixture(scope="module")
def scenario_reports():
    untraced = ScenarioEngine(CHAOS_DRIFT_SMALL, seed=7, workers=2).run()
    tracer = Tracer()
    traced = ScenarioEngine(CHAOS_DRIFT_SMALL, seed=7, workers=2, tracer=tracer).run()
    return untraced, traced, tracer


class TestScenarioInvariance:
    def test_deterministic_core_identical_with_tracing_on_or_off(self, scenario_reports):
        untraced, traced, _tracer = scenario_reports
        assert traced.deterministic_dict() == untraced.deterministic_dict()
        assert traced.faults_injected > 0  # the kill genuinely fired

    def test_traced_run_recorded_spans(self, scenario_reports):
        _untraced, _traced, tracer = scenario_reports
        names = {span.name for span in tracer.spans()}
        assert "request" in names and "worker_compute" in names

    def test_report_timing_layer_carries_obs_snapshots(self, scenario_reports):
        _untraced, traced, _tracer = scenario_reports
        obs = traced.as_dict()["timing"]["obs"]
        assert obs, "scenario reports must embed per-backend metric snapshots"
        for snapshot in obs.values():
            assert "repro_serve_requests_total" in snapshot
        # The obs block never leaks into the deterministic core.
        assert "obs" not in traced.deterministic_dict()


class TestMetricsExposition:
    @pytest.fixture(scope="class")
    def door(self, model):
        with SamplingService(model, workers=2, chunk_size=CHUNK) as service:
            service.submit(RequestSpec(2 * CHUNK, seed=9, tenant="acme")).result(timeout=60)
            door = FrontDoor({"prod": service})
            door.start_http()
            yield door
            door.stop_http()
            door.close()

    def test_metrics_page_is_valid_prometheus_text(self, door):
        host, port = door.address
        with urllib.request.urlopen(f"http://{host}:{port}/metrics", timeout=30) as response:
            assert response.status == 200
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert validate_prometheus_text(text, required=REQUIRED_SERVE_SERIES) == []
        assert 'backend="prod"' in text

    def test_stats_tree_still_serves_alongside_metrics(self, door):
        import json

        host, port = door.address
        with urllib.request.urlopen(f"http://{host}:{port}/stats", timeout=30) as response:
            payload = json.loads(response.read().decode("utf-8"))
        assert payload["models"]["prod"]["throughput"]["total_requests"] >= 1
