"""Unit tests for the observability plane (``repro.obs``).

Metrics: counter/gauge/histogram semantics, the registry's get-or-create
contract, Prometheus text rendering and its validator.  Tracing: the
seed-derived trace/span identity scheme (the property the cross-process
stitching relies on) and both export formats.
"""

import json
import math

import numpy as np
import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    render_prometheus_multi,
    validate_prometheus_text,
)
from repro.obs.tracing import (
    Span,
    Tracer,
    chunk_span_id,
    make_span,
    request_span_id,
    span_id,
    trace_id_from_child,
    trace_id_from_seed,
    wall_clock,
)


class TestCounter:
    def test_inc_and_total(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "served requests")
        counter.inc()
        counter.inc(2.0)
        assert counter.total() == 3.0

    def test_labeled_series(self):
        registry = MetricsRegistry()
        counter = registry.counter("rows_total", labels=("tenant",))
        counter.inc(10, tenant="a")
        counter.inc(5, tenant="b")
        counter.inc(1, tenant="a")
        assert counter.value(tenant="a") == 11.0
        assert counter.value(tenant="b") == 5.0
        assert counter.total() == 16.0
        assert counter.series() == {("a",): 11.0, ("b",): 5.0}

    def test_missing_label_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("tenant",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_negative_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(4)
        assert gauge.value() == 4.0
        gauge.add(-1)
        assert gauge.value() == 3.0


class TestHistogram:
    def test_count_and_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        for value in [0.001, 0.002, 0.004, 0.008, 0.5]:
            hist.observe(value)
        assert hist.count() == 5
        assert hist.total_count() == 5
        # Quantiles come from bucket upper bounds: monotone and bounded by
        # the largest bucket containing an observation.
        p50 = hist.quantile(0.5)
        p99 = hist.quantile(0.99)
        assert 0.0 < p50 <= p99
        # The p99 lands inside the bucket holding the 0.5s outlier (the
        # standard one-doubling histogram_quantile resolution).
        assert 0.25 <= p99 <= 0.512

    def test_quantile_merges_series_matching_a_label_subset(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wait_seconds", labels=("tenant", "priority"))
        for value in (0.001, 0.002):
            hist.observe(value, tenant="a", priority="batch")
        hist.observe(0.5, tenant="a", priority="interactive")
        hist.observe(0.004, tenant="b", priority="batch")
        merged = registry.histogram("merged_seconds")
        for value in (0.001, 0.002, 0.5):
            merged.observe(value)
        # tenant="a" merges both of its priority series, and nothing of "b".
        for q in (0.5, 0.95):
            assert hist.quantile(q, tenant="a") == merged.quantile(q)
        assert hist.quantile(0.5, tenant="a", priority="batch") < hist.quantile(0.99, tenant="a")
        assert hist.quantile(0.5, tenant="nobody") == 0.0
        with pytest.raises(ValueError):
            hist.quantile(0.5, region="eu")

    def test_default_buckets_log_spaced(self):
        assert len(DEFAULT_LATENCY_BUCKETS) == 21
        assert all(
            b2 == pytest.approx(2.0 * b1)
            for b1, b2 in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        a = registry.counter("c", labels=("tenant",))
        b = registry.counter("c", labels=("tenant",))
        assert a is b

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c")
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("tenant",))
        with pytest.raises(ValueError):
            registry.counter("c", labels=("priority",))

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(0.01)
        snap = registry.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["g"]["type"] == "gauge"
        assert snap["h"]["type"] == "histogram"
        hist_values = snap["h"]["values"][""]  # the unlabelled series
        assert {"count", "sum", "p50", "p95", "p99"} <= set(hist_values)


class TestPrometheusText:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "requests", labels=("tenant",)).inc(
            2, tenant='we"ird\\'
        )
        registry.gauge("repro_depth", "depth").set(3)
        registry.histogram("repro_wait_seconds", "wait").observe(0.01)
        return registry

    def test_render_and_validate_round_trip(self):
        text = self._populated().render_prometheus()
        assert "# TYPE repro_requests_total counter" in text
        assert "# HELP repro_depth depth" in text
        assert "repro_wait_seconds_bucket" in text
        problems = validate_prometheus_text(
            text,
            required=("repro_requests_total", "repro_depth", "repro_wait_seconds_bucket"),
        )
        assert problems == []

    def test_validate_reports_missing_required_series(self):
        text = self._populated().render_prometheus()
        problems = validate_prometheus_text(text, required=("repro_nonexistent_total",))
        assert any("repro_nonexistent_total" in p for p in problems)

    def test_multi_registry_render_tags_backend(self):
        prod, canary = self._populated(), self._populated()
        text = render_prometheus_multi({"prod": prod, "canary": canary})
        assert 'backend="prod"' in text
        assert 'backend="canary"' in text
        assert validate_prometheus_text(text, required=("repro_requests_total",)) == []


class TestTraceIdentity:
    def test_trace_id_deterministic_for_int_seed(self):
        assert trace_id_from_seed(42) == trace_id_from_seed(42)
        assert trace_id_from_seed(42) != trace_id_from_seed(43)

    def test_trace_id_random_for_none_seed(self):
        assert trace_id_from_seed(None) != trace_id_from_seed(None)

    def test_child_recovers_parent_trace_id(self):
        # The cross-process stitching trick: a worker holding only chunk i's
        # SeedSequence child derives the same trace ID the parent derived
        # from the request seed.
        parent = np.random.SeedSequence(42)
        for child in parent.spawn(4):
            assert trace_id_from_child(child) == trace_id_from_seed(parent)

    def test_span_ids_deterministic_and_distinct(self):
        trace = trace_id_from_seed(7)
        assert request_span_id(trace) == request_span_id(trace)
        assert chunk_span_id(trace, 0) != chunk_span_id(trace, 1)
        assert span_id(trace, "admission") != span_id(trace, "queue_wait")

    def test_wall_clock_maps_perf_stamp_to_epoch(self):
        import time

        now = wall_clock(time.perf_counter())
        assert abs(now - time.time()) < 1.0


class TestTracer:
    def _spanful_tracer(self):
        tracer = Tracer()
        trace = trace_id_from_seed(1)
        root = request_span_id(trace)
        tracer.record_span(
            "request", trace, span_id=root, start=100.0, duration=2.0
        )
        tracer.record_span(
            "chunk[0]",
            trace,
            span_id=chunk_span_id(trace, 0),
            parent_id=root,
            start=100.5,
            duration=1.0,
            attrs={"rows": 512},
        )
        return tracer, trace

    def test_record_and_traces_grouping(self):
        tracer, trace = self._spanful_tracer()
        assert len(tracer) == 2
        grouped = tracer.traces()
        assert list(grouped) == [trace]
        assert [s.name for s in grouped[trace]] == ["request", "chunk[0]"]

    def test_span_context_manager_measures(self):
        tracer = Tracer()
        trace = trace_id_from_seed(2)
        with tracer.span("work", trace, span_id=span_id(trace, "work")):
            pass
        (span,) = tracer.spans()
        assert span.name == "work"
        assert span.duration >= 0.0

    def test_make_span_clamps_negative_duration(self):
        span = make_span("s", "t", span_id="i", start=0.0, duration=-1.0)
        assert span.duration == 0.0

    def test_export_jsonl(self, tmp_path):
        tracer, _trace = self._spanful_tracer()
        path = tmp_path / "spans.jsonl"
        assert tracer.export(str(path)) == 2
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["request", "chunk[0]"]
        assert records[1]["attrs"] == {"rows": 512}

    def test_export_chrome(self, tmp_path):
        tracer, trace = self._spanful_tracer()
        path = tmp_path / "trace.json"
        assert tracer.export(str(path)) == 2  # .json selects the chrome format
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["args"]["trace_id"] == trace
            assert math.isfinite(event["ts"]) and event["dur"] > 0

    def test_clear(self):
        tracer, _trace = self._spanful_tracer()
        tracer.clear()
        assert len(tracer) == 0

    def test_span_as_dict_round_trip(self):
        span = Span(
            name="s", trace_id="t", span_id="i", parent_id=None,
            start=1.0, duration=0.5, pid=1, tid=2, attrs={},
        )
        assert json.loads(json.dumps(span.as_dict()))["name"] == "s"
