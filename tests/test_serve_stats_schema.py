"""Golden-keys test for the :meth:`ServiceStats.to_dict` tree.

The stats tree is a public schema with three consumers — the CLI ``--json``
payloads, HTTP ``GET /stats`` and the scenario reports' ``timing.service``
block — and (since the ``repro.obs`` refactor) a *view* over the service's
``MetricsRegistry``.  This test pins the exact key set at every level, so a
registry-side refactor that drops or renames a field fails here instead of
silently changing three downstream surfaces.
"""

import numpy as np
import pytest

from repro.models.smote import SMOTESurrogate
from repro.obs.metrics import REQUIRED_SERVE_SERIES
from repro.serve import AdmissionPolicy, RequestSpec, SamplingService
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

#: The contract: every level of the stats tree, exactly.
GOLDEN_SCHEMA = {
    "throughput": {"rows_per_second", "total_requests", "total_rows", "uptime_s"},
    "queue": {"depth", "in_flight_rows"},
    "latency": {"p50_s", "p95_s"},
    "workers": {"current", "degraded"},
    "faults": {
        "pool_restarts",
        "chunk_retries",
        "chunk_timeouts",
        "hedges",
        "hedge_wins",
        "degraded_passes",
        "cancelled_requests",
    },
    "admission": {
        "admitted",
        "rejected",
        "rejected_queue_depth",
        "rejected_backlog_rows",
        "rejected_deadline",
    },
}

GOLDEN_TENANT_KEYS = {"requests", "rows", "p50_wait_s", "p95_wait_s"}


def _table(n=300, seed=3):
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.normal(size=n),
        "cat": rng.choice(["a", "b", "c"], n),
    }
    return Table(data, TableSchema.from_columns(numerical=["x"], categorical=["cat"]))


@pytest.fixture(scope="module")
def stats():
    model = SMOTESurrogate(k_neighbors=3).fit(_table())
    with SamplingService(
        model, workers=1, chunk_size=64, admission=AdmissionPolicy(max_queue_depth=64)
    ) as service:
        for i, tenant in enumerate(["alice", "bob", "alice"]):
            service.submit(RequestSpec(100, seed=10 + i, tenant=tenant)).result(timeout=30)
        return service.stats()


class TestStatsSchema:
    def test_top_level_keys(self, stats):
        tree = stats.to_dict()
        assert set(tree) == set(GOLDEN_SCHEMA) | {"tenants"}

    def test_nested_keys_exact(self, stats):
        tree = stats.to_dict()
        for section, keys in GOLDEN_SCHEMA.items():
            assert set(tree[section]) == keys, f"schema drift in {section!r}"

    def test_tenant_entries_exact(self, stats):
        tree = stats.to_dict()
        assert set(tree["tenants"]) == {"alice", "bob"}
        for tenant, values in tree["tenants"].items():
            assert set(values) == GOLDEN_TENANT_KEYS, f"schema drift in tenant {tenant!r}"

    def test_counts_flow_through_the_registry(self, stats):
        # The tree is a view over the MetricsRegistry: the request/row
        # totals on it must match what the instruments recorded.
        tree = stats.to_dict()
        assert tree["throughput"]["total_requests"] == 3
        assert tree["throughput"]["total_rows"] == 300
        assert tree["tenants"]["alice"]["requests"] == 2
        assert tree["tenants"]["bob"]["rows"] == 100
        assert tree["admission"]["admitted"] == 3

    def test_json_round_trip(self, stats):
        import json

        assert json.loads(json.dumps(stats.to_dict()))["queue"]["depth"] == 0

    def test_required_prometheus_series_cover_the_tree(self):
        # The /metrics page's required-series contract names the serving
        # metrics the schema above is computed from.
        assert "repro_serve_requests_total" in REQUIRED_SERVE_SERIES
        assert "repro_serve_queue_depth" in REQUIRED_SERVE_SERIES
