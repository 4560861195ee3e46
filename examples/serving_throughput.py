#!/usr/bin/env python
"""Serving tour: register a fitted surrogate, then serve it sharded.

The production story of the repo in one script:

1. fit a TVAE surrogate on a synthetic PanDA trace (offline, once),
2. register the snapshot in a :class:`~repro.serve.ModelRegistry` — the
   registry warm-starts the packed serving caches, so the first request
   after a (re)start costs the same as the thousandth,
3. serve a burst of concurrent requests through a
   :class:`~repro.serve.SamplingService`: each request is a
   :class:`~repro.serve.RequestSpec` (fast mode unless it asks for
   ``"exact"``), the dispatcher pipelines them over the worker pool (it
   refills the pool from the fair queue each time it delivers a request,
   so the chunks of every request in flight share the workers), each
   request keeps its own seed, and throughput/latency come back from
   ``stats()``,
4. demonstrate the sharding contract on the engine below the service, which
   takes the model's own ``(n, seed=..., sampling_mode=...)`` form: the
   bytes of a request depend only on ``(seed, chunk_size)`` — re-serving
   the same request on a different worker count returns the identical table.

Run with:  python examples/serving_throughput.py
(Set REPRO_WORKERS to pin the worker count; it defaults to the CPUs the
process may actually use.)
"""

import time

from repro import GeneratorConfig, PandaWorkloadGenerator
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.serve import ModelRegistry, RequestSpec, SamplingService, ShardedSampler
from repro.tabular import train_test_split

CHUNK_SIZE = 8_192
REQUESTS = 8
ROWS_PER_REQUEST = 25_000


def main() -> None:
    # 1. Offline: data + training (serving never retrains in the request path).
    generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=8000, seed=11))
    train, _test = train_test_split(generator.generate_training_table(), 0.2, seed=11)
    model = TVAESurrogate(
        TVAEConfig(latent_dim=16, hidden_dims=(64,), epochs=10, batch_size=256), seed=0
    ).fit(train)
    print(f"fitted {model.name} on {len(train)} rows")

    # 2. Register the snapshot (versioned, caches warm-started).
    registry = ModelRegistry("registry-demo", warm_chunk_rows=CHUNK_SIZE)
    version = registry.register("tvae-demo", model)
    print(f"registered tvae-demo {version} at {registry.path_of('tvae-demo', version)}")

    # 3. Serve a burst of concurrent requests.  ``submit`` returns handles
    #    immediately; requests queued together share one sharded pool pass.
    with SamplingService(
        registry.get("tvae-demo"), chunk_size=CHUNK_SIZE, max_inflight_rows=500_000
    ) as service:
        start = time.perf_counter()
        requests = [
            service.submit(RequestSpec(ROWS_PER_REQUEST, seed=1000 + i))
            for i in range(REQUESTS)
        ]
        tables = [request.result() for request in requests]
        elapsed = time.perf_counter() - start
        stats = service.stats()
        total = sum(len(t) for t in tables)
        print(
            f"served {total:,d} rows in {elapsed:.2f}s with {service.workers} worker(s): "
            f"{total / elapsed:,.0f} rows/s"
        )
        print(
            f"  latency p50 {stats.p50_latency * 1e3:.1f} ms / "
            f"p95 {stats.p95_latency * 1e3:.1f} ms, queue depth {stats.queue_depth}"
        )

    # 4. The sharding contract: worker count never changes the bytes.
    reference = None
    for workers in (1, 2):
        with ShardedSampler(model, workers=workers, chunk_size=CHUNK_SIZE) as sampler:
            table = sampler.sample(30_000, seed=42, sampling_mode="fast")
        if reference is None:
            reference = table
        else:
            assert table == reference, "sharding must not change the output bytes"
    print("sharding contract holds: 1-worker and 2-worker outputs are identical")


if __name__ == "__main__":
    main()
