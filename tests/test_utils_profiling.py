"""Tests for repro.utils.profiling: the timing protocol and the JSON baseline."""

from types import SimpleNamespace

import pytest

from repro.utils import profiling
from repro.utils.parallel import openblas_threads, visible_cpus
from repro.utils.profiling import BenchmarkRegistry


def test_measure_interleaves_rounds_with_equal_repeats_and_keeps_each_best(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(profiling, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    durations = {"seed": iter([4.0, 1.0, 2.0]), "optimized": iter([0.5, 0.75, 0.25])}
    calls = []

    def run(variant):
        def timed():
            calls.append(variant)
            clock[0] += next(durations[variant])

        return timed

    registry = BenchmarkRegistry()
    records = registry.measure("k", "n=1", {"seed": run("seed"), "optimized": run("optimized")}, repeats=3)
    assert calls == ["seed", "optimized"] * 3
    assert {v: (r.seconds, r.repeats) for v, r in records.items()} == {"seed": (1.0, 3), "optimized": (0.25, 3)}
    assert registry.records == [records["seed"], records["optimized"]]
    assert registry.speedups() == {"k": {"n=1": 4.0}}
    with pytest.raises(ValueError, match="at least 1"):
        registry.measure("k", "n=1", {"seed": run("seed")}, repeats=0)


def test_meta_records_the_machine_shape_and_round_trips(tmp_path):
    registry = BenchmarkRegistry()
    registry.record("k", "seed", "n=1", 2.0)
    registry.record("k", "optimized", "n=1", 1.0, extra={"workers": 2.0})
    assert registry.meta["cores"] == visible_cpus()
    assert registry.meta["blas_threads"] == max(openblas_threads().values(), default=None)
    path = str(tmp_path / "bench.json")
    registry.write_json(path)
    loaded = BenchmarkRegistry.from_json(path)
    assert loaded.meta == registry.meta
    assert loaded.seconds_of("k", "optimized", "n=1") == 1.0
    assert loaded.records[1].extra == {"workers": 2.0}


def test_loaded_meta_is_the_files_not_this_machines(tmp_path):
    registry = BenchmarkRegistry()
    registry.meta.update(cores=64, blas_threads=1)
    path = str(tmp_path / "bench.json")
    registry.write_json(path)
    loaded = BenchmarkRegistry.from_json(path)
    assert (loaded.meta["cores"], loaded.meta["blas_threads"]) == (64, 1)
    loaded.write_json(path)
    assert BenchmarkRegistry.from_json(path).meta == loaded.meta
