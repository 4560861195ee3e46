"""Tests for repro.utils.profiling: the benchmark registry's JSON baseline."""

from repro.utils.parallel import openblas_threads, visible_cpus
from repro.utils.profiling import BenchmarkRegistry


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
