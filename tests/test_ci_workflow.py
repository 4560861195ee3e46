"""Validate the hosted CI pipeline definition.

The workflow file is executable configuration: a malformed document or a
renamed job silently disables the test/perf/lint gates, so tier-1 keeps a
structural check on it.  PyYAML is optional everywhere else, hence the
import guard.
"""

import glob
import os
import re

import pytest

yaml = pytest.importorskip("yaml")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")


@pytest.fixture(scope="module")
def workflow():
    with open(WORKFLOW, "r", encoding="utf-8") as fh:
        document = yaml.safe_load(fh)
    assert isinstance(document, dict)
    return document


class TestWorkflowDocument:
    def test_file_exists(self):
        assert os.path.exists(WORKFLOW)

    def test_triggers_on_push_and_pull_request(self, workflow):
        # PyYAML parses the bare `on:` key as boolean True.
        triggers = workflow.get("on", workflow.get(True))
        assert "pull_request" in triggers
        assert "push" in triggers

    def test_has_separate_lint_test_and_perf_jobs(self, workflow):
        jobs = workflow["jobs"]
        assert {"lint", "tests", "perf-gate"} <= set(jobs)

    def test_test_job_runs_python_matrix(self, workflow):
        matrix = workflow["jobs"]["tests"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_test_job_runs_pytest(self, workflow):
        steps = workflow["jobs"]["tests"]["steps"]
        commands = " ".join(step.get("run", "") for step in steps)
        assert "pytest" in commands

    def test_test_job_gates_serving_and_degenerate_suites(self, workflow):
        steps = workflow["jobs"]["tests"]["steps"]
        commands = " ".join(step.get("run", "") for step in steps)
        for suite in ("tests/test_serving_modes.py", "tests/test_degenerate_inputs.py"):
            assert suite in commands
            assert os.path.exists(os.path.join(REPO_ROOT, suite))

    def test_test_job_gates_serve_suites_with_forced_workers(self, workflow):
        # The serve suites run as their own named step with REPRO_WORKERS=2,
        # so the multi-process sharding path is exercised on hosted runners
        # regardless of how many CPUs they expose.
        steps = workflow["jobs"]["tests"]["steps"]
        serve_steps = [
            step
            for step in steps
            if "tests/test_serve_sharded.py" in step.get("run", "")
            and "tests/test_serve_service.py" in step.get("run", "")
        ]
        assert serve_steps, "no named step runs the tests/test_serve*.py suites"
        env = serve_steps[0].get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        for suite in ("tests/test_serve_sharded.py", "tests/test_serve_service.py"):
            assert os.path.exists(os.path.join(REPO_ROOT, suite))

    def test_test_job_gates_fault_injection_with_forced_workers(self, workflow):
        # The chaos suite must run as its own named step with REPRO_WORKERS=2:
        # supervision, retry/timeout/hedging and degraded mode only mean
        # anything over a real multi-process pool.  The pool's own contract
        # suite (crashes, close, large payloads, concurrent submitters) runs
        # in the same step.
        steps = workflow["jobs"]["tests"]["steps"]
        fault_steps = [
            step for step in steps if "tests/test_serve_faults.py" in step.get("run", "")
        ]
        assert fault_steps, "no named step runs tests/test_serve_faults.py"
        assert fault_steps[0].get("name"), "the fault-injection step must be named"
        assert "tests/test_utils_parallel.py" in fault_steps[0]["run"]
        env = fault_steps[0].get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        for suite in ("test_serve_faults.py", "test_utils_parallel.py"):
            assert os.path.exists(os.path.join(REPO_ROOT, "tests", suite))

    def test_test_job_runs_scenario_smoke_with_forced_workers(self, workflow):
        # One short fixed-seed chaos-drift scenario runs through the real
        # CLI as its own named step: the full drift -> retrain -> canary ->
        # promote loop plus a worker kill, on every matrix version, with
        # REPRO_WORKERS=2 forcing the genuine multi-process recovery path.
        steps = workflow["jobs"]["tests"]["steps"]
        scenario_steps = [
            step
            for step in steps
            if "repro.experiments.cli scenario" in step.get("run", "")
        ]
        assert scenario_steps, "no named step runs the scenario smoke"
        step = scenario_steps[0]
        assert step.get("name"), "the scenario smoke step must be named"
        assert "chaos-drift" in step["run"]
        assert "--seed" in step["run"], "the smoke must pin its seed"
        env = step.get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        assert env.get("PYTHONPATH") == "src"

    def test_test_job_runs_front_door_smoke_with_forced_workers(self, workflow):
        # The async front door runs end to end as its own named step: the
        # HTTP endpoint over a live service, 200 mixed-tenant requests
        # replayed through POST /sample, every remote fingerprint asserted
        # byte-identical to the in-process table (the CLI exits nonzero on
        # a mismatch).  REPRO_WORKERS=2 forces the real pool underneath.
        steps = workflow["jobs"]["tests"]["steps"]
        smoke_steps = [
            step
            for step in steps
            if "repro.experiments.cli serve" in step.get("run", "")
            and "--http" in step.get("run", "")
        ]
        assert smoke_steps, "no named step runs the HTTP front-door smoke"
        step = smoke_steps[0]
        assert step.get("name"), "the front-door smoke step must be named"
        assert "--requests 200" in step["run"]
        assert "--json" in step["run"]
        env = step.get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        assert env.get("PYTHONPATH") == "src"

    def test_front_door_smoke_scrapes_metrics(self, workflow):
        # The smoke also scrapes GET /metrics over the live endpoint and
        # validates the Prometheus text page (the CLI exits nonzero when a
        # required repro_serve_* series is missing or the content type is
        # wrong), so the exposition surface is exercised on every push.
        steps = workflow["jobs"]["tests"]["steps"]
        smoke_steps = [
            step
            for step in steps
            if "repro.experiments.cli serve" in step.get("run", "")
            and "--http" in step.get("run", "")
        ]
        assert smoke_steps, "no named step runs the HTTP front-door smoke"
        assert "--check-metrics" in smoke_steps[0]["run"]

    def test_test_job_runs_chaos_cli_with_forced_workers(self, workflow):
        # The serving CLI runs under a fault plan as its own named step: a
        # worker kill, chunk failures and a straggler past its deadline with
        # hedging on, every served table checked against the fault-free
        # reference (the CLI exits nonzero on a mismatch).
        steps = workflow["jobs"]["tests"]["steps"]
        chaos_steps = [
            step
            for step in steps
            if "repro.experiments.cli serve" in step.get("run", "")
            and "--fault-plan" in step.get("run", "")
        ]
        assert chaos_steps, "no named step runs the chaos CLI"
        step = chaos_steps[0]
        assert step.get("name"), "the chaos CLI step must be named"
        for flag in ("kill@1", "--chunk-timeout", "--hedge-multiplier", "--json"):
            assert flag in step["run"]
        env = step.get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        assert env.get("PYTHONPATH") == "src"

    def test_test_job_runs_serving_examples_with_forced_workers(self, workflow):
        # The narrated serving examples run end to end as their own named
        # step, so an API change that breaks them fails CI.  REPRO_WORKERS=2
        # forces the real pool underneath.
        steps = workflow["jobs"]["tests"]["steps"]
        example_steps = [step for step in steps if "examples/serving_throughput.py" in step.get("run", "")]
        assert example_steps, "no named step runs the serving examples"
        step = example_steps[0]
        assert step.get("name"), "the serving-examples step must be named"
        assert "examples/tracing_demo.py" in step["run"]
        env = step.get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        assert env.get("PYTHONPATH") == "src"

    def test_test_job_runs_serving_suites_under_dev_mode(self, workflow):
        # The serving suites run once more under ``python -X dev`` with
        # ResourceWarning and unraisable-exception warnings as errors, so a
        # leaked socket or an exception lost in a destructor fails CI.
        steps = workflow["jobs"]["tests"]["steps"]
        dev_steps = [step for step in steps if "python -X dev -m pytest" in step.get("run", "")]
        assert dev_steps, "no named step runs the serving suites under -X dev"
        step = dev_steps[0]
        assert step.get("name"), "the -X dev step must be named"
        for flag in ("-W error::ResourceWarning", "-W error::pytest.PytestUnraisableExceptionWarning"):
            assert flag in step["run"]
        suites = (
            "tests/test_serve_service.py",
            "tests/test_serve_http.py",
            "tests/test_serve_sharded.py",
            "tests/test_serve_faults.py",
            "tests/test_obs_serving.py",
            "tests/test_utils_parallel.py",
            "tests/test_scenarios.py",
            "tests/test_serve_stats_schema.py",
            "tests/test_cli_extra.py::TestServeChaosCLI",
        )
        for suite in suites:
            assert suite in step["run"]
            assert os.path.exists(os.path.join(REPO_ROOT, suite.split("::")[0]))
        env = step.get("env") or {}
        assert str(env.get("REPRO_WORKERS")) == "2"
        assert env.get("PYTHONPATH") == "src"

    def test_perf_gate_required_kernels_cover_the_serving_stack(self):
        # The committed baseline must keep measuring the serving kernels: a
        # refactor that silently drops them should fail the perf gate, not
        # shrink its coverage.
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_regression", os.path.join(REPO_ROOT, "benchmarks", "check_regression.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert {
            "serve_sharded_tvae",
            "serve_sharded_tabddpm",
            "serve_sharded_tvae_faulty",
            "serve_front_door",
            "encode_categorical_codes",
            "serve_traced",
        } <= module.REQUIRED_KERNELS
        import json

        with open(os.path.join(REPO_ROOT, "benchmarks", "BENCH_hotpaths.json")) as fh:
            baseline = json.load(fh)
        recorded = {rec["kernel"] for rec in baseline["records"]}
        assert module.REQUIRED_KERNELS <= recorded

    def test_perf_baseline_bounds_tracing_overhead(self):
        # The committed baseline is the observability plane's cost contract:
        # the serve_traced kernel times the identical serving request with
        # and without a Tracer installed, and the traced path must stay
        # within 5% of the untraced one.
        import json

        with open(os.path.join(REPO_ROOT, "benchmarks", "BENCH_hotpaths.json")) as fh:
            baseline = json.load(fh)
        by_variant = {}
        for rec in baseline["records"]:
            if rec["kernel"] == "serve_traced":
                by_variant[rec["variant"]] = rec
        assert by_variant.get("seed") and by_variant.get("optimized")
        untraced = by_variant["seed"]["seconds"]
        traced = by_variant["optimized"]["seconds"]
        assert untraced * 1.05 >= traced, (
            f"tracing overhead exceeds 5%: untraced {untraced:.4f}s vs traced {traced:.4f}s"
        )
        # The baseline also documents the span volume one request produces.
        assert by_variant["optimized"]["extra"]["spans_per_request"] > 0

    def test_perf_baseline_pool_beats_one_worker(self):
        # serve_scaling times the same fast request in-process at one worker
        # (seed) and on the warm pool at the core budget (optimized).
        import json

        with open(os.path.join(REPO_ROOT, "benchmarks", "BENCH_hotpaths.json")) as fh:
            baseline = json.load(fh)
        by_variant = {rec["variant"]: rec for rec in baseline["records"] if rec["kernel"] == "serve_scaling"}
        assert by_variant["optimized"]["seconds"] < by_variant["seed"]["seconds"]
        extra = by_variant["optimized"]["extra"]
        assert extra["workers"] >= 2
        assert extra["parallel_efficiency"] > 1.0 / extra["workers"]
        assert {"cores", "blas_threads"} <= set(baseline["meta"])

    def test_perf_baseline_times_seed_and_optimized_with_equal_repeats(self):
        # A speedup counts only when both sides keep their best of the same
        # number of runs, as BenchmarkRegistry.measure times them.
        import json

        with open(os.path.join(REPO_ROOT, "benchmarks", "BENCH_hotpaths.json")) as fh:
            baseline = json.load(fh)
        repeats = {}
        for rec in baseline["records"]:
            repeats.setdefault((rec["kernel"], rec["size"]), {})[rec["variant"]] = rec["repeats"]
        pairs = {key: by_variant for key, by_variant in repeats.items() if {"seed", "optimized"} <= set(by_variant)}
        assert pairs
        unequal = [
            f"{kernel} @ {size}: seed x{by_variant['seed']}, optimized x{by_variant['optimized']}"
            for (kernel, size), by_variant in sorted(pairs.items())
            if by_variant["seed"] != by_variant["optimized"]
        ]
        assert not unequal, "unequal repeats:\n" + "\n".join(unequal)

    @pytest.mark.parametrize("workers, pooled, expected", [(2.0, 0.9, 0), (2.0, 1.1, 1), (1.0, 1.1, 0)])
    def test_perf_gate_fails_when_the_pool_is_slower(self, workers, pooled, expected):
        import importlib.util

        from repro.utils.profiling import BenchmarkRegistry

        spec = importlib.util.spec_from_file_location(
            "check_regression", os.path.join(REPO_ROOT, "benchmarks", "check_regression.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        fresh, baseline = BenchmarkRegistry(), BenchmarkRegistry()
        for kernel in module.REQUIRED_KERNELS:
            for registry in (fresh, baseline):
                registry.record(kernel, "seed", "n=1", 1.0)
                registry.record(kernel, "optimized", "n=1", 1.0)
        fresh.records = [rec for rec in fresh.records if (rec.kernel, rec.variant) != ("serve_scaling", "optimized")]
        fresh.record("serve_scaling", "optimized", "n=1", pooled, extra={"workers": workers})
        assert module.compare(fresh, baseline, threshold=2.0) == expected

    def test_perf_gate_runs_benchmarks_ci_with_loose_factor(self, workflow):
        steps = workflow["jobs"]["perf-gate"]["steps"]
        commands = " ".join(step.get("run", "") for step in steps)
        assert "benchmarks.ci" in commands
        assert "--factor" in commands

    def test_perf_gate_writes_job_summary(self, workflow):
        steps = workflow["jobs"]["perf-gate"]["steps"]
        commands = " ".join(step.get("run", "") for step in steps)
        assert "GITHUB_STEP_SUMMARY" in commands

    def test_lint_job_runs_ruff_check_and_format(self, workflow):
        steps = workflow["jobs"]["lint"]["steps"]
        commands = " ".join(step.get("run", "") for step in steps)
        assert "ruff check" in commands
        assert "ruff format --check" in commands

    def test_jobs_use_pip_caching(self, workflow):
        cached = 0
        for job in workflow["jobs"].values():
            for step in job["steps"]:
                with_block = step.get("with") or {}
                if with_block.get("cache") == "pip":
                    cached += 1
        assert cached >= 2

    def test_every_requirement_is_imported(self):
        # CI installs only what it runs: every distribution listed is imported
        # (or importorskip'd) by some .py file under src/, tests/, benchmarks/
        # or examples/.
        path = os.path.join(REPO_ROOT, ".github", "workflows", "requirements-ci.txt")
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
        distributions = [re.split(r"[<>=!~;\[\s]", line, maxsplit=1)[0] for line in lines if line]
        assert distributions
        imported = set()
        for top in ("src", "tests", "benchmarks", "examples"):
            for source in glob.glob(os.path.join(REPO_ROOT, top, "**", "*.py"), recursive=True):
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
                imported.update(re.findall(r"^\s*(?:import|from)\s+(\w+)", text, re.MULTILINE))
                imported.update(re.findall(r"importorskip\(\s*['\"](\w+)", text))
        modules = {name: {"PyYAML": "yaml"}.get(name, name.lower().replace("-", "_")) for name in distributions}
        assert not [name for name, module in modules.items() if module not in imported]
