"""The CI workflow file is valid and runs the real gate.

Structural checks on ``.github/workflows/ci.yml``: the YAML parses, the
matrix covers the supported interpreters, and the jobs actually invoke
``tools/check.sh``, the benchmark-regression comparison and perfbench's
self-checks (a workflow that silently runs nothing would green-light
every PR).
"""

import os

import pytest

WORKFLOW = os.path.join(os.path.dirname(__file__), os.pardir,
                        ".github", "workflows", "ci.yml")


@pytest.fixture(scope="module")
def source() -> str:
    with open(WORKFLOW) as fh:
        return fh.read()


@pytest.fixture(scope="module")
def doc(source):
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load(source)


class TestWorkflowDocument:
    def test_parses_to_a_mapping(self, doc):
        assert isinstance(doc, dict)
        assert doc.get("name") == "CI"

    def test_triggers_on_push_and_pull_request(self, doc):
        # PyYAML 1.1 parses the bare key `on` as boolean True.
        triggers = doc.get("on", doc.get(True))
        assert "pull_request" in triggers
        assert triggers["push"]["branches"] == ["main"]

    def test_check_job_matrix_covers_supported_pythons(self, doc):
        matrix = doc["jobs"]["check"]["strategy"]["matrix"]
        assert matrix["python-version"] == ["3.10", "3.11", "3.12"]

    def test_check_job_runs_the_gate_script(self, doc):
        steps = doc["jobs"]["check"]["steps"]
        runs = [step.get("run", "") for step in steps]
        assert any("tools/check.sh" in run for run in runs)
        assert any('pip install -e ".[test]"' in run for run in runs)

    def test_check_job_raises_perf_ceiling_not_the_default(self, doc):
        env = doc["jobs"]["check"]["env"]
        assert float(env["REPRO_PERF_CEILING_S"]) > 6.0

    def test_bench_job_compares_against_stashed_baseline(self, doc):
        steps = doc["jobs"]["bench-regression"]["steps"]
        runs = [step.get("run", "") for step in steps]
        stash = next(i for i, run in enumerate(runs)
                     if "cp benchmarks/output/BENCH_suite.json" in run)
        bench = next(i for i, run in enumerate(runs)
                     if "bench_perf_suite" in run)
        compare = next(i for i, run in enumerate(runs)
                       if "compare_baseline" in run)
        # The bench overwrites the committed baseline in place, so the
        # stash must precede it and the comparison must follow it.
        assert stash < bench < compare

    def test_bench_job_uploads_fresh_numbers(self, doc):
        steps = doc["jobs"]["bench-regression"]["steps"]
        uploads = [s for s in steps if "upload-artifact" in s.get("uses", "")]
        assert uploads and uploads[0].get("if") == "always()"

    def test_perfbench_job_runs_the_benchmark_self_checks(self, doc):
        job = doc["jobs"]["perfbench-selfcheck"]
        assert "continue-on-error" not in job
        runs = [step.get("run", "") for step in job["steps"]]
        install = next(i for i, run in enumerate(runs)
                       if 'pip install -e ".[test]"' in run)
        tests = next(i for i, run in enumerate(runs)
                     if "pytest -q perfbench" in run)
        assert install < tests

    def test_lint_job_is_advisory(self, doc):
        job = doc["jobs"]["lint-advisory"]
        assert job["continue-on-error"] is True
        runs = [step.get("run", "") for step in job["steps"]]
        assert any("ruff check" in run for run in runs)
        assert any("mypy" in run for run in runs)

    def test_all_jobs_pin_checkout_and_python_actions(self, doc):
        for job in doc["jobs"].values():
            uses = [step.get("uses", "") for step in job["steps"]]
            assert any(u.startswith("actions/checkout@v") for u in uses)
            assert any(u.startswith("actions/setup-python@v") for u in uses)


class TestWorkflowSource:
    """Fallback string checks that hold even without PyYAML installed."""

    def test_caches_pip_keyed_on_pyproject(self, source):
        assert "cache: pip" in source
        assert "cache-dependency-path: pyproject.toml" in source

    def test_every_supported_python_listed(self, source):
        for version in ("3.10", "3.11", "3.12"):
            assert f'"{version}"' in source
