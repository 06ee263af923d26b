"""Whole-program greenlint: call graph construction and rules GL6-GL10.

The graph tests drive :class:`~repro.lint.graph.ProjectGraph` directly on
a synthetic fixture package (recursion cycles, protocol dispatch,
decorated functions); each rule then gets a golden-finding fixture, and
the shipped baseline is asserted *exact* — no stale entries, no
findings the baseline does not list.
"""

import ast
import json
import os
import textwrap

from repro.cli import main
from repro.lint import lint_paths, lint_source, load_baseline, render_json
from repro.lint.baseline import apply_baseline
from repro.lint.engine import Finding, LintResult, ModuleContext, ProjectContext
from repro.lint.graph import ProjectGraph

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
GRAPH_RULES = ["GL6", "GL7", "GL8", "GL9", "GL10"]
# The shipped-baseline tests must mirror the full project-scope select
# that tools/check.sh runs, or newer rules' entries would read as stale.
PROJECT_RULES = GRAPH_RULES + [f"GL{n}" for n in range(11, 19)]
BASELINE = os.path.join(ROOT, "tools", "greenlint-baseline.json")
#: The trees the CI baseline stage lints (tools/check.sh must match).
BASELINED_TREES = [os.path.join(ROOT, d) for d in ("src", "tests", "tools")]


def build_graph(files: dict) -> ProjectGraph:
    project = ProjectContext()
    modules = [
        ModuleContext(path=path, source=src, tree=ast.parse(src),
                      project=project)
        for path, src in sorted(files.items())
    ]
    return ProjectGraph.build(modules)


def run_rule(code: str, source: str, path: str = "mod.py"):
    return lint_source(textwrap.dedent(source), path=path, select=[code])


# ---------------------------------------------------------------------------
# Call-graph construction on a synthetic fixture package
# ---------------------------------------------------------------------------

FIXTURE_PKG = {
    "pkg/device.py": textwrap.dedent("""
        from typing import Protocol

        class Device(Protocol):
            def service(self, n: int) -> float: ...
    """),
    "pkg/impl.py": textwrap.dedent("""
        class Hdd:
            def service(self, n: int) -> float:
                return float(n)

        class Telemetry:
            def service(self) -> None:
                pass
    """),
    "pkg/flow.py": textwrap.dedent("""
        from pkg.device import Device

        def traced(fn):
            return fn

        @traced
        def ping(n):
            return pong(n - 1) if n else 0

        def pong(n):
            return ping(n)

        def drive(dev, n: int) -> float:
            return dev.service(n)

        def drive_typed(dev: Device, n: int) -> float:
            return dev.service(n)
    """),
}


class TestGraphConstruction:
    def test_mutual_recursion_cycle_is_in_the_graph(self):
        graph = build_graph(FIXTURE_PKG)
        assert "pkg/flow.py::pong" in graph.callees("pkg/flow.py::ping")
        assert "pkg/flow.py::ping" in graph.callees("pkg/flow.py::pong")

    def test_decorated_function_keeps_its_summary(self):
        graph = build_graph(FIXTURE_PKG)
        info = graph.functions["pkg/flow.py::ping"]
        assert info.name == "ping"
        assert any(site.name == "pong" for site in info.calls)

    def test_untyped_receiver_dispatches_by_signature(self):
        # ``dev.service(n)`` with an untyped receiver reaches every
        # compatible implementation, but not the zero-argument
        # ``Telemetry.service`` that could never bind the call.
        graph = build_graph(FIXTURE_PKG)
        callees = graph.callees("pkg/flow.py::drive")
        assert "pkg/impl.py::Hdd.service" in callees
        assert "pkg/impl.py::Telemetry.service" not in callees

    def test_protocol_typed_receiver_reaches_implementations(self):
        graph = build_graph(FIXTURE_PKG)
        callees = graph.callees("pkg/flow.py::drive_typed")
        assert "pkg/impl.py::Hdd.service" in callees

    def test_builtin_typed_receiver_never_dispatches_to_project_code(self):
        # ``self._entries.get(...)`` on a dict must not resolve to some
        # project method that happens to be named ``get``.
        files = dict(FIXTURE_PKG)
        files["pkg/store.py"] = textwrap.dedent("""
            class Store:
                def __init__(self):
                    self._entries = {}

                def get(self, key):
                    return self._entries.get(key)
        """)
        graph = build_graph(files)
        assert graph.callees("pkg/store.py::Store.get") == ()


# ---------------------------------------------------------------------------
# Golden findings, one per rule
# ---------------------------------------------------------------------------

class TestGL6Purity:
    def test_wall_clock_reachable_from_root_is_flagged(self):
        result = run_rule("GL6", """
            import time

            def run_experiment(spec):
                return measure(spec)

            def measure(spec):
                return time.time()
        """)
        assert [f.code for f in result.findings] == ["GL6"]
        assert "wall-clock" in result.findings[0].message
        assert "run_experiment" in result.findings[0].message

    def test_unreachable_impurity_is_not_flagged(self):
        result = run_rule("GL6", """
            import time

            def helper():
                return time.time()
        """)
        assert result.findings == []

    def test_unseeded_rng_reachable_from_root_is_flagged(self):
        result = run_rule("GL6", """
            import numpy as np

            def run_experiment(spec):
                rng = np.random.default_rng()
                return rng.random()
        """)
        assert [f.code for f in result.findings] == ["GL6"]
        assert "default_rng" in result.findings[0].message


class TestGL7LockDiscipline:
    INJECTED_UNGUARDED_WRITE = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0  # gl: guarded-by=_lock

            def bump(self):
                self.total += 1

            def safe_bump(self):
                with self._lock:
                    self.total += 1
    """

    def test_injected_unguarded_write_is_caught(self):
        result = run_rule("GL7", self.INJECTED_UNGUARDED_WRITE)
        assert [f.code for f in result.findings] == ["GL7"]
        finding = result.findings[0]
        assert "Counter.bump" in finding.message
        assert "self._lock" in finding.message
        # The guarded write in safe_bump and the constructor are clean.
        assert "safe_bump" not in finding.message

    def test_declaration_naming_unknown_lock_is_inconsistent(self):
        result = run_rule("GL7", """
            import threading

            class Bad:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.x = 0  # gl: guarded-by=_mutex
        """)
        assert [f.code for f in result.findings] == ["GL7"]
        assert "owns no lock attribute" in result.findings[0].message


class TestGL8LockOrder:
    def test_self_deadlock_reacquisition(self):
        result = run_rule("GL8", """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """)
        assert {f.code for f in result.findings} == {"GL8"}
        assert any("re-acquire" in f.message for f in result.findings)

    def test_ab_ba_inversion_over_the_call_graph(self):
        result = run_rule("GL8", """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

                def hit(self, b: "B"):
                    with self._lock:
                        b.poke()

                def poke(self):
                    with self._lock:
                        pass

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def hit(self, a: "A"):
                    with self._lock:
                        a.poke()

                def poke(self):
                    with self._lock:
                        pass
        """)
        cycle_findings = [f for f in result.findings
                          if "lock-order cycle" in f.message]
        assert len(cycle_findings) >= 2
        assert any("A.hit" in f.message for f in cycle_findings)
        assert any("B.hit" in f.message for f in cycle_findings)

    def test_consistent_order_is_clean(self):
        result = run_rule("GL8", """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()

                def hit(self, b: "B"):
                    with self._lock:
                        b.poke()

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        pass
        """)
        assert result.findings == []


class TestGL9EnergyConservation:
    def test_discarded_joule_result_is_flagged(self):
        result = run_rule("GL9", """
            def stage_energy_j(n: int) -> float:
                return n * 1.5

            def tally(n: int) -> None:
                stage_energy_j(n)
        """)
        assert [f.code for f in result.findings] == ["GL9"]
        assert "discarded" in result.findings[0].message

    def test_never_used_energy_local_is_flagged(self):
        result = run_rule("GL9", """
            def stage_energy_j(n: int) -> float:
                return n * 1.5

            def tally(n: int) -> float:
                wasted = stage_energy_j(n)
                return 0.0
        """)
        assert [f.code for f in result.findings] == ["GL9"]
        assert "wasted" in result.findings[0].message

    def test_folded_energy_is_clean(self):
        result = run_rule("GL9", """
            def stage_energy_j(n: int) -> float:
                return n * 1.5

            def tally(n: int) -> float:
                total = 0.0
                total += stage_energy_j(n)
                return total
        """)
        assert result.findings == []


class TestGL10ProtocolCompleteness:
    def test_scalar_only_device_is_flagged(self):
        result = run_rule("GL10", """
            class MiniDisk:
                def service(self, req):
                    return req

                def submit_write(self, req):
                    return req
        """)
        missing = sorted(f.message.split("lacks ")[1].split("(")[0]
                         for f in result.findings)
        assert missing == ["service_batch", "service_components",
                          "submit_write_batch", "submit_write_components"]

    def test_complete_device_is_clean(self):
        result = run_rule("GL10", """
            class FullDisk:
                def service(self, req):
                    return req

                def service_batch(self, reqs):
                    return reqs

                def service_components(self, reqs):
                    return reqs

                def submit_write(self, req):
                    return req

                def submit_write_batch(self, reqs):
                    return reqs

                def submit_write_components(self, reqs):
                    return reqs
        """)
        assert result.findings == []

    def test_protocol_definition_itself_is_exempt(self):
        result = run_rule("GL10", """
            from typing import Protocol

            class Device(Protocol):
                def service(self, req): ...
                def submit_write(self, req): ...
        """)
        assert result.findings == []


# ---------------------------------------------------------------------------
# The shipped baseline
# ---------------------------------------------------------------------------

class TestShippedBaseline:
    def test_baseline_is_exact(self, monkeypatch):
        # Every baseline entry matches a live finding (no stale debt)
        # and every finding is listed (tree is clean modulo baseline).
        monkeypatch.chdir(ROOT)
        result = lint_paths(BASELINED_TREES, select=PROJECT_RULES)
        clean, stale = apply_baseline(result, load_baseline(BASELINE))
        formatted = "\n".join(f.format() for f in clean.findings)
        assert not clean.findings, f"un-baselined findings:\n{formatted}"
        assert not stale, f"stale baseline entries: {stale}"
        assert clean.baselined == sum(
            load_baseline(BASELINE).values())

    def test_cli_passes_with_baseline(self, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        code = main(["lint", "--select", ",".join(PROJECT_RULES),
                     "--baseline", BASELINE, "--strict", *BASELINED_TREES])
        out = capsys.readouterr().out
        assert code == 0
        assert "baselined" in out

    def test_cli_fails_on_stale_entry(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({
            "version": 1,
            "entries": [{"code": "GL9", "path": "gone.py",
                         "message": "result of f_j() is discarded"}],
        }))
        code = main(["lint", "--select", "GL9",
                     "--baseline", str(stale), str(clean)])
        err = capsys.readouterr().err
        assert code == 1
        assert "stale baseline entry" in err

    def test_cited_line_numbers_do_not_break_a_match(self, tmp_path):
        # Matching ignores the lines a message quotes, as it ignores the
        # finding's own line: an edit above the cited definition must
        # not turn its entry stale.  A different message still does.
        live = Finding(
            code="GL18", severity="error", path="mod.py", line=12, col=4,
            message="f reads mutated module global 'G' (defined line 81)")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "entries": [
            {"code": "GL18", "path": "mod.py",
             "message": "f reads mutated module global 'G' (defined line 80)"},
            {"code": "GL18", "path": "mod.py",
             "message": "g reads mutated module global 'G' (defined line 80)"},
        ]}))
        clean, stale = apply_baseline(
            LintResult([live], files_checked=1, suppressed=0),
            load_baseline(str(baseline)))
        assert clean.findings == [] and clean.baselined == 1
        assert [message for _code, _path, message in stale] == [
            "g reads mutated module global 'G' (defined line N)"]

    def test_write_baseline_roundtrip(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            def stage_energy_j(n: int) -> float:
                return n * 1.5

            def tally(n: int) -> None:
                stage_energy_j(n)
        """))
        baseline = tmp_path / "baseline.json"
        assert main(["lint", "--select", "GL9", str(bad)]) == 1
        capsys.readouterr()
        assert main(["lint", "--select", "GL9",
                     "--write-baseline", str(baseline), str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", "--select", "GL9",
                     "--baseline", str(baseline), str(bad)]) == 0
        capsys.readouterr()


class TestJsonStability:
    def test_findings_are_sorted_and_paths_posix(self, tmp_path):
        b = tmp_path / "b.py"
        a = tmp_path / "a.py"
        for f in (a, b):
            f.write_text(textwrap.dedent("""
                def stage_energy_j(n: int) -> float:
                    return n * 1.5

                def tally(n: int) -> None:
                    stage_energy_j(n)
            """))
        result = lint_paths([str(tmp_path)], select=["GL9"])
        doc = json.loads(render_json(result))
        keys = [(r["path"], r["line"], r["col"], r["code"], r["message"])
                for r in doc["findings"]]
        assert keys == sorted(keys)
        assert len(keys) == 2
        assert all("\\" not in r["path"] for r in doc["findings"])
        assert doc["baselined"] == 0
