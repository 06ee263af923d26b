"""Greenlint run over the repo's own source tree (tier-1 gate).

The whole point of the linter is that ``src/repro`` stays clean under
it.  Any new unit mix-up, stray ``raise ValueError``, unseeded RNG, or
positional quantity call fails this test, not a code review.
"""

import ast
import json
import os
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.lint import RULES, lint_paths
from repro.lint.cache import LintCache

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


class TestSelfLint:
    def test_source_tree_is_clean(self):
        result = lint_paths([SRC])
        formatted = "\n".join(f.format() for f in result.findings)
        assert not result.findings, f"greenlint findings:\n{formatted}"

    def test_covers_the_whole_tree(self):
        result = lint_paths([SRC])
        assert result.files_checked >= 100

    def test_intentional_suppressions_are_counted(self):
        # powercap's float-tolerance, the u16 flag mask in storage
        # format, the serving layer's three wall-clock latency reads,
        # the HTTP client's two retry-backoff sleeps, and the two
        # content-keyed memo reads (GL18: the identity pins and the
        # frame cache, both keyed on content, so value-deterministic)
        # are deliberate; they must stay visible as suppressions, not
        # vanish.
        result = lint_paths([SRC])
        assert result.suppressed == 9

    def test_all_eighteen_rule_families_registered(self):
        assert set(RULES) == {f"GL{i}" for i in range(1, 19)}


def _inject_raise(path, qualname: str) -> None:
    """Make method ``qualname`` (``Class.method``) in ``path`` raise first."""
    source = path.read_text()
    cls_name, method = qualname.split(".")
    cls = next(node for node in ast.parse(source).body
               if isinstance(node, ast.ClassDef) and node.name == cls_name)
    func = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == method)
    first = func.body[1] if ast.get_docstring(func) else func.body[0]
    lines = source.splitlines(keepends=True)
    lines.insert(first.lineno - 1,
                 " " * first.col_offset + 'raise ValueError("injected")\n')
    path.write_text("".join(lines))


class TestRequestPathReach:
    """GL16 follows every request from the adapter into each role's body.

    Roles are plain objects behind one ``app.handle(request)`` call with
    a typed receiver.  A role that overrode another role's method, or
    reached its collaborators through an untyped property, would hide
    these paths from the call graph.
    """

    @pytest.mark.parametrize("module, qualname", [
        ("cluster/admission.py", "AdmissionGate.admit"),
        ("cluster/router.py", "Router.route"),
        ("cluster/router.py", "Router.invalidate"),
        ("service/core.py", "ExperimentService.invalidate"),
    ])
    def test_injected_error_reaches_the_adapter(self, tmp_path, module,
                                                qualname):
        for package in ("service", "cluster"):
            shutil.copytree(os.path.join(SRC, package), tmp_path / package)
        shutil.copy(os.path.join(SRC, "errors.py"), tmp_path)
        _inject_raise(tmp_path / module, qualname)
        result = lint_paths([str(tmp_path)], select=["GL16"])
        roots = {root for f in result.findings
                 for root in ("do_GET", "do_POST")
                 if f.path.endswith(os.path.join("service", "http.py"))
                 and f"entry point RequestHandler.{root} " in f.message
                 and "ValueError can escape" in f.message
                 and f"raised in {qualname} " in f.message}
        assert roots == {"do_GET", "do_POST"}, [
            f.format() for f in result.findings]



#: Pipeline stages and the function holding each.  Placements call their
#: stages directly, never through callbacks: a stage handed over as a
#: callback (``simulate=...``) is a reference, not a call, so the call
#: graph would lose it and GL6 would miss an impure stage.
PIPELINE_STAGES = [
    ("pipelines/loop.py", "PipelineLoop.iterations"),      # simulate
    ("pipelines/loop.py", "PipelineLoop.dump"),
    ("pipelines/loop.py", "PipelineLoop.checkpoint"),
    ("pipelines/loop.py", "PipelineLoop.save_frame"),
    ("pipelines/loop.py", "PipelineLoop.io"),              # fault path
    ("pipelines/insitu.py", "insitu_frame"),               # shared frame stage
    ("pipelines/post.py", "PostProcessingPipeline._read_back"),
    ("pipelines/cluster.py", "_DecomposedSolver.step"),
    ("sim/heat3d.py", "HeatSolver3D.step"),                # volumetric's step
]

PIPELINE_CLASSES = {
    "PostProcessingPipeline", "InSituPipeline", "InTransitPipeline",
    "SamplingInSituPipeline", "ClusterInSituPipeline", "CinemaPipeline",
    "VolumetricInSituPipeline",
}


def _function(source: str, qualname: str) -> ast.FunctionDef:
    """The definition of ``qualname`` (``name`` or ``Class.name``)."""
    body = ast.parse(source).body
    *owner, name = qualname.split(".")
    if owner:
        body = next(node for node in body if isinstance(node, ast.ClassDef)
                    and node.name == owner[0]).body
    return next(node for node in body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _inject_clock_read(path, qualname: str) -> None:
    """Make ``qualname`` in ``path`` read the wall clock first."""
    source = path.read_text()
    func = _function(source, qualname)
    first = func.body[1] if ast.get_docstring(func) else func.body[0]
    indent = " " * first.col_offset
    lines = source.splitlines(keepends=True)
    lines[first.lineno - 1:first.lineno - 1] = [
        f"{indent}import time\n", f"{indent}time.time()\n"]
    path.write_text("".join(lines))


class TestPipelineStageReach:
    """GL6 reaches every stage of the one pipeline loop from a pipeline
    ``run()``, so a wall-clock read in any of them is reported."""

    @pytest.fixture(scope="class")
    def injected(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("reach") / "repro"
        shutil.copytree(SRC, root)
        for module, qualname in PIPELINE_STAGES:
            _inject_clock_read(root / module, qualname)
        # The line of each read, once every injection has shifted its file.
        lines = {(module, qualname): next(
            node.lineno for node in ast.walk(_function(
                (root / module).read_text(), qualname))
            if isinstance(node, ast.Call)
            and ast.unparse(node) == "time.time()")
            for module, qualname in PIPELINE_STAGES}
        findings = lint_paths([str(root)], select=["GL6"]).findings
        return lines, findings

    @pytest.mark.parametrize("module, qualname", PIPELINE_STAGES)
    def test_injected_clock_read_is_reported(self, injected, module,
                                             qualname):
        lines, findings = injected
        reported = [f for f in findings
                    if f.path.endswith(os.path.join(*module.split("/")))
                    and f.line == lines[module, qualname]]
        assert len(reported) == 1, [f.format() for f in findings]
        message = reported[0].message
        assert f"wall-clock call time.time() in {qualname} " in message
        root = message.split("reachable from ", 1)[1].split("()", 1)[0]
        cls, method = root.rsplit(".", 1)
        assert (cls, method) in {(c, "run") for c in PIPELINE_CLASSES}, message


class TestLintCache:
    def test_round_trip_hits_and_identical_findings(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import random\nwindow = 3600\n")
        cache = str(tmp_path / "cache")
        cold = lint_paths([str(mod)], cache_dir=cache)
        warm = lint_paths([str(mod)], cache_dir=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert ([f.format() for f in warm.findings]
                == [f.format() for f in cold.findings])

    def test_a_flipped_bit_in_an_entry_is_a_miss(self, tmp_path,
                                                 monkeypatch):
        mod = tmp_path / "m.py"
        mod.write_text("import random\nwindow = 3600\n")
        expected = [f.format() for f in lint_paths([str(mod)]).findings]
        cache = str(tmp_path / "cache")
        lint_paths([str(mod)], cache_dir=cache)
        (name,) = os.listdir(cache)
        entry_path = os.path.join(cache, name)
        with open(entry_path, "rb") as fh:
            good = fh.read()
        loads = []
        load = LintCache.load

        def spy(self, path, source):
            loads.append(load(self, path, source))
            return loads[-1]

        monkeypatch.setattr(LintCache, "load", spy)
        bits = np.random.default_rng(20).choice(len(good) * 8, size=200,
                                                replace=False)
        for bit in bits:
            corrupt = bytearray(good)
            corrupt[bit // 8] ^= 1 << (bit % 8)
            with open(entry_path, "wb") as fh:
                fh.write(corrupt)
            result = lint_paths([str(mod)], cache_dir=cache)
            assert loads[-1] is None, f"bit {bit} loaded"
            assert [f.format() for f in result.findings] == expected
            assert result.cache_misses == 1
        warm = lint_paths([str(mod)], cache_dir=cache)
        assert warm.cache_hits == 1 and loads[-1] is not None

    def test_edit_invalidates_entry(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import random\n")
        cache = str(tmp_path / "cache")
        lint_paths([str(mod)], cache_dir=cache)
        mod.write_text("window = 3600\n")
        fresh = lint_paths([str(mod)], cache_dir=cache)
        assert fresh.cache_misses == 1
        assert [f.code for f in fresh.findings] == ["GL2"]

    def test_no_cache_dir_never_counts(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("import random\n")
        result = lint_paths([str(mod)], cache_dir=None)
        assert (result.cache_hits, result.cache_misses) == (0, 0)

    def test_cli_reports_cache_in_json(self, tmp_path, capsys,
                                       monkeypatch):
        mod = tmp_path / "m.py"
        mod.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "--json", str(mod)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 0, "misses": 1}
        assert main(["lint", "--json", str(mod)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 1, "misses": 0}
        assert main(["lint", "--json", "--no-cache", str(mod)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"hits": 0, "misses": 0}


class TestCliLint:
    def test_cli_exits_zero_on_clean_tree(self, capsys):
        assert main(["lint", SRC]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_strict_on_clean_tree(self, capsys):
        assert main(["lint", "--strict", SRC]) == 0
        capsys.readouterr()

    def test_cli_json_output(self, capsys):
        assert main(["lint", "--json", SRC]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "greenlint"
        assert payload["findings"] == []
        assert payload["files_checked"] >= 100

    def test_cli_defaults_to_package_tree(self, capsys):
        # No path argument lints the installed repro package itself.
        assert main(["lint"]) == 0
        capsys.readouterr()

    def test_cli_flags_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nraise ValueError('x')\n")
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "GL4" in out
        assert "GL3" in out

    def test_cli_strict_promotes_warnings(self, tmp_path, capsys):
        bad = tmp_path / "warn.py"
        bad.write_text("window = 3600\n")
        assert main(["lint", str(bad)]) == 0
        capsys.readouterr()
        assert main(["lint", "--strict", str(bad)]) == 1
        capsys.readouterr()

    def test_cli_select_subset(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nwindow = 3600\n")
        assert main(["lint", "--select", "GL2", str(bad)]) == 0
        out = capsys.readouterr().out
        assert "GL2" in out
        assert "GL4" not in out

    def test_cli_bad_path_is_usage_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
