"""Interprocedural dataflow rules (GL11–GL14) against synthetic modules.

Each rule gets a positive fixture (must fire) and a negative (idiomatic
code that must stay clean), plus summary-level checks on the dataflow
engine itself so a silent fixpoint regression shows up here rather than
as vacuously-clean self-lint runs.
"""

import ast
import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.dataflow import UNKNOWN, DimDataflow
from repro.lint.dims import DIMENSIONLESS, ENERGY, POWER, TIME
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.graph import ProjectGraph


def run(source: str, select=None, path: str = "flow_mod.py"):
    return lint_source(textwrap.dedent(source), path=path, select=select)


def codes(result):
    return [f.code for f in result.findings]


def flow_for(source: str, path: str = "flow_mod.py") -> DimDataflow:
    src = textwrap.dedent(source)
    ctx = ModuleContext(path=path, source=src, tree=ast.parse(src),
                        project=ProjectContext())
    graph = ProjectGraph.build([ctx])
    return DimDataflow(graph, [ctx])


# ---------------------------------------------------------------------------
# Dataflow summaries (the engine under the rules)
# ---------------------------------------------------------------------------

class TestSummaries:
    def test_return_dim_inferred_through_arithmetic(self):
        flow = flow_for(
            """
            def stage_energy(power_w, dt_s):
                return power_w * dt_s
            """)
        assert flow.summary_for_call("stage_energy").dim == ENERGY

    def test_summary_chains_to_fixpoint(self):
        # outer's dim is only known once inner's summary has settled.
        flow = flow_for(
            """
            def outer(dt_s):
                return inner(dt_s) / dt_s

            def inner(dt_s):
                return 3.0 * dt_s * 2.0
            """)
        assert flow.summary_for_call("inner").dim == TIME
        assert flow.summary_for_call("outer").dim == DIMENSIONLESS

    def test_declared_suffix_is_the_contract(self):
        # A suffixed function name wins over whatever the body infers.
        flow = flow_for(
            """
            def read_power_w(row):
                return row["power"]
            """)
        assert flow.summary_for_call("read_power_w").dim == POWER

    def test_tuple_returns_carry_element_dims(self):
        flow = flow_for(
            """
            def split(energy_j, dt_s):
                return energy_j, dt_s
            """)
        s = flow.summary_for_call("split")
        assert s.elems is not None
        assert [e.dim for e in s.elems] == [ENERGY, TIME]

    def test_disagreeing_overloads_resolve_to_unknown(self):
        flow = flow_for(
            """
            class A:
                def cost(self, dt_s):
                    return dt_s

            class B:
                def cost(self, energy_j):
                    return energy_j
            """)
        assert flow.summary_for_call("cost") == UNKNOWN


# ---------------------------------------------------------------------------
# GL11: flow-level unit mixing
# ---------------------------------------------------------------------------

class TestGL11FlowUnits:
    def test_positive_joules_flow_into_seconds_add(self):
        result = run(
            """
            def stage_energy(power_w, dt_s):
                return power_w * dt_s

            def total(dt_s):
                e = stage_energy(3.0, dt_s)
                return e + dt_s
            """,
            select=["GL11"])
        assert codes(result) == ["GL11"]
        assert "joule" in result.findings[0].message
        assert "second" in result.findings[0].message

    def test_positive_mismatched_compare_through_helper(self):
        result = run(
            """
            def elapsed(t0_s, t1_s):
                return t1_s - t0_s

            def over_budget(t0_s, t1_s, cap_j):
                return elapsed(t0_s, t1_s) > cap_j
            """,
            select=["GL11"])
        assert codes(result) == ["GL11"]

    def test_negative_consistent_flow(self):
        result = run(
            """
            def stage_energy(power_w, dt_s):
                return power_w * dt_s

            def total(power_w, dt_s, base_j):
                return stage_energy(power_w, dt_s) + base_j
            """,
            select=["GL11"])
        assert codes(result) == []

    def test_augmented_target_reports_in_place(self):
        # The target of ``x op= e`` is evaluated where it stands, so a
        # mismatch inside it carries its own line and column (and a
        # suppression on that line applies), like the plain store.
        source = (
            '"""Augmented targets keep their positions."""\n'
            "\n\n"
            "def helper(x_j):\n"
            "    return x_j\n"
            "\n\n"
            "def bump(buf, a_s, e_j):\n"
            "    buf[a_s + helper(e_j)] += 1\n"
            "\n\n\n"
            "def store(buf, a_s, e_j):\n"
            "    buf[a_s + helper(e_j)] = 1\n")
        result = lint_source(source, path="flow_mod.py", select=["GL11"])
        assert [(f.line, f.col) for f in result.findings] == [(9, 8), (14, 8)]

    def test_negative_direct_mismatch_is_gl1_territory(self):
        # A purely lexical mismatch belongs to GL1; GL11 only reports
        # flows a single-module pass cannot see, so the two never
        # double-report one site.
        source = """
            def f(energy_j, dt_s):
                return energy_j + dt_s
            """
        assert codes(run(source, select=["GL11"])) == []
        assert codes(run(source, select=["GL1"])) == ["GL1"]


# ---------------------------------------------------------------------------
# GL12: dimension-changing rebinding
# ---------------------------------------------------------------------------

class TestGL12DimRebind:
    def test_positive_seconds_bound_to_joules_name(self):
        result = run(
            """
            def elapsed(t0_s, t1_s):
                return t1_s - t0_s

            def f(t0_s, t1_s):
                energy_j = elapsed(t0_s, t1_s)
                return energy_j
            """,
            select=["GL12"])
        assert codes(result) == ["GL12"]
        assert "energy_j" in result.findings[0].message

    def test_negative_matching_rebind(self):
        result = run(
            """
            def elapsed(t0_s, t1_s):
                return t1_s - t0_s

            def f(t0_s, t1_s):
                dt_s = elapsed(t0_s, t1_s)
                return dt_s
            """,
            select=["GL12"])
        assert codes(result) == []


# ---------------------------------------------------------------------------
# GL13: partial component sums
# ---------------------------------------------------------------------------

_IOSTATS = """
    class IoStats:
        arm_time: float
        rotation_time: float
        transfer_time: float
        fault_time: float
        busy_time: float
"""


def run_gl13(body: str):
    source = textwrap.dedent(_IOSTATS) + textwrap.dedent(body)
    return lint_source(source, path="flow_mod.py", select=["GL13"])


class TestGL13ComponentSums:
    def test_positive_partial_sum(self):
        result = run_gl13(
            """
            def mech_time(stats: IoStats) -> float:
                return stats.arm_time + stats.rotation_time
            """)
        assert codes(result) == ["GL13"]
        msg = result.findings[0].message
        assert "transfer_time" in msg and "fault_time" in msg

    def test_negative_complete_sum(self):
        result = run_gl13(
            """
            def busy(stats: IoStats) -> float:
                return (stats.arm_time + stats.rotation_time
                        + stats.transfer_time + stats.fault_time)
            """)
        assert codes(result) == []

    def test_nested_function_reported_once(self):
        # The enclosing function's scan stops at the nested def, which
        # is scanned on its own.
        result = run_gl13(
            """
            def outer(stats: IoStats):
                def inner(stats: IoStats) -> float:
                    return stats.arm_time + stats.rotation_time
                return inner
            """)
        assert codes(result) == ["GL13"]
        assert result.findings[0].message.startswith("inner()")

    def test_closure_sees_the_enclosing_types(self):
        result = run_gl13(
            """
            def outer(stats: IoStats):
                def inner() -> float:
                    return stats.arm_time + stats.rotation_time
                return inner
            """)
        assert codes(result) == ["GL13"]
        assert result.findings[0].message.startswith("inner()")

    def test_negative_total_read_alongside(self):
        # Reading the stored total in the same function signals the
        # partial sum is deliberate (e.g. a breakdown next to it).
        result = run_gl13(
            """
            def breakdown(stats: IoStats):
                mech = stats.arm_time + stats.rotation_time
                return mech / stats.busy_time
            """)
        assert codes(result) == []


# ---------------------------------------------------------------------------
# GL14: static race detection
# ---------------------------------------------------------------------------

_RACY = """
    import threading
    from concurrent.futures import ThreadPoolExecutor


    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def bump(self):
            self.total += 1

        def bump_locked(self):
            with self._lock:
                self.total += 1


    class Service:
        def __init__(self, counter: Counter):
            self._counter = counter
            self._pool = ThreadPoolExecutor(max_workers=2)

        def start(self):
            self._pool.submit(self._work_a)
            threading.Thread(target=self._work_b).start()

        def _work_a(self):
            self._counter.{a}()

        def _work_b(self):
            self._counter.{b}()
    """


class TestGL14Races:
    def test_positive_two_roots_one_unguarded_write(self):
        result = run(_RACY.format(a="bump", b="bump_locked"),
                     select=["GL14"])
        assert codes(result) == ["GL14"]
        msg = result.findings[0].message
        assert "Counter.total" in msg
        assert "2 thread roots" in msg

    def test_negative_all_writes_locked(self):
        result = run(_RACY.format(a="bump_locked", b="bump_locked"),
                     select=["GL14"])
        assert codes(result) == []

    def test_negative_single_root(self):
        source = """
            import threading


            class Counter:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1


            class Service:
                def __init__(self, counter: Counter):
                    self._counter = counter

                def start(self):
                    threading.Thread(target=self._work).start()

                def _work(self):
                    self._counter.bump()
            """
        assert codes(run(source, select=["GL14"])) == []

    def test_positive_http_handlers_are_roots(self):
        result = run(
            """
            class Stats:
                def __init__(self):
                    self.requests = 0

                def hit(self):
                    self.requests += 1


            class Handler:
                def __init__(self, stats: Stats):
                    self._stats = stats

                def do_GET(self):
                    self._stats.hit()

                def do_POST(self):
                    self._stats.hit()
            """,
            select=["GL14"])
        assert codes(result) == ["GL14"]
        msg = result.findings[0].message
        assert "Stats.requests" in msg
        assert "do_GET" in msg and "do_POST" in msg
