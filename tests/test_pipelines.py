"""Pipeline behaviour: structure, data integrity, calibration anchors."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.calibration import CASE_STUDIES
from repro.errors import PipelineError
from repro.fingerprint import ContentMemo, pinned
from repro.machine import Node
from repro.pipelines import (
    CinemaPipeline,
    InSituPipeline,
    InTransitPipeline,
    PipelineConfig,
    PipelineRunner,
    PostProcessingPipeline,
    SamplingInSituPipeline,
    science,
)
from repro.pipelines import base, loop
from repro.rng import RngRegistry
from repro.sim.heat import HeatSolver
from repro.storage import DataReader
from repro.storage.format import payload_container
from repro.viz import render


@pytest.fixture(scope="module")
def runner() -> PipelineRunner:
    return PipelineRunner(seed=11)


@pytest.fixture(scope="module")
def case1_runs(runner):
    config = PipelineConfig(case=CASE_STUDIES[1])
    return (
        runner.run(PostProcessingPipeline(config)),
        runner.run(InSituPipeline(config)),
    )


class TestConfig:
    def test_bad_format_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(case=CASE_STUDIES[1], image_format="jpeg")

    def test_bad_resolution_rejected(self):
        with pytest.raises(PipelineError):
            PipelineConfig(case=CASE_STUDIES[1], render_height=0)

    def test_case3_io_iterations(self):
        assert CASE_STUDIES[3].io_iterations() == [8, 16, 24, 32, 40, 48]

    def test_case1_io_every_iteration(self):
        assert len(CASE_STUDIES[1].io_iterations()) == 50


class TestPostProcessing:
    def test_two_phases(self, case1_runs):
        post, _ = case1_runs
        bounds = post.timeline.phase_bounds()
        assert set(bounds) == {"simulate+write", "read+visualize"}
        p1, p2 = bounds["simulate+write"], bounds["read+visualize"]
        assert p1[1] == pytest.approx(p2[0])

    def test_stage_structure(self, case1_runs):
        post, _ = case1_runs
        totals = post.timeline.stage_totals()
        assert totals["simulation"].span_count == 50
        assert totals["nnwrite"].span_count == 50
        assert totals["nnread"].span_count == 50
        assert totals["visualization"].span_count == 50

    def test_fig4_shares(self, case1_runs):
        post, _ = case1_runs
        fracs = post.timeline.stage_fractions()
        assert fracs["simulation"] == pytest.approx(0.33, abs=0.005)
        assert fracs["nnwrite"] == pytest.approx(0.30, abs=0.005)
        assert fracs["nnread"] == pytest.approx(0.27, abs=0.005)
        assert fracs["visualization"] == pytest.approx(0.10, abs=0.005)

    def test_data_round_trips(self, case1_runs):
        post, _ = case1_runs
        assert post.verification.ok
        assert post.verification.grids_checked == 50

    def test_bytes_written_and_read_match(self, case1_runs):
        post, _ = case1_runs
        assert post.data_bytes_written == post.data_bytes_read
        assert post.data_bytes_written > 50 * 128 * 1024

    def test_images_rendered(self, case1_runs):
        post, _ = case1_runs
        assert post.images_rendered == 50
        assert post.image_bytes > 0


class TestInSitu:
    def test_no_simulation_data_io(self, case1_runs):
        _, insitu = case1_runs
        assert insitu.data_bytes_written == 0
        assert insitu.data_bytes_read == 0

    def test_single_phase(self, case1_runs):
        _, insitu = case1_runs
        assert set(insitu.timeline.phase_bounds()) == {"simulate+visualize"}

    def test_no_io_stages(self, case1_runs):
        _, insitu = case1_runs
        totals = insitu.timeline.stage_totals()
        assert "nnread" not in totals
        assert "nnwrite" not in totals

    def test_renders_every_io_iteration(self, case1_runs):
        _, insitu = case1_runs
        assert insitu.images_rendered == 50

    def test_same_science_as_post(self, case1_runs):
        post, insitu = case1_runs
        assert insitu.extra["final_mean_temperature"] == pytest.approx(
            post.extra["final_mean_temperature"]
        )


class TestHeadlineComparison:
    """The paper's core results, on case study 1."""

    def test_insitu_faster(self, case1_runs):
        post, insitu = case1_runs
        assert insitu.execution_time_s < post.execution_time_s
        assert post.execution_time_s == pytest.approx(240.6, rel=0.01)
        assert insitu.execution_time_s == pytest.approx(127.5, rel=0.01)

    def test_energy_savings_43_pct(self, case1_runs):
        post, insitu = case1_runs
        savings = 1 - insitu.energy_j / post.energy_j
        assert savings == pytest.approx(0.43, abs=0.02)

    def test_avg_power_8_pct_higher(self, case1_runs):
        post, insitu = case1_runs
        increase = insitu.average_power_w / post.average_power_w - 1
        assert increase == pytest.approx(0.08, abs=0.015)

    def test_peak_power_similar(self, case1_runs):
        post, insitu = case1_runs
        assert insitu.peak_power_w == pytest.approx(post.peak_power_w, rel=0.03)

    def test_efficiency_improvement(self, case1_runs):
        post, insitu = case1_runs
        improvement = insitu.energy_efficiency / post.energy_efficiency - 1
        assert improvement == pytest.approx(0.75, abs=0.06)  # paper: ~72%

    def test_unmetered_run_refuses_metrics(self):
        config = PipelineConfig(case=CASE_STUDIES[3])
        result = InSituPipeline(config).run(Node())
        with pytest.raises(PipelineError):
            _ = result.energy_j


class TestInTransit:
    def test_runs_and_meters_both_nodes(self, runner):
        config = PipelineConfig(case=CASE_STUDIES[2])
        result = runner.run(InTransitPipeline(config))
        assert result.images_rendered == 25
        assert "staging_energy_j" in result.extra
        assert result.extra["total_energy_j"] > result.energy_j

    def test_compute_node_cheaper_than_post(self, runner):
        config = PipelineConfig(case=CASE_STUDIES[1])
        post = runner.run(PostProcessingPipeline(config))
        transit = runner.run(InTransitPipeline(config))
        assert transit.energy_j < post.energy_j


class TestDeterminism:
    def test_same_seed_same_energy(self):
        a = PipelineRunner(seed=5).run(
            InSituPipeline(PipelineConfig(case=CASE_STUDIES[3])))
        b = PipelineRunner(seed=5).run(
            InSituPipeline(PipelineConfig(case=CASE_STUDIES[3])))
        assert a.energy_j == b.energy_j
        np.testing.assert_array_equal(a.profile["system"], b.profile["system"])

    def test_different_seed_different_noise(self):
        a = PipelineRunner(seed=5).run(
            InSituPipeline(PipelineConfig(case=CASE_STUDIES[3])))
        b = PipelineRunner(seed=6).run(
            InSituPipeline(PipelineConfig(case=CASE_STUDIES[3])))
        assert not np.array_equal(a.profile["system"], b.profile["system"])
        # But the modeled time is seed-independent.
        assert a.execution_time_s == b.execution_time_s


class TestScienceSnapshots:
    """Observed fields are the science cache's immutable snapshots."""

    def test_recorded_field_is_the_read_only_snapshot(self):
        cache = science.ScienceCache()
        solver = cache.solver_for(RngRegistry(41))
        solver.step(2)
        observed = solver.grid.data
        assert not observed.flags.writeable
        assert observed is solver._trajectory.snapshots[2]
        assert solver.grid.data is observed
        replay = cache.solver_for(RngRegistry(41))
        replay.step(2)
        assert replay.grid.data is observed

    def test_past_the_budget_the_live_grid_comes_back(self):
        cache = science.ScienceCache(budget_bytes=0)
        solver = cache.solver_for(RngRegistry(42))
        solver.step(1)
        observed = solver.grid.data
        assert observed.flags.writeable
        assert observed is solver._solver.grid.data
        assert solver._trajectory.snapshots == {}

    def test_dumped_bodies_are_the_snapshot_buffers(self, monkeypatch):
        cache = science.ScienceCache()
        monkeypatch.setattr(science, "_CACHE", cache)
        systems = []

        def capture(*args, **kwargs):
            systems.append(base.make_storage(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(loop, "make_storage", capture)
        results = self._pair(44)
        assert all(r.verification.ok for r in results)
        fs, _insitu_fs = systems  # the post run's storage comes first
        (trajectory,) = cache._trajectories.values()
        dumped = DataReader(fs).available_timesteps()
        assert dumped == CASE_STUDIES[3].io_iterations()
        for step in dumped:
            body, _ = fs.read(f"ts{step:04d}.dat")
            assert body is payload_container(trajectory.snapshots[step])
            assert not body.flags.writeable
            back, _ = DataReader(fs).read_grid(step)
            assert np.shares_memory(back.data, body)
        # No second copy: each snapshot is the payload of its own
        # container buffer, and those payloads are all the cache holds.
        snapshots = list(trajectory.snapshots.values())
        assert all(payload_container(s) is not None for s in snapshots)
        assert cache._spent_bytes == sum(s.nbytes for s in snapshots)

    def test_observing_copies_once_and_hashes_nothing(self):
        cache = science.ScienceCache()
        solver = cache.solver_for(RngRegistry(45))
        solver.step(3)
        live = solver._solver.grid.data
        observed = solver.grid.data
        assert not np.shares_memory(observed, live)
        np.testing.assert_array_equal(observed, live)
        buf = payload_container(observed)
        assert buf is not None and buf.flags.writeable  # not sealed yet
        assert pinned(observed) is None  # no fingerprint taken

    @staticmethod
    def _pair(seed):
        config = PipelineConfig(case=CASE_STUDIES[3], verify_data=True)
        runner = PipelineRunner(seed=seed)
        return (runner.run(PostProcessingPipeline(config)),
                runner.run(InSituPipeline(config)))

    def test_unbudgeted_pair_matches_cached_pair(self, monkeypatch):
        monkeypatch.setattr(science, "_CACHE",
                            science.ScienceCache(budget_bytes=0))
        live = self._pair(43)
        monkeypatch.setattr(science, "_CACHE", science.ScienceCache())
        cached = self._pair(43)
        for a, b in zip(live, cached):
            assert a.verification.ok and b.verification.ok
            assert a.verification.grids_checked == b.verification.grids_checked
            assert (a.images_rendered, a.image_bytes, a.data_bytes_written,
                    a.data_bytes_read) == (b.images_rendered, b.image_bytes,
                                           b.data_bytes_written,
                                           b.data_bytes_read)
            assert a.execution_time_s == b.execution_time_s
            assert a.energy_j == b.energy_j
            assert a.extra == b.extra

    def test_concurrent_first_use_records_once(self, monkeypatch):
        """Threads racing on one key: one records, the others replay, and
        the budget is charged once per snapshot held."""
        cache = science.ScienceCache()
        make_solver = science.make_solver

        def slow_make_solver(*args, **kwargs):
            time.sleep(0.05)
            return make_solver(*args, **kwargs)

        monkeypatch.setattr(science, "make_solver", slow_make_solver)
        barrier = threading.Barrier(4)
        solvers, fields = [], []

        def first_use():
            barrier.wait()
            solver = cache.solver_for(RngRegistry(7), 1, 4)
            solver.step(1)
            fields.append(solver.grid.data)
            solvers.append(solver)

        threads = [threading.Thread(target=first_use) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        kinds = sorted(type(solver).__name__ for solver in solvers)
        assert kinds == ["_RecordingSolver"] + 3 * ["_ReplaySolver"]
        held = [snap for trajectory in cache._trajectories.values()
                for snap in trajectory.snapshots.values()]
        assert len(held) == 1
        assert cache._spent_bytes == sum(snap.nbytes for snap in held)
        assert all(np.array_equal(field, held[0]) for field in fields)


class TestReplay:
    """Placements over the post/in-situ pair's physics replay it."""

    @pytest.fixture
    def primed(self, monkeypatch):
        """Fresh caches that one post and one in-situ run of case 1 fill;
        returns the runner and the config they ran."""
        monkeypatch.setattr(science, "_CACHE", science.ScienceCache())
        monkeypatch.setattr(base, "_FRAME_CACHE", ContentMemo(max_entries=256))
        runner = PipelineRunner(seed=61)
        config = PipelineConfig(case=CASE_STUDIES[1])
        runner.run(PostProcessingPipeline(config))
        runner.run(InSituPipeline(config))
        return runner, config

    @staticmethod
    def _count(monkeypatch, owners, name: str) -> list:
        """Count calls of ``name`` through each of ``owners``; returns the
        list each call appends to."""
        calls = []
        original = getattr(owners[0], name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counting)
        return calls

    def test_in_transit_integrates_and_renders_nothing(self, primed,
                                                       monkeypatch):
        runner, config = primed
        steps = self._count(monkeypatch, [HeatSolver], "step")
        importers = [module for module in list(sys.modules.values())
                     if getattr(module, "__dict__", {}).get("render_field")
                     is render.render_field]
        renders = self._count(monkeypatch, importers, "render_field")
        result = runner.run(InTransitPipeline(config))
        assert renders == []
        assert steps == []
        assert result.images_rendered == 50

    def test_sampling_integrates_nothing(self, primed, monkeypatch):
        runner, config = primed
        steps = self._count(monkeypatch, [HeatSolver], "step")
        result = runner.run(SamplingInSituPipeline(config, 4))
        assert steps == []
        assert result.verification.ok

    def test_cinema_integrates_nothing(self, primed, monkeypatch):
        runner, config = primed
        steps = self._count(monkeypatch, [HeatSolver], "step")
        result = runner.run(CinemaPipeline(config))
        assert steps == []
        assert result.verification.ok
