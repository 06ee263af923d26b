"""The one pipeline loop: every knob and the fault path reach all seven
placements, and the resilient runner can run each of them."""

from dataclasses import replace

import pytest

from repro.calibration import CASE_STUDIES, STAGE
from repro.errors import PipelineInterrupted
from repro.faults.device import FaultyDevice
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilience import ResilientPipelineRunner
from repro.faults.retry import RetryPolicy
from repro.machine.disk import HddModel
from repro.machine.node import Node
from repro.machine.specs import paper_testbed
from repro.pipelines import (
    CinemaPipeline,
    ClusterInSituPipeline,
    InSituPipeline,
    InTransitPipeline,
    PipelineConfig,
    PipelineRunner,
    PostProcessingPipeline,
    SamplingInSituPipeline,
    VolumetricInSituPipeline,
)
from repro.rng import RngRegistry

PLACEMENTS = {
    "post": PostProcessingPipeline,
    "in-situ": InSituPipeline,
    "in-transit": InTransitPipeline,
    "sampled": lambda config: SamplingInSituPipeline(config, 4),
    "cluster": lambda config: ClusterInSituPipeline(config, 4),
    "cinema": CinemaPipeline,
    "volumetric": lambda config: VolumetricInSituPipeline(config,
                                                          resolution=16),
}

#: Simulated seconds each placement spends simulating case 3.
CASE3_SIMULATION_S = {
    "post": 79.4, "in-situ": 79.4, "in-transit": 79.4, "sampled": 79.4,
    "cinema": 79.4, "cluster": 19.85, "volumetric": 19.85,
}


def faulty_node(spec: FaultSpec) -> tuple[Node, FaultyDevice]:
    testbed = paper_testbed()
    device = FaultyDevice(HddModel(testbed.disk), FaultPlan(spec))
    return Node(testbed, storage=device), device


def spans(result, stage: str) -> list[float]:
    """Durations of every ``stage`` span, staging node included."""
    timelines = [result.timeline, result.extra.get("staging_timeline")]
    return [span.duration for timeline in timelines if timeline is not None
            for span in timeline if span.stage == stage]


class TestStageOverrides:
    @pytest.mark.parametrize("stage", ["simulation", "visualization"])
    @pytest.mark.parametrize("name", sorted(PLACEMENTS))
    def test_doubling_a_stage_doubles_its_spans(self, name, stage):
        cal = STAGE[stage]
        doubled = ((stage, replace(cal, duration_s=2 * cal.duration_s)),)
        runs = [
            PLACEMENTS[name](PipelineConfig(case=CASE_STUDIES[3],
                                            stage_overrides=overrides))
            .run(Node(), RngRegistry(2015))
            for overrides in ((), doubled)
        ]
        base, slow = (spans(run, stage) for run in runs)
        assert base and len(slow) == len(base)
        assert slow == pytest.approx([2 * d for d in base])
        if stage == "simulation":
            assert sum(base) == pytest.approx(CASE3_SIMULATION_S[name])


class TestRetryPolicy:
    def test_sampled_retries_transient_faults_and_prices_them(self):
        node, _ = faulty_node(FaultSpec(seed=2015, transient_rate=0.05))
        config = PipelineConfig(case=CASE_STUDIES[1],
                                retry_policy=RetryPolicy())
        result = PipelineRunner(node=node, seed=2015).run(
            SamplingInSituPipeline(config))
        recovery = [s for s in result.timeline if s.stage == "recovery"]
        assert recovery and result.verification.ok
        assert sum(s.meta["retries"] for s in recovery) > 0
        assert all(s.duration > 0 and s.activity.disk_bytes_per_s == 0
                   for s in recovery)


class TestResilientRunner:
    @pytest.mark.parametrize("name", sorted(PLACEMENTS))
    def test_fault_free_run_matches_the_plain_runner(self, name):
        config = PipelineConfig(case=CASE_STUDIES[3])
        plain = PipelineRunner(seed=2015).run(PLACEMENTS[name](config))
        resilient = ResilientPipelineRunner(seed=2015).run(
            PLACEMENTS[name](config))
        assert resilient.timeline.spans == plain.timeline.spans
        assert resilient.energy_j == plain.energy_j
        assert (resilient.images_rendered, resilient.image_bytes,
                resilient.data_bytes_written, resilient.verification) == (
            plain.images_rendered, plain.image_bytes,
            plain.data_bytes_written, plain.verification)
        assert "restarts" not in resilient.extra

    def test_sampled_restarts_from_zero_after_a_device_failure(self):
        config = PipelineConfig(case=CASE_STUDIES[3],
                                retry_policy=RetryPolicy())
        node, device = faulty_node(FaultSpec(seed=2015))
        base = ResilientPipelineRunner(node=node, seed=2015).run(
            SamplingInSituPipeline(config))
        fail_at = device.ops_serviced // 2
        assert fail_at > 0
        node, _ = faulty_node(FaultSpec(seed=2015, fail_at_op=fail_at))
        with pytest.raises(PipelineInterrupted):
            PipelineRunner(node=node, seed=2015).run(
                SamplingInSituPipeline(config))
        node, _ = faulty_node(FaultSpec(seed=2015, fail_at_op=fail_at))
        faulted = ResilientPipelineRunner(node=node, seed=2015).run(
            SamplingInSituPipeline(config))
        assert faulted.extra["restarts"] == 1
        restart = next(s for s in faulted.timeline if s.stage == "restart")
        assert restart.meta["resumed_from"] == 0
        assert restart.meta["checkpoint_bytes"] == 0
        assert (faulted.verification.grids_checked,
                faulted.verification.grids_matched) == (6, 6)
        # The restart redid the whole run: same physics, same sample loss.
        assert faulted.extra["mean_nrmse"] == base.extra["mean_nrmse"]
        assert faulted.energy_j > base.energy_j
