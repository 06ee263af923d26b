"""In-transit visualization pipeline (related-work extension).

Bennett et al. [10] combine in-situ with *in-transit* processing: the
simulation ships data over the interconnect to dedicated staging nodes
that run the analysis asynchronously, so the simulation neither writes to
disk nor pays the visualization's compute cost.

Modeled here as two timelines:

* the **compute node**: simulate; on I/O iterations, send the field to the
  staging node (alpha-beta link cost, NIC activity);
* the **staging node**: receive and visualize, overlapping the compute
  node's next iterations; it idles while waiting.

The science is the post-processing/in-situ pair's: the solver comes
from the trajectory cache, and the staging render reads the frame memo
(:func:`~repro.pipelines.base.render_pipeline_frame`), so a case that
pair already ran is replayed and its frames are not drawn again.

The runner meters both nodes; total energy is their sum, which is the
fair comparison against single-node pipelines (the paper's future-work
multi-node question is exactly whether shipping beats storing).
"""

from __future__ import annotations

from repro.errors import PipelineError
from repro.machine.network import LinkModel
from repro.machine.node import Node
from repro.pipelines.base import (
    InterruptState,
    PipelineConfig,
    RunResult,
    render_pipeline_frame,
)
from repro.pipelines.loop import PipelineLoop
from repro.pipelines.science import cached_solver
from repro.rng import RngRegistry
from repro.trace.events import Activity
from repro.trace.timeline import Timeline


class InTransitPipeline:
    """Simulation + staging-node pair coupled by the interconnect."""

    name = "in-transit"

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult."""
        loop = PipelineLoop(self, node, rng, resume, storage=False)
        solver = cached_solver(loop.rng, self.config.grid_scale,
                               self.config.solver_sub_steps)
        link = LinkModel(node.spec.network)
        compute = loop.timeline
        staging = Timeline()
        result = loop.result
        vis_cal = loop.stages["visualization"]

        compute.mark("simulate+send")
        staging.mark("receive+visualize")
        for iteration in loop.iterations(solver):
            if iteration not in loop.io_iterations:
                continue
            payload = solver.grid.to_bytes()
            send_time = link.transfer_time(len(payload))
            rate = len(payload) / send_time
            compute.record("staging-send", send_time, _link_activity(rate),
                           iteration=iteration, nbytes=len(payload))
            # Staging side: idle until the send lands, then receive+render.
            arrival = compute.now
            if staging.now < arrival:
                staging.idle(arrival - staging.now)
            staging.record("receive", send_time, _link_activity(rate),
                           iteration=iteration)
            frame, _encoded = render_pipeline_frame(solver.grid.data,
                                                    self.config)
            result.images_rendered += 1
            result.image_bytes += frame.nbytes
            staging.record("visualization", vis_cal.duration_s,
                           vis_cal.activity(), iteration=iteration)

        # The run ends when both nodes are done; the compute node idles
        # out any staging tail (it cannot exit before its partner).
        if staging.now > compute.now:
            compute.idle(staging.now - compute.now, reason="staging tail")
        elif compute.now > staging.now:
            staging.idle(compute.now - staging.now)

        if result.images_rendered != len(loop.io_iterations):
            raise PipelineError("staging node dropped frames")
        result.extra["staging_timeline"] = staging
        result.extra["final_mean_temperature"] = solver.grid.mean()
        return result


def _link_activity(rate: float) -> Activity:
    """One end of a field transfer over the interconnect.

    Each span gets its own object: results are pickled for their
    digests, and a shared one would pickle as a back-reference.
    """
    return Activity(cpu_util=0.02, dram_bytes_per_s=min(rate, 2e9),
                    net_bytes_per_s=rate)
