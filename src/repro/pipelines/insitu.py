"""The in-situ visualization pipeline (Fig 2b).

Simulation and visualization share the loop: on every I/O iteration the
current field is rendered immediately — no simulation dump ever touches
the disk.  Only the rendered images are written (buffered, no sync; a
256x256 PNG is a small fraction of the raw field stream).

The per-event "coupling" cost models what the paper's measurements imply
in-situ visualization really costs beyond the render itself: image
encoding/output and the interference of running visualization inside the
simulation's address space (cache pollution, synchronization points).
See :mod:`repro.experiments.calibration` for the derivation.

Resilience: with ``checkpoint_interval > 0`` the loop dumps the field to
a durable (synced) checkpoint file every so many iterations — in-situ has
no timestep dumps to restart from, so without checkpoints a mid-run
device failure costs the whole run.  A failure escaping the retry layer
raises :class:`~repro.errors.PipelineInterrupted`; a resilient runner
repairs the device and re-enters with ``resume=state`` to continue from
the last checkpoint.
"""

from __future__ import annotations

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


def insitu_frame(loop: PipelineLoop, field, iteration: int) -> tuple[str, bytes]:
    """The in-situ frame stage: render the live field, price the render
    as a visualization span, and save the frame (buffered, no sync).

    Returns the frame's file name and encoded bytes.
    """
    _frame, encoded = render_pipeline_frame(field, loop.config)
    loop.record("visualization", iteration=iteration)
    return loop.save_frame(encoded, iteration), encoded


class InSituPipeline:
    """Simulate and render in the same loop; no raw data hits the disk."""

    name = "in-situ"

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult."""
        loop = PipelineLoop(self, node, rng, resume)
        solver = cached_solver(loop.rng, self.config.grid_scale,
                               self.config.solver_sub_steps)
        loop.timeline.mark("simulate+visualize")
        for iteration in loop.iterations(solver):
            if iteration in loop.io_iterations:
                name, encoded = insitu_frame(loop, solver.grid.data, iteration)
                loop.record("coupling", disk_write_bytes=len(encoded),
                            iteration=iteration, file=name)
            loop.checkpoint(solver, iteration)

        result = loop.result
        result.extra["final_mean_temperature"] = solver.grid.mean()
        result.extra["files_written"] = result.images_rendered
        result.extra["io_faults"] = loop.fs.queue.stats.n_faults
        result.extra["io_retries"] = loop.fs.queue.stats.n_retries
        return result
