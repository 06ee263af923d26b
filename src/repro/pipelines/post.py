"""The traditional post-processing visualization pipeline (Fig 2a).

Phase 1 — *simulate + write*: run the solver; on every I/O iteration,
serialize the grid into a chunked container, write it through the page
cache, ``fsync``, and ``drop_caches`` (the paper's methodology for honest
disk I/O).

Phase 2 — *read + visualize*: for every dumped timestep, drop caches,
read the container cold, CRC-validate, reassemble the grid, optionally
verify it bit-for-bit against what was written, render a frame, and store
the image (buffered; image output is not the measured I/O load).

Resilience: the synced timestep dumps double as checkpoints.  When an
injected device failure escapes the retry layer, the run raises
:class:`~repro.errors.PipelineInterrupted` carrying an
:class:`~repro.pipelines.base.InterruptState`; a resilient runner repairs
the device and calls :meth:`PostProcessingPipeline.run` again with
``resume=state`` to continue from the last durable dump (phase 1) or the
last visualized timestep (phase 2).
"""

from __future__ import annotations

from repro.errors import PipelineError
from repro.machine.node import Node
from repro.pipelines.base import (
    CHUNK_BYTES,
    InterruptState,
    PipelineConfig,
    RunResult,
    render_pipeline_frame,
)
from repro.pipelines.loop import PipelineLoop
from repro.pipelines.science import cached_solver
from repro.rng import RngRegistry
from repro.storage.reader import DataReader
from repro.storage.writer import DataWriter


class PostProcessingPipeline:
    """Simulate-to-disk, then read-back-and-render."""

    name = "post-processing"

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult."""
        config = self.config
        loop = PipelineLoop(self, node, rng, resume, phase="write")
        solver = cached_solver(loop.rng, config.grid_scale,
                               config.solver_sub_steps)
        writer = DataWriter(loop.fs, chunk_bytes=CHUNK_BYTES)
        reader = DataReader(loop.fs, drop_caches_first=True)

        if loop.phase == "write":
            # -- phase 1: simulate + write ----------------------------------------
            loop.timeline.mark("simulate+write")
            for iteration in loop.iterations(solver):
                if iteration in loop.io_iterations:
                    loop.dump(writer, solver.grid, iteration, solver.time,
                              restart=True)
            # Nothing in phase 2 is durable until its first frame.
            loop.phase, loop.durable, loop.resume_bytes = "read", 0, 0
        else:
            # Phase 1 completed before the interrupt: replay the physics
            # (cached, instantaneous) for the final-state metric and skip
            # already-visualized timesteps.
            solver.step(config.case.iterations)

        # -- phase 2: read + visualize -------------------------------------------
        loop.timeline.mark("read+visualize")
        for timestep in reader.available_timesteps():
            if timestep <= loop.durable:
                continue
            grid = self._read_back(loop, reader, timestep)
            _frame, encoded = render_pipeline_frame(grid.data, config)
            loop.save_frame(encoded, timestep)
            loop.record("visualization", iteration=timestep)
            loop.durable = timestep

        result = loop.result
        if config.verify_data and not result.verification.ok:
            raise PipelineError(
                f"data corruption: {result.verification.grids_matched}/"
                f"{result.verification.grids_checked} grids round-tripped"
            )
        result.extra["files_written"] = sum(
            1 for name in loop.fs.files if name.startswith(writer.prefix)
        )
        result.extra["final_mean_temperature"] = solver.grid.mean()
        result.extra["io_faults"] = loop.fs.queue.stats.n_faults
        result.extra["io_retries"] = loop.fs.queue.stats.n_retries
        return result

    def _read_back(self, loop: PipelineLoop, reader: DataReader,
                   timestep: int):
        """Phase 2's read stage: a cold read of one dump, priced as an
        ``nnread``, and checked against what was written."""
        with loop.io(timestep):
            grid, report = reader.read_grid(timestep)
        loop.result.data_bytes_read += report.nbytes
        loop.record("nnread", disk_read_bytes=report.nbytes,
                    iteration=timestep, file=report.name)
        if self.config.verify_data:
            loop.verify(grid, timestep)
        return grid
