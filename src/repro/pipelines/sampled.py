"""Hybrid in-situ pipeline with data sampling (Sec V.C's third option).

Between the two extremes the paper measures — post-processing (full
exploratory power, full I/O energy) and in-situ (no raw data retained) —
sits the sampling hybrid of Woodring et al. [21]: visualize in situ *and*
persist a decimated copy of every dumped timestep, so coarse exploratory
analysis stays possible at a fraction of the bytes.

Energy shape this pipeline exposes (see the sampling ablation bench):
at the paper's 128 KiB dumps the write event is barrier-dominated, so
sampling saves almost nothing — consistent with the paper's finding that
only ~9 % of the pipeline energy is dynamic.  On volume-scaled dumps the
transfer term dominates and sampling's byte reduction translates into
energy directly.  The quality cost is measured, not assumed: every run
carries the reconstruction RMSE of its own sampled data.
"""

from __future__ import annotations

from repro.errors import PipelineError
from repro.machine.node import Node
from repro.pipelines.base import (
    CHUNK_BYTES,
    InterruptState,
    PipelineConfig,
    RunResult,
)
from repro.pipelines.insitu import insitu_frame
from repro.pipelines.loop import PipelineLoop
from repro.pipelines.science import cached_solver
from repro.rng import RngRegistry
from repro.sim.grid import Grid2D
from repro.storage.reader import DataReader
from repro.storage.sampling import sample_field
from repro.storage.writer import DataWriter


class SamplingInSituPipeline:
    """In-situ rendering plus decimated timestep dumps."""

    name = "in-situ+sampling"

    def __init__(self, config: PipelineConfig, sampling_factor: int = 4) -> None:
        if sampling_factor < 2:
            raise PipelineError(
                "sampling_factor must be >= 2 (1 would be full post-processing I/O)"
            )
        self.config = config
        self.sampling_factor = sampling_factor

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult.

        The sampling reports live in memory, so no dump is a restart
        point: a resumed run starts again at iteration 0.
        """
        loop = PipelineLoop(self, node, rng, resume)
        solver = cached_solver(loop.rng, self.config.grid_scale,
                               self.config.solver_sub_steps)
        writer = DataWriter(loop.fs, prefix="smp", chunk_bytes=CHUNK_BYTES)
        sampling_reports = []

        loop.timeline.mark("simulate+visualize+sample")
        for iteration in loop.iterations(solver):
            if iteration not in loop.io_iterations:
                continue
            # In-situ rendering, exactly as the plain in-situ pipeline.
            _name, encoded = insitu_frame(loop, solver.grid.data, iteration)
            loop.record("coupling", disk_write_bytes=len(encoded),
                        iteration=iteration)
            # The sampled dump: decimate, quantify the loss, persist.
            sampled, report = sample_field(solver.grid.data,
                                           self.sampling_factor)
            sampling_reports.append(report)
            sampled_grid = Grid2D(*sampled.shape)
            sampled_grid.data[:] = sampled
            loop.dump(writer, sampled_grid, iteration, solver.time,
                      sampled=True)

        result = loop.result
        if self.config.verify_data:
            self._verify(loop)

        result.extra["sampling_factor"] = self.sampling_factor
        result.extra["sampling_reports"] = sampling_reports
        if sampling_reports:
            result.extra["mean_nrmse"] = (
                sum(r.nrmse for r in sampling_reports) / len(sampling_reports)
            )
            result.extra["byte_fraction"] = sampling_reports[-1].byte_fraction
        result.extra["final_mean_temperature"] = solver.grid.mean()
        return result

    def _verify(self, loop: PipelineLoop) -> None:
        """Out-of-band check: sampled dumps round-trip bit-exactly.

        Sampling is lossy against the full field by design, but the
        *stored sample itself* must survive the storage stack unchanged.
        """
        reader = DataReader(loop.fs, prefix="smp", drop_caches_first=False)
        for timestep in reader.available_timesteps():
            with loop.io(timestep):
                grid, _ = reader.read_grid(timestep)
            loop.verify(grid, timestep)
        if not loop.result.verification.ok:
            raise PipelineError("sampled dump failed to round-trip")
