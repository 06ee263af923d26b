"""3-D in-situ pipeline with volume rendering (related-work path).

The in-situ systems the paper cites (Yu et al.'s combustion work,
Childs et al.'s volume rendering, Peterka's Blue Gene studies) render
*volumes*.  This pipeline runs the 3-D heat solver and ray-casts the
temperature volume in situ, optionally from several axes per event (a
small Cinema-style view set).

Cost model: the volume-render stage cost scales with the composited
sample count relative to the 2-D render the visualization stage was
calibrated on (a 64^3 volume traversed at 64 samples/ray shades ~16x the
pixels of the 256^2 raster).
"""

from __future__ import annotations

from repro.errors import PipelineError
from repro.machine.node import Node
from repro.pipelines.base import InterruptState, PipelineConfig, RunResult
from repro.pipelines.loop import PipelineLoop
from repro.rng import RngRegistry
from repro.sim.heat3d import Grid3D, HeatSolver3D, HeatSource3D
from repro.viz.volume import VolumeCamera, render_volume


def make_solver3d(rng: RngRegistry, n: int = 48,
                  sub_steps: int = 1) -> HeatSolver3D:
    """The 3-D proxy: n^3 field with a hot inner box."""
    grid = Grid3D(n, n, n)
    gen = rng.get("initial-condition-3d")
    grid.data[:] = 20.0 + gen.normal(0.0, 0.05, grid.data.shape)
    lo, hi = n // 4, n // 2
    source = HeatSource3D((lo, lo, lo), (hi, hi, hi), rate=45.0)
    return HeatSolver3D(grid, alpha=1.0e-4, sources=(source,),
                        boundary_value=20.0, sub_steps=sub_steps)


class VolumetricInSituPipeline:
    """Simulate a 3-D field and ray-cast it in situ."""

    name = "in-situ-3d"

    def __init__(self, config: PipelineConfig, resolution: int = 48,
                 axes: tuple[int, ...] = (0,), samples: int = 48) -> None:
        if not axes or any(a not in (0, 1, 2) for a in axes):
            raise PipelineError("axes must be a non-empty subset of {0, 1, 2}")
        if resolution < 3:
            raise PipelineError("resolution must be >= 3")
        self.config = config
        self.resolution = resolution
        self.axes = tuple(axes)
        self.samples = samples

    def _render_cost_factor(self) -> float:
        """Volume shading work relative to the calibrated 2-D render."""
        rays = self.resolution * self.resolution
        shaded = rays * min(self.samples, self.resolution)
        reference = self.config.render_height * self.config.render_width
        return shaded / reference

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult.

        Frames are buffered, never synced, so a resumed run starts again
        at iteration 0 and rewrites them.
        """
        loop = PipelineLoop(self, node, rng, resume)
        solver = make_solver3d(loop.rng, self.resolution,
                               self.config.solver_sub_steps)
        # Modeled sim cost scales with cell count vs the 2-D reference.
        sim_scale = solver.grid.n_cells / (128 * 128)

        loop.timeline.mark("simulate3d+raycast")
        for iteration in loop.iterations(solver, work_scale=sim_scale):
            if iteration in loop.io_iterations:
                self._raycast(loop, solver.grid.data, iteration)

        result = loop.result
        result.extra["field_range"] = solver.grid.minmax()
        result.extra["final_mean_temperature"] = float(solver.grid.data.mean())
        result.extra["render_cost_factor"] = self._render_cost_factor()
        return result

    def _raycast(self, loop: PipelineLoop, volume, iteration: int) -> None:
        """Ray-cast the volume from every axis, save the frames, and price
        the render by its shaded-sample count."""
        batch_bytes = 0
        for axis in self.axes:
            image = render_volume(volume,
                                  VolumeCamera(axis=axis, samples=self.samples))
            encoded = image.to_png(self.config.frame_png_level)
            batch_bytes += len(encoded)
            loop.save_frame(encoded, iteration,
                            name=f"vol{iteration:04d}_ax{axis}.png")
        vis_cal = loop.stages["visualization"]
        loop.timeline.record(
            "visualization",
            vis_cal.duration_s * self._render_cost_factor() * len(self.axes),
            vis_cal.activity(), iteration=iteration,
        )
        loop.record("coupling", disk_write_bytes=batch_bytes,
                    iteration=iteration)
