"""Cinema-style in-situ image database (related-work extension).

Ahrens et al. [12] — the paper's own group — answer in-situ's loss of
exploratory analysis with an *image-based* approach: render many
parameter combinations per timestep into an image database, so post-hoc
"exploration" browses pre-rendered images instead of recomputing from
raw data.

This pipeline implements that idea on the reproduction's renderer: per
visualization event it renders the full cross product of a
:class:`CinemaSpec` (colormaps x contour-level sets x value windows),
stores every frame in the image database with a structured key, and
writes a queryable index.  The cost model is honest about what the
database costs: each extra parameter combination is a real render at
visualization-stage power.

The extension bench finds the crossover the paper's numbers imply: with
the proxy's cheap dumps, an image database of more than ~3 parameter
combinations per timestep costs *more* energy than just keeping the raw
data — in-situ cinema pays off only when dumps are expensive relative
to renders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import PipelineError
from repro.machine.node import Node
from repro.pipelines.base import (
    InterruptState,
    PipelineConfig,
    RunResult,
    make_solver,
)
from repro.pipelines.loop import PipelineLoop
from repro.rng import RngRegistry
from repro.viz.colormap import COLORMAPS
from repro.viz.render import render_field, render_with_contours


@dataclass(frozen=True)
class CinemaSpec:
    """Parameter space rendered per timestep."""

    colormaps: tuple[str, ...] = ("heat",)
    contour_sets: tuple[tuple[float, ...], ...] = ((),)
    value_windows: tuple[tuple[float, float] | None, ...] = (None,)

    def __post_init__(self) -> None:
        if not self.colormaps or not self.contour_sets or not self.value_windows:
            raise PipelineError("cinema spec dimensions cannot be empty")
        for name in self.colormaps:
            if name not in COLORMAPS:
                raise PipelineError(f"unknown colormap {name!r}")

    @property
    def combinations(self) -> list[tuple[str, tuple[float, ...], tuple[float, float] | None]]:
        """The full (colormap, contour set, value window) cross product."""
        return list(itertools.product(
            self.colormaps, self.contour_sets, self.value_windows,
        ))

    @property
    def n_combinations(self) -> int:
        """Frames rendered per visualization event."""
        return (len(self.colormaps) * len(self.contour_sets)
                * len(self.value_windows))


def default_spec(n_combinations: int) -> CinemaSpec:
    """A spec with roughly ``n_combinations`` frames per timestep."""
    if n_combinations < 1:
        raise PipelineError("need at least one combination")
    maps = ("heat", "viridis-like", "gray", "coolwarm")[: min(4, n_combinations)]
    remaining = max(1, n_combinations // len(maps))
    contour_sets: list[tuple[float, ...]] = [()]
    level_pool = (25.0, 30.0, 40.0, 55.0, 75.0, 100.0, 150.0)
    for i in range(remaining - 1):
        contour_sets.append((level_pool[i % len(level_pool)],))
    return CinemaSpec(colormaps=maps, contour_sets=tuple(contour_sets))


class CinemaPipeline:
    """In-situ rendering of a whole parameter space per timestep."""

    name = "cinema"

    def __init__(self, config: PipelineConfig,
                 spec: CinemaSpec | None = None) -> None:
        self.config = config
        self.spec = spec or CinemaSpec()

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult.

        The database is buffered, never synced, so a resumed run starts
        again at iteration 0 and rewrites it.
        """
        loop = PipelineLoop(self, node, rng, resume)
        solver = make_solver(loop.rng, self.config.grid_scale,
                             self.config.solver_sub_steps)
        combos = self.spec.combinations
        index_rows: list[str] = ["timestep,colormap,contours,window,file"]

        loop.timeline.mark("simulate+render-database")
        for iteration in loop.iterations(solver):
            if iteration not in loop.io_iterations:
                continue
            batch_bytes = self._render_database(loop, solver.grid.data,
                                                iteration, index_rows)
            # One render stage per combination, at visualization power.
            loop.record("visualization", work_scale=len(combos),
                        iteration=iteration, frames=len(combos))
            loop.record("coupling", disk_write_bytes=batch_bytes,
                        iteration=iteration)

        loop.save("db/index.csv", "\n".join(index_rows).encode(),
                  self.config.case.iterations)
        result = loop.result
        if self.config.verify_data:
            self._verify(loop.fs, result)
        result.extra["n_combinations"] = len(combos)
        result.extra["database_files"] = result.images_rendered
        result.extra["final_mean_temperature"] = solver.grid.mean()
        return result

    def _render_database(self, loop: PipelineLoop, field, iteration: int,
                         index_rows: list[str]) -> int:
        """Render and save every combination of one timestep; returns the
        batch's encoded bytes."""
        batch_bytes = 0
        for k, (cmap, levels, window) in enumerate(self.spec.combinations):
            vmin, vmax = window if window else (None, None)
            if levels:
                frame = render_with_contours(
                    field, levels, colormap=cmap,
                    height=self.config.render_height,
                    width=self.config.render_width,
                )
            else:
                frame = render_field(
                    field, colormap=cmap,
                    height=self.config.render_height,
                    width=self.config.render_width,
                    vmin=vmin, vmax=vmax,
                )
            encoded = frame.image.to_png(self.config.frame_png_level)
            name = loop.save_frame(encoded, iteration,
                                   name=f"db/ts{iteration:04d}_k{k:03d}.png")
            batch_bytes += len(encoded)
            index_rows.append(
                f"{iteration},{cmap},{'|'.join(map(str, levels))},"
                f"{window},{name}"
            )
        return batch_bytes

    def _verify(self, fs, result: RunResult) -> None:
        """The database must be complete and every frame decodable."""
        from repro.viz.image import decode_png_size

        index, _ = fs.read("db/index.csv")
        rows = index.decode().splitlines()[1:]
        expected = len(self.config.case.io_iterations()) * self.spec.n_combinations
        if len(rows) != expected:
            raise PipelineError(
                f"index lists {len(rows)} frames, expected {expected}"
            )
        for row in rows:
            name = row.rsplit(",", 1)[-1]
            blob, _ = fs.read(name)
            size = decode_png_size(blob)
            result.verification.grids_checked += 1
            if size == (self.config.render_height, self.config.render_width):
                result.verification.grids_matched += 1
        if not result.verification.ok:
            raise PipelineError("image database contains undecodable frames")
