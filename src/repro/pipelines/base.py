"""Pipeline plumbing: configuration, results, and the shared factories.

A pipeline *really runs*: the heat solver integrates the PDE, dumps flow
through the page cache and filesystem into the disk model, the renderer
produces PNG images.  Wall-clock time and power, however, come from the
calibrated cost model (see :mod:`repro.experiments.calibration`) so runs
are deterministic and land where the paper's testbed did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import PipelineError
from repro.fingerprint import ContentMemo, field_fingerprint
from repro.calibration import (
    CHUNK_BYTES,
    STAGE,
    SUB_STEPS,
    CaseStudyConfig,
)
from repro.faults.retry import RetryPolicy, RetrySession
from repro.machine.node import Node
from repro.power.profile import PowerProfile
from repro.rng import RngRegistry
from repro.sim.grid import Grid2D
from repro.sim.heat import HeatSolver, HeatSource
from repro.system.blockdev import BlockQueue
from repro.system.filesystem import FileSystem
from repro.system.pagecache import PageCache
from repro.trace.timeline import Timeline
from repro.viz.render import RenderResult, render_field, render_with_contours


@dataclass(frozen=True)
class PipelineConfig:
    """Shared pipeline knobs.

    Attributes
    ----------
    case:
        Which of the paper's application configurations to run.
    render_height / render_width:
        Output image resolution of the visualization stage.
    image_format:
        ``"png"`` or ``"ppm"`` for saved frames.
    contour_levels:
        Isocontour levels burned into each frame (empty = none).
    verify_data:
        End-to-end storage validation: post-processing compares every
        read-back grid against the grid that was written, sampling
        re-reads its decimated dumps the same way, and Cinema checks that
        its image database is complete and every frame decodes.  The
        other placements read nothing back.
    """

    case: CaseStudyConfig
    render_height: int = 256
    render_width: int = 256
    image_format: str = "png"
    #: zlib effort for PNG frames.  Frames are a pipeline *product*, not
    #: the measured I/O load (coupling cost scales with the encoded size,
    #: which the calibration already absorbs), so the default favours
    #: encode speed over a few KiB of frame size.
    frame_png_level: int = 1
    contour_levels: tuple[float, ...] = ()
    verify_data: bool = True
    #: Grid-scale ablation: the field is (128*scale)^2 float64, so the
    #: per-timestep dump volume grows as scale^2 (1 = the paper's 128 KiB).
    grid_scale: int = 1
    #: Physics sub-steps per pipeline timestep (modeled time unaffected).
    solver_sub_steps: int = SUB_STEPS
    #: If False, the simulation stage's modeled cost stays at the paper's
    #: 1.588 s even on scaled grids — modeling the exascale premise that
    #: compute capability grows with the problem while I/O does not.
    scale_sim_with_grid: bool = True
    #: Per-stage calibration overrides, e.g. a faster I/O byte rate for a
    #: deep-memory-hierarchy (NVRAM-staging) study.  Stored as a tuple of
    #: (stage name, StageCalibration) pairs so the config stays hashable.
    stage_overrides: tuple = ()
    #: Bounded-retry policy for faulted device operations (None = no
    #: retries: any injected fault propagates).  Fault-free runs are
    #: bit-identical with or without a policy.
    retry_policy: RetryPolicy | None = None
    #: In-situ resilience: write a durable checkpoint of the field every
    #: this many iterations (0 = never).  Post-processing runs checkpoint
    #: implicitly through their synced timestep dumps.
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if self.image_format not in ("png", "ppm"):
            raise PipelineError(f"unknown image format {self.image_format!r}")
        if not 0 <= self.frame_png_level <= 9:
            raise PipelineError("frame_png_level must be a zlib level in [0, 9]")
        if self.render_height <= 0 or self.render_width <= 0:
            raise PipelineError("render resolution must be positive")
        if self.grid_scale < 1 or self.grid_scale > 64:
            raise PipelineError("grid_scale must be in [1, 64]")
        if self.solver_sub_steps < 1:
            raise PipelineError("solver_sub_steps must be >= 1")
        if self.checkpoint_interval < 0:
            raise PipelineError("checkpoint_interval must be >= 0")

    @property
    def sim_work_scale(self) -> float:
        """Simulation-stage cost multiplier (cell count ratio)."""
        if not self.scale_sim_with_grid:
            return 1.0
        return float(self.grid_scale ** 2)

    @property
    def stage_table(self) -> dict:
        """The calibrated stage table with this config's overrides applied."""
        table = dict(STAGE)
        for name, cal in self.stage_overrides:
            if name not in table:
                raise PipelineError(f"override for unknown stage {name!r}")
            table[name] = cal
        return table


@dataclass
class VerificationRecord:
    """End-to-end data-integrity outcome of a run."""

    grids_checked: int = 0
    grids_matched: int = 0

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return self.grids_checked == self.grids_matched


@dataclass
class RunResult:
    """Everything a pipeline run produced."""

    pipeline: str
    case: CaseStudyConfig
    timeline: Timeline
    profile: PowerProfile | None = None
    images_rendered: int = 0
    image_bytes: int = 0
    data_bytes_written: int = 0
    data_bytes_read: int = 0
    verification: VerificationRecord = field(default_factory=VerificationRecord)
    extra: dict[str, Any] = field(default_factory=dict)

    # -- headline metrics (require a metered profile) ---------------------------

    def _require_profile(self) -> PowerProfile:
        if self.profile is None:
            raise PipelineError("run has not been metered yet")
        return self.profile

    @property
    def execution_time_s(self) -> float:
        """Wall-clock (simulated) duration of the run."""
        return self.timeline.duration

    @property
    def energy_j(self) -> float:
        """Full-system energy of the metered run (J)."""
        return self._require_profile().energy()

    @property
    def average_power_w(self) -> float:
        """Average full-system power of the metered run (W)."""
        return self._require_profile().average()

    @property
    def peak_power_w(self) -> float:
        """Peak full-system power of the metered run (W)."""
        return self._require_profile().peak()

    @property
    def work_units(self) -> float:
        """Science accomplished: solver timesteps (same for both pipelines
        within a case study, which is what makes Fig 11's efficiency
        comparison meaningful)."""
        return float(self.case.iterations)

    @property
    def energy_efficiency(self) -> float:
        """Work per joule (Fig 11's metric, before normalization)."""
        e = self.energy_j
        if e <= 0:
            raise PipelineError("non-positive energy")
        return self.work_units / e


@dataclass
class InterruptState:
    """Where a pipeline stood when a device failure interrupted it.

    Carried on :class:`~repro.errors.PipelineInterrupted` so a resilient
    runner can repair the device and re-enter ``pipeline.run(...,
    resume=state)``.  ``iteration`` is the last *durable* iteration (post
    phase 1: last synced dump; in-situ: last checkpoint; 0 for placements
    with no durable files) or, in post's read phase, the last fully
    visualized timestep.  The surviving filesystem keeps all committed
    files and the queue's cumulative fault counters.
    """

    pipeline: str
    phase: str
    iteration: int
    fs: FileSystem
    result: RunResult
    checksums: dict[int, int] = field(default_factory=dict)
    #: Checkpoint bytes a restart has to re-read to restore solver state.
    resume_bytes: int = 0


def make_solver(rng: RngRegistry, grid_scale: int = 1,
                sub_steps: int = SUB_STEPS) -> HeatSolver:
    """The proxy application instance: 128 KB grid, hot-corner source.

    ``grid_scale`` multiplies the resolution in each dimension for the
    data-volume ablation (the source patch scales with it so the physics
    stays self-similar).
    """
    n = 128 * grid_scale
    grid = Grid2D(n, n)
    gen = rng.get("initial-condition")
    grid.data[:] = 20.0 + gen.normal(0.0, 0.05, grid.shape)
    source = HeatSource(row0=24 * grid_scale, row1=40 * grid_scale,
                        col0=24 * grid_scale, col1=40 * grid_scale, rate=45.0)
    return HeatSolver(
        grid, alpha=1.0e-4, sources=(source,), boundary_value=20.0,
        sub_steps=sub_steps,
    )


#: (field fingerprint, render knobs) -> (frame, encoded bytes).  Both
#: pipelines of a comparison visualize the identical physics, so half of
#: all frames are repeats; FIFO-bounded so long sweeps stay flat.
_FRAME_CACHE = ContentMemo(max_entries=256)


def render_pipeline_frame(data: np.ndarray,
                          config: PipelineConfig) -> tuple[RenderResult, bytes]:
    """Render + encode one output frame for ``config``, deduplicated.

    Rendering is a pure function of the field contents and the render
    knobs, so frames are cached under a content fingerprint: the paired
    pipelines (and repeated experiments) visualize identical fields and
    skip the raster + encode entirely on the second sighting.
    """
    fingerprint = field_fingerprint(data)
    key = None
    if fingerprint is not None:
        key = (fingerprint, config.render_height, config.render_width,
               config.contour_levels, config.image_format,
               config.frame_png_level)
        hit = _FRAME_CACHE.get(key)  # greenlint: ignore[GL18]  (keyed on the field fingerprint + full render config: value-deterministic)
        if hit is not None:
            return hit
    if config.contour_levels:
        frame = render_with_contours(
            data, config.contour_levels,
            height=config.render_height, width=config.render_width,
        )
    else:
        frame = render_field(
            data, height=config.render_height, width=config.render_width,
        )
    if config.image_format == "png":
        encoded = frame.image.to_png(config.frame_png_level)
    else:
        encoded = frame.image.to_ppm()
    if key is not None:
        _FRAME_CACHE.put(key, (frame, encoded),
                         frame.nbytes + len(encoded))
    return frame, encoded


def make_storage(node: Node, rng: RngRegistry,
                 layout: str = "contiguous",
                 retry: RetryPolicy | None = None) -> FileSystem:
    """A fresh filesystem over the node's storage device.

    ``retry`` arms the block queue with a bounded-retry session whose
    jitter stream comes from the run's rng (deterministic per seed).
    """
    session = None
    if retry is not None:
        session = RetrySession(retry, rng.get("fault-backoff-jitter"))
    queue = BlockQueue(node.storage, retry=session)
    cache = PageCache(queue, capacity_bytes=node.spec.dram.capacity_bytes // 2)
    return FileSystem(queue, cache=cache, layout=layout, rng=rng)


__all__ = [
    "InterruptState",
    "PipelineConfig",
    "RunResult",
    "VerificationRecord",
    "make_solver",
    "make_storage",
    "render_pipeline_frame",
    "CHUNK_BYTES",
]
