"""The one pipeline loop every placement walks.

The paper compares placements of the same stages (simulate, dump, read
back, render) around one proxy application.  :class:`PipelineLoop` owns
what every placement repeats; a placement's ``run()`` declares the rest
by walking the loop and calling its own stages directly:

* the run's :class:`~repro.trace.timeline.Timeline` and
  :class:`~repro.pipelines.base.RunResult`;
* the simulation span of each iteration, priced from
  ``config.stage_table``, and the I/O-iteration schedule;
* storage from :func:`~repro.pipelines.base.make_storage` armed with
  ``config.retry_policy``, synced timestep dumps, frame saves and in-situ
  checkpoints;
* one fault path.  Every device operation runs under :meth:`io`: the
  extra wall time burned by failed attempts and backoff waits (not in
  the calibrated stage table) becomes an idle ``recovery`` span, and a
  failure that escapes the retry layer discards the half-written dump
  and raises :class:`~repro.errors.PipelineInterrupted` carrying an
  :class:`~repro.pipelines.base.InterruptState`.  A resilient runner
  repairs the device and re-enters ``run(..., resume=state)``, which
  resumes at the last durable iteration: post's last synced dump (or, in
  its read phase, its last visualized timestep), in-situ's last
  checkpoint, and iteration 0 for placements with no durable files,
  which then rewrite what they wrote.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any

from repro.calibration import CHUNK_BYTES
from repro.errors import FaultError, PipelineInterrupted, RetryExhaustedError
from repro.fingerprint import field_fingerprint
from repro.machine.node import Node
from repro.pipelines.base import InterruptState, RunResult, make_storage
from repro.rng import RngRegistry
from repro.sim.grid import Grid2D
from repro.storage.writer import DataWriter, WriteReport
from repro.trace.events import Activity
from repro.trace.timeline import Timeline


class PipelineLoop:
    """One attempt at one placement's run on one node.

    ``resume`` continues an interrupted attempt on its surviving storage;
    a fresh run builds storage unless ``storage`` is False (placements
    that never touch a disk) and starts in ``phase``.
    """

    def __init__(self, pipeline, node: Node, rng: RngRegistry | None,
                 resume: InterruptState | None, *, storage: bool = True,
                 phase: str = "loop") -> None:
        self.config = config = pipeline.config
        self.name = pipeline.name
        rng = rng or RngRegistry()
        # A restart rebuilds its initial condition from the run's seed, so
        # a live solver draws the field the first attempt started from.
        self.rng = rng if resume is None else RngRegistry(rng.seed)
        self.stages = config.stage_table
        self.timeline = Timeline()
        self.result = RunResult(self.name, config.case, self.timeline)
        self.io_iterations = set(config.case.io_iterations())
        if resume is not None:
            self.fs, self.phase = resume.fs, resume.phase
            self.durable, self.resume_bytes = resume.iteration, resume.resume_bytes
            self.checksums = resume.checksums
        else:
            self.fs = (make_storage(node, rng, retry=config.retry_policy)
                       if storage else None)
            self.phase, self.durable, self.resume_bytes = phase, 0, 0
            self.checksums: dict[int, int] = {}
        if self.fs is not None:
            stats = self.fs.queue.stats
            #: Fault time, faults and retries already priced as recovery.
            self._priced = (stats.fault_time, stats.n_faults, stats.n_retries)

    def record(self, stage: str, disk_read_bytes: float = 0.0,
               disk_write_bytes: float = 0.0, work_scale: float = 1.0,
               **meta: Any):
        """Append a span for ``stage`` priced from this run's stage table.

        Stages with a payload term (nnwrite/nnread) scale their duration
        with the bytes actually moved; at the paper's 128 KiB payloads the
        term is negligible against the sync/drop-caches barrier.
        ``work_scale`` multiplies the base term.
        """
        cal = self.stages[stage]
        payload = disk_read_bytes + disk_write_bytes
        duration = cal.duration_for(payload if payload > 0 else None, work_scale)
        activity = cal.activity(disk_read_bytes, disk_write_bytes, duration)
        return self.timeline.record(stage, duration, activity, **meta)

    def iterations(self, solver, work_scale: float | None = None,
                   nodes: int = 1):
        """Step ``solver`` through the run, yielding each iteration.

        Starts past the last durable iteration, after restoring the field
        there: replayed from the trajectory cache or integrated again
        (the restart span already charged the checkpoint read).  Each
        step is priced as one simulation span of ``work_scale`` (default:
        the config's grid-scale factor); ``nodes`` splits it over a
        symmetric cluster.
        """
        cal = self.stages["simulation"]
        duration = cal.duration_for(
            work_scale=work_scale or self.config.sim_work_scale) / nodes
        if self.durable:
            solver.step(self.durable)
        for iteration in range(self.durable + 1,
                               self.config.case.iterations + 1):
            solver.step(1)
            self.timeline.record("simulation", duration, cal.activity(),
                                 iteration=iteration)
            yield iteration

    # -- storage ----------------------------------------------------------------

    @contextmanager
    def io(self, iteration: int, discard: str | None = None):
        """Run one device operation under the fault path.

        Retry time is priced as a ``recovery`` span.  A fault that escaped
        the retry layer discards ``discard`` (committed but not durably
        synced, so the restarted run writes it again) and interrupts the
        run at its last durable iteration.
        """
        try:
            yield
        except (FaultError, RetryExhaustedError) as exc:
            self._poll(iteration)
            if discard is not None and self.fs.exists(discard):
                self.fs.delete(discard)
            state = InterruptState(
                pipeline=self.name, phase=self.phase, iteration=self.durable,
                fs=self.fs, result=self.result, checksums=self.checksums,
                resume_bytes=self.resume_bytes,
            )
            raise PipelineInterrupted(
                f"{self.name} interrupted in phase {self.phase!r} "
                f"(last durable iteration {self.durable}): {exc}",
                state=state,
            ) from exc
        self._poll(iteration)

    def _poll(self, iteration: int) -> None:
        """Record a ``recovery`` span for fault time accrued since the last
        poll.  The device is erroring or waiting, not streaming, so the
        span is idle: the node's static floor still prices it."""
        stats = self.fs.queue.stats
        fault_time, faults, retries = self._priced
        if stats.fault_time - fault_time <= 0:
            return
        self._priced = (stats.fault_time, stats.n_faults, stats.n_retries)
        self.timeline.record("recovery", stats.fault_time - fault_time,
                             Activity(), faults=stats.n_faults - faults,
                             retries=stats.n_retries - retries,
                             iteration=iteration)

    def save(self, name: str, data: bytes, iteration: int) -> None:
        """Write ``name`` (buffered, no sync), replacing any copy an
        interrupted attempt left behind."""
        if self.fs.exists(name):
            self.fs.delete(name)
        with self.io(iteration):
            self.fs.write(name, data)

    def save_frame(self, encoded: bytes, iteration: int,
                   name: str | None = None) -> str:
        """Count and save one rendered frame; returns its file name."""
        if name is None:
            name = f"frame{iteration:04d}.{self.config.image_format}"
        self.result.images_rendered += 1
        self.result.image_bytes += len(encoded)
        self.save(name, encoded, iteration)
        return name

    def dump(self, writer: DataWriter, grid: Grid2D, iteration: int,
             physical_time: float, *, restart: bool = False,
             **meta: Any) -> WriteReport:
        """Dump ``grid`` through ``writer`` and price it as an ``nnwrite``.

        ``restart`` marks the dump a restart point: once synced, it is
        the run's last durable iteration.
        """
        name = writer.filename(iteration)
        if self.fs.exists(name):  # a run restarted at iteration 0 redumps
            self.fs.delete(name)
        with self.io(iteration, discard=name):
            report = writer.write_timestep(grid, iteration,
                                           physical_time=physical_time)
        if self.config.verify_data:
            self.checksums[iteration] = field_fingerprint(grid.data)
        self.result.data_bytes_written += report.nbytes
        self.record("nnwrite", disk_write_bytes=report.nbytes,
                    iteration=iteration, file=report.name, **meta)
        if restart:
            self.durable = iteration
            self.resume_bytes = report.nbytes
        return report

    def checkpoint(self, solver, iteration: int) -> None:
        """In-situ resilience: a durable dump of the field every
        ``checkpoint_interval`` iterations.  Caches stay warm (the loop
        reuses the field at once), unlike post's timestep dumps."""
        interval = self.config.checkpoint_interval
        if interval and iteration % interval == 0:
            writer = DataWriter(self.fs, prefix="ck", chunk_bytes=CHUNK_BYTES,
                                drop_caches_each=False)
            self.dump(writer, solver.grid, iteration, solver.time,
                      restart=True, checkpoint=True)

    def verify(self, grid: Grid2D, timestep: int) -> None:
        """Count one read-back grid against the checksum of its dump."""
        self.result.verification.grids_checked += 1
        if field_fingerprint(grid.data) == self.checksums.get(timestep):
            self.result.verification.grids_matched += 1
