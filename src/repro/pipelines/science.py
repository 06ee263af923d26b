"""Trajectory cache for the proxy application's physics.

The solver's evolution is a pure function of (science seed, grid scale,
sub-steps): every stochastic input is a named RNG stream and the FTCS
update is deterministic.  Pipelines, however, re-integrate the same
trajectory over and over — the post-processing and in-situ runs of one
case study simulate identical physics by construction, and every figure
that re-runs a case study repeats it again.

This module removes that redundancy without changing a single produced
number.  The first solver created for a key runs live and records a
snapshot of the field at each timestep the pipeline actually observes
(its I/O iterations and the final state).  Subsequent solvers for the
same key replay those snapshots; if a replay is asked for a timestep
that was never recorded, it transparently materializes a fresh live
solver, fast-forwards it, and serves (and records) the real field.
Either way an observed field is the recorded read-only snapshot while
the budget lasts, so its content fingerprint is computed once and
pinned for every later consumer.

Recording copies the live field once and hashes nothing: the snapshot
is the payload region of an unsealed timestep container
(:func:`~repro.storage.format.container_payload`).  The first dump of
that timestep seals the container around it, and the sealed buffer then
serves as the snapshot, the dumped file's body and the read-back grid
alike — one buffer per dumped field.  A field that does not fit that
layout (not C-contiguous ``<f8``, or rows wider than ``CHUNK_BYTES``)
is recorded as a plain read-only copy.

Post-processing and in-situ, the two placements every figure compares,
take their solvers from the cache.  The others build live solvers:
in-transit, sampling and Cinema integrate their own 2-D field (a
restart rebuilds its initial condition from the run's seed), the
multi-node decomposition mutates solver state directly, and the
volumetric pipeline runs the 3-D solver.
"""

from __future__ import annotations

import numpy as np

from repro.calibration import SUB_STEPS
from repro.errors import SimulationError
from repro.pipelines.base import make_solver
from repro.rng import RngRegistry
from repro.sim.grid import Grid2D
from repro.storage.format import container_payload
from repro.units import MiB

#: Snapshot budget per process; past it, new trajectories fall back to
#: live integration (correctness is unaffected, only reuse).
SNAPSHOT_BUDGET_BYTES = 512 * MiB


class _Trajectory:
    """Recorded snapshots of one deterministic solver evolution."""

    def __init__(self, seed: int, grid_scale: int, sub_steps: int,
                 grid: Grid2D, dt: float) -> None:
        self.seed = seed
        self.grid_scale = grid_scale
        self.sub_steps = sub_steps
        self.nx, self.ny = grid.nx, grid.ny
        self.lx, self.ly = grid.lx, grid.ly
        self.dt = dt
        #: steps_taken -> read-only field copy at that point (the payload
        #: of a container buffer when the field fits one).
        self.snapshots: dict[int, np.ndarray] = {}

    def grid_at(self, steps: int) -> Grid2D | None:
        """A read-only Grid2D view of the recorded field, or None."""
        snap = self.snapshots.get(steps)
        if snap is None:
            return None
        return Grid2D.from_array(snap, self.lx, self.ly)


class ScienceCache:
    """Per-process store of solver trajectories, keyed by their inputs."""

    def __init__(self, budget_bytes: int = SNAPSHOT_BUDGET_BYTES) -> None:
        self.budget_bytes = budget_bytes
        self._spent_bytes = 0
        self._trajectories: dict[tuple[int, int, int], _Trajectory] = {}

    def observe(self, trajectory: _Trajectory, steps: int,
                grid: Grid2D) -> Grid2D:
        """The field ``grid`` holds at ``steps``, as pipelines see it.

        Records a snapshot if the budget allows, and hands out the
        recorded read-only snapshot whenever one exists, so every
        consumer of that timestep (writer, checksums, renderer)
        fingerprints one immutable array once.  Recording is one copy
        into a container buffer's payload and no hashing.  Past the
        budget the live grid comes back.
        """
        if steps not in trajectory.snapshots:
            if self._spent_bytes + grid.data.nbytes > self.budget_bytes:
                return grid
            snap = container_payload(grid.data)
            if snap is None:
                snap = grid.data.copy()
                snap.flags.writeable = False
            trajectory.snapshots[steps] = snap
            self._spent_bytes += snap.nbytes
        return trajectory.grid_at(steps)

    def solver_for(self, rng: RngRegistry, grid_scale: int = 1,
                   sub_steps: int = SUB_STEPS):
        """A solver for the keyed trajectory: recording on first use,
        replaying afterwards."""
        key = (rng.seed, int(grid_scale), int(sub_steps))
        trajectory = self._trajectories.get(key)
        if trajectory is None:
            solver = make_solver(rng, grid_scale, sub_steps)
            trajectory = _Trajectory(rng.seed, grid_scale, sub_steps,
                                     solver.grid, solver.dt)
            self._trajectories[key] = trajectory
            return _RecordingSolver(solver, trajectory, self)
        return _ReplaySolver(trajectory, self)


class _RecordingSolver:
    """Wraps a live solver; snapshots the field whenever it is observed."""

    def __init__(self, solver, trajectory: _Trajectory,
                 cache: ScienceCache) -> None:
        self._solver = solver
        self._trajectory = trajectory
        self._cache = cache

    def step(self, n: int = 1) -> None:
        self._solver.step(n)

    @property
    def grid(self) -> Grid2D:
        return self._cache.observe(self._trajectory,
                                   self._solver.steps_taken,
                                   self._solver.grid)

    def __getattr__(self, name: str):
        return getattr(self._solver, name)


class _ReplaySolver:
    """Serves recorded snapshots; falls back to a live solver on a miss.

    The fallback integrates the same key from scratch, so everything it
    produces is bit-identical to the recording run — the cache is purely
    an execution-time optimization.
    """

    def __init__(self, trajectory: _Trajectory, cache: ScienceCache) -> None:
        self._trajectory = trajectory
        self._cache = cache
        self._steps = 0
        self._live = None
        self._grid_cache: tuple[int, Grid2D | None] = (-1, None)

    def step(self, n: int = 1) -> None:
        if n < 0:
            raise SimulationError("cannot step backwards")
        self._steps += n
        if self._live is not None and n:
            self._live.step(n)

    @property
    def steps_taken(self) -> int:
        return self._steps

    @property
    def time(self) -> float:
        t = self._trajectory
        return self._steps * t.sub_steps * t.dt

    @property
    def grid(self) -> Grid2D:
        cached_steps, cached_grid = self._grid_cache
        if cached_steps == self._steps and cached_grid is not None:
            return cached_grid
        grid = self._trajectory.grid_at(self._steps)
        if grid is None:
            grid = self._cache.observe(self._trajectory, self._steps,
                                       self._materialize().grid)
        self._grid_cache = (self._steps, grid)
        return grid

    def _materialize(self):
        if self._live is None:
            t = self._trajectory
            self._live = make_solver(RngRegistry(t.seed), t.grid_scale,
                                     t.sub_steps)
            if self._steps:
                self._live.step(self._steps)
        return self._live

    def __getattr__(self, name: str):
        return getattr(self._materialize(), name)


#: The process-wide cache the post-processing and in-situ runs share.
_CACHE = ScienceCache()


def cached_solver(rng: RngRegistry, grid_scale: int = 1,
                  sub_steps: int = SUB_STEPS):
    """Process-cached :func:`~repro.pipelines.base.make_solver` equivalent.

    Returns a solver whose observable behaviour (``step``/``grid``/
    ``time``) is bit-identical to a fresh live solver for the same
    ``rng.seed``; repeated trajectories are served from snapshots.
    """
    return _CACHE.solver_for(rng, grid_scale, sub_steps)
