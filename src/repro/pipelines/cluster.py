"""Multi-node decomposed in-situ pipeline (future-work extension).

The paper's Section VI asks for "evaluation on a multi-node system to
study the effect of network I/O in addition to disk I/O".  This pipeline
runs the proxy app domain-decomposed over an N-node cluster:

* each node integrates its tile (the numerics really run decomposed,
  through :class:`~repro.sim.decomposition.BlockDecomposition`, with real
  halo exchanges whose wire bytes are priced by the link model);
* on visualization iterations every node renders its tile and the tiles
  are composited with a binary-swap schedule whose traffic is priced by
  :func:`~repro.viz.compositing.compositing_bytes`;
* no raw data touches any disk (in-situ).

The cluster is symmetric, so the run is represented by one node's
timeline; total cluster energy = N x the metered node energy (the runner
fills ``extra["total_energy_j"]`` from ``extra["energy_multiplier"]``).

The strong-scaling shape the ablation bench pins down: wall time falls
~1/N until halo + compositing latency floors it, while *total* energy
passes through a minimum and then grows — every extra node adds a
~105 W static floor that shrinking per-node work cannot pay for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PipelineError
from repro.machine.network import LinkModel
from repro.machine.node import Node
from repro.pipelines.base import (
    InterruptState,
    PipelineConfig,
    RunResult,
    make_solver,
)
from repro.pipelines.loop import PipelineLoop
from repro.rng import RngRegistry
from repro.sim.decomposition import BlockDecomposition
from repro.sim.heat import HeatSolver
from repro.trace.events import Activity
from repro.viz.compositing import compositing_bytes
from repro.viz.render import render_field


def choose_mesh(n_nodes: int, interior: int) -> tuple[int, int]:
    """Most-square (pr, pc) factorization of ``n_nodes`` dividing ``interior``."""
    if n_nodes < 1:
        raise PipelineError("need at least one node")
    best: tuple[int, int] | None = None
    for pr in range(1, n_nodes + 1):
        if n_nodes % pr:
            continue
        pc = n_nodes // pr
        if interior % pr or interior % pc:
            continue
        if best is None or abs(pr - pc) < abs(best[0] - best[1]):
            best = (pr, pc)
    if best is None:
        raise PipelineError(
            f"{n_nodes} nodes cannot tile a {interior}x{interior} interior"
        )
    return best


@dataclass
class _DecomposedSolver:
    """The proxy solver stepped tile by tile over a block decomposition."""

    solver: HeatSolver
    decomp: BlockDecomposition

    def step(self, n: int = 1) -> None:
        """Advance ``n`` pipeline timesteps, decomposed.

        Each sub-step sweeps the tiles, then the driver applies the global
        source/boundary terms and scatters them back (one extra halo
        refresh).
        """
        solver = self.solver
        for _ in range(n):
            for _ in range(solver.sub_steps):
                self.decomp.step(solver.alpha, solver.dt)
                for s in solver.sources:
                    solver.grid.data[s.row0 : s.row1, s.col0 : s.col1] += (
                        s.rate * solver.dt
                    )
                solver.apply_boundary()
                self.decomp.scatter()
            solver.steps_taken += 1


class ClusterInSituPipeline:
    """Domain-decomposed in-situ visualization over N symmetric nodes."""

    name = "cluster-in-situ"

    def __init__(self, config: PipelineConfig, n_nodes: int) -> None:
        if n_nodes < 1:
            raise PipelineError("n_nodes must be >= 1")
        self.config = config
        self.n_nodes = n_nodes

    def _composite_ranks(self) -> int:
        """Binary-swap rank count: next power of two >= n_nodes.

        Binary-swap compositing wants a power-of-two rank count; any
        node count is accepted, and non-power-of-two counts are priced
        as if the schedule were padded to the next power of two — the
        padded ranks' exchange traffic is what the composite stage
        bills.
        """
        n = 1
        while n < self.n_nodes:
            n <<= 1
        return n

    def run(self, node: Node, rng: RngRegistry | None = None,
            resume: InterruptState | None = None) -> RunResult:
        """Execute the pipeline on ``node``; returns the unmetered RunResult."""
        loop = PipelineLoop(self, node, rng, resume, storage=False)
        solver = make_solver(loop.rng, self.config.grid_scale,
                             self.config.solver_sub_steps)
        interior = solver.grid.nx - 2
        pr, pc = choose_mesh(self.n_nodes, interior)
        decomp = BlockDecomposition(solver.grid, pr, pc)
        link = LinkModel(node.spec.network)
        timeline = loop.timeline
        result = loop.result
        vis_cal = loop.stages["visualization"]

        # Per-node shares: compute parallelizes over nodes; render over tiles.
        vis_duration = vis_cal.duration_s / self.n_nodes
        halo_bytes_per_node = decomp.halo_bytes_per_exchange() / max(1, self.n_nodes)
        image_bytes = self.config.render_height * self.config.render_width * 4
        swap_bytes_per_node = (
            compositing_bytes(self._composite_ranks(), image_bytes)
            / self._composite_ranks()
        )

        timeline.mark("decomposed simulate+visualize")
        for iteration in loop.iterations(_DecomposedSolver(solver, decomp),
                                         nodes=self.n_nodes):
            if halo_bytes_per_node > 0:
                halo_time = self.config.solver_sub_steps * link.transfer_time(
                    halo_bytes_per_node)
                rate = halo_bytes_per_node * self.config.solver_sub_steps / halo_time
                timeline.record(
                    "halo-exchange", halo_time,
                    Activity(cpu_util=0.02,
                             net_bytes_per_s=min(rate, link.spec.link_bw_bytes_per_s)),
                    iteration=iteration,
                )
            if iteration not in loop.io_iterations:
                continue
            frame = render_field(
                solver.grid.data,
                height=self.config.render_height,
                width=self.config.render_width,
            )
            result.images_rendered += 1
            result.image_bytes += frame.nbytes
            timeline.record("visualization", vis_duration, vis_cal.activity(),
                            iteration=iteration)
            if swap_bytes_per_node > 0:  # single node composites locally
                swap_time = link.transfer_time(swap_bytes_per_node)
                timeline.record(
                    "compositing", swap_time,
                    Activity(cpu_util=0.05,
                             net_bytes_per_s=min(swap_bytes_per_node / swap_time,
                                                 link.spec.link_bw_bytes_per_s)),
                    iteration=iteration,
                )

        result.extra["n_nodes"] = self.n_nodes
        result.extra["mesh"] = (pr, pc)
        result.extra["energy_multiplier"] = self.n_nodes
        result.extra["halo_bytes_per_exchange"] = decomp.halo_bytes_per_exchange()
        result.extra["final_mean_temperature"] = solver.grid.mean()
        return result
