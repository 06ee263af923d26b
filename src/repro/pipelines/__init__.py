"""The paper's subject systems: visualization pipelines.

Seven placements of the same stages around one proxy application, each a
declaration over the one loop in :mod:`repro.pipelines.loop`:

* :class:`~repro.pipelines.post.PostProcessingPipeline` — simulate and
  dump every selected timestep (phase 1), then read everything back and
  visualize (phase 2), with sync + drop-caches between stages (Fig 2a).
* :class:`~repro.pipelines.insitu.InSituPipeline` — visualize alongside
  the simulation, writing only rendered images (Fig 2b).
* :class:`~repro.pipelines.intransit.InTransitPipeline` — ship data to a
  staging node for asynchronous visualization (the Bennett et al. hybrid
  the related work covers; extension).
* :class:`~repro.pipelines.sampled.SamplingInSituPipeline` — in-situ
  rendering plus decimated timestep dumps (Sec V.C's sampling option).
* :class:`~repro.pipelines.cluster.ClusterInSituPipeline` — in situ over
  an N-node domain decomposition with halo exchange and binary-swap
  compositing (the paper's multi-node future work).
* :class:`~repro.pipelines.cinema.CinemaPipeline` — an in-situ image
  database over a parameter space (Ahrens et al.'s Cinema).
* :class:`~repro.pipelines.volumetric.VolumetricInSituPipeline` — a 3-D
  solver ray-cast in situ.

:class:`~repro.pipelines.runner.PipelineRunner` executes a pipeline on a
node, meters it, and returns a :class:`~repro.pipelines.base.RunResult`;
:class:`~repro.faults.resilience.ResilientPipelineRunner` also restarts
any of them after a device failure.
"""

from repro.pipelines.base import PipelineConfig, RunResult, VerificationRecord
from repro.pipelines.post import PostProcessingPipeline
from repro.pipelines.insitu import InSituPipeline
from repro.pipelines.intransit import InTransitPipeline
from repro.pipelines.sampled import SamplingInSituPipeline
from repro.pipelines.cluster import ClusterInSituPipeline
from repro.pipelines.cinema import CinemaPipeline, CinemaSpec
from repro.pipelines.volumetric import VolumetricInSituPipeline
from repro.pipelines.dvfs import apply_dvfs, io_phase_dvfs
from repro.pipelines.runner import PipelineRunner

__all__ = [
    "PipelineConfig",
    "RunResult",
    "VerificationRecord",
    "PostProcessingPipeline",
    "InSituPipeline",
    "InTransitPipeline",
    "SamplingInSituPipeline",
    "ClusterInSituPipeline",
    "CinemaPipeline",
    "CinemaSpec",
    "VolumetricInSituPipeline",
    "apply_dvfs",
    "io_phase_dvfs",
    "PipelineRunner",
]
