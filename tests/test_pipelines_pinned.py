"""Every placement's observable run, pinned by hash.

Each run below is hashed from what the power model and the experiments
consume: every span's stage, ``t0``, ``t1``, every ``Activity`` field and
its sorted meta; the phase markers; in-transit's staging timeline; and
the ``RunResult`` counters and plain extras.  Floats enter as ``repr``,
so a span that moves by one ulp changes its hash.  The metered profile
and numpy-derived extras (mean temperatures, sampling reports, field
ranges) stay out.

The expected hashes were taken from the seven hand-written pipeline
loops before they were folded into one loop, so any span, byte, file
operation or RNG draw the refactor moved shows up here.
"""

import dataclasses
import functools
import hashlib

import pytest

from repro.calibration import CASE_STUDIES
from repro.experiments.faults import run_faulted
from repro.faults.plan import FaultSpec
from repro.pipelines import (
    CinemaPipeline,
    ClusterInSituPipeline,
    InSituPipeline,
    InTransitPipeline,
    PipelineConfig,
    PipelineRunner,
    PostProcessingPipeline,
    SamplingInSituPipeline,
    VolumetricInSituPipeline,
)
from repro.pipelines.cinema import default_spec

#: Extras that are numpy reductions or metered values, not pinned here.
UNPINNED_EXTRAS = frozenset({
    "final_mean_temperature", "sampling_reports", "mean_nrmse",
    "byte_fraction", "field_range", "staging_timeline", "staging_profile",
    "staging_energy_j", "total_energy_j",
})


def _config(case=1, **kw):
    return PipelineConfig(case=CASE_STUDIES[case], **kw)


PLACEMENTS = {
    "post-case1": lambda: PostProcessingPipeline(_config(1)),
    "insitu-case1": lambda: InSituPipeline(_config(1)),
    "post-case3-contours-ppm": lambda: PostProcessingPipeline(
        _config(3, contour_levels=(30.0, 60.0), image_format="ppm")),
    "insitu-case3-contours-ppm": lambda: InSituPipeline(
        _config(3, contour_levels=(30.0, 60.0), image_format="ppm")),
    "post-scale2-unverified": lambda: PostProcessingPipeline(
        _config(1, grid_scale=2, verify_data=False)),
    "insitu-checkpoint7": lambda: InSituPipeline(
        _config(1, checkpoint_interval=7)),
    "intransit-case1": lambda: InTransitPipeline(_config(1)),
    "intransit-case3": lambda: InTransitPipeline(_config(3)),
    "sampled-factor4": lambda: SamplingInSituPipeline(_config(1), 4),
    "sampled-factor2": lambda: SamplingInSituPipeline(_config(3), 2),
    "cluster-1node": lambda: ClusterInSituPipeline(_config(1), 1),
    "cluster-4nodes": lambda: ClusterInSituPipeline(_config(1), 4),
    "cinema-default": lambda: CinemaPipeline(_config(1)),
    "cinema-spec6": lambda: CinemaPipeline(_config(3), default_spec(6)),
    "volumetric-2axes": lambda: VolumetricInSituPipeline(
        _config(1), resolution=16, axes=(0, 2), samples=16),
}

EXPECTED = {
    "cinema-default":
        "9cd1bd6ab4f65e937bb91016c3d968178c9ebcbd187210fccb6697ffdc6ce987",
    "cinema-spec6":
        "3da3692508c0579a2e38dadc2efea0b7f090e4b2f51821cbf4ce46001879534d",
    "cluster-1node":
        "89655cc58a969c50ac5845e0cb20784299b77bcab9852c75b0c1dcc69224fb69",
    "cluster-4nodes":
        "32d2e62b29845158d709fdd792541fa786d9f835f149449b2d378a7fce52db56",
    "faulted-insitu-checkpoint10":
        "85e483cc8d03663be7ece2a4ca743dcd45e4da77ec7124d2e6fc9d20c4bc7eb4",
    "faulted-insitu-checkpoint10/base":
        "1d37c8f6cd78a766f0a87ac981f21c35164fff7ba2ecf2415e1286620d085018",
    "faulted-insitu-no-checkpoint":
        "77c04d8882098f784c22bb2d4bc5a854746b6c9aa9f64fca0c8dfaa4f5b56c0a",
    "faulted-insitu-no-checkpoint/base":
        "77c04d8882098f784c22bb2d4bc5a854746b6c9aa9f64fca0c8dfaa4f5b56c0a",
    "faulted-post":
        "8747c22d90d08c9cdd708138c4ee1186a35c4e4da5b55e47f5a424affaee5d92",
    "faulted-post/base":
        "3cb076412738f0a794254ead8db9f6f610ee028ce8fe4dc2c3ce47c2b66e74d6",
    "insitu-case1":
        "77c04d8882098f784c22bb2d4bc5a854746b6c9aa9f64fca0c8dfaa4f5b56c0a",
    "insitu-case3-contours-ppm":
        "fe0eeb9d6e89d6a5245df46fabb7e3a53fbab888b4d604d7ef8dc8e0281bfe68",
    "insitu-checkpoint7":
        "fec5126c644a7a896ba52b4972b15ebb62f3e3c859f5d685f04a7b5aec2688e5",
    "intransit-case1":
        "793467a280ee8b9bd143551de6ff70421611241fb8abe28fd385166ade383663",
    "intransit-case3":
        "d4e73d176ec23241484a6100a66029fbbffe66ef69882c668b381d4f23375f65",
    "post-case1":
        "3cb076412738f0a794254ead8db9f6f610ee028ce8fe4dc2c3ce47c2b66e74d6",
    "post-case3-contours-ppm":
        "401c0b27ca19af98619f2c213a40badc1c4937a9374296c767395228a398c0e0",
    "post-scale2-unverified":
        "8be89f587fe6974e7e636e2b2e95b204594c1b43edb4690a9c2677c6c4189104",
    "sampled-factor2":
        "2513e49392995783468b32da3d61233534cfa6f0c982f8ad1f65f9904a25d510",
    "sampled-factor4":
        "6c68f145bf8b90a70fd0ad57a5639ee92eeef5ad8f844727e42a8a83af3dd126",
    "volumetric-2axes":
        "61dce0f4e0abec8ef088d004c578dbdfacd61ed8f92bee147a9406e7b97d4f19",
}


def _hash_timeline(h, timeline) -> None:
    for span in timeline:
        activity = tuple(repr(getattr(span.activity, f.name))
                         for f in dataclasses.fields(span.activity))
        h.update(repr((span.stage, repr(span.t0), repr(span.t1), activity,
                       sorted((k, repr(v)) for k, v in span.meta.items()))
                      ).encode())
    for marker in timeline.markers:
        h.update(repr((marker.name, repr(marker.t))).encode())


def run_digest(result) -> str:
    """sha256 over a run's spans, markers, counters and plain extras."""
    h = hashlib.sha256()
    _hash_timeline(h, result.timeline)
    staging = result.extra.get("staging_timeline")
    if staging is not None:
        h.update(b"staging")
        _hash_timeline(h, staging)
    h.update(repr((
        result.pipeline, result.case.index, result.images_rendered,
        result.image_bytes, result.data_bytes_written,
        result.data_bytes_read, result.verification.grids_checked,
        result.verification.grids_matched,
        sorted(result.extra),
        sorted((k, repr(v)) for k, v in result.extra.items()
               if k not in UNPINNED_EXTRAS),
    )).encode())
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _faulted(kind: str, interval: int):
    """``run_faulted``'s fault-free run and its mid-run-failure run,
    built as ``tests/test_faults.py`` builds them."""
    base, device = run_faulted(kind, FaultSpec(seed=2015), seed=2015,
                               checkpoint_interval=interval)
    if kind == "post":
        spec = FaultSpec(seed=2015, transient_rate=0.02, sector_rate=0.005,
                         fail_at_op=device.ops_serviced // 2)
    else:
        spec = FaultSpec(seed=2015, fail_at_op=device.ops_serviced // 2)
    faulted, _ = run_faulted(kind, spec, seed=2015,
                             checkpoint_interval=interval)
    return base, faulted


FAULTED = {
    "faulted-post": ("post", 0),
    "faulted-insitu-checkpoint10": ("insitu", 10),
    "faulted-insitu-no-checkpoint": ("insitu", 0),
}


@pytest.mark.parametrize("name", sorted(PLACEMENTS))
def test_placement_is_pinned(name):
    result = PipelineRunner(seed=2015).run(PLACEMENTS[name]())
    assert run_digest(result) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(FAULTED))
def test_faulted_run_is_pinned(name):
    base, faulted = _faulted(*FAULTED[name])
    assert run_digest(base) == EXPECTED[f"{name}/base"]
    assert run_digest(faulted) == EXPECTED[name]
