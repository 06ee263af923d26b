"""Synthetic application profiles (future-work item 1)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.calibration import CaseStudyConfig
from repro.errors import ConfigError
from repro.pipelines import PipelineRunner
from repro.workloads.apps import APP_PROFILES, _bursty_schedule, get_app, run_app


class TestProfiles:
    def test_registry(self):
        assert set(APP_PROFILES) == {"proxy-heat", "mpas-ocean-like", "xrage-like"}
        with pytest.raises(ConfigError):
            get_app("lammps")

    def test_configs_build(self):
        for profile in APP_PROFILES.values():
            config = profile.config()
            assert config.grid_scale == profile.grid_scale

    def test_config_overrides(self):
        config = get_app("proxy-heat").config(render_height=64)
        assert config.render_height == 64

    def test_bursty_schedule(self):
        schedule = _bursty_schedule(40, bursts=(5, 18), burst_len=3)
        assert 5 in schedule and 8 in schedule
        assert 18 in schedule and 21 in schedule
        assert 12 not in schedule
        assert all(1 <= i <= 40 for i in schedule)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            CaseStudyConfig(9, 1, "bad", total_iterations=10,
                            io_schedule=(5, 11))

    def test_schedule_overrides_period(self):
        case = CaseStudyConfig(9, 8, "scheduled", total_iterations=10,
                               io_schedule=(2, 3, 7))
        assert case.io_iterations() == [2, 3, 7]


class TestRuns:
    @pytest.fixture(scope="class")
    def runner(self):
        return PipelineRunner(seed=77, jitter=0)

    def test_insitu_wins_for_every_app(self, runner):
        savings = {}
        for name in APP_PROFILES:
            outcome = run_app(name, runner)
            savings[name] = outcome.energy_savings_fraction
            assert savings[name] > 0, name
        # Dense-output large-state apps gain the most.
        assert savings["mpas-ocean-like"] > savings["xrage-like"]

    def test_xrage_burst_structure(self, runner):
        outcome = run_app("xrage-like", runner)
        # 3 bursts x 4 dumps = 12 I/O events.
        assert outcome.post.timeline.stage_totals()["nnwrite"].span_count == 12
        assert outcome.insitu.images_rendered == 12


#: Runs one app with ``zlib.crc32`` wrapped, counting the bytes hashed
#: from the fingerprint and container modules.
_COUNT_CRC_BYTES = """
import json, sys, zlib
hashed = {"repro.fingerprint": 0, "repro.storage.format": 0}
crc32 = zlib.crc32
def counting_crc32(data, value=0):
    module = sys._getframe(1).f_globals.get("__name__")
    if module in hashed:
        hashed[module] += memoryview(data).nbytes
    return crc32(data, value)
zlib.crc32 = counting_crc32
from repro.workloads.apps import run_app
outcome = run_app("xrage-like")
print(json.dumps({"hashed": sum(hashed.values()),
                  "written": outcome.post.data_bytes_written}))
"""


class TestChecksumPasses:
    def test_each_dumped_byte_is_hashed_once_per_direction(self):
        # A fresh process, so no memo holds a fingerprint yet: the post
        # run hashes each dumped byte once writing (the fingerprint that
        # is also the CRC index) and once reading (decode validation);
        # verify, render and the in-situ run reuse pinned fingerprints.
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", _COUNT_CRC_BYTES], check=True,
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=src))
        counts = json.loads(out.stdout.strip().splitlines()[-1])
        assert counts["written"] > 0
        assert counts["hashed"] <= 2 * counts["written"]
