"""The parallel + cached experiment engine is bitwise-faithful.

Whatever combination of ``jobs`` and ``cache_dir`` the engine runs
under, it must hand back the same :class:`ExperimentResult` payloads the
serial registry path produces — compared here at the pickle-byte level,
which is also the representation the on-disk cache stores.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import CodecError, ConfigError
from repro.experiments.engine import (
    _cache_path,
    _snapshot_path,
    cache_key,
    lab_snapshot_key,
    load_lab_snapshot,
    primed_lab,
    restore_lab,
    run_experiments,
    save_lab_snapshot,
    snapshot_lab,
    warm_lab,
)
from repro.experiments.figures import Lab
from repro.experiments.registry import get_experiment

SEED = 2015

#: A small registry subset keeps these tests fast; the two ids share the
#: Lab's memoized pipeline runs, exercising the worker-sharing path.
IDS = ["fig4", "table2"]


def _bytes(result) -> bytes:
    return pickle.dumps(result, protocol=4)


@pytest.fixture(scope="module")
def serial() -> dict[str, bytes]:
    """Reference payloads straight from the registry path."""
    lab = Lab(seed=SEED)
    return {eid: _bytes(get_experiment(eid)(lab)) for eid in IDS}


def test_serial_engine_matches_registry(serial):
    report = run_experiments(IDS, seed=SEED, jobs=1)
    assert list(report.results) == IDS
    for eid in IDS:
        assert _bytes(report.results[eid]) == serial[eid]


def test_parallel_engine_matches_serial_bitwise(serial):
    report = run_experiments(IDS, seed=SEED, jobs=2)
    assert report.jobs == 2
    assert list(report.results) == IDS
    for eid in IDS:
        assert _bytes(report.results[eid]) == serial[eid]


def test_cache_round_trip(tmp_path, serial):
    cache = str(tmp_path)
    cold = run_experiments(IDS, seed=SEED, jobs=1, cache_dir=cache)
    assert cold.cache_hits == ()
    assert cold.cache_misses == tuple(IDS)

    warm = run_experiments(IDS, seed=SEED, jobs=1, cache_dir=cache)
    assert warm.cache_hits == tuple(IDS)
    assert warm.cache_misses == ()
    for eid in IDS:
        assert _bytes(warm.results[eid]) == serial[eid]


def test_corrupt_cache_entry_is_recomputed(tmp_path, serial):
    cache = str(tmp_path)
    run_experiments(["fig4"], seed=SEED, jobs=1, cache_dir=cache)
    with open(_cache_path(cache, "fig4", SEED), "wb") as fh:
        fh.write(b"definitely not a pickle")

    report = run_experiments(["fig4"], seed=SEED, jobs=1, cache_dir=cache)
    assert report.cache_misses == ("fig4",)
    assert _bytes(report.results["fig4"]) == serial["fig4"]

    # The recompute overwrote the corrupt entry with a good one.
    again = run_experiments(["fig4"], seed=SEED, jobs=1, cache_dir=cache)
    assert again.cache_hits == ("fig4",)


def test_unusable_cache_dir_skips_the_store(tmp_path, serial):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_bytes(b"")
    for cache in (str(not_a_dir), str(not_a_dir / "sub")):
        report = run_experiments(["fig4"], seed=SEED, jobs=1, cache_dir=cache)
        assert report.cache_misses == ("fig4",)
        assert _bytes(report.results["fig4"]) == serial["fig4"]
    assert not_a_dir.read_bytes() == b""


def test_cache_key_covers_its_inputs():
    base = cache_key("fig4", SEED)
    assert cache_key("fig4", SEED) == base
    assert cache_key("fig5", SEED) != base
    assert cache_key("fig4", SEED + 1) != base


def test_unknown_experiment_rejected_before_any_work():
    with pytest.raises(ConfigError):
        run_experiments(["no-such-figure"], seed=SEED)


def test_nonpositive_jobs_rejected():
    with pytest.raises(ConfigError):
        run_experiments(IDS, seed=SEED, jobs=0)


# -- warm-Lab snapshots ---------------------------------------------------------


class TestLabSnapshot:
    def test_experiments_from_restored_lab_are_bitwise_identical(self, serial):
        fresh = Lab(seed=SEED)
        fresh.outcomes()
        fresh.fio()
        lab = restore_lab(snapshot_lab(fresh), SEED)
        for eid in IDS:
            assert _bytes(get_experiment(eid)(lab)) == serial[eid]

    def test_warm_lab_writes_then_restores_snapshot(self, tmp_path, serial):
        cache = str(tmp_path)
        assert load_lab_snapshot(cache, SEED) is None
        warm_lab(SEED, cache)  # cold: primes and saves
        restored = load_lab_snapshot(cache, SEED)
        assert restored is not None and restored.seed == SEED
        for eid in IDS:
            assert _bytes(get_experiment(eid)(restored)) == serial[eid]

    def test_apps_memo_survives_snapshot_round_trip(self):
        """The heaviest memo (application-profile runs) restores intact."""
        fresh = Lab(seed=SEED)
        fresh.apps()
        lab = restore_lab(snapshot_lab(fresh), SEED)
        run = get_experiment("ext-applications")
        assert _bytes(run(lab)) == _bytes(run(Lab(seed=SEED)))

    def test_wrong_seed_and_corrupt_blobs_rejected(self, tmp_path):
        lab = Lab(seed=SEED)
        blob = snapshot_lab(lab)
        with pytest.raises(CodecError):
            restore_lab(blob, SEED + 1)
        with pytest.raises(CodecError):
            restore_lab(b"not a snapshot", SEED)
        with pytest.raises(CodecError):
            restore_lab(blob[: len(blob) // 2], SEED)
        # The never-raise loader degrades every failure to a miss.
        cache = str(tmp_path)
        save_lab_snapshot(cache, lab)
        with open(_snapshot_path(cache, SEED), "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert load_lab_snapshot(cache, SEED) is None
        # Flipped bits in the pickled body are caught by the frame's
        # digest.  A plain unpickler accepts many of them, and a corrupt
        # Lab would poison every result computed from it.
        for offset in range(len(blob) - 400, len(blob), 50):
            flipped = bytearray(blob)
            flipped[offset] ^= 0x04
            with pytest.raises(CodecError):
                restore_lab(bytes(flipped), SEED)
        with open(_snapshot_path(cache, SEED), "wb") as fh:
            fh.write(flipped)
        assert load_lab_snapshot(cache, SEED) is None
        primed, restored = primed_lab(cache, SEED)
        assert primed.seed == SEED and not restored

    def test_snapshot_key_covers_seed(self):
        assert lab_snapshot_key(SEED) != lab_snapshot_key(SEED + 1)
        assert lab_snapshot_key(SEED) == lab_snapshot_key(SEED)
