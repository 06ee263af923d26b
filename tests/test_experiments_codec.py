"""The result cache's sha256-checked frame round-trips and fails safely.

Three properties are load-bearing:

* **Byte identity** — a decoded result must re-pickle to exactly the
  bytes the original pickles to.  That is stronger than value equality:
  pickle bytes encode the object graph's sharing structure, and the
  engine's determinism checks compare at the byte level.  The frame's
  digest is the sha256 the serving layer's replies carry.
* **Corruption is detected, not served** — every single-bit flip,
  truncation or appended byte of a stored entry, and every file in a
  foreign format (a v1 flat frame, a raw pickle), raises
  :class:`~repro.errors.CodecError` from ``decode_result``, reads as a
  cache miss, and is overwritten by the recompute.
* **Never crash** — a payload that fails to unpickle, whatever the
  exception, or that is not a result raises ``CodecError`` too.
"""

from __future__ import annotations

import hashlib
import pickle
import struct

import numpy as np
import pytest

from repro.errors import CodecError
from repro.experiments import codec
from repro.experiments.codec import decode_result, encode_result, frame
from repro.experiments.engine import (
    _cache_load,
    _cache_path,
    load_result,
    pickle_result,
    run_experiments,
    store_result,
)
from repro.experiments.figures import ExperimentResult, Lab
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.machine.disk import DiskResult, OpKind
from repro.power.breakdown import StagePower
from repro.service.http import result_digest
from repro.sim.grid import Grid2D
from repro.system.blockdev import IoStats
from repro.viz.image import Image
from repro.viz.render import RenderResult

SEED = 99

#: magic | u16 version | sha256
HEADER = 4 + 2 + 32


def random_iostats(rng) -> IoStats:
    return IoStats(
        busy_time=float(rng.random()), arm_time=float(rng.random()),
        rotation_time=float(rng.random()), transfer_time=float(rng.random()),
        bytes_read=int(rng.integers(0, 1 << 40)),
        bytes_written=int(rng.integers(0, 1 << 40)),
        n_reads=int(rng.integers(0, 1 << 30)),
        n_writes=int(rng.integers(0, 1 << 30)),
        fault_time=float(rng.random()),
        n_faults=int(rng.integers(0, 100)),
        n_retries=int(rng.integers(0, 100)))


def random_stagepower(rng) -> StagePower:
    return StagePower(
        stage=str(rng.choice(["simulation", "nnread", "nnwrite", "viz"])),
        avg_total_w=float(rng.random() * 300),
        avg_dynamic_w=float(rng.random() * 100))


def random_grid(rng) -> Grid2D:
    nx, ny = int(rng.integers(3, 24)), int(rng.integers(3, 24))
    grid = Grid2D(nx, ny, lx=float(rng.random() + 0.5),
                  ly=float(rng.random() + 0.5))
    grid.data[:] = rng.normal(size=(nx, ny))
    return grid


def wrap(data) -> ExperimentResult:
    return ExperimentResult(id="t", title="codec test", data=data, text="x")


def round_trip(data):
    return decode_result(encode_result(wrap(data))).data


def shared_record() -> ExperimentResult:
    """One IoStats, one string and one list, each reachable twice."""
    shared_str = "shared-stage-name!"
    shared_io = IoStats(busy_time=1.0)
    shared_list = [1, 2, 3]
    return wrap({
        "a": shared_io, "b": shared_io,
        "s1": shared_str, "s2": shared_str,
        "l": (shared_list, shared_list),
    })


def v1_flat_frame() -> bytes:
    """The previous entry format: ``RPRC | u16 1 | u32 trailer | tree``.

    The tree is a flat-tagged ``ExperimentResult(id="fig4", title="t",
    data=None, text="x")``: tag 0x17, then tagged strings (0x05, u32
    length, UTF-8) and a None (0x00), with an empty pickle trailer.
    """
    def tagged_str(text: str) -> bytes:
        return b"\x05" + struct.pack("<I", len(text)) + text.encode()
    tree = (b"\x17" + tagged_str("fig4") + tagged_str("t") + b"\x00"
            + tagged_str("x"))
    return struct.pack("<4sHI", b"RPRC", 1, 0) + tree


@pytest.fixture(scope="module")
def fig4() -> ExperimentResult:
    return get_experiment("fig4")(Lab(seed=SEED))


@pytest.fixture
def stored_fig4(tmp_path, fig4) -> tuple[str, str, bytes]:
    """A cache directory holding fig4's entry: (dir, entry path, bytes)."""
    cache = str(tmp_path)
    store_result(cache, "fig4", SEED, fig4)
    path = _cache_path(cache, "fig4", SEED)
    with open(path, "rb") as fh:
        return cache, path, fh.read()


def assert_miss_then_overwritten(cache: str, path: str, damaged: bytes,
                                 good: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(damaged)
    assert _cache_load(path) is None
    report = run_experiments(["fig4"], seed=SEED, jobs=1, cache_dir=cache)
    assert report.cache_misses == ("fig4",)
    assert pickle_result(report.results["fig4"]) == good[HEADER:]
    with open(path, "rb") as fh:
        assert fh.read() == good


class TestRoundTrip:
    def test_random_records_bit_identical(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            result = wrap({
                "io": random_iostats(rng),
                "power": [random_stagepower(rng) for _ in range(3)],
                "grid": random_grid(rng),
            })
            back = decode_result(encode_result(result))
            assert pickle_result(back) == pickle_result(result)

    def test_scalar_and_container_values(self):
        values = [None, True, False, 0, -1, 1 << 40, -(1 << 62), 3.5,
                  float("inf"), -0.0, "", "unicode ✓", b"", b"\x00\xff",
                  (), (1, (2, 3)), [], [1, [2]], {}, {"k": [1.5, None]},
                  1 << 100, OpKind.READ, OpKind.WRITE]
        for v in values:
            assert round_trip(v) == v

    def test_nan_and_signed_zero_bits_survive(self):
        back = round_trip([float("nan"), -0.0, 0.0])
        assert np.isnan(back[0])
        assert np.signbit(back[1]) and not np.signbit(back[2])

    def test_ndarray_dtypes_and_shapes(self):
        rng = np.random.default_rng(SEED)
        for arr in (rng.normal(size=(7, 5)), rng.integers(0, 255, 9,
                                                          dtype=np.uint8),
                    np.zeros((0, 4)), np.float32(rng.normal(size=3)),
                    np.array(3.25)):
            back = round_trip(arr)
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert np.array_equal(back, arr)

    def test_disk_result_and_render_result(self):
        disk = DiskResult(service_time=0.25, arm_time=0.1,
                          rotation_time=0.05, transfer_time=0.1,
                          nbytes=4096, op=OpKind.WRITE, cached=True, n_ops=7)
        pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        render = RenderResult(image=Image.from_array(pixels),
                              pixels_shaded=6, contour_segments=2)
        result = wrap({"disk": disk, "render": render})
        back = decode_result(encode_result(result))
        assert pickle_result(back) == pickle_result(result)
        assert np.array_equal(back.data["render"].image.pixels, pixels)

    def test_sharing_structure_preserved(self):
        # The same object reachable twice must decode to one object —
        # pickle-byte identity depends on it.
        back = decode_result(encode_result(shared_record())).data
        assert back["a"] is back["b"]
        assert back["s1"] is back["s2"]
        assert back["l"][0] is back["l"][1]

    def test_grid_geometry_survives(self):
        grid = Grid2D(5, 7, lx=2.5, ly=0.5)
        grid.data[:] = np.arange(35, dtype=float).reshape(5, 7)
        back = round_trip(grid)
        assert (back.nx, back.ny, back.lx, back.ly) == (5, 7, 2.5, 0.5)
        assert np.array_equal(back.data, grid.data)
        back.data[0, 0] = -1.0  # decoded arrays are independent + writable
        assert grid.data[0, 0] == 0.0

    def test_registry_results_round_trip_through_the_cache(self, tmp_path):
        lab = Lab(seed=SEED)
        results = [fn(lab) for fn in EXPERIMENTS.values()]
        results.append(shared_record())
        cache = str(tmp_path)
        for result in results:
            store_result(cache, result.id, SEED, result)
            with open(_cache_path(cache, result.id, SEED), "rb") as fh:
                digest = fh.read(HEADER)[6:]
            assert digest.hex() == result_digest(result)
            loaded = load_result(cache, result.id, SEED)
            assert pickle_result(loaded) == pickle_result(result)


class TestFailureSafety:
    def test_truncated_frames_raise_codec_error(self, stored_fig4):
        blob = stored_fig4[2]
        for cut in (0, 1, HEADER - 1, HEADER, len(blob) - 1):
            with pytest.raises(CodecError):
                decode_result(blob[:cut])

    def test_corrupt_bytes_raise_codec_error_never_crash(self, stored_fig4):
        # Every single-bit flip of a stored entry, header bits included.
        blob = bytearray(stored_fig4[2])
        for i in range(len(blob) * 8):
            blob[i // 8] ^= 1 << (i % 8)
            with pytest.raises(CodecError):
                decode_result(blob)
            blob[i // 8] ^= 1 << (i % 8)
        assert decode_result(blob).id == "fig4"

    def test_foreign_bytes_rejected(self):
        with pytest.raises(CodecError):
            decode_result(b"definitely not a codec frame")
        with pytest.raises(CodecError):
            decode_result(pickle.dumps(wrap(1), protocol=4))

    def test_wrong_version_rejected(self):
        with pytest.raises(CodecError):
            decode_result(v1_flat_frame())
        blob = bytearray(encode_result(wrap(1)))
        blob[4] = 0xEE  # version u16 lives right after the 4-byte magic
        with pytest.raises(CodecError):
            decode_result(bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CodecError):
            decode_result(encode_result(wrap(1)) + b"\x00")

    def test_non_result_frame_rejected(self):
        # Each payload carries a valid digest, so only the unpickling or
        # the type check can reject it.
        for payload in (pickle.dumps({"not": "a result"}, protocol=4),
                        b"not a pickle",
                        pickle_result(wrap(1))[:-1],
                        b"cno_such_module_for_codec_tests\nName\n."):
            with pytest.raises(CodecError):
                decode_result(frame(codec.MAGIC, codec.CODEC_VERSION,
                                    payload))


class TestCacheInterop:
    def test_corrupt_codec_entry_reads_as_miss(self, stored_fig4):
        cache, path, good = stored_fig4
        rng = np.random.default_rng(SEED)
        bits = [0, 8 * 5, 8 * 6, 8 * HEADER - 1, 8 * HEADER,
                8 * len(good) - 1]
        bits += [int(b) for b in rng.integers(0, 8 * len(good), 4)]
        for bit in bits:
            damaged = bytearray(good)
            damaged[bit // 8] ^= 1 << (bit % 8)
            assert_miss_then_overwritten(cache, path, bytes(damaged), good)
        for cut in (0, 1, HEADER - 1, HEADER, len(good) - 1):
            assert_miss_then_overwritten(cache, path, good[:cut], good)
        assert_miss_then_overwritten(cache, path, good + b"\x00", good)

    def test_store_writes_frames_legacy_entries_read_as_miss(
            self, stored_fig4, fig4):
        cache, path, good = stored_fig4
        assert good[:6] == struct.pack("<4sH", b"RPRC", 2)
        assert load_result(cache, "fig4", SEED) is not None
        # Neither earlier entry format is read any more: the next store
        # overwrites it.
        assert_miss_then_overwritten(cache, path, v1_flat_frame(), good)
        assert_miss_then_overwritten(
            cache, path, pickle.dumps(fig4, protocol=4), good)

    def test_codec_result_is_decodable_frame(self):
        result = wrap({"power": StagePower("simulation", 100.0, 25.0)})
        blob = encode_result(result)
        payload = pickle_result(result)
        assert blob[:6] == struct.pack("<4sH", codec.MAGIC,
                                       codec.CODEC_VERSION)
        assert blob[6:HEADER] == hashlib.sha256(payload).digest()
        assert blob[HEADER:] == payload
        assert pickle_result(decode_result(blob)) == payload
