"""Timestep writer/reader over the simulated filesystem."""

import zlib

import numpy as np
import pytest

from repro.errors import FileFormatError, StorageError
from repro.fingerprint import field_fingerprint, pinned
from repro.machine import HddModel
from repro.machine.specs import DiskSpec
from repro.sim import Grid2D
from repro.storage import DataReader, DataWriter
from repro.storage.compression import ZlibCodec
from repro.system import BlockQueue, FileSystem, PageCache
from repro.units import KiB


@pytest.fixture
def fs() -> FileSystem:
    queue = BlockQueue(HddModel(DiskSpec()))
    return FileSystem(queue, cache=PageCache(queue))


def sample_grid(seed=0) -> Grid2D:
    g = Grid2D.paper_grid()
    g.data[:] = np.random.default_rng(seed).random((128, 128))
    return g


class TestWriter:
    def test_write_creates_named_file(self, fs):
        w = DataWriter(fs)
        report = w.write_timestep(sample_grid(), 3)
        assert report.name == "ts0003.dat"
        assert fs.exists("ts0003.dat")
        assert report.nbytes > 128 * KiB  # payload + header

    def test_sync_each_reaches_platter(self, fs):
        w = DataWriter(fs, sync_each=True)
        report = w.write_timestep(sample_grid(), 0)
        assert report.io.bytes_written >= 128 * KiB

    def test_no_sync_defers_io(self, fs):
        w = DataWriter(fs, sync_each=False, drop_caches_each=False)
        report = w.write_timestep(sample_grid(), 0)
        assert report.io.bytes_written == 0

    def test_duplicate_timestep_rejected(self, fs):
        w = DataWriter(fs)
        w.write_timestep(sample_grid(), 0)
        with pytest.raises(StorageError):
            w.write_timestep(sample_grid(), 0)

    def test_negative_timestep_rejected(self, fs):
        with pytest.raises(StorageError):
            DataWriter(fs).write_timestep(sample_grid(), -1)

    def test_total_bytes(self, fs):
        w = DataWriter(fs)
        w.write_timestep(sample_grid(), 0)
        w.write_timestep(sample_grid(), 1)
        assert w.total_bytes > 2 * 128 * KiB


class TestReader:
    def test_grid_roundtrip(self, fs):
        grid = sample_grid(7)
        DataWriter(fs).write_timestep(grid, 5, physical_time=2.5)
        back, report = DataReader(fs).read_grid(5)
        np.testing.assert_array_equal(back.data, grid.data)
        assert report.nbytes > 128 * KiB

    def test_drop_caches_makes_read_cold(self, fs):
        DataWriter(fs).write_timestep(sample_grid(), 0)
        _, report = DataReader(fs, drop_caches_first=True).read_grid(0)
        assert report.io.bytes_read >= 128 * KiB

    def test_warm_read_without_drop(self, fs):
        DataWriter(fs).write_timestep(sample_grid(), 0)
        # First read warms the cache; second without dropping is free.
        reader = DataReader(fs, drop_caches_first=False)
        reader.read_grid(0)
        _, report = reader.read_grid(0)
        assert report.io.bytes_read == 0

    def test_available_timesteps(self, fs):
        w = DataWriter(fs)
        for t in (0, 2, 8):
            w.write_timestep(sample_grid(t), t)
        fs.write("unrelated.txt", b"hi")
        assert DataReader(fs).available_timesteps() == [0, 2, 8]

    def test_timestep_mismatch_detected(self, fs):
        grid = sample_grid()
        w = DataWriter(fs)
        w.write_timestep(grid, 1)
        # Sneak the file under the wrong name.
        blob, _ = fs.read("ts0001.dat")
        fs.write("ts0002.dat", blob)
        with pytest.raises(StorageError):
            DataReader(fs).read_timestep(2)

    def test_selective_chunk_read_cheaper(self, fs):
        g = Grid2D(512, 128)  # 4 chunks of 128 KiB
        g.data[:] = np.random.default_rng(1).random((512, 128))
        DataWriter(fs).write_timestep(g, 0)
        reader = DataReader(fs)
        chunk, report = reader.read_chunk(0, 2)
        assert len(chunk) == 128 * KiB
        _, full = DataReader(fs).read_grid(0)
        assert report.io.bytes_read < full.io.bytes_read / 2
        assert chunk == g.chunks(128 * KiB)[2]

    def test_selective_read_past_the_first_64_chunks(self, fs):
        g = Grid2D(1024, 256)  # 2 KiB rows: 128 chunks of 16 KiB
        g.data[:] = np.random.default_rng(2).random((1024, 256))
        DataWriter(fs, chunk_bytes=16 * KiB).write_timestep(g, 0)
        expected = g.chunks(16 * KiB)
        assert len(expected) == 128
        reader = DataReader(fs)
        for index in (0, 63, 64, 127):
            chunk, _ = reader.read_chunk(0, index)
            assert chunk == expected[index]


def big_grid(seed=0) -> Grid2D:
    g = Grid2D(1024, 1024)  # 8 MiB: 64 row blocks of 128 KiB
    g.data[:] = np.random.default_rng(seed).random((1024, 1024))
    return g


class TestSharedChecksums:
    """The fingerprint's block CRCs and the container's CRC index are one."""

    def test_written_index_is_the_fingerprint(self, fs):
        grid = big_grid(3)
        DataWriter(fs).write_timestep(grid, 0)
        container, _ = DataReader(fs).read_timestep(0)
        fingerprint = field_fingerprint(grid.data)
        assert len(container.crcs) == 64
        assert container.crcs == fingerprint[2]

    @pytest.mark.parametrize("writer_kwargs", [
        {"codec": ZlibCodec()},
        {"chunk_bytes": 64 * KiB},
    ], ids=["zlib", "64KiB-chunks"])
    def test_other_codecs_and_chunkings_checksum_what_they_store(
            self, fs, writer_kwargs):
        grid = big_grid(4)
        DataWriter(fs, **writer_kwargs).write_timestep(grid, 0)
        container, _ = DataReader(fs).read_timestep(0)
        assert container.crcs == tuple(zlib.crc32(c) for c in container.chunks)
        assert container.crcs != field_fingerprint(grid.data)[2]
        back, _ = DataReader(fs).read_grid(0)
        np.testing.assert_array_equal(back.data, grid.data)

    def test_flipped_bit_in_a_new_blob_is_caught(self, fs):
        grid = big_grid(5)
        DataWriter(fs).write_timestep(grid, 0)
        DataReader(fs).read_grid(0)  # decoded, memoized and pinned
        blob, _ = fs.read("ts0000.dat")
        corrupt = bytearray(blob)
        corrupt[len(corrupt) // 2] ^= 0x01
        fs.delete("ts0000.dat")
        fs.write("ts0000.dat", bytes(corrupt))
        with pytest.raises(FileFormatError):
            DataReader(fs).read_grid(0)

    def test_read_back_fingerprint_is_pinned_and_exact(self, fs):
        grid = big_grid(6)
        DataWriter(fs).write_timestep(grid, 0)
        back, _ = DataReader(fs).read_grid(0)
        assert not back.data.flags.writeable
        pin = pinned(back.data)
        assert pin is not None
        scratch = back.data.copy()
        assert scratch.flags.writeable
        assert pin == field_fingerprint(scratch) == field_fingerprint(grid.data)
