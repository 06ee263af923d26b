"""Timestep writer/reader over the simulated filesystem."""

import sys
import threading
import time
import zlib

import numpy as np
import pytest

from repro.errors import FileFormatError, StorageError
from repro.fingerprint import field_fingerprint, pinned
from repro.machine import HddModel
from repro.machine.specs import DiskSpec
from repro.sim import Grid2D
from repro.storage import DataReader, DataWriter
from repro.storage import reader as reader_module
from repro.storage import writer as writer_module
from repro.storage.compression import IdentityCodec, ZlibCodec, codec_id
from repro.storage.format import (
    container_payload,
    decode_container,
    encode_container,
    payload_container,
    seal_container,
)
from repro.system import BlockQueue, FileSystem, PageCache
from repro.units import KiB


def make_fs() -> FileSystem:
    queue = BlockQueue(HddModel(DiskSpec()))
    return FileSystem(queue, cache=PageCache(queue))


@pytest.fixture
def fs() -> FileSystem:
    return make_fs()


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


def snapshot_grid(seed=0, shape=(512, 128)) -> Grid2D:
    """A field recorded the science cache's way: the read-only payload of
    an unsealed container buffer (4 row blocks of 128 KiB)."""
    field = np.random.default_rng(seed).random(shape)
    return Grid2D.from_array(container_payload(field))


class TestOneBufferPerDumpedField:
    """A snapshot, its dumped file body and its read-back grid are one
    buffer; every other dump is joined, byte for byte as before."""

    def test_first_dump_seals_the_snapshot_buffer_as_the_file_body(self, fs):
        grid = snapshot_grid(1)
        buf = payload_container(grid.data)
        assert buf is not None and buf.flags.writeable
        report = DataWriter(fs).write_timestep(grid, 7, physical_time=0.5)
        body, _ = fs.read("ts0007.dat")
        assert body is buf and not buf.flags.writeable
        assert report.nbytes == len(buf)
        expected = encode_container(grid.chunks(128 * KiB), grid.nx, grid.ny,
                                    timestep=7, physical_time=0.5)
        assert buf.tobytes() == expected
        back, _ = DataReader(fs).read_grid(7)
        assert np.shares_memory(back.data, buf)
        np.testing.assert_array_equal(back.data, grid.data)

    def test_a_matching_dump_reuses_the_sealed_buffer(self, fs):
        grid = snapshot_grid(2)
        DataWriter(fs).write_timestep(grid, 3, physical_time=1.5)
        DataWriter(fs, prefix="ck").write_timestep(grid, 3,
                                                   physical_time=1.5)
        assert fs.read("ck0003.dat")[0] is fs.read("ts0003.dat")[0]

    @pytest.mark.parametrize("dump", [
        {"timestep": 4},
        {"physical_time": 2.5},
        {"physical_time": -0.0},
        {"chunk_bytes": 64 * KiB},
        {"codec": ZlibCodec()},
    ], ids=["timestep", "physical-time", "signed-zero-time", "chunk-size",
            "codec"])
    def test_a_differing_dump_is_joined_and_leaves_the_seal(self, fs, dump):
        grid = snapshot_grid(3)
        DataWriter(fs).write_timestep(grid, 3, physical_time=0.0)
        buf = payload_container(grid.data)
        sealed = buf.tobytes()
        timestep = dump.get("timestep", 3)
        physical_time = dump.get("physical_time", 0.0)
        chunk_bytes = dump.get("chunk_bytes", 128 * KiB)
        codec = dump.get("codec", IdentityCodec())
        DataWriter(fs, prefix="alt", chunk_bytes=chunk_bytes,
                   codec=codec).write_timestep(
            grid, timestep, physical_time=physical_time)
        body, _ = fs.read(f"alt{timestep:04d}.dat")
        assert body is not buf
        assert body == encode_container(
            [codec.encode(c) for c in grid.chunks(chunk_bytes)],
            grid.nx, grid.ny, timestep=timestep,
            physical_time=physical_time, flags=codec_id(codec))
        assert buf.tobytes() == sealed and not buf.flags.writeable

    @pytest.mark.parametrize("writer_kwargs", [
        {"codec": ZlibCodec()},
        {"chunk_bytes": 64 * KiB},
    ], ids=["zlib", "64KiB-chunks"])
    def test_other_geometries_leave_the_buffer_unsealed(self, fs,
                                                        writer_kwargs):
        grid = snapshot_grid(4)
        DataWriter(fs, **writer_kwargs).write_timestep(grid, 0)
        buf = payload_container(grid.data)
        assert buf.flags.writeable
        assert fs.read("ts0000.dat")[0] is not buf
        DataWriter(fs, prefix="id").write_timestep(grid, 0)
        assert fs.read("id0000.dat")[0] is buf

    def test_concurrent_dumps_of_one_snapshot_seal_it_once(self,
                                                            monkeypatch):
        seals = []

        def slow_seal(*args):
            seals.append(args[0])
            time.sleep(0.05)  # widen the window a second sealer would use
            return seal_container(*args)

        monkeypatch.setattr(writer_module, "seal_container", slow_seal)
        grid = snapshot_grid(5)
        systems = [make_fs() for _ in range(4)]  # more threads than cores
        start = threading.Barrier(len(systems), timeout=30)

        def dump(target):
            start.wait()
            DataWriter(target).write_timestep(grid, 9, physical_time=4.5)

        threads = [threading.Thread(target=dump, args=(s,)) for s in systems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        bodies = [s.read("ts0009.dat")[0] for s in systems]
        assert len(seals) == 1
        assert all(body is payload_container(grid.data) for body in bodies)
        assert bodies[0].tobytes() == encode_container(
            grid.chunks(128 * KiB), grid.nx, grid.ny, timestep=9,
            physical_time=4.5)

    def test_first_read_of_a_sealed_buffer_validates_every_chunk(self, fs):
        grid = snapshot_grid(6)
        buf = payload_container(grid.data)
        bad_crcs = list(field_fingerprint(grid.data)[2])
        bad_crcs[-1] ^= 1
        seal_container(buf, grid.nx, grid.ny, 0, 0.0, 0, bad_crcs)
        fs.write("ts0000.dat", buf)
        assert fs.read("ts0000.dat")[0] is buf
        with pytest.raises(FileFormatError):
            DataReader(fs).read_grid(0)

    def test_a_blob_object_is_decoded_once(self, fs, monkeypatch):
        decoded = []
        monkeypatch.setattr(
            reader_module, "decode_container",
            lambda blob: decoded.append(blob) or decode_container(blob))
        DataWriter(fs).write_timestep(snapshot_grid(7), 0)
        first, _ = DataReader(fs).read_grid(0)
        again, _ = DataReader(fs).read_grid(0)
        assert len(decoded) == 1
        assert again.data is first.data

    def test_compressed_containers_decode_on_every_read(self, fs,
                                                        monkeypatch):
        decoded = []
        monkeypatch.setattr(
            reader_module, "decode_container",
            lambda blob: decoded.append(blob) or decode_container(blob))
        DataWriter(fs, codec=ZlibCodec()).write_timestep(snapshot_grid(8), 0)
        DataReader(fs).read_grid(0)
        DataReader(fs).read_grid(0)
        assert len(decoded) == 2

    def test_fields_that_do_not_fit_get_no_container(self):
        assert container_payload(np.zeros((8, 8), dtype="<f4")) is None
        assert container_payload(np.zeros((8, 16))[:, ::2]) is None
        assert container_payload(np.zeros((2, 16 * KiB + 1))) is None
        assert payload_container(np.zeros((8, 8))) is None
        snap = container_payload(np.ones((8, 8)))
        assert payload_container(snap[1:]) is None
