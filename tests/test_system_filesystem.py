"""Filesystem: content round-trips, layout policies, journaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileNotFound, StorageError
from repro.machine import HddModel
from repro.machine.specs import DiskSpec
from repro.system import BlockQueue, FileSystem, PageCache
from repro.system.filesystem import Extent, FileHandle
from repro.units import KiB, MiB


def make_fs(layout="contiguous", cached=True, **kw) -> FileSystem:
    queue = BlockQueue(HddModel(DiskSpec()))
    cache = PageCache(queue) if cached else None
    return FileSystem(queue, cache=cache, layout=layout, **kw)


class TestContent:
    def test_write_read_roundtrip(self):
        fs = make_fs()
        payload = bytes(range(256)) * 512  # 128 KiB
        fs.write("ts0.dat", payload)
        data, _ = fs.read("ts0.dat")
        assert data == payload

    def test_append_extends(self):
        fs = make_fs()
        fs.write("f", b"abc")
        fs.write("f", b"def")
        data, _ = fs.read("f")
        assert data == b"abcdef"
        assert fs.size("f") == 6

    def test_offset_read(self):
        fs = make_fs()
        fs.write("f", b"hello world")
        data, _ = fs.read("f", offset=6, nbytes=5)
        assert data == b"world"

    def test_read_only_buffers_are_kept_and_writables_copied(self):
        fs = make_fs()
        frozen = np.arange(4096, dtype=np.uint8)
        frozen.flags.writeable = False
        fs.write("frozen", frozen)
        assert fs.read("frozen")[0] is frozen
        assert fs.read("frozen", offset=8, nbytes=4)[0] == bytes([8, 9, 10, 11])
        scratch = bytearray(b"abcd")
        fs.write("scratch", scratch)
        scratch[0:1] = b"z"
        assert fs.read("scratch")[0] == b"abcd"

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFound):
            make_fs().read("ghost")

    def test_delete_removes(self):
        fs = make_fs()
        fs.write("f", b"x")
        fs.delete("f")
        assert not fs.exists("f")
        with pytest.raises(FileNotFound):
            fs.delete("f")

    @settings(max_examples=30, deadline=None)
    @given(payloads=st.lists(st.binary(min_size=1, max_size=4096), min_size=1, max_size=10))
    def test_roundtrip_any_bytes(self, payloads):
        fs = make_fs()
        for i, p in enumerate(payloads):
            fs.write(f"f{i}", p)
        for i, p in enumerate(payloads):
            data, _ = fs.read(f"f{i}")
            assert data == p


class TestLayout:
    def test_contiguous_single_extent(self):
        fs = make_fs(layout="contiguous")
        fs.write("f", b"0" * (4 * MiB))
        assert fs.fragmentation("f") == 1

    def test_fragmented_many_extents(self):
        fs = make_fs(layout="fragmented", fragment_bytes=256 * KiB)
        fs.write("f", b"0" * (4 * MiB))
        assert fs.fragmentation("f") > 4

    def test_fragmented_read_slower_cold(self):
        """Aged-filesystem penalty: scattered extents cost seeks."""
        def cold_read_time(layout):
            fs = make_fs(layout=layout, cached=False)
            fs.write("f", b"0" * (8 * MiB))
            fs.queue.flush()
            _, r = fs.read("f")
            return r.io.busy_time

        assert cold_read_time("fragmented") > 2 * cold_read_time("contiguous")

    def test_unknown_layout_rejected(self):
        with pytest.raises(StorageError):
            make_fs(layout="zigzag")

    def test_filesystem_full(self):
        fs = make_fs()
        with pytest.raises(StorageError):
            fs._allocate(10 ** 13)


class TestSyncSemantics:
    def test_cached_write_defers_io(self):
        fs = make_fs()
        r = fs.write("f", b"0" * (128 * KiB))
        assert r.io.bytes_written == 0

    def test_fsync_flushes_data_and_journal(self):
        fs = make_fs()
        fs.write("f", b"0" * (128 * KiB))
        r = fs.fsync()
        assert r.io.bytes_written >= 128 * KiB + FileSystem.JOURNAL_RECORD_BYTES

    def test_sync_write_flag(self):
        fs = make_fs()
        r = fs.write("f", b"0" * (128 * KiB), sync=True)
        assert r.io.bytes_written >= 128 * KiB

    def test_journal_disabled(self):
        fs = make_fs(journal=False)
        fs.write("f", b"0" * (64 * KiB))
        r = fs.fsync()
        assert r.io.bytes_written == 64 * KiB

    def test_drop_caches_then_cold_read(self):
        fs = make_fs()
        payload = b"7" * (128 * KiB)
        fs.write("f", payload)
        fs.fsync()
        fs.drop_caches()
        data, r = fs.read("f")
        assert data == payload
        assert r.io.bytes_read == 128 * KiB  # genuinely cold

    def test_warm_read_free_without_drop(self):
        fs = make_fs()
        fs.write("f", b"7" * (128 * KiB))
        fs.fsync()
        _, r = fs.read("f")
        assert r.io.bytes_read == 0  # still cached


class TestFileHandle:
    def test_map_range_within_single_extent(self):
        h = FileHandle("f", [Extent(1000, 100)])
        assert h.map_range(10, 20) == [Extent(1010, 20)]

    def test_map_range_spanning_extents(self):
        h = FileHandle("f", [Extent(1000, 100), Extent(5000, 100)])
        mapped = h.map_range(50, 100)
        assert mapped == [Extent(1050, 50), Extent(5000, 50)]

    def test_map_range_out_of_bounds(self):
        h = FileHandle("f", [Extent(0, 10)])
        with pytest.raises(StorageError):
            h.map_range(5, 10)

    @given(
        cut=st.integers(1, 99),
        offset=st.integers(0, 99),
        nbytes=st.integers(1, 100),
    )
    def test_map_range_conserves_bytes(self, cut, offset, nbytes):
        if offset + nbytes > 100:
            nbytes = 100 - offset
        if nbytes == 0:
            return
        h = FileHandle("f", [Extent(0, cut), Extent(10_000, 100 - cut)])
        mapped = h.map_range(offset, nbytes)
        assert sum(e.nbytes for e in mapped) == nbytes
