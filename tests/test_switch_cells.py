"""Tests for the cell pool / packet descriptor memory model."""

import pytest

from repro.switchsim.cells import CellPool
from repro.switchsim.packet import Packet


class TestCellPool:
    def test_capacity_and_cell_count(self):
        pool = CellPool(buffer_bytes=2000, cell_bytes=200)
        assert pool.total_cells == 10
        assert pool.free_cells == 10
        assert pool.free_bytes == 2000
        assert pool.used_bytes == 0

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            CellPool(0, 200)
        with pytest.raises(ValueError):
            CellPool(1000, 0)
        with pytest.raises(ValueError):
            CellPool(100, 200)  # cannot hold a single cell

    def test_cells_for_rounds_up(self):
        pool = CellPool(buffer_bytes=2000, cell_bytes=200)
        assert pool.cells_for(1) == 1
        assert pool.cells_for(200) == 1
        assert pool.cells_for(201) == 2
        assert pool.cells_for(1500) == 8
        with pytest.raises(ValueError):
            pool.cells_for(0)

    def test_allocate_and_release_roundtrip(self):
        pool = CellPool(buffer_bytes=2000, cell_bytes=200)
        pd = pool.allocate(Packet(size_bytes=450))
        assert pd is not None
        assert pd.num_cells == 3
        assert pool.used_cells == 3
        assert pool.used_bytes == 600  # cell-granular occupancy
        freed = pool.release(pd, read_data=True)
        assert freed == 600
        assert pool.free_cells == pool.total_cells

    def test_allocate_fails_when_insufficient(self):
        pool = CellPool(buffer_bytes=1000, cell_bytes=200)
        assert pool.allocate(Packet(size_bytes=900)) is not None
        assert pool.allocate(Packet(size_bytes=300)) is None

    def test_can_fit(self):
        pool = CellPool(buffer_bytes=1000, cell_bytes=200)
        assert pool.can_fit(1000)
        assert not pool.can_fit(1001)

    def test_head_drop_never_touches_cell_data_memory(self):
        """The property Occamy exploits: drops are pointer-only operations."""
        pool = CellPool(buffer_bytes=4000, cell_bytes=200)
        pd1 = pool.allocate(Packet(size_bytes=1500))
        pd2 = pool.allocate(Packet(size_bytes=1500))
        reads_before = pool.data_memory_reads
        pool.release(pd1, read_data=False)  # head drop
        assert pool.data_memory_reads == reads_before
        pool.release(pd2, read_data=True)  # normal dequeue
        assert pool.data_memory_reads > reads_before

    def test_cells_reusable_after_release(self):
        pool = CellPool(buffer_bytes=600, cell_bytes=200)
        pd = pool.allocate(Packet(size_bytes=600))
        assert pool.allocate(Packet(size_bytes=1)) is None  # full pool refuses
        pool.release(pd, read_data=False)  # pointer-only release
        assert pd.num_cells == 0
        pd2 = pool.allocate(Packet(size_bytes=600))
        assert pd2 is not None and pd2.num_cells == 3
        assert (pool.free_cells, pool.free_bytes, pool.used_bytes) == (0, 0, 600)
        # Two admissions write 3 cells each; every op links/unlinks 3 pointers.
        assert pool.data_memory_writes == 6
        assert pool.pointer_memory_ops == 9
        assert pool.data_memory_reads == 0

    def test_reset(self):
        pool = CellPool(buffer_bytes=2000, cell_bytes=200)
        pool.allocate(Packet(size_bytes=1500))
        pool.reset()
        assert pool.free_cells == pool.total_cells
        assert pool.data_memory_writes == 0


class TestPacket:
    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            Packet(size_bytes=0)

    def test_unique_ids(self):
        a, b = Packet(size_bytes=100), Packet(size_bytes=100)
        assert a.packet_id != b.packet_id

    def test_copy_header_fresh_identity(self):
        original = Packet(size_bytes=1500, flow_id=7, seq=3, metadata={"k": 1})
        clone = original.copy_header()
        assert clone.packet_id != original.packet_id
        assert clone.flow_id == 7 and clone.seq == 3
        clone.metadata["k"] = 2
        assert original.metadata["k"] == 1
