"""The packet-buffer memory model: cells, cell pointers and packet descriptors.

Figure 2 of the paper describes three physically separate memories:

* **cell data memory** -- the actual payload storage, divided into equal-size
  cells;
* **cell pointer memory** -- linked lists chaining a packet's cells together,
  plus the free-cell pointer list;
* **packet descriptor (PD) memory** -- one descriptor per packet holding its
  metadata and the head(s) of its cell-pointer list(s); a queue is a linked
  list of PDs.

What Occamy's argument needs from this structure is *which memory an
operation touches*: admitting a packet writes its cells and links their
pointers, a dequeue walks the pointers and reads the cells, and a head drop
walks the pointers only -- the cell data memory is never read.  That is what
:class:`CellPool` models, as three access counters (``pointer_memory_ops``,
``data_memory_reads``, ``data_memory_writes``) the test suite asserts on.
Which cell a pointer names changes none of it, so the free-cell list is kept
as its length: the pool counts cells, and a descriptor records how many it
holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.switchsim.packet import Packet


@dataclass(slots=True)
class PacketDescriptor:
    """A packet descriptor: the packet plus the number of cells it occupies.

    ``num_cells`` drops to 0 once :meth:`CellPool.release` has returned the
    cells to the free list.
    """

    packet: Packet
    num_cells: int

    @property
    def size_bytes(self) -> int:
        return self.packet.size_bytes


class CellPool:
    """The shared cell data memory and the length of its free cell list.

    ``free_cells``, ``free_bytes`` and ``used_bytes`` are plain attributes
    kept current by :meth:`allocate` and :meth:`release` (admission reads
    them per packet); ``free_bytes + used_bytes`` is always
    ``total_cells * cell_bytes``.

    Args:
        buffer_bytes: total shared buffer capacity.
        cell_bytes: cell size; a packet occupies ``ceil(size / cell_bytes)``
            cells, so small packets waste part of their last cell exactly as
            in real chips.
    """

    def __init__(self, buffer_bytes: int, cell_bytes: int = 200) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer size must be positive")
        if cell_bytes <= 0:
            raise ValueError("cell size must be positive")
        self.buffer_bytes = buffer_bytes
        self.cell_bytes = cell_bytes
        self.total_cells = buffer_bytes // cell_bytes
        if self.total_cells == 0:
            raise ValueError(
                f"buffer of {buffer_bytes}B cannot hold a single {cell_bytes}B cell"
            )
        #: Memo of ``cells_for``: packet sizes repeat heavily (MTU, ACK, MSS
        #: tails), so the ceil-division result is cached per distinct size.
        self._cells_for_cache: dict[int, int] = {}
        self.reset()

    # ------------------------------------------------------------------
    # Capacity queries
    # ------------------------------------------------------------------
    @property
    def used_cells(self) -> int:
        return self.total_cells - self.free_cells

    def cells_for(self, size_bytes: int) -> int:
        """Number of cells required to store a ``size_bytes`` packet."""
        cells = self._cells_for_cache.get(size_bytes)
        if cells is None:
            if size_bytes <= 0:
                raise ValueError("packet size must be positive")
            cells = -(-size_bytes // self.cell_bytes)  # ceil division
            self._cells_for_cache[size_bytes] = cells
        return cells

    def can_fit(self, size_bytes: int) -> bool:
        """Whether a packet of ``size_bytes`` fits in the free cells."""
        return self.cells_for(size_bytes) <= self.free_cells

    # ------------------------------------------------------------------
    # Allocation / release
    # ------------------------------------------------------------------
    def allocate(self, packet: Packet) -> Optional[PacketDescriptor]:
        """Allocate cells for ``packet`` and write its data into the buffer.

        Returns the packet descriptor, or ``None`` when there is not enough
        free space (callers should have checked admission first; the ``None``
        path exists for defensive robustness).
        """
        needed = self.cells_for(packet.size_bytes)
        if needed > self.free_cells:
            return None
        needed_bytes = needed * self.cell_bytes
        self.free_cells -= needed
        self.free_bytes -= needed_bytes
        self.used_bytes += needed_bytes
        self.pointer_memory_ops += needed
        self.data_memory_writes += needed
        return PacketDescriptor(packet, needed)

    def release(self, descriptor: PacketDescriptor, read_data: bool) -> int:
        """Return a descriptor's cells to the free cells.

        Args:
            read_data: True for a normal dequeue (the cell data is read out to
                the egress pipeline), False for a head drop (Occamy's key
                saving: only pointer operations are needed).

        Returns:
            The number of bytes freed (cell-granular).
        """
        freed_cells = descriptor.num_cells
        freed_bytes = freed_cells * self.cell_bytes
        descriptor.num_cells = 0
        self.free_cells += freed_cells
        self.free_bytes += freed_bytes
        self.used_bytes -= freed_bytes
        self.pointer_memory_ops += freed_cells
        if read_data:
            self.data_memory_reads += freed_cells
        return freed_bytes

    def reset(self) -> None:
        """Return the pool to its pristine state (all cells free)."""
        #: Occupancy, in cells and in bytes at cell granularity.
        self.free_cells = self.total_cells
        self.free_bytes = self.total_cells * self.cell_bytes
        self.used_bytes = 0
        #: Counters distinguishing data-memory accesses from pointer-only ops,
        #: used to verify that head drops never touch cell data memory.
        self.data_memory_reads = 0
        self.data_memory_writes = 0
        self.pointer_memory_ops = 0
