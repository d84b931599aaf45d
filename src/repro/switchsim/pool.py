"""Free-list pools for :class:`Packet` and :class:`PacketDescriptor`.

The pooled simulation kernel (:class:`~repro.sim.kernel.PooledKernel`)
owns one :class:`PacketPool` and one :class:`DescriptorPool` per
simulation.  Components that create packets draw from the packet pool
instead of calling the :class:`~repro.switchsim.packet.Packet`
constructor, and the code paths where a packet or descriptor dies --
delivery to a host, an admission/eviction/head drop, a blackholed link,
transmit out of a sink switch -- hand the object back instead of dropping
the last reference.

Correctness story: recycling is only safe if nothing keeps a handle to a
released object, so both pooled classes carry a ``generation`` counter
with a parity invariant -- **even while live, odd while free**.
``release`` requires even (a second release of the same object raises
instead of corrupting the free list); ``acquire`` requires odd (an object
that reached the free list twice is caught on the way out too).  Tests
assert the parity of every handle they retain across recycling points,
which turns "stale reference" from a heisenbug into an assertion message.

Pools are unbounded: steady-state simulations reach a high-water mark
(roughly packets-in-flight) and recycle from there, so the free lists
stay small relative to the run.
"""

from __future__ import annotations

from typing import List, Optional

from repro.switchsim.cells import PacketDescriptor
from repro.switchsim.packet import Packet, _packet_ids


class PacketPool:
    """Recycles :class:`Packet` objects with a generation parity check.

    :meth:`acquire` mirrors the keyword signature of the ``Packet``
    constructor, so allocation sites can bind a factory once::

        make_packet = pool.acquire if pool is not None else Packet

    and the call sites stay identical on both kernels.
    """

    __slots__ = ("_free", "allocated", "reused")

    def __init__(self) -> None:
        self._free: List[Packet] = []
        self.allocated = 0  # fresh constructions
        self.reused = 0     # free-list hits

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self, size_bytes: int, flow_id: int = -1, src: int = -1,
                dst: int = -1, seq: int = 0, payload_bytes: int = 0,
                is_ack: bool = False, ack_seq: int = 0,
                ecn_capable: bool = True, ecn_marked: bool = False,
                ecn_echo: bool = False, priority: int = 0,
                created_at: float = 0.0) -> Packet:
        free = self._free
        if not free:
            self.allocated += 1
            return Packet(
                size_bytes=size_bytes, flow_id=flow_id, src=src, dst=dst,
                seq=seq, payload_bytes=payload_bytes, is_ack=is_ack,
                ack_seq=ack_seq, ecn_capable=ecn_capable,
                ecn_marked=ecn_marked, ecn_echo=ecn_echo, priority=priority,
                created_at=created_at)
        packet = free.pop()
        if not packet.generation & 1:
            raise RuntimeError(
                f"packet pool corruption: packet {packet.packet_id} on the "
                f"free list with live (even) generation {packet.generation}")
        if size_bytes <= 0:
            # Mirror Packet.__post_init__ so pooled allocation validates too.
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        packet.generation += 1  # odd -> even: live again
        packet.size_bytes = size_bytes
        packet.flow_id = flow_id
        packet.src = src
        packet.dst = dst
        packet.seq = seq
        packet.payload_bytes = payload_bytes
        packet.is_ack = is_ack
        packet.ack_seq = ack_seq
        packet.ecn_capable = ecn_capable
        packet.ecn_marked = ecn_marked
        packet.ecn_echo = ecn_echo
        packet.priority = priority
        packet.created_at = created_at
        packet.metadata.clear()
        packet.packet_id = next(_packet_ids)
        self.reused += 1
        return packet

    def release(self, packet: Packet) -> None:
        """Return a dead packet to the free list (double release raises)."""
        if packet.generation & 1:
            raise RuntimeError(
                f"double release: packet {packet.packet_id} already has free "
                f"(odd) generation {packet.generation}")
        packet.generation += 1  # even -> odd: free
        self._free.append(packet)


class DescriptorPool:
    """Recycles :class:`PacketDescriptor` objects (same parity scheme).

    :class:`~repro.switchsim.cells.CellPool` is the single choke point
    where descriptors are born (``allocate``) and die (``release``), so
    attaching this pool there covers every switch path.  Released
    descriptors have ``packet`` cleared to ``None``: code that reads a
    descriptor after returning it dies on an ``AttributeError`` /
    ``None`` access instead of acting on a recycled packet.
    """

    __slots__ = ("_free", "allocated", "reused")

    def __init__(self) -> None:
        self._free: List[PacketDescriptor] = []
        self.allocated = 0
        self.reused = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self, packet: Packet, num_cells: int) -> PacketDescriptor:
        free = self._free
        if not free:
            self.allocated += 1
            return PacketDescriptor(packet, num_cells)
        descriptor = free.pop()
        if not descriptor.generation & 1:
            raise RuntimeError(
                f"descriptor pool corruption: descriptor on the free list "
                f"with live (even) generation {descriptor.generation}")
        descriptor.generation += 1  # odd -> even: live again
        descriptor.packet = packet
        descriptor.num_cells = num_cells
        self.reused += 1
        return descriptor

    def release(self, descriptor: PacketDescriptor,
                packet_pool: Optional[PacketPool] = None) -> None:
        """Return a dead descriptor (and optionally its packet) to the pool.

        ``packet_pool`` recycles ``descriptor.packet`` in the same motion --
        the common case at drop/eviction sites where descriptor and packet
        die together.
        """
        if descriptor.generation & 1:
            raise RuntimeError(
                f"double release: descriptor already has free (odd) "
                f"generation {descriptor.generation}")
        if packet_pool is not None:
            packet_pool.release(descriptor.packet)
        descriptor.generation += 1  # even -> odd: free
        descriptor.packet = None
        descriptor.num_cells = 0
        self._free.append(descriptor)
