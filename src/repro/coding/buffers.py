"""The scratch-buffer source of :func:`repro.coding.wire.encode_packets_into`.

``encode_packets_into`` serialises a packet batch back-to-back into one
contiguous buffer, and leases that buffer here when its caller brings
none.  The live data plane does not take this path: its frames are
immutable ``bytes`` built by one join each, so nothing on it leases, and
nothing hands a buffer back — every lease allocates.

A lease is rounded up to a power-of-two capacity of at least
:data:`MIN_CAPACITY` bytes (callers track their own fill offset; the
extra tail is scratch), and :class:`PoolStats` counts the leases.

:data:`DEFAULT_POOL` is the module-wide instance ``encode_packets_into``
uses when the caller does not bring its own.
"""

from __future__ import annotations

__all__ = ["BufferPool", "DEFAULT_POOL", "PoolStats"]

from dataclasses import dataclass

#: Smallest buffer ever allocated.
MIN_CAPACITY = 4096


@dataclass
class PoolStats:
    """Allocation accounting for the benchmarks."""

    leases: int = 0
    allocations: int = 0
    #: Leases served from a returned buffer: 0, as nothing returns one.
    reuses: int = 0


class BufferPool:
    """Hands out ``bytearray`` buffers of power-of-two capacity."""

    def __init__(self) -> None:
        self.stats = PoolStats()

    def lease(self, size: int) -> bytearray:
        """A buffer with ``len(buf) >= size`` (contents undefined)."""
        if size < 0:
            raise ValueError("cannot lease a negative-size buffer")
        self.stats.leases += 1
        capacity = MIN_CAPACITY
        while capacity < size:
            capacity <<= 1
        self.stats.allocations += 1
        return bytearray(capacity)


#: Shared pool ``encode_packets_into`` leases from when no pool is passed in.
DEFAULT_POOL = BufferPool()
