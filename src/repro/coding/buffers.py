"""A small lease/release pool of ``bytearray`` scratch buffers.

:func:`repro.coding.wire.encode_packets_into` serialises a packet batch
back-to-back into one contiguous buffer, and leases that buffer here
when its caller brings none; the caller returns it once the frame bytes
have been handed on.  The live data plane does not take this path: its
frames are immutable ``bytes`` built by one join each, so nothing on it
leases.

The pool is deliberately simple — it is an asyncio-process helper, not
a thread-safe arena:

* buffers are bucketed by rounded-up capacity (powers of two), so a
  steady workload converges on a handful of reusable allocations;
* ``lease`` returns a buffer of *at least* the requested size (callers
  track their own fill offset; the extra tail is scratch);
* ``release`` returns a buffer to its bucket unless the bucket is full,
  in which case the buffer is simply dropped for the GC — the pool
  bounds idle memory instead of growing without limit.

:data:`DEFAULT_POOL` is the module-wide instance ``encode_packets_into``
uses when the caller does not bring its own.
"""

from __future__ import annotations

__all__ = ["BufferPool", "DEFAULT_POOL", "PoolStats"]

from dataclasses import dataclass


@dataclass
class PoolStats:
    """Allocation accounting — lets benchmarks verify steady-state
    encoding stops allocating."""

    leases: int = 0
    allocations: int = 0
    reuses: int = 0
    releases: int = 0
    discarded: int = 0


class BufferPool:
    """Reusable ``bytearray`` buffers bucketed by power-of-two capacity.

    Args:
        max_per_bucket: Idle buffers kept per size class; extras handed
            to ``release`` are dropped.
        min_capacity: Smallest buffer ever allocated (small leases are
            rounded up so tiny frames reuse the same bucket).
    """

    def __init__(self, max_per_bucket: int = 8, min_capacity: int = 4096) -> None:
        if max_per_bucket < 1:
            raise ValueError("max_per_bucket must be >= 1")
        if min_capacity < 1:
            raise ValueError("min_capacity must be >= 1")
        self._max_per_bucket = max_per_bucket
        self._min_capacity = min_capacity
        self._buckets: dict[int, list[bytearray]] = {}
        self.stats = PoolStats()

    def _capacity_for(self, size: int) -> int:
        capacity = self._min_capacity
        while capacity < size:
            capacity <<= 1
        return capacity

    def lease(self, size: int) -> bytearray:
        """A buffer with ``len(buf) >= size`` (contents undefined)."""
        if size < 0:
            raise ValueError("cannot lease a negative-size buffer")
        self.stats.leases += 1
        capacity = self._capacity_for(size)
        bucket = self._buckets.get(capacity)
        if bucket:
            self.stats.reuses += 1
            return bucket.pop()
        self.stats.allocations += 1
        return bytearray(capacity)

    def release(self, buffer: bytearray) -> None:
        """Hand a leased buffer back for reuse."""
        self.stats.releases += 1
        capacity = len(buffer)
        bucket = self._buckets.setdefault(capacity, [])
        if len(bucket) < self._max_per_bucket:
            bucket.append(buffer)
        else:
            self.stats.discarded += 1


#: Shared pool ``encode_packets_into`` leases from when no pool is passed in.
DEFAULT_POOL = BufferPool()
