"""Named registries: a name plus the objects that already count.

No instrument object holds a count.  Every count is a plain ``int``
on the object that owns it — an engine's instrument bundle, a pump's
``SenderStats``, a node's ``PeerStats`` — bumped in place (``+= 1``):
no dict lookup, no lock, no string formatting, no object per name.
A :class:`Registry` is only a name and the list of those *owners*.
Everything expensive (state sizes, sums over live pumps, name
sorting) happens at *snapshot* time, which runs on demand when an
exporter scrapes or a run folds its report: each owner's
``snapshot_into(counters, gauges, histograms)`` writes its current
values into the three sections, by name.

The module is part of the sans-IO observability core: it imports
nothing but the stdlib (``tools/check_layering.py`` enforces this), so
the protocol engines, the slotted simulator, and the live transport
all hang their owners off the same :class:`Registry`.

Concurrency: the counts are safe on the asyncio single-thread path by
construction (one bytecode-level ``+=`` per increment, no compound
read-modify-write across awaits).  They are *not* cross-thread
precise; the repo's runtime is single-threaded per node, so precision
is not bought with locks.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "Histogram",
    "Registry",
]


#: Every histogram's bucket bounds: 1 µs to ~4 s in power-of-two steps
#: (23 buckets, plus the implicit overflow bucket).  Wide enough for both
#: a simulator slot and a straggling network round-trip.
LATENCY_BOUNDS = tuple(1e-6 * (1 << i) for i in range(23))


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` semantics.

    Buckets are fixed (:data:`LATENCY_BOUNDS`), so ``observe`` is one
    :func:`bisect.bisect_left` plus two attribute bumps — no allocation,
    no rebucketing.  An observation equal to a bound lands in that
    bound's bucket (``value <= le``, Prometheus semantics); anything
    above the last bound lands in the implicit overflow bucket.  Its
    owner writes :meth:`snapshot_value` under the histogram's name.
    """

    __slots__ = ("bucket_counts", "count", "sum")

    bounds = LATENCY_BOUNDS

    def __init__(self) -> None:
        #: Per-bucket observation counts; the extra last slot is the
        #: +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def snapshot_value(self) -> dict:
        """Stable summary: bounds, per-bucket counts, count, sum."""
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"Histogram(n={self.count} sum={self.sum})"


class Registry:
    """A name plus the owners a snapshot reads.

    ``owners`` is a plain list: an owner appends itself once, and from
    then on each :meth:`snapshot` calls its
    ``snapshot_into(counters, gauges, histograms)``.  A name belongs
    to exactly one owner: two owners writing one name (in any
    sections) is an error, raised at snapshot time.
    """

    __slots__ = ("name", "owners")

    def __init__(self, name: str) -> None:
        self.name = name
        self.owners: list = []

    def snapshot(self) -> dict:
        """One consistent read of every owner, each section sorted by
        name: counters and gauges as numbers, histograms as their
        bounds/counts summary."""
        merged: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        written: set[str] = set()
        for owner in self.owners:
            parts = ({}, {}, {})
            owner.snapshot_into(*parts)
            for section, part in zip(merged.values(), parts):
                clash = written.intersection(part)
                if clash:
                    raise ValueError(
                        f"registry {self.name!r}: {sorted(clash)} written "
                        f"by two owners (the second is {owner!r})")
                written.update(part)
                section.update(part)
        return {
            kind: dict(sorted(section.items()))
            for kind, section in merged.items()
        }
