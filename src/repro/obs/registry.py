"""Named instrument registries: counters, gauges, histograms.

The hot-path contract is the whole design: an increment is one Python
attribute bump on a pre-bound instrument object — no dict lookup, no
lock, no string formatting.  Everything expensive (callback gauges,
bucket summaries, name sorting) happens at *snapshot* time, which runs
on demand when an exporter scrapes or a run folds its report.

The module is part of the sans-IO observability core: it imports
nothing but the stdlib (``tools/check_layering.py`` enforces this), so
the protocol engines, the slotted simulator, and the live transport
all hang the same instruments off the same :class:`Registry`.

Concurrency: instruments are safe on the asyncio single-thread path by
construction (one bytecode-level ``+=`` per increment, no compound
read-modify-write across awaits).  They are *not* cross-thread
precise; the repo's runtime is single-threaded per node, so precision
is not bought with locks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
]


#: Every histogram's bucket bounds: 1 µs to ~4 s in power-of-two steps
#: (23 buckets, plus the implicit overflow bucket).  Wide enough for both
#: a simulator slot and a straggling network round-trip.
LATENCY_BOUNDS = tuple(1e-6 * (1 << i) for i in range(23))


class Counter:
    """A monotonically increasing count.

    ``inc`` is the hot-path entry point; callers hold the instrument
    object directly so the increment is a single attribute bump.
    """

    __slots__ = ("name", "help", "value")

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot_value(self) -> Union[int, float]:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that can go up, down, or be computed on read.

    A gauge either holds a value (``set``/``inc``) or is bound
    to a zero-argument callback (``bind``) evaluated at snapshot time —
    the snapshot-on-read idiom that keeps queue depths, pool occupancy,
    and rank progress observable with zero hot-path cost.
    """

    __slots__ = ("name", "help", "value", "_fn")

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def bind(self, fn: Callable[[], float]) -> "Gauge":
        """Evaluate ``fn`` at snapshot time instead of storing a value.

        Re-binding replaces the previous callback (a reconnected child
        rebinds its queue-depth gauge to the new pump).
        """
        self._fn = fn
        return self

    def snapshot_value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"Gauge({self.name}={self.snapshot_value()})"


class Histogram:
    """Fixed-bucket histogram with cumulative-``le`` semantics.

    Buckets are fixed (:data:`LATENCY_BOUNDS`), so ``observe`` is one
    :func:`bisect.bisect_left` plus two attribute bumps — no allocation,
    no rebucketing.  An observation equal to a bound lands in that
    bound's bucket (``value <= le``, Prometheus semantics); anything
    above the last bound lands in the implicit overflow bucket.
    """

    __slots__ = ("name", "help", "bucket_counts", "count", "sum")

    kind = "histogram"
    bounds = LATENCY_BOUNDS

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
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
        return f"Histogram({self.name} n={self.count} sum={self.sum})"


Instrument = Union[Counter, Gauge, Histogram]


class Registry:
    """A named bag of instruments with one-shot snapshotting.

    Instrument constructors are idempotent: asking for an existing name
    returns the existing instrument (asking for it with a different
    *kind* is an error).  Drivers therefore wire instruments
    opportunistically without coordinating ownership.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._instruments: dict[str, Instrument] = {}

    # -- construction ---------------------------------------------------

    def _get_or_create(self, cls, name: str, help: str) -> Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"instrument {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        instrument = cls(name, help)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(
        self, name: str, help: str = "",
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        gauge = self._get_or_create(Gauge, name, help)
        if fn is not None:
            gauge.bind(fn)
        return gauge

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(Histogram, name, help)

    # -- introspection --------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """One consistent read of every instrument.

        Counters and gauges flatten to numbers; histograms to their
        bounds/counts summary.  Callback gauges are evaluated here —
        this is the only place they run.
        """
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            out[instrument.kind + "s"][name] = instrument.snapshot_value()
        return out
