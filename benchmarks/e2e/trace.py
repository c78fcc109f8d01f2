"""Layer-boundary spans, recorded from outside the program under test.

:meth:`Tracer.install` replaces the public, synchronous entry points of
each ``repro`` layer with a timing wrapper: class methods are swapped on
the class, module-level functions are re-bound in every ``repro.*``
module that imported them by name.  Coroutines and generators are never
wrapped, so the wrappers nest like the Python call stack and one
"current span" variable gives every span its parent.

A span is ``(layer, start, end, parent)``.  Spans stay in memory until
:meth:`Tracer.dump`.  A layer's self time is its spans' duration minus
the part their child spans cover; whatever no span covers — the asyncio
event loop, the transport, the ``net.peer``/``net.server`` driver glue —
is the ``loop`` layer, so the ledger sums to wall time by construction.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

import numpy as np

#: Ledger rows, in stack order; ``loop`` is the remainder.
LAYERS = (
    "gf", "coding.decoder", "coding.recoder", "coding.wire", "dataplane",
    "net.framing", "net.streams", "net.control", "protocol", "core", "obs",
    "loop",
)

#: layer -> (module, public functions)
FUNCTIONS = {
    "gf": ("repro.gf.kernels", (
        "combine_rows", "addmul_rows", "mix_rows", "eliminate", "gemm",
        "addmul_row",
    )),
    "coding.wire": ("repro.coding.wire", (
        "encode_mixture_rows", "encode_packets_into", "encode_packets_rows",
        "encode_packet_into", "decode_packet_from", "read_frame_at",
    )),
    "net.framing": ("repro.net.framing", (
        "encode_mixture_frames", "encode_data_frames", "encode_data_frame",
        "encode_frame",
    )),
    "net.control": ("repro.net.control", ("encode_control", "decode_control")),
}

#: (layer, module, class, public methods)
METHODS = (
    ("coding.decoder", "repro.coding.decoder", "GenerationDecoder", ("push",)),
    ("coding.recoder", "repro.coding.recoder", "Recoder",
     ("emit_rows", "emit_batch", "emit")),
    ("coding.recoder", "repro.coding.encoder", "SourceEncoder",
     ("emit_batch", "emit")),
    ("dataplane", "repro.dataplane.relay_engine", "RelayEngine", ("handle",)),
    ("dataplane", "repro.dataplane.source_engine", "SourceEngine", ("handle",)),
    ("net.framing", "repro.net.framing", "FrameBuffer",
     ("feed", "pending", "next_message")),
    ("net.streams", "repro.net.streams", "PacketSender",
     ("enqueue", "enqueue_frame")),
    ("protocol", "repro.protocol.server_engine", "ServerEngine", ("handle",)),
    ("protocol", "repro.protocol.peer_engine", "PeerEngine", ("handle",)),
    ("core", "repro.core.server", "CoordinationServer",
     ("hello", "goodbye", "fail", "complain", "repair")),
    ("obs", "repro.obs.instruments", "ServerEngineInstruments", ("record_step",)),
    ("obs", "repro.obs.instruments", "PeerEngineInstruments", ("record_step",)),
    ("obs", "repro.obs.instruments", "DataplaneInstruments", ("record_step",)),
)


class Tracer:
    """Span recorder plus the boundary counts no ``repro.obs`` registry
    keeps (kernel operand bytes, peak send-queue depth)."""

    def __init__(self) -> None:
        #: (layer index, start, end, parent span index or -1)
        self.spans: list = []
        #: (rep id, index of the rep's first span)
        self.reps: list[tuple[int, int]] = []
        self.current = -1
        self.gf_bytes = 0
        self.queue_depth_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, layer: int, after=None):
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.current = parent
                spans[index] = (layer, start, end, parent)
                if after is not None:
                    after(args)

        traced.__wrapped__ = fn
        return traced

    def _count_operands(self, args) -> None:
        self.gf_bytes += sum(
            a.nbytes for a in args if type(a) is np.ndarray
        )

    def _watch_queue(self, args) -> None:
        depth = args[0].queue_depth
        if depth > self.queue_depth_max:
            self.queue_depth_max = depth

    # -- install / uninstall --------------------------------------------

    def _replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every boundary.  Call after the workload's modules are
        imported and before any node is constructed (engines cache bound
        ``record_step`` methods when instruments attach)."""
        for layer, (module_name, names) in FUNCTIONS.items():
            module = importlib.import_module(module_name)
            after = self._count_operands if layer == "gf" else None
            for name in names:
                original = getattr(module, name)
                wrapped = self._span(original, LAYERS.index(layer), after)
                for holder_name, holder in list(sys.modules.items()):
                    if holder is None or not holder_name.startswith("repro."):
                        continue
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, attr, wrapped)
        for layer, module_name, class_name, names in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name in names:
                after = (
                    self._watch_queue
                    if (class_name, name) == ("PacketSender", "enqueue_frame")
                    else None
                )
                self._replace(cls, name, self._span(
                    getattr(cls, name), LAYERS.index(layer), after))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def begin_rep(self, rep: int) -> int:
        """Start a rep; returns the index its first span will get."""
        self.reps.append((rep, len(self.spans)))
        self.current = -1
        return len(self.spans)

    # -- the ledger ------------------------------------------------------

    def _columns(self, first: int = 0):
        """Spans from index ``first`` on as numpy columns (parents made
        relative; a parent before ``first`` reads -1)."""
        table = np.array(self.spans[first:], dtype=np.float64).reshape(-1, 4)
        layer = table[:, 0].astype(np.int64)
        parent = table[:, 3].astype(np.int64) - first
        parent[parent < 0] = -1
        return layer, table[:, 1], table[:, 2], parent

    def ledger(self, first: int, t0: float, t1: float) -> dict:
        """Per-layer self time, inclusive time and calls for the spans
        recorded from index ``first`` on that lie inside ``[t0, t1]``."""
        layer, start, end, parent = self._columns(first)
        count = len(LAYERS)
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(layer),
        )
        self_time = duration - covered
        inside = (start >= t0) & (end <= t1)
        # A span is a layer entry when its parent is another layer's
        # span: entries' durations add up to the layer's inclusive time.
        entry = inside & ~(has_parent & (layer[parent] == layer))
        self_s = np.bincount(
            layer[inside], weights=self_time[inside], minlength=count)
        calls = np.bincount(layer[inside], minlength=count)
        inclusive_s = np.bincount(
            layer[entry], weights=duration[entry], minlength=count)
        entries = np.bincount(layer[entry], minlength=count)
        loop = LAYERS.index("loop")
        self_s[loop] = (t1 - t0) - self_s.sum()
        inclusive_s[loop] = self_s[loop]
        return {
            name: {
                "self_s": float(self_s[i]),
                "inclusive_s": float(inclusive_s[i]),
                "calls": int(calls[i]),
                "entries": int(entries[i]),
            }
            for i, name in enumerate(LAYERS)
        }

    def dump(self, path) -> None:
        """Write every span as columns: layer, start, end, parent, rep.
        Times are seconds since the first span."""
        layer, start, end, parent = self._columns()
        origin = float(start[0]) if len(start) else 0.0
        firsts = np.array([first for _, first in self.reps], dtype=np.int64)
        rep_ids = np.array([rep for rep, _ in self.reps], dtype=np.int64)
        rep = rep_ids[np.searchsorted(firsts, np.arange(len(layer)), "right") - 1]
        with open(path, "w") as handle:
            json.dump({
                "layers": list(LAYERS),
                "layer": layer.tolist(),
                "start": (start - origin).round(9).tolist(),
                "end": (end - origin).round(9).tolist(),
                "parent": parent.tolist(),
                "rep": rep.tolist(),
            }, handle)
