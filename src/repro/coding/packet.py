"""Coded packets carrying their own coefficient vectors.

Following *Practical Network Coding* (Chou, Wu, Jain 2003), every packet in
the system is a linear combination of the ``generation_size`` original
source packets of one *generation*, and carries the coefficient vector of
that combination in its header.  Because the coefficients travel with the
payload, any node can recode or decode without knowing the topology, and
the system survives arbitrary topology churn — the property the overlay
paper leans on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gf.kernels import addmul_row


def systematic_row(row: bytes, g: int) -> bool:
    """Whether the first ``g`` bytes of ``row`` — a coefficient vector,
    perhaps followed by its payload — are one 1 among zeros, i.e. an
    unmixed source packet.

    Two C-level ``bytes.count`` calls: numpy reductions cost
    microseconds at these vector sizes, and this runs once per
    serialised frame.
    """
    return row.count(1, 0, g) == 1 and row.count(0, 0, g) == g - 1


@dataclass
class CodedPacket:
    """One packet on the wire.

    Attributes:
        generation: Index of the generation this packet belongs to.
        coefficients: ``uint8`` vector of length ``generation_size``
            expressing the payload as a combination of source packets.
        payload: ``uint8`` vector of the (coded) data bytes.
        origin: Identifier of the node that emitted this packet (for
            diagnostics and attack experiments; not used for decoding).
        hop_count: Number of recoding hops this packet's lineage passed
            through (diagnostics only).
    """

    generation: int
    coefficients: np.ndarray
    payload: np.ndarray
    origin: int = -1
    hop_count: int = 0

    def __post_init__(self) -> None:
        self.coefficients = np.asarray(self.coefficients, dtype=np.uint8)
        self.payload = np.asarray(self.payload, dtype=np.uint8)

    @classmethod
    def trusted(cls, generation: int, coefficients: np.ndarray,
                payload: np.ndarray, origin: int = -1,
                hop_count: int = 0) -> "CodedPacket":
        """Construct without the ``__post_init__`` coercion.

        For hot paths whose operands are already ``uint8`` arrays straight
        out of the GF kernels — the dataclass ``__init__`` plus two
        ``np.asarray`` calls are a measurable fraction of a batched emit,
        and coercion of an array that is already ``uint8`` is a no-op.
        """
        self = object.__new__(cls)
        self.generation = generation
        self.coefficients = coefficients
        self.payload = payload
        self.origin = origin
        self.hop_count = hop_count
        return self

    @property
    def generation_size(self) -> int:
        """Number of source packets in this packet's generation."""
        return int(self.coefficients.shape[0])

    @property
    def payload_size(self) -> int:
        """Number of payload bytes."""
        return int(self.payload.shape[0])

    @property
    def header_overhead(self) -> float:
        """Fraction of the wire size consumed by the coefficient header."""
        total = self.generation_size + self.payload_size
        return self.generation_size / total if total else 0.0

    def is_systematic(self) -> bool:
        """True if this packet is an unmixed original source packet
        (:func:`systematic_row` of its coefficients)."""
        raw = self.coefficients.tobytes()
        return systematic_row(raw, len(raw))

    def copy(self) -> "CodedPacket":
        """Deep copy (the simulator hands packets across node boundaries)."""
        return CodedPacket(
            generation=self.generation,
            coefficients=self.coefficients.copy(),
            payload=self.payload.copy(),
            origin=self.origin,
            hop_count=self.hop_count,
        )

    def wire_size(self) -> int:
        """Bytes on the wire: coefficients + payload + small fixed header."""
        return self.generation_size + self.payload_size + 8


@dataclass
class SourceBlock:
    """The original data of one generation, pre-coding.

    ``data`` is a ``(generation_size, payload_size)`` uint8 matrix whose
    rows are the original packets.
    """

    generation: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.uint8)
        if self.data.ndim != 2:
            raise ValueError("SourceBlock data must be a 2-D matrix")

    @property
    def generation_size(self) -> int:
        return int(self.data.shape[0])

    @property
    def payload_size(self) -> int:
        return int(self.data.shape[1])

    def source_packet(self, index: int) -> CodedPacket:
        """Return the ``index``-th original packet in systematic form."""
        coefficients = np.zeros(self.generation_size, dtype=np.uint8)
        coefficients[index] = 1
        return CodedPacket(
            generation=self.generation,
            coefficients=coefficients,
            payload=self.data[index].copy(),
        )


def combine(packets: list[CodedPacket], scalars: np.ndarray) -> CodedPacket:
    """Form the linear combination ``sum_i scalars[i] * packets[i]``.

    All packets must share a generation and have equal sizes.  The
    encoder and recoder batch the same arithmetic through
    :mod:`repro.gf.kernels`; this one-packet form is the tests' reference.
    """
    if not packets:
        raise ValueError("cannot combine an empty packet list")
    scalars = np.asarray(scalars, dtype=np.uint8)
    if scalars.shape[0] != len(packets):
        raise ValueError("one scalar per packet required")
    generation = packets[0].generation
    coefficients = np.zeros_like(packets[0].coefficients)
    payload = np.zeros_like(packets[0].payload)
    max_hops = 0
    for packet, scalar in zip(packets, scalars):
        if packet.generation != generation:
            raise ValueError("cannot mix packets from different generations")
        if packet.coefficients.shape != coefficients.shape:
            raise ValueError("mismatched generation sizes")
        if packet.payload.shape != payload.shape:
            raise ValueError("mismatched payload sizes")
        addmul_row(coefficients, packet.coefficients, int(scalar))
        addmul_row(payload, packet.payload, int(scalar))
        max_hops = max(max_hops, packet.hop_count)
    return CodedPacket(
        generation=generation,
        coefficients=coefficients,
        payload=payload,
        hop_count=max_hops + 1,
    )
