"""Property tests for the batched zero-copy data plane.

Two identities anchor the data plane's perf work and must hold
bit-for-bit:

* every frame producer (``encode_mixture_frames``,
  ``encode_data_frame``, ``encode_packet``, ``encode_packets_into``,
  ``encode_packets_rows``)
  writes exactly the frame the documented layout describes, and the
  offset-cursor streaming decode accepts it — including the maximal
  ``g = 0xFFFF`` geometry, strided inputs, and CRC-corruption
  rejection;
* ``Recoder.emit_batch(k, g)`` (and the fused ``emit_rows`` →
  ``encode_mixture_frames`` path) equals ``k`` sequential ``emit(g)``
  calls under the same RNG stream, so turning batching on cannot
  change a single byte of any seeded trace.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import CodedPacket, GenerationParams, Recoder, SourceEncoder
from repro.coding.buffers import BufferPool
from repro.coding.wire import (
    WireFormatError,
    decode_packet,
    encode_packet,
    encode_packets_into,
    encode_packets_rows,
    frame_size,
    read_frame_at,
)
from repro.net.framing import (
    FrameBuffer,
    encode_data_frame,
    encode_data_frames,
    encode_mixture_frames,
)


def _random_packet(rng, g, n, generation=0, origin=-1):
    return CodedPacket(
        generation=generation,
        coefficients=rng.integers(0, 256, size=g, dtype=np.uint8),
        payload=rng.integers(0, 256, size=n, dtype=np.uint8),
        origin=origin,
    )


def _assert_packets_equal(a: CodedPacket, b: CodedPacket) -> None:
    assert a.generation == b.generation
    assert a.origin == b.origin
    assert np.array_equal(a.coefficients, b.coefficients)
    assert np.array_equal(a.payload, b.payload)


def _seeded_recoder(seed: int, params, generation_count: int,
                    fill: int, node_id: int = 9) -> Recoder:
    """A recoder with a deterministic partially-filled buffer.

    Built twice with the same ``seed`` it reaches the identical state,
    so the batched and scalar emission arms start from the same basis
    *and* the same RNG stream position.
    """
    feed = np.random.default_rng(1000 + seed)
    content = bytes(
        feed.integers(0, 256,
                      size=params.payload_size * params.generation_size * 2,
                      dtype=np.uint8)
    )
    encoder = SourceEncoder(content, params, np.random.default_rng(2000 + seed))
    recoder = Recoder(params, encoder.generation_count,
                      np.random.default_rng(seed), node_id=node_id)
    for _ in range(fill):
        recoder.receive(encoder.emit())
    return recoder


# ----------------------------------------------------------------------
# Batched wire codec vs the scalar codec


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=8),
    uniform=st.booleans(),
)
def test_batch_encode_is_byte_identical_to_scalar(seed, count, uniform):
    """``encode_packets_into`` frames == per-packet ``encode_packet``.

    Covers batches of one shared geometry and of mixed geometries.
    """
    rng = np.random.default_rng(seed)
    if uniform:
        g, n = int(rng.integers(1, 12)), int(rng.integers(0, 24))
        geometries = [(g, n)] * count
    else:
        geometries = [
            (int(rng.integers(1, 12)), int(rng.integers(0, 24)))
            for _ in range(count)
        ]
    packets = [
        _random_packet(rng, g, n,
                       generation=int(rng.integers(0, 2**16)),
                       origin=int(rng.integers(-1, 100)))
        for g, n in geometries
    ]
    pool = BufferPool()
    buf, spans = encode_packets_into(packets, pool=pool)
    try:
        frames = [bytes(memoryview(buf)[o:o + ln]) for o, ln in spans]
    finally:
        pool.release(buf)
    for packet, frame in zip(packets, frames):
        assert frame == encode_packet(packet)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=8),
)
def test_streaming_decode_roundtrips_batch(seed, count):
    """Offset-cursor decode over one contiguous buffer recovers the batch."""
    rng = np.random.default_rng(seed)
    g, n = int(rng.integers(1, 12)), int(rng.integers(0, 24))
    packets = [
        _random_packet(rng, g, n, generation=i,
                       origin=int(rng.integers(-1, 100)))
        for i in range(count)
    ]
    buf, spans = encode_packets_into(packets)
    blob = bytes(memoryview(buf)[:sum(ln for _, ln in spans)])
    offset = 0
    for packet in packets:
        decoded, offset = read_frame_at(blob, offset)
        assert decoded is not None
        _assert_packets_equal(decoded, packet)
    # Exhausted: a cursor at the end reports "need more bytes".
    decoded, end = read_frame_at(blob, offset)
    assert decoded is None and end == offset == len(blob)


def test_max_generation_size_roundtrips():
    """The u16 geometry fields admit g = 0xFFFF; the batch path must too."""
    rng = np.random.default_rng(3)
    packets = [_random_packet(rng, 0xFFFF, 5, generation=i) for i in range(2)]
    buf, spans = encode_packets_into(packets)
    blob = bytes(memoryview(buf)[:sum(ln for _, ln in spans)])
    assert spans[0][1] == frame_size(0xFFFF, 5)
    offset = 0
    for packet in packets:
        assert blob[offset:offset + spans[0][1]] == encode_packet(packet)
        decoded, offset = read_frame_at(blob, offset)
        _assert_packets_equal(decoded, packet)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    position=st.integers(min_value=0, max_value=2**31 - 1),
    flip=st.integers(min_value=1, max_value=255),
)
def test_any_corruption_is_rejected(seed, position, flip):
    """Flipping any byte of a v2 frame fails decode loudly (CRC/header)."""
    rng = np.random.default_rng(seed)
    packet = _random_packet(rng, int(rng.integers(1, 10)),
                            int(rng.integers(0, 16)))
    frame = bytearray(encode_packet(packet))
    frame[position % len(frame)] ^= flip
    with pytest.raises(WireFormatError):
        decode_packet(bytes(frame))
    # The streaming cursor either rejects it or reports an incomplete
    # frame (a corrupted length field may promise more bytes) — it must
    # never hand back a packet.
    try:
        decoded, _ = read_frame_at(bytes(frame), 0)
    except WireFormatError:
        return
    assert decoded is None


# ----------------------------------------------------------------------
# Every frame producer against the documented layout


def _reference_frame(generation, origin, coefficients, payload) -> bytes:
    """A wire frame built from the layout in ``repro.coding.wire``'s
    docstring: header, coefficients, payload, CRC32 of all of it."""
    coefficients = bytes(coefficients)
    payload = bytes(payload)
    nonzero = [c for c in coefficients if c]
    flags = 1 if nonzero == [1] else 0
    body = struct.pack(">HBBIiHH", 0x5243, 2, flags, generation, origin,
                       len(coefficients), len(payload))
    body += coefficients + payload
    return body + struct.pack(">I", zlib.crc32(body))


def _prefixed(frame: bytes) -> bytes:
    """``frame`` behind the stream prefix: body length, kind 0."""
    return struct.pack(">IB", len(frame), 0) + frame


def _strided(array: np.ndarray, stride: int) -> np.ndarray:
    """The same values as a view taking every ``stride``-th element of
    the last axis of a larger buffer (a plain copy when ``stride`` is 1)."""
    shape = array.shape[:-1] + (array.shape[-1] * stride,)
    base = np.full(shape, 0xEE, dtype=np.uint8)
    base[..., ::stride] = array
    return base[..., ::stride]


_geometry = st.tuples(
    st.one_of(st.integers(min_value=1, max_value=64), st.just(0xFFFF)),
    st.integers(min_value=0, max_value=1100),
)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    geometry=_geometry,
    generations=st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                         min_size=1, max_size=3),
    origin=st.integers(min_value=-1, max_value=2**31 - 1),
    rows=st.integers(min_value=1, max_value=3),
    stride=st.integers(min_value=1, max_value=3),
)
def test_every_frame_producer_matches_the_documented_layout(
        seed, geometry, generations, origin, rows, stride):
    """``encode_mixture_frames``, ``encode_data_frame``, ``encode_packet``,
    ``encode_packets_into`` and ``encode_packets_rows`` all write the
    reference frame, strided
    inputs and systematic rows included; and what a ``FrameBuffer``
    decodes from them owns its bytes."""
    g, n = geometry
    rng = np.random.default_rng(seed)
    groups, packets, expected = [], [], []
    for generation in generations:
        mix = rng.integers(0, 256, size=(rows, g + n), dtype=np.uint8)
        # Row 0 is a source packet: one coefficient, equal to 1.
        mix[0, :g] = 0
        mix[0, int(rng.integers(0, g))] = 1
        view = _strided(mix, stride)
        groups.append((generation, view))
        for row in mix:
            expected.append(_reference_frame(generation, origin,
                                             row[:g], row[g:]))
            packets.append(CodedPacket.trusted(
                generation, _strided(row[:g], stride),
                _strided(row[g:], stride), origin))

    mixture_frames = encode_mixture_frames(groups, g, origin)
    assert mixture_frames == [_prefixed(frame) for frame in expected]
    assert [encode_data_frame(p) for p in packets] == mixture_frames
    assert [encode_packet(p) for p in packets] == expected
    buf, spans = encode_packets_into(packets, pool=BufferPool())
    assert [bytes(buf[o:o + ln]) for o, ln in spans] == expected
    rows_out = np.zeros((len(packets), frame_size(g, n)), dtype=np.uint8)
    encode_packets_rows(packets, rows_out)
    assert [row.tobytes() for row in rows_out] == expected

    fed = bytearray(b"".join(mixture_frames))
    frames = FrameBuffer()
    frames.feed(fed)
    decoded = list(frames.messages())
    fed[:] = bytes(len(fed))
    frames.feed(b"\xff" * 7)  # compacts the consumed frames away
    assert frames.pending() == 7
    assert len(decoded) == len(packets)
    for got, packet in zip(decoded, packets):
        _assert_packets_equal(got, packet)


# ----------------------------------------------------------------------
# Batched recode vs sequential emission


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=12),
    fill=st.integers(min_value=1, max_value=12),
    generation=st.integers(min_value=0, max_value=1),
)
def test_emit_batch_matches_sequential_emits(seed, count, fill, generation):
    """``emit_batch(k, g)`` == ``k`` x ``emit(g)`` under the same RNG
    stream."""
    params = GenerationParams(generation_size=4, payload_size=8)
    batched = _seeded_recoder(seed, params, 2, fill)
    scalar = _seeded_recoder(seed, params, 2, fill)
    got = batched.emit_batch(count, generation)
    expected = []
    for _ in range(count):
        packet = scalar.emit(generation)
        if packet is None:
            break
        expected.append(packet)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        _assert_packets_equal(a, b)
    # Both RNG streams must land at the same point: the next draws agree.
    after_a = batched.emit(generation)
    after_b = scalar.emit(generation)
    assert (after_a is None) == (after_b is None)
    if after_a is not None:
        _assert_packets_equal(after_a, after_b)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    counts=st.lists(st.integers(min_value=0, max_value=7),
                    min_size=1, max_size=4),
    generation=st.integers(min_value=0, max_value=1),
    systematic=st.booleans(),
)
def test_source_emit_batch_matches_sequential_emits(seed, counts, generation,
                                                    systematic):
    """``SourceEncoder.emit_batch(k, g)`` == ``k`` x ``emit(g)``, across
    batches that start inside, straddle and follow the systematic
    prefix."""
    params = GenerationParams(generation_size=4, payload_size=8)
    content = bytes(np.random.default_rng(seed).integers(
        0, 256, size=2 * params.generation_size * params.payload_size,
        dtype=np.uint8))

    def encoder():
        return SourceEncoder(content, params, np.random.default_rng(seed),
                             systematic_first=systematic)

    batched, scalar = encoder(), encoder()
    for count in counts:
        got = batched.emit_batch(count, generation)
        assert len(got) == count
        for packet in got:
            _assert_packets_equal(packet, scalar.emit(generation))
    _assert_packets_equal(batched.emit(generation), scalar.emit(generation))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=1, max_value=12),
    fill=st.integers(min_value=1, max_value=12),
)
def test_fused_mixture_frames_match_scalar_wire_path(seed, count, fill):
    """``emit_rows`` → ``encode_mixture_frames`` == emit + frame, per byte.

    This is the peer fan-out fast path: mixtures go from the gemm
    output matrix straight to length-prefixed wire frames with no
    intermediate packets — the frames must still be exactly what the
    scalar path would have sent, in draw order, group after group.
    """
    params = GenerationParams(generation_size=4, payload_size=8)
    batched = _seeded_recoder(seed, params, 2, fill)
    scalar = _seeded_recoder(seed, params, 2, fill)
    groups = [(generation, batched.emit_rows(count, generation))
              for generation in (1, 0)]
    frames = encode_mixture_frames(groups, params.generation_size,
                                   origin=batched.node_id)
    expected = []
    for generation in (1, 0):
        for _ in range(count):
            packet = scalar.emit(generation)
            if packet is None:
                break
            expected.append(encode_data_frame(packet))
    assert frames == expected


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=0, max_value=6),
)
def test_encode_data_frames_matches_per_packet_framing(seed, count):
    """Batch framing is per-packet framing, bit for bit."""
    rng = np.random.default_rng(seed)
    packets = [
        _random_packet(rng, int(rng.integers(1, 10)), int(rng.integers(0, 16)),
                       generation=i, origin=int(rng.integers(-1, 50)))
        for i in range(count)
    ]
    assert encode_data_frames(packets) == [
        encode_data_frame(p) for p in packets
    ]


# ----------------------------------------------------------------------
# Buffer pool lifecycle


def test_buffer_pool_reuses_and_bounds_idle_memory():
    pool = BufferPool(max_per_bucket=1, min_capacity=64)
    first = pool.lease(10)
    assert len(first) == 64  # rounded up to the bucket capacity
    pool.release(first)
    again = pool.lease(64)
    assert again is first
    assert pool.stats.allocations == 1 and pool.stats.reuses == 1
    pool.release(again)
    pool.release(bytearray(64))  # bucket already full: dropped for the GC
    assert pool.stats.discarded == 1
    big = pool.lease(100)
    assert len(big) == 128
    with pytest.raises(ValueError):
        pool.lease(-1)


def test_steady_state_batch_encoding_stops_allocating():
    """Repeated flushes through one pool converge to zero allocations."""
    rng = np.random.default_rng(7)
    pool = BufferPool()
    packets = [_random_packet(rng, 8, 64, generation=i) for i in range(16)]
    for _ in range(5):
        buf, _ = encode_packets_into(packets, pool=pool)
        pool.release(buf)
    assert pool.stats.allocations == 1
    assert pool.stats.reuses == pool.stats.leases - 1
