"""Unit tests for the packet wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import CodedPacket, GenerationParams, SourceEncoder
from repro.coding.wire import (
    CrcError,
    WireFormatError,
    decode_packet,
    decode_packet_from,
    encode_packet,
    frame_size,
    read_frame_at,
)


@pytest.fixture
def packet(rng):
    params = GenerationParams(generation_size=8, payload_size=64)
    content = bytes(rng.integers(0, 256, size=512, dtype=np.uint8))
    return SourceEncoder(content, params, rng).emit(0)


class TestRoundtrip:
    def test_fields_preserved(self, packet):
        packet.origin = 42
        decoded = decode_packet(encode_packet(packet))
        assert decoded.generation == packet.generation
        assert decoded.origin == 42
        assert np.array_equal(decoded.coefficients, packet.coefficients)
        assert np.array_equal(decoded.payload, packet.payload)

    def test_server_origin_negative(self, packet):
        packet.origin = -1
        assert decode_packet(encode_packet(packet)).origin == -1

    def test_frame_size_matches(self, packet):
        frame = encode_packet(packet)
        assert len(frame) == frame_size(packet.generation_size,
                                        packet.payload_size)

    def test_decoded_packet_still_decodes(self, rng):
        """Wire roundtrip must not disturb decodability."""
        from repro.coding import Decoder

        params = GenerationParams(generation_size=6, payload_size=32)
        content = bytes(rng.integers(0, 256, size=192, dtype=np.uint8))
        encoder = SourceEncoder(content, params, rng)
        decoder = Decoder(params, encoder.generation_count)
        while not decoder.is_complete:
            decoder.push(decode_packet(encode_packet(encoder.emit())))
        assert decoder.recover(len(content)) == content

    def test_systematic_flag(self):
        original = CodedPacket(0, np.eye(4, dtype=np.uint8)[0],
                               np.zeros(8, dtype=np.uint8))
        frame = encode_packet(original)
        assert frame[3] & 0x01  # flags byte carries the systematic hint


def _packets_equal(a, b):
    return (a.generation == b.generation and a.origin == b.origin
            and np.array_equal(a.coefficients, b.coefficients)
            and np.array_equal(a.payload, b.payload))


_packet_strategy = st.builds(
    CodedPacket,
    generation=st.integers(min_value=0, max_value=2**32 - 1),
    coefficients=st.binary(min_size=1, max_size=64).map(
        lambda b: np.frombuffer(b, dtype=np.uint8).copy()
    ),
    payload=st.binary(min_size=0, max_size=128).map(
        lambda b: np.frombuffer(b, dtype=np.uint8).copy()
    ),
    origin=st.integers(min_value=-(2**31), max_value=2**31 - 1),
)


class TestVersions:
    """The one wire version: a CRC32 trailer, verified on decode."""

    def test_corrupted_payload_fails_crc(self, packet):
        frame = bytearray(encode_packet(packet))
        frame[20] ^= 0x40  # inside the coefficient/payload region
        with pytest.raises(WireFormatError, match="CRC"):
            decode_packet(bytes(frame))

    def test_corrupted_trailer_fails_crc(self, packet):
        frame = bytearray(encode_packet(packet))
        frame[-1] ^= 0x01
        with pytest.raises(WireFormatError, match="CRC"):
            decode_packet(bytes(frame))

    @settings(max_examples=50, deadline=None)
    @given(packet=_packet_strategy)
    def test_roundtrip(self, packet):
        assert _packets_equal(decode_packet(encode_packet(packet)), packet)


class TestEdgeGeometry:
    def test_empty_payload(self):
        packet = CodedPacket(generation=0,
                             coefficients=np.array([7], dtype=np.uint8),
                             payload=np.zeros(0, dtype=np.uint8), origin=-1)
        decoded = decode_packet(encode_packet(packet))
        assert decoded.payload_size == 0
        assert decoded.origin == -1

    def test_generation_size_at_uint16_boundary(self):
        packet = CodedPacket(
            generation=1,
            coefficients=np.ones(0xFFFF, dtype=np.uint8),
            payload=np.zeros(3, dtype=np.uint8),
        )
        decoded = decode_packet(encode_packet(packet))
        assert decoded.generation_size == 0xFFFF
        assert np.array_equal(decoded.coefficients, packet.coefficients)

    def test_server_and_extreme_origins(self):
        for origin in (-1, -(2**31), 2**31 - 1):
            packet = CodedPacket(generation=0,
                                 coefficients=np.array([1], dtype=np.uint8),
                                 payload=np.array([9], dtype=np.uint8),
                                 origin=origin)
            assert decode_packet(encode_packet(packet)).origin == origin


class TestReadFrame:
    """Streaming decode: a socket reader never sees aligned frames."""

    def test_empty_buffer(self):
        assert read_frame_at(b"") == (None, 0)

    def test_partial_header(self, packet):
        assert read_frame_at(encode_packet(packet)[:10]) == (None, 0)

    def test_partial_body(self, packet):
        assert read_frame_at(encode_packet(packet)[:-1]) == (None, 0)

    def test_exact_frame(self, packet):
        frame = encode_packet(packet)
        parsed, end = read_frame_at(frame)
        assert _packets_equal(parsed, packet) and end == len(frame)

    def test_two_frames_back_to_back(self, packet):
        frame = encode_packet(packet)
        first, middle = read_frame_at(frame + frame)
        second, end = read_frame_at(frame + frame, middle)
        assert _packets_equal(first, packet)
        assert _packets_equal(second, packet)
        assert (middle, end) == (len(frame), 2 * len(frame))

    def test_frame_plus_partial(self, packet):
        frame = encode_packet(packet)
        buffer = frame + frame[:7]
        parsed, end = read_frame_at(buffer)
        assert _packets_equal(parsed, packet) and end == len(frame)
        assert read_frame_at(buffer, end) == (None, end)

    def test_bad_magic_raises(self, packet):
        frame = bytearray(encode_packet(packet))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError):
            read_frame_at(bytes(frame))

    @settings(max_examples=50, deadline=None)
    @given(packet=_packet_strategy, data=st.data())
    def test_any_split_point_reassembles(self, packet, data):
        """Feeding a frame in two arbitrary chunks yields the packet."""
        frame = encode_packet(packet)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame)))
        parsed, end = read_frame_at(frame[:cut])
        if parsed is not None:  # cut == len(frame)
            assert _packets_equal(parsed, packet)
            return
        assert end == 0
        parsed, end = read_frame_at(frame[:cut] + frame[cut:])
        assert _packets_equal(parsed, packet)
        assert end == len(frame)


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(WireFormatError):
            decode_packet(b"\x00\x01")

    def test_bad_magic(self, packet):
        frame = bytearray(encode_packet(packet))
        frame[0] ^= 0xFF
        with pytest.raises(WireFormatError):
            decode_packet(bytes(frame))

    def test_bad_version(self, packet):
        """Only version 2 exists.  A structurally valid frame stamped
        with anything else — the trailer-less version 1 included, with
        or without four bytes where a trailer would be — is malformed,
        not a checksum failure: the version byte must not be a way to
        skip the CRC."""
        good = encode_packet(packet)
        for version in (0, 1, 3, 99):
            stamped = bytearray(good)
            stamped[2] = version
            for frame in (bytes(stamped), bytes(stamped[:-4])):
                for parse in (decode_packet, decode_packet_from, read_frame_at):
                    with pytest.raises(WireFormatError) as caught:
                        parse(frame)
                    assert not isinstance(caught.value, CrcError)
                    assert "version" in str(caught.value)

    def test_length_mismatch(self, packet):
        frame = encode_packet(packet)
        with pytest.raises(WireFormatError):
            decode_packet(frame[:-1])
        with pytest.raises(WireFormatError):
            decode_packet(frame + b"\x00")
