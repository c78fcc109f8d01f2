"""Unit tests for the packet wire format."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding import CodedPacket, GenerationParams, SourceEncoder, wire
from repro.coding.wire import (
    CrcError,
    WireFormatError,
    decode_packet,
    decode_packet_from,
    encode_mixture_rows,
    encode_packet,
    frame_size,
    read_frame_at,
)
from repro.gf import kernels
from repro.net.framing import (
    CrcMismatchError,
    FrameBuffer,
    FramingError,
    encode_data_frame,
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
        """Every parser rejects it: ``decode_packet_from`` checks the
        header inline, ``read_frame_at`` through ``_parse_header_at``."""
        frame = bytearray(encode_packet(packet))
        frame[0] ^= 0xFF
        for parse in (decode_packet, decode_packet_from, read_frame_at):
            with pytest.raises(WireFormatError) as caught:
                parse(bytes(frame))
            assert not isinstance(caught.value, CrcError)
            assert "magic" in str(caught.value)

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


class TestSingleCopyDecode:
    """A decoded packet's arrays are two private copies of its
    coefficients and payload: writable ``uint8``, and nothing shared
    with the bytes they were parsed from."""

    def test_packet_shares_nothing_with_the_frame_buffer(self, packet):
        frame = encode_data_frame(packet)
        parser = FrameBuffer()
        parser.feed(frame + frame)  # the second keeps the buffer alive
        decoded = parser.next_message()
        held = np.frombuffer(parser._buffer, dtype=np.uint8)
        for array in (decoded.coefficients, decoded.payload):
            assert not np.shares_memory(array, held)
        del held  # an exported buffer cannot be resized
        coefficients = decoded.coefficients.copy()
        payload = decoded.payload.copy()
        # Clobber the consumed bytes the packet was parsed from, refill
        # (the compaction moves the rest over them), then drain.
        parser._buffer[:len(frame)] = bytes(len(frame))
        parser.feed(frame)
        assert parser.next_message() is not None
        assert parser.next_message() is not None
        assert parser.pending() == 0
        assert np.array_equal(decoded.coefficients, coefficients)
        assert np.array_equal(decoded.payload, payload)
        assert np.array_equal(decoded.coefficients, packet.coefficients)

    def test_arrays_are_writable_uint8_whatever_the_input(self, packet):
        frame = encode_packet(packet)
        for source in (frame, bytearray(frame), memoryview(frame)):
            decoded, end = read_frame_at(source)
            assert end == len(frame)
            for array in (decoded.coefficients, decoded.payload):
                assert array.dtype == np.uint8 and array.flags.writeable
            source_bytes = np.frombuffer(source, dtype=np.uint8)
            assert not np.shares_memory(decoded.payload, source_bytes)
            decoded.payload[0] ^= 0xFF  # its own copy: the input keeps
            assert bytes(source) == frame

    #: Byte offsets of every header field after magic and version:
    #: flags, generation, origin, g, n.
    HEADER_FIELDS = range(3, 16)

    def test_one_flipped_bit_in_the_header_or_trailer_kills_the_frame(
            self, packet):
        frame = encode_data_frame(packet)
        prefix = len(frame) - frame_size(packet.generation_size,
                                         packet.payload_size)
        trailer = range(len(frame) - 4, len(frame))
        for index in (*(prefix + i for i in self.HEADER_FIELDS), *trailer):
            for bit in range(8):
                flipped = bytearray(frame)
                flipped[index] ^= 1 << bit
                parser = FrameBuffer()
                parser.feed(bytes(flipped))
                with pytest.raises((CrcMismatchError, FramingError)):
                    parser.next_message()


# ----------------------------------------------------------------------
# One codec on both backends


#: The backend this process computes on, then the numpy twin (the same
#: object twice on a host with no compiler).
BACKENDS = [kernels._impl, kernels.NUMPY]


@pytest.fixture(params=["native", "numpy"])
def codec(request, monkeypatch):
    """``coding.wire`` framing and opening frames on one backend."""
    impl = BACKENDS[request.param == "numpy"]
    monkeypatch.setattr(wire, "frame_rows", impl.frame_rows)
    monkeypatch.setattr(wire, "open_frame", impl.open_frame)
    return impl


def _reference_encode(generation, origin, coefficients, payload) -> bytes:
    """The frame as the struct-and-zlib codec this format began with
    made it: systematic when the coefficients are one 1 among zeros."""
    coefficients, payload = bytes(coefficients), bytes(payload)
    g = len(coefficients)
    systematic = coefficients.count(1) == 1 and coefficients.count(0) == g - 1
    header = struct.pack(">HBBIiHH", 0x5243, 2, int(systematic), generation,
                         origin, g, len(payload))
    row = coefficients + payload
    return header + row + struct.pack(">I", zlib.crc32(row, zlib.crc32(header)))


def _spread(array, stride):
    """``array``'s values as a view taking every ``stride``-th column of
    a larger matrix."""
    base = np.full((array.shape[0], array.shape[1] * stride), 0xEE, np.uint8)
    base[:, ::stride] = array
    return base[:, ::stride]


class TestOneCodecOnBothBackends:
    # The fixture's patch holds for every example.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(g=st.one_of(st.integers(1, 80), st.sampled_from([8, 64])),
           n=st.one_of(st.integers(0, 1500),
                       st.sampled_from([0, 127, 128, 129, 255, 256, 1024])),
           m=st.integers(1, 3), stride=st.integers(1, 3),
           generation=st.integers(0, 2**32 - 1),
           origin=st.one_of(st.just(-1), st.integers(-(2**31), 2**31 - 1)),
           seed=st.integers(0, 2**31 - 1))
    def test_frames_are_the_reference_frames(self, codec, g, n, m, stride,
                                             generation, origin, seed):
        rng = np.random.default_rng(seed)
        mix = rng.integers(0, 256, (m, g + n), dtype=np.uint8)
        mix[0, :g] = 0
        mix[0, int(rng.integers(0, g))] = 1        # a source packet
        expected = [_reference_encode(generation, origin, row[:g], row[g:])
                    for row in mix]
        view = _spread(mix, stride)
        assert encode_mixture_rows(view, generation, origin, g, b"pre") == [
            b"pre" + frame for frame in expected]
        for row, frame in zip(view, expected):
            packet = CodedPacket.trusted(generation, row[:g], row[g:], origin)
            assert encode_packet(packet) == frame
            decoded = decode_packet(frame)
            assert _packets_equal(decoded, packet)
            assert decoded.coefficients.flags.owndata
            assert decoded.payload.flags.owndata

    def test_bad_frames_fail_alike(self, packet):
        """Corrupted, truncated and over-long frames raise one class with
        one message, whichever backend opens them."""
        frame = encode_packet(packet)
        bad = [frame[:-1], frame + b"\x00", frame[:15], frame[:3]]
        for index in (0, 2, 5, 16, 20, len(frame) - 9, len(frame) - 1):
            flipped = bytearray(frame)
            flipped[index] ^= 0x10
            bad.append(bytes(flipped))
        outcomes = []
        for impl in BACKENDS:
            seen = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(wire, "open_frame", impl.open_frame)
                for candidate in bad:
                    for parse in (decode_packet, decode_packet_from,
                                  read_frame_at):
                        try:
                            result = parse(candidate)
                        except WireFormatError as exc:
                            seen.append((type(exc), str(exc)))
                            continue
                        # read_frame_at waits for the rest of a short
                        # frame, and stops where an over-long one ends.
                        got, end = (result if isinstance(result, tuple)
                                    else (result, None))
                        seen.append((got and encode_packet(got), end))
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1]
        crc = [o for o in outcomes[0] if o[0] is CrcError]
        assert crc and all(m.startswith("CRC mismatch: trailer 0x")
                           for _, m in crc)
