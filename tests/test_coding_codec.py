"""Unit tests for the encoder, decoder and recoder."""

import numpy as np
import pytest

from repro.coding import (
    Decoder,
    GenerationParams,
    Recoder,
    SourceEncoder,
)

PARAMS = GenerationParams(generation_size=6, payload_size=24)


@pytest.fixture
def content(rng):
    return bytes(rng.integers(0, 256, size=300, dtype=np.uint8))


@pytest.fixture
def encoder(content, rng):
    return SourceEncoder(content, PARAMS, rng)


class TestEncoder:
    def test_generation_count(self, encoder, content):
        assert encoder.generation_count == PARAMS.generations_for(len(content))

    def test_emit_has_right_shape(self, encoder):
        packet = encoder.emit(0)
        assert packet.generation == 0
        assert packet.generation_size == PARAMS.generation_size
        assert packet.payload_size == PARAMS.payload_size

    def test_emit_never_zero(self, encoder):
        for _ in range(100):
            assert encoder.emit().coefficients.any()

    def test_payload_consistent_with_coefficients(self, encoder):
        """Emitted payload must equal coefficients applied to the block."""
        from repro.gf.tables import MUL

        packet = encoder.emit(0)
        block = encoder.blocks[0]
        expected = np.zeros(PARAMS.payload_size, dtype=np.uint8)
        for i, c in enumerate(packet.coefficients):
            if c:
                expected ^= MUL[int(c), block.data[i]]
        assert np.array_equal(packet.payload, expected)


class TestDecoder:
    def test_decodes_from_encoder(self, encoder, content, rng):
        decoder = Decoder(PARAMS, encoder.generation_count)
        while not decoder.is_complete:
            decoder.push(encoder.emit())
        assert decoder.recover(len(content)) == content

    def test_needs_exactly_generation_size_innovative(self, encoder):
        gdec = Decoder(PARAMS, encoder.generation_count).generations[0]
        innovative = 0
        while not gdec.is_complete:
            if gdec.push(encoder.emit(0)):
                innovative += 1
        assert innovative == PARAMS.generation_size
        assert gdec.rank == PARAMS.generation_size

    def test_duplicate_packet_not_innovative(self, encoder):
        decoder = Decoder(PARAMS, encoder.generation_count)
        packet = encoder.emit(0)
        assert decoder.push(packet)
        assert not decoder.push(packet.copy())

    def test_zero_packet_not_innovative(self, encoder):
        decoder = Decoder(PARAMS, encoder.generation_count)
        packet = encoder.emit(0)
        packet.coefficients[:] = 0
        packet.payload[:] = 0
        assert not decoder.push(packet)

    def test_wrong_generation_raises(self, encoder):
        gdec = Decoder(PARAMS, encoder.generation_count).generations[0]
        packet = encoder.emit(0)
        packet.generation = 1
        with pytest.raises(ValueError):
            gdec.push(packet)

    def test_unknown_generation_raises(self, encoder):
        decoder = Decoder(PARAMS, encoder.generation_count)
        packet = encoder.emit(0)
        packet.generation = 999
        with pytest.raises(ValueError):
            decoder.push(packet)

    def test_decoded_block_before_complete_raises(self, encoder):
        gdec = Decoder(PARAMS, encoder.generation_count).generations[0]
        gdec.push(encoder.emit(0))
        with pytest.raises(RuntimeError):
            gdec.decoded_block()

    def test_progress_monotone(self, encoder):
        decoder = Decoder(PARAMS, encoder.generation_count)
        last = 0.0
        for _ in range(40):
            decoder.push(encoder.emit())
            progress = decoder.progress()
            assert progress >= last
            last = progress
        assert 0.0 <= last <= 1.0

    def test_invalid_generation_count(self):
        with pytest.raises(ValueError):
            Decoder(PARAMS, 0)


class TestRecoder:
    def test_recoded_packets_decode(self, encoder, content, rng):
        """Decoding exclusively from a middlebox recoder must still work."""
        recoder = Recoder(PARAMS, encoder.generation_count, rng, node_id=1)
        decoder = Decoder(PARAMS, encoder.generation_count)
        guard = 0
        while not decoder.is_complete:
            recoder.receive(encoder.emit())
            packet = recoder.emit()
            if packet is not None:
                decoder.push(packet)
            guard += 1
            assert guard < 5000
        assert decoder.recover(len(content)) == content

    def test_empty_recoder_emits_none(self, rng):
        recoder = Recoder(PARAMS, 2, rng)
        assert recoder.emit() is None
        assert recoder.emit_trivial() is None

    def test_emit_stamps_origin(self, encoder, rng):
        recoder = Recoder(PARAMS, encoder.generation_count, rng, node_id=42)
        recoder.receive(encoder.emit(0))
        packet = recoder.emit(0)
        assert packet.origin == 42

    def test_recoder_never_exceeds_source_rank(self, encoder, rng):
        """Mixing cannot create information: downstream rank <= upstream."""
        recoder = Recoder(PARAMS, encoder.generation_count, rng)
        for _ in range(3):
            recoder.receive(encoder.emit(0))
        sink = Recoder(PARAMS, encoder.generation_count, rng)
        for _ in range(50):
            packet = recoder.emit(0)
            sink.receive(packet)
        assert sink.rank(0) <= recoder.rank(0)

    def test_trivial_emission_is_replay(self, encoder, rng):
        recoder = Recoder(PARAMS, encoder.generation_count, rng, node_id=3)
        recoder.receive(encoder.emit(0))
        first = recoder.emit_trivial()
        second = recoder.emit_trivial()
        assert np.array_equal(first.coefficients, second.coefficients)

    def test_pick_generation_prefers_incomplete(self, content, rng):
        encoder = SourceEncoder(content, PARAMS, rng)
        assert encoder.generation_count >= 2
        recoder = Recoder(PARAMS, encoder.generation_count, rng)
        # Fill generation 0 completely, give generation 1 a single packet.
        while not recoder.decoder.generations[0].is_complete:
            recoder.receive(encoder.emit(0))
        recoder.receive(encoder.emit(1))
        packet = recoder.emit()
        assert packet.generation == 1
