"""Unit tests for coded packets and combination."""

import numpy as np
import pytest

from repro.coding import CodedPacket, SourceBlock, combine
from repro.coding.packet import systematic_row
from repro.gf.tables import MUL


def make_packet(coeffs, payload, generation=0):
    return CodedPacket(
        generation=generation,
        coefficients=np.array(coeffs, dtype=np.uint8),
        payload=np.array(payload, dtype=np.uint8),
    )


class TestCodedPacket:
    def test_sizes(self):
        packet = make_packet([1, 0, 0], [9, 9])
        assert packet.generation_size == 3
        assert packet.payload_size == 2

    def test_header_overhead(self):
        packet = make_packet([1, 0], [0] * 8)
        assert packet.header_overhead == pytest.approx(2 / 10)

    def test_is_systematic(self):
        assert systematic_row(bytes([0, 1, 0, 5]), 3)
        assert not systematic_row(bytes([0, 2, 0, 5]), 3)
        assert not systematic_row(bytes([1, 1, 0, 5]), 3)

    def test_copy_is_deep(self):
        packet = make_packet([1, 2], [3, 4])
        clone = packet.copy()
        clone.coefficients[0] = 99
        clone.payload[0] = 99
        assert packet.coefficients[0] == 1
        assert packet.payload[0] == 3

    def test_wire_size(self):
        packet = make_packet([1, 2, 3], [0] * 10)
        assert packet.wire_size() == 3 + 10 + 8


class TestSourceBlock:
    def test_dimensions(self):
        block = SourceBlock(generation=0, data=np.zeros((4, 8), dtype=np.uint8))
        assert block.generation_size == 4
        assert block.payload_size == 8

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SourceBlock(generation=0, data=np.zeros(8, dtype=np.uint8))


class TestCombine:
    def test_single_packet_scaled(self):
        packet = make_packet([1, 2], [3, 4])
        out = combine([packet], np.array([5], dtype=np.uint8))
        assert np.array_equal(out.coefficients, MUL[5, packet.coefficients])
        assert np.array_equal(out.payload, MUL[5, packet.payload])

    def test_xor_of_two(self):
        a = make_packet([1, 0], [10, 0])
        b = make_packet([0, 1], [0, 20])
        out = combine([a, b], np.array([1, 1], dtype=np.uint8))
        assert np.array_equal(out.coefficients, [1, 1])
        assert np.array_equal(out.payload, [10, 20])

    def test_linearity_consistency(self, rng):
        """Combining source packets must equal coding the source directly."""
        data = rng.integers(0, 256, size=(3, 16), dtype=np.uint8)
        identity = np.eye(3, dtype=np.uint8)
        packets = [CodedPacket(0, identity[i], data[i]) for i in range(3)]
        scalars = rng.integers(0, 256, size=3, dtype=np.uint8)
        out = combine(packets, scalars)
        expected = np.zeros(16, dtype=np.uint8)
        for i, s in enumerate(scalars):
            expected ^= MUL[int(s), data[i]]
        assert np.array_equal(out.payload, expected)
        assert np.array_equal(out.coefficients, scalars)

    def test_generation_mismatch_raises(self):
        a = make_packet([1], [1], generation=0)
        b = make_packet([1], [1], generation=1)
        with pytest.raises(ValueError):
            combine([a, b], np.array([1, 1], dtype=np.uint8))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            combine([], np.array([], dtype=np.uint8))

    def test_scalar_count_mismatch_raises(self):
        packet = make_packet([1], [1])
        with pytest.raises(ValueError):
            combine([packet], np.array([1, 2], dtype=np.uint8))
