"""Fuzz tests: hostile inputs must raise cleanly, never corrupt state.

A deployed peer parses frames from untrusted senders and feeds packets
into its decoder; none of that may crash the process or poison internal
state with exceptions other than the documented ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.security import HomomorphicHasher, generate_params
from ext.security.codec import PrimePacket
from repro.coding import CodedPacket, Decoder, GenerationParams
from repro.coding.wire import WireFormatError, decode_packet, encode_packet


class TestWireFuzz:
    @settings(max_examples=200)
    @given(frame=st.binary(min_size=0, max_size=200))
    def test_random_bytes_never_crash(self, frame):
        """Arbitrary bytes either parse or raise WireFormatError."""
        try:
            packet = decode_packet(frame)
        except WireFormatError:
            return
        # if it parsed, it must re-encode to the same bytes
        assert frame == encode_packet(packet)

    @settings(max_examples=100)
    @given(
        flip=st.integers(min_value=0, max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bitflipped_frames_parse_or_raise(self, flip, seed):
        """Single corrupted bytes in a valid frame never crash the parser."""
        rng = np.random.default_rng(seed)
        packet = CodedPacket(
            generation=int(rng.integers(0, 100)),
            coefficients=rng.integers(0, 256, size=6, dtype=np.uint8),
            payload=rng.integers(0, 256, size=20, dtype=np.uint8),
        )
        frame = bytearray(encode_packet(packet))
        frame[flip % len(frame)] ^= 1 + (flip % 255)
        try:
            decode_packet(bytes(frame))
        except WireFormatError:
            pass


class TestDecoderFuzz:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=1, max_value=40),
    )
    def test_arbitrary_packets_never_corrupt_rank(self, seed, count):
        """Any stream of well-formed packets keeps 0 <= rank <= g and
        never makes push() raise."""
        rng = np.random.default_rng(seed)
        params = GenerationParams(generation_size=5, payload_size=9)
        decoder = Decoder(params, 2)
        for _ in range(count):
            packet = CodedPacket(
                generation=int(rng.integers(0, 2)),
                coefficients=rng.integers(0, 256, size=5, dtype=np.uint8),
                payload=rng.integers(0, 256, size=9, dtype=np.uint8),
            )
            decoder.push(packet)
            assert 0 <= decoder.total_rank <= decoder.total_dof

    def test_mismatched_sizes_rejected(self):
        """A packet of the wrong shape raises and leaves the decoder as it
        was: the insertion writes into the free basis row, so a rejection
        must happen before anything moves."""
        params = GenerationParams(generation_size=4, payload_size=8)
        decoder = Decoder(params, 1)
        generation = decoder.generations[0]
        rng = np.random.default_rng(5)
        for _ in range(2):
            decoder.push(CodedPacket(
                generation=0,
                coefficients=rng.integers(1, 256, size=4, dtype=np.uint8),
                payload=rng.integers(0, 256, size=8, dtype=np.uint8),
            ))
        assert generation.rank == 2

        def basis():
            return [(p.coefficients.tobytes(), p.payload.tobytes())
                    for p in map(generation.basis_packet, range(generation.rank))]

        before = basis()
        for g, payload_size in ((5, 8), (4, 7), (4, 9)):  # wrong g; one byte short, long
            bad = CodedPacket(
                generation=0,
                coefficients=np.ones(g, dtype=np.uint8),
                payload=np.full(payload_size, 7, dtype=np.uint8),
            )
            with pytest.raises(ValueError):
                decoder.push(bad)
            assert generation.rank == 2
            assert basis() == before


class TestHashFuzz:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_packets_never_verify(self, seed):
        """Forging a verifying packet by chance must not happen (the
        demo group is small but still 2^31-sized)."""
        rng = np.random.default_rng(seed)
        hasher = HomomorphicHasher(generate_params(4, seed=1))
        source = rng.integers(0, 2**31 - 1, size=(3, 4))
        hashes = hasher.hash_generation(source)
        packet = PrimePacket(
            coefficients=rng.integers(0, 2**31 - 1, size=3),
            payload=rng.integers(0, 2**31 - 1, size=4),
        )
        assert not hasher.verify(packet, hashes)
