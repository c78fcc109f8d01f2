"""Unit tests for the Z_q RLNC codec and the homomorphic hash defence."""

import numpy as np
import pytest

from ext.security import (
    HomomorphicHasher,
    PrimeDecoder,
    PrimeEncoder,
    PrimeRecoder,
    Q,
    VerifiedRelay,
    bytes_to_symbols,
    find_group_modulus,
    generate_params,
    make_jam_packet,
    symbols_to_bytes,
)
from ext.security.homomorphic import _is_prime


@pytest.fixture
def source(rng):
    return rng.integers(0, Q, size=(6, 8))


@pytest.fixture
def encoder(source, rng):
    return PrimeEncoder(source, rng)


class TestPrimeCodec:
    def test_roundtrip(self, source, encoder):
        decoder = PrimeDecoder(6, 8)
        while not decoder.is_complete:
            decoder.push(encoder.emit())
        assert np.array_equal(decoder.recover(), source % Q)

    def test_systematic_packets(self, source, encoder):
        packet = encoder.source_packet(2)
        assert packet.coefficients[2] == 1
        assert np.count_nonzero(packet.coefficients) == 1
        assert np.array_equal(packet.payload, source[2] % Q)

    def test_duplicate_not_innovative(self, encoder):
        decoder = PrimeDecoder(6, 8)
        packet = encoder.emit()
        assert decoder.push(packet)
        assert not decoder.push(packet)

    def test_exactly_g_innovative_needed(self, encoder):
        decoder = PrimeDecoder(6, 8)
        innovative = 0
        while not decoder.is_complete:
            if decoder.push(encoder.emit()):
                innovative += 1
        assert innovative == 6

    def test_recover_early_raises(self, encoder):
        decoder = PrimeDecoder(6, 8)
        decoder.push(encoder.emit())
        with pytest.raises(RuntimeError):
            decoder.recover()

    def test_shape_mismatch_raises(self, encoder):
        decoder = PrimeDecoder(5, 8)
        with pytest.raises(ValueError):
            decoder.push(encoder.emit())

    def test_recoder_chain(self, source, encoder, rng):
        relay = PrimeRecoder(6, 8, rng)
        sink = PrimeDecoder(6, 8)
        guard = 0
        while not sink.is_complete:
            relay.receive(encoder.emit())
            packet = relay.emit()
            if packet is not None:
                sink.push(packet)
            guard += 1
            assert guard < 500
        assert np.array_equal(sink.recover(), source % Q)

    def test_bytes_end_to_end(self, rng):
        content = bytes(rng.integers(0, 256, size=500, dtype=np.uint8))
        symbols = bytes_to_symbols(content, symbols_per_packet=10)
        encoder = PrimeEncoder(symbols, rng)
        decoder = PrimeDecoder(*symbols.shape)
        while not decoder.is_complete:
            decoder.push(encoder.emit())
        assert symbols_to_bytes(decoder.recover(), len(content)) == content


class TestPrimality:
    def test_small_primes(self):
        assert _is_prime(2) and _is_prime(3) and _is_prime(Q)
        assert not _is_prime(1) and not _is_prime(2**31)

    def test_find_group_modulus(self):
        modulus = find_group_modulus()
        assert _is_prime(modulus)
        assert (modulus - 1) % Q == 0


class TestHomomorphicHash:
    @pytest.fixture
    def hasher(self):
        return HomomorphicHasher(generate_params(8, seed=5))

    def test_valid_source_packets_verify(self, source, encoder, hasher):
        hashes = hasher.hash_generation(source)
        for index in range(6):
            assert hasher.verify(encoder.source_packet(index), hashes)

    def test_valid_mixtures_verify(self, source, encoder, hasher):
        hashes = hasher.hash_generation(source)
        for _ in range(10):
            assert hasher.verify(encoder.emit(), hashes)

    def test_recoded_mixtures_verify(self, source, encoder, hasher, rng):
        """The homomorphism survives arbitrary re-mixing depth."""
        hashes = hasher.hash_generation(source)
        relay = PrimeRecoder(6, 8, rng)
        for _ in range(6):
            relay.receive(encoder.emit())
        for _ in range(10):
            assert hasher.verify(relay.emit(), hashes)

    def test_jam_packets_rejected(self, source, hasher, rng):
        hashes = hasher.hash_generation(source)
        for _ in range(10):
            assert not hasher.verify(make_jam_packet(6, 8, rng), hashes)

    def test_single_symbol_tamper_detected(self, source, encoder, hasher):
        hashes = hasher.hash_generation(source)
        packet = encoder.emit()
        packet.payload[3] = (packet.payload[3] + 1) % Q
        assert not hasher.verify(packet, hashes)

    def test_coefficient_tamper_detected(self, source, encoder, hasher):
        hashes = hasher.hash_generation(source)
        packet = encoder.emit()
        packet.coefficients[0] = (packet.coefficients[0] + 1) % Q
        assert not hasher.verify(packet, hashes)

    def test_homomorphism_identity(self, source, hasher, rng):
        """H(a·u + b·v) == H(u)^a · H(v)^b directly."""
        u = rng.integers(0, Q, size=8)
        v = rng.integers(0, Q, size=8)
        a, b = int(rng.integers(1, Q)), int(rng.integers(1, Q))
        mixed = (a * u + b * v) % Q
        lhs = hasher.hash_payload(mixed)
        P = hasher.params.modulus
        rhs = (pow(hasher.hash_payload(u), a, P)
               * pow(hasher.hash_payload(v), b, P)) % P
        assert lhs == rhs

    def test_params_validation(self):
        with pytest.raises(ValueError):
            generate_params(0)


class TestVerifiedRelay:
    def test_jammer_cannot_poison_relay(self, source, encoder, rng):
        hasher = HomomorphicHasher(generate_params(8, seed=6))
        hashes = hasher.hash_generation(source)
        relay = VerifiedRelay(hasher, hashes, 6, 8, rng)
        sink = PrimeDecoder(6, 8)
        guard = 0
        while not sink.is_complete:
            relay.receive(encoder.emit())
            relay.receive(make_jam_packet(6, 8, rng))
            packet = relay.emit()
            if packet is not None:
                assert hasher.verify(packet, hashes)
                sink.push(packet)
            guard += 1
            assert guard < 500
        assert np.array_equal(sink.recover(), source % Q)
        assert relay.stats.rejected == relay.stats.accepted
        assert relay.stats.rejection_rate == pytest.approx(0.5)

    def test_relay_completion_flag(self, source, encoder, rng):
        hasher = HomomorphicHasher(generate_params(8, seed=7))
        hashes = hasher.hash_generation(source)
        relay = VerifiedRelay(hasher, hashes, 6, 8, rng)
        assert not relay.is_complete
        while not relay.is_complete:
            relay.receive(encoder.emit())
