"""Property-based tests of the RLNC codec: decode correctness is invariant
to packet ordering, loss, re-mixing depth and generation geometry."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import (
    CodedPacket,
    Decoder,
    GenerationParams,
    Recoder,
    SourceEncoder,
)


@settings(max_examples=25, deadline=None)
@given(
    generation_size=st.integers(min_value=1, max_value=10),
    payload_size=st.integers(min_value=1, max_value=40),
    content_len=st.integers(min_value=0, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_roundtrip_any_geometry(generation_size, payload_size, content_len, seed):
    """Random geometry, random content: encode → decode must round-trip."""
    rng = np.random.default_rng(seed)
    params = GenerationParams(generation_size=generation_size, payload_size=payload_size)
    content = bytes(rng.integers(0, 256, size=content_len, dtype=np.uint8))
    encoder = SourceEncoder(content, params, rng)
    decoder = Decoder(params, encoder.generation_count)
    guard = 0
    while not decoder.is_complete:
        decoder.push(encoder.emit())
        guard += 1
        assert guard < 20_000
    assert decoder.recover(len(content)) == content


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chain_length=st.integers(min_value=1, max_value=6),
)
def test_recoding_chain_preserves_decodability(seed, chain_length):
    """A pipeline of recoders of any depth still delivers the content."""
    rng = np.random.default_rng(seed)
    params = GenerationParams(generation_size=5, payload_size=16)
    content = bytes(rng.integers(0, 256, size=100, dtype=np.uint8))
    encoder = SourceEncoder(content, params, rng)
    chain = [
        Recoder(params, encoder.generation_count, np.random.default_rng(seed + i), i)
        for i in range(chain_length)
    ]
    decoder = Decoder(params, encoder.generation_count)
    guard = 0
    while not decoder.is_complete:
        packet = encoder.emit()
        for hop in chain:
            hop.receive(packet)
            packet = hop.emit(packet.generation)
            assert packet is not None
        decoder.push(packet)
        guard += 1
        assert guard < 20_000
    assert decoder.recover(len(content)) == content


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    drop_pattern=st.lists(st.booleans(), min_size=0, max_size=60),
)
def test_loss_only_delays_never_corrupts(seed, drop_pattern):
    """Arbitrary packet loss patterns cannot corrupt the decoded output."""
    rng = np.random.default_rng(seed)
    params = GenerationParams(generation_size=4, payload_size=12)
    content = bytes(rng.integers(0, 256, size=60, dtype=np.uint8))
    encoder = SourceEncoder(content, params, rng)
    decoder = Decoder(params, encoder.generation_count)
    for drop in drop_pattern:
        packet = encoder.emit()
        if not drop:
            decoder.push(packet)
    # top up until complete, then verify
    guard = 0
    while not decoder.is_complete:
        decoder.push(encoder.emit())
        guard += 1
        assert guard < 20_000
    assert decoder.recover(len(content)) == content


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_rank_never_decreases_and_caps(seed):
    rng = np.random.default_rng(seed)
    params = GenerationParams(generation_size=6, payload_size=8)
    content = bytes(rng.integers(0, 256, size=48, dtype=np.uint8))
    encoder = SourceEncoder(content, params, rng)
    decoder = Decoder(params, encoder.generation_count)
    last = 0
    for _ in range(30):
        decoder.push(encoder.emit())
        rank = decoder.total_rank
        assert rank >= last
        assert rank <= decoder.total_dof
        last = rank


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_systematic_and_coded_agree(seed):
    """The unmixed originals and pure-random emission decode identical
    content."""
    rng = np.random.default_rng(seed)
    params = GenerationParams(generation_size=4, payload_size=8)
    content = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
    encoder = SourceEncoder(content, params, np.random.default_rng(seed))
    systematic = Decoder(params, encoder.generation_count)
    identity = np.eye(params.generation_size, dtype=np.uint8)
    for block in encoder.blocks:
        for row, data in zip(identity, block.data):
            systematic.push(CodedPacket(block.generation, row, data))
    assert systematic.recover(len(content)) == content
    decoder = Decoder(params, encoder.generation_count)
    guard = 0
    while not decoder.is_complete:
        decoder.push(encoder.emit())
        guard += 1
        assert guard < 20_000
    assert decoder.recover(len(content)) == content
