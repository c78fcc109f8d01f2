"""Property-based tests for Z_q arithmetic and the hash homomorphism."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ext.security import HomomorphicHasher, generate_params
from ext.security.modmath import (
    Q,
    add_mod,
    bytes_to_symbols,
    inv_mod,
    mul_mod,
    rank_mod,
    rref_mod,
    symbols_to_bytes,
)

elements = st.integers(min_value=0, max_value=Q - 1)
nonzero = st.integers(min_value=1, max_value=Q - 1)


class TestFieldAxioms:
    @given(elements, elements, elements)
    def test_distributivity(self, a, b, c):
        left = mul_mod(a, add_mod(b, c))
        right = add_mod(mul_mod(a, b), mul_mod(a, c))
        assert int(left) == int(right)

    @given(nonzero)
    def test_inverse(self, a):
        assert (a * inv_mod(a)) % Q == 1

    @given(elements, elements)
    def test_commutativity(self, a, b):
        assert int(mul_mod(a, b)) == int(mul_mod(b, a))
        assert int(add_mod(a, b)) == int(add_mod(b, a))


class TestPackingProperties:
    @settings(max_examples=50)
    @given(data=st.binary(min_size=0, max_size=300),
           symbols=st.integers(min_value=1, max_value=12))
    def test_roundtrip_any_content(self, data, symbols):
        packed = bytes_to_symbols(data, symbols)
        assert symbols_to_bytes(packed, len(data)) == data


class TestLinalgProperties:
    @settings(max_examples=30)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           rows=st.integers(min_value=1, max_value=6),
           cols=st.integers(min_value=1, max_value=6))
    def test_rref_idempotent(self, seed, rows, cols):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, Q, size=(rows, cols))
        reduced, pivots = rref_mod(a)
        again, pivots2 = rref_mod(reduced)
        assert np.array_equal(reduced, again)
        assert pivots == pivots2

    @settings(max_examples=30)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           rows=st.integers(min_value=1, max_value=5))
    def test_rank_bounds(self, seed, rows):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, Q, size=(rows, 4))
        assert 0 <= rank_mod(a) <= min(rows, 4)


class TestHomomorphismProperty:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_hash_linear_in_exponent(self, seed):
        """H(a·u + b·v) = H(u)^a·H(v)^b for random vectors and scalars."""
        rng = np.random.default_rng(seed)
        hasher = HomomorphicHasher(generate_params(5, seed=2))
        P = hasher.params.modulus
        u = rng.integers(0, Q, size=5)
        v = rng.integers(0, Q, size=5)
        a, b = int(rng.integers(0, Q)), int(rng.integers(0, Q))
        mixed = (a * u + b * v) % Q
        lhs = hasher.hash_payload(mixed)
        rhs = (pow(hasher.hash_payload(u), a, P)
               * pow(hasher.hash_payload(v), b, P)) % P
        assert lhs == rhs
