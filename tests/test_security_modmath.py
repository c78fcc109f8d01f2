"""Unit tests for Z_q arithmetic and byte/symbol packing."""

import numpy as np
import pytest

from ext.security.modmath import (
    Q,
    add_mod,
    bytes_to_symbols,
    inv_mod,
    matmul_mod,
    mul_mod,
    rank_mod,
    rref_mod,
    solve_mod,
    sub_mod,
    symbols_to_bytes,
)


class TestScalarOps:
    def test_q_is_mersenne_prime(self):
        assert Q == 2**31 - 1

    def test_add_sub_roundtrip(self, rng):
        a = rng.integers(0, Q, size=20)
        b = rng.integers(0, Q, size=20)
        assert np.array_equal(sub_mod(add_mod(a, b), b), a % Q)

    def test_mul_no_overflow_at_extremes(self):
        assert mul_mod(Q - 1, Q - 1) == pow(Q - 1, 2, Q)

    def test_inv_mod(self, rng):
        for _ in range(20):
            a = int(rng.integers(1, Q))
            assert (a * inv_mod(a)) % Q == 1

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            inv_mod(0)


class TestLinalg:
    def test_matmul_identity(self, rng):
        a = rng.integers(0, Q, size=(4, 4))
        eye = np.eye(4, dtype=np.int64)
        assert np.array_equal(matmul_mod(a, eye), a % Q)

    def test_matmul_shape_check(self, rng):
        with pytest.raises(ValueError):
            matmul_mod(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rref_pivots_unit(self, rng):
        a = rng.integers(0, Q, size=(4, 6))
        reduced, pivots = rref_mod(a)
        for row, col in enumerate(pivots):
            column = reduced[:, col]
            assert column[row] == 1
            assert np.count_nonzero(column) == 1

    def test_rank_random_full(self, rng):
        a = rng.integers(0, Q, size=(5, 5))
        assert rank_mod(a) == 5  # random matrices mod a 2^31 prime: a.s. full

    def test_rank_duplicates(self, rng):
        row = rng.integers(0, Q, size=6)
        assert rank_mod(np.stack([row, row])) == 1

    def test_solve_roundtrip(self, rng):
        a = rng.integers(0, Q, size=(5, 5))
        x = rng.integers(0, Q, size=5)
        b = matmul_mod(a, x[:, None])[:, 0]
        assert np.array_equal(solve_mod(a, b), x)

    def test_solve_singular_raises(self):
        singular = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(np.linalg.LinAlgError):
            solve_mod(singular, np.ones(2, dtype=np.int64))


class TestPacking:
    def test_roundtrip(self, rng):
        data = bytes(rng.integers(0, 256, size=200, dtype=np.uint8))
        symbols = bytes_to_symbols(data, symbols_per_packet=8)
        assert symbols.shape[1] == 8
        assert symbols.max() < Q
        assert symbols_to_bytes(symbols, len(data)) == data

    def test_empty(self):
        symbols = bytes_to_symbols(b"", symbols_per_packet=4)
        assert symbols.shape == (1, 4)
        assert symbols_to_bytes(symbols, 0) == b""

    def test_symbols_fit_24_bits(self, rng):
        data = bytes([255] * 30)
        symbols = bytes_to_symbols(data, symbols_per_packet=5)
        assert symbols.max() == 0xFFFFFF

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            bytes_to_symbols(b"abc", symbols_per_packet=0)
        with pytest.raises(ValueError):
            symbols_to_bytes(np.zeros((1, 2), dtype=np.int64), 100)
