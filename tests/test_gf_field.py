"""Unit tests for scalar/elementwise GF(2^8) arithmetic."""

import numpy as np
import pytest

from repro.gf import field, kernels
from repro.gf.tables import EXP, FIELD_SIZE, GENERATOR, INV, LOG, MUL, PRIMITIVE_POLY


def slow_mul(a: int, b: int) -> int:
    """Bit-by-bit carry-less reference multiplication mod the polynomial."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= PRIMITIVE_POLY
    return result


class TestTables:
    def test_exp_log_roundtrip(self):
        for value in range(1, FIELD_SIZE):
            assert EXP[LOG[value]] == value

    def test_exp_is_periodic(self):
        assert EXP[0] == 1
        assert EXP[FIELD_SIZE - 1] == 1  # g^255 == 1

    def test_generator_is_primitive(self):
        seen = set()
        value = 1
        for _ in range(FIELD_SIZE - 1):
            seen.add(value)
            value = slow_mul(value, GENERATOR)
        assert len(seen) == FIELD_SIZE - 1

    def test_mul_table_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = int(rng.integers(0, FIELD_SIZE))
            b = int(rng.integers(0, FIELD_SIZE))
            assert MUL[a, b] == slow_mul(a, b)

    def test_mul_zero_rows(self):
        assert not MUL[0, :].any()
        assert not MUL[:, 0].any()

    def test_inv_table(self):
        assert INV[0] == 0
        for value in range(1, FIELD_SIZE):
            assert MUL[value, INV[value]] == 1


class TestScalarOps:
    def test_add_is_xor(self):
        assert field.add(0b1010, 0b0110) == 0b1100

    def test_sub_equals_add(self):
        assert field.sub(17, 42) == field.add(17, 42)

    def test_mul_identity(self):
        for value in (0, 1, 7, 255):
            assert field.mul(value, 1) == value

    def test_mul_commutative_sample(self):
        assert field.mul(200, 13) == field.mul(13, 200)

    def test_div_roundtrip(self):
        for a in (1, 5, 91, 254):
            for b in (1, 3, 77, 255):
                assert field.mul(field.div(a, b), b) == a

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field.div(5, 0)

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_power_basics(self):
        assert field.power(0, 0) == 1
        assert field.power(0, 3) == 0
        assert field.power(5, 0) == 1
        assert field.power(5, 1) == 5

    def test_power_matches_repeated_mul(self):
        value = 1
        for exponent in range(1, 20):
            value = field.mul(value, 9)
            assert field.power(9, exponent) == value

    def test_power_negative_is_inverse(self):
        for a in (1, 2, 100, 255):
            assert field.mul(field.power(a, -1), a) == 1

    def test_power_zero_negative_raises(self):
        with pytest.raises(ZeroDivisionError):
            field.power(0, -2)


class TestVectorOps:
    def test_add_arrays(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([3, 2, 1], dtype=np.uint8)
        assert np.array_equal(field.add(a, b), np.array([2, 0, 2], dtype=np.uint8))

    def test_mul_arrays_elementwise(self):
        a = np.array([2, 3], dtype=np.uint8)
        b = np.array([3, 7], dtype=np.uint8)
        expected = np.array([slow_mul(2, 3), slow_mul(3, 7)], dtype=np.uint8)
        assert np.array_equal(field.mul(a, b), expected)

    def test_inv_array_with_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            field.inv(np.array([1, 0], dtype=np.uint8))

    def test_scale_row_zero(self):
        row = np.array([5, 6], dtype=np.uint8)
        assert not kernels.scale_row(row, 0).any()

    def test_scale_row_one_copies(self):
        row = np.array([5, 6], dtype=np.uint8)
        out = kernels.scale_row(row, 1)
        assert np.array_equal(out, row)
        out[0] = 99
        assert row[0] == 5  # a copy, not a view

    def test_scale_row_general(self):
        row = np.array([1, 2, 255], dtype=np.uint8)
        out = kernels.scale_row(row, 7)
        expected = np.array([slow_mul(1, 7), slow_mul(2, 7), slow_mul(255, 7)],
                            dtype=np.uint8)
        assert np.array_equal(out, expected)

    def test_addmul_row_zero_scalar_noop(self):
        dest = np.array([1, 2], dtype=np.uint8)
        kernels.addmul_row(dest, np.array([9, 9], dtype=np.uint8), 0)
        assert np.array_equal(dest, np.array([1, 2], dtype=np.uint8))

    def test_addmul_row_one_is_xor(self):
        dest = np.array([1, 2], dtype=np.uint8)
        kernels.addmul_row(dest, np.array([3, 3], dtype=np.uint8), 1)
        assert np.array_equal(dest, np.array([2, 1], dtype=np.uint8))

    def test_addmul_row_general(self):
        dest = np.array([10, 20], dtype=np.uint8)
        src = np.array([3, 4], dtype=np.uint8)
        expected = dest ^ np.array([slow_mul(3, 5), slow_mul(4, 5)], dtype=np.uint8)
        kernels.addmul_row(dest, src, 5)
        assert np.array_equal(dest, expected)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            field.validate(np.array([256], dtype=np.int16))
        with pytest.raises(ValueError):
            field.validate(np.array([-1], dtype=np.int16))
        field.validate(np.array([0, 255], dtype=np.int16))  # no raise
