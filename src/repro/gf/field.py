"""Scalar and vectorised element-wise arithmetic in GF(2^8).

These functions accept plain Python integers or numpy arrays of ``uint8``
and return the same shape.  Addition in a characteristic-2 field is XOR;
multiplication and inversion are table lookups against the tables built in
:mod:`repro.gf.tables`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .tables import EXP, FIELD_SIZE, INV, LOG, MUL

Element = Union[int, np.ndarray]


def validate(a: Element) -> None:
    """Raise ``ValueError`` if ``a`` contains values outside the field."""
    arr = np.asarray(a)
    if arr.size and (arr.min() < 0 or arr.max() >= FIELD_SIZE):
        raise ValueError(f"value out of GF({FIELD_SIZE}) range")


def add(a: Element, b: Element) -> Element:
    """Field addition (XOR). Works element-wise on arrays."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) ^ int(b)
    return np.bitwise_xor(a, b)


# Subtraction equals addition in characteristic 2.
sub = add


def mul(a: Element, b: Element) -> Element:
    """Field multiplication via the 64 KiB lookup table."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(MUL[int(a), int(b)])
    return MUL[a, b]


def inv(a: Element) -> Element:
    """Multiplicative inverse.  Raises ``ZeroDivisionError`` for scalar 0."""
    if isinstance(a, (int, np.integer)):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(INV[int(a)])
    if np.any(np.asarray(a) == 0):
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return INV[a]


def div(a: Element, b: Element) -> Element:
    """Field division ``a / b``.  Division by zero raises."""
    return mul(a, inv(b))


def power(a: int, n: int) -> int:
    """Raise scalar ``a`` to the integer power ``n`` (``n`` may be negative)."""
    if a == 0:
        if n == 0:
            return 1
        if n < 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return 0
    exponent = (int(LOG[a]) * n) % (FIELD_SIZE - 1)
    return int(EXP[exponent])
