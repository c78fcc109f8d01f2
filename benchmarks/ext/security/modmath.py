"""Arithmetic over the prime field Z_q, q = 2³¹ − 1 (Mersenne M31).

The §7 jamming defence needs *homomorphic* hashes, and the classic
construction (Krohn–Freedman–Mazières, Oakland 2004) hashes vectors over
a prime field — exponents live in Z_q, so the network code itself must
run over Z_q rather than GF(2⁸).  This module is the Z_q substrate:
vectorised numpy arithmetic (int64 products of two sub-2³¹ values never
overflow), modular inverses via Fermat, and Gaussian elimination.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: The field modulus: the Mersenne prime 2^31 - 1.
Q = (1 << 31) - 1


def as_field(a) -> np.ndarray:
    """Coerce to an int64 array reduced mod Q."""
    return np.asarray(a, dtype=np.int64) % Q


def add_mod(a, b) -> np.ndarray:
    """Element-wise addition in Z_q."""
    return (as_field(a) + as_field(b)) % Q


def sub_mod(a, b) -> np.ndarray:
    """Element-wise subtraction in Z_q."""
    return (as_field(a) - as_field(b)) % Q


def mul_mod(a, b) -> np.ndarray:
    """Element-wise product in Z_q (int64-safe: operands < 2^31)."""
    return (as_field(a) * as_field(b)) % Q


def inv_mod(a: int) -> int:
    """Multiplicative inverse of a scalar (Fermat); raises on zero."""
    a = int(a) % Q
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in Z_q")
    return pow(a, Q - 2, Q)


def matmul_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over Z_q.

    Accumulated per output row with running reduction so intermediate
    sums stay within int64.
    """
    a = as_field(a)
    b = as_field(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for j in range(a.shape[1]):
        out = (out + a[:, j][:, None] * b[j][None, :]) % Q
    return out


def rref_mod(a: np.ndarray, ncols: Optional[int] = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_q; returns (R, pivot columns)."""
    r = as_field(a).copy()
    rows, cols = r.shape
    pivot_limit = cols if ncols is None else min(ncols, cols)
    pivots: list[int] = []
    row = 0
    for col in range(pivot_limit):
        if row >= rows:
            break
        pivot_row = None
        for candidate in range(row, rows):
            if r[candidate, col]:
                pivot_row = candidate
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            r[[row, pivot_row]] = r[[pivot_row, row]]
        r[row] = (r[row] * inv_mod(int(r[row, col]))) % Q
        column = r[:, col].copy()
        column[row] = 0
        eliminate = np.nonzero(column)[0]
        if eliminate.size:
            r[eliminate] = (r[eliminate] - column[eliminate][:, None] * r[row][None, :]) % Q
        pivots.append(col)
        row += 1
    return r, pivots


def rank_mod(a: np.ndarray) -> int:
    """Rank of a matrix over Z_q."""
    if np.asarray(a).size == 0:
        return 0
    _, pivots = rref_mod(np.asarray(a))
    return len(pivots)


def solve_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` over Z_q for invertible square ``a``."""
    a = as_field(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("solve requires a square matrix")
    rhs = as_field(b)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    augmented = np.concatenate([a, rhs], axis=1)
    reduced, pivots = rref_mod(augmented, ncols=n)
    if len(pivots) != n:
        raise np.linalg.LinAlgError("matrix is singular over Z_q")
    solution = reduced[:n, n:]
    return solution[:, 0] if vector else solution


# ----------------------------------------------------------------------
# Bytes <-> symbol packing (3 bytes per symbol, every value < Q)


def bytes_to_symbols(data: bytes, symbols_per_packet: int) -> np.ndarray:
    """Pack bytes into Z_q symbols, 3 bytes each, zero-padded.

    Returns a ``(packets, symbols_per_packet)`` int64 matrix.
    """
    if symbols_per_packet < 1:
        raise ValueError("symbols_per_packet must be >= 1")
    triples = (len(data) + 2) // 3
    packets = max(1, -(-triples // symbols_per_packet))
    padded = np.zeros(packets * symbols_per_packet * 3, dtype=np.uint8)
    if data:
        padded[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    grouped = padded.reshape(-1, 3).astype(np.int64)
    symbols = grouped[:, 0] << 16 | grouped[:, 1] << 8 | grouped[:, 2]
    return symbols.reshape(packets, symbols_per_packet)


def symbols_to_bytes(symbols: np.ndarray, length: int) -> bytes:
    """Inverse of :func:`bytes_to_symbols` (truncated to ``length``)."""
    flat = np.asarray(symbols, dtype=np.int64).reshape(-1)
    out = np.zeros(flat.size * 3, dtype=np.uint8)
    out[0::3] = (flat >> 16) & 0xFF
    out[1::3] = (flat >> 8) & 0xFF
    out[2::3] = flat & 0xFF
    if length > out.size:
        raise ValueError("length exceeds decoded data")
    return out[:length].tobytes()
