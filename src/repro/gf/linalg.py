"""Dense linear algebra over GF(2^8).

Matrices are 2-D numpy ``uint8`` arrays.  Everything here is exact
arithmetic — there is no conditioning concern, only rank structure.  The
work-horses are :func:`rref` (in-place-style reduced row echelon form used
by the RLNC decoder) and :func:`rank`, :func:`solve`, :func:`inverse`,
:func:`random_full_rank` used throughout the coding and erasure-baseline
packages.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .kernels import scale_row
from .tables import FIELD_SIZE, INV, MUL


def _as_matrix(a: np.ndarray) -> np.ndarray:
    matrix = np.asarray(a, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return matrix


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(256).

    Implemented as, for each row of ``a``, an XOR-accumulation of scaled
    rows of ``b``; complexity O(n*m*p) byte operations but each is a
    vectorised numpy op over the trailing dimension.
    """
    a = _as_matrix(a)
    b = _as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        column = a[:, j]
        nonzero = np.nonzero(column)[0]
        if nonzero.size == 0:
            continue
        # out[i] ^= a[i, j] * b[j]  for all i with a[i, j] != 0
        out[nonzero] ^= MUL[column[nonzero][:, None], b[j][None, :]]
    return out


def matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix–vector product over GF(256)."""
    v = np.asarray(v, dtype=np.uint8)
    return matmul(a, v[:, None])[:, 0]


def rref(a: np.ndarray, ncols: Optional[int] = None) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns ``(R, pivots)`` where ``R`` is a new matrix in RREF and
    ``pivots`` lists the pivot column of each nonzero row.  If ``ncols`` is
    given, elimination only chooses pivots among the first ``ncols``
    columns (the remaining columns ride along — this is how an augmented
    ``[coefficients | payload]`` matrix is decoded).
    """
    r = _as_matrix(a).copy()
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
        pivot_value = int(r[row, col])
        if pivot_value != 1:
            r[row] = scale_row(r[row], int(INV[pivot_value]))
        column = r[:, col].copy()
        column[row] = 0
        eliminate = np.nonzero(column)[0]
        if eliminate.size:
            r[eliminate] ^= MUL[column[eliminate][:, None], r[row][None, :]]
        pivots.append(col)
        row += 1
    return r, pivots


def rank(a: np.ndarray) -> int:
    """Rank of a matrix over GF(256)."""
    if np.asarray(a).size == 0:
        return 0
    _, pivots = rref(a)
    return len(pivots)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for square, invertible ``a``.

    ``b`` may be a vector or a matrix of stacked right-hand sides.
    Raises ``np.linalg.LinAlgError`` if ``a`` is singular.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("solve requires a square matrix")
    rhs = np.asarray(b, dtype=np.uint8)
    vector = rhs.ndim == 1
    if vector:
        rhs = rhs[:, None]
    augmented = np.concatenate([a, rhs], axis=1)
    reduced, pivots = rref(augmented, ncols=n)
    if len(pivots) != n:
        raise np.linalg.LinAlgError("matrix is singular over GF(256)")
    solution = reduced[:n, n:]
    return solution[:, 0] if vector else solution


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse over GF(256); raises on singular input."""
    a = _as_matrix(a)
    n = a.shape[0]
    return solve(a, np.eye(n, dtype=np.uint8))


def is_full_rank(a: np.ndarray) -> bool:
    """True if the matrix has full row-or-column rank (the smaller dim)."""
    a = _as_matrix(a)
    return rank(a) == min(a.shape)


def random_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random matrix over GF(256)."""
    return rng.integers(0, FIELD_SIZE, size=(rows, cols), dtype=np.uint8)


def random_full_rank(n: int, rng: np.random.Generator, max_tries: int = 64) -> np.ndarray:
    """Draw a uniformly random invertible n×n matrix by rejection sampling.

    A random matrix over GF(256) is invertible with probability
    ``prod_{i>=1} (1 - 256^-i) > 0.996``, so rejection terminates fast.
    """
    for _ in range(max_tries):
        candidate = random_matrix(n, n, rng)
        if rank(candidate) == n:
            return candidate
    raise RuntimeError("failed to sample an invertible matrix (astronomically unlikely)")


def nullity(a: np.ndarray) -> int:
    """Dimension of the null space (columns minus rank)."""
    a = _as_matrix(a)
    return a.shape[1] - rank(a)


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = alpha_i^j with distinct alpha_i.

    Any ``cols`` rows of a Vandermonde built from distinct evaluation
    points are linearly independent, which makes it an MDS generator used
    by the Reed–Solomon-style erasure baseline.
    """
    from .field import power

    if rows >= FIELD_SIZE:
        raise ValueError("at most 255 distinct nonzero evaluation points exist")
    v = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        alpha = i + 1  # distinct nonzero points
        for j in range(cols):
            v[i, j] = power(alpha, j)
    return v
