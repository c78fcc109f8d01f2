"""Batched GF(2^8) kernels — the single home of every RLNC inner loop.

Everything the decoder, encoder, recoder and dense linear algebra need
reduces to a few primitives over ``uint8`` arrays:

* :func:`addmul_row` — ``dest ^= scalar * src`` (the scalar inner loop);
* :func:`addmul_rows` — the batched outer-product form
  ``dest[i] ^= scalars[i] * src`` for many rows at once;
* :func:`mix_rows` — ``XOR_i scalars[i] * rows[i]``, the random-mixture
  primitive behind encoding and recoding;
* :func:`eliminate` — reduce one row against an RREF basis;
* :func:`combine_rows` — the batched-combination gemm
  ``coeffs (m, n) @ rows (n, width)`` over GF(256), many independent
  mixtures of one basis in one call (the ``emit_batch`` fast path);
  :func:`gemm` is the same product under its linear-algebra name.

and the two per-packet steps of the data plane are one call each:

* :func:`draw_rows` — a matrix of random scalar rows, exactly the rows
  (and the generator state) of one ``Generator.integers`` call per row:
  the coefficient draws of every encoder, recoder and decoder mixture;
* :func:`insert_row` — the decoder's whole progressive Gauss–Jordan
  insertion of one packet into an RREF basis.

This module is a seam over two backends that compute the same bytes:

* **native** — ``_gf256.c``, compiled once per host by :mod:`._native`
  and loaded as a CPython extension.  Multiplication by a constant is
  two 16-entry nibble-table byte shuffles (AVX2 or SSSE3, chosen inside
  the C at load time; a 256-entry table walk elsewhere), accumulated in
  registers across the whole mixture, so no intermediate is ever
  materialised.  Its draws call numpy's own bounded-integer fill on the
  generator's ``bitgen_t``.
* **numpy** — one gather ``MUL_FLAT[a * 256 + b]`` with uint16 flat
  indices (the table has exactly ``2^16`` entries, so ``mode="clip"``
  never clips and bounds handling is skipped) plus one XOR reduction,
  through one set of scratch buffers private to the backend.  It is the
  reference the native backend is property-tested against, and the
  fallback on a host with no C compiler.

The choice is made once, at import: native whenever it loads, numpy
otherwise.  :data:`BACKEND` names it.  There is no switch.

Contract (see ``docs/performance.md``): operands are ``uint8`` arrays of
one or two dimensions with any strides (rows of adjacent bytes take the
SIMD path); ``addmul_*``, ``eliminate``, ``scale_row_inplace`` and
``insert_row`` mutate in place, ``draw_rows`` fills its ``out`` and
advances the generator; results are those of reading every input before
writing any output, so a destination may alias a source.

Nothing in this module knows about packet objects, generations or
overlays — it is a pure array substrate, kept separate so there is
exactly one implementation of each inner loop in the codebase.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _native
from .tables import FIELD_SIZE, INV, MUL

#: Flat (contiguous) view of the 256x256 product table, for flat-index
#: gathers: ``MUL[a, b] == MUL_FLAT[a * 256 + b]``.  Size 65536 == the
#: uint16 range, so uint16 indices can never be out of bounds.
MUL_FLAT = np.ascontiguousarray(MUL.reshape(-1))

#: ``SHIFT8[a] == a << 8`` as uint16 — the row offset of ``a`` in MUL_FLAT.
SHIFT8 = (np.arange(FIELD_SIZE, dtype=np.uint16) << 8)

#: Most ``m * n * width`` product bytes the numpy backend holds at once;
#: larger batches go through in row blocks.
_NUMPY_BLOCK = 1 << 22


class _NumpyBackend:
    """The reference backend: the primitives ``_gf256.c`` exports, in
    numpy.

    Its scratch buffers are its own: each grows monotonically to the
    largest size requested and is then reused, so steady-state calls
    allocate nothing, and each is allocated on first use, so a process
    that computes on the native backend holds none.
    """

    __slots__ = ("_u8", "_u16", "_row")

    def __init__(self) -> None:
        self._u8: Optional[np.ndarray] = None
        self._u16: Optional[np.ndarray] = None
        self._row: Optional[np.ndarray] = None

    def _scratch_u8(self, n: int, width: int) -> np.ndarray:
        """A uint8 scratch of shape ``(n, width)`` (contents undefined)."""
        size = n * width
        if self._u8 is None or self._u8.size < size:
            self._u8 = np.empty(size, dtype=np.uint8)
        return self._u8[:size].reshape(n, width)

    def _scratch_u16(self, n: int, width: int) -> np.ndarray:
        """A uint16 scratch of shape ``(n, width)`` for flat-index gathers."""
        size = n * width
        if self._u16 is None or self._u16.size < size:
            self._u16 = np.empty(size, dtype=np.uint16)
        return self._u16[:size].reshape(n, width)

    def _scratch_vector(self, width: int) -> np.ndarray:
        """A uint8 row scratch, disjoint from the other two."""
        if self._row is None or self._row.size < width:
            self._row = np.empty(width, dtype=np.uint8)
        return self._row[:width]

    def mad(self, out: np.ndarray, coeffs: np.ndarray, rows: np.ndarray) -> None:
        """``out[i] = XOR_j coeffs[i, j] * rows[j]``; 1-D ``out``/``coeffs``
        are the single-mixture form."""
        n, width = rows.shape
        if n == 0:
            out[...] = 0
            return
        if out.ndim == 1:
            out, coeffs = out[None, :], coeffs[None, :]
        m = coeffs.shape[0]
        step = max(1, _NUMPY_BLOCK // max(1, n * width))
        if step < m and (np.may_share_memory(out, rows)
                         or np.may_share_memory(out, coeffs)):
            # Later blocks must not read what earlier blocks wrote.
            rows, coeffs = rows.copy(), coeffs.copy()
        for i0 in range(0, m, step):
            i1 = min(i0 + step, m)
            chunk = i1 - i0
            idx = self._scratch_u16(chunk * n, width).reshape(chunk, n, width)
            np.add(SHIFT8[coeffs[i0:i1]][:, :, None], rows[None, :, :], out=idx)
            prod = self._scratch_u8(chunk * n, width).reshape(chunk, n, width)
            # 1-D take over the contiguous scratch: same gather, less
            # iterator overhead than the 3-D form; uint16 is always in
            # range for the 65536-entry table so "clip" never clips.
            MUL_FLAT.take(idx.reshape(-1), out=prod.reshape(-1), mode="clip")
            np.bitwise_xor.reduce(prod, axis=1, out=out[i0:i1])

    def eliminate(self, row: np.ndarray, basis: np.ndarray,
                  pivot_cols: np.ndarray) -> None:
        if basis.shape[0] == 0:
            return
        scalars = row[pivot_cols]
        if not scalars.any():
            return
        acc = self._scratch_vector(row.shape[0])
        self.mad(acc, scalars, basis)
        np.bitwise_xor(row, acc, out=row)

    def addmul(self, dest: np.ndarray, src: np.ndarray, scalars) -> None:
        """``dest[i] ^= scalars[i] * src``, or one integer for every row."""
        if isinstance(scalars, (int, np.integer)):
            if scalars == 1:
                np.bitwise_xor(dest, src, out=dest)
            elif scalars:
                np.bitwise_xor(dest, MUL[scalars, src], out=dest)
            return
        if dest.shape[0] == 0 or not scalars.any():
            return
        n, width = dest.shape
        idx = self._scratch_u16(n, width)
        np.add(SHIFT8[scalars][:, None], src, out=idx)
        prod = self._scratch_u8(n, width)
        MUL_FLAT.take(idx.reshape(-1), out=prod.reshape(-1), mode="clip")
        np.bitwise_xor(dest, prod, out=dest)

    @staticmethod
    def scale(out: np.ndarray, row: np.ndarray, scalar: int) -> None:
        """``out = scalar * row``; ``out`` may be ``row``."""
        if scalar == 0:
            out[...] = 0
        elif scalar == 1:
            if out is not row:
                np.copyto(out, row)
        else:
            np.take(MUL[scalar], row, out=out)

    def insert_row(self, basis: np.ndarray, pivot_cols: np.ndarray, rank: int,
                   coefficients: np.ndarray, payload: np.ndarray) -> int:
        size, width = basis.shape
        if (pivot_cols.shape != (size,) or coefficients.shape != (size,)
                or payload.shape != (width - size,)):
            raise ValueError("operand shapes do not match")
        if not 0 <= rank < size:
            raise ValueError("rank leaves no free basis row")
        # Read the packet before writing: it may be a view of the basis.
        if np.may_share_memory(coefficients, basis):
            coefficients = coefficients.copy()
        if np.may_share_memory(payload, basis):
            payload = payload.copy()
        row = basis[rank]
        row[:size] = coefficients
        row[size:] = payload
        # Basis rows are zero at every pivot column but their own, so one
        # pass clears the row at every existing pivot; the first nonzero
        # coefficient left is a new pivot.
        self.eliminate(row, basis[:rank], pivot_cols[:rank])
        nonzero = np.flatnonzero(row[:size])
        if nonzero.size == 0:
            return -1
        pivot = int(nonzero[0])
        self.scale(row, row, int(INV[row[pivot]]))
        if rank:
            self.addmul(basis[:rank], row, basis[:rank, pivot].copy())
        pivot_cols[rank] = pivot
        return pivot

    @staticmethod
    def draw_rows(rng: np.random.Generator, out: np.ndarray, low: int) -> int:
        width = out.shape[1]
        for i in range(out.shape[0]):
            out[i] = rng.integers(low, FIELD_SIZE, size=width, dtype=np.uint8)
            if low == 0 and not out[i].any():
                return i + 1
        return out.shape[0]


#: The reference backend (and the oracle in ``tests/test_gf_backends.py``).
NUMPY = _NumpyBackend()

_impl = _native.load() or NUMPY

#: Which backend this process computes on: ``"native-avx2"``,
#: ``"native-ssse3"``, ``"native-portable"`` or ``"numpy"``.
BACKEND = "numpy" if _impl is NUMPY else f"native-{_impl.isa}"


# ----------------------------------------------------------------------
# Public kernels


def addmul_row(dest: np.ndarray, src: np.ndarray, scalar: int) -> None:
    """In-place ``dest ^= scalar * src`` for 1-D uint8 vectors.

    This is the one implementation of the scalar-times-row inner loop.
    """
    _impl.addmul(dest, src, scalar)


def scale_row(row: np.ndarray, scalar: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Return (or write into ``out``) ``scalar * row`` for a uint8 vector."""
    if out is None:
        out = np.empty_like(row)
    _impl.scale(out, row, scalar)
    return out


def scale_row_inplace(row: np.ndarray, scalar: int) -> None:
    """In-place ``row *= scalar`` (used to normalise pivots)."""
    _impl.scale(row, row, scalar)


def addmul_rows(dest: np.ndarray, src: np.ndarray, scalars: np.ndarray) -> None:
    """Batched in-place ``dest[i] ^= scalars[i] * src`` (2-D ``dest``).

    ``src`` is a single row broadcast across every destination row — the
    back-substitution shape: after inserting a new pivot row, every
    existing basis row clears its entry in the new pivot column with one
    call here instead of a Python loop of ``addmul_row``.
    """
    _impl.addmul(dest, src, scalars)


def mix_rows(scalars: np.ndarray, rows: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """``XOR_i scalars[i] * rows[i]`` — the mixture primitive.

    ``rows`` is ``(n, width)`` uint8, ``scalars`` is ``(n,)`` uint8; the
    result is a ``(width,)`` vector, written into ``out`` when given.
    Zero scalars contribute nothing (``MUL[0, x] == 0``) so callers never
    pre-filter; no rows at all mix to zero.
    """
    if out is None:
        out = np.empty(rows.shape[1], dtype=np.uint8)
    _impl.mad(out, scalars, rows)
    return out


def eliminate(row: np.ndarray, basis: np.ndarray, pivot_cols: np.ndarray) -> None:
    """Clear every existing pivot of ``row`` against an RREF basis, in place.

    ``basis`` is ``(r, width)`` with row ``i`` having a unit pivot at
    column ``pivot_cols[i]`` (an ``intp`` vector) and zeros at every
    *other* basis pivot (the invariant the progressive decoder
    maintains).  Because of that invariant, the row's values at the pivot
    columns are the exact multipliers of the basis rows, and one mixture
    of the basis XORed into the row fully reduces it — one kernel call
    where the seed implementation ran a per-column Python loop.
    """
    _impl.eliminate(row, basis, pivot_cols)


def combine_rows(coeffs: np.ndarray, rows: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched-combination gemm: ``out[i] = XOR_j coeffs[i, j] * rows[j]``.

    The many-mixtures form of :func:`mix_rows` — a GF(256) matrix–matrix
    product ``coeffs (m, n) @ rows (n, width) -> (m, width)``, so ``m``
    mixtures cost one kernel call instead of ``m`` of them.
    Bit-identical to ``m`` separate ``mix_rows`` calls: GF arithmetic is
    exact, only the batching changes.
    """
    coeffs = np.asarray(coeffs, dtype=np.uint8)
    if coeffs.ndim != 2 or rows.ndim != 2:
        raise ValueError("combine_rows expects 2-D coeffs and rows")
    if coeffs.shape[1] != rows.shape[0]:
        raise ValueError(f"shape mismatch {coeffs.shape} @ {rows.shape}")
    if out is None:
        out = np.empty((coeffs.shape[0], rows.shape[1]), dtype=np.uint8)
    _impl.mad(out, coeffs, rows)
    return out


def draw_rows(rng: np.random.Generator, out: np.ndarray, low: int) -> int:
    """Fill ``out`` with random field elements in ``[low, 256)``, one row
    per ``rng.integers`` call; returns the number of rows filled.

    Row ``i`` of the ``(n, width)`` uint8 matrix ``out`` (rows of
    adjacent bytes) is what the ``i``-th of ``n`` sequential
    ``rng.integers(low, 256, size=width, dtype=np.uint8)`` calls returns,
    and ``rng`` is left where those calls leave it, on either backend.
    With ``low=0`` the fill stops after the first all-zero row, so a
    caller that must replace a zero vector draws its fix-up exactly
    where a per-row loop would.
    """
    return _impl.draw_rows(rng, out, low)


def insert_row(basis: np.ndarray, pivot_cols: np.ndarray, rank: int,
               coefficients: np.ndarray, payload: np.ndarray) -> int:
    """Insert one packet into a progressive-decoder basis; returns its
    pivot column, or -1 if the packet is not innovative.

    ``basis`` is ``(size, size + payload_size)``; rows ``[:rank]`` are in
    RREF with unit pivots at ``pivot_cols[:rank]`` (an ``intp`` vector of
    ``size``).  The packet ``[coefficients | payload]`` is written into
    the free row ``rank`` and reduced (:func:`eliminate`); if a
    coefficient survives, the first one becomes the new pivot: the row
    is normalised, back-substituted into rows ``[:rank]``
    (:func:`addmul_rows`) and ``pivot_cols[rank]`` is set.  A packet that
    is not innovative writes nothing but the free row.  Shapes that do
    not match, or a ``rank`` with no free row, raise ``ValueError``
    before anything is written.
    """
    return _impl.insert_row(basis, pivot_cols, rank, coefficients, payload)


def gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix–matrix product over GF(256), ``out[i, k] = XOR_j a[i, j] * b[j, k]``:
    :func:`combine_rows` for callers holding plain matrices."""
    return combine_rows(a, np.asarray(b, dtype=np.uint8))
