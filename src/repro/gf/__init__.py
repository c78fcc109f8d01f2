"""Finite-field arithmetic over GF(2^8) — the substrate for network coding.

Public API:

* :mod:`repro.gf.field` — scalar/vector element arithmetic (``add``,
  ``mul``, ``inv``, ``div``, ``power``).
* :mod:`repro.gf.kernels` — batched hot-path kernels (``addmul_row``,
  ``addmul_rows``, ``mix_rows``, ``eliminate``, ``gemm``), a seam over
  the compiled ``_gf256.c`` backend and its numpy reference.
* :mod:`repro.gf.linalg` — dense matrix algebra (``matmul``, ``rref``,
  ``rank``, ``solve``, ``inverse``, ``vandermonde``).
"""

from .field import add, div, inv, mul, power, sub
from .kernels import addmul_row, addmul_rows, eliminate, gemm, mix_rows, scale_row
from .linalg import (
    inverse,
    is_full_rank,
    matmul,
    matvec,
    nullity,
    rank,
    random_full_rank,
    random_matrix,
    rref,
    solve,
    vandermonde,
)
from .tables import FIELD_SIZE, GENERATOR, PRIMITIVE_POLY

__all__ = [
    "FIELD_SIZE",
    "GENERATOR",
    "PRIMITIVE_POLY",
    "add",
    "addmul_row",
    "addmul_rows",
    "div",
    "eliminate",
    "gemm",
    "mix_rows",
    "inv",
    "inverse",
    "is_full_rank",
    "matmul",
    "matvec",
    "mul",
    "nullity",
    "power",
    "random_full_rank",
    "random_matrix",
    "rank",
    "rref",
    "scale_row",
    "solve",
    "sub",
    "vandermonde",
]
