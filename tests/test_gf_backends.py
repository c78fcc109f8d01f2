"""The native GF(2^8) backend computes the bytes the numpy reference does.

Every public kernel is run twice on operands built the same way — once
on ``_gf256.c``, once on :data:`repro.gf.kernels.NUMPY` — and everything
it could have touched is compared: the return value, the operands, and
the whole allocation each operand is a view of (so a write outside the
view fails the comparison too).  Shapes cover what the engines produce
(ranks 0..64; widths with every SIMD tail length; a basis prefix
``rows[:rank]``, the column slices ``combined[:, :size]``, one row of a
larger matrix) and what they do not (strided and reversed views,
destinations that alias sources).

Skipped only on a host with no C compiler; with one, a backend that
failed to build fails here.
"""

import contextlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf import kernels

pytestmark = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler: numpy is the only backend"
)

NATIVE = kernels._impl

#: 1..70 crosses every remainder of the 16-, 32-, 64- and 128-byte SIMD
#: steps; 72 / 1024 / 1088 are the live and bulk row widths.
WIDTHS = [*range(1, 71), 72, 1024, 1088]

widths = st.sampled_from(WIDTHS)
ranks = st.integers(min_value=0, max_value=64)
seeds = st.integers(min_value=0, max_value=2**31 - 1)
LAYOUTS = ("contiguous", "inside", "strided", "reversed")
layouts = st.sampled_from(LAYOUTS)


def test_the_native_backend_is_the_path():
    assert kernels.BACKEND.startswith("native-"), kernels.BACKEND
    assert NATIVE is not kernels.NUMPY


@contextlib.contextmanager
def backend(impl):
    previous, kernels._impl = kernels._impl, impl
    try:
        yield
    finally:
        kernels._impl = previous


def matrix(rng, n, width, layout="contiguous"):
    """``(allocation, view)``: a random ``(n, width)`` uint8 view."""
    if layout == "contiguous":
        base = rng.integers(0, 256, (n, width), dtype=np.uint8)
        return base, base
    if layout == "inside":      # rows[:rank] and combined[:, a:b] at once
        base = rng.integers(0, 256, (n + 3, width + 9), dtype=np.uint8)
        return base, base[1:n + 1, 4:4 + width]
    if layout == "strided":
        base = rng.integers(0, 256, (2 * n + 1, 2 * width + 1), dtype=np.uint8)
        return base, base[1::2, 1::2]
    base = rng.integers(0, 256, (n, width), dtype=np.uint8)
    return base, base[::-1, ::-1]


def vector(rng, width, layout="contiguous"):
    base, view = matrix(rng, 1, width, layout)
    return base, view[0]


def scalars_like(rng, shape):
    """Field elements with 0 and 1 over-represented."""
    values = rng.integers(0, 256, shape, dtype=np.uint8)
    values[rng.random(shape) < 0.2] = 0
    values[rng.random(shape) < 0.1] = 1
    return values


def agree(case):
    """Run ``case()`` on both backends; the arrays it returns (results
    and the allocations behind its operands) must match byte for byte."""
    results = []
    for impl in (NATIVE, kernels.NUMPY):
        with backend(impl):
            results.append(case())
    native, reference = results
    assert len(native) == len(reference)
    for got, expected in zip(native, reference):
        assert np.array_equal(got, expected)
    return native


class TestEqualOnEveryShape:
    @given(ranks, widths, seeds, layouts, layouts, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_mix_rows(self, n, width, seed, rows_layout, out_layout, give_out):
        def case():
            rng = np.random.default_rng(seed)
            rows_base, rows = matrix(rng, n, width, rows_layout)
            scalars = scalars_like(rng, n)
            out_base, out = vector(rng, width, out_layout)
            result = kernels.mix_rows(
                scalars, rows, out=out if give_out else None)
            assert (result is out) == give_out
            return result, rows_base, out_base
        agree(case)

    @given(st.integers(0, 9), ranks, widths, seeds, layouts, layouts, layouts,
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_combine_rows_and_gemm(self, m, n, width, seed, coeffs_layout,
                                   rows_layout, out_layout, give_out):
        def case():
            rng = np.random.default_rng(seed)
            rows_base, rows = matrix(rng, n, width, rows_layout)
            coeffs_base, coeffs = matrix(rng, m, n, coeffs_layout)
            coeffs[...] = scalars_like(rng, (m, n))
            out_base, out = matrix(rng, m, width, out_layout)
            result = kernels.combine_rows(
                coeffs, rows, out=out if give_out else None)
            return (result, kernels.gemm(coeffs, rows), rows_base,
                    coeffs_base, out_base)
        result, product, *_ = agree(case)
        assert np.array_equal(result, product)

    @given(ranks, widths, seeds, layouts, layouts)
    @settings(max_examples=150, deadline=None)
    def test_eliminate(self, rank, width, seed, row_layout, basis_layout):
        def case():
            rng = np.random.default_rng(seed)
            basis_base, basis = matrix(rng, rank, width, basis_layout)
            row_base, row = vector(rng, width, row_layout)
            pivot_cols = rng.integers(0, width, rank).astype(np.intp)
            row[pivot_cols[rng.random(rank) < 0.3]] = 0
            kernels.eliminate(row, basis, pivot_cols)
            return row_base, basis_base, pivot_cols
        agree(case)

    @given(ranks, widths, seeds, layouts, layouts)
    @settings(max_examples=150, deadline=None)
    def test_addmul_rows(self, n, width, seed, dest_layout, src_layout):
        def case():
            rng = np.random.default_rng(seed)
            dest_base, dest = matrix(rng, n, width, dest_layout)
            src_base, src = vector(rng, width, src_layout)
            kernels.addmul_rows(dest, src, scalars_like(rng, n))
            return dest_base, src_base
        agree(case)

    @given(widths, seeds, layouts, layouts,
           st.one_of(st.sampled_from([0, 1]), st.integers(0, 255)))
    @settings(max_examples=150, deadline=None)
    def test_addmul_row_and_scale_row(self, width, seed, dest_layout,
                                      src_layout, scalar):
        def case():
            rng = np.random.default_rng(seed)
            dest_base, dest = vector(rng, width, dest_layout)
            src_base, src = vector(rng, width, src_layout)
            kernels.addmul_row(dest, src, scalar)
            scaled = kernels.scale_row(src, scalar)
            into_base, into = vector(rng, width, dest_layout)
            assert kernels.scale_row(src, scalar, out=into) is into
            kernels.scale_row_inplace(src, scalar)
            return dest_base, src_base, scaled, into_base
        agree(case)

    def test_every_width_at_the_ranks_the_engines_reach(self):
        """No sampling: each tail length, and each rank at the live and
        bulk widths, through the three kernels a decoder calls."""
        shapes = [(n, w) for w in WIDTHS for n in (0, 1, 2, 8, 64)]
        shapes += [(n, w) for w in (72, 1088) for n in range(65)]
        for n, width in shapes:
            def case():
                rng = np.random.default_rng(n * 2000 + width)
                rows = rng.integers(0, 256, (64, width), dtype=np.uint8)
                row = rng.integers(0, 256, width, dtype=np.uint8)
                pivot_cols = rng.permutation(width)[:n].astype(np.intp)
                n_used = len(pivot_cols)
                kernels.eliminate(row, rows[:n_used], pivot_cols)
                kernels.addmul_rows(rows[:n], row, rows[:n, 0].copy())
                return row, rows, kernels.mix_rows(rows[:n, -1].copy(), rows[:n])
            agree(case)


class TestAliasing:
    """A destination may be, or overlap, a source: the result is that of
    reading every input first."""

    @pytest.mark.parametrize("width", [1, 15, 16, 33, 70, 200])
    def test_one_row_onto_itself(self, width):
        for scalar in (0, 1, 2, 143):
            def case():
                rng = np.random.default_rng(width)
                row = rng.integers(0, 256, width, dtype=np.uint8)
                before = row.copy()
                kernels.addmul_row(row, row, scalar)
                doubled = row.copy()
                row[...] = before
                kernels.scale_row(row, scalar, out=row)
                return doubled, row
            doubled, scaled = agree(case)
            before = np.random.default_rng(width).integers(
                0, 256, width, dtype=np.uint8)
            assert np.array_equal(scaled, kernels.scale_row(before, scalar))
            assert np.array_equal(doubled, before ^ scaled)

    @pytest.mark.parametrize("width", [5, 40, 129])
    def test_shifted_overlap(self, width):
        def case():
            buf = np.random.default_rng(width).integers(
                0, 256, width + 3, dtype=np.uint8)
            snapshot = buf.copy()
            kernels.addmul_row(buf[3:], buf[:-3], 29)
            expected = snapshot.copy()
            kernels.addmul_row(expected[3:], snapshot[:-3], 29)
            assert np.array_equal(buf, expected)
            return (buf,)
        agree(case)

    @pytest.mark.parametrize("width", [7, 64, 150])
    def test_outputs_inside_their_inputs(self, width):
        def case():
            rng = np.random.default_rng(width)
            rows = rng.integers(0, 256, (6, width), dtype=np.uint8)
            coeffs = rng.integers(0, 256, (3, 6), dtype=np.uint8)
            pristine = rows.copy()
            expected = kernels.combine_rows(coeffs, pristine)
            kernels.combine_rows(coeffs, rows, out=rows[1:4])
            assert np.array_equal(rows[1:4], expected)

            rows[...] = pristine
            kernels.mix_rows(coeffs[0], rows, out=rows[2])
            assert np.array_equal(rows[2], kernels.mix_rows(coeffs[0], pristine))

            rows[...] = pristine
            kernels.addmul_rows(rows[:4], rows[2], coeffs[0, :4])
            expected = pristine[:4].copy()
            kernels.addmul_rows(expected, pristine[2].copy(), coeffs[0, :4])
            assert np.array_equal(rows[:4], expected)

            rows[...] = pristine
            pivot_cols = np.arange(6, dtype=np.intp) % width
            kernels.eliminate(rows[3], rows, pivot_cols)
            expected = pristine[3].copy()
            kernels.eliminate(expected, pristine, pivot_cols)
            assert np.array_equal(rows[3], expected)
            return (rows,)
        agree(case)


    def test_numpy_row_blocks_do_not_read_their_own_output(self, monkeypatch):
        monkeypatch.setattr(kernels, "_NUMPY_BLOCK", 1)
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 256, (4, 9), dtype=np.uint8)
        coeffs = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        expected = kernels.combine_rows(coeffs, rows.copy())
        with backend(kernels.NUMPY):
            kernels.combine_rows(coeffs, rows, out=rows)
        assert np.array_equal(rows, expected)


class TestRejections:
    """What the native entry points refuse, they refuse with a typed
    error before touching memory."""

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.rows = rng.integers(0, 256, (4, 20), dtype=np.uint8)
        self.row = rng.integers(0, 256, 20, dtype=np.uint8)
        self.scalars = rng.integers(0, 256, 4, dtype=np.uint8)

    def test_wrong_dtype(self):
        with pytest.raises(TypeError):
            kernels.mix_rows(self.scalars, self.rows.astype(np.uint16))
        with pytest.raises(TypeError):
            kernels.addmul_row(self.row.astype(np.int8), self.row, 3)
        with pytest.raises(TypeError):
            kernels.eliminate(self.row, self.rows, np.zeros(4, dtype=np.int32))

    def test_read_only_destination(self):
        frozen = self.row.copy()
        frozen.setflags(write=False)
        with pytest.raises((BufferError, ValueError)):
            kernels.addmul_row(frozen, self.row, 3)
        assert np.array_equal(frozen, self.row)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kernels.mix_rows(self.scalars[:3], self.rows)
        with pytest.raises(ValueError):
            kernels.mix_rows(self.scalars, self.rows, out=self.row[:19])
        with pytest.raises(ValueError):
            kernels.combine_rows(self.rows[:, :3], self.rows)
        with pytest.raises(ValueError):
            kernels.addmul_rows(self.rows, self.row[:19], self.scalars)
        with pytest.raises(ValueError):
            kernels.addmul_rows(self.rows, self.row, self.scalars[:3])
        with pytest.raises(ValueError):
            kernels.addmul_row(self.row, self.row[:19], 3)
        with pytest.raises(ValueError):
            kernels.eliminate(self.row[:19], self.rows, np.zeros(4, dtype=np.intp))
        with pytest.raises(ValueError):
            kernels.scale_row(self.row, 3, out=self.row[:19])
        with pytest.raises(ValueError):
            kernels.mix_rows(self.scalars, self.rows[None])

    def test_out_of_range_values(self):
        with pytest.raises(IndexError):
            kernels.eliminate(self.row, self.rows,
                              np.array([0, 1, 2, 20], dtype=np.intp))
        with pytest.raises(ValueError):
            kernels.addmul_row(self.row, self.row, 256)
        with pytest.raises(ValueError):
            kernels.scale_row(self.row, -1)


def test_goldens_hold_on_the_numpy_fallback():
    """With no compiler in reach ``import repro`` still works, lands on
    the numpy backend, and every pinned golden — decoder and broadcast
    digests, the runtime goldens, ``dataplane_effects.json``, the chaos
    digests — passes on it untouched."""
    suites = ["test_gf_kernels.py", "test_runtime_goldens.py",
              "test_dataplane_conformance.py", "test_protocol_conformance.py"]
    here = os.path.dirname(__file__)
    program = (
        "import sys, pytest\n"
        "from repro.gf import kernels\n"
        "assert kernels.BACKEND == 'numpy', kernels.BACKEND\n"
        "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *sys.argv[1:]]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program, *(os.path.join(here, s) for s in suites)],
        env={**os.environ, "PATH": ""}, cwd=os.path.dirname(here),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
