"""The native GF(2^8) backend computes the bytes the numpy reference does.

Every public kernel is run twice on operands built the same way — once
on ``_gf256.c``, once on :data:`repro.gf.kernels.NUMPY` — and everything
it could have touched is compared: the return value, the operands, and
the whole allocation each operand is a view of (so a write outside the
view fails the comparison too).  The coefficient draws are compared the
same way, and against ``Generator.integers`` itself, down to the
generator state they leave.  Shapes cover what the engines produce
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

from repro.coding import GenerationParams, Recoder, SourceEncoder
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


def draw_script(rng, steps):
    """Run ``steps`` on ``rng``: ``draw_rows`` fills interleaved with the
    other ``Generator`` calls a recoder makes; every result, in order."""
    results = []
    for kind, a, b in steps:
        if kind == "draw":
            rows = np.empty((a, b[0]), dtype=np.uint8)
            drawn = kernels.draw_rows(rng, rows, b[1])
            results.append(rows[:drawn])
        elif kind == "random":
            results.append(np.array([rng.random()]))
        elif kind == "integers":
            results.append(np.array([rng.integers(0, a)]))
        else:
            results.append(np.array([rng.choice(list(range(a)))]))
    return results


draw_steps = st.lists(st.one_of(
    st.tuples(st.just("draw"), st.integers(0, 12),
              st.tuples(st.one_of(st.integers(1, 255), st.sampled_from([1, 2, 8, 64])),
                        st.sampled_from([0, 1]))),
    st.tuples(st.sampled_from(["random", "integers", "choice"]),
              st.integers(1, 40), st.none()),
), min_size=1, max_size=12)

PACKET_KINDS = ("random", "random", "duplicate", "combination", "zero",
                "basis_row", "free_row")


def make_packet(rng, basis, rank, size, kind, sent):
    """``(coefficients, payload)`` of one packet of ``kind``; views of
    ``basis`` itself for the aliasing kinds."""
    width = basis.shape[1]
    if kind == "duplicate" and sent:
        row = sent[int(rng.integers(len(sent)))]
    elif kind == "combination" and sent:
        row = kernels.mix_rows(scalars_like(rng, len(sent)), np.array(sent))
    elif kind == "zero":
        row = np.zeros(width, dtype=np.uint8)
    elif kind == "basis_row" and rank:
        row = basis[int(rng.integers(rank))]
    elif kind == "free_row":
        row = basis[rank]
    else:
        row = rng.integers(0, 256, width, dtype=np.uint8)
        if rng.random() < 0.3:
            row[:size][rng.random(size) < 0.5] = 0
    return row[:size], row[size:]


class TestCodingSteps:
    """The two per-packet steps of the data plane: draws and insertion."""

    @given(seeds, draw_steps)
    @settings(max_examples=200, deadline=None)
    def test_draw_rows(self, seed, steps):
        outcomes = []
        for impl in (NATIVE, kernels.NUMPY):
            with backend(impl):
                rng = np.random.default_rng(seed)
                outcomes.append((draw_script(rng, steps), rng.bit_generator.state))
        (native, native_state), (reference, reference_state) = outcomes
        assert native_state == reference_state
        assert len(native) == len(reference)
        for got, expected in zip(native, reference):
            assert np.array_equal(got, expected)

    @given(seeds, draw_steps)
    @settings(max_examples=100, deadline=None)
    def test_draw_rows_is_one_integers_call_a_row(self, seed, steps):
        """Against numpy itself: row ``i`` is the ``i``-th
        ``integers(low, 256, size=width)``; ``low=0`` stops after a zero
        row."""
        twin = np.random.default_rng(seed)
        results = draw_script(np.random.default_rng(seed), steps)
        for (kind, a, b), result in zip(steps, results):
            if kind == "draw":
                width, low = b
                expected = []
                for _ in range(a):
                    expected.append(twin.integers(low, 256, size=width, dtype=np.uint8))
                    if low == 0 and not expected[-1].any():
                        break
                assert np.array_equal(result, np.array(expected).reshape(-1, width))
            elif kind == "random":
                assert result[0] == twin.random()
            elif kind == "integers":
                assert result[0] == twin.integers(0, a)
            else:
                assert result[0] == twin.choice(list(range(a)))

    @pytest.mark.parametrize("impl", ["native", "numpy"])
    def test_a_zero_row_ends_a_low_zero_draw(self, impl):
        """Seed 120's one-byte stream reads 0 at its fifth draw."""
        with backend(NATIVE if impl == "native" else kernels.NUMPY):
            rows = np.full((8, 1), 9, dtype=np.uint8)
            assert kernels.draw_rows(np.random.default_rng(120), rows, 0) == 5
            assert rows[4, 0] == 0 and rows[5:, 0].tolist() == [9, 9, 9]
            assert kernels.draw_rows(np.random.default_rng(120), rows, 1) == 8

    @given(st.sampled_from([1, 2, 3, 8, 64, 255]), st.integers(0, 40), seeds,
           st.sampled_from(LAYOUTS),
           st.lists(st.sampled_from(PACKET_KINDS), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_insert_row(self, size, payload_size, seed, layout, kinds):
        if size == 255:
            kinds = kinds + ["random"] * 300      # fill a large generation
        def case():
            rng = np.random.default_rng(seed)
            # Garbage everywhere: free rows are never read.
            base, basis = matrix(rng, size, size + payload_size, layout)
            pivot_cols = np.zeros(size, dtype=np.intp)
            rank, sent, pivots = 0, [], []
            for kind in kinds:
                if rank == size:
                    break
                coefficients, payload = make_packet(rng, basis, rank, size, kind, sent)
                packet = np.concatenate([coefficients, payload])
                pivot = kernels.insert_row(basis, pivot_cols, rank, coefficients, payload)
                pivots.append(pivot)
                if pivot >= 0:
                    rank += 1
                    sent.append(packet)
            if rank:
                # RREF: the pivot columns of the basis are the identity.
                assert np.array_equal(basis[:rank][:, pivot_cols[:rank]],
                                      np.eye(rank, dtype=np.uint8))
            return base, pivot_cols[:rank], np.array(pivots)
        agree(case)

    @pytest.mark.parametrize("impl", ["native", "numpy"])
    @pytest.mark.parametrize("size", [1, 8, 64])
    def test_recoder_draws_are_integers_calls(self, impl, size):
        """Oracle through neither backend: over a systematic full-rank
        basis a mixture's coefficients are its scalars, so
        ``emit_rows(n, g)`` must read ``n`` sequential
        ``integers(1, 256, size=g)`` draws of a twin generator."""
        params = GenerationParams(generation_size=size, payload_size=16)
        content = bytes(np.random.default_rng(size).integers(
            0, 256, size * 16 * 2, dtype=np.uint8))
        source = SourceEncoder(content, params, np.random.default_rng(0),
                               systematic_first=True)
        with backend(NATIVE if impl == "native" else kernels.NUMPY):
            rng = np.random.default_rng(77)
            recoder = Recoder(params, source.generation_count, rng)
            for packet in source.emit_batch(size, 1):
                recoder.receive(packet)
            twin = np.random.default_rng(77)
            for count in (1, 5, 3):
                rows = recoder.emit_rows(count, 1)
                expected = [twin.integers(1, 256, size=size, dtype=np.uint8)
                            for _ in range(count)]
                assert np.array_equal(rows[:, :size], np.array(expected))
                assert np.array_equal(
                    rows[:, size:], kernels.combine_rows(rows[:, :size],
                                                         source.blocks[1].data))
            assert rng.bit_generator.state == twin.bit_generator.state


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
        pivots = np.zeros(4, dtype=np.intp)
        basis = self.rows[:, :12].copy()
        for coefficients, payload in ((self.row[:3], self.row[:8]),
                                      (self.row[:4], self.row[:7]),
                                      (self.row[:4], self.row[:9])):
            with pytest.raises(ValueError):
                kernels.insert_row(basis, pivots, 1, coefficients, payload)
        with pytest.raises(ValueError):
            kernels.insert_row(basis, pivots[:3], 1, self.row[:4], self.row[:8])
        for rank in (-1, 4):
            with pytest.raises(ValueError):
                kernels.insert_row(basis, pivots, rank, self.row[:4], self.row[:8])
        assert np.array_equal(basis, self.rows[:, :12])
        with pytest.raises(ValueError):
            kernels.draw_rows(np.random.default_rng(0), self.rows[:, ::2], 1)

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
