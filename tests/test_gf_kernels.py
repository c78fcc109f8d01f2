"""Equivalence and regression tests for the batched GF(2^8) kernels.

Two layers of defence for the PR-1 hot-path rewrite:

* property tests proving every batched kernel matches a straightforward
  scalar reference (including zero scalars, the scalar-1 fast path,
  empty bases and full-rank matrices);
* golden regression tests pinning byte-identical behaviour of the
  vectorised decoder and the cached/batched broadcast simulator against
  values captured from the pre-kernel ("seed") implementation.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.decoder import Decoder
from repro.coding.encoder import SourceEncoder
from repro.coding.generation import GenerationParams
from repro.core.overlay import OverlayNetwork
from repro.gf import field, kernels
from repro.gf.kernels import (
    addmul_row,
    addmul_rows,
    eliminate,
    gemm,
    mix_rows,
    scale_row,
    scale_row_inplace,
)
from repro.gf.linalg import rref
from repro.gf.tables import MUL
from repro.sim.links import LossModel
from repro.sim.runtime import rlnc

elements = st.integers(min_value=0, max_value=255)


def _vectors(draw, n, width, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, width), dtype=np.uint8)


matrix_shapes = st.tuples(
    st.integers(min_value=1, max_value=8),   # rows
    st.integers(min_value=1, max_value=24),  # width
    st.integers(min_value=0, max_value=2**31 - 1),  # data seed
)


def _scalar_addmul(dest, src, scalar):
    """Element-wise reference: dest[j] ^= scalar * src[j] via table lookup."""
    return np.array(
        [d ^ field.mul(scalar, s) for d, s in zip(dest, src)], dtype=np.uint8
    )


class TestRowKernels:
    @given(matrix_shapes, elements)
    @settings(max_examples=50, deadline=None)
    def test_addmul_row_matches_scalar_reference(self, shape, scalar):
        n, width, seed = shape
        rows = _vectors(None, 2, width, seed)
        dest, src = rows[0].copy(), rows[1]
        expected = _scalar_addmul(dest, src, scalar)
        addmul_row(dest, src, scalar)
        assert np.array_equal(dest, expected)

    @given(matrix_shapes)
    @settings(max_examples=20, deadline=None)
    def test_addmul_row_scalar_one_is_plain_xor(self, shape):
        _, width, seed = shape
        rows = _vectors(None, 2, width, seed)
        dest, src = rows[0].copy(), rows[1]
        addmul_row(dest, src, 1)
        assert np.array_equal(dest, rows[0] ^ src)

    @given(matrix_shapes, elements)
    @settings(max_examples=50, deadline=None)
    def test_scale_row_matches_scalar_reference(self, shape, scalar):
        _, width, seed = shape
        row = _vectors(None, 1, width, seed)[0]
        expected = np.array([field.mul(scalar, v) for v in row], dtype=np.uint8)
        assert np.array_equal(scale_row(row, scalar), expected)
        out = np.empty_like(row)
        assert np.array_equal(scale_row(row, scalar, out=out), expected)
        inplace = row.copy()
        scale_row_inplace(inplace, scalar)
        assert np.array_equal(inplace, expected)

    @given(matrix_shapes, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_addmul_rows_matches_row_loop(self, shape, scalar_seed):
        n, width, seed = shape
        dest = _vectors(None, n, width, seed)
        src = _vectors(None, 1, width, seed + 1)[0]
        scalars = np.random.default_rng(scalar_seed).integers(
            0, 256, size=n, dtype=np.uint8
        )
        expected = dest.copy()
        for i in range(n):
            addmul_row(expected[i], src, int(scalars[i]))
        got = dest.copy()
        addmul_rows(got, src, scalars)
        assert np.array_equal(got, expected)

    def test_addmul_rows_zero_scalars_and_empty_dest_are_noops(self):
        dest = np.random.default_rng(0).integers(0, 256, (4, 9), dtype=np.uint8)
        src = np.random.default_rng(1).integers(0, 256, 9, dtype=np.uint8)
        before = dest.copy()
        addmul_rows(dest, src, np.zeros(4, dtype=np.uint8))
        assert np.array_equal(dest, before)
        empty = np.zeros((0, 9), dtype=np.uint8)
        addmul_rows(empty, src, np.zeros(0, dtype=np.uint8))  # must not raise

    @given(matrix_shapes, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_mix_rows_matches_addmul_loop(self, shape, scalar_seed):
        n, width, seed = shape
        rows = _vectors(None, n, width, seed)
        scalars = np.random.default_rng(scalar_seed).integers(
            0, 256, size=n, dtype=np.uint8
        )
        expected = np.zeros(width, dtype=np.uint8)
        for i in range(n):
            addmul_row(expected, rows[i], int(scalars[i]))
        got = mix_rows(scalars, rows)
        assert np.array_equal(got, expected)
        out = np.empty(width, dtype=np.uint8)
        assert np.array_equal(mix_rows(scalars, rows, out=out), expected)

    def test_mix_rows_empty_input_is_zero(self):
        out = mix_rows(np.zeros(0, dtype=np.uint8), np.zeros((0, 7), dtype=np.uint8))
        assert np.array_equal(out, np.zeros(7, dtype=np.uint8))


class TestEliminate:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_per_column_loop_on_rref_basis(self, size, seed):
        # Build an RREF basis (the decoder invariant eliminate() relies on)
        # from a full-rank-or-less random matrix, then reduce a fresh row
        # both ways.
        rng = np.random.default_rng(seed)
        width = size + 5
        raw = rng.integers(0, 256, size=(size, width), dtype=np.uint8)
        reduced, pivots = rref(raw, ncols=size)
        if not pivots:
            return
        basis = reduced[: len(pivots)]
        pivot_cols = np.asarray(pivots, dtype=np.intp)

        row = rng.integers(0, 256, size=width, dtype=np.uint8)
        expected = row.copy()
        for i, col in enumerate(pivot_cols):
            addmul_row(expected, basis[i], int(expected[col]))
        got = row.copy()
        eliminate(got, basis, pivot_cols)
        assert np.array_equal(got, expected)
        # Reduced row is zero at every basis pivot column.
        assert not got[pivot_cols].any()

    def test_empty_basis_is_noop(self):
        row = np.random.default_rng(3).integers(0, 256, 12, dtype=np.uint8)
        before = row.copy()
        eliminate(row, np.zeros((0, 12), dtype=np.uint8), np.zeros(0, dtype=np.intp))
        assert np.array_equal(row, before)


class TestGemm:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_triple_loop(self, n, m, p, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, size=(n, m), dtype=np.uint8)
        b = rng.integers(0, 256, size=(m, p), dtype=np.uint8)
        expected = np.zeros((n, p), dtype=np.uint8)
        for i in range(n):
            for k in range(p):
                acc = 0
                for j in range(m):
                    acc ^= int(MUL[a[i, j], b[j, k]])
                expected[i, k] = acc
        assert np.array_equal(gemm(a, b), expected)

    def test_zero_operands_masked(self):
        # Products involving zero must come out zero on either backend.
        a = np.array([[0, 255], [1, 0]], dtype=np.uint8)
        b = np.array([[0, 7], [9, 0]], dtype=np.uint8)
        expected = np.array(
            [[MUL[255, 9], 0], [0, 7]], dtype=np.uint8
        )
        assert np.array_equal(gemm(a, b), expected)

    def test_identity_and_blocking(self, monkeypatch):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 256, size=(5, 70), dtype=np.uint8)
        eye = np.eye(70, dtype=np.uint8)
        # Width 70 is two SIMD blocks and a tail on the native backend...
        assert np.array_equal(gemm(a, eye), a)
        # ...and five row blocks on the numpy one at a budget of one row.
        monkeypatch.setattr(kernels, "_NUMPY_BLOCK", 1)
        out = np.empty_like(a)
        kernels.NUMPY.mad(out, a, eye)
        assert np.array_equal(out, a)


class TestDecoderRegression:
    """Byte-identical behaviour vs the pre-kernel decoder (pinned goldens)."""

    def test_seeded_stream_recovers_content(self):
        params = GenerationParams(generation_size=16, payload_size=64)
        rng = np.random.default_rng(12345)
        content = bytes(rng.integers(0, 256, size=3000, dtype=np.uint8))
        encoder = SourceEncoder(content, params, np.random.default_rng(777))
        decoder = Decoder(params, encoder.generation_count)
        pushed = []
        while not decoder.is_complete:
            pushed.append(decoder.push(encoder.emit()))
        recovered = decoder.recover(len(content))
        # Goldens captured from the seed implementation before the rewrite.
        assert len(pushed) == 54
        assert sum(pushed) == 48
        assert recovered == content
        assert (
            hashlib.sha256(recovered).hexdigest()
            == "8ef97babee3c7b1fcd71596b104c9a9c5e0fdcbdd1a7904dfc490f92c024a300"
        )

    def test_basis_rows_are_reduced_row_echelon(self):
        params = GenerationParams(generation_size=8, payload_size=32)
        content = bytes(
            np.random.default_rng(2).integers(0, 256, size=256, dtype=np.uint8)
        )
        encoder = SourceEncoder(content, params, np.random.default_rng(3))
        decoder = Decoder(params, 1)
        while not decoder.is_complete:
            decoder.push(encoder.emit())
        gen = decoder.generations[0]
        coeffs = gen.coefficient_rows()
        # Each basis row has a unit pivot and zeros in every other pivot col.
        for i in range(gen.rank):
            pivot = int(np.nonzero(coeffs[i])[0][0])
            assert coeffs[i, pivot] == 1
            assert not coeffs[np.arange(gen.rank) != i, pivot].any()


class TestBroadcastRegression:
    """The cached-topology + batched-loss simulator replays the seed run."""

    def test_seeded_broadcast_is_unchanged(self):
        net = OverlayNetwork(k=4, d=2, seed=99)
        net.grow(12)
        content = bytes(
            np.random.default_rng(5).integers(0, 256, size=2048, dtype=np.uint8)
        )
        sim = rlnc(
            net, content, GenerationParams(8, 64), seed=2024, loss=LossModel(0.1)
        )
        report = sim.run_until_complete(max_slots=600)
        # Goldens captured from the seed implementation before the rewrite.
        assert sorted(report.completion_slots()) == [
            27, 28, 30, 30, 33, 34, 36, 38, 52, 53, 53, 54,
        ]
        assert report.slots == 55
        assert report.server_packets == 220
        assert report.link_stats.attempted == 1263
        assert report.link_stats.delivered == 1142
        assert all(node.decoded_ok for node in report.nodes)
