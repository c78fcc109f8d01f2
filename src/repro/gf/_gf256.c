/* GF(2^8) row kernels behind repro.gf.kernels (polynomial 0x11D).
 *
 * One inner loop, `dst (^)= XOR_j coef[j] * src[j]` over a run of bytes,
 * in three builds chosen once at module init: AVX2 and SSSE3 multiply by
 * a constant with two 16-entry nibble tables and a byte shuffle; every
 * other host (and every operand whose bytes are not adjacent) walks the
 * 256-entry product row.  The Python entry points below check operands
 * and loop that kernel over rows; insert_row chains it through a whole
 * decoder insertion, and draw_rows fills coefficient rows with numpy's
 * own bounded-integer draws (libnpyrandom, linked in by _native.py).
 *
 * Operands arrive through the buffer protocol: uint8, one or two
 * dimensions, any strides.  An input that shares memory with the output
 * is copied first, so results are always those of "read every input,
 * then write" — what the numpy reference in kernels.py computes.
 *
 * Built by _native.py with the system C compiler; no -march flag, so
 * one cached object is valid on every host of its architecture.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <numpy/random/distributions.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define GF_X86 1
#endif

static uint8_t MUL[256][256];                                /* MUL[c][x] = c * x */
static uint8_t INV[256];                                     /* INV[x] * x = 1; INV[0] = 0 */
static uint8_t NIB[256][2][16] __attribute__((aligned(16))); /* c * k, c * (k << 4) */

static void build_tables(void)
{
    uint8_t exp[510];
    int log[256] = {0};
    int value = 1;
    for (int i = 0; i < 255; i++) {
        exp[i] = exp[i + 255] = (uint8_t)value;
        log[value] = i;
        value <<= 1;
        if (value & 0x100)
            value ^= 0x11D;
    }
    for (int c = 1; c < 256; c++) {
        INV[c] = exp[255 - log[c]];
        for (int x = 1; x < 256; x++)
            MUL[c][x] = exp[log[c] + log[x]];
    }
    for (int c = 0; c < 256; c++)
        for (int k = 0; k < 16; k++) {
            NIB[c][0][k] = MUL[c][k];
            NIB[c][1][k] = MUL[c][k << 4];
        }
}

/* ------------------------------------------------------------------ */
/* The kernel: dst[0:len] = (acc ? dst : 0) ^ XOR_j coef[j] * src_j[0:len]
 * with src_j = src + j * src_row, coef[j] read at coef + j * coef_step. */

typedef void (*row_kernel)(uint8_t *dst, const uint8_t *src,
                           Py_ssize_t src_row, const uint8_t *coef,
                           Py_ssize_t coef_step, Py_ssize_t n,
                           Py_ssize_t len, int acc);

/* Any byte strides; also the portable build and every SIMD tail.  Each
 * output byte is written after all its inputs are read, so `dst` may be
 * `src` itself (as it may in the SIMD loops, block by block). */
static void mad_strided(uint8_t *dst, Py_ssize_t dst_step,
                        const uint8_t *src, Py_ssize_t src_row,
                        Py_ssize_t src_step, const uint8_t *coef,
                        Py_ssize_t coef_step, Py_ssize_t n,
                        Py_ssize_t len, int acc)
{
    for (Py_ssize_t k = 0; k < len; k++) {
        uint8_t value = acc ? dst[k * dst_step] : 0;
        for (Py_ssize_t j = 0; j < n; j++)
            value ^= MUL[coef[j * coef_step]][src[j * src_row + k * src_step]];
        dst[k * dst_step] = value;
    }
}

static void mad_portable(uint8_t *dst, const uint8_t *src, Py_ssize_t src_row,
                         const uint8_t *coef, Py_ssize_t coef_step,
                         Py_ssize_t n, Py_ssize_t len, int acc)
{
    mad_strided(dst, 1, src, src_row, 1, coef, coef_step, n, len, acc);
}

#ifdef GF_X86

#define MUL128(x, lo, hi, mask)                                           \
    _mm_xor_si128(                                                        \
        _mm_shuffle_epi8(lo, _mm_and_si128(x, mask)),                     \
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi16(x, 4), mask)))

#define MUL256(x, lo, hi, mask)                                           \
    _mm256_xor_si256(                                                     \
        _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask)),               \
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi16(x, 4), mask)))

__attribute__((target("ssse3")))
static void mad_ssse3(uint8_t *dst, const uint8_t *src, Py_ssize_t src_row,
                      const uint8_t *coef, Py_ssize_t coef_step,
                      Py_ssize_t n, Py_ssize_t len, int acc)
{
    const __m128i mask = _mm_set1_epi8(0x0f);
    const __m128i zero = _mm_setzero_si128();
    Py_ssize_t k = 0;
    for (; k + 64 <= len; k += 64) {
        __m128i *d = (__m128i *)(dst + k);
        __m128i a0 = acc ? _mm_loadu_si128(d) : zero;
        __m128i a1 = acc ? _mm_loadu_si128(d + 1) : zero;
        __m128i a2 = acc ? _mm_loadu_si128(d + 2) : zero;
        __m128i a3 = acc ? _mm_loadu_si128(d + 3) : zero;
        for (Py_ssize_t j = 0; j < n; j++) {
            const uint8_t c = coef[j * coef_step];
            if (!c)
                continue;
            const __m128i *s = (const __m128i *)(src + j * src_row + k);
            const __m128i lo = _mm_load_si128((const __m128i *)NIB[c][0]);
            const __m128i hi = _mm_load_si128((const __m128i *)NIB[c][1]);
            a0 = _mm_xor_si128(a0, MUL128(_mm_loadu_si128(s), lo, hi, mask));
            a1 = _mm_xor_si128(a1, MUL128(_mm_loadu_si128(s + 1), lo, hi, mask));
            a2 = _mm_xor_si128(a2, MUL128(_mm_loadu_si128(s + 2), lo, hi, mask));
            a3 = _mm_xor_si128(a3, MUL128(_mm_loadu_si128(s + 3), lo, hi, mask));
        }
        _mm_storeu_si128(d, a0);
        _mm_storeu_si128(d + 1, a1);
        _mm_storeu_si128(d + 2, a2);
        _mm_storeu_si128(d + 3, a3);
    }
    for (; k + 16 <= len; k += 16) {
        __m128i *d = (__m128i *)(dst + k);
        __m128i a0 = acc ? _mm_loadu_si128(d) : zero;
        for (Py_ssize_t j = 0; j < n; j++) {
            const uint8_t c = coef[j * coef_step];
            const __m128i *s = (const __m128i *)(src + j * src_row + k);
            const __m128i lo = _mm_load_si128((const __m128i *)NIB[c][0]);
            const __m128i hi = _mm_load_si128((const __m128i *)NIB[c][1]);
            a0 = _mm_xor_si128(a0, MUL128(_mm_loadu_si128(s), lo, hi, mask));
        }
        _mm_storeu_si128(d, a0);
    }
    mad_strided(dst + k, 1, src + k, src_row, 1, coef, coef_step, n,
                len - k, acc);
}

__attribute__((target("avx2")))
static void mad_avx2(uint8_t *dst, const uint8_t *src, Py_ssize_t src_row,
                     const uint8_t *coef, Py_ssize_t coef_step,
                     Py_ssize_t n, Py_ssize_t len, int acc)
{
    const __m256i mask = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();
    Py_ssize_t k = 0;
    for (; k + 128 <= len; k += 128) {
        __m256i *d = (__m256i *)(dst + k);
        __m256i a0 = acc ? _mm256_loadu_si256(d) : zero;
        __m256i a1 = acc ? _mm256_loadu_si256(d + 1) : zero;
        __m256i a2 = acc ? _mm256_loadu_si256(d + 2) : zero;
        __m256i a3 = acc ? _mm256_loadu_si256(d + 3) : zero;
        for (Py_ssize_t j = 0; j < n; j++) {
            const uint8_t c = coef[j * coef_step];
            if (!c)
                continue;
            const __m256i *s = (const __m256i *)(src + j * src_row + k);
            const __m256i lo = _mm256_broadcastsi128_si256(
                _mm_load_si128((const __m128i *)NIB[c][0]));
            const __m256i hi = _mm256_broadcastsi128_si256(
                _mm_load_si128((const __m128i *)NIB[c][1]));
            a0 = _mm256_xor_si256(a0, MUL256(_mm256_loadu_si256(s), lo, hi, mask));
            a1 = _mm256_xor_si256(a1, MUL256(_mm256_loadu_si256(s + 1), lo, hi, mask));
            a2 = _mm256_xor_si256(a2, MUL256(_mm256_loadu_si256(s + 2), lo, hi, mask));
            a3 = _mm256_xor_si256(a3, MUL256(_mm256_loadu_si256(s + 3), lo, hi, mask));
        }
        _mm256_storeu_si256(d, a0);
        _mm256_storeu_si256(d + 1, a1);
        _mm256_storeu_si256(d + 2, a2);
        _mm256_storeu_si256(d + 3, a3);
    }
    for (; k + 32 <= len; k += 32) {
        __m256i *d = (__m256i *)(dst + k);
        __m256i a0 = acc ? _mm256_loadu_si256(d) : zero;
        for (Py_ssize_t j = 0; j < n; j++) {
            const uint8_t c = coef[j * coef_step];
            const __m256i *s = (const __m256i *)(src + j * src_row + k);
            const __m256i lo = _mm256_broadcastsi128_si256(
                _mm_load_si128((const __m128i *)NIB[c][0]));
            const __m256i hi = _mm256_broadcastsi128_si256(
                _mm_load_si128((const __m128i *)NIB[c][1]));
            a0 = _mm256_xor_si256(a0, MUL256(_mm256_loadu_si256(s), lo, hi, mask));
        }
        _mm256_storeu_si256(d, a0);
    }
    /* Under 32 bytes left: one 16-byte step and the byte tail. */
    mad_ssse3(dst + k, src + k, src_row, coef, coef_step, n, len - k, acc);
}

#endif /* GF_X86 */

static row_kernel mad_adjacent = mad_portable;
static const char *isa = "portable";

static void choose_kernel(void)
{
#ifdef GF_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
        mad_adjacent = mad_avx2;
        isa = "avx2";
    } else if (__builtin_cpu_supports("ssse3")) {
        mad_adjacent = mad_ssse3;
        isa = "ssse3";
    }
#endif
}

/* ------------------------------------------------------------------ */
/* Operands */

typedef struct {
    Py_buffer view;
    uint8_t *p;             /* first byte (of `packed` when that is set) */
    Py_ssize_t rows, len;   /* a 1-D operand is one row */
    Py_ssize_t row, step;   /* byte strides: between rows, within a row */
    uint8_t *packed;        /* private copy, or NULL */
} operand;

static int acquire(PyObject *obj, operand *op, int writable, int min_ndim,
                   int max_ndim, const char *name)
{
    int flags = PyBUF_STRIDES | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, &op->view, flags) < 0)
        return -1;
    const Py_buffer *v = &op->view;
    op->packed = NULL;
    if (v->itemsize != 1 || (v->format && strcmp(v->format, "B") != 0)) {
        PyErr_Format(PyExc_TypeError, "%s must be uint8", name);
        goto fail;
    }
    if (v->ndim < min_ndim || v->ndim > max_ndim) {
        PyErr_Format(PyExc_ValueError, "%s has %d dimensions", name, v->ndim);
        goto fail;
    }
    op->p = v->buf;
    if (v->ndim == 0) {
        op->rows = op->len = 1;
        op->row = op->step = 0;
    } else if (v->ndim == 1) {
        op->rows = 1;
        op->row = 0;
        op->len = v->shape[0];
        op->step = v->strides[0];
    } else {
        op->rows = v->shape[0];
        op->row = v->strides[0];
        op->len = v->shape[1];
        op->step = v->strides[1];
    }
    return 0;
fail:
    PyBuffer_Release(&op->view);
    return -1;
}

static void release(operand *op)
{
    free(op->packed);
    PyBuffer_Release(&op->view);
}

/* Lowest address and one past the highest an operand touches. */
static void extent(const operand *op, const uint8_t **lo, const uint8_t **hi)
{
    *lo = *hi = op->p;
    if (op->rows == 0 || op->len == 0)
        return;
    Py_ssize_t spans[2] = {(op->rows - 1) * op->row, (op->len - 1) * op->step};
    for (int i = 0; i < 2; i++) {
        if (spans[i] < 0)
            *lo += spans[i];
        else
            *hi += spans[i];
    }
    *hi += 1;
}

static int same_layout(const operand *a, const operand *b)
{
    return a->p == b->p && a->rows == b->rows && a->len == b->len
        && a->row == b->row && a->step == b->step;
}

/* Give `in` a private copy if `out` could overwrite bytes it reads. */
static int detach(operand *in, const operand *out)
{
    const uint8_t *in_lo, *in_hi, *out_lo, *out_hi;
    extent(in, &in_lo, &in_hi);
    extent(out, &out_lo, &out_hi);
    if (in_lo == in_hi || in_hi <= out_lo || out_hi <= in_lo)
        return 0;
    uint8_t *copy = malloc((size_t)(in->rows * in->len));
    if (copy == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = 0; i < in->rows; i++)
        for (Py_ssize_t k = 0; k < in->len; k++)
            copy[i * in->len + k] = in->p[i * in->row + k * in->step];
    in->p = in->packed = copy;
    in->row = in->len;
    in->step = 1;
    return 0;
}

static void mad_row(const operand *out, Py_ssize_t i, const operand *src,
                    Py_ssize_t first, Py_ssize_t n, const uint8_t *coef,
                    Py_ssize_t coef_step, int acc)
{
    uint8_t *dst = out->p + i * out->row;
    const uint8_t *s = src->p + first * src->row;
    if (out->len <= 1 || (out->step == 1 && src->step == 1))
        mad_adjacent(dst, s, src->row, coef, coef_step, n, out->len, acc);
    else
        mad_strided(dst, out->step, s, src->row, src->step, coef, coef_step,
                    n, out->len, acc);
}

static int as_scalar(PyObject *obj, uint8_t *scalar)
{
    long value = PyLong_AsLong(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (value < 0 || value > 255) {
        PyErr_SetString(PyExc_ValueError, "scalar outside GF(256)");
        return -1;
    }
    *scalar = (uint8_t)value;
    return 0;
}

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t needed)
{
    if (nargs == needed)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments", name, needed);
    return -1;
}

static PyObject *mismatch(void)
{
    PyErr_SetString(PyExc_ValueError, "operand shapes do not match");
    return NULL;
}

/* A 1-D intp vector of `count` pivot columns. */
static int acquire_pivots(PyObject *obj, Py_buffer *pivots, int writable,
                          Py_ssize_t count)
{
    int flags = PyBUF_STRIDES | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, pivots, flags) < 0)
        return -1;
    if (pivots->ndim != 1 || pivots->itemsize != sizeof(Py_ssize_t)
            || pivots->format == NULL || strchr("lqn", pivots->format[0]) == NULL
            || pivots->format[1] != '\0') {
        PyErr_SetString(PyExc_TypeError, "pivot_cols must be a 1-D intp array");
        PyBuffer_Release(pivots);
        return -1;
    }
    if (pivots->shape[0] != count) {
        mismatch();
        PyBuffer_Release(pivots);
        return -1;
    }
    return 0;
}

static Py_ssize_t *pivot_at(const Py_buffer *pivots, Py_ssize_t i)
{
    return (Py_ssize_t *)((char *)pivots->buf + i * pivots->strides[0]);
}

/* The multipliers that clear a row's pivots: entry i (i < n) is byte
 * pivot_cols[i] of the row `head ++ tail` (`tail` may be NULL).  Written
 * into `few` (256 entries) when they fit, else into a block the caller
 * frees; NULL with an exception set on failure. */
static uint8_t *gather_pivots(const Py_buffer *pivots, Py_ssize_t n,
                              const operand *head, const operand *tail,
                              uint8_t *few)
{
    Py_ssize_t len = head->len + (tail ? tail->len : 0);
    uint8_t *scalars = few;
    if (n > 256 && (scalars = malloc((size_t)n)) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t col = *pivot_at(pivots, i);
        if (col < 0)
            col += len;
        if (col < 0 || col >= len) {
            PyErr_SetString(PyExc_IndexError, "pivot column out of range");
            if (scalars != few)
                free(scalars);
            return NULL;
        }
        scalars[i] = col < head->len ? head->p[col * head->step]
                                     : tail->p[(col - head->len) * tail->step];
    }
    return scalars;
}

/* dst[k * step] = src[k] over a whole 1-D operand. */
static void copy_row(uint8_t *dst, Py_ssize_t step, const operand *src)
{
    if (step == 1 && src->step == 1) {
        memcpy(dst, src->p, (size_t)src->len);
        return;
    }
    for (Py_ssize_t k = 0; k < src->len; k++)
        dst[k * step] = src->p[k * src->step];
}

static int all_zero(const uint8_t *row, Py_ssize_t len)
{
    for (Py_ssize_t k = 0; k < len; k++)
        if (row[k])
            return 0;
    return 1;
}

/* ------------------------------------------------------------------ */
/* Entry points */

/* mad(out, coeffs, rows): out[i] = XOR_j coeffs[i, j] * rows[j].
 * 1-D out and coeffs are the single-mixture form. */
static PyObject *gf_mad(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand out, coeffs, rows;
    PyObject *result = NULL;
    if (arity("mad", nargs, 3) < 0)
        return NULL;
    if (acquire(args[0], &out, 1, 1, 2, "out") < 0)
        return NULL;
    if (acquire(args[1], &coeffs, 0, out.view.ndim, out.view.ndim, "coeffs") < 0)
        goto release_out;
    if (acquire(args[2], &rows, 0, 2, 2, "rows") < 0)
        goto release_coeffs;
    if (coeffs.rows != out.rows || coeffs.len != rows.rows || rows.len != out.len) {
        mismatch();
        goto done;
    }
    if (detach(&coeffs, &out) < 0 || detach(&rows, &out) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < out.rows; i++)
        mad_row(&out, i, &rows, 0, rows.rows, coeffs.p + i * coeffs.row,
                coeffs.step, 0);
    result = Py_None;
    Py_INCREF(result);
done:
    release(&rows);
release_coeffs:
    release(&coeffs);
release_out:
    release(&out);
    return result;
}

/* eliminate(row, basis, pivot_cols): row ^= XOR_i row[pivot_cols[i]] * basis[i],
 * every multiplier read before the row is written. */
static PyObject *gf_eliminate(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand row, basis;
    Py_buffer pivots;
    uint8_t few[256], *scalars;
    PyObject *result = NULL;
    if (arity("eliminate", nargs, 3) < 0)
        return NULL;
    if (acquire(args[0], &row, 1, 1, 1, "row") < 0)
        return NULL;
    if (acquire(args[1], &basis, 0, 2, 2, "basis") < 0)
        goto release_row;
    if (acquire_pivots(args[2], &pivots, 0, basis.rows) < 0)
        goto release_basis;
    if (basis.rows && basis.len != row.len) {
        mismatch();
        goto done;
    }
    if ((scalars = gather_pivots(&pivots, basis.rows, &row, NULL, few)) == NULL)
        goto done;
    if (detach(&basis, &row) == 0) {
        mad_row(&row, 0, &basis, 0, basis.rows, scalars, 1, 1);
        result = Py_None;
        Py_INCREF(result);
    }
    if (scalars != few)
        free(scalars);
done:
    PyBuffer_Release(&pivots);
release_basis:
    release(&basis);
release_row:
    release(&row);
    return result;
}

/* insert_row(basis, pivot_cols, rank, coefficients, payload) -> pivot.
 * One progressive Gauss-Jordan step.  `basis` has one row per coefficient;
 * rows [:rank] are in RREF, row i with a unit pivot at pivot_cols[i] and
 * zeros at the other rows' pivots.  The packet [coefficients | payload]
 * is written into the free row `rank` and reduced against rows [:rank].
 * If a coefficient survives, the first one is the new pivot: the row is
 * normalised by its inverse, the pivot's column is cleared from rows
 * [:rank], pivot_cols[rank] is set and the pivot returned.  Otherwise the
 * packet is not innovative: -1, and only the free row was written. */
static PyObject *gf_insert_row(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand basis, coefficients, payload;
    Py_buffer pivots;
    Py_ssize_t rank, size, pivot = -1;
    uint8_t few[256], *scalars, *row;
    PyObject *result = NULL;
    if (arity("insert_row", nargs, 5) < 0)
        return NULL;
    rank = PyNumber_AsSsize_t(args[2], PyExc_OverflowError);
    if (rank == -1 && PyErr_Occurred())
        return NULL;
    if (acquire(args[0], &basis, 1, 2, 2, "basis") < 0)
        return NULL;
    size = basis.rows;
    if (acquire_pivots(args[1], &pivots, 1, size) < 0)
        goto release_basis;
    if (acquire(args[3], &coefficients, 0, 1, 1, "coefficients") < 0)
        goto release_pivots;
    if (acquire(args[4], &payload, 0, 1, 1, "payload") < 0)
        goto release_coefficients;
    if (coefficients.len != size || basis.len != size + payload.len) {
        mismatch();
        goto done;
    }
    if (rank < 0 || rank >= size) {
        PyErr_SetString(PyExc_ValueError, "rank leaves no free basis row");
        goto done;
    }
    if ((scalars = gather_pivots(&pivots, rank, &coefficients, &payload, few)) == NULL)
        goto done;
    if (detach(&coefficients, &basis) < 0 || detach(&payload, &basis) < 0)
        goto free_scalars;
    row = basis.p + rank * basis.row;
    copy_row(row, basis.step, &coefficients);
    copy_row(row + size * basis.step, basis.step, &payload);
    mad_row(&basis, rank, &basis, 0, rank, scalars, 1, 1);
    for (Py_ssize_t k = 0; k < size && pivot < 0; k++)
        if (row[k * basis.step])
            pivot = k;
    if (pivot >= 0) {
        uint8_t inverse = INV[row[pivot * basis.step]];
        if (inverse != 1)
            mad_row(&basis, rank, &basis, rank, 1, &inverse, 0, 0);
        for (Py_ssize_t i = 0; i < rank; i++) {
            uint8_t scalar = basis.p[i * basis.row + pivot * basis.step];
            if (scalar)
                mad_row(&basis, i, &basis, rank, 1, &scalar, 0, 1);
        }
        *pivot_at(&pivots, rank) = pivot;
    }
    result = PyLong_FromSsize_t(pivot);
free_scalars:
    if (scalars != few)
        free(scalars);
done:
    release(&payload);
release_coefficients:
    release(&coefficients);
release_pivots:
    PyBuffer_Release(&pivots);
release_basis:
    release(&basis);
    return result;
}

/* draw_rows(rng, out, low) -> rows drawn.  Row i of `out` (a matrix of
 * rows of adjacent bytes) gets exactly what the i-th of out.shape[0]
 * sequential rng.integers(low, 256, size=out.shape[1], dtype=np.uint8)
 * calls returns, and the generator ends where those calls leave it: each
 * row is one call of numpy's own random_bounded_uint8_fill on the
 * generator's bitgen_t, under its lock, as Generator.integers makes it.
 * With low = 0 the draw stops after the first all-zero row. */
static PyObject *gf_draw_rows(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand out;
    uint8_t low;
    PyObject *bit_generator, *capsule = NULL, *lock = NULL, *held, *result = NULL;
    bitgen_t *bitgen;
    Py_ssize_t i = 0;
    if (arity("draw_rows", nargs, 3) < 0 || as_scalar(args[2], &low) < 0)
        return NULL;
    if ((bit_generator = PyObject_GetAttrString(args[0], "bit_generator")) == NULL)
        return NULL;
    if (acquire(args[1], &out, 1, 2, 2, "out") < 0)
        goto release_generator;
    if (out.len > 1 && out.step != 1) {
        PyErr_SetString(PyExc_ValueError, "out rows must be contiguous");
        goto done;
    }
    if ((capsule = PyObject_GetAttrString(bit_generator, "capsule")) == NULL
            || (lock = PyObject_GetAttrString(bit_generator, "lock")) == NULL
            || (bitgen = PyCapsule_GetPointer(capsule, "BitGenerator")) == NULL
            || (held = PyObject_CallMethod(lock, "acquire", NULL)) == NULL)
        goto done;
    Py_DECREF(held);
    while (i < out.rows) {
        uint8_t *row = out.p + i++ * out.row;
        random_bounded_uint8_fill(bitgen, low, (uint8_t)(255 - low), out.len,
                                  false, row);
        if (low == 0 && all_zero(row, out.len))
            break;
    }
    if ((held = PyObject_CallMethod(lock, "release", NULL)) != NULL) {
        Py_DECREF(held);
        result = PyLong_FromSsize_t(i);
    }
done:
    Py_XDECREF(lock);
    Py_XDECREF(capsule);
    release(&out);
release_generator:
    Py_DECREF(bit_generator);
    return result;
}

/* addmul(dest, src, scalars): dest[i] ^= scalars[i] * src; `scalars` is a
 * uint8 vector, or one Python int applied to every row. */
static PyObject *gf_addmul(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand dest, src, scalars;
    uint8_t scalar = 0;
    int vector;
    PyObject *result = NULL;
    if (arity("addmul", nargs, 3) < 0)
        return NULL;
    vector = !PyLong_Check(args[2]);
    if (!vector && as_scalar(args[2], &scalar) < 0)
        return NULL;
    if (acquire(args[0], &dest, 1, 1, 2, "dest") < 0)
        return NULL;
    if (acquire(args[1], &src, 0, 1, 1, "src") < 0)
        goto release_dest;
    if (vector && acquire(args[2], &scalars, 0, 0, 1, "scalars") < 0)
        goto release_src;
    if (src.len != dest.len || (vector && scalars.len != dest.rows)) {
        mismatch();
        goto done;
    }
    /* One row onto itself is element-wise and safe in place. */
    if (!(dest.view.ndim == 1 && same_layout(&src, &dest)) && detach(&src, &dest) < 0)
        goto done;
    if (vector && detach(&scalars, &dest) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < dest.rows; i++) {
        if (vector)
            scalar = scalars.p[i * scalars.step];
        if (scalar)
            mad_row(&dest, i, &src, 0, 1, &scalar, 0, 1);
    }
    result = Py_None;
    Py_INCREF(result);
done:
    if (vector)
        release(&scalars);
release_src:
    release(&src);
release_dest:
    release(&dest);
    return result;
}

/* scale(out, row, scalar): out = scalar * row, same shape; out may be row. */
static PyObject *gf_scale(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    operand out, row;
    uint8_t scalar;
    PyObject *result = NULL;
    if (arity("scale", nargs, 3) < 0 || as_scalar(args[2], &scalar) < 0)
        return NULL;
    if (acquire(args[0], &out, 1, 1, 2, "out") < 0)
        return NULL;
    if (acquire(args[1], &row, 0, out.view.ndim, out.view.ndim, "row") < 0)
        goto release_out;
    if (row.rows != out.rows || row.len != out.len) {
        mismatch();
        goto done;
    }
    if (!same_layout(&row, &out) && detach(&row, &out) < 0)
        goto done;
    for (Py_ssize_t i = 0; i < out.rows; i++)
        mad_row(&out, i, &row, i, 1, &scalar, 0, 0);
    result = Py_None;
    Py_INCREF(result);
done:
    release(&row);
release_out:
    release(&out);
    return result;
}

static PyMethodDef methods[] = {
    {"mad", (PyCFunction)(void (*)(void))gf_mad, METH_FASTCALL, NULL},
    {"eliminate", (PyCFunction)(void (*)(void))gf_eliminate, METH_FASTCALL, NULL},
    {"addmul", (PyCFunction)(void (*)(void))gf_addmul, METH_FASTCALL, NULL},
    {"scale", (PyCFunction)(void (*)(void))gf_scale, METH_FASTCALL, NULL},
    {"insert_row", (PyCFunction)(void (*)(void))gf_insert_row, METH_FASTCALL, NULL},
    {"draw_rows", (PyCFunction)(void (*)(void))gf_draw_rows, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_gf256", NULL, -1, methods,
};

PyMODINIT_FUNC PyInit__gf256(void)
{
    build_tables();
    choose_kernel();
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "isa", isa) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
