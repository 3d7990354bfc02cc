#include "common/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QRAMSIM_SIMD_X86 1
#include <immintrin.h>
#endif

namespace qramsim::simd {

namespace {

// ------------------------------------------------------------- scalar

// Per-row fire sweeps: not kernels of their own, but the fallback of
// the block kernels below for ops with more than kCtrlHoist controls
// (and the vector tiers' scalar tail).

void
xorFireScalar(std::uint64_t *target, const std::uint64_t *rows,
              std::size_t stride, const EnsembleCtrl *ctrls,
              std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = vmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= rows[std::size_t(ctrls[c].qubit) * stride + w] ^
                    ctrls[c].invert;
        target[w] ^= fire;
    }
}

void
swapFireScalar(std::uint64_t *t0, std::uint64_t *t1,
               const std::uint64_t *rows, std::size_t stride,
               const EnsembleCtrl *ctrls, std::size_t nc,
               const std::uint64_t *vmask, std::size_t nw)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = vmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= rows[std::size_t(ctrls[c].qubit) * stride + w] ^
                    ctrls[c].invert;
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

// Fused-arena fire kernels. Arithmetic is the row sweeps' (the
// block layout only changes nw/stride and folds shot activity into
// the mask row), but the sweeps are long — one op covers every
// batched shot — so control row pointers and polarity words are
// hoisted into locals: the compiler cannot do it (the target store
// may alias the ctrls array), and reloading them every vector step
// is measurable at arena widths. Ops with more controls than the
// hoist buffer fall back to the generic row sweep.

constexpr std::size_t kCtrlHoist = 4;

void
xorFireBlockScalar(std::uint64_t *target, const std::uint64_t *rows,
                   std::size_t stride, const EnsembleCtrl *ctrls,
                   std::size_t nc, const std::uint64_t *bmask,
                   std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireScalar(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    std::uint64_t inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = ctrls[c].invert;
    }
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ inv[c];
        target[w] ^= fire;
    }
}

void
swapFireBlockScalar(std::uint64_t *t0, std::uint64_t *t1,
                    const std::uint64_t *rows, std::size_t stride,
                    const EnsembleCtrl *ctrls, std::size_t nc,
                    const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireScalar(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    std::uint64_t inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = ctrls[c].invert;
    }
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ inv[c];
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

void
xorRowBlockScalar(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t pw, std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        for (std::size_t w = 0; w < pw; ++w)
            dst[w] ^= src[w];
}

void
diffOrBlockScalar(std::uint64_t *dev, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t pw, std::size_t n,
                  std::uint64_t *anyOut)
{
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw) {
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < pw; ++w) {
            const std::uint64_t d = a[w] ^ b[w];
            dev[w] |= d;
            any |= d;
        }
        anyOut[s] = any != 0;
    }
}

// Slices that divide a vector (W % pw == 0 for a W-word vector: 1, 2
// and 4 words, and 8 under AVX-512): the vector tiers sweep a block's
// n slices as one contiguous run of n * pw words, W / pw slices per
// vector step, against the shared row repeated to fill the vector.

/**
 * Per-slice any-diff flags of one such vector step: bit j of @p m
 * says lane j differs, and slice i owns lanes [i*pw, (i+1)*pw).
 */
inline void
flagsFromLanes(unsigned m, std::size_t pw, std::size_t ns,
               std::uint64_t *anyOut)
{
    const unsigned low = (1u << pw) - 1;
    for (std::size_t i = 0; i < ns; ++i, m >>= pw)
        anyOut[i] = (m & low) != 0;
}

constexpr RowKernels kScalar = {xorFireBlockScalar, swapFireBlockScalar,
                                xorRowBlockScalar, diffOrBlockScalar};

#ifdef QRAMSIM_SIMD_X86

// -------------------------------------------------------------- AVX2

// Per-row sweeps, the block kernels' fallbacks: the fire sweeps for
// ops with more than kCtrlHoist controls, the row flip and deviation
// sweeps one slice at a time for slices that do not divide a vector
// (nor, under AVX2, fill a cache line).

__attribute__((target("avx2"))) void
xorFireAvx2(std::uint64_t *target, const std::uint64_t *rows,
            std::size_t stride, const EnsembleCtrl *ctrls,
            std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vmask + w));
        for (std::size_t c = 0; c < nc; ++c) {
            const __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    rows + std::size_t(ctrls[c].qubit) * stride + w));
            fire = _mm256_and_si256(
                fire, _mm256_xor_si256(
                          row, _mm256_set1_epi64x(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        __m256i *t = reinterpret_cast<__m256i *>(target + w);
        _mm256_storeu_si256(
            t, _mm256_xor_si256(_mm256_loadu_si256(t), fire));
    }
    if (w < nw)
        xorFireScalar(target + w, rows + w, stride, ctrls, nc,
                      vmask + w, nw - w);
}

__attribute__((target("avx2"))) void
swapFireAvx2(std::uint64_t *t0, std::uint64_t *t1,
             const std::uint64_t *rows, std::size_t stride,
             const EnsembleCtrl *ctrls, std::size_t nc,
             const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(vmask + w));
        for (std::size_t c = 0; c < nc; ++c) {
            const __m256i row = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    rows + std::size_t(ctrls[c].qubit) * stride + w));
            fire = _mm256_and_si256(
                fire, _mm256_xor_si256(
                          row, _mm256_set1_epi64x(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        __m256i *p0 = reinterpret_cast<__m256i *>(t0 + w);
        __m256i *p1 = reinterpret_cast<__m256i *>(t1 + w);
        const __m256i v0 = _mm256_loadu_si256(p0);
        const __m256i v1 = _mm256_loadu_si256(p1);
        const __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(v0, v1), fire);
        _mm256_storeu_si256(p0, _mm256_xor_si256(v0, diff));
        _mm256_storeu_si256(p1, _mm256_xor_si256(v1, diff));
    }
    if (w < nw)
        swapFireScalar(t0 + w, t1 + w, rows + w, stride, ctrls, nc,
                       vmask + w, nw - w);
}

__attribute__((target("avx2"))) void
xorRowAvx2(std::uint64_t *dst, const std::uint64_t *src, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i *d = reinterpret_cast<__m256i *>(dst + w);
        _mm256_storeu_si256(
            d, _mm256_xor_si256(
                   _mm256_loadu_si256(d),
                   _mm256_loadu_si256(
                       reinterpret_cast<const __m256i *>(src + w))));
    }
    for (; w < nw; ++w)
        dst[w] ^= src[w];
}

__attribute__((target("avx2"))) std::uint64_t
diffOrAvx2(std::uint64_t *dev, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t nw)
{
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        const __m256i d = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + w)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + w)));
        __m256i *dv = reinterpret_cast<__m256i *>(dev + w);
        _mm256_storeu_si256(dv,
                            _mm256_or_si256(_mm256_loadu_si256(dv), d));
        acc = _mm256_or_si256(acc, d);
    }
    std::uint64_t any = 0;
    for (; w < nw; ++w) {
        const std::uint64_t d = a[w] ^ b[w];
        dev[w] |= d;
        any |= d;
    }
    return !_mm256_testz_si256(acc, acc) || any != 0;
}

/** Bit j set iff 64-bit lane j of @p d is nonzero. */
__attribute__((target("avx2"))) inline unsigned
nonzeroLanesAvx2(__m256i d)
{
    const __m256i z =
        _mm256_cmpeq_epi64(d, _mm256_setzero_si256());
    return ~static_cast<unsigned>(
               _mm256_movemask_pd(_mm256_castsi256_pd(z))) &
           0xF;
}

/** A 1-, 2- or 4-word row repeated across a 4-word vector. */
__attribute__((target("avx2"))) inline __m256i
broadcastRowAvx2(const std::uint64_t *row, std::size_t pw)
{
    if (pw == 1)
        return _mm256_set1_epi64x(static_cast<long long>(row[0]));
    if (pw == 2)
        return _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(row)));
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row));
}

// Block kernels: control rows and pre-broadcast polarity vectors are
// hoisted out of the sweep (see the scalar tier note), and the
// broadcast/per-slice kernels keep the shared row in registers
// across shot slices. Block rows have word counts that are multiples
// of kRowAlignWords; a one-shot arena's row is its data words, which
// the scalar tails below finish.

__attribute__((target("avx2"))) void
xorFireBlockAvx2(std::uint64_t *target, const std::uint64_t *rows,
                 std::size_t stride, const EnsembleCtrl *ctrls,
                 std::size_t nc, const std::uint64_t *bmask,
                 std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireAvx2(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m256i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm256_set1_epi64x(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bmask + w));
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm256_and_si256(
                fire,
                _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cr[c] + w)),
                    inv[c]));
        __m256i *t = reinterpret_cast<__m256i *>(target + w);
        _mm256_storeu_si256(
            t, _mm256_xor_si256(_mm256_loadu_si256(t), fire));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        target[w] ^= fire;
    }
}

__attribute__((target("avx2"))) void
swapFireBlockAvx2(std::uint64_t *t0, std::uint64_t *t1,
                  const std::uint64_t *rows, std::size_t stride,
                  const EnsembleCtrl *ctrls, std::size_t nc,
                  const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireAvx2(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m256i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm256_set1_epi64x(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i fire = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(bmask + w));
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm256_and_si256(
                fire,
                _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i *>(cr[c] + w)),
                    inv[c]));
        __m256i *p0 = reinterpret_cast<__m256i *>(t0 + w);
        __m256i *p1 = reinterpret_cast<__m256i *>(t1 + w);
        const __m256i v0 = _mm256_loadu_si256(p0);
        const __m256i v1 = _mm256_loadu_si256(p1);
        const __m256i diff =
            _mm256_and_si256(_mm256_xor_si256(v0, v1), fire);
        _mm256_storeu_si256(p0, _mm256_xor_si256(v0, diff));
        _mm256_storeu_si256(p1, _mm256_xor_si256(v1, diff));
    }
    for (; w < nw; ++w) {
        std::uint64_t fire = bmask[w];
        for (std::size_t c = 0; c < nc && fire; ++c)
            fire &= cr[c][w] ^ ctrls[c].invert;
        const std::uint64_t diff = (t0[w] ^ t1[w]) & fire;
        t0[w] ^= diff;
        t1[w] ^= diff;
    }
}

__attribute__((target("avx2"))) void
xorRowBlockAvx2(std::uint64_t *dst, const std::uint64_t *src,
                std::size_t pw, std::size_t n)
{
    if (4 % pw == 0) {
        // Slices that divide a vector: one contiguous sweep against
        // the repeated row.
        const __m256i sv = broadcastRowAvx2(src, pw);
        const std::size_t total = n * pw;
        std::size_t j = 0;
        for (; j + 4 <= total; j += 4) {
            __m256i *d = reinterpret_cast<__m256i *>(dst + j);
            _mm256_storeu_si256(
                d, _mm256_xor_si256(_mm256_loadu_si256(d), sv));
        }
        for (; j < total; ++j)
            dst[j] ^= src[j % pw];
        return;
    }
    if (pw == 8) {
        // One cache line per slice: both source vectors stay resident.
        const __m256i s0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src));
        const __m256i s1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(src + 4));
        for (std::size_t s = 0; s < n; ++s, dst += 8) {
            __m256i *d0 = reinterpret_cast<__m256i *>(dst);
            __m256i *d1 = reinterpret_cast<__m256i *>(dst + 4);
            _mm256_storeu_si256(
                d0, _mm256_xor_si256(_mm256_loadu_si256(d0), s0));
            _mm256_storeu_si256(
                d1, _mm256_xor_si256(_mm256_loadu_si256(d1), s1));
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        xorRowAvx2(dst, src, pw);
}

__attribute__((target("avx2"))) void
diffOrBlockAvx2(std::uint64_t *dev, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t pw, std::size_t n,
                std::uint64_t *anyOut)
{
    if (4 % pw == 0) {
        // Slices that divide a vector: 4 / pw slices per step against
        // the repeated row; nonzero lanes give their flags.
        const __m256i bv = broadcastRowAvx2(b, pw);
        const std::size_t per = 4 / pw;
        std::size_t s = 0;
        for (; s + per <= n; s += per, a += 4, dev += 4) {
            const __m256i d = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a)),
                bv);
            __m256i *dv = reinterpret_cast<__m256i *>(dev);
            _mm256_storeu_si256(
                dv, _mm256_or_si256(_mm256_loadu_si256(dv), d));
            flagsFromLanes(nonzeroLanesAvx2(d), pw, per, anyOut + s);
        }
        for (; s < n; ++s, a += pw, dev += pw)
            anyOut[s] = diffOrAvx2(dev, a, b, pw);
        return;
    }
    if (pw == 8) {
        const __m256i b0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b));
        const __m256i b1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + 4));
        for (std::size_t s = 0; s < n; ++s, dev += 8, a += 8) {
            const __m256i d0 = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a)),
                b0);
            const __m256i d1 = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + 4)),
                b1);
            __m256i *v0 = reinterpret_cast<__m256i *>(dev);
            __m256i *v1 = reinterpret_cast<__m256i *>(dev + 4);
            _mm256_storeu_si256(
                v0, _mm256_or_si256(_mm256_loadu_si256(v0), d0));
            _mm256_storeu_si256(
                v1, _mm256_or_si256(_mm256_loadu_si256(v1), d1));
            const __m256i acc = _mm256_or_si256(d0, d1);
            anyOut[s] = !_mm256_testz_si256(acc, acc);
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw)
        anyOut[s] = diffOrAvx2(dev, a, b, pw);
}

constexpr RowKernels kAvx2 = {xorFireBlockAvx2, swapFireBlockAvx2,
                              xorRowBlockAvx2, diffOrBlockAvx2};

// ----------------------------------------------------------- AVX-512

// Per-row fallbacks, as in the AVX2 tier.

__attribute__((target("avx512f"))) void
xorFireAvx512(std::uint64_t *target, const std::uint64_t *rows,
              std::size_t stride, const EnsembleCtrl *ctrls,
              std::size_t nc, const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(vmask + w);
        for (std::size_t c = 0; c < nc; ++c) {
            const __m512i row = _mm512_loadu_si512(
                rows + std::size_t(ctrls[c].qubit) * stride + w);
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(
                          row, _mm512_set1_epi64(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        _mm512_storeu_si512(
            target + w,
            _mm512_xor_si512(_mm512_loadu_si512(target + w), fire));
    }
    if (w < nw)
        xorFireScalar(target + w, rows + w, stride, ctrls, nc,
                      vmask + w, nw - w);
}

__attribute__((target("avx512f"))) void
swapFireAvx512(std::uint64_t *t0, std::uint64_t *t1,
               const std::uint64_t *rows, std::size_t stride,
               const EnsembleCtrl *ctrls, std::size_t nc,
               const std::uint64_t *vmask, std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(vmask + w);
        for (std::size_t c = 0; c < nc; ++c) {
            const __m512i row = _mm512_loadu_si512(
                rows + std::size_t(ctrls[c].qubit) * stride + w);
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(
                          row, _mm512_set1_epi64(static_cast<long long>(
                                   ctrls[c].invert))));
        }
        const __m512i v0 = _mm512_loadu_si512(t0 + w);
        const __m512i v1 = _mm512_loadu_si512(t1 + w);
        const __m512i diff =
            _mm512_and_si512(_mm512_xor_si512(v0, v1), fire);
        _mm512_storeu_si512(t0 + w, _mm512_xor_si512(v0, diff));
        _mm512_storeu_si512(t1 + w, _mm512_xor_si512(v1, diff));
    }
    if (w < nw)
        swapFireScalar(t0 + w, t1 + w, rows + w, stride, ctrls, nc,
                       vmask + w, nw - w);
}

/** Lanes [0, n) of a vector step, n <= 8 (a tail's load/store mask). */
inline __mmask8
tailMask(std::size_t n)
{
    return static_cast<__mmask8>((1u << n) - 1);
}

/** A 1-, 2-, 4- or 8-word row repeated across an 8-word vector. */
__attribute__((target("avx512f"))) inline __m512i
broadcastRowAvx512(const std::uint64_t *row, std::size_t pw)
{
    if (pw == 1)
        return _mm512_set1_epi64(static_cast<long long>(row[0]));
    if (pw == 2)
        return _mm512_broadcast_i32x4(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(row)));
    if (pw == 4)
        return _mm512_broadcast_i64x4(
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row)));
    return _mm512_loadu_si512(row);
}

__attribute__((target("avx512f"))) void
xorRowAvx512(std::uint64_t *dst, const std::uint64_t *src,
             std::size_t nw)
{
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8)
        _mm512_storeu_si512(
            dst + w, _mm512_xor_si512(_mm512_loadu_si512(dst + w),
                                      _mm512_loadu_si512(src + w)));
    if (w < nw) {
        const __mmask8 k = tailMask(nw - w);
        _mm512_mask_storeu_epi64(
            dst + w, k,
            _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, dst + w),
                             _mm512_maskz_loadu_epi64(k, src + w)));
    }
}

__attribute__((target("avx512f"))) std::uint64_t
diffOrAvx512(std::uint64_t *dev, const std::uint64_t *a,
             const std::uint64_t *b, std::size_t nw)
{
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        const __m512i d = _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                           _mm512_loadu_si512(b + w));
        _mm512_storeu_si512(
            dev + w,
            _mm512_or_si512(_mm512_loadu_si512(dev + w), d));
        acc = _mm512_or_si512(acc, d);
    }
    if (w < nw) {
        const __mmask8 k = tailMask(nw - w);
        const __m512i d =
            _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, a + w),
                             _mm512_maskz_loadu_epi64(k, b + w));
        _mm512_mask_storeu_epi64(
            dev + w, k,
            _mm512_or_si512(_mm512_maskz_loadu_epi64(k, dev + w), d));
        acc = _mm512_or_si512(acc, d);
    }
    return _mm512_test_epi64_mask(acc, acc) != 0;
}

__attribute__((target("avx512f"))) void
xorFireBlockAvx512(std::uint64_t *target, const std::uint64_t *rows,
                   std::size_t stride, const EnsembleCtrl *ctrls,
                   std::size_t nc, const std::uint64_t *bmask,
                   std::size_t nw)
{
    if (nc > kCtrlHoist) {
        xorFireAvx512(target, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m512i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm512_set1_epi64(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(_mm512_loadu_si512(cr[c] + w),
                                       inv[c]));
        _mm512_storeu_si512(
            target + w,
            _mm512_xor_si512(_mm512_loadu_si512(target + w), fire));
    }
    if (w < nw) {
        const __mmask8 k = tailMask(nw - w);
        __m512i fire = _mm512_maskz_loadu_epi64(k, bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire,
                _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, cr[c] + w),
                                 inv[c]));
        _mm512_mask_storeu_epi64(
            target + w, k,
            _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, target + w),
                             fire));
    }
}

__attribute__((target("avx512f"))) void
swapFireBlockAvx512(std::uint64_t *t0, std::uint64_t *t1,
                    const std::uint64_t *rows, std::size_t stride,
                    const EnsembleCtrl *ctrls, std::size_t nc,
                    const std::uint64_t *bmask, std::size_t nw)
{
    if (nc > kCtrlHoist) {
        swapFireAvx512(t0, t1, rows, stride, ctrls, nc, bmask, nw);
        return;
    }
    const std::uint64_t *cr[kCtrlHoist];
    __m512i inv[kCtrlHoist];
    for (std::size_t c = 0; c < nc; ++c) {
        cr[c] = rows + std::size_t(ctrls[c].qubit) * stride;
        inv[c] = _mm512_set1_epi64(
            static_cast<long long>(ctrls[c].invert));
    }
    std::size_t w = 0;
    for (; w + 8 <= nw; w += 8) {
        __m512i fire = _mm512_loadu_si512(bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire, _mm512_xor_si512(_mm512_loadu_si512(cr[c] + w),
                                       inv[c]));
        const __m512i v0 = _mm512_loadu_si512(t0 + w);
        const __m512i v1 = _mm512_loadu_si512(t1 + w);
        const __m512i diff =
            _mm512_and_si512(_mm512_xor_si512(v0, v1), fire);
        _mm512_storeu_si512(t0 + w, _mm512_xor_si512(v0, diff));
        _mm512_storeu_si512(t1 + w, _mm512_xor_si512(v1, diff));
    }
    if (w < nw) {
        const __mmask8 k = tailMask(nw - w);
        __m512i fire = _mm512_maskz_loadu_epi64(k, bmask + w);
        for (std::size_t c = 0; c < nc; ++c)
            fire = _mm512_and_si512(
                fire,
                _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, cr[c] + w),
                                 inv[c]));
        const __m512i v0 = _mm512_maskz_loadu_epi64(k, t0 + w);
        const __m512i v1 = _mm512_maskz_loadu_epi64(k, t1 + w);
        const __m512i diff =
            _mm512_and_si512(_mm512_xor_si512(v0, v1), fire);
        _mm512_mask_storeu_epi64(t0 + w, k, _mm512_xor_si512(v0, diff));
        _mm512_mask_storeu_epi64(t1 + w, k, _mm512_xor_si512(v1, diff));
    }
}

__attribute__((target("avx512f"))) void
xorRowBlockAvx512(std::uint64_t *dst, const std::uint64_t *src,
                  std::size_t pw, std::size_t n)
{
    if (8 % pw == 0) {
        // Slices that divide a vector (a cache line): one contiguous
        // sweep against the repeated row.
        const __m512i sv = broadcastRowAvx512(src, pw);
        const std::size_t total = n * pw;
        std::size_t j = 0;
        for (; j + 8 <= total; j += 8)
            _mm512_storeu_si512(
                dst + j,
                _mm512_xor_si512(_mm512_loadu_si512(dst + j), sv));
        if (j < total) {
            const __mmask8 k = tailMask(total - j);
            _mm512_mask_storeu_epi64(
                dst + j, k,
                _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, dst + j),
                                 sv));
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dst += pw)
        xorRowAvx512(dst, src, pw);
}

__attribute__((target("avx512f"))) void
diffOrBlockAvx512(std::uint64_t *dev, const std::uint64_t *a,
                  const std::uint64_t *b, std::size_t pw,
                  std::size_t n, std::uint64_t *anyOut)
{
    if (8 % pw == 0) {
        // Slices that divide a vector: 8 / pw slices per step against
        // the repeated row; the lane mask of the diffs gives their
        // flags.
        const __m512i bv = broadcastRowAvx512(b, pw);
        const std::size_t per = 8 / pw;
        std::size_t s = 0;
        for (; s + per <= n; s += per, a += 8, dev += 8) {
            const __m512i d = _mm512_xor_si512(_mm512_loadu_si512(a), bv);
            _mm512_storeu_si512(
                dev, _mm512_or_si512(_mm512_loadu_si512(dev), d));
            flagsFromLanes(_mm512_test_epi64_mask(d, d), pw, per,
                           anyOut + s);
        }
        if (s < n) {
            const __mmask8 k = tailMask((n - s) * pw);
            const __m512i d =
                _mm512_xor_si512(_mm512_maskz_loadu_epi64(k, a), bv);
            _mm512_mask_storeu_epi64(
                dev, k,
                _mm512_or_si512(_mm512_maskz_loadu_epi64(k, dev), d));
            flagsFromLanes(_mm512_mask_test_epi64_mask(k, d, d), pw,
                           n - s, anyOut + s);
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s, dev += pw, a += pw)
        anyOut[s] = diffOrAvx512(dev, a, b, pw);
}

constexpr RowKernels kAvx512 = {xorFireBlockAvx512, swapFireBlockAvx512,
                                xorRowBlockAvx512, diffOrBlockAvx512};

#endif // QRAMSIM_SIMD_X86

Tier
detectBestTier()
{
#ifdef QRAMSIM_SIMD_X86
    if (__builtin_cpu_supports("avx512f"))
        return Tier::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Tier::Avx2;
#endif
    return Tier::Scalar;
}

Tier
initialTier()
{
    if (const char *env = std::getenv("QRAMSIM_SIMD")) {
        Tier t = Tier::Scalar;
        if (parseTier(env, t) && tierSupported(t))
            return t;
        warn("QRAMSIM_SIMD='", env,
             "' unknown or unsupported on this CPU; using ",
             tierName(detectBestTier()));
    }
    return detectBestTier();
}

std::atomic<Tier> &
activeTierSlot()
{
    static std::atomic<Tier> tier{initialTier()};
    return tier;
}

} // namespace

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Scalar: return "scalar";
      case Tier::Avx2:   return "avx2";
      case Tier::Avx512: return "avx512";
    }
    return "?";
}

bool
parseTier(const char *name, Tier &out)
{
    for (Tier t : {Tier::Scalar, Tier::Avx2, Tier::Avx512}) {
        if (std::strcmp(name, tierName(t)) == 0) {
            out = t;
            return true;
        }
    }
    return false;
}

bool
tierSupported(Tier t)
{
    switch (t) {
      case Tier::Scalar:
        return true;
#ifdef QRAMSIM_SIMD_X86
      case Tier::Avx2:
        return __builtin_cpu_supports("avx2");
      case Tier::Avx512:
        return __builtin_cpu_supports("avx512f");
#endif
      default:
        return false;
    }
}

Tier
bestSupportedTier()
{
    return detectBestTier();
}

const RowKernels &
kernels(Tier t)
{
#ifdef QRAMSIM_SIMD_X86
    if (t == Tier::Avx512)
        return kAvx512;
    if (t == Tier::Avx2)
        return kAvx2;
#endif
    (void)t;
    return kScalar;
}

Tier
activeTier()
{
    return activeTierSlot().load(std::memory_order_relaxed);
}

Tier
setActiveTier(Tier t)
{
    if (!tierSupported(t))
        t = bestSupportedTier();
    activeTierSlot().store(t, std::memory_order_relaxed);
    return t;
}

const RowKernels &
activeKernels()
{
    return kernels(activeTier());
}

} // namespace qramsim::simd
