/**
 * @file
 * Runtime-dispatched SIMD kernels for the bit-sliced ensemble rows.
 *
 * The hot loops of the ensemble engine (the op-major replay of
 * sim/feynman.cc and the estimator's deviation-mask / Z-parity
 * reductions) are pure word-level AND/XOR sweeps over packed
 * bit-across-paths rows (common/pathensemble.hh). Those sweeps are
 * expressed here as four block kernels over the fused multi-shot
 * EnsembleBlock arena (a single row is a one-slice block), each
 * provided in three tiers — portable scalar, AVX2 (4 words per step),
 * AVX-512F (8 words per step) — compiled with per-function target
 * attributes so one binary carries all tiers and picks the widest one
 * the CPU supports at runtime (overridable via the QRAMSIM_SIMD
 * environment variable or setActiveTier, which the differential tests
 * use to pin a tier).
 *
 * Every kernel is pure bit arithmetic, so all tiers are bit-identical
 * by construction; tests/test_block_replay.cc enforces it against a
 * plain reference loop, and tests/test_simd.cc on full circuits.
 *
 * Rows are dense: a shot's row is its data words, ceil(paths / 64),
 * with no padding (a 256-path row is 4 words). The kernels use
 * unaligned loads, and masked or scalar tails, so any word count and
 * any buffer is legal. EnsembleBlock pads only the end of each block
 * row to kRowAlignWords, so the fire sweeps over block rows run whole
 * vector steps from a cache-line boundary. The row-flip and deviation
 * kernels sweep slices whose width divides a vector (1, 2 and 4
 * words, and 8 under AVX-512) as one contiguous run against the
 * shared row repeated across the vector, instead of one short step
 * per slice.
 */

#ifndef QRAMSIM_COMMON_SIMD_HH
#define QRAMSIM_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace qramsim {

/**
 * One ensemble control term: an op fires for the paths whose bit of
 * @c qubit matches the polarity. A compiled op's control list is a
 * conjunction of these; evaluating them over one row word yields a
 * 64-path fire mask. Lives here (not pathensemble.hh) because it is
 * part of the kernel ABI.
 */
struct EnsembleCtrl
{
    std::uint32_t qubit;
    /** 0 for a positive control, ~0ull for a negative one. */
    std::uint64_t invert;
};

namespace simd {

/** Row alignment in bytes: one cache line == one AVX-512 vector. */
inline constexpr std::size_t kRowAlign = 64;

/** Block-row stride granularity in 64-bit words. */
inline constexpr std::size_t kRowAlignWords = kRowAlign / 8;

/** Minimal 64-byte-aligning allocator for the packed row storage. */
template <class T>
struct AlignedAlloc
{
    using value_type = T;

    AlignedAlloc() = default;

    template <class U>
    AlignedAlloc(const AlignedAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(kRowAlign)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(kRowAlign));
    }

    template <class U>
    bool
    operator==(const AlignedAlloc<U> &) const noexcept
    {
        return true;
    }
};

/** 64-byte-aligned word buffer (rows, parity/deviation scratch). */
using AlignedWords = std::vector<std::uint64_t, AlignedAlloc<std::uint64_t>>;

/** Kernel tiers, widest last. */
enum class Tier : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/** Lowercase tier name ("scalar", "avx2", "avx512"). */
const char *tierName(Tier t);

/** The tier @p name names (a tierName spelling); false if none. */
bool parseTier(const char *name, Tier &out);

/**
 * The kernel ABI: four sweeps over the fused EnsembleBlock arena
 * (common/pathensemble.hh). A qubit's "block row" concatenates every
 * batched shot's dense word-row back to back, so one contiguous
 * sweep applies one op to all shots at once; a single row is the
 * one-shot case. Control rows are addressed as @p rows +
 * ctrls[c].qubit * @p stride, and the fire mask of word w is
 *
 *   bmask[w] & AND_c (rows[ctrls[c].qubit * stride + w] ^ ctrls[c].invert)
 *
 * @p bmask is the arena's combined mask row — the per-shot valid mask
 * for shots that have joined the replay, all-zero slices for shots
 * that have not — which keeps shots entering at different checkpoints
 * exact (an op can never touch a slice whose shot has not reached it)
 * and carries the tail and pad zeros, so no kernel ever flips an
 * invalid path bit. Block rows start on a cache line and hold a
 * multiple of kRowAlignWords words, so the fire kernels run whole
 * vector steps over them; a one-shot arena's row of fewer words ends
 * in a masked (AVX-512) or scalar tail.
 */
struct RowKernels
{
    /** Controlled X over the arena: target[w] ^= fire(w), w in [0, nw). */
    void (*xorFireBlock)(std::uint64_t *target, const std::uint64_t *rows,
                         std::size_t stride, const EnsembleCtrl *ctrls,
                         std::size_t nc, const std::uint64_t *bmask,
                         std::size_t nw);

    /** Controlled Swap over the arena: masked XOR-swap of two block rows. */
    void (*swapFireBlock)(std::uint64_t *t0, std::uint64_t *t1,
                          const std::uint64_t *rows, std::size_t stride,
                          const EnsembleCtrl *ctrls, std::size_t nc,
                          const std::uint64_t *bmask, std::size_t nw);

    /**
     * Broadcast row flip: dst[s*pw + w] ^= src[w] for every shot slice
     * s in [0, n), w in [0, pw). The Pauli events of the replay (X and
     * Y flip a slice with src = the shot valid mask; Z and Y XOR a
     * slice into the shot's sign row), and the Z-parity snapshot
     * reduction of the estimator, all with n = 1. src stays
     * register-resident across slices.
     */
    void (*xorRowBlock)(std::uint64_t *dst, const std::uint64_t *src,
                        std::size_t pw, std::size_t n);

    /**
     * Per-slice deviation accumulate against one shared row:
     * dev[s*pw + w] |= a[s*pw + w] ^ b[w], and anyOut[s] = 1 if any
     * of slice s's diff words is nonzero, else 0 — comparing every
     * batched shot's row of one qubit against the single ideal row in
     * one sweep.
     */
    void (*diffOrBlock)(std::uint64_t *dev, const std::uint64_t *a,
                        const std::uint64_t *b, std::size_t pw,
                        std::size_t n, std::uint64_t *anyOut);
};

/** True if this build + CPU can execute @p t's kernels. */
bool tierSupported(Tier t);

/** The widest tier the running CPU supports. */
Tier bestSupportedTier();

/**
 * Kernel table of @p t. Calling an unsupported tier's kernels is
 * undefined (illegal instruction); guard with tierSupported.
 */
const RowKernels &kernels(Tier t);

/**
 * The tier the engine dispatches to. Initialized on first use to
 * bestSupportedTier(), or to the QRAMSIM_SIMD environment variable
 * ("scalar" / "avx2" / "avx512") when set and supported.
 */
Tier activeTier();

/**
 * Force the dispatch tier (clamped to the best supported one when the
 * request is unavailable); returns the tier actually selected. For
 * tests and benchmarks — not thread-safe against concurrently running
 * engines, so switch only between runs.
 */
Tier setActiveTier(Tier t);

/** Kernel table of the active tier. */
const RowKernels &activeKernels();

} // namespace simd
} // namespace qramsim

#endif // QRAMSIM_COMMON_SIMD_HH
