/**
 * @file
 * Bit-sliced ensemble of Feynman paths.
 *
 * The scalar engine stores one BitVec per path (qubit bits packed into
 * words). QRAM gates are classical-reversible, so paths never branch
 * and every path of a shot marches through the identical op sequence —
 * the state is embarrassingly data-parallel *across paths*. This
 * container stores the transpose: for each qubit, a packed
 * bit-across-paths word vector, so one word-level AND/XOR advances 64
 * paths at once. Phases stay per-path (a complex<double> each) because
 * diagonal ops multiply path-dependent factors.
 *
 * Layout: row q occupies words [q * wordsPerQubit(), (q + 1) *
 * wordsPerQubit()); bit k of word w in a row is path 64 * w + k. The
 * row stride is padded up to simd::kRowAlignWords and the storage is
 * 64-byte aligned, so every row starts on a cache-line boundary and
 * the SIMD kernels (common/simd.hh) sweep whole rows in full vector
 * steps. Bits of the last data word at positions >= numPaths() and
 * all bits of the padding words are tail bits; every operation
 * preserves the invariant that tail bits are zero (kernels mask fire
 * words with the validMask row), so row-level equality and popcounts
 * never see garbage.
 *
 * EnsembleBlock, below, fuses K shots' ensembles into one arena for
 * the op-major replay loop of sim/feynman.cc. That loop is the only
 * ensemble op loop: a PathEnsemble enters it as a one-shot arena.
 */

#ifndef QRAMSIM_COMMON_PATHENSEMBLE_HH
#define QRAMSIM_COMMON_PATHENSEMBLE_HH

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.hh"
#include "common/logging.hh"
#include "common/simd.hh"

namespace qramsim {

/**
 * Fixed-shape-after-construction ensemble of paths: per-qubit packed
 * bit rows plus per-path phase accumulators.
 */
class PathEnsemble
{
  public:
    PathEnsemble() = default;

    /** All-zero ensemble of @p npaths paths over @p nqubits qubits. */
    PathEnsemble(std::size_t nqubits, std::size_t npaths)
        : nq(nqubits), np(npaths), dw((npaths + 63) / 64),
          pw(padStride((npaths + 63) / 64)),
          bits(nqubits * padStride((npaths + 63) / 64), 0),
          vmask(padStride((npaths + 63) / 64), 0),
          phases(npaths, {1.0, 0.0})
    {
        for (std::size_t w = 0; w < dw; ++w)
            vmask[w] = ~std::uint64_t(0);
        if (np & 63)
            vmask[dw - 1] = (std::uint64_t(1) << (np & 63)) - 1;
    }

    std::size_t numQubits() const { return nq; }
    std::size_t numPaths() const { return np; }

    /**
     * Row stride in words: (numPaths + 63) / 64 rounded up to
     * simd::kRowAlignWords so each row is 64-byte aligned. Words past
     * the data words are padding and always zero.
     */
    std::size_t wordsPerQubit() const { return pw; }

    /** Words actually holding path bits: (numPaths + 63) / 64. */
    std::size_t dataWords() const { return dw; }

    /// @name Row access
    ///
    /// The hot kernels (the op-major replay of sim/feynman.cc) index
    /// rows without bounds checks; callers must keep q < numQubits()
    /// and preserve the tail-bit invariant when writing.
    /// @{

    std::uint64_t *row(std::size_t q) { return bits.data() + q * pw; }

    const std::uint64_t *
    row(std::size_t q) const
    {
        return bits.data() + q * pw;
    }

    std::uint64_t *rowData() { return bits.data(); }
    const std::uint64_t *rowData() const { return bits.data(); }

    /**
     * Mask of valid (non-tail) path bits in row word @p w — all ones
     * except possibly the last data word, and zero for the padding
     * words. Fire masks are ANDed with this so broadcast ops never
     * touch tail bits.
     */
    std::uint64_t
    validMask(std::size_t w) const
    {
        return w < pw ? vmask[w] : 0;
    }

    /**
     * The valid-mask row itself (wordsPerQubit() words, aligned) —
     * what the SIMD kernels seed their fire masks from.
     */
    const std::uint64_t *validMask() const { return vmask.data(); }

    /// @}

    /// @name One-shot arena view
    ///
    /// The EnsembleBlock accessors of a one-shot arena whose only
    /// shot is always joined, so the op-major replay loop
    /// (FeynmanExecutor::runSpanEnsemble) advances an ensemble in
    /// place: its mask row is the valid mask and join() is a no-op.
    /// @{

    std::size_t numShots() const { return 1; }
    std::size_t rowWords() const { return pw; }
    const std::uint64_t *maskRow() const { return vmask.data(); }
    std::uint64_t *row(std::size_t q, std::size_t) { return row(q); }
    std::complex<double> *phaseSlice(std::size_t) { return phaseData(); }
    void join(std::size_t) {}

    /// @}

    bool
    get(std::size_t q, std::size_t k) const
    {
        QRAMSIM_ASSERT(q < nq && k < np, "ensemble index out of range");
        return (bits[q * pw + (k >> 6)] >> (k & 63)) & 1;
    }

    void
    set(std::size_t q, std::size_t k, bool v)
    {
        QRAMSIM_ASSERT(q < nq && k < np, "ensemble index out of range");
        const std::uint64_t m = std::uint64_t(1) << (k & 63);
        if (v)
            bits[q * pw + (k >> 6)] |= m;
        else
            bits[q * pw + (k >> 6)] &= ~m;
    }

    std::complex<double> &phase(std::size_t k) { return phases[k]; }

    const std::complex<double> &
    phase(std::size_t k) const
    {
        return phases[k];
    }

    std::complex<double> *phaseData() { return phases.data(); }
    const std::complex<double> *phaseData() const
    {
        return phases.data();
    }

    /** Insert path @p k as a column: bits from @p b, phase @p ph. */
    void
    scatterPath(std::size_t k, const BitVec &b,
                std::complex<double> ph = {1.0, 0.0})
    {
        QRAMSIM_ASSERT(b.size() == nq, "path width mismatch");
        const std::size_t kw = k >> 6;
        const std::uint64_t km = std::uint64_t(1) << (k & 63);
        for (std::size_t q = 0; q < nq; ++q) {
            if (b.get(q))
                bits[q * pw + kw] |= km;
            else
                bits[q * pw + kw] &= ~km;
        }
        phases[k] = ph;
    }

    /** Extract path @p k's bits into @p out (resized word writes). */
    void
    gatherPath(std::size_t k, BitVec &out) const
    {
        QRAMSIM_ASSERT(out.size() == nq, "path width mismatch");
        const std::size_t kw = k >> 6;
        const std::uint64_t km = std::uint64_t(1) << (k & 63);
        std::uint64_t *ow = out.wordData();
        const std::size_t onw = out.numWords();
        for (std::size_t w = 0; w < onw; ++w)
            ow[w] = 0;
        const std::uint64_t *b = bits.data() + kw;
        for (std::size_t q = 0; q < nq; ++q)
            if (b[q * pw] & km)
                ow[q >> 6] |= std::uint64_t(1) << (q & 63);
    }

    bool
    operator==(const PathEnsemble &o) const
    {
        return nq == o.nq && np == o.np && bits == o.bits &&
               phases == o.phases;
    }

    bool operator!=(const PathEnsemble &o) const { return !(*this == o); }

  private:
    static std::size_t
    padStride(std::size_t words)
    {
        const std::size_t a = simd::kRowAlignWords;
        return (words + a - 1) / a * a;
    }

    std::size_t nq = 0;  ///< qubits (rows)
    std::size_t np = 0;  ///< paths (columns)
    std::size_t dw = 0;  ///< data words per row
    std::size_t pw = 0;  ///< padded row stride in words
    simd::AlignedWords bits;
    simd::AlignedWords vmask; ///< validMask per row word (pads zero)
    std::vector<std::complex<double>> phases;
};

/**
 * Fused arena for op-major batched replay: the states of K batched
 * shots' ensembles in one 64-byte-aligned allocation, laid out
 * qubit-major, shot-minor. Qubit q's "block row" holds every shot's
 * padded word-row back to back:
 *
 *   blockRow(q) = [ shot 0 row | shot 1 row | ... | shot K-1 row ]
 *
 * each slice wordsPerQubit() words (the PathEnsemble stride, a
 * multiple of simd::kRowAlignWords), so every slice starts on a cache
 * line and one contiguous kernel sweep of rowWords() words applies
 * one op to all shots at once (the xorFireBlock/swapFireBlock
 * kernels of common/simd.hh). Phase accumulators are per shot, per
 * path (phaseSlice). Shots replaying from different checkpoints stay
 * exact through the mask row: it concatenates, per shot, either the
 * valid mask (shot has joined the replay) or zeros (not yet joined),
 * so ops sweep every slice but can only ever touch joined shots'
 * bits — and tail/padding bits of no one.
 *
 * The shape is a reusable scratch: reshape() resizes storage (reusing
 * capacity across batches), clears every mask slice, and leaves the
 * bit slices unspecified until loaded (loadShot or per-row copies
 * from checkpoint ensembles).
 */
class EnsembleBlock
{
  public:
    EnsembleBlock() = default;

    /** Shape for @p nshots shots of @p npaths paths over @p nqubits
     *  qubits; no shot is joined, slice bits are unspecified. */
    void
    reshape(std::size_t nqubits, std::size_t npaths,
            std::size_t nshots)
    {
        nq = nqubits;
        np = npaths;
        ns = nshots;
        dw = (npaths + 63) / 64;
        pw = padStride(dw);
        bits.resize(nq * ns * pw);
        mask.assign(ns * pw, 0);
        vmask.assign(pw, 0);
        for (std::size_t w = 0; w < dw; ++w)
            vmask[w] = ~std::uint64_t(0);
        if (np & 63)
            vmask[dw - 1] = (std::uint64_t(1) << (np & 63)) - 1;
        phases.resize(ns * np);
        joinedFlags.assign(ns, 0);
    }

    std::size_t numQubits() const { return nq; }
    std::size_t numPaths() const { return np; }
    std::size_t numShots() const { return ns; }

    /** Words per shot slice: the PathEnsemble row stride. */
    std::size_t wordsPerQubit() const { return pw; }

    /** Words actually holding path bits in a slice. */
    std::size_t dataWords() const { return dw; }

    /** Words per qubit block row: numShots() * wordsPerQubit(). */
    std::size_t rowWords() const { return ns * pw; }

    std::uint64_t *rowData() { return bits.data(); }
    const std::uint64_t *rowData() const { return bits.data(); }

    /** Qubit @p q's fused row (all shots' slices, rowWords() words). */
    std::uint64_t *blockRow(std::size_t q)
    {
        return bits.data() + q * ns * pw;
    }

    const std::uint64_t *
    blockRow(std::size_t q) const
    {
        return bits.data() + q * ns * pw;
    }

    /** Shot @p s's slice of qubit @p q's block row. */
    std::uint64_t *
    row(std::size_t q, std::size_t s)
    {
        return bits.data() + (q * ns + s) * pw;
    }

    const std::uint64_t *
    row(std::size_t q, std::size_t s) const
    {
        return bits.data() + (q * ns + s) * pw;
    }

    /** The combined join/valid mask row (rowWords() words). */
    const std::uint64_t *maskRow() const { return mask.data(); }

    /** One shot's valid-mask template (wordsPerQubit() words). */
    const std::uint64_t *validMask() const { return vmask.data(); }

    /** Phase accumulators of shot @p s (numPaths() entries). */
    std::complex<double> *phaseSlice(std::size_t s)
    {
        return phases.data() + s * np;
    }

    const std::complex<double> *
    phaseSlice(std::size_t s) const
    {
        return phases.data() + s * np;
    }

    bool joined(std::size_t s) const { return joinedFlags[s] != 0; }

    /** Open shot @p s's mask slice: ops now apply to its rows. A
     *  no-op for a shot that has already joined. */
    void
    join(std::size_t s)
    {
        if (joinedFlags[s])
            return;
        std::uint64_t *m = mask.data() + s * pw;
        for (std::size_t w = 0; w < pw; ++w)
            m[w] = vmask[w];
        joinedFlags[s] = 1;
    }

    /** Copy shot @p s's state (all rows + phases) from @p ens. */
    void
    loadShot(std::size_t s, const PathEnsemble &ens)
    {
        QRAMSIM_ASSERT(ens.numQubits() == nq &&
                           ens.numPaths() == np &&
                           ens.wordsPerQubit() == pw,
                       "ensemble/block shape mismatch");
        for (std::size_t q = 0; q < nq; ++q) {
            const std::uint64_t *src = ens.row(q);
            std::uint64_t *dst = row(q, s);
            for (std::size_t w = 0; w < pw; ++w)
                dst[w] = src[w];
        }
        const std::complex<double> *ph = ens.phaseData();
        std::complex<double> *dst = phaseSlice(s);
        for (std::size_t k = 0; k < np; ++k)
            dst[k] = ph[k];
    }

    bool
    get(std::size_t q, std::size_t s, std::size_t k) const
    {
        QRAMSIM_ASSERT(q < nq && s < ns && k < np,
                       "block index out of range");
        return (row(q, s)[k >> 6] >> (k & 63)) & 1;
    }

  private:
    static std::size_t
    padStride(std::size_t words)
    {
        const std::size_t a = simd::kRowAlignWords;
        return (words + a - 1) / a * a;
    }

    std::size_t nq = 0; ///< qubits (block rows)
    std::size_t np = 0; ///< paths per shot (slice columns)
    std::size_t ns = 0; ///< batched shots (slices per block row)
    std::size_t dw = 0; ///< data words per slice
    std::size_t pw = 0; ///< padded slice stride in words
    simd::AlignedWords bits;  ///< nq * ns * pw fused rows
    simd::AlignedWords mask;  ///< ns * pw join/valid mask row
    simd::AlignedWords vmask; ///< pw-word per-shot valid template
    std::vector<std::complex<double>> phases; ///< ns * np
    std::vector<std::uint8_t> joinedFlags;    ///< per-shot join bit
};

} // namespace qramsim

#endif // QRAMSIM_COMMON_PATHENSEMBLE_HH
