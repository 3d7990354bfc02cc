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
 * row stride is the data words, ceil(numPaths() / 64), with no
 * padding, so every op sweep, copy and checkpoint moves only words
 * that hold paths (a 256-path row is 4 words, not a cache line). The
 * storage itself is 64-byte aligned; the SIMD kernels (common/simd.hh)
 * use unaligned and masked loads, so rows need no alignment of their
 * own. Bits of the last data word at positions >= numPaths() are tail
 * bits; every operation preserves the invariant that tail bits are
 * zero (kernels mask fire words with the validMask row), so row-level
 * equality and popcounts never see garbage.
 *
 * EnsembleBlock, below, fuses K shots' ensembles into one arena for
 * the op-major replay loop of sim/feynman.cc. That loop is the only
 * ensemble op loop: a PathEnsemble enters it as a one-shot arena.
 * Both arenas also hold the replay's Pauli frame (per shot, a sign row
 * and a quarter-turn count; see FeynmanExecutor::runSpanEnsembleBlock),
 * which is all zero outside a replay.
 */

#ifndef QRAMSIM_COMMON_PATHENSEMBLE_HH
#define QRAMSIM_COMMON_PATHENSEMBLE_HH

#include <algorithm>
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
          bits(nqubits * dw, 0), vmask(dw, 0),
          phases(npaths, {1.0, 0.0}), sign(dw, 0)
    {
        for (std::size_t w = 0; w < dw; ++w)
            vmask[w] = ~std::uint64_t(0);
        if (np & 63)
            vmask[dw - 1] = (std::uint64_t(1) << (np & 63)) - 1;
    }

    std::size_t numQubits() const { return nq; }
    std::size_t numPaths() const { return np; }

    /** Row stride in words: the data words, (numPaths + 63) / 64. */
    std::size_t wordsPerQubit() const { return dw; }

    /** Words holding path bits: the row stride, (numPaths + 63) / 64. */
    std::size_t dataWords() const { return dw; }

    /// @name Row access
    ///
    /// The hot kernels (the op-major replay of sim/feynman.cc) index
    /// rows without bounds checks; callers must keep q < numQubits()
    /// and preserve the tail-bit invariant when writing.
    /// @{

    std::uint64_t *row(std::size_t q) { return bits.data() + q * dw; }

    const std::uint64_t *
    row(std::size_t q) const
    {
        return bits.data() + q * dw;
    }

    std::uint64_t *rowData() { return bits.data(); }
    const std::uint64_t *rowData() const { return bits.data(); }

    /**
     * Mask of valid (non-tail) path bits in row word @p w — all ones
     * except possibly the last data word, and zero past the row. Fire
     * masks are ANDed with this so broadcast ops never touch tail
     * bits.
     */
    std::uint64_t
    validMask(std::size_t w) const
    {
        return w < dw ? vmask[w] : 0;
    }

    /**
     * The valid-mask row itself (wordsPerQubit() words) — what the
     * SIMD kernels seed their fire masks from.
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
    std::size_t rowWords() const { return dw; }
    const std::uint64_t *maskRow() const { return vmask.data(); }
    std::uint64_t *row(std::size_t q, std::size_t) { return row(q); }
    std::complex<double> *phaseSlice(std::size_t) { return phaseData(); }
    void join(std::size_t) {}
    std::uint64_t *signRow(std::size_t) { return sign.data(); }
    std::uint32_t &quarterTurns(std::size_t) { return turns; }
    std::uint32_t *nextStops() { return &next; }

    /// @}

    bool
    get(std::size_t q, std::size_t k) const
    {
        QRAMSIM_ASSERT(q < nq && k < np, "ensemble index out of range");
        return (bits[q * dw + (k >> 6)] >> (k & 63)) & 1;
    }

    void
    set(std::size_t q, std::size_t k, bool v)
    {
        QRAMSIM_ASSERT(q < nq && k < np, "ensemble index out of range");
        const std::uint64_t m = std::uint64_t(1) << (k & 63);
        if (v)
            bits[q * dw + (k >> 6)] |= m;
        else
            bits[q * dw + (k >> 6)] &= ~m;
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
                bits[q * dw + kw] |= km;
            else
                bits[q * dw + kw] &= ~km;
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
            if (b[q * dw] & km)
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
    std::size_t nq = 0;  ///< qubits (rows)
    std::size_t np = 0;  ///< paths (columns)
    std::size_t dw = 0;  ///< data words per row (the row stride)
    simd::AlignedWords bits;
    simd::AlignedWords vmask; ///< validMask per row word
    std::vector<std::complex<double>> phases;
    // The one-shot arena's Pauli frame and stop cursor: replay
    // scratch, zero outside a replay and not part of the value.
    simd::AlignedWords sign;
    std::uint32_t turns = 0;
    std::uint32_t next = 0;
};

/**
 * Fused arena for op-major batched replay: the states of K batched
 * shots' ensembles in one 64-byte-aligned allocation, laid out
 * qubit-major, shot-minor. Qubit q's "block row" holds every shot's
 * word-row back to back, then zero padding up to a multiple of
 * simd::kRowAlignWords:
 *
 *   blockRow(q) = [ shot 0 row | shot 1 row | ... | shot K-1 row | pad ]
 *
 * each slice wordsPerQubit() words (the PathEnsemble stride, the data
 * words; slices are dense, not padded), so every block row starts on
 * a cache line and one contiguous kernel sweep of rowWords() words
 * applies one op to all shots at once in whole vector steps (the
 * xorFireBlock/swapFireBlock kernels of common/simd.hh). Phase
 * accumulators are per shot, per path (phaseSlice). Shots replaying
 * from different checkpoints stay exact through the mask row: it
 * concatenates, per shot, either the valid mask (shot has joined the
 * replay) or zeros (not yet joined), and zeros over the pad, so ops
 * sweep every slice but can only ever touch joined shots' bits — and
 * tail or pad bits of no one.
 *
 * The shape is a reusable scratch: reshape() resizes storage (reusing
 * capacity across batches), clears every mask slice, the pad words
 * and the Pauli frame, and leaves the bit slices unspecified until
 * loaded (loadShot or per-row copies from checkpoint ensembles).
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
        const std::size_t a = simd::kRowAlignWords;
        rw = (ns * dw + a - 1) / a * a;
        bits.resize(nq * rw);
        if (rw != ns * dw)
            for (std::size_t q = 0; q < nq; ++q)
                std::fill(bits.begin() + q * rw + ns * dw,
                          bits.begin() + (q + 1) * rw, 0);
        mask.assign(rw, 0);
        vmask.assign(dw, 0);
        for (std::size_t w = 0; w < dw; ++w)
            vmask[w] = ~std::uint64_t(0);
        if (np & 63)
            vmask[dw - 1] = (std::uint64_t(1) << (np & 63)) - 1;
        phases.resize(ns * np);
        sign.assign(ns * dw, 0);
        turns.assign(ns, 0);
        next.resize(ns);
        joinedFlags.assign(ns, 0);
    }

    std::size_t numQubits() const { return nq; }
    std::size_t numPaths() const { return np; }
    std::size_t numShots() const { return ns; }

    /** Words per shot slice: the PathEnsemble row stride. */
    std::size_t wordsPerQubit() const { return dw; }

    /** Words holding path bits in a slice: the slice stride. */
    std::size_t dataWords() const { return dw; }

    /**
     * Words per qubit block row: numShots() * wordsPerQubit() rounded
     * up to simd::kRowAlignWords.
     */
    std::size_t rowWords() const { return rw; }

    std::uint64_t *rowData() { return bits.data(); }
    const std::uint64_t *rowData() const { return bits.data(); }

    /** Qubit @p q's fused row (all shots' slices, rowWords() words). */
    std::uint64_t *blockRow(std::size_t q)
    {
        return bits.data() + q * rw;
    }

    const std::uint64_t *
    blockRow(std::size_t q) const
    {
        return bits.data() + q * rw;
    }

    /** Shot @p s's slice of qubit @p q's block row. */
    std::uint64_t *
    row(std::size_t q, std::size_t s)
    {
        return bits.data() + q * rw + s * dw;
    }

    const std::uint64_t *
    row(std::size_t q, std::size_t s) const
    {
        return bits.data() + q * rw + s * dw;
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

    /// @name Pauli frame (see FeynmanExecutor::runSpanEnsembleBlock)
    /// @{

    /** Shot @p s's sign row: paths whose phase awaits a negation. */
    std::uint64_t *signRow(std::size_t s) { return sign.data() + s * dw; }

    /** Shot @p s's pending factors of i (Y events), mod 4 at use. */
    std::uint32_t &quarterTurns(std::size_t s) { return turns[s]; }

    /** Per-shot next stop of the replay loop (numShots() entries). */
    std::uint32_t *nextStops() { return next.data(); }

    /// @}

    bool joined(std::size_t s) const { return joinedFlags[s] != 0; }

    /** Open shot @p s's mask slice: ops now apply to its rows. A
     *  no-op for a shot that has already joined. */
    void
    join(std::size_t s)
    {
        if (joinedFlags[s])
            return;
        std::uint64_t *m = mask.data() + s * dw;
        for (std::size_t w = 0; w < dw; ++w)
            m[w] = vmask[w];
        joinedFlags[s] = 1;
    }

    /** Copy shot @p s's state (all rows + phases) from @p ens. */
    void
    loadShot(std::size_t s, const PathEnsemble &ens)
    {
        QRAMSIM_ASSERT(ens.numQubits() == nq &&
                           ens.numPaths() == np &&
                           ens.wordsPerQubit() == dw,
                       "ensemble/block shape mismatch");
        for (std::size_t q = 0; q < nq; ++q) {
            const std::uint64_t *src = ens.row(q);
            std::uint64_t *dst = row(q, s);
            for (std::size_t w = 0; w < dw; ++w)
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
    std::size_t nq = 0; ///< qubits (block rows)
    std::size_t np = 0; ///< paths per shot (slice columns)
    std::size_t ns = 0; ///< batched shots (slices per block row)
    std::size_t dw = 0; ///< data words per slice (the slice stride)
    std::size_t rw = 0; ///< block row stride: ns * dw, aligned up
    simd::AlignedWords bits;  ///< nq * rw fused rows
    simd::AlignedWords mask;  ///< rw-word join/valid mask row
    simd::AlignedWords vmask; ///< dw-word per-shot valid template
    std::vector<std::complex<double>> phases; ///< ns * np
    simd::AlignedWords sign;                  ///< ns * dw sign rows
    std::vector<std::uint32_t> turns;         ///< per-shot quarter turns
    std::vector<std::uint32_t> next;          ///< per-shot next stop
    std::vector<std::uint8_t> joinedFlags;    ///< per-shot join bit
};

} // namespace qramsim

#endif // QRAMSIM_COMMON_PATHENSEMBLE_HH
