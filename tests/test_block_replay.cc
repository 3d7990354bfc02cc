/**
 * @file
 * Op-major block-replay tests (EnsembleBlock + runSpanEnsembleBlock +
 * the estimator's block accumulation).
 *
 * The transposed engine's contract is byte-identity: every shot of an
 * op-major block replay must equal its solo runSpanEnsemble replay —
 * bits and phases — and the estimator must produce bit-identical
 * results through ReplayEngine::Ensemble (op-major) and Scalar
 * (path-by-path oracle) at every replay-batch width in [1, 64],
 * across architectures, noise kinds, SIMD tiers, checkpoint joins,
 * ragged tail batches, degenerate inputs and the threaded shot
 * loop. Plus the EnsembleBlock layout invariants the block kernels
 * assume and kernel-level differentials for the block kernel tier
 * implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "common/pathensemble.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "qram/baselines.hh"
#include "qram/bucket_brigade.hh"
#include "qram/compact.hh"
#include "qram/fanout.hh"
#include "qram/select_swap.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"

namespace qramsim {
namespace {

/** Restore the dispatch tier on scope exit. */
struct TierGuard
{
    simd::Tier prev;

    explicit TierGuard(simd::Tier t) : prev(simd::activeTier())
    {
        simd::setActiveTier(t);
    }

    ~TierGuard() { simd::setActiveTier(prev); }
};

std::vector<simd::Tier>
supportedTiers()
{
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::tierSupported(t))
            tiers.push_back(t);
    return tiers;
}

void
expectResultsEq(const FidelityResult &a, const FidelityResult &b)
{
    EXPECT_EQ(a.full, b.full);
    EXPECT_EQ(a.reduced, b.reduced);
    EXPECT_EQ(a.fullStderr, b.fullStderr);
    EXPECT_EQ(a.reducedStderr, b.reducedStderr);
}

// --- EnsembleBlock layout invariants ----------------------------------

TEST(EnsembleBlock, LayoutAlignmentAndMaskLifecycle)
{
    EnsembleBlock blk;
    for (std::size_t np : {std::size_t(1), std::size_t(63),
                           std::size_t(64), std::size_t(65),
                           std::size_t(200)}) {
        for (std::size_t ns : {std::size_t(1), std::size_t(3),
                               std::size_t(16)}) {
            SCOPED_TRACE(testing::Message()
                         << "np=" << np << " ns=" << ns);
            blk.reshape(7, np, ns);
            EXPECT_EQ(blk.numQubits(), 7u);
            EXPECT_EQ(blk.numPaths(), np);
            EXPECT_EQ(blk.numShots(), ns);
            EXPECT_EQ(blk.dataWords(), (np + 63) / 64);
            EXPECT_EQ(blk.wordsPerQubit() % simd::kRowAlignWords, 0u);
            EXPECT_GE(blk.wordsPerQubit(), blk.dataWords());
            EXPECT_EQ(blk.rowWords(), ns * blk.wordsPerQubit());

            // Every shot slice of every block row is cache-line
            // aligned (what the block kernels' vector steps assume).
            for (std::size_t q = 0; q < 7; ++q)
                for (std::size_t s = 0; s < ns; ++s)
                    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                                  blk.row(q, s)) %
                                  simd::kRowAlign,
                              0u);
            EXPECT_EQ(blk.row(0, 0), blk.blockRow(0));
            EXPECT_EQ(blk.row(1, 0),
                      blk.blockRow(0) + blk.rowWords());

            // The valid-mask template matches a PathEnsemble's and
            // reshape clears every join: the mask row is all zero
            // until join(s) opens exactly that shot's slice.
            PathEnsemble ref(7, np);
            for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w)
                EXPECT_EQ(blk.validMask()[w], ref.validMask(w));
            for (std::size_t j = 0; j < blk.rowWords(); ++j)
                EXPECT_EQ(blk.maskRow()[j], 0u);
            for (std::size_t s = 0; s < ns; ++s)
                EXPECT_FALSE(blk.joined(s));
            const std::size_t pw = blk.wordsPerQubit();
            const std::size_t joinShot = ns / 2;
            blk.join(joinShot);
            EXPECT_TRUE(blk.joined(joinShot));
            for (std::size_t s = 0; s < ns; ++s)
                for (std::size_t w = 0; w < pw; ++w)
                    EXPECT_EQ(blk.maskRow()[s * pw + w],
                              s == joinShot ? ref.validMask(w) : 0u);
        }
    }
}

TEST(EnsembleBlock, LoadShotRoundTripsAndPadsStayZero)
{
    Rng rng(20260731);
    const std::size_t nq = 9, np = 70, ns = 4;
    PathEnsemble ens(nq, np);
    for (std::size_t q = 0; q < nq; ++q)
        for (std::size_t w = 0; w < ens.wordsPerQubit(); ++w)
            ens.row(q)[w] = rng.bits() & ens.validMask(w);
    for (std::size_t k = 0; k < np; ++k)
        ens.phase(k) = {rng.uniform(), rng.uniform()};

    EnsembleBlock blk;
    blk.reshape(nq, np, ns);
    blk.loadShot(2, ens);
    for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w) {
            EXPECT_EQ(blk.row(q, 2)[w], ens.row(q)[w]);
            // Tail bits of the loaded slice are zero (the ensemble's
            // own invariant carries over).
            EXPECT_EQ(blk.row(q, 2)[w] & ~blk.validMask()[w], 0u);
        }
    }
    for (std::size_t k = 0; k < np; ++k)
        EXPECT_EQ(blk.phaseSlice(2)[k], ens.phase(k));
    for (std::size_t k = 0; k < np; ++k)
        for (std::size_t q = 0; q < nq; ++q)
            EXPECT_EQ(blk.get(q, 2, k), ens.get(q, k));
}

// --- Block kernel differentials ---------------------------------------

TEST(BlockKernels, MatchScalarReferenceAcrossTiers)
{
    Rng rng(424242);
    const simd::RowKernels &S = simd::kernels(simd::Tier::Scalar);

    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        const simd::RowKernels &K = simd::kernels(tier);

        for (int trial = 0; trial < 120; ++trial) {
            // Arena shapes: pw a multiple of kRowAlignWords (the
            // EnsembleBlock contract), 1..6 shots, 5 block rows.
            const std::size_t pw =
                simd::kRowAlignWords * (1 + rng.below(3));
            const std::size_t ns = 1 + rng.below(6);
            const std::size_t nw = ns * pw;
            const std::size_t nrows = 5;
            simd::AlignedWords rows(nrows * nw);
            for (auto &w : rows)
                w = rng.bits();
            simd::AlignedWords bmask(nw);
            for (auto &w : bmask)
                w = rng.below(4) == 0 ? rng.bits()
                                      : ~std::uint64_t(0);

            // Up to 6 controls exercises the hoisted fast path AND
            // the >kCtrlHoist fallback of the fire kernels.
            EnsembleCtrl ctrls[6];
            const std::size_t nc = rng.below(7);
            for (std::size_t c = 0; c < nc; ++c)
                ctrls[c] = {static_cast<std::uint32_t>(
                                rng.below(nrows)),
                            rng.bernoulli(0.5) ? ~std::uint64_t(0)
                                               : std::uint64_t(0)};

            // xorFireBlock
            simd::AlignedWords a(nw), b(nw);
            for (std::size_t w = 0; w < nw; ++w)
                a[w] = b[w] = rng.bits();
            S.xorFireBlock(a.data(), rows.data(), nw, ctrls, nc,
                           bmask.data(), nw);
            K.xorFireBlock(b.data(), rows.data(), nw, ctrls, nc,
                           bmask.data(), nw);
            EXPECT_EQ(a, b);

            // The block fire kernel must equal the ROW fire kernel on
            // the same operands (same arithmetic, fused layout).
            for (std::size_t w = 0; w < nw; ++w)
                b[w] = a[w];
            S.xorFire(a.data(), rows.data(), nw, ctrls, nc,
                      bmask.data(), nw);
            K.xorFireBlock(b.data(), rows.data(), nw, ctrls, nc,
                           bmask.data(), nw);
            EXPECT_EQ(a, b);

            // swapFireBlock
            simd::AlignedWords a0(nw), a1(nw), b0(nw), b1(nw);
            for (std::size_t w = 0; w < nw; ++w) {
                a0[w] = b0[w] = rng.bits();
                a1[w] = b1[w] = rng.bits();
            }
            S.swapFireBlock(a0.data(), a1.data(), rows.data(), nw,
                            ctrls, nc, bmask.data(), nw);
            K.swapFireBlock(b0.data(), b1.data(), rows.data(), nw,
                            ctrls, nc, bmask.data(), nw);
            EXPECT_EQ(a0, b0);
            EXPECT_EQ(a1, b1);

            // xorRowBlock: broadcast of one pw-word row into every
            // slice == per-slice xorRow.
            simd::AlignedWords src(pw);
            for (auto &w : src)
                w = rng.bits();
            for (std::size_t w = 0; w < nw; ++w)
                a[w] = b[w] = rng.bits();
            for (std::size_t s = 0; s < ns; ++s)
                S.xorRow(a.data() + s * pw, src.data(), pw);
            K.xorRowBlock(b.data(), src.data(), pw, ns);
            EXPECT_EQ(a, b);

            // diffOrBlock: per-slice diffOr against one shared row,
            // including the per-shot any flags.
            simd::AlignedWords devA(nw), devB(nw);
            for (std::size_t w = 0; w < nw; ++w)
                devA[w] = devB[w] = rng.bits();
            std::vector<std::uint64_t> anyA(ns), anyB(ns);
            for (std::size_t s = 0; s < ns; ++s)
                anyA[s] = S.diffOr(devA.data() + s * pw,
                                   rows.data() + s * pw, src.data(),
                                   pw);
            K.diffOrBlock(devB.data(), rows.data(), src.data(), pw,
                          ns, anyB.data());
            EXPECT_EQ(devA, devB);
            for (std::size_t s = 0; s < ns; ++s) {
                // diffOr returns the OR of diffs; diffOrBlock's any
                // flag must agree on zero/nonzero AND exact value.
                EXPECT_EQ(anyA[s], anyB[s]) << "slice " << s;
            }
        }
    }
}

// --- Executor-level: op-major vs per-shot replay ----------------------

/**
 * Drive runSpanEnsembleBlock over a batch of shots and runSpanEnsemble
 * over each shot alone (random start ensembles advanced to per-shot
 * join positions, per-shot event lists) and require every shot's bits
 * and phases to match word for word and value for value.
 */
void
expectBlockMatchesPerShot(const FeynmanExecutor &exec,
                          const std::vector<std::uint32_t> &froms,
                          const std::vector<std::vector<FlatEvent>> &evs,
                          std::size_t np, Rng &rng)
{
    const std::size_t nq = exec.circuit().numQubits();
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::size_t n = froms.size();

    // Random inputs advanced (noiselessly) to each shot's join
    // position — the checkpoint-gather shape of the estimator.
    std::vector<PathEnsemble> soloEns;
    EnsembleBlock blk;
    blk.reshape(nq, np, n);
    std::vector<FeynmanExecutor::BlockReplayShot> shots(n);
    for (std::size_t b = 0; b < n; ++b) {
        PathEnsemble e(nq, np);
        for (std::size_t q = 0; q < nq; ++q)
            for (std::size_t w = 0; w < e.wordsPerQubit(); ++w)
                e.row(q)[w] = rng.bits() & e.validMask(w);
        exec.runSpanEnsemble(e, 0, froms[b], nullptr, 0);
        blk.loadShot(b, e);
        shots[b] = {evs[b].data(), evs[b].size(), froms[b], 0};
        soloEns.push_back(std::move(e));
    }

    exec.runSpanEnsembleBlock(blk, shots.data(), numOps);

    for (std::size_t b = 0; b < n; ++b) {
        SCOPED_TRACE(testing::Message() << "shot " << b);
        exec.runSpanEnsemble(soloEns[b], froms[b], numOps,
                             evs[b].data(), evs[b].size());
        for (std::size_t q = 0; q < nq; ++q)
            for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w)
                EXPECT_EQ(blk.row(q, b)[w], soloEns[b].row(q)[w])
                    << "q=" << q << " w=" << w;
        for (std::size_t k = 0; k < np; ++k)
            EXPECT_EQ(blk.phaseSlice(b)[k], soloEns[b].phase(k))
                << "path " << k;
        // Zero-tail invariant holds through the block replay.
        for (std::size_t q = 0; q < nq; ++q)
            for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w)
                EXPECT_EQ(blk.row(q, b)[w] & ~blk.validMask()[w], 0u);
    }
}

TEST(BlockReplay, MixedJoinsAndEventsMatchPerShotReplay)
{
    Rng rng(90125);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::uint32_t nq =
        static_cast<std::uint32_t>(qc.circuit.numQubits());

    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        for (int trial = 0; trial < 8; ++trial) {
            // 65 paths puts the tail word in play; shots join at
            // assorted positions including 0 and numOps (events-only
            // shot, never enters the op loop).
            const std::size_t n = 1 + rng.below(6);
            std::vector<std::uint32_t> froms;
            std::vector<std::vector<FlatEvent>> evs;
            for (std::size_t b = 0; b < n; ++b) {
                std::uint32_t from;
                if (trial == 0 && b == 0)
                    from = numOps; // join-at-end edge
                else
                    from = static_cast<std::uint32_t>(
                        rng.below(numOps + 1));
                std::vector<FlatEvent> ev;
                const std::size_t ne = rng.below(6);
                for (std::size_t e = 0; e < ne; ++e) {
                    // Positions in [from, numOps], including both
                    // boundaries (fire-before-first-op and tail).
                    const std::uint32_t pos =
                        from + static_cast<std::uint32_t>(
                                   rng.below(numOps - from + 1));
                    const PauliKind kinds[3] = {PauliKind::X,
                                                PauliKind::Y,
                                                PauliKind::Z};
                    ev.push_back({pos,
                                  static_cast<std::uint32_t>(
                                      rng.below(nq)),
                                  kinds[rng.below(3)]});
                }
                std::sort(ev.begin(), ev.end(),
                          [](const FlatEvent &a, const FlatEvent &b) {
                              return a.pos < b.pos;
                          });
                froms.push_back(from);
                evs.push_back(std::move(ev));
            }
            expectBlockMatchesPerShot(exec, froms, evs, 65, rng);
        }
    }
}

// --- Estimator-level: both engines, all architectures -----------------

TEST(BlockReplay, EnginesBitIdenticalAllArchitecturesAllNoise)
{
    Rng rng(5551212);
    struct Arch
    {
        const char *name;
        QueryCircuit qc;
        unsigned width;
    };
    Memory mem3 = Memory::random(3, rng);
    Memory mem4 = Memory::random(4, rng);
    std::vector<Arch> archs;
    archs.push_back({"virtual", VirtualQram(2, 1).build(mem3), 3});
    archs.push_back({"bucket-brigade",
                     BucketBrigadeQram(3).build(mem3), 3});
    archs.push_back({"fanout", FanoutQram(3).build(mem3), 3});
    archs.push_back({"sqc", SqcBucketBrigade(2, 1).build(mem3), 3});
    archs.push_back({"select-swap",
                     SelectSwapQram(2, 1).build(mem3), 3});
    archs.push_back({"compact", CompactQram(2, 2).build(mem4), 4});

    struct NoiseCase
    {
        const char *name;
        PauliRates rates;
    };
    const NoiseCase noises[] = {
        {"X", PauliRates::bitFlip(4e-3)},
        {"Y", PauliRates{0.0, 4e-3, 0.0}},
        {"Z", PauliRates::phaseFlip(4e-3)},
        {"depol", PauliRates::depolarizing(4e-3)},
    };

    const std::size_t shots = 32;
    const std::uint64_t seed = 909;
    for (const Arch &a : archs) {
        FidelityEstimator est(a.qc.circuit, a.qc.addressQubits,
                              a.qc.busQubit,
                              AddressSuperposition::uniform(a.width));
        for (const NoiseCase &nc : noises) {
            SCOPED_TRACE(std::string(a.name) + " / " + nc.name);
            QubitChannelNoise noise(nc.rates);

            // Ragged-tail batch widths: 3 and 64 never divide the
            // general-shot count of a 32-shot run evenly.
            for (std::size_t width : {std::size_t(3), std::size_t(8),
                                      std::size_t(64)}) {
                SCOPED_TRACE("width=" + std::to_string(width));
                est.setReplayBatch(width);
                est.setReplayEngine(
                    FidelityEstimator::ReplayEngine::Ensemble);
                const FidelityResult block =
                    est.estimate(noise, shots, seed);
                const FidelityResult blockMt =
                    est.estimate(noise, shots, seed, 3);
                est.setReplayEngine(
                    FidelityEstimator::ReplayEngine::Scalar);
                const FidelityResult scalar =
                    est.estimate(noise, shots, seed);
                expectResultsEq(block, scalar);

                // Threaded (counter-stream) mode agrees across the
                // block and scalar engines too.
                const FidelityResult scalarMt =
                    est.estimate(noise, shots, seed, 3);
                expectResultsEq(blockMt, scalarMt);
            }
            est.setReplayEngine(
                FidelityEstimator::ReplayEngine::Ensemble);
        }
    }
}

TEST(BlockReplay, EveryBatchWidthBitIdentical)
{
    // The acceptance contract: op-major batched replay is
    // byte-identical to the per-shot loop at EVERY width in [1, 64].
    // Depolarizing noise keeps nearly every shot on the general
    // path, so every width actually exercises batched replay.
    Rng rng(31337);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise depol(PauliRates::depolarizing(5e-3));
    const std::size_t shots = 48;
    const std::uint64_t seed = 2027;

    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    const FidelityResult ref = est.estimate(depol, shots, seed);

    est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
    for (std::size_t width = 1; width <= 64; ++width) {
        SCOPED_TRACE(width);
        EXPECT_EQ(est.setReplayBatch(width), width);
        expectResultsEq(est.estimate(depol, shots, seed), ref);
    }
}

TEST(BlockReplay, MixedCheckpointJoinsInOneBatch)
{
    // A deeper circuit gets many replay checkpoints; with sparse
    // depolarizing noise, shots of one batch start from different
    // checkpoints (different first-event positions) — the per-shot
    // join masks of the op-major pass. Identity against the scalar
    // oracle proves the joins are exact.
    Rng rng(8086);
    Memory mem = Memory::random(5, rng);
    QueryCircuit qc = BucketBrigadeQram(5).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(5));
    GateNoise depol(PauliRates::depolarizing(5e-4));
    est.setReplayBatch(16);

    const FidelityResult block = est.estimate(depol, 64, 11);
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    const FidelityResult scalar = est.estimate(depol, 64, 11);
    expectResultsEq(block, scalar);
}

TEST(BlockReplay, DuplicateVisibleKeysThroughBlockPath)
{
    // Repeated addresses disable the O(1) collision lookup
    // (dupVisibleKeys) — the block accumulation must keep the
    // historical exhaustive-scan semantics bit for bit.
    Rng rng(1123);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);

    AddressSuperposition dup;
    dup.addresses = {5, 5, 2, 7, 2};
    const double a = 1.0 / std::sqrt(5.0);
    dup.amps.assign(5, {a, 0.0});

    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          dup);
    GateNoise depol(PauliRates::depolarizing(4e-3));
    for (std::size_t width : {std::size_t(1), std::size_t(5),
                              std::size_t(16)}) {
        SCOPED_TRACE(width);
        est.setReplayBatch(width);
        est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
        const FidelityResult block = est.estimate(depol, 40, 91);
        est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
        const FidelityResult scalar = est.estimate(depol, 40, 91);
        expectResultsEq(block, scalar);
    }
}

TEST(BlockReplay, BitIdenticalAcrossTiersThroughBlockPath)
{
    Rng rng(60309);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(4));
    GateNoise depol(PauliRates::depolarizing(3e-3));
    est.setReplayBatch(16);

    FidelityResult ref;
    bool first = true;
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        const FidelityResult r = est.estimate(depol, 48, 2023);
        if (first) {
            ref = r;
            first = false;
            continue;
        }
        expectResultsEq(r, ref);
    }
}

} // namespace
} // namespace qramsim
