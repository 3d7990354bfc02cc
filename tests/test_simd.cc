/**
 * @file
 * SIMD dispatch tests.
 *
 * The PathEnsemble layout must deliver the dense-row, zero-tail
 * contract the kernels assume, and the whole engine — ensemble
 * propagation and the fidelity estimator, batched replay and sweep
 * sampling included —
 * must produce bit-identical results at every tier the host CPU
 * supports. Tiers the CPU lacks are skipped (the scalar tier always
 * runs). Kernel-level differentials live in tests/test_block_replay.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/pathensemble.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "qram/bucket_brigade.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"

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

// --- Layout contract --------------------------------------------------

TEST(Simd, PathEnsembleRowsDenseWithZeroTails)
{
    for (std::size_t np : {std::size_t(1), std::size_t(63),
                           std::size_t(64), std::size_t(65),
                           std::size_t(127), std::size_t(128),
                           std::size_t(200), std::size_t(256),
                           std::size_t(513)}) {
        SCOPED_TRACE(np);
        PathEnsemble ens(10, np);
        // Rows are dense: the stride is the data words, no padding.
        EXPECT_EQ(ens.dataWords(), (np + 63) / 64);
        EXPECT_EQ(ens.wordsPerQubit(), ens.dataWords());
        EXPECT_EQ(ens.rowWords(), ens.dataWords());
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(ens.rowData()) %
                      simd::kRowAlign,
                  0u);
        for (std::size_t q = 0; q < ens.numQubits(); ++q)
            EXPECT_EQ(ens.row(q), ens.rowData() + q * ens.dataWords());
        // The valid-mask row covers exactly the paths: full words,
        // then the tail word's low bits; nothing past the row.
        for (std::size_t w = 0; w < ens.wordsPerQubit(); ++w) {
            EXPECT_EQ(ens.validMask()[w], ens.validMask(w));
            EXPECT_EQ(std::size_t(__builtin_popcountll(ens.validMask(w))),
                      std::min<std::size_t>(64, np - 64 * w));
        }
        EXPECT_EQ(ens.validMask(ens.wordsPerQubit()), 0u);
        // Setting every path of every row leaves the tail bits zero.
        for (std::size_t q = 0; q < ens.numQubits(); ++q)
            for (std::size_t k = 0; k < np; ++k)
                ens.set(q, k, true);
        for (std::size_t q = 0; q < ens.numQubits(); ++q)
            for (std::size_t w = 0; w < ens.wordsPerQubit(); ++w)
                EXPECT_EQ(ens.row(q)[w], ens.validMask(w));
    }
}

TEST(Simd, TailAndPaddingStayZeroThroughPropagation)
{
    // Paths not a multiple of 64 leave tail bits in the last data
    // word; they must stay zero through noisy ensemble propagation at
    // every tier.
    Rng rng(4242);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    GateNoise noise(PauliRates::depolarizing(0.02));

    for (std::size_t np : {std::size_t(3), std::size_t(65),
                           std::size_t(70)}) {
        PathEnsemble in(qc.circuit.numQubits(), np);
        for (std::size_t k = 0; k < np; ++k)
            for (unsigned b = 0; b < 3; ++b)
                in.set(qc.addressQubits[b], k, (k >> b) & 1);

        for (simd::Tier tier : supportedTiers()) {
            SCOPED_TRACE(simd::tierName(tier));
            TierGuard guard(tier);
            ErrorRealization errors = noise.sample(exec, rng);
            FlatRealization flat;
            exec.flatten(errors, flat);
            PathEnsemble out = in;
            exec.runSpanEnsemble(out, 0, numOps, flat.events.data(),
                                 flat.events.size());
            for (std::size_t q = 0; q < out.numQubits(); ++q)
                for (std::size_t w = 0; w < out.wordsPerQubit(); ++w)
                    EXPECT_EQ(out.row(q)[w] & ~out.validMask(w), 0u)
                        << "q=" << q << " w=" << w;
        }
    }
}

// --- Engine-level bit identity across tiers ---------------------------

TEST(Simd, EnsemblePropagationBitIdenticalAcrossTiers)
{
    Rng rng(90125);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::size_t nq = qc.circuit.numQubits();
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    GateNoise noise(PauliRates::depolarizing(5e-3));

    // 65 paths: duplicate some addresses so the tail word is in play.
    const std::size_t np = 65;
    std::vector<PathState> inputs;
    PathEnsemble in(nq, np);
    for (std::size_t k = 0; k < np; ++k) {
        PathState p(nq);
        for (unsigned b = 0; b < 3; ++b)
            p.bits.set(qc.addressQubits[b], (k >> b) & 1);
        in.scatterPath(k, p.bits);
        inputs.push_back(std::move(p));
    }

    for (int shot = 0; shot < 4; ++shot) {
        ErrorRealization errors = noise.sample(exec, rng);
        FlatRealization flat;
        exec.flatten(errors, flat);

        BitVec gathered(nq);
        for (simd::Tier tier : supportedTiers()) {
            SCOPED_TRACE(simd::tierName(tier));
            TierGuard guard(tier);
            PathEnsemble out = in;
            exec.runSpanEnsemble(out, 0, numOps, flat.events.data(),
                                 flat.events.size());
            for (std::size_t k = 0; k < np; ++k) {
                PathState ref =
                    exec.runNoisyReference(inputs[k], errors);
                out.gatherPath(k, gathered);
                EXPECT_EQ(gathered, ref.bits) << "path " << k;
                EXPECT_EQ(out.phase(k), ref.phase) << "path " << k;
            }
        }
    }
}

TEST(Simd, EstimatorBitIdenticalAcrossTiers)
{
    // Fixed-seed estimates (empty, Z-only and batched general replay
    // paths all exercised) must not depend on the dispatch tier.
    Rng rng(60309);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(4));
    GateNoise depol(PauliRates::depolarizing(3e-3));
    QubitChannelNoise zchan(PauliRates::phaseFlip(2e-3));

    FidelityResult depolRef, zRef;
    bool first = true;
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        FidelityResult d = est.estimate(depol, 48, 2023);
        FidelityResult z = est.estimate(zchan, 48, 2024);
        if (first) {
            depolRef = d;
            zRef = z;
            first = false;
            continue;
        }
        EXPECT_EQ(d.full, depolRef.full);
        EXPECT_EQ(d.reduced, depolRef.reduced);
        EXPECT_EQ(d.fullStderr, depolRef.fullStderr);
        EXPECT_EQ(z.full, zRef.full);
        EXPECT_EQ(z.reduced, zRef.reduced);
        EXPECT_EQ(z.reducedStderr, zRef.reducedStderr);
    }
}

// --- Batched replay and sweep sampling --------------------------------

TEST(Simd, BatchedEstimateIdenticalToPerShotLoop)
{
    // estimate() samples shots ahead and replays general realizations
    // in batched ensemble passes; the result must match a manual
    // shot-by-shot loop (same RNG stream, same reduction order) bit
    // for bit — threaded mode included (thread-count invariance).
    Rng rng(5150);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(4));
    GateNoise noise(PauliRates::depolarizing(4e-3));

    const std::size_t shots = 160; // > kShotChunk: several chunks
    const std::uint64_t seed = 31337;

    noise.prepare(est.executor());
    Rng shotRng(seed);
    FlatRealization errors;
    double sumF = 0.0, sumF2 = 0.0, sumR = 0.0, sumR2 = 0.0;
    for (std::size_t s = 0; s < shots; ++s) {
        noise.sampleFlat(est.executor(), shotRng, errors);
        double f = 0.0, r = 0.0;
        est.shotFidelity(errors, f, r);
        sumF += f;
        sumF2 += f * f;
        sumR += r;
        sumR2 += r * r;
    }
    const double n = static_cast<double>(shots);

    FidelityResult batched = est.estimate(noise, shots, seed);
    EXPECT_EQ(batched.full, sumF / n);
    EXPECT_EQ(batched.reduced, sumR / n);

    FidelityResult mt2 = est.estimate(noise, shots, seed, 2);
    FidelityResult mt4 = est.estimate(noise, shots, seed, 4);
    EXPECT_EQ(mt2.full, mt4.full);
    EXPECT_EQ(mt2.reduced, mt4.reduced);
    EXPECT_EQ(mt2.fullStderr, mt4.fullStderr);
}

TEST(Simd, SweepPointsMatchScaledEstimatesBitForBit)
{
    // Every point of estimateSweep must equal estimate() with the
    // rates scaled by that point's factor: the sweep draws the same
    // uniforms and compares them against identically computed
    // thresholds.
    Rng rng(8086);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));

    const PauliRates base{1e-3, 5e-4, 2e-3};
    const unsigned rounds = QubitChannelNoise::virtualQramRounds(2, 1);
    QubitChannelNoise noise(base, rounds);

    const std::vector<double> factors = {1.0, 0.1, 3.0};
    const std::size_t shots = 96;
    const std::uint64_t seed = 777;

    std::vector<FidelityResult> sweep =
        est.estimateSweep(noise, factors, shots, seed);
    ASSERT_EQ(sweep.size(), factors.size());
    for (std::size_t j = 0; j < factors.size(); ++j) {
        SCOPED_TRACE(factors[j]);
        QubitChannelNoise scaled(base.scaled(factors[j]), rounds);
        FidelityResult ref = est.estimate(scaled, shots, seed);
        EXPECT_EQ(sweep[j].full, ref.full);
        EXPECT_EQ(sweep[j].reduced, ref.reduced);
        EXPECT_EQ(sweep[j].fullStderr, ref.fullStderr);
        EXPECT_EQ(sweep[j].reducedStderr, ref.reducedStderr);
    }

    // Threaded sweep: per-shot counter streams walk the sweep's tops,
    // the largest factor's thresholds, so that point matches the
    // threaded scaled estimate bit for bit too (the other points
    // match in distribution: tests/test_sampler.cc).
    std::vector<FidelityResult> sweepMt =
        est.estimateSweep(noise, factors, shots, seed, 3);
    const std::size_t top = 2;
    ASSERT_EQ(factors[top],
              *std::max_element(factors.begin(), factors.end()));
    QubitChannelNoise scaled(base.scaled(factors[top]), rounds);
    FidelityResult ref = est.estimate(scaled, shots, seed, 3);
    EXPECT_EQ(sweepMt[top].full, ref.full);
    EXPECT_EQ(sweepMt[top].reduced, ref.reduced);
}

} // namespace
} // namespace qramsim
