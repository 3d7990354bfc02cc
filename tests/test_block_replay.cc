/**
 * @file
 * Op-major block-replay tests (EnsembleBlock + runSpanEnsembleBlock +
 * the estimator's block accumulation).
 *
 * The transposed engine's contract is byte-identity: every shot of an
 * op-major block replay must equal the scalar engine's runSpan, path
 * by path — bits and phases — and the estimator must produce
 * bit-identical results through ReplayEngine::Ensemble (op-major) and
 * Scalar (path-by-path oracle) at every replay-batch width in
 * [1, 64], across architectures, noise kinds, SIMD tiers, checkpoint
 * joins, ragged tail batches, degenerate inputs and the threaded shot
 * loop. Plus the EnsembleBlock layout invariants the block kernels
 * assume (dense slices, aligned block rows, zero tails and pads) and
 * kernel-level differentials of every tier's block kernels against
 * plain reference loops at slice widths 1-8, 16 and 24.
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
                           std::size_t(200), std::size_t(256),
                           std::size_t(512)}) {
        for (std::size_t ns : {std::size_t(1), std::size_t(3),
                               std::size_t(16)}) {
            SCOPED_TRACE(testing::Message()
                         << "np=" << np << " ns=" << ns);
            // Reshape from a wider shape first, so stale words from
            // an earlier batch are in the storage.
            blk.reshape(7, 700, 5);
            for (std::size_t q = 0; q < 7; ++q)
                std::fill(blk.blockRow(q),
                          blk.blockRow(q) + blk.rowWords(),
                          ~std::uint64_t(0));
            blk.reshape(7, np, ns);
            EXPECT_EQ(blk.numQubits(), 7u);
            EXPECT_EQ(blk.numPaths(), np);
            EXPECT_EQ(blk.numShots(), ns);

            // Slices are dense: the slice stride is the data words,
            // the PathEnsemble row stride, with no padding between
            // the shots of a block row.
            const std::size_t dw = (np + 63) / 64;
            EXPECT_EQ(blk.dataWords(), dw);
            EXPECT_EQ(blk.wordsPerQubit(), dw);
            EXPECT_EQ(PathEnsemble(7, np).wordsPerQubit(), dw);
            for (std::size_t s = 0; s < ns; ++s)
                EXPECT_EQ(blk.row(3, s), blk.blockRow(3) + s * dw);

            // Block rows are padded as a whole: rowWords() is the
            // slices rounded up to kRowAlignWords, and every block
            // row starts on a cache line.
            EXPECT_EQ(blk.rowWords() % simd::kRowAlignWords, 0u);
            EXPECT_GE(blk.rowWords(), ns * dw);
            EXPECT_LT(blk.rowWords(), ns * dw + simd::kRowAlignWords);
            EXPECT_EQ(blk.row(0, 0), blk.blockRow(0));
            for (std::size_t q = 0; q < 7; ++q) {
                EXPECT_EQ(blk.blockRow(q),
                          blk.blockRow(0) + q * blk.rowWords());
                EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                              blk.blockRow(q)) %
                              simd::kRowAlign,
                          0u);
                // The pad after the slices is zero, whatever the
                // storage held before.
                for (std::size_t j = ns * dw; j < blk.rowWords(); ++j)
                    EXPECT_EQ(blk.blockRow(q)[j], 0u);
            }

            // The valid-mask template matches a PathEnsemble's (tail
            // bits zero) and reshape clears every join and the Pauli
            // frame: the mask row is all zero until join(s) opens
            // exactly that shot's slice.
            PathEnsemble ref(7, np);
            for (std::size_t w = 0; w < dw; ++w)
                EXPECT_EQ(blk.validMask()[w], ref.validMask(w));
            for (std::size_t j = 0; j < blk.rowWords(); ++j)
                EXPECT_EQ(blk.maskRow()[j], 0u);
            for (std::size_t s = 0; s < ns; ++s) {
                EXPECT_FALSE(blk.joined(s));
                EXPECT_EQ(blk.quarterTurns(s), 0u);
                for (std::size_t w = 0; w < dw; ++w)
                    EXPECT_EQ(blk.signRow(s)[w], 0u);
            }
            const std::size_t joinShot = ns / 2;
            blk.join(joinShot);
            EXPECT_TRUE(blk.joined(joinShot));
            for (std::size_t s = 0; s < ns; ++s)
                for (std::size_t w = 0; w < dw; ++w)
                    EXPECT_EQ(blk.maskRow()[s * dw + w],
                              s == joinShot ? ref.validMask(w) : 0u);
            for (std::size_t j = ns * dw; j < blk.rowWords(); ++j)
                EXPECT_EQ(blk.maskRow()[j], 0u);
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

/** The fire mask of word @p w, written out plainly (simd.hh). */
std::uint64_t
refFire(const simd::AlignedWords &rows, std::size_t stride,
        const EnsembleCtrl *ctrls, std::size_t nc,
        const simd::AlignedWords &bmask, std::size_t w)
{
    std::uint64_t fire = bmask[w];
    for (std::size_t c = 0; c < nc; ++c)
        fire &= rows[ctrls[c].qubit * stride + w] ^ ctrls[c].invert;
    return fire;
}

TEST(BlockKernels, MatchScalarReferenceAcrossTiers)
{
    Rng rng(424242);

    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        const simd::RowKernels &K = simd::kernels(tier);

        for (int trial = 0; trial < 600; ++trial) {
            // Arena shapes: dense slices of 1..8 words (narrower than
            // a vector takes the repeated-row sweep of the row-flip
            // and deviation kernels, 8 their one-line fast path), or
            // 16 and 24 (the per-slice fallback); 1..20 shots, so the
            // narrow sweep runs several chunks with a ragged last
            // one; 5 block rows, whose word counts need not fill a
            // vector (the fire kernels' tails).
            const std::size_t widths[] = {1, 2, 3, 4, 5,  6,
                                          7, 8, 16, 24};
            const std::size_t pw = widths[trial % 10];
            const std::size_t ns = 1 + rng.below(20);
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

            // xorFireBlock: target[w] ^= fire(w).
            simd::AlignedWords a(nw), b(nw);
            for (std::size_t w = 0; w < nw; ++w)
                a[w] = b[w] = rng.bits();
            for (std::size_t w = 0; w < nw; ++w)
                a[w] ^= refFire(rows, nw, ctrls, nc, bmask, w);
            K.xorFireBlock(b.data(), rows.data(), nw, ctrls, nc,
                           bmask.data(), nw);
            EXPECT_EQ(a, b);

            // swapFireBlock: the two rows trade their firing bits.
            simd::AlignedWords a0(nw), a1(nw), b0(nw), b1(nw);
            for (std::size_t w = 0; w < nw; ++w) {
                a0[w] = b0[w] = rng.bits();
                a1[w] = b1[w] = rng.bits();
            }
            for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t d =
                    (a0[w] ^ a1[w]) &
                    refFire(rows, nw, ctrls, nc, bmask, w);
                a0[w] ^= d;
                a1[w] ^= d;
            }
            K.swapFireBlock(b0.data(), b1.data(), rows.data(), nw,
                            ctrls, nc, bmask.data(), nw);
            EXPECT_EQ(a0, b0);
            EXPECT_EQ(a1, b1);

            // xorRowBlock: one pw-word row XORed into every slice.
            simd::AlignedWords src(pw);
            for (auto &w : src)
                w = rng.bits();
            for (std::size_t w = 0; w < nw; ++w)
                a[w] = b[w] = rng.bits();
            for (std::size_t w = 0; w < nw; ++w)
                a[w] ^= src[w % pw];
            K.xorRowBlock(b.data(), src.data(), pw, ns);
            EXPECT_EQ(a, b);

            // diffOrBlock: per-slice deviation against one shared row,
            // including the per-shot any-diff flag. Some slices equal
            // the shared row but for one word (or not at all), so
            // every flag position is exercised both ways.
            simd::AlignedWords devA(nw), devB(nw);
            for (std::size_t w = 0; w < nw; ++w)
                devA[w] = devB[w] = rng.bits();
            simd::AlignedWords cur = rows;
            for (std::size_t sl = 0; sl < ns; ++sl) {
                if (rng.below(3) != 0)
                    continue;
                for (std::size_t w = 0; w < pw; ++w)
                    cur[sl * pw + w] = src[w];
                if (rng.bernoulli(0.5))
                    cur[sl * pw + rng.below(pw)] ^=
                        std::uint64_t(1) << rng.below(64);
            }
            std::vector<std::uint64_t> anyA(ns, 0), anyB(ns, 7);
            for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t d = cur[w] ^ src[w % pw];
                devA[w] |= d;
                if (d)
                    anyA[w / pw] = 1;
            }
            K.diffOrBlock(devB.data(), cur.data(), src.data(), pw, ns,
                          anyB.data());
            EXPECT_EQ(devA, devB);
            EXPECT_EQ(anyA, anyB);

            // A slice equal to the shared row reports no deviation.
            K.diffOrBlock(devB.data(), src.data(), src.data(), pw, 1,
                          anyB.data());
            EXPECT_EQ(anyB[0], 0u);
        }
    }
}

// --- Executor-level: op-major vs per-path replay ----------------------

/**
 * Drive runSpanEnsembleBlock over a batch of shots (random start
 * states advanced to per-shot join positions, per-shot event lists)
 * and require every shot's bits and phases to match the scalar path
 * engine — runSpan, path by path — word for word and value for value.
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

    // Random inputs advanced (noiselessly, by the scalar engine) to
    // each shot's join position — the checkpoint-gather shape of the
    // estimator.
    std::vector<std::vector<PathState>> paths(n);
    EnsembleBlock blk;
    blk.reshape(nq, np, n);
    std::vector<FeynmanExecutor::BlockReplayShot> shots(n);
    for (std::size_t b = 0; b < n; ++b) {
        PathEnsemble e(nq, np);
        for (std::size_t k = 0; k < np; ++k) {
            PathState p(nq);
            for (std::size_t q = 0; q < nq; ++q)
                p.bits.set(q, rng.bernoulli(0.5));
            exec.runSpan(p, 0, froms[b], nullptr, 0);
            e.scatterPath(k, p.bits, p.phase);
            paths[b].push_back(std::move(p));
        }
        blk.loadShot(b, e);
        shots[b] = {evs[b].data(), evs[b].size(), froms[b], 0};
    }

    exec.runSpanEnsembleBlock(blk, shots.data(), numOps);

    BitVec got(nq);
    for (std::size_t b = 0; b < n; ++b) {
        SCOPED_TRACE(testing::Message() << "shot " << b);
        for (std::size_t k = 0; k < np; ++k) {
            PathState &p = paths[b][k];
            exec.runSpan(p, froms[b], numOps, evs[b].data(),
                         evs[b].size());
            for (std::size_t q = 0; q < nq; ++q)
                got.set(q, blk.get(q, b, k));
            EXPECT_EQ(got, p.bits) << "path " << k;
            EXPECT_EQ(blk.phaseSlice(b)[k], p.phase) << "path " << k;
        }
        // Zero-tail invariant holds through the block replay, and the
        // Pauli frame is settled: no sign bit or quarter turn is left.
        for (std::size_t q = 0; q < nq; ++q)
            for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w)
                EXPECT_EQ(blk.row(q, b)[w] & ~blk.validMask()[w], 0u);
        for (std::size_t w = 0; w < blk.wordsPerQubit(); ++w)
            EXPECT_EQ(blk.signRow(b)[w], 0u);
        EXPECT_EQ(blk.quarterTurns(b), 0u);
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

/**
 * Random basis-preserving Clifford+T circuit: the diagonal gates (S, T,
 * Tdg, CZ) put non-trivial phases on paths for the Pauli frame to
 * commute through, and X, CX and CSWAP move bits between them.
 */
Circuit
randomPhaseCircuit(std::size_t n, std::size_t gates, Rng &rng)
{
    Circuit c;
    auto q = c.allocRegister(n, "q");
    auto pick = [&]() { return q[rng.below(n)]; };
    auto other = [&](std::vector<Qubit> used) {
        Qubit x = pick();
        while (std::find(used.begin(), used.end(), x) != used.end())
            x = pick();
        return x;
    };
    for (std::size_t g = 0; g < gates; ++g) {
        switch (rng.below(7)) {
          case 0: c.s(pick()); break;
          case 1: c.t(pick()); break;
          case 2: c.tdg(pick()); break;
          case 3: {
            const Qubit a = pick();
            c.cz(a, other({a}));
            break;
          }
          case 4: {
            const Qubit a = pick(), b = other({a});
            c.cswap(a, b, other({a, b}));
            break;
          }
          case 5: {
            const Qubit a = pick();
            c.cx(a, other({a}));
            break;
          }
          default: c.x(pick()); break;
        }
    }
    return c;
}

TEST(BlockReplay, PauliFrameMatchesPerShotOnCliffordT)
{
    // Sign rows and quarter turns settle once, after the gates, yet
    // every phase must equal runSpan's event-by-event arithmetic.
    // Y-heavy shots put every quarter-turn count mod 4 in play;
    // path counts straddle word edges and reach 8-word slices, and
    // batch widths 1, 3 and 16 give a lone slice, a ragged block row
    // and a full one.
    Rng rng(20261020);
    std::vector<bool> turnsSeen(4, false);
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        for (std::size_t np : {std::size_t(1), std::size_t(63),
                               std::size_t(64), std::size_t(65),
                               std::size_t(200), std::size_t(256),
                               std::size_t(257), std::size_t(512)}) {
            const std::size_t nq = 5 + rng.below(5);
            const Circuit c = randomPhaseCircuit(nq, 60, rng);
            const FeynmanExecutor exec(c);
            const std::uint32_t numOps =
                static_cast<std::uint32_t>(exec.stream().size());
            for (std::size_t n : {std::size_t(1), std::size_t(3),
                                  std::size_t(16)}) {
                SCOPED_TRACE(testing::Message()
                             << "np=" << np << " n=" << n);
                std::vector<std::uint32_t> froms;
                std::vector<std::vector<FlatEvent>> evs;
                for (std::size_t b = 0; b < n; ++b) {
                    const std::uint32_t from = static_cast<std::uint32_t>(
                        rng.below(numOps / 2 + 1));
                    std::vector<FlatEvent> ev;
                    const std::size_t ne = rng.below(12);
                    std::size_t ys = 0;
                    for (std::size_t e = 0; e < ne; ++e) {
                        const std::uint64_t u = rng.below(10);
                        const PauliKind kind =
                            u < 6 ? PauliKind::Y
                                  : (u < 8 ? PauliKind::Z : PauliKind::X);
                        ys += kind == PauliKind::Y;
                        ev.push_back({from + static_cast<std::uint32_t>(
                                                 rng.below(numOps - from +
                                                           1)),
                                      static_cast<std::uint32_t>(
                                          rng.below(nq)),
                                      kind});
                    }
                    std::sort(ev.begin(), ev.end(),
                              [](const FlatEvent &x, const FlatEvent &y) {
                                  return x.pos < y.pos;
                              });
                    turnsSeen[ys & 3] = true;
                    froms.push_back(from);
                    evs.push_back(std::move(ev));
                }
                expectBlockMatchesPerShot(exec, froms, evs, np, rng);
            }
        }
    }
    for (std::size_t t = 0; t < 4; ++t)
        EXPECT_TRUE(turnsSeen[t]) << "no shot had " << t
                                  << " quarter turns mod 4";
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
