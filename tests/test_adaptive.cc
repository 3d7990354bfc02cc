/**
 * @file
 * Adaptive estimation tests (EstimateMode::Adaptive): the shared
 * stats helpers; the closed-form empty/Z-only class probabilities
 * against empirical classifier frequencies for every bundled noise
 * model; the adaptive-vs-replay CI tolerance contract across all six
 * architectures under X/Y/Z/depolarizing noise; exact analytic
 * folding on all-empty workloads; heterogeneous shard-merge
 * byte-identity in the keep-all mode; thread-count determinism; and
 * merge-order invariance plus exact JSON round-trips with the
 * sequential-stopping rule engaged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "qram/baselines.hh"
#include "qram/bucket_brigade.hh"
#include "qram/compact.hh"
#include "qram/fanout.hh"
#include "qram/select_swap.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"
#include "sim/sharding.hh"

namespace qramsim {
namespace {

// --- Shared stats helpers ----------------------------------------------

TEST(Stats, MomentHelpersMatchHandRolledExpressions)
{
    const double xs[] = {0.25, 0.5, 0.125, 0.875, 0.75};
    double sum = 0.0, sumSq = 0.0;
    for (double x : xs) {
        sum += x;
        sumSq += x * x;
    }
    const std::size_t n = 5;
    // The exact expressions PartialEstimate::finalize has always
    // used, evaluated in the same order.
    const double mean = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sumSq / static_cast<double>(n) - mean * mean);
    EXPECT_EQ(stats::meanFromSums(sum, n), mean);
    EXPECT_EQ(stats::varianceFromSums(sum, sumSq, n), var);
    EXPECT_EQ(stats::stderrFromSums(sum, sumSq, n),
              std::sqrt(var / (static_cast<double>(n) - 1.0)));

    // Degenerate cases: n <= 1 has no stderr; a constant sample's
    // negative rounding residue clamps to zero.
    EXPECT_EQ(stats::stderrFromSums(0.3, 0.09, 1), 0.0);
    EXPECT_GE(stats::varianceFromSums(0.3, 0.03, 3), 0.0);
}

TEST(Stats, NormalQuantileMatchesKnownValues)
{
    EXPECT_NEAR(stats::normalQuantile(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(stats::normalQuantile(0.995), 2.575829, 1e-5);
    EXPECT_NEAR(stats::normalQuantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(stats::normalQuantile(0.001), -3.090232, 1e-5);
    // Symmetry and the confidence-level wrappers.
    EXPECT_NEAR(stats::normalQuantile(0.025),
                -stats::normalQuantile(0.975), 1e-9);
    EXPECT_NEAR(stats::normalZ(0.95), 1.959964, 1e-5);
    EXPECT_EQ(stats::ciHalfWidth(0.0, 0.95), 0.0);
    EXPECT_NEAR(stats::ciHalfWidth(0.01, 0.95), 0.0195996, 1e-6);
    EXPECT_EQ(stats::normalQuantile(0.0), -HUGE_VAL);
    EXPECT_EQ(stats::normalQuantile(1.0), HUGE_VAL);
}

// --- Closed-form class probabilities -----------------------------------

/**
 * Empirically classify @p draws realizations per sweep point and
 * require the closed-form probabilities to sit within 5 binomial
 * standard deviations — the analytic formulas mirror the samplers'
 * exact double thresholds, so only Monte Carlo noise separates them.
 */
void
expectClassProbsMatchEmpirical(const NoiseModel &noise,
                               const FeynmanExecutor &exec,
                               const std::vector<double> &factors,
                               std::size_t draws)
{
    const std::size_t npts = factors.size();
    noise.prepareSweep(exec, factors.data(), npts);
    std::vector<double> pE(npts), pZ(npts);
    noise.classProbabilities(exec, factors.data(), npts, pE.data(),
                             pZ.data());

    std::vector<std::size_t> nEmpty(npts, 0), nZOnly(npts, 0);
    std::vector<FlatRealization> outs(npts);
    Rng rng(13013);
    for (std::size_t d = 0; d < draws; ++d) {
        noise.sampleFlatSweep(exec, rng, factors.data(), npts,
                              outs.data());
        for (std::size_t j = 0; j < npts; ++j) {
            if (outs[j].empty())
                ++nEmpty[j];
            else if (outs[j].zOnly)
                ++nZOnly[j];
        }
    }
    for (std::size_t j = 0; j < npts; ++j) {
        SCOPED_TRACE("factor " + std::to_string(factors[j]));
        ASSERT_GE(pE[j], 0.0);
        ASSERT_GE(pZ[j], 0.0);
        ASSERT_LE(pE[j] + pZ[j], 1.0 + 1e-12);
        const double n = static_cast<double>(draws);
        auto tol = [&](double p) {
            return 5.0 * std::sqrt(std::max(p * (1.0 - p), 1e-12) /
                                   n);
        };
        EXPECT_NEAR(static_cast<double>(nEmpty[j]) / n, pE[j],
                    tol(pE[j]));
        EXPECT_NEAR(static_cast<double>(nZOnly[j]) / n, pZ[j],
                    tol(pZ[j]));
    }
}

TEST(AdaptiveClassProbs, MatchEmpiricalFrequenciesAllModels)
{
    Rng memRng(2026);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t draws = 12000;

    {
        SCOPED_TRACE("qubit-channel depol");
        QubitChannelNoise noise(PauliRates::depolarizing(2e-3), 3);
        expectClassProbsMatchEmpirical(noise, exec, factors, draws);
    }
    {
        SCOPED_TRACE("gate depol weighted");
        GateNoise noise(PauliRates::depolarizing(2e-3));
        expectClassProbsMatchEmpirical(noise, exec, factors, draws);
    }
    {
        SCOPED_TRACE("gate X unweighted");
        GateNoise noise(PauliRates::bitFlip(3e-3), false);
        expectClassProbsMatchEmpirical(noise, exec, factors, draws);
    }
    {
        SCOPED_TRACE("device");
        DeviceNoise noise(PauliRates::depolarizing(1e-3),
                          PauliRates::depolarizing(4e-3));
        expectClassProbsMatchEmpirical(noise, exec, factors, draws);
    }
}

/** k * log1p(-t) with the closed form's degenerate ends. */
double
logNoEventOracle(double t, double k)
{
    if (t >= 1.0)
        return -HUGE_VAL;
    if (t <= 0.0 || k <= 0.0)
        return 0.0;
    return k * std::log1p(-t);
}

TEST(AdaptiveClassProbs, ClosedFormSumsRowsInDrawOrderBitForBit)
{
    // The Adaptive partials carry these probabilities verbatim, so the
    // summation order is part of the result: one term per gate in
    // program order for GateNoise, the 1q then the 2q class for
    // DeviceNoise, one term for the qubit channel.
    Rng memRng(2028);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t npts = factors.size();

    // terms(f, term) calls term(rates, sites) once per oracle term.
    auto expectClosedForm = [&](const NoiseModel &noise, auto &&terms) {
        SCOPED_TRACE(noise.name());
        std::vector<double> pE(npts), pZ(npts);
        noise.classProbabilities(exec, factors.data(), npts, pE.data(),
                                 pZ.data());
        for (std::size_t j = 0; j < npts; ++j) {
            double logE = 0.0, logXY = 0.0;
            terms(factors[j], [&](const PauliRates &r, double sites) {
                const double txy = r.x + r.y;
                logE += logNoEventOracle(txy + r.z, sites);
                logXY += logNoEventOracle(txy, sites);
            });
            const double wantE = std::exp(logE);
            EXPECT_EQ(pE[j], wantE);
            EXPECT_EQ(pZ[j], std::max(0.0, std::exp(logXY) - wantE));
        }
    };

    const PauliRates depol = PauliRates::depolarizing(2e-3);
    std::size_t sites1 = 0, sites2 = 0;
    for (const Gate &g : qc.circuit.gates())
        if (g.kind != GateKind::Barrier)
            (g.aritytotal() >= 2 ? sites2 : sites1) +=
                g.controls.size() + g.targets.size();
    for (bool weighted : {true, false}) {
        expectClosedForm(
            GateNoise(depol, weighted), [&](double f, auto &&term) {
                for (const Gate &g : qc.circuit.gates())
                    if (g.kind != GateKind::Barrier)
                        term(GateNoise::effectiveRatesFor(
                                 depol.scaled(f), g, weighted),
                             double(g.controls.size() +
                                    g.targets.size()));
            });
    }
    const PauliRates wide = PauliRates::depolarizing(5e-3);
    expectClosedForm(DeviceNoise(depol, wide),
                     [&](double f, auto &&term) {
                         term(depol.scaled(f), double(sites1));
                         term(wide.scaled(f), double(sites2));
                     });
    const unsigned rounds = 3;
    ASSERT_GT(exec.schedule().depth(), rounds);
    expectClosedForm(QubitChannelNoise(depol, rounds),
                     [&](double f, auto &&term) {
                         term(depol.scaled(f),
                              double(rounds * qc.circuit.numQubits()));
                     });
}

TEST(AdaptiveClassProbs, PureZNoiseHasNoGeneralStratum)
{
    Rng memRng(2027);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const std::vector<double> factors = {1.0, 4.0};

    GateNoise noise(PauliRates::phaseFlip(2e-3));
    noise.prepareSweep(exec, factors.data(), factors.size());
    std::vector<double> pE(factors.size()), pZ(factors.size());
    noise.classProbabilities(exec, factors.data(), factors.size(),
                             pE.data(), pZ.data());
    for (std::size_t j = 0; j < factors.size(); ++j) {
        // txy = 0 for pure-Z rates, so P(Z-only) = 1 - P(empty)
        // EXACTLY and the general stratum has zero weight.
        EXPECT_EQ(pE[j] + pZ[j], 1.0);
        EXPECT_GT(pZ[j], 0.0);
    }
}

// --- Adaptive vs replay ------------------------------------------------

TEST(Adaptive, MatchesReplayWithinCiToleranceAllArchitectures)
{
    Rng rng(5551213);
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

    // 24 (arch, noise) combos: a bumped per-comparison confidence so
    // the suite's family-wise false-failure probability stays
    // negligible (z = 4.5 <-> ~3.4e-6 two-sided per comparison).
    const double zBumped = 4.5;
    const std::size_t replayShots = 256;
    const std::uint64_t seed = 909;

    AdaptivePolicy pol;
    pol.targetHalfWidth = 0.02;
    pol.confidence = 0.95;
    pol.minShots = 64;
    pol.maxShots = 2048;
    pol.batch = 256;

    for (const Arch &a : archs) {
        FidelityEstimator est(a.qc.circuit, a.qc.addressQubits,
                              a.qc.busQubit,
                              AddressSuperposition::uniform(a.width));
        est.setAdaptivePolicy(pol);
        for (const NoiseCase &nc : noises) {
            SCOPED_TRACE(std::string(a.name) + " / " + nc.name);
            GateNoise noise(nc.rates);

            const FidelityResult replay =
                est.estimate(noise, replayShots, seed);
            const AdaptiveReport rep =
                est.estimateAdaptive(noise, seed + 1);
            ASSERT_EQ(rep.results.size(), 1u);
            const FidelityResult &adaptive = rep.results.front();

            // Two independent estimates of the same quantity: their
            // difference is within z * sqrt(se_r^2 + se_a^2), plus
            // the binomial error of replay's empty-class frequency —
            // adaptive folds that class analytically, replay samples
            // it, and when every kept shot has the same fidelity the
            // sample stderrs alone understate that residual (shot
            // fidelities live in [0, 1], so the empty-count noise
            // propagates with a coefficient of at most 1).
            const double pE = rep.emptyProb[0];
            const double seEmpty = std::sqrt(
                pE * (1.0 - pE) /
                static_cast<double>(replayShots));
            const double tol =
                zBumped *
                (std::sqrt(replay.fullStderr * replay.fullStderr +
                           adaptive.fullStderr *
                               adaptive.fullStderr) +
                 seEmpty);
            EXPECT_NEAR(adaptive.full, replay.full,
                        std::max(tol, 1e-12));
            const double tolR =
                zBumped *
                (std::sqrt(replay.reducedStderr *
                               replay.reducedStderr +
                           adaptive.reducedStderr *
                               adaptive.reducedStderr) +
                 seEmpty);
            EXPECT_NEAR(adaptive.reduced, replay.reduced,
                        std::max(tolR, 1e-12));

            // Stratum accounting is self-consistent.
            EXPECT_EQ(rep.keptShots,
                      rep.zOnlyShots[0] + rep.generalShots[0]);
            EXPECT_EQ(adaptive.shots, rep.keptShots);
            if (nc.rates.x == 0.0 && nc.rates.y == 0.0) {
                // Pure-Z noise: the general stratum has exactly zero
                // weight and never receives a shot.
                EXPECT_EQ(rep.generalProb[0], 0.0);
                EXPECT_EQ(rep.generalShots[0], 0u);
            }
        }
    }
}

TEST(Adaptive, AllEmptyWorkloadIsExactWithZeroShots)
{
    Rng rng(321);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    AdaptivePolicy pol;
    pol.targetHalfWidth = 0.01;
    est.setAdaptivePolicy(pol);

    // Zero error rate: every draw is empty, the analytic term IS the
    // answer (the noiseless query has fidelity 1) and no draw is
    // ever sampled or evaluated.
    GateNoise noise(PauliRates::depolarizing(0.0));
    const AdaptiveReport rep = est.estimateAdaptive(noise, 5);
    ASSERT_EQ(rep.results.size(), 1u);
    EXPECT_EQ(rep.emptyProb[0], 1.0);
    EXPECT_NEAR(rep.results[0].full, 1.0, 1e-9);
    EXPECT_EQ(rep.results[0].fullStderr, 0.0);
    EXPECT_EQ(rep.results[0].shots, 0u);
    EXPECT_EQ(rep.keptShots, 0u);
    EXPECT_EQ(rep.rawDraws, 0u);
    EXPECT_TRUE(rep.converged[0]);
}

// --- Sharding ----------------------------------------------------------

/** An adaptive shard spec over [begin, end) of a @p total-draw plan. */
ShardSpec
adaptiveSpec(std::size_t begin, std::size_t end, std::size_t total,
             std::uint64_t seed, const std::vector<double> &factors,
             const AdaptivePolicy &pol, unsigned threads = 1)
{
    ShardSpec s;
    s.shotBegin = begin;
    s.shotEnd = end;
    s.totalShots = total;
    s.seed = seed;
    s.stream = ShotStream::Counter;
    s.factors = factors;
    s.threads = threads;
    s.mode = EstimateMode::Adaptive;
    s.policy = pol;
    return s;
}

/** Serialize with the wall-clock setup_seconds/compute_seconds zeroed.
 *  Timing is a reporting-only field: it legitimately differs between
 *  independent runs of the same work (and merge sums it), so the
 *  byte-determinism assertions below compare everything BUT timing —
 *  the same rule the orchestrator's duplicate cross-check applies. */
std::string
timelessJson(const PartialEstimate &p)
{
    PartialEstimate c = p;
    c.setupSeconds = 0.0;
    c.computeSeconds = 0.0;
    return c.toJson();
}

TEST(AdaptiveSharding, KeepAllMergeByteIdenticalForHeterogeneousShards)
{
    Rng rng(777);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t total = 600;
    const std::uint64_t seed = 42;

    // The default policy (no CI target) keeps every non-empty draw:
    // keep decisions depend only on each draw's class, so any
    // partition of the draw range — including deliberately unequal
    // shard sizes — reassembles the identical kept-row set.
    AdaptivePolicy keepAll;
    const PartialEstimate single = est.runShard(
        noise, adaptiveSpec(0, total, total, seed, factors, keepAll));
    EXPECT_TRUE(single.adaptive);
    EXPECT_GT(single.rowDraw.size(), 0u);

    std::vector<PartialEstimate> parts;
    parts.push_back(est.runShard(
        noise, adaptiveSpec(0, 250, total, seed, factors, keepAll)));
    parts.push_back(est.runShard(
        noise,
        adaptiveSpec(250, 600, total, seed, factors, keepAll)));
    PartialEstimate merged;
    std::string err;
    ASSERT_TRUE(mergePartials(parts, merged, &err)) << err;
    EXPECT_EQ(timelessJson(merged), timelessJson(single));
    EXPECT_EQ(merged.resultJson(), single.resultJson());

    // A replay partial of the same plan must refuse to merge with an
    // adaptive one.
    const PartialEstimate replayPart = est.runShard(
        noise,
        SweepPlan::partition(total, 2, seed, factors).shards[0]);
    std::string why;
    EXPECT_FALSE(merged.canMerge(replayPart, &why));
    EXPECT_EQ(why, "estimate modes differ");
}

TEST(AdaptiveSharding, ThreadCountNeverChangesTheRows)
{
    Rng rng(888);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = FanoutQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(3e-3));
    const std::vector<double> factors = {1.0, 2.0};

    AdaptivePolicy pol;
    pol.targetHalfWidth = 0.03;
    pol.minShots = 32;
    pol.maxShots = 512;
    pol.batch = 64;
    const PartialEstimate one = est.runShard(
        noise, adaptiveSpec(0, 1500, 1500, 7, factors, pol, 1));
    const PartialEstimate four = est.runShard(
        noise, adaptiveSpec(0, 1500, 1500, 7, factors, pol, 4));
    // Keep decisions run on the coordinator and per-shot values never
    // depend on evaluation chunking, so the partials are identical.
    EXPECT_EQ(timelessJson(one), timelessJson(four));
}

TEST(AdaptiveSharding, StoppingMergeOrderInvariantAndJsonExact)
{
    Rng rng(999);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t total = 900;
    const std::uint64_t seed = 11;

    AdaptivePolicy pol;
    pol.targetHalfWidth = 0.05;
    pol.minShots = 16;
    pol.maxShots = 256;
    pol.batch = 64;

    // Three shards with unequal draw ranges, each stopping on its own
    // CI; merging is valid in any order and byte-deterministic.
    std::vector<PartialEstimate> parts;
    parts.push_back(est.runShard(
        noise, adaptiveSpec(0, 200, total, seed, factors, pol)));
    parts.push_back(est.runShard(
        noise, adaptiveSpec(200, 500, total, seed, factors, pol)));
    parts.push_back(est.runShard(
        noise, adaptiveSpec(500, 900, total, seed, factors, pol)));

    for (PartialEstimate &p : parts) {
        p.workload = "adaptive-test";
        // Exact JSON round-trip, including the adaptive extension.
        PartialEstimate back;
        std::string err;
        ASSERT_TRUE(
            PartialEstimate::fromJson(p.toJson(), back, &err))
            << err;
        EXPECT_EQ(back.toJson(), p.toJson());
        EXPECT_TRUE(back.adaptive);
        EXPECT_EQ(back.probEmpty, p.probEmpty);
        EXPECT_EQ(back.probZOnly, p.probZOnly);
        EXPECT_EQ(back.rowDraw, p.rowDraw);
        EXPECT_EQ(back.rowPoint, p.rowPoint);
        EXPECT_EQ(back.rowStratum, p.rowStratum);
        EXPECT_EQ(back.drawsUsed, p.drawsUsed);
        EXPECT_EQ(back.zCount, p.zCount);
        EXPECT_EQ(back.gCount, p.gCount);
    }

    PartialEstimate forward, backward;
    std::string err;
    ASSERT_TRUE(mergePartials(parts, forward, &err)) << err;
    std::vector<PartialEstimate> reversed = {parts[2], parts[0],
                                             parts[1]};
    ASSERT_TRUE(mergePartials(reversed, backward, &err)) << err;
    // Timing sums are float additions whose grouping depends on merge
    // order, so the byte-determinism claim excludes them.
    EXPECT_EQ(timelessJson(forward), timelessJson(backward));
    EXPECT_EQ(forward.resultJson(), backward.resultJson());

    // Tampered stratum sums must be rejected on load.
    PartialEstimate bad = parts[0];
    if (!bad.zSumF.empty() && bad.zCount[1] > 0.0) {
        bad.zSumF[1] += 0.5;
        PartialEstimate back;
        EXPECT_FALSE(
            PartialEstimate::fromJson(bad.toJson(), back, &err));
    }
}

TEST(AdaptiveSharding, SweepRolloverReachesTheSlowPoints)
{
    Rng rng(1212);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(1e-3));
    // A wide factor spread: low points converge quickly (almost all
    // empty, tiny sampled-stratum weight), high points need many more
    // kept shots. With the pooled budget, the budget the low points
    // never used must flow to the high ones.
    const std::vector<double> factors = {0.125, 4.0};

    AdaptivePolicy pol;
    pol.targetHalfWidth = 0.02;
    pol.minShots = 32;
    pol.maxShots = 1024;
    pol.batch = 128;
    est.setAdaptivePolicy(pol);
    const AdaptiveReport rep =
        est.estimateSweepAdaptive(noise, factors, 77);
    ASSERT_EQ(rep.results.size(), 2u);
    const std::size_t kept0 =
        rep.zOnlyShots[0] + rep.generalShots[0];
    const std::size_t kept1 =
        rep.zOnlyShots[1] + rep.generalShots[1];
    EXPECT_LT(rep.emptyProb[1], rep.emptyProb[0]);
    // The noisier point consumed (much) more of the pooled budget.
    EXPECT_GT(kept1, kept0);
    EXPECT_EQ(rep.keptShots, kept0 + kept1);
}

} // namespace
} // namespace qramsim
