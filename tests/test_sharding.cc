/**
 * @file
 * Sharded-estimation tests (sim/sharding.hh): shard-merge
 * bit-identity against the single-process estimators for every
 * partition, both shot streams, all architectures under X/Y/Z and
 * depolarizing noise; the gate/device sweep samplers against scaled
 * per-point models; PartialEstimate JSON round-trips; the runtime
 * replay-batch knob; and the qramsim_shard CLI end to end.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

void
expectResultsEq(const FidelityResult &a, const FidelityResult &b)
{
    EXPECT_EQ(a.full, b.full);
    EXPECT_EQ(a.reduced, b.reduced);
    EXPECT_EQ(a.fullStderr, b.fullStderr);
    EXPECT_EQ(a.reducedStderr, b.reducedStderr);
    EXPECT_EQ(a.shots, b.shots);
}

void
expectResultsEq(const std::vector<FidelityResult> &a,
                const std::vector<FidelityResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectResultsEq(a[i], b[i]);
    }
}

/** Run every shard of @p plan and merge (in the given order). */
PartialEstimate
runAndMerge(const FidelityEstimator &est, const NoiseModel &noise,
            const SweepPlan &plan, bool reverseMergeOrder = false)
{
    std::vector<PartialEstimate> parts;
    for (const ShardSpec &spec : plan.shards)
        parts.push_back(est.runShard(noise, spec));
    if (reverseMergeOrder)
        std::reverse(parts.begin(), parts.end());
    PartialEstimate merged;
    std::string err;
    EXPECT_TRUE(mergePartials(std::move(parts), merged, &err)) << err;
    return merged;
}

// --- Plan layer --------------------------------------------------------

TEST(Sharding, PartitionTilesTheShotRange)
{
    SweepPlan plan = SweepPlan::partition(100, 7, 42, {1.0, 2.0});
    ASSERT_FALSE(plan.shards.empty());
    std::size_t covered = 0;
    for (std::size_t i = 0; i < plan.shards.size(); ++i) {
        const ShardSpec &s = plan.shards[i];
        EXPECT_EQ(s.shotBegin, covered);
        EXPECT_GT(s.shotEnd, s.shotBegin);
        EXPECT_EQ(s.totalShots, 100u);
        EXPECT_EQ(s.seed, 42u);
        EXPECT_EQ(s.stream, ShotStream::Counter);
        EXPECT_EQ(s.factors, plan.factors);
        covered = s.shotEnd;
    }
    EXPECT_EQ(covered, 100u);

    // More shards than shots: trailing empties are dropped.
    EXPECT_EQ(SweepPlan::partition(3, 8, 0).shards.size(), 3u);
    // Zero shots still plans one (empty) shard.
    EXPECT_EQ(SweepPlan::partition(0, 4, 0).shards.size(), 1u);
}

// --- Shard-merge bit-identity ------------------------------------------

TEST(Sharding, MergeBitIdenticalAcrossPartitionsAllArchitectures)
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

            // The two single-process references the merges must
            // reproduce: the sequential Mersenne-stream estimator and
            // the counter-stream (threaded-mode) estimator.
            const FidelityResult seqRef =
                est.estimate(noise, shots, seed);
            const FidelityResult ctrRef =
                est.estimate(noise, shots, seed, 2);

            for (std::size_t n : {1u, 2u, 4u, 7u}) {
                SCOPED_TRACE("shards=" + std::to_string(n));
                SweepPlan seq = SweepPlan::partition(
                    shots, n, seed, {}, ShotStream::Sequential);
                expectResultsEq(
                    runAndMerge(est, noise, seq).finalize().front(),
                    seqRef);
                SweepPlan ctr = SweepPlan::partition(
                    shots, n, seed, {}, ShotStream::Counter);
                expectResultsEq(
                    runAndMerge(est, noise, ctr, n % 2 == 0)
                        .finalize()
                        .front(),
                    ctrRef);
            }
        }
    }
}

TEST(Sharding, SweepMergeBitIdenticalAcrossPartitions)
{
    Rng rng(31337);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    const std::vector<double> factors = {0.25, 1.0, 3.0};
    const std::size_t shots = 40;
    const std::uint64_t seed = 77;

    QubitChannelNoise qn(PauliRates::depolarizing(3e-3));
    GateNoise gn(PauliRates::depolarizing(2e-3));
    const NoiseModel *models[] = {&qn, &gn};
    for (const NoiseModel *noise : models) {
        SCOPED_TRACE(noise->name());
        const std::vector<FidelityResult> seqRef =
            est.estimateSweep(*noise, factors, shots, seed);
        const std::vector<FidelityResult> ctrRef =
            est.estimateSweep(*noise, factors, shots, seed, 2);
        for (std::size_t n : {2u, 4u, 7u}) {
            SCOPED_TRACE("shards=" + std::to_string(n));
            SweepPlan seq = SweepPlan::partition(
                shots, n, seed, factors, ShotStream::Sequential);
            expectResultsEq(
                runAndMerge(est, *noise, seq).finalize(), seqRef);
            SweepPlan ctr = SweepPlan::partition(
                shots, n, seed, factors, ShotStream::Counter);
            expectResultsEq(
                runAndMerge(est, *noise, ctr).finalize(), ctrRef);
        }
    }
}

TEST(Sharding, MergeRejectsMismatchedOrIncompletePartials)
{
    Rng rng(4242);
    Memory mem = Memory::random(2, rng);
    QueryCircuit qc = FanoutQram(2).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(2));
    QubitChannelNoise noise(PauliRates::depolarizing(1e-2));
    SweepPlan plan = SweepPlan::partition(16, 4, 5);
    std::vector<PartialEstimate> parts;
    for (const ShardSpec &s : plan.shards)
        parts.push_back(est.runShard(noise, s));

    PartialEstimate merged;
    std::string err;
    // Missing a shard -> gap.
    {
        std::vector<PartialEstimate> missing = {parts[0], parts[2],
                                                parts[3]};
        EXPECT_FALSE(mergePartials(missing, merged, &err));
    }
    // Duplicated shard -> overlap.
    {
        std::vector<PartialEstimate> dup = {parts[0], parts[1],
                                            parts[1], parts[2],
                                            parts[3]};
        EXPECT_FALSE(mergePartials(dup, merged, &err));
    }
    // Mismatched seed -> refused.
    {
        std::vector<PartialEstimate> bad = parts;
        bad[1].seed ^= 1;
        EXPECT_FALSE(mergePartials(bad, merged, &err));
    }
    // The intact set merges.
    EXPECT_TRUE(mergePartials(parts, merged, &err)) << err;
}

TEST(Sharding, MergeRefusesAnotherSamplerVersion)
{
    // Another sampler version draws other shots from the same seed:
    // its partials must never merge with this build's. A partial whose
    // JSON predates the version field was drawn by version 1.
    Rng rng(4243);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    SweepPlan plan = SweepPlan::partition(16, 2, 5, {0.5, 1.0});
    std::vector<PartialEstimate> parts;
    for (const ShardSpec &s : plan.shards)
        parts.push_back(est.runShard(noise, s));
    ASSERT_EQ(parts[0].sampler, kSamplerVersion);

    PartialEstimate merged;
    std::string err;
    std::vector<PartialEstimate> mixed = parts;
    mixed[1].sampler = kSamplerVersion - 1;
    EXPECT_FALSE(mergePartials(mixed, merged, &err));
    EXPECT_NE(err.find("sampler"), std::string::npos) << err;

    std::string json = parts[1].toJson();
    const std::string field = "  \"sampler\": " +
                              std::to_string(kSamplerVersion) + ",\n";
    const std::size_t at = json.find(field);
    ASSERT_NE(at, std::string::npos) << json;
    PartialEstimate old;
    json.erase(at, field.size());
    ASSERT_TRUE(PartialEstimate::fromJson(json, old, &err)) << err;
    EXPECT_EQ(old.sampler, 1u);
    EXPECT_FALSE(mergePartials({parts[0], old}, merged, &err));
    EXPECT_TRUE(mergePartials(parts, merged, &err)) << err;
}

// --- JSON --------------------------------------------------------------

TEST(Sharding, PartialJsonRoundTripIsExact)
{
    Rng rng(999);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(5e-3));
    SweepPlan plan =
        SweepPlan::partition(24, 3, 11, {0.5, 1.0, 2.0});

    for (const ShardSpec &spec : plan.shards) {
        PartialEstimate part = est.runShard(noise, spec);
        part.workload = "test-workload";
        PartialEstimate back;
        std::string err;
        ASSERT_TRUE(PartialEstimate::fromJson(part.toJson(), back,
                                              &err))
            << err;
        EXPECT_EQ(back.workload, part.workload);
        EXPECT_EQ(back.shotBegin, part.shotBegin);
        EXPECT_EQ(back.shotEnd, part.shotEnd);
        EXPECT_EQ(back.totalShots, part.totalShots);
        EXPECT_EQ(back.seed, part.seed);
        EXPECT_EQ(back.stream, part.stream);
        EXPECT_EQ(back.numPoints, part.numPoints);
        EXPECT_EQ(back.factors, part.factors);
        EXPECT_EQ(back.full, part.full);       // exact doubles
        EXPECT_EQ(back.reduced, part.reduced);
        EXPECT_EQ(back.sumF, part.sumF);
        EXPECT_EQ(back.sumF2, part.sumF2);
        EXPECT_EQ(back.sumR, part.sumR);
        EXPECT_EQ(back.sumR2, part.sumR2);
    }

    PartialEstimate garbage;
    std::string err;
    EXPECT_FALSE(PartialEstimate::fromJson("{]", garbage, &err));
    EXPECT_FALSE(PartialEstimate::fromJson("{}", garbage, &err));
}

TEST(Sharding, ResultJsonByteIdenticalAcrossPartitions)
{
    Rng rng(1000);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    const std::size_t shots = 30;

    std::string first;
    for (std::size_t n : {1u, 2u, 5u}) {
        PartialEstimate merged = runAndMerge(
            est, noise, SweepPlan::partition(shots, n, 21));
        const std::string json = merged.resultJson();
        if (first.empty())
            first = json;
        else
            EXPECT_EQ(json, first) << "partition " << n;
    }
}

TEST(Sharding, ResultJsonNamesTheSamplerVersion)
{
    // Two results that differ only in the sampler that drew them must
    // not share their bytes: the same seed gives other shots under
    // another sampler, so a reader has to be able to tell them apart.
    Rng rng(1001);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    const PartialEstimate merged =
        runAndMerge(est, noise, SweepPlan::partition(16, 2, 3));
    PartialEstimate older = merged;
    older.sampler = kSamplerVersion - 1;
    EXPECT_NE(merged.resultJson(), older.resultJson());
    EXPECT_NE(merged.resultJson().find(
                  "\"sampler\": " + std::to_string(kSamplerVersion)),
              std::string::npos)
        << merged.resultJson();
}

// --- Sweep samplers ----------------------------------------------------

void
expectRealizationsEq(const FlatRealization &a, const FlatRealization &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    EXPECT_EQ(a.zOnly, b.zOnly);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].pos, b.events[i].pos);
        EXPECT_EQ(a.events[i].qubit, b.events[i].qubit);
        EXPECT_EQ(a.events[i].pauli, b.events[i].pauli);
    }
}

TEST(Sharding, GateNoiseSweepMatchesScaledSampleFlat)
{
    Rng rng(2024);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const PauliRates base = PauliRates::depolarizing(2e-2);
    const std::vector<double> factors = {0.3, 1.0, 2.5};

    for (bool weighted : {true, false}) {
        GateNoise sweep(base, weighted);
        sweep.prepareSweep(exec, factors.data(), factors.size());
        std::vector<FlatRealization> outs(factors.size());
        for (int shot = 0; shot < 8; ++shot) {
            // The sweep shares one uniform per site; a scaled model
            // consuming its own identically-seeded stream must see
            // the same draws, hence the same events per point.
            Rng sweepRng(4000 + shot);
            sweep.sampleFlatSweep(exec, sweepRng, factors.data(),
                                  factors.size(), outs.data());
            for (std::size_t j = 0; j < factors.size(); ++j) {
                SCOPED_TRACE(j);
                GateNoise scaled(base.scaled(factors[j]), weighted);
                scaled.prepare(exec);
                Rng pointRng(4000 + shot);
                FlatRealization ref;
                scaled.sampleFlat(exec, pointRng, ref);
                expectRealizationsEq(outs[j], ref);
            }
        }
    }
}

TEST(Sharding, DeviceNoiseSweepMatchesScaledSampleFlat)
{
    Rng rng(2025);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const PauliRates r1 = PauliRates::depolarizing(5e-3);
    const PauliRates r2 = PauliRates::depolarizing(2e-2);
    const std::vector<double> factors = {0.5, 1.0, 4.0};

    DeviceNoise sweep(r1, r2);
    sweep.prepareSweep(exec, factors.data(), factors.size());
    std::vector<FlatRealization> outs(factors.size());
    for (int shot = 0; shot < 8; ++shot) {
        Rng sweepRng(6000 + shot);
        sweep.sampleFlatSweep(exec, sweepRng, factors.data(),
                              factors.size(), outs.data());
        for (std::size_t j = 0; j < factors.size(); ++j) {
            SCOPED_TRACE(j);
            DeviceNoise scaled(r1.scaled(factors[j]),
                               r2.scaled(factors[j]));
            scaled.prepare(exec);
            Rng pointRng(6000 + shot);
            FlatRealization ref;
            scaled.sampleFlat(exec, pointRng, ref);
            expectRealizationsEq(outs[j], ref);
        }
    }
}

TEST(Sharding, QubitChannelSweepMatchesScaledSampleFlat)
{
    Rng rng(2026);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FeynmanExecutor exec(qc.circuit);
    const PauliRates base = PauliRates::depolarizing(4e-3);
    const std::vector<double> factors = {0.5, 1.0, 3.0};

    for (unsigned rounds :
         {0u, QubitChannelNoise::virtualQramRounds(2, 1)}) {
        SCOPED_TRACE("rounds " + std::to_string(rounds));
        QubitChannelNoise sweep(base, rounds);
        sweep.prepareSweep(exec, factors.data(), factors.size());
        std::vector<FlatRealization> outs(factors.size());
        std::size_t events = 0;
        for (int shot = 0; shot < 8; ++shot) {
            // Sequential: the sweep's one draw per site must reproduce
            // each scaled model's own draws. Counter streams walk the
            // sweep's tops, which are the largest factor's thresholds,
            // so that point alone matches draw for draw (the other
            // points match in distribution: tests/test_sampler.cc).
            Rng sweepRng(7000 + shot);
            sweep.sampleFlatSweep(exec, sweepRng, factors.data(),
                                  factors.size(), outs.data());
            std::vector<FlatRealization> ctrOuts(factors.size());
            CounterRng sweepCtr(7000, shot);
            sweep.sampleFlatSweep(exec, sweepCtr, factors.data(),
                                  factors.size(), ctrOuts.data());
            for (std::size_t j = 0; j < factors.size(); ++j) {
                SCOPED_TRACE(j);
                QubitChannelNoise scaled(base.scaled(factors[j]),
                                         rounds);
                scaled.prepare(exec);
                Rng pointRng(7000 + shot);
                FlatRealization ref;
                scaled.sampleFlat(exec, pointRng, ref);
                expectRealizationsEq(outs[j], ref);
                events += ref.events.size();
                if (j + 1 < factors.size())
                    continue;
                CounterRng pointCtr(7000, shot);
                scaled.sampleFlat(exec, pointCtr, ref);
                expectRealizationsEq(ctrOuts[j], ref);
            }
        }
        EXPECT_GT(events, 0u) << "rates too low to compare anything";
    }
}

TEST(Sharding, GateNoiseSweepPointsMatchScaledEstimates)
{
    Rng rng(808);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    const PauliRates base = PauliRates::depolarizing(3e-3);
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t shots = 32;
    const std::uint64_t seed = 515;

    GateNoise noise(base);
    const std::vector<FidelityResult> sweep =
        est.estimateSweep(noise, factors, shots, seed);
    for (std::size_t j = 0; j < factors.size(); ++j) {
        SCOPED_TRACE(j);
        GateNoise scaled(base.scaled(factors[j]));
        // A single-factor sweep consumes the identical draw stream
        // as the plain estimate of the scaled model.
        expectResultsEq(
            sweep[j],
            est.estimateSweep(scaled, {1.0}, shots, seed).front());
        expectResultsEq(sweep[j],
                        est.estimate(scaled, shots, seed));
    }

    DeviceNoise dev(PauliRates::depolarizing(1e-3),
                    PauliRates::depolarizing(5e-3));
    const std::vector<FidelityResult> devSweep =
        est.estimateSweep(dev, factors, shots, seed);
    for (std::size_t j = 0; j < factors.size(); ++j) {
        SCOPED_TRACE("device " + std::to_string(j));
        DeviceNoise scaled(
            PauliRates::depolarizing(1e-3).scaled(factors[j]),
            PauliRates::depolarizing(5e-3).scaled(factors[j]));
        expectResultsEq(devSweep[j],
                        est.estimate(scaled, shots, seed));
    }
}

// --- Replay-batch knob -------------------------------------------------

TEST(Sharding, ReplayBatchWidthNeverChangesResults)
{
    Rng rng(606);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(5e-3));

    // The default width, tuned on the op-major block path.
    EXPECT_EQ(est.replayBatch(), 16u);
    EXPECT_EQ(est.setReplayBatch(0), 1u);   // clamped low
    EXPECT_EQ(est.setReplayBatch(1000), 64u); // clamped high

    est.setReplayBatch(8);
    const FidelityResult ref = est.estimate(noise, 48, 33);
    const FidelityResult refMt = est.estimate(noise, 48, 33, 3);
    for (std::size_t w : {1u, 3u, 16u, 64u}) {
        SCOPED_TRACE(w);
        est.setReplayBatch(w);
        expectResultsEq(est.estimate(noise, 48, 33), ref);
        expectResultsEq(est.estimate(noise, 48, 33, 3), refMt);
    }
}

// --- CLI end to end ----------------------------------------------------

#ifdef QRAMSIM_SHARD_BIN
TEST(Sharding, CliRunMergeEndToEnd)
{
    const std::string bin = QRAMSIM_SHARD_BIN;
    const std::string dir =
        ::testing::TempDir() + "qramsim_shard_" +
        std::to_string(static_cast<unsigned>(getpid()));
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    const std::string workload =
        " run --arch bb --m 3 --noise gate-depol --eps 2e-3"
        " --shots 24 --seed 2023 --factors 0.5,1,2";

    auto sh = [&](const std::string &cmd) {
        return std::system((bin + cmd).c_str());
    };
    ASSERT_EQ(sh(workload + " --shard 0/3 --out " + dir + "/p0.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 1/3 --out " + dir + "/p1.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 2/3 --out " + dir + "/p2.json"),
              0);
    ASSERT_EQ(sh(" merge --out " + dir + "/merged3.json " + dir +
                 "/p0.json " + dir + "/p1.json " + dir + "/p2.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 0/1 --out " + dir +
                 "/pall.json"),
              0);
    ASSERT_EQ(sh(" merge --out " + dir + "/merged1.json " + dir +
                 "/pall.json"),
              0);
    // The 3-way and 1-way merges must be byte-identical.
    EXPECT_EQ(std::system(("cmp -s " + dir + "/merged3.json " + dir +
                           "/merged1.json")
                              .c_str()),
              0);
    // An incomplete merge must fail.
    EXPECT_NE(sh(" merge --out /dev/null " + dir + "/p0.json " + dir +
                 "/p2.json"),
              0);
    // And the CLI result must match the in-process estimator: the
    // counter-stream sweep of the same workload.
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    PartialEstimate merged = runAndMerge(
        est, noise,
        SweepPlan::partition(24, 3, 2023, {0.5, 1.0, 2.0}));
    std::FILE *f = std::fopen((dir + "/merged3.json").c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string fileJson;
    char buf[4096];
    std::size_t nr;
    while ((nr = std::fread(buf, 1, sizeof buf, f)) > 0)
        fileJson.append(buf, nr);
    std::fclose(f);
    merged.workload = "";
    std::string expect = merged.resultJson();
    // The CLI stamps its workload fingerprint; splice it out of the
    // comparison by comparing from the "points" section.
    const std::string key = "\"points\":";
    ASSERT_NE(fileJson.find(key), std::string::npos);
    ASSERT_NE(expect.find(key), std::string::npos);
    EXPECT_EQ(fileJson.substr(fileJson.find(key)),
              expect.substr(expect.find(key)));
    std::system(("rm -rf " + dir).c_str());
}

TEST(Sharding, CliRejectsMalformedAndUnknownFlags)
{
    const std::string bin = QRAMSIM_SHARD_BIN;
    auto sh = [&](const std::string &cmd) {
        return std::system(
            (bin + cmd + " > /dev/null 2>&1").c_str());
    };
    const std::string base =
        " run --arch bb --noise gate-depol --eps 2e-3 --shots 8"
        " --out /dev/null";
    // Well-formed baseline sanity: the workload itself runs.
    ASSERT_EQ(sh(base + " --m 3"), 0);
    // Malformed unsigned values: trailing junk, signs, empty.
    EXPECT_NE(sh(base + " --m 3x"), 0);
    EXPECT_NE(sh(base + " --m -1"), 0);
    EXPECT_NE(sh(base + " --m "
                 "999999999999999999999999"),
              0);
    EXPECT_NE(sh(" run --arch bb --m 3 --noise gate-depol"
                 " --eps 2e-3 --shots 1e3 --out /dev/null"),
              0);
    // Malformed doubles.
    EXPECT_NE(sh(" run --arch bb --m 3 --noise gate-depol"
                 " --eps abc --shots 8 --out /dev/null"),
              0);
    EXPECT_NE(sh(base + " --m 3 --factors 0.5,,2"), 0);
    // Every factor is a finite decimal >= 0, and no entry is empty.
    for (const char *bad :
         {"nan", "inf", "-1", "-0", "' 2'", "1,", ",1", "0x1p1"})
        EXPECT_NE(sh(base + " --m 3 --factors " + bad), 0) << bad;
    // 0 is the noiseless point, not a malformed factor.
    EXPECT_EQ(sh(base + " --m 3 --factors 0,0.5,2"), 0);
    // Rates are probabilities, and a Pauli channel name is exact (a
    // negative rate used to read as a perfect fidelity, and gate-zz
    // ran as gate-depol).
    for (const char *bad :
         {"--eps -0.5", "--eps 7", "--eps 1.0000001",
          "--noise device --eps2 -1", "--noise device --eps2 2",
          "--noise gate-zz", "--noise qubit-zz", "--noise gate-",
          "--noise qubit-depolarizing"})
        EXPECT_NE(sh(base + " --m 3 " + bad), 0) << bad;
    EXPECT_EQ(sh(base + " --m 3 --eps 0"), 0);
    EXPECT_EQ(sh(base + " --m 3 --eps 1 --noise qubit-y"), 0);
    // Unknown flags must not be silently ignored.
    EXPECT_NE(sh(base + " --m 3 --frobnicate"), 0);
    EXPECT_NE(sh(" merge --out /dev/null --frobnicate"), 0);
    // Missing values.
    EXPECT_NE(sh(base + " --m"), 0);
    EXPECT_NE(sh(" merge --out"), 0);
    // Adaptive flag validation: confidence range and the stream
    // requirement (sequential replay has no per-draw addressing).
    EXPECT_NE(sh(base + " --m 3 --adaptive --confidence 1.5"), 0);
    EXPECT_NE(sh(base + " --m 3 --adaptive --target-ci nope"), 0);
    EXPECT_NE(sh(base +
                 " --m 3 --adaptive --stream sequential"),
              0);
    EXPECT_EQ(sh(base + " --m 3 --adaptive --target-ci 0.05"), 0);
}

TEST(Sharding, CliAdaptiveRunMergeEndToEnd)
{
    const std::string bin = QRAMSIM_SHARD_BIN;
    const std::string dir =
        ::testing::TempDir() + "qramsim_shard_adaptive_" +
        std::to_string(static_cast<unsigned>(getpid()));
    ASSERT_EQ(std::system(("mkdir -p " + dir).c_str()), 0);
    auto sh = [&](const std::string &cmd) {
        return std::system((bin + cmd).c_str());
    };
    // Keep-all adaptive mode (no --target-ci): heterogeneous shard
    // draw counts still merge to the byte-identical single run.
    const std::string workload =
        " run --arch bb --m 3 --noise gate-depol --eps 2e-3"
        " --shots 90 --seed 321 --factors 0.5,1,2 --adaptive";
    ASSERT_EQ(sh(workload + " --shard 0/3 --out " + dir + "/a0.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 1/3 --out " + dir + "/a1.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 2/3 --out " + dir + "/a2.json"),
              0);
    ASSERT_EQ(sh(" merge --out " + dir + "/amerged3.json " + dir +
                 "/a0.json " + dir + "/a1.json " + dir + "/a2.json"),
              0);
    ASSERT_EQ(sh(workload + " --shard 0/1 --out " + dir +
                 "/aall.json"),
              0);
    ASSERT_EQ(sh(" merge --out " + dir + "/amerged1.json " + dir +
                 "/aall.json"),
              0);
    EXPECT_EQ(std::system(("cmp -s " + dir + "/amerged3.json " + dir +
                           "/amerged1.json")
                              .c_str()),
              0);
    // Adaptive and replay partials of the same plan must not merge.
    const std::string replayWorkload =
        " run --arch bb --m 3 --noise gate-depol --eps 2e-3"
        " --shots 90 --seed 321 --factors 0.5,1,2";
    ASSERT_EQ(sh(replayWorkload + " --shard 0/3 --out " + dir +
                 "/r0.json"),
              0);
    EXPECT_NE(sh(" merge --out /dev/null " + dir + "/r0.json " + dir +
                 "/a1.json " + dir + "/a2.json"),
              0);
    std::system(("rm -rf " + dir).c_str());
}
#endif // QRAMSIM_SHARD_BIN

} // namespace
} // namespace qramsim
