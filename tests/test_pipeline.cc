/**
 * @file
 * Threaded shot-loop tests (the counter-stream TaskGroup dispatch of
 * sim/fidelity.hh and the common/threadpool.hh it runs on):
 * bit-identity of threaded runs with the single-threaded
 * counter-stream shard across all architectures, noise channels,
 * replay engines, SIMD tiers, thread counts, batch widths and sweeps;
 * shard-merge identity with threaded shards; pool lifecycle (reuse
 * across estimates, clean shutdown, exception propagation out of a
 * task); the per-thread stage accounting; and the strict env parsing
 * behind the runtime knobs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/threadpool.hh"
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

/**
 * The whole shot range as one counter-stream shard on @p threads
 * threads. With threads = 1 this is the plain single-threaded shot
 * loop: the oracle every threaded run must reproduce bit for bit.
 */
std::vector<FidelityResult>
counterShard(const FidelityEstimator &est, const NoiseModel &noise,
             std::size_t shots, std::uint64_t seed, unsigned threads,
             const std::vector<double> &factors = {})
{
    ShardSpec spec;
    spec.shotEnd = spec.totalShots = shots;
    spec.seed = seed;
    spec.stream = ShotStream::Counter;
    spec.threads = threads;
    spec.factors = factors;
    return est.runShard(noise, spec).finalize();
}

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

// --- Bit-identity matrix -----------------------------------------------

TEST(Pipeline, BitIdenticalAllArchitecturesNoiseAndThreadCounts)
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

    const std::size_t shots = 24;
    const std::uint64_t seed = 909;
    for (const Arch &a : archs) {
        FidelityEstimator est(a.qc.circuit, a.qc.addressQubits,
                              a.qc.busQubit,
                              AddressSuperposition::uniform(a.width));
        for (const NoiseCase &nc : noises) {
            QubitChannelNoise noise(nc.rates);
            const std::vector<FidelityResult> ref =
                counterShard(est, noise, shots, seed, 1);
            for (unsigned threads : {1u, 2u, 7u}) {
                SCOPED_TRACE(std::string(a.name) + " / " + nc.name +
                             " / threads=" +
                             std::to_string(threads));
                expectResultsEq(
                    counterShard(est, noise, shots, seed, threads),
                    ref);
                EXPECT_EQ(est.lastPipelineStats().threads, threads);
            }
        }
    }
}

TEST(Pipeline, BitIdenticalAcrossEnginesAndSimdTiers)
{
    Rng rng(33);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    QubitChannelNoise noise(PauliRates::depolarizing(5e-3));
    const std::size_t shots = 24;
    const std::uint64_t seed = 41;

    const FidelityEstimator::ReplayEngine engines[] = {
        FidelityEstimator::ReplayEngine::Ensemble,
        FidelityEstimator::ReplayEngine::Scalar,
    };
    const char *engineNames[] = {"ensemble", "scalar"};

    // The cross-engine/tier oracle: single-threaded block replay.
    const FidelityResult oracle =
        counterShard(est, noise, shots, seed, 1).front();

    for (simd::Tier tier : supportedTiers()) {
        TierGuard guard(tier);
        for (std::size_t e = 0; e < 2; ++e) {
            est.setReplayEngine(engines[e]);
            for (unsigned threads : {2u, 7u}) {
                SCOPED_TRACE(std::string(simd::tierName(tier)) +
                             " / " + engineNames[e] + " / threads=" +
                             std::to_string(threads));
                expectResultsEq(
                    est.estimate(noise, shots, seed, threads), oracle);
            }
        }
    }
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
}

TEST(Pipeline, BitIdenticalAtEveryBatchWidth)
{
    Rng rng(7);
    Memory mem = Memory::random(2, rng);
    QueryCircuit qc = FanoutQram(2).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(2));
    QubitChannelNoise noise(PauliRates::depolarizing(8e-3));
    const std::size_t shots = 48;
    const std::uint64_t seed = 12345;

    const FidelityResult ref =
        counterShard(est, noise, shots, seed, 1).front();

    for (std::size_t width = 1; width <= 64; ++width) {
        SCOPED_TRACE("batch width " + std::to_string(width));
        ASSERT_EQ(est.setReplayBatch(width), width);
        expectResultsEq(est.estimate(noise, shots, seed, 2), ref);
    }
}

TEST(Pipeline, SweepBitIdenticalToSingleThread)
{
    Rng rng(99);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    const std::vector<double> factors = {0.5, 1.0, 2.0, 4.0};
    const std::size_t shots = 24;
    const std::uint64_t seed = 4242;

    GateNoise gate(PauliRates::depolarizing(2e-3), true);
    QubitChannelNoise qubit(PauliRates::bitFlip(3e-3));
    const NoiseModel *models[] = {&gate, &qubit};
    for (const NoiseModel *noise : models) {
        const std::vector<FidelityResult> ref =
            counterShard(est, *noise, shots, seed, 1, factors);
        for (unsigned threads : {2u, 7u}) {
            SCOPED_TRACE(noise->name() + " / threads=" +
                         std::to_string(threads));
            expectResultsEq(est.estimateSweep(*noise, factors, shots,
                                              seed, threads),
                            ref);
        }
    }
}

// --- Sharding ----------------------------------------------------------

TEST(Pipeline, ShardMergeBitIdenticalToSingleThread)
{
    Rng rng(2024);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    QubitChannelNoise noise(PauliRates::depolarizing(4e-3));
    const std::size_t shots = 48;
    const std::uint64_t seed = 777;

    // The whole range on one thread: the oracle every partition of
    // threaded shards must reproduce bit for bit.
    const FidelityResult ref =
        counterShard(est, noise, shots, seed, 1).front();

    ThreadPool shared(3);
    for (std::size_t nShards : {1u, 2u, 5u}) {
        SCOPED_TRACE("shards=" + std::to_string(nShards));
        SweepPlan plan = SweepPlan::partition(shots, nShards, seed);
        std::vector<PartialEstimate> parts;
        for (ShardSpec spec : plan.shards) {
            spec.threads = 2;
            // Exercise the caller-owned pool path on the odd shards.
            if (parts.size() % 2 == 1)
                spec.pool = &shared;
            parts.push_back(est.runShard(noise, spec));
        }
        PartialEstimate merged;
        std::string err;
        ASSERT_TRUE(mergePartials(std::move(parts), merged, &err))
            << err;
        expectResultsEq(merged.finalize().front(), ref);
    }
}

// --- Pool lifecycle ----------------------------------------------------

TEST(ThreadPool, ResolveThreadsRule)
{
    EXPECT_GE(hardwareThreads(), 1u);
    EXPECT_EQ(resolveThreads(0), hardwareThreads());
    EXPECT_EQ(resolveThreads(1), 1u);
    EXPECT_EQ(resolveThreads(7), 7u);
}

TEST(ThreadPool, DestructorDrainsTheQueue)
{
    std::atomic<int> ran{0};
    for (int round = 0; round < 10; ++round) {
        ThreadPool pool(3);
        EXPECT_EQ(pool.size(), 3u);
        for (int i = 0; i < 64; ++i)
            pool.post([&ran] { ++ran; });
        // No wait: destruction must still run every posted task.
    }
    EXPECT_EQ(ran.load(), 640);
}

TEST(ThreadPool, TaskGroupWaitsAndIsReusable)
{
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int wave = 1; wave <= 3; ++wave) {
        for (int i = 0; i < 32; ++i)
            group.run([&ran] { ++ran; });
        group.wait();
        EXPECT_EQ(ran.load(), 32 * wave);
    }
}

TEST(ThreadPool, TaskGroupRethrowsTheFirstStageException)
{
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 8; ++i)
        group.run([&ran, i] {
            ++ran;
            if (i == 3)
                throw std::runtime_error("stage failure");
        });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 8); // every task still ran to completion
    // The error is consumed: the group is reusable afterwards.
    group.run([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, EveryWorkerThrowingAtOnceNeitherLeaksNorDeadlocks)
{
    // The worst case for the capture path: every task on every worker
    // throws in the same wave, so the exception slot is contended from
    // all sides. wait() must report exactly one failure per wave and
    // leave the group and pool fully reusable.
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::atomic<int> ran{0};
    for (int wave = 0; wave < 20; ++wave) {
        for (int i = 0; i < 32; ++i)
            group.run([&ran, i] {
                ++ran;
                throw std::runtime_error("task " + std::to_string(i));
            });
        EXPECT_THROW(group.wait(), std::runtime_error);
    }
    EXPECT_EQ(ran.load(), 20 * 32);
    // A clean wave after the storm: no stale captured error.
    group.run([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 20 * 32 + 1);
}

TEST(ThreadPool, ConcurrentGroupsOnOneTaskPoolIsolateTheirFailures)
{
    // Several TaskGroups — the shape of several pipeline stages in
    // flight — share one pool, driven from independent caller threads.
    // A failure in one group must surface only on that group's wait()
    // and must not wedge or poison its siblings.
    ThreadPool pool(3);
    std::atomic<int> clean{0};
    std::atomic<int> faults{0};
    std::vector<std::thread> callers;
    for (int g = 0; g < 6; ++g)
        callers.emplace_back([&, g] {
            const bool throwing = (g % 2 == 0);
            TaskGroup group(pool);
            for (int round = 0; round < 8; ++round) {
                for (int i = 0; i < 16; ++i)
                    group.run([&, i] {
                        if (throwing && i == 7)
                            throw std::runtime_error("stage fault");
                        ++clean;
                    });
                try {
                    group.wait();
                    EXPECT_FALSE(throwing)
                        << "a throwing group's wait() came back clean";
                } catch (const std::runtime_error &) {
                    ++faults;
                    EXPECT_TRUE(throwing)
                        << "a clean group caught a sibling's fault";
                }
            }
        });
    for (std::thread &t : callers)
        t.join();
    EXPECT_EQ(faults.load(), 3 * 8);
    EXPECT_EQ(clean.load(), 6 * 8 * 16 - 3 * 8);
    // The pool outlives the storm and still runs ordinary work.
    TaskGroup after(pool);
    std::atomic<int> ran{0};
    for (int i = 0; i < 32; ++i)
        after.run([&ran] { ++ran; });
    after.wait();
    EXPECT_EQ(ran.load(), 32);
}

TEST(Pipeline, PersistentPoolReusedAcrossEstimates)
{
    Rng rng(11);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    QubitChannelNoise depol(PauliRates::depolarizing(4e-3));
    QubitChannelNoise flips(PauliRates::bitFlip(4e-3));

    // One estimator reusing its lazy pool across calls (including a
    // growth from 2 to 7 workers) must match fresh estimators.
    FidelityEstimator reused(qc.circuit, qc.addressQubits,
                             qc.busQubit,
                             AddressSuperposition::uniform(3));
    const struct
    {
        const NoiseModel *noise;
        unsigned threads;
    } calls[] = {{&depol, 2}, {&flips, 7}, {&depol, 2}, {&flips, 2}};
    for (const auto &c : calls) {
        FidelityEstimator fresh(qc.circuit, qc.addressQubits,
                                qc.busQubit,
                                AddressSuperposition::uniform(3));
        expectResultsEq(
            reused.estimate(*c.noise, 24, 5, c.threads),
            fresh.estimate(*c.noise, 24, 5, c.threads));
    }
}

/**
 * A noise model whose counter-stream sampler starts throwing after a
 * fixed number of shots — the stage-failure injector for the
 * exception-propagation contract: a throw inside a sampling task must
 * surface as an exception from estimate() on the calling thread, not
 * terminate the process or hang the coordinator.
 */
class ThrowingNoise : public NoiseModel
{
  public:
    ThrowingNoise(PauliRates rates, int okShots)
        : inner(rates), budget(okShots)
    {}

    ErrorRealization
    sample(const FeynmanExecutor &exec, Rng &rng) const override
    {
        return inner.sample(exec, rng);
    }

    void
    prepare(const FeynmanExecutor &exec) const override
    {
        inner.prepare(exec);
    }

    void
    sampleFlat(const FeynmanExecutor &exec, Rng &rng,
               FlatRealization &out) const override
    {
        inner.sampleFlat(exec, rng, out);
    }

    void
    sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
               FlatRealization &out) const override
    {
        if (++calls > budget)
            throw std::runtime_error("injected sampler failure");
        inner.sampleFlat(exec, rng, out);
    }

    std::string name() const override { return "throwing"; }

  private:
    QubitChannelNoise inner;
    int budget;
    mutable std::atomic<int> calls{0};
};

TEST(Pipeline, StageExceptionPropagatesToTheCaller)
{
    Rng rng(3);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    ThrowingNoise boom(PauliRates::depolarizing(4e-3), 40);

    // The threaded path propagates through TaskGroup (the old
    // spawn/join loop would have std::terminate'd).
    EXPECT_THROW(est.estimate(boom, 256, 1, 3), std::runtime_error);
    // The estimator (and its pool) must remain usable afterwards.
    QubitChannelNoise fine(PauliRates::depolarizing(4e-3));
    const FidelityResult after = est.estimate(fine, 24, 5, 2);
    EXPECT_GT(after.shots, 0u);
}

// --- Knobs and env parsing ---------------------------------------------

TEST(Pipeline, StrictEnvParsingRejectsGarbageAndOverflow)
{
    unsigned long v = 99;
    EXPECT_TRUE(env::parseUnsigned("0", 100, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(env::parseUnsigned("100", 100, v));
    EXPECT_EQ(v, 100u);
    EXPECT_FALSE(env::parseUnsigned("101", 100, v));
    EXPECT_FALSE(env::parseUnsigned("", 100, v));
    EXPECT_FALSE(env::parseUnsigned(nullptr, 100, v));
    EXPECT_FALSE(env::parseUnsigned("-1", 100, v));
    EXPECT_FALSE(env::parseUnsigned("+7", 100, v));
    EXPECT_FALSE(env::parseUnsigned(" 7", 100, v));
    EXPECT_FALSE(env::parseUnsigned("7 ", 100, v));
    EXPECT_FALSE(env::parseUnsigned("7junk", 100, v));
    EXPECT_FALSE(env::parseUnsigned("0x10", 100, v));
    // Larger than unsigned long itself: must fail, not wrap.
    EXPECT_FALSE(env::parseUnsigned("99999999999999999999999999",
                                    ~0ul, v));
    EXPECT_TRUE(env::parseUnsigned("18446744073709551615", ~0ul, v));
    EXPECT_EQ(v, ~0ul);

    ASSERT_EQ(setenv("QRAMSIM_TEST_KNOB", "123", 1), 0);
    EXPECT_EQ(env::readUnsigned("QRAMSIM_TEST_KNOB", 1000),
              std::optional<unsigned long>(123));
    EXPECT_EQ(env::readUnsigned("QRAMSIM_TEST_KNOB", 100),
              std::nullopt);
    ASSERT_EQ(unsetenv("QRAMSIM_TEST_KNOB"), 0);
    EXPECT_EQ(env::readUnsigned("QRAMSIM_TEST_KNOB", 1000),
              std::nullopt);
}

TEST(Pipeline, StatsReportStagesAndOccupancy)
{
    Rng rng(21);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    QubitChannelNoise noise(PauliRates::depolarizing(1e-2));

    // Each thread times its own sampling and general replay batches;
    // the sums cover the threaded run's whole stage split.
    est.estimate(noise, 128, 9, 2);
    const PipelineStats st = est.lastPipelineStats();
    EXPECT_FALSE(st.pipelined);
    EXPECT_EQ(st.threads, 2u);
    EXPECT_GT(st.wallSec, 0.0);
    EXPECT_GT(st.sampleSec, 0.0);
    EXPECT_GT(st.gatherSec, 0.0);
    EXPECT_GT(st.replaySec, 0.0);
    EXPECT_GT(st.accumulateSec, 0.0);
    EXPECT_GT(st.batches, 0u);
    EXPECT_GT(st.occupancy(), 0.0);
    EXPECT_LE(st.occupancy(), 1.0);
}

} // namespace
} // namespace qramsim
