/**
 * @file
 * Orchestrator tests (sim/orchestrator.hh + the qramsim_drive CLI):
 * backoff schedule math, wait-status classification, the hardened
 * PartialEstimate/JobManifest loaders (truncation corpus over every
 * byte boundary, byte-flip no-crash sweep, tamper rejection), the
 * atomic write helper, QRAMSIM_FAULT spec parsing, the in-process
 * retry/checkpoint/resume machinery, and the CLI end to end under
 * injected crashes, stalls, torn files, corrupt JSON, and exit-code
 * faults — with the recovered result byte-identical to an undisturbed
 * single-process run.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/atomicfile.hh"
#include "common/fault.hh"
#include "qram/bucket_brigade.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"
#include "sim/orchestrator.hh"
#include "sim/sharding.hh"

namespace qramsim {
namespace {

std::string
readFileStr(const std::string &path)
{
    std::string out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return out;
    char buf[1 << 14];
    std::size_t nr;
    while ((nr = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, nr);
    std::fclose(f);
    return out;
}

/** Exit code of a shell command (-1 on abnormal termination). */
int
shCode(const std::string &cmd)
{
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
tempDir(const char *stem)
{
    const std::string dir = ::testing::TempDir() + stem + "_" +
                            std::to_string(
                                static_cast<unsigned>(getpid()));
    std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
    return dir;
}

/** One small replay partial straight from the estimator. */
PartialEstimate
makeReplayPartial(std::size_t shots = 6)
{
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    SweepPlan plan =
        SweepPlan::partition(shots, 1, 2023, {0.5, 1.0});
    return est.runShard(noise, plan.shards[0]);
}

/** One small adaptive partial (the other JSON shape). */
PartialEstimate
makeAdaptivePartial(std::size_t draws = 32)
{
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    SweepPlan plan = SweepPlan::partition(draws, 1, 2023, {1.0});
    ShardSpec spec = plan.shards[0];
    spec.mode = EstimateMode::Adaptive;
    return est.runShard(noise, spec);
}

// --- Backoff schedule math ---------------------------------------------

TEST(Orchestrator, BackoffIsDeterministicAndBounded)
{
    RetryPolicy p;
    p.backoffBaseMs = 100.0;
    p.backoffFactor = 2.0;
    p.backoffMaxMs = 1000.0;
    p.jitterFrac = 0.5;
    for (unsigned attempt = 1; attempt <= 8; ++attempt) {
        for (std::size_t shard = 0; shard < 4; ++shard) {
            const double d = backoffDelayMs(p, 42, shard, attempt);
            EXPECT_EQ(d, backoffDelayMs(p, 42, shard, attempt))
                << "schedule must replay exactly";
            const double base = std::min(
                100.0 * std::pow(2.0, attempt - 1), 1000.0);
            EXPECT_GE(d, base * 0.75);
            EXPECT_LE(d, base * 1.25);
        }
    }
    // The cap binds: very late attempts never exceed max * (1+j/2).
    EXPECT_LE(backoffDelayMs(p, 42, 0, 30), 1000.0 * 1.25);
    // Different shards and attempts decorrelate the jitter.
    EXPECT_NE(backoffDelayMs(p, 42, 0, 1),
              backoffDelayMs(p, 42, 1, 1));
    EXPECT_NE(backoffDelayMs(p, 42, 0, 1),
              backoffDelayMs(p, 43, 0, 1));
    // Zero jitter collapses to the pure exponential.
    p.jitterFrac = 0.0;
    EXPECT_EQ(backoffDelayMs(p, 42, 3, 1), 100.0);
    EXPECT_EQ(backoffDelayMs(p, 42, 3, 2), 200.0);
    EXPECT_EQ(backoffDelayMs(p, 42, 3, 5), 1000.0);
}

TEST(Orchestrator, BackoffSurvivesExtremeInputs)
{
    // A non-growing factor must NOT iterate `attempt` times looking
    // for growth that never comes: with attempt counts near UINT_MAX
    // that loop would spin for minutes. The whole grid below
    // finishing inside the test timeout IS the regression test.
    RetryPolicy p;
    p.backoffBaseMs = 100.0;
    p.backoffMaxMs = 1000.0;
    p.jitterFrac = 0.0;
    const unsigned kHuge[] = {1u, 1000u, 1u << 20,
                              std::numeric_limits<unsigned>::max()};
    for (const double factor : {0.0, 0.5, 1.0}) {
        p.backoffFactor = factor;
        for (const unsigned attempt : kHuge)
            EXPECT_EQ(100.0, backoffDelayMs(p, 42, 0, attempt))
                << "factor " << factor << " attempt " << attempt;
    }
    // A growing factor reaches the cap and stops there, regardless
    // of how absurd the attempt count is.
    p.backoffFactor = 2.0;
    for (const unsigned attempt : kHuge)
        EXPECT_LE(backoffDelayMs(p, 42, 0, attempt), 1000.0);
    EXPECT_EQ(1000.0, backoffDelayMs(
                          p, 42, 0,
                          std::numeric_limits<unsigned>::max()));

    // Degenerate policies stay non-negative and bounded: a jitter
    // fraction of 2 spans [0, 2] x base, never below zero.
    p.jitterFrac = 2.0;
    for (std::size_t shard = 0; shard < 8; ++shard)
        for (unsigned attempt = 1; attempt <= 8; ++attempt) {
            const double d = backoffDelayMs(p, 7, shard, attempt);
            EXPECT_GE(d, 0.0);
            EXPECT_LE(d, 1000.0 * 2.0);
        }
    // Zero base: every delay is exactly zero — no NaN, no negative.
    p.backoffBaseMs = 0.0;
    EXPECT_EQ(0.0, backoffDelayMs(p, 7, 0, 1));
    EXPECT_EQ(0.0, backoffDelayMs(
                       p, 7, 0,
                       std::numeric_limits<unsigned>::max()));

    // The jitter stream decorrelates across shards and seeds. The
    // counter is shard*131 + attempt, so pairs like (shard 0,
    // attempt 132) and (shard 1, attempt 1) intentionally share a
    // jitter draw — never assert inequality across such collisions;
    // the bases differ (exponent 131 apart), which is what keeps the
    // schedules distinct.
    p.backoffBaseMs = 100.0;
    p.backoffFactor = 2.0;
    p.jitterFrac = 0.5;
    EXPECT_NE(backoffDelayMs(p, 7, 0, 132),
              backoffDelayMs(p, 7, 1, 1))
        << "colliding jitter counters still yield distinct delays "
           "via the capped-vs-base exponent";
}

// --- Wait-status classification ----------------------------------------

TEST(Orchestrator, ClassifyWaitStatusMapsTheExitContract)
{
    // Real wait statuses from real children: std::system returns the
    // raw waitpid status of the shell.
    auto statusOf = [](const char *cmd) {
        return std::system(cmd);
    };
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 0")).outcome,
              WorkerOutcome::Success);
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 2")).outcome,
              WorkerOutcome::Permanent); // usage
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 3")).outcome,
              WorkerOutcome::Retryable); // I/O
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 4")).outcome,
              WorkerOutcome::Permanent); // runtime
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 5")).outcome,
              WorkerOutcome::Retryable); // injected fault
    EXPECT_EQ(classifyWaitStatus(statusOf("exit 127")).outcome,
              WorkerOutcome::Retryable); // exec failure
    // std::system already wraps the command in `sh -c`, so the kill
    // targets that shell itself and the status is a real signal death.
    const int killed = statusOf("kill -KILL $$");
    ASSERT_TRUE(WIFSIGNALED(killed));
    const ExitClass cls = classifyWaitStatus(killed);
    EXPECT_EQ(cls.outcome, WorkerOutcome::Retryable);
    EXPECT_NE(cls.detail.find("signal"), std::string::npos);
}

// --- Hardened JSON loading ---------------------------------------------

TEST(Orchestrator, PartialTruncationCorpusEveryByteBoundary)
{
    for (const bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive" : "replay");
        const PartialEstimate part =
            adaptive ? makeAdaptivePartial() : makeReplayPartial();
        const std::string json = part.toJson();
        ASSERT_GT(json.size(), 100u);
        PartialEstimate out;
        std::string err;
        // Every prefix cut before the closing brace must fail
        // cleanly — no throw, no crash, no UB, and a nonempty
        // reason. (Prefixes that drop only trailing whitespace
        // after the final '}' are complete objects and may parse.)
        const std::size_t lastBrace = json.rfind('}');
        ASSERT_NE(lastBrace, std::string::npos);
        for (std::size_t len = 0; len <= lastBrace; ++len) {
            err.clear();
            ASSERT_FALSE(PartialEstimate::fromJson(
                json.substr(0, len), out, &err))
                << "prefix of " << len << " bytes parsed";
            EXPECT_FALSE(err.empty()) << "no reason at " << len;
        }
        EXPECT_TRUE(PartialEstimate::fromJson(json, out, &err))
            << err;
        EXPECT_EQ(out.toJson(), json) << "round-trip must be exact";
    }
}

TEST(Orchestrator, PartialByteFlipsNeverCrashTheLoader)
{
    const std::string json = makeReplayPartial().toJson();
    PartialEstimate out;
    std::string err;
    for (std::size_t i = 0; i < json.size(); ++i) {
        std::string bad = json;
        bad[i] = static_cast<char>(bad[i] == 'z' ? 'a' : bad[i] + 1);
        // Must return (true or false) without crashing; a parse that
        // still succeeds (e.g. a flip inside the workload string)
        // must yield a self-consistent partial.
        PartialEstimate p;
        if (PartialEstimate::fromJson(bad, p, &err)) {
            PartialEstimate check = p;
            check.recomputeSums();
            EXPECT_EQ(check.sumF, p.sumF);
        }
    }
    // Hostile numerics the old strtod/strtoull path accepted.
    std::string negShots = json;
    const std::size_t at = negShots.find("\"total_shots\": ");
    ASSERT_NE(at, std::string::npos);
    negShots.insert(at + std::strlen("\"total_shots\": "), "-");
    EXPECT_FALSE(PartialEstimate::fromJson(negShots, out, &err));
    std::string infRow = json;
    const std::size_t rows = infRow.find("\"rows_full\": [");
    ASSERT_NE(rows, std::string::npos);
    infRow.insert(rows + std::strlen("\"rows_full\": ["), "inf,");
    EXPECT_FALSE(PartialEstimate::fromJson(infRow, out, &err));
}

TEST(Orchestrator, PartialTamperedSumsOrRowsAreRejected)
{
    const std::string json = makeReplayPartial().toJson();
    std::string corrupted = json;
    fault::corruptJson(corrupted);
    ASSERT_NE(corrupted, json);
    PartialEstimate out;
    std::string err;
    EXPECT_FALSE(PartialEstimate::fromJson(corrupted, out, &err));
    EXPECT_NE(err.find("sums disagree"), std::string::npos) << err;
    EXPECT_TRUE(PartialEstimate::fromJson(json, out, &err)) << err;
}

TEST(Orchestrator, ManifestRoundTripAndValidation)
{
    JobManifest m;
    m.workload = "--arch bb --m 3 \"quoted\"";
    m.totalShots = 96;
    m.seed = 2023;
    m.stream = ShotStream::Counter;
    m.factors = {0.5, 1.0, 2.0};
    m.numShards = 6;
    m.attempts = {1, 2, 1, 1, 3, 1};
    m.speculative = {0, 0, 1, 0, 0, 0};
    m.state = {"done", "done", "done", "done", "failed", "pending"};
    const std::string json = m.toJson();
    JobManifest out;
    std::string err;
    ASSERT_TRUE(JobManifest::fromJson(json, out, &err)) << err;
    EXPECT_EQ(out.toJson(), json);
    EXPECT_EQ(out.workload, m.workload);
    EXPECT_EQ(out.attempts, m.attempts);
    EXPECT_EQ(out.state, m.state);
    // Truncation corpus for the manifest too (prefixes that drop
    // only trailing whitespace after the final '}' may parse).
    const std::size_t lastBrace = json.rfind('}');
    ASSERT_NE(lastBrace, std::string::npos);
    for (std::size_t len = 0; len <= lastBrace; ++len) {
        EXPECT_FALSE(JobManifest::fromJson(json.substr(0, len), out))
            << "prefix of " << len << " bytes parsed";
    }
    // Cross-field validation: unknown states, fractional attempts,
    // mismatched array lengths.
    JobManifest bad = m;
    bad.state[0] = "limbo";
    EXPECT_FALSE(JobManifest::fromJson(bad.toJson(), out, &err));
    bad = m;
    bad.attempts[0] = 1.5;
    EXPECT_FALSE(JobManifest::fromJson(bad.toJson(), out, &err));
    bad = m;
    bad.speculative.pop_back();
    EXPECT_FALSE(JobManifest::fromJson(bad.toJson(), out, &err));
}

// --- Atomic writes ------------------------------------------------------

TEST(Orchestrator, AtomicWriteFileReplacesWithoutResidue)
{
    const std::string dir = tempDir("qramsim_atomic");
    const std::string path = dir + "/target.json";
    std::string err;
    ASSERT_TRUE(atomicWriteFile(path, "first", &err)) << err;
    EXPECT_EQ(readFileStr(path), "first");
    ASSERT_TRUE(atomicWriteFile(path, "second", &err)) << err;
    EXPECT_EQ(readFileStr(path), "second");
    // No temp residue.
    EXPECT_NE(shCode("ls " + dir + "/*.tmp.* 2>/dev/null"), 0);
    // Non-regular target: written directly, not renamed over.
    EXPECT_TRUE(atomicWriteFile("/dev/null", "x", &err)) << err;
    struct stat st;
    ASSERT_EQ(::stat("/dev/null", &st), 0);
    EXPECT_FALSE(S_ISREG(st.st_mode));
    // Unwritable directory: clean failure with a reason.
    EXPECT_FALSE(atomicWriteFile(dir + "/no/such/dir/x", "x", &err));
    EXPECT_FALSE(err.empty());
    std::system(("rm -rf " + dir).c_str());
}

// --- Fault-spec parsing -------------------------------------------------

TEST(Orchestrator, FaultSpecGrammar)
{
    std::vector<fault::Spec> specs;
    std::string err;
    ASSERT_TRUE(fault::parseSpecs("crash:5;stall:40:60;corrupt:70",
                                  specs, &err))
        << err;
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0].kind, fault::Kind::Crash);
    EXPECT_EQ(specs[0].shot, 5u);
    EXPECT_EQ(specs[1].kind, fault::Kind::Stall);
    EXPECT_EQ(specs[1].param, 60.0);
    EXPECT_EQ(specs[2].kind, fault::Kind::Corrupt);
    // Defaults: stall 3600 s, exit code 5.
    ASSERT_TRUE(fault::parseSpecs("stall:1", specs, &err));
    EXPECT_EQ(specs[0].param, 3600.0);
    ASSERT_TRUE(fault::parseSpecs("exit:1", specs, &err));
    EXPECT_EQ(specs[0].param, 5.0);
    // Malformed anything rejects the whole string.
    EXPECT_FALSE(fault::parseSpecs("crash", specs, &err));
    EXPECT_FALSE(fault::parseSpecs("crash:x", specs, &err));
    EXPECT_FALSE(fault::parseSpecs("crash:-1", specs, &err));
    EXPECT_FALSE(fault::parseSpecs("smash:1", specs, &err));
    EXPECT_FALSE(
        fault::parseSpecs("crash:1;stall:nope", specs, &err));
    EXPECT_TRUE(specs.empty());
    // arm() selects by shard range.
    ASSERT_TRUE(
        fault::parseSpecs("crash:5;corrupt:70", specs, &err));
    EXPECT_EQ(fault::arm(specs, 0, 16), &specs[0]);
    EXPECT_EQ(fault::arm(specs, 64, 80), &specs[1]);
    EXPECT_EQ(fault::arm(specs, 16, 64), nullptr);
}

// --- In-process orchestration ------------------------------------------

TEST(Orchestrator, InProcessRetriesCheckpointsAndResumes)
{
    const std::string dir = tempDir("qramsim_orch_inproc");
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));

    auto makeCfg = [&](int failuresForShard1) {
        auto failures =
            std::make_shared<int>(failuresForShard1);
        OrchestratorConfig cfg;
        cfg.jobDir = dir + "/job";
        cfg.plan = SweepPlan::partition(24, 3, 2023, {0.5, 1.0});
        cfg.requestedShards = 3;
        cfg.retry.maxAttempts = 3;
        cfg.retry.backoffBaseMs = 1.0; // fast tests
        cfg.inlineRunner = [&, failures](const ShardSpec &spec) {
            if (spec.shotBegin == 8 && (*failures)-- > 0)
                throw std::runtime_error("injected inline failure");
            return est.runShard(noise, spec);
        };
        return cfg;
    };

    // Two transient failures on shard 1: retried to success.
    DriveReport rep = Orchestrator(makeCfg(2)).run();
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.shards[1].attempts, 3u);
    EXPECT_EQ(rep.retries, 2u);
    EXPECT_FALSE(rep.resultJson.empty());
    const std::string cleanResult = rep.resultJson;

    // The checkpoints and result are on disk, and the result matches
    // the direct single-process merge byte for byte.
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), cleanResult);
    std::vector<PartialEstimate> parts;
    for (const ShardSpec &spec :
         SweepPlan::partition(24, 3, 2023, {0.5, 1.0}).shards)
        parts.push_back(est.runShard(noise, spec));
    PartialEstimate merged;
    std::string err;
    ASSERT_TRUE(mergePartials(std::move(parts), merged, &err));
    EXPECT_EQ(cleanResult, merged.resultJson());

    // Exhausted attempts degrade gracefully: shard 1 missing, the
    // other checkpoints intact.
    std::system(("rm -rf " + dir + "/job").c_str());
    rep = Orchestrator(makeCfg(99)).run();
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_FALSE(rep.complete);
    ASSERT_EQ(rep.missing.size(), 1u);
    EXPECT_EQ(rep.missing[0], 1u);
    EXPECT_EQ(rep.shards[1].attempts, 3u);
    EXPECT_TRUE(rep.resultJson.empty());

    // Resume with the fault gone: only shard 1 recomputes, the other
    // two come back from their checkpoints, attempts accumulate, and
    // the final result is byte-identical to the clean run.
    OrchestratorConfig cfg = makeCfg(0);
    cfg.resume = true;
    rep = Orchestrator(std::move(cfg)).run();
    ASSERT_TRUE(rep.error.empty()) << rep.error;
    EXPECT_TRUE(rep.complete);
    EXPECT_EQ(rep.resumedShards, 2u);
    EXPECT_TRUE(rep.shards[0].resumed);
    EXPECT_FALSE(rep.shards[1].resumed);
    EXPECT_EQ(rep.launched, 1u);
    EXPECT_EQ(rep.resultJson, cleanResult);
    JobManifest mani;
    ASSERT_TRUE(JobManifest::fromJson(
        readFileStr(dir + "/job/manifest.json"), mani, &err))
        << err;
    EXPECT_EQ(mani.attempts[1], 4.0) << "3 exhausted + 1 resumed";
    EXPECT_EQ(mani.state,
              (std::vector<std::string>{"done", "done", "done"}));

    // A resume against a different plan is refused outright.
    cfg = makeCfg(0);
    cfg.resume = true;
    cfg.plan = SweepPlan::partition(48, 3, 2023, {0.5, 1.0});
    rep = Orchestrator(std::move(cfg)).run();
    EXPECT_FALSE(rep.error.empty());
    std::system(("rm -rf " + dir).c_str());
}

TEST(Orchestrator, CorruptCheckpointIsRecomputedNotTrusted)
{
    const std::string dir = tempDir("qramsim_orch_ckpt");
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    OrchestratorConfig cfg;
    cfg.jobDir = dir + "/job";
    cfg.plan = SweepPlan::partition(16, 2, 2023);
    cfg.requestedShards = 2;
    cfg.inlineRunner = [&](const ShardSpec &spec) {
        return est.runShard(noise, spec);
    };
    OrchestratorConfig cfg2 = cfg; // keep a copy for the resume
    DriveReport rep = Orchestrator(std::move(cfg)).run();
    ASSERT_TRUE(rep.complete) << rep.error;
    const std::string result = rep.resultJson;

    // Tamper with one checkpoint; a resume must revalidate, reject
    // it, and recompute that shard — same bytes in the end.
    const std::string ck =
        Orchestrator::checkpointPath(dir + "/job", 0);
    std::string tampered = readFileStr(ck);
    fault::corruptJson(tampered);
    ASSERT_TRUE(atomicWriteFile(ck, tampered));
    cfg2.resume = true;
    rep = Orchestrator(std::move(cfg2)).run();
    ASSERT_TRUE(rep.complete) << rep.error;
    EXPECT_EQ(rep.resumedShards, 1u);
    EXPECT_EQ(rep.launched, 1u);
    EXPECT_EQ(rep.resultJson, result);
    std::system(("rm -rf " + dir).c_str());
}

TEST(Orchestrator, OtherSamplerCheckpointIsRecomputed)
{
    // A checkpoint drawn by another sampler version holds other shots
    // for the same seed: a resume must recompute it, never merge it.
    const std::string dir = tempDir("qramsim_orch_sampler");
    Rng memRng(7);
    Memory mem = Memory::random(3, memRng);
    QueryCircuit qc = BucketBrigadeQram(3).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(3));
    GateNoise noise(PauliRates::depolarizing(2e-3));
    OrchestratorConfig cfg;
    cfg.jobDir = dir + "/job";
    cfg.plan = SweepPlan::partition(16, 2, 2023);
    cfg.requestedShards = 2;
    cfg.inlineRunner = [&](const ShardSpec &spec) {
        return est.runShard(noise, spec);
    };
    OrchestratorConfig cfg2 = cfg;
    DriveReport rep = Orchestrator(std::move(cfg)).run();
    ASSERT_TRUE(rep.complete) << rep.error;
    const std::string result = rep.resultJson;

    const std::string ck =
        Orchestrator::checkpointPath(dir + "/job", 1);
    PartialEstimate old;
    std::string err;
    ASSERT_TRUE(PartialEstimate::fromJson(readFileStr(ck), old, &err))
        << err;
    old.sampler = kSamplerVersion - 1;
    ASSERT_TRUE(atomicWriteFile(ck, old.toJson()));
    EXPECT_FALSE(Orchestrator::loadCheckpoint(ck, cfg2.plan.shards[1],
                                              old, &err));
    cfg2.resume = true;
    rep = Orchestrator(std::move(cfg2)).run();
    ASSERT_TRUE(rep.complete) << rep.error;
    EXPECT_EQ(rep.resumedShards, 1u);
    EXPECT_FALSE(rep.shards[1].resumed);
    EXPECT_EQ(rep.launched, 1u);
    EXPECT_EQ(rep.resultJson, result);
    std::system(("rm -rf " + dir).c_str());
}

// --- CLI end to end -----------------------------------------------------

/** Common workload of the CLI scenarios (96 shots, 6 shards of 16:
 *  crash:5 -> shard 0, stall:40 -> shard 2, corrupt:70 -> shard 4). */
const char kWorkload[] =
    " --arch bb --m 3 --noise gate-depol --eps 2e-3"
    " --shots 96 --seed 2023 --factors 0.5,1,2";

/** The undisturbed single-process reference result. */
std::string
makeReference(const std::string &dir)
{
    const std::string shard = QRAMSIM_SHARD_BIN;
    EXPECT_EQ(shCode(shard + " run" + kWorkload +
                     " --shard 0/1 --out " + dir + "/ref_part.json"),
              0);
    EXPECT_EQ(shCode(shard + " merge --out " + dir + "/ref.json " +
                     dir + "/ref_part.json"),
              0);
    return readFileStr(dir + "/ref.json");
}

TEST(OrchestratorCli, CleanDriveMatchesSingleProcessByteForByte)
{
    const std::string dir = tempDir("qramsim_drive_clean");
    const std::string ref = makeReference(dir);
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " +
                     dir + "/job --shards 6 --workers 3" + kWorkload +
                     " --worker-bin " + QRAMSIM_SHARD_BIN +
                     " 2>/dev/null"),
              0);
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), ref);
    // The in-process lane produces the same bytes.
    ASSERT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " +
                     dir + "/job2 --shards 6 --in-process" +
                     kWorkload + " 2>/dev/null"),
              0);
    EXPECT_EQ(readFileStr(dir + "/job2/result.json"), ref);
    std::system(("rm -rf " + dir).c_str());
}

TEST(OrchestratorCli, RecoversFromCrashTornFileAndCorruptJson)
{
    const std::string dir = tempDir("qramsim_drive_faults");
    const std::string ref = makeReference(dir);
    // One crash, one torn (truncated) output, one corrupt partial —
    // each one-shot via the mark prefix, so retries run clean.
    ASSERT_EQ(
        shCode("QRAMSIM_FAULT='crash:5;truncate:40;corrupt:70' "
               "QRAMSIM_FAULT_MARK=" +
               dir + "/mark " + QRAMSIM_DRIVE_BIN + " --job " + dir +
               "/job --shards 6 --workers 3 --backoff-base 10" +
               kWorkload + " --worker-bin " + QRAMSIM_SHARD_BIN +
               " 2>/dev/null"),
        0);
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), ref)
        << "recovered result must be byte-identical";
    JobManifest mani;
    std::string err;
    ASSERT_TRUE(JobManifest::fromJson(
        readFileStr(dir + "/job/manifest.json"), mani, &err))
        << err;
    EXPECT_EQ(mani.attempts[0], 2.0) << "crash retried once";
    EXPECT_EQ(mani.attempts[2], 2.0) << "torn file retried once";
    EXPECT_EQ(mani.attempts[4], 2.0) << "corrupt JSON retried once";
    EXPECT_EQ(mani.attempts[1], 1.0);
    std::system(("rm -rf " + dir).c_str());
}

TEST(OrchestratorCli, DegradesThenResumesByteIdentically)
{
    const std::string dir = tempDir("qramsim_drive_resume");
    const std::string ref = makeReference(dir);
    // Shard 2 exits with the injected-fault code on EVERY attempt (no
    // mark): attempts exhaust, the job degrades to exit 1.
    ASSERT_EQ(shCode("QRAMSIM_FAULT='exit:40' " +
                     std::string(QRAMSIM_DRIVE_BIN) + " --job " +
                     dir + "/job --shards 6 --workers 3 "
                     "--max-attempts 2 --backoff-base 10" +
                     kWorkload + " --worker-bin " +
                     QRAMSIM_SHARD_BIN + " 2>/dev/null"),
              1);
    EXPECT_EQ(shCode("test -f " + dir + "/job/result.json"), 1)
        << "no result for a degraded job";
    EXPECT_EQ(shCode("test -f " + dir + "/job/shard-001.json"), 0)
        << "completed checkpoints must survive";
    JobManifest mani;
    std::string err;
    ASSERT_TRUE(JobManifest::fromJson(
        readFileStr(dir + "/job/manifest.json"), mani, &err))
        << err;
    EXPECT_EQ(mani.state[2], "failed");
    EXPECT_EQ(mani.attempts[2], 2.0);

    // Resume with the fault gone: only shard 2 runs, the other five
    // come back from checkpoints, and the merged bytes match.
    ASSERT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " +
                     dir + "/job --resume --shards 6 --workers 3" +
                     kWorkload + " --worker-bin " +
                     QRAMSIM_SHARD_BIN + " 2>/dev/null"),
              0);
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), ref);
    ASSERT_TRUE(JobManifest::fromJson(
        readFileStr(dir + "/job/manifest.json"), mani, &err))
        << err;
    EXPECT_EQ(mani.attempts[2], 3.0)
        << "attempt counters accumulate across resumes";
    EXPECT_EQ(mani.attempts[1], 1.0)
        << "resumed shards are not re-run";
    EXPECT_EQ(mani.state[2], "done");
    std::system(("rm -rf " + dir).c_str());
}

TEST(OrchestratorCli, DeadlineKillsStalledWorkerAndRetries)
{
    const std::string dir = tempDir("qramsim_drive_deadline");
    const std::string ref = makeReference(dir);
    // Shard 2 stalls 30 s on its first attempt; the 2 s deadline
    // kills it, the mark is consumed, and the retry completes.
    ASSERT_EQ(
        shCode("QRAMSIM_FAULT='stall:40:30' QRAMSIM_FAULT_MARK=" +
               dir + "/mark " + QRAMSIM_DRIVE_BIN + " --job " + dir +
               "/job --shards 6 --workers 3 --deadline 2 "
               "--backoff-base 10" +
               kWorkload + " --worker-bin " + QRAMSIM_SHARD_BIN +
               " 2>/dev/null"),
        0);
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), ref);
    const std::string report = readFileStr(dir + "/job/report.json");
    EXPECT_NE(report.find("\"timeouts\": 1"), std::string::npos)
        << report;
    JobManifest mani;
    std::string err;
    ASSERT_TRUE(JobManifest::fromJson(
        readFileStr(dir + "/job/manifest.json"), mani, &err))
        << err;
    EXPECT_EQ(mani.attempts[2], 2.0);
    std::system(("rm -rf " + dir).c_str());
}

TEST(OrchestratorCli, StragglerSpeculationCrossChecksByteForByte)
{
    const std::string dir = tempDir("qramsim_drive_spec");
    const std::string ref = makeReference(dir);
    // Shard 2 stalls 5 s, then completes NORMALLY. The other five
    // shards finish fast, the median trips the straggler threshold,
    // a duplicate launches (its mark already consumed, so it runs
    // clean) and wins; --wait-duplicates keeps the job alive until
    // the stalled original finishes so the two byte-compare.
    ASSERT_EQ(
        shCode("QRAMSIM_FAULT='stall:40:5' QRAMSIM_FAULT_MARK=" +
               dir + "/mark " + QRAMSIM_DRIVE_BIN + " --job " + dir +
               "/job --shards 6 --workers 6 --straggler 4 "
               "--straggler-min 3 --wait-duplicates" +
               kWorkload + " --worker-bin " + QRAMSIM_SHARD_BIN +
               " 2>/dev/null"),
        0);
    EXPECT_EQ(readFileStr(dir + "/job/result.json"), ref);
    const std::string report = readFileStr(dir + "/job/report.json");
    EXPECT_NE(report.find("\"speculative\": 1"), std::string::npos)
        << report;
    EXPECT_NE(report.find("\"duplicate_matches\": 1"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"duplicate_mismatches\": 0"),
              std::string::npos)
        << report;
    std::system(("rm -rf " + dir).c_str());
}

// --- Worker exit-code pinning ------------------------------------------

TEST(OrchestratorCli, WorkerExitWakesTheEventLoop)
{
    // The tick paces deadlines, stragglers and backoff only; a
    // worker's exit wakes the loop at once. Two quick shards under a
    // 2 s tick must not wait for it.
    const std::string dir = tempDir("qramsim_orch_wake");
    OrchestratorConfig cfg;
    cfg.jobDir = dir + "/job";
    cfg.workerBin = QRAMSIM_SHARD_BIN;
    cfg.workloadArgs = {"--arch",  "bb",   "--m",     "3",
                        "--noise", "gate-depol", "--eps", "2e-3",
                        "--shots", "16",   "--seed",  "5"};
    cfg.plan = SweepPlan::partition(16, 2, 5);
    cfg.requestedShards = 2;
    cfg.workers = 2;
    cfg.pollIntervalMs = 2000.0;
    const auto t0 = std::chrono::steady_clock::now();
    const DriveReport rep = Orchestrator(std::move(cfg)).run();
    const double sec = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    ASSERT_TRUE(rep.complete) << rep.error;
    EXPECT_EQ(rep.launched, 2u);
    EXPECT_LT(sec, 1.5);
    std::system(("rm -rf " + dir).c_str());
}

TEST(OrchestratorCli, ShardExitCodesFollowTheContract)
{
    const std::string shard = QRAMSIM_SHARD_BIN;
    const std::string dir = tempDir("qramsim_shard_codes");
    const std::string quiet = " > /dev/null 2>&1";
    const std::string run =
        " run --arch bb --m 3 --noise gate-depol --eps 2e-3"
        " --shots 8 --seed 1";
    // 0: success.
    EXPECT_EQ(shCode(shard + run + " --out " + dir + "/ok.json" +
                     quiet),
              0);
    // 2: usage — unknown flag (the retired --pipeline and --engine
    // included), malformed value, bad subcommand, unknown
    // arch/noise, shard index out of range.
    EXPECT_EQ(shCode(shard + run + " --bogus 1" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --pipeline on" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --engine slots" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --engine scalar" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --m nope" + quiet), 2);
    EXPECT_EQ(shCode(shard + " frobnicate" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --arch cray" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --shard 9/4" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --eps -0.5" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --eps 7" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --noise gate-zz" + quiet), 2);
    EXPECT_EQ(shCode(shard + run + " --tier bogus" + quiet), 2);
    // 3: I/O — unwritable output, unreadable merge input.
    EXPECT_EQ(shCode(shard + run + " --out " + dir +
                     "/no/such/dir/x.json" + quiet),
              3);
    EXPECT_EQ(shCode(shard + " merge " + dir + "/absent.json" +
                     quiet),
              3);
    // 4: runtime — readable but invalid merge inputs.
    ASSERT_TRUE(atomicWriteFile(dir + "/garbage.json", "not json"));
    EXPECT_EQ(shCode(shard + " merge " + dir + "/garbage.json" +
                     quiet),
              4);
    EXPECT_EQ(shCode(shard + " merge --out /dev/null " + dir +
                     "/ok.json " + dir + "/ok.json" + quiet),
              4)
        << "overlapping shards are a merge (runtime) error";
    // 5: the injected-fault default.
    EXPECT_EQ(shCode("QRAMSIM_FAULT='exit:0' " + shard + run +
                     " --out /dev/null" + quiet),
              5);
    EXPECT_EQ(shCode("QRAMSIM_FAULT='exit:0:7' " + shard + run +
                     " --out /dev/null" + quiet),
              7)
        << "exit faults honor their code parameter";
    // Crash fault: signal death, not an exit code.
    const int status =
        std::system(("QRAMSIM_FAULT='crash:0' " + shard + run +
                     " --out /dev/null" + quiet)
                        .c_str());
    EXPECT_TRUE(!WIFEXITED(status) || WEXITSTATUS(status) >= 128)
        << "crash must look like a signal death";
    // A truncate fault exits 0 but leaves an unusable partial — the
    // lie the orchestrator's output validation must catch.
    EXPECT_EQ(shCode("QRAMSIM_FAULT='truncate:0' " + shard + run +
                     " --out " + dir + "/torn.json" + quiet),
              0);
    PartialEstimate p;
    std::string err;
    EXPECT_FALSE(PartialEstimate::fromJson(
        readFileStr(dir + "/torn.json"), p, &err));
    // Drive usage errors.
    EXPECT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + quiet), 2);
    EXPECT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " +
                     dir + "/j --shard 0/2" + quiet),
              2)
        << "--shard is owned by the driver";
    // The direct socket transport is gone at both ends: its flags are
    // usage errors, not silently ignored. (`timeout` bounds a binary
    // that would still listen.)
    EXPECT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " + dir +
                     "/srv --worker-bin " + shard + " --server " + dir +
                     "/srv.sock" + kWorkload + quiet),
              2);
    EXPECT_EQ(shCode("timeout 10 " + std::string(QRAMSIM_SERVER_BIN) +
                     " --socket " + dir + "/srv.sock" + quiet),
              2);
    // A malformed sweep factor is refused before any worker starts.
    EXPECT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " + dir +
                     "/nan --workers 2 --shards 2 --worker-bin " +
                     shard + kWorkload + " --factors nan" + quiet),
              2);
    // So is an unknown SIMD tier pin: the drive exits 2 and never
    // runs the worker binary (a wrapper that leaves a mark).
    const std::string wrapper = dir + "/mark_worker.sh";
    ASSERT_TRUE(atomicWriteFile(wrapper, "#!/bin/sh\ntouch " + dir +
                                             "/launched\nexec " + shard +
                                             " \"$@\"\n"));
    ASSERT_EQ(shCode("chmod +x " + wrapper), 0);
    EXPECT_EQ(shCode(std::string(QRAMSIM_DRIVE_BIN) + " --job " + dir +
                     "/tier --workers 2 --shards 2 --worker-bin " +
                     wrapper + kWorkload + " --tier bogus" + quiet),
              2);
    EXPECT_NE(::access((dir + "/launched").c_str(), F_OK), 0)
        << "a usage error must not launch a worker";
    std::system(("rm -rf " + dir).c_str());
}

} // namespace
} // namespace qramsim
