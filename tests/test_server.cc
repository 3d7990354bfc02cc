/**
 * @file
 * Resident-executor tests (sim/server.hh + sim/cachestore.hh): frame
 * hardening (oversize and torn frames, clean EOF), CompiledCache and
 * ResultCache semantics (LRU eviction, coalesced builds, the
 * claim/publish/abandon protocol, spill survival across restarts,
 * corrupt-spill rejection-and-recompute), result-key
 * canonicalization, and the in-process Server::handle cache ladder
 * that `qramsim_server --broker` workers run. The worker end to end
 * is tests/test_broker.cc's.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sim/cachestore.hh"
#include "sim/server.hh"
#include "tools/workload.hh"

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

std::string
tempDir(const char *stem)
{
    const std::string dir = ::testing::TempDir() + stem + "_" +
                            std::to_string(
                                static_cast<unsigned>(getpid()));
    std::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str());
    return dir;
}

/** Parse a forwarded-workload argument vector the way the tools do. */
bool
parseArgs(std::vector<std::string> args, tool::RunOptions &opt)
{
    std::vector<char *> argv;
    argv.reserve(args.size());
    for (std::string &a : args)
        argv.push_back(a.data());
    return tool::parseRunFlags(static_cast<int>(argv.size()),
                               argv.data(), opt);
}

/** Result-cache key straight from an argument vector. */
std::string
keyOf(const std::vector<std::string> &args)
{
    tool::RunOptions opt;
    EXPECT_TRUE(parseArgs(args, opt));
    ShardSpec spec;
    tool::cutShardSpec(opt, spec);
    return tool::resultCacheKey(opt, spec);
}

// --- Framing -----------------------------------------------------------

TEST(ServerProtocol, FrameRoundTripAndCleanEof)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    const std::string msg = "hello \x01\x02 frame";
    std::string err = "x";
    ASSERT_TRUE(srv::sendFrame(fds[0], msg, &err));
    std::string got;
    ASSERT_TRUE(srv::recvFrame(fds[1], got,
                               srv::kDefaultMaxFrameBytes, &err));
    EXPECT_EQ(msg, got);

    // Clean EOF at a frame boundary: err is set to "" so callers can
    // tell "peer done" from "torn frame".
    ::close(fds[0]);
    err = "sentinel";
    EXPECT_FALSE(srv::recvFrame(fds[1], got,
                                srv::kDefaultMaxFrameBytes, &err));
    EXPECT_TRUE(err.empty());
    ::close(fds[1]);
}

TEST(ServerProtocol, RecvFrameRejectsOversizeLength)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    // Header promising 1 MiB against a 16-byte cap.
    const unsigned char hdr[4] = {0, 0, 16, 0};
    ASSERT_EQ(4, ::write(fds[0], hdr, 4));
    std::string got, err;
    EXPECT_FALSE(srv::recvFrame(fds[1], got, 16, &err));
    EXPECT_FALSE(err.empty());
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ServerProtocol, RecvFrameReportsTornFrame)
{
    int fds[2];
    ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    // Header promises 100 bytes; deliver 3 and hang up.
    const unsigned char hdr[4] = {100, 0, 0, 0};
    ASSERT_EQ(4, ::write(fds[0], hdr, 4));
    ASSERT_EQ(3, ::write(fds[0], "abc", 3));
    ::close(fds[0]);
    std::string got, err;
    EXPECT_FALSE(srv::recvFrame(fds[1], got,
                                srv::kDefaultMaxFrameBytes, &err));
    EXPECT_FALSE(err.empty()) << "a torn frame is not a clean EOF";
    ::close(fds[1]);
}

// --- CompiledCache -----------------------------------------------------

TEST(CompiledCache, LruEvictionAndRebuild)
{
    CompiledCache cache(2);
    std::atomic<int> builds{0};
    auto builder = [&](std::string *) -> std::shared_ptr<void> {
        ++builds;
        return std::make_shared<int>(7);
    };
    CompiledCache::Result r;
    ASSERT_TRUE(cache.acquire("a", builder, r));
    EXPECT_TRUE(r.built);
    ASSERT_TRUE(cache.acquire("b", builder, r));
    ASSERT_TRUE(cache.acquire("a", builder, r));
    EXPECT_FALSE(r.built) << "warm hit must not rebuild";
    EXPECT_EQ(0.0, r.buildSeconds);
    // Inserting "c" evicts the least recently used entry ("b").
    ASSERT_TRUE(cache.acquire("c", builder, r));
    EXPECT_EQ(2u, cache.size());
    EXPECT_EQ(1u, cache.stats().evictions);
    ASSERT_TRUE(cache.acquire("b", builder, r));
    EXPECT_TRUE(r.built) << "evicted entries rebuild";
    EXPECT_EQ(4, builds.load());
}

TEST(CompiledCache, ConcurrentMissesCoalesceToOneBuild)
{
    CompiledCache cache(4);
    std::atomic<int> builds{0};
    auto slowBuilder = [&](std::string *) -> std::shared_ptr<void> {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return std::make_shared<int>(1);
    };
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] {
            CompiledCache::Result r;
            if (cache.acquire("shared", slowBuilder, r) && r.payload)
                ++ok;
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(8, ok.load());
    EXPECT_EQ(1, builds.load()) << "one builder run per key";
    EXPECT_GE(cache.stats().coalesced + cache.stats().hits, 7u);
}

TEST(CompiledCache, BuildFailureIsPropagatedAndNotCached)
{
    CompiledCache cache(2);
    int calls = 0;
    auto flaky = [&](std::string *err) -> std::shared_ptr<void> {
        if (++calls == 1) {
            if (err)
                *err = "transient";
            return nullptr;
        }
        return std::make_shared<int>(1);
    };
    CompiledCache::Result r;
    std::string err;
    EXPECT_FALSE(cache.acquire("k", flaky, r, &err));
    EXPECT_EQ("transient", err);
    EXPECT_EQ(1u, cache.stats().failures);
    // The failure was not cached: the next acquire retries and wins.
    ASSERT_TRUE(cache.acquire("k", flaky, r, &err));
    EXPECT_TRUE(r.built);
    EXPECT_EQ(2, calls);
}

// --- ResultCache -------------------------------------------------------

TEST(ResultCache, ClaimPublishHitAndLruEviction)
{
    ResultCache cache(2, ""); // spill disabled
    std::string payload;
    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("a", payload));
    cache.publish("a", "blobA");
    ASSERT_EQ(ResultCache::Outcome::Hit, cache.acquire("a", payload));
    EXPECT_EQ("blobA", payload);

    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("b", payload));
    cache.publish("b", "blobB");
    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("c", payload));
    cache.publish("c", "blobC");
    EXPECT_EQ(2u, cache.size());
    EXPECT_EQ(1u, cache.stats().evictions);
    // "a" was least recently used and spill is off: recompute.
    EXPECT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("a", payload));
    cache.abandon("a");
}

TEST(ResultCache, InFlightRequestsCoalesce)
{
    ResultCache cache(8, "");
    std::string first;
    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("k", first));
    std::atomic<int> coalesced{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&] {
            std::string payload;
            const ResultCache::Outcome o =
                cache.acquire("k", payload);
            if (o == ResultCache::Outcome::Coalesced &&
                payload == "late blob")
                ++coalesced;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cache.publish("k", "late blob");
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(4, coalesced.load());
}

TEST(ResultCache, AbandonHandsTheClaimToOneWaiter)
{
    ResultCache cache(8, "");
    std::string payload;
    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              cache.acquire("k", payload));
    std::atomic<int> owners{0}, served{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back([&] {
            std::string p;
            const ResultCache::Outcome o = cache.acquire("k", p);
            if (o == ResultCache::Outcome::MustCompute) {
                ++owners;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                cache.publish("k", "rescued");
            } else if (o == ResultCache::Outcome::Coalesced ||
                       o == ResultCache::Outcome::Hit) {
                if (p == "rescued")
                    ++served;
            }
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cache.abandon("k"); // the original owner failed
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(1, owners.load())
        << "exactly one waiter inherits the claim";
    EXPECT_EQ(2, served.load());
}

TEST(ResultCache, SpillSurvivesRestartAndValidates)
{
    const std::string dir = tempDir("spill");
    {
        ResultCache cache(4, dir);
        std::string payload;
        ASSERT_EQ(ResultCache::Outcome::MustCompute,
                  cache.acquire("key one", payload));
        cache.publish("key one", "durable blob");
        EXPECT_FALSE(cache.spillPath("key one").empty());
        EXPECT_FALSE(readFileStr(cache.spillPath("key one")).empty());
    }
    // A fresh cache (fresh process, conceptually) serves from disk.
    ResultCache cache(4, dir);
    std::string payload;
    ASSERT_EQ(ResultCache::Outcome::SpillHit,
              cache.acquire("key one", payload));
    EXPECT_EQ("durable blob", payload);
    EXPECT_EQ(1u, cache.stats().spillHits);
    // And the blob was promoted to memory.
    ASSERT_EQ(ResultCache::Outcome::Hit,
              cache.acquire("key one", payload));
}

TEST(ResultCache, CorruptSpillIsRejectedDeletedAndRecomputed)
{
    const std::string dir = tempDir("spillbad");
    ResultCache seed(4, dir);
    std::string payload;
    ASSERT_EQ(ResultCache::Outcome::MustCompute,
              seed.acquire("k", payload));
    seed.publish("k", "good blob");
    const std::string path = seed.spillPath("k");
    ASSERT_FALSE(readFileStr(path).empty());

    // Corrupt every variant: torn file, garbage, and a wrapper whose
    // stored key disagrees (a simulated hash collision).
    for (const std::string &bad :
         {std::string("{\"qramsim_cached_result\""),
          std::string("not json at all"),
          std::string("{\"qramsim_cached_result\": 1, "
                      "\"key\": \"OTHER\", "
                      "\"payload\": \"good blob\"}")}) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(nullptr, f);
        std::fwrite(bad.data(), 1, bad.size(), f);
        std::fclose(f);
        ResultCache fresh(4, dir);
        std::string p;
        EXPECT_EQ(ResultCache::Outcome::MustCompute,
                  fresh.acquire("k", p))
            << "corrupt spill must be recomputed, not served";
        // Caught either by the startup sweep's shape probe (no
        // magic key at all -> spillSwept) or by the load path's
        // full validation (corruptSpills) — never served either way.
        EXPECT_EQ(1u, fresh.stats().corruptSpills +
                          fresh.stats().spillSwept);
        fresh.abandon("k");
        EXPECT_TRUE(readFileStr(path).empty())
            << "corrupt spill must be deleted";
        // Re-seed for the next variant.
        ResultCache reseed(4, dir);
        std::string q;
        ASSERT_EQ(ResultCache::Outcome::MustCompute,
                  reseed.acquire("k", q));
        reseed.publish("k", "good blob");
    }
}

TEST(ResultCache, ValidatorGatesSpilledBlobs)
{
    const std::string dir = tempDir("spillval");
    {
        ResultCache cache(4, dir);
        std::string p;
        ASSERT_EQ(ResultCache::Outcome::MustCompute,
                  cache.acquire("k", p));
        cache.publish("k", "rejected-by-validator");
    }
    ResultCache strict(4, dir, [](const std::string &payload) {
        return payload == "only this";
    });
    std::string p;
    EXPECT_EQ(ResultCache::Outcome::MustCompute,
              strict.acquire("k", p));
    EXPECT_EQ(1u, strict.stats().corruptSpills);
    strict.abandon("k");
}

// --- Result-key canonicalization ---------------------------------------

TEST(ResultKey, FlagOrderAndSpellingCanonicalize)
{
    const std::string base =
        keyOf({"--arch", "bb", "--m", "4", "--noise", "gate-depol",
               "--eps", "2e-3", "--shots", "64", "--seed", "7",
               "--factors", "0.5,1,2"});
    // Permuted flag order.
    EXPECT_EQ(base,
              keyOf({"--factors", "0.5,1,2", "--seed", "7", "--shots",
                     "64", "--eps", "2e-3", "--noise", "gate-depol",
                     "--m", "4", "--arch", "bb"}));
    // Equivalent numeric spellings.
    EXPECT_EQ(base,
              keyOf({"--arch", "bb", "--m", "4", "--noise",
                     "gate-depol", "--eps", "0.002", "--shots", "64",
                     "--seed", "7", "--factors", "0.50,1.0,2.00"}));
    // Execution knobs are excluded: results are invariant across
    // them, so keying on them would only split the cache.
    EXPECT_EQ(base,
              keyOf({"--arch", "bb", "--m", "4", "--noise",
                     "gate-depol", "--eps", "2e-3", "--shots", "64",
                     "--seed", "7", "--factors", "0.5,1,2",
                     "--threads", "8"}));
}

TEST(ResultKey, SemanticChangesChangeTheKey)
{
    const std::vector<std::string> base = {
        "--arch",    "bb",      "--m",    "4",
        "--noise",   "gate-depol", "--eps", "2e-3",
        "--shots",   "64",      "--seed", "7",
        "--factors", "0.5,1,2"};
    const std::string k0 = keyOf(base);
    auto mutate = [&](const char *flag, const char *val) {
        std::vector<std::string> args = base;
        for (std::size_t i = 0; i + 1 < args.size(); i += 2)
            if (args[i] == flag)
                args[i + 1] = val;
        return keyOf(args);
    };
    EXPECT_NE(k0, mutate("--eps", "3e-3"));
    EXPECT_NE(k0, mutate("--seed", "8"));
    EXPECT_NE(k0, mutate("--shots", "128"));
    EXPECT_NE(k0, mutate("--factors", "0.5,1"));
    EXPECT_NE(k0, mutate("--noise", "qubit-depol"));
    EXPECT_NE(k0, mutate("--m", "5"));
    // A different shard of the same plan covers different shots.
    std::vector<std::string> shard1 = base;
    shard1.push_back("--shard");
    shard1.push_back("1/4");
    EXPECT_NE(k0, keyOf(shard1));
    // Adaptive mode changes the rows a request produces.
    std::vector<std::string> adaptive = base;
    adaptive.push_back("--adaptive");
    EXPECT_NE(k0, keyOf(adaptive));
    // So does the sampler version: a result spilled by another one
    // must never answer.
    EXPECT_NE(k0.find(";sampler=" + std::to_string(kSamplerVersion) +
                      ";"),
              std::string::npos)
        << k0;
}

TEST(ResultKey, ValidateRefusesBadRatesAndNoiseNames)
{
    // A resident worker validates a request before it builds
    // anything: rates outside [0, 1] and unknown Pauli channel names
    // are refused, not run.
    tool::Workload w;
    w.noise = "gate-depol";
    std::string why;
    EXPECT_TRUE(w.validate(&why)) << why;
    for (const char *bad : {"gate-zz", "qubit-", "gate-", "qubit-depolx",
                            "gate-Z", "devices"}) {
        w.noise = bad;
        EXPECT_FALSE(w.validate(&why)) << bad;
    }
    for (const char *ok : {"gate-x", "gate-y", "qubit-z", "qubit-depol",
                           "device"}) {
        w.noise = ok;
        EXPECT_TRUE(w.validate(&why)) << ok << ": " << why;
    }
    w.noise = "device";
    for (double bad : {-0.5, 7.0, 1.0 + 1e-9}) {
        w.eps = bad;
        EXPECT_FALSE(w.validate(&why)) << bad;
        w.eps = 1e-3;
        w.eps2 = bad;
        EXPECT_FALSE(w.validate(&why)) << bad;
        w.eps2 = 1e-3;
    }
    w.eps = 0.0;
    w.eps2 = 1.0;
    EXPECT_TRUE(w.validate(&why)) << why;
}

// --- Server::handle (the full cache ladder, no socket) -----------------

TEST(Server, HandleCacheLadderAndRejections)
{
    srv::ServerConfig cfg;
    cfg.threads = 2;
    srv::Server server(cfg); // never started: handle() is in-process
    const std::vector<std::string> shard0 = {
        "--arch",    "bb",      "--m",     "4",
        "--noise",   "gate-depol", "--eps", "2e-3",
        "--shots",   "32",      "--seed",  "7",
        "--factors", "0.5,1",   "--shard", "0/2"};

    srv::ShardResponse cold = server.handle(shard0);
    ASSERT_EQ(0, cold.status) << cold.error;
    EXPECT_EQ("cold", cold.cache);
    EXPECT_GT(cold.setupSeconds, 0.0);
    EXPECT_FALSE(cold.payload.empty());

    // Identical request: served from the result cache, zero cost.
    srv::ShardResponse hit = server.handle(shard0);
    ASSERT_EQ(0, hit.status);
    EXPECT_EQ("result", hit.cache);
    EXPECT_EQ(0.0, hit.setupSeconds);
    EXPECT_EQ(0.0, hit.computeSeconds);
    EXPECT_EQ(cold.payload, hit.payload) << "cache must serve the "
                                            "exact bytes";

    // A different shard of the same sweep: the compiled estimator is
    // resident, so setup is zero but compute is real.
    std::vector<std::string> shard1 = shard0;
    shard1.back() = "1/2";
    srv::ShardResponse warm = server.handle(shard1);
    ASSERT_EQ(0, warm.status) << warm.error;
    EXPECT_EQ("compiled", warm.cache);
    EXPECT_EQ(0.0, warm.setupSeconds);
    EXPECT_NE(cold.payload, warm.payload);

    // Rejections: unknown arch, process-global tier pin, and a
    // workload over the configured width cap — all usage errors that
    // must not kill the server.
    EXPECT_EQ(2,
              server.handle({"--arch", "nope", "--m", "4"}).status);
    std::vector<std::string> tier = shard0;
    tier.push_back("--tier");
    tier.push_back("scalar");
    EXPECT_EQ(2, server.handle(tier).status);
    EXPECT_EQ(
        2,
        server.handle({"--arch", "bb", "--m", "60", "--shots", "8"})
            .status);
    const srv::Server::Stats st = server.stats();
    EXPECT_EQ(2u, st.computed);
    EXPECT_EQ(1u, st.resultHits);
    EXPECT_EQ(3u, st.usageErrors);
}

} // namespace
} // namespace qramsim
