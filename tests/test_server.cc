/**
 * @file
 * Resident-server tests (sim/server.hh + sim/cachestore.hh + the
 * qramsim_server / qramsim_drive --server CLIs): frame and JSON
 * protocol hardening (truncation corpus over every byte boundary,
 * byte-flip no-crash sweep, oversize/torn frames), CompiledCache and
 * ResultCache semantics (LRU eviction, coalesced builds, the
 * claim/publish/abandon protocol, spill survival across restarts,
 * corrupt-spill rejection-and-recompute), result-key
 * canonicalization, the in-process Server::handle cache ladder, and
 * the socket transport end to end — with `qramsim_drive --server`
 * results byte-identical to fork/exec, including under a server
 * killed mid-job and a socket that never existed.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
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
    EXPECT_TRUE(tool::cutShardSpec(opt, spec));
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

// --- Request / response JSON hardening ---------------------------------

TEST(ServerProtocol, RequestJsonRoundTrip)
{
    const std::vector<std::string> args = {
        "--arch", "bb",     "--m",       "6",
        "--eps",  "2e-3",   "--factors", "0.5,1,2",
        "--odd",  "quo\"te\\back\nline"};
    const std::string json = srv::buildShardRequest(args);
    std::vector<std::string> back;
    std::string err;
    ASSERT_TRUE(srv::parseShardRequest(json, back, &err)) << err;
    EXPECT_EQ(args, back);
}

TEST(ServerProtocol, ResponseJsonRoundTrip)
{
    srv::ShardResponse r;
    r.status = 3;
    r.cache = "cold";
    r.setupSeconds = 0.125;
    r.computeSeconds = 2.5;
    r.error = "detail \"quoted\"";
    r.payload = "";
    const std::string json = srv::buildShardResponse(r);
    srv::ShardResponse back;
    std::string err;
    ASSERT_TRUE(srv::parseShardResponse(json, back, &err)) << err;
    EXPECT_EQ(r.status, back.status);
    EXPECT_EQ(r.cache, back.cache);
    EXPECT_EQ(r.setupSeconds, back.setupSeconds);
    EXPECT_EQ(r.computeSeconds, back.computeSeconds);
    EXPECT_EQ(r.error, back.error);
    EXPECT_EQ(r.payload, back.payload);
}

TEST(ServerProtocol, RequestTruncationCorpus)
{
    const std::string json = srv::buildShardRequest(
        {"--arch", "bb", "--m", "4", "--factors", "0.5,1"});
    // Every prefix cut before the closing brace must fail cleanly
    // (prefixes dropping only trailing whitespace are complete
    // objects and may parse) — the idiom of the partial/manifest
    // corpora in test_orchestrator.cc.
    const std::size_t lastBrace = json.rfind('}');
    ASSERT_NE(lastBrace, std::string::npos);
    for (std::size_t cut = 0; cut <= lastBrace; ++cut) {
        std::vector<std::string> args;
        std::string err;
        EXPECT_FALSE(srv::parseShardRequest(json.substr(0, cut),
                                            args, &err))
            << "accepted a prefix of " << cut << " bytes";
    }
    std::vector<std::string> args;
    EXPECT_TRUE(srv::parseShardRequest(json, args));
}

TEST(ServerProtocol, ResponseTruncationCorpus)
{
    srv::ShardResponse r;
    r.status = 0;
    r.cache = "result";
    r.computeSeconds = 1.0;
    r.payload = "{\"qramsim_partial\": 1}";
    const std::string json = srv::buildShardResponse(r);
    const std::size_t lastBrace = json.rfind('}');
    ASSERT_NE(lastBrace, std::string::npos);
    for (std::size_t cut = 0; cut <= lastBrace; ++cut) {
        srv::ShardResponse back;
        std::string err;
        EXPECT_FALSE(srv::parseShardResponse(json.substr(0, cut),
                                             back, &err))
            << "accepted a prefix of " << cut << " bytes";
    }
    srv::ShardResponse back;
    EXPECT_TRUE(srv::parseShardResponse(json, back));
}

TEST(ServerProtocol, ByteFlipNoCrashSweep)
{
    const std::string req = srv::buildShardRequest(
        {"--arch", "bb", "--m", "4", "--seed", "7"});
    srv::ShardResponse okResp;
    okResp.status = 0;
    okResp.cache = "cold";
    okResp.payload = "{\"qramsim_partial\": 1}";
    const std::string resp = srv::buildShardResponse(okResp);
    for (std::size_t i = 0; i < req.size(); ++i) {
        for (const unsigned char flip :
             {0x01u, 0x20u, 0x80u, 0xffu}) {
            std::string mut = req;
            mut[i] = static_cast<char>(mut[i] ^ flip);
            std::vector<std::string> args;
            srv::parseShardRequest(mut, args); // must not crash
        }
    }
    for (std::size_t i = 0; i < resp.size(); ++i) {
        for (const unsigned char flip :
             {0x01u, 0x20u, 0x80u, 0xffu}) {
            std::string mut = resp;
            mut[i] = static_cast<char>(mut[i] ^ flip);
            srv::ShardResponse back;
            if (srv::parseShardResponse(mut, back)) {
                // Anything accepted must still satisfy the response
                // invariants the orchestrator relies on.
                EXPECT_GE(back.status, 0);
                EXPECT_LE(back.status, 255);
                EXPECT_GE(back.setupSeconds, 0.0);
                EXPECT_GE(back.computeSeconds, 0.0);
                if (back.status == 0)
                    EXPECT_FALSE(back.payload.empty());
            }
        }
    }
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
                     "--threads", "8", "--engine", "ensemble"}));
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

TEST(Server, DefaultEngineSpellingsShareOneEstimator)
{
    // "--engine ensemble" names the engine a pin-less request gets, so
    // the second shard must run on the estimator the first one built
    // instead of compiling a second copy of the same object.
    srv::ServerConfig cfg;
    cfg.threads = 1;
    srv::Server server(cfg);
    const std::vector<std::string> shard0 = {
        "--arch",  "bb", "--m",    "4", "--noise", "gate-depol",
        "--eps",   "2e-3", "--shots", "32", "--seed", "7",
        "--shard", "0/2"};
    std::vector<std::string> shard1 = shard0;
    shard1.back() = "1/2";
    shard1.push_back("--engine");
    shard1.push_back("ensemble");

    ASSERT_EQ(0, server.handle(shard0).status);
    const srv::ShardResponse warm = server.handle(shard1);
    ASSERT_EQ(0, warm.status) << warm.error;
    EXPECT_EQ("compiled", warm.cache);
    EXPECT_EQ(1u, server.stats().compiledBuilds);
}

// --- The socket transport end to end -----------------------------------

#if defined(QRAMSIM_SHARD_BIN) && defined(QRAMSIM_DRIVE_BIN) && \
    defined(QRAMSIM_SERVER_BIN)

/** Start qramsim_server in the background (pid recorded in
 *  DIR/server.pid) and wait until the socket accepts connections. */
bool
startServer(const std::string &dir, const std::string &sock,
            const std::string &extraFlags = "")
{
    if (shCode(std::string(QRAMSIM_SERVER_BIN) + " --socket " + sock +
               " " + extraFlags + " > " + dir +
               "/server.log 2>&1 & "
               "echo $! > " +
               dir + "/server.pid") != 0)
        return false;
    for (int i = 0; i < 100; ++i) {
        const int fd = srv::connectUnix(sock);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

void
stopServer(const std::string &dir, const char *sig = "-TERM")
{
    shCode("kill " + std::string(sig) + " $(cat " + dir +
           "/server.pid) 2>/dev/null; true");
}

const char kWorkload[] =
    " --arch bb --m 4 --noise gate-depol --eps 2e-3 --shots 48 "
    "--seed 2023 --factors 0.5,1,2";

TEST(ServerCli, DriveServerIsByteIdenticalToForkExec)
{
    const std::string dir = tempDir("drive_server");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 6";

    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));
    const std::string ref = readFileStr(dir + "/ref/result.json");
    ASSERT_FALSE(ref.empty());

    ASSERT_TRUE(startServer(dir, dir + "/srv.sock",
                            "--spill " + dir + "/spill"));
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/viaserver" +
                        " --server " + dir + "/srv.sock" + kWorkload +
                        " > /dev/null 2>&1"));
    EXPECT_EQ(ref, readFileStr(dir + "/viaserver/result.json"));
    const std::string report =
        readFileStr(dir + "/viaserver/report.json");
    EXPECT_NE(std::string::npos,
              report.find("\"server_attempts\": 6"));
    EXPECT_NE(std::string::npos,
              report.find("\"server_transport_failures\": 0"));

    // A second job against the warm server: still byte-identical,
    // and shards report zero setup (result-cache hits).
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/warm" +
                        " --server " + dir + "/srv.sock" + kWorkload +
                        " > /dev/null 2>&1"));
    EXPECT_EQ(ref, readFileStr(dir + "/warm/result.json"));
    EXPECT_NE(std::string::npos,
              readFileStr(dir + "/warm/report.json")
                  .find("\"setup_seconds\": 0,"));
    stopServer(dir);
}

TEST(ServerCli, MissingServerDegradesToForkExecByteIdentically)
{
    const std::string dir = tempDir("drive_noserver");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/fallback" +
                        " --server " + dir + "/never-existed.sock" +
                        kWorkload + " > /dev/null 2>&1"));
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/fallback/result.json"));
    const std::string report =
        readFileStr(dir + "/fallback/report.json");
    EXPECT_EQ(std::string::npos,
              report.find("\"server_transport_failures\": 0"))
        << "the fallback must be visible in the report";
    // Transport failures burn no retries.
    EXPECT_NE(std::string::npos, report.find("\"retries\": 0"));
}

TEST(ServerCli, ServerKilledMidJobStillCompletesByteIdentically)
{
    const std::string dir = tempDir("drive_midkill");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 8";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));
    ASSERT_TRUE(startServer(dir, dir + "/srv.sock"));
    // SIGKILL the server a moment into the job: whether each shard
    // was already served or falls back, the merged result must not
    // change and the drive must exit 0.
    ASSERT_EQ(0,
              shCode("( sleep 0.05; kill -KILL $(cat " + dir +
                     "/server.pid) 2>/dev/null ) & " + drive +
                     " --job " + dir + "/midkill --server " + dir +
                     "/srv.sock" + kWorkload + " > /dev/null 2>&1"));
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/midkill/result.json"));
}

#endif // tool binaries available

} // namespace
} // namespace qramsim
