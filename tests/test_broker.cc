/**
 * @file
 * Work-stealing broker tests (sim/broker.hh + the qramsim_broker /
 * qramsim_server --broker / qramsim_drive --broker CLIs): wire
 * message and journal-line hardening (truncation corpora, torn-tail
 * tolerance, mid-file tamper rejection), the in-process Broker state
 * machine (submit/pull/commit/poll/fetch, duplicate cross-checks,
 * invalid-commit requeue, permanent-failure settling, dead-worker
 * and frozen-progress lease recovery, job parking, journal replay
 * across restarts, journal-backed payloads and geometric compaction),
 * the long-poll waits (parked pulls and polls wake on the change they
 * wait for, steal and stop() reach them), the socket plumbing
 * (finished connection threads are joined, silent connections are
 * cut at the idle deadline), and the kill/steal/resume matrix end to
 * end — every disturbed run byte-identical to the undisturbed
 * fork/exec reference.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/broker.hh"
#include "sim/server.hh"
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

bool
writeFileStr(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

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

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** One request through the broker's in-process dispatch. */
brk::Msg
ask(brk::Broker &b, const brk::Msg &req)
{
    brk::Msg resp;
    std::string err;
    EXPECT_TRUE(brk::parseMsg(b.handleMessage(brk::buildMsg(req)),
                              resp, &err))
        << err;
    return resp;
}

const std::vector<std::string> kJobArgs = {
    "--arch",  "bb",         "--m",     "4",   "--noise",
    "gate-depol", "--eps",   "2e-3",    "--shots", "32",
    "--seed",  "7",          "--factors", "0.5,1"};

brk::Msg
submitMsg(const char *fingerprint = "fp-test",
          std::uint64_t nshards = 2)
{
    brk::Msg m;
    m.type = "submit";
    m.fingerprint = fingerprint;
    m.nshards = nshards;
    m.args = kJobArgs;
    return m;
}

brk::Msg
pullMsg(const char *worker)
{
    brk::Msg m;
    m.type = "pull";
    m.worker = worker;
    return m;
}

/** The resident estimator the in-process tests share: assignment
 *  args go straight into Server::handle, exactly like a worker. */
srv::Server &
computeServer()
{
    static srv::Server *server = [] {
        srv::ServerConfig cfg;
        cfg.threads = 2;
        return new srv::Server(cfg);
    }();
    return *server;
}

/** Compute the assigned shard and commit it. Returns the ack. */
brk::Msg
computeAndCommit(brk::Broker &b, const brk::Msg &assign,
                 const char *worker)
{
    const srv::ShardResponse r = computeServer().handle(assign.args);
    EXPECT_EQ(0, r.status) << r.error;
    brk::Msg c;
    c.type = "commit";
    c.worker = worker;
    c.lease = assign.lease;
    c.job = assign.job;
    c.shard = assign.shard;
    c.status = static_cast<std::uint64_t>(r.status);
    c.error = r.error;
    c.payload = r.payload;
    return ask(b, c);
}

// --- Wire messages -----------------------------------------------------

TEST(BrokerMsg, EveryFieldRoundTrips)
{
    brk::Msg m;
    m.type = "assign";
    m.worker = "w\"quoted\\back\nline";
    m.job = "0123456789abcdef";
    m.fingerprint = "fp|seed=7";
    m.error = "none";
    m.payload = "{\"qramsim_partial\": 1}";
    m.lease = 42;
    m.shard = 3;
    m.nshards = 8;
    m.total = 6;
    m.status = 3;
    m.progress = 17;
    m.cancel = 1;
    m.accepted = 1;
    m.duplicate = 1;
    m.resumed = 1;
    m.complete = 1;
    m.jobFailed = 1;
    m.heartbeatSec = 0.25;
    m.pollSec = 0.05;
    m.deadSec = 3.5;
    m.args = {"--arch", "bb", "--shard", "3/8"};
    m.done = {0.0, 2.0, 5.0};
    m.failed = {1.0};
    brk::Msg back;
    std::string err;
    ASSERT_TRUE(brk::parseMsg(brk::buildMsg(m), back, &err)) << err;
    EXPECT_EQ(m.type, back.type);
    EXPECT_EQ(m.worker, back.worker);
    EXPECT_EQ(m.job, back.job);
    EXPECT_EQ(m.fingerprint, back.fingerprint);
    EXPECT_EQ(m.error, back.error);
    EXPECT_EQ(m.payload, back.payload);
    EXPECT_EQ(m.lease, back.lease);
    EXPECT_EQ(m.shard, back.shard);
    EXPECT_EQ(m.nshards, back.nshards);
    EXPECT_EQ(m.total, back.total);
    EXPECT_EQ(m.status, back.status);
    EXPECT_EQ(m.progress, back.progress);
    EXPECT_EQ(m.cancel, back.cancel);
    EXPECT_EQ(m.accepted, back.accepted);
    EXPECT_EQ(m.duplicate, back.duplicate);
    EXPECT_EQ(m.resumed, back.resumed);
    EXPECT_EQ(m.complete, back.complete);
    EXPECT_EQ(m.jobFailed, back.jobFailed);
    EXPECT_EQ(m.heartbeatSec, back.heartbeatSec);
    EXPECT_EQ(m.pollSec, back.pollSec);
    EXPECT_EQ(m.deadSec, back.deadSec);
    EXPECT_EQ(m.args, back.args);
    EXPECT_EQ(m.done, back.done);
    EXPECT_EQ(m.failed, back.failed);
}

TEST(BrokerMsg, TruncationCorpus)
{
    brk::Msg m;
    m.type = "commit";
    m.worker = "w1";
    m.payload = "{\"p\": 1}";
    m.args = {"--arch", "bb"};
    const std::string json = brk::buildMsg(m);
    const std::size_t lastBrace = json.rfind('}');
    ASSERT_NE(lastBrace, std::string::npos);
    for (std::size_t cut = 0; cut <= lastBrace; ++cut) {
        brk::Msg back;
        EXPECT_FALSE(brk::parseMsg(json.substr(0, cut), back))
            << "accepted a prefix of " << cut << " bytes";
    }
}

TEST(BrokerMsg, MagicAndTypeAreRequired)
{
    brk::Msg back;
    EXPECT_FALSE(
        brk::parseMsg("{\"type\": \"pull\", \"worker\": \"w\"}",
                      back))
        << "missing magic";
    EXPECT_FALSE(brk::parseMsg(
        "{\"qramsim_broker\": 1, \"worker\": \"w\"}", back))
        << "missing type";
    EXPECT_TRUE(brk::parseMsg(
        "{\"qramsim_broker\": 1, \"type\": \"pull\", "
        "\"future_key\": [1, 2]}",
        back))
        << "unknown keys are skipped for forward compatibility";
    // Booleans travel as 0/1; anything else is rejected.
    EXPECT_FALSE(brk::parseMsg(
        "{\"qramsim_broker\": 1, \"type\": \"ok\", \"cancel\": 2}",
        back));
}

TEST(BrokerMsg, ByteFlipNoCrashSweep)
{
    brk::Msg m;
    m.type = "assign";
    m.lease = 7;
    m.args = {"--arch", "bb", "--m", "4"};
    m.heartbeatSec = 0.5;
    const std::string json = brk::buildMsg(m);
    for (std::size_t i = 0; i < json.size(); ++i) {
        for (const unsigned char flip :
             {0x01u, 0x20u, 0x80u, 0xffu}) {
            std::string mut = json;
            mut[i] = static_cast<char>(mut[i] ^ flip);
            brk::Msg back;
            if (brk::parseMsg(mut, back)) {
                // Whatever still parses must respect the invariants
                // the protocol handlers rely on.
                EXPECT_LE(back.status, 255u);
                EXPECT_LE(back.cancel, 1u);
                EXPECT_GE(back.heartbeatSec, 0.0);
            }
        }
    }
}

// --- Journal format ----------------------------------------------------

TEST(BrokerJournal, LinesRoundTripWithConsecutiveSeqs)
{
    std::string text;
    text += brk::buildJournalLine(5, "{\"kind\": \"job\"}");
    text += brk::buildJournalLine(6, "{\"kind\": \"commit\"}");
    text += brk::buildJournalLine(7, "{\"kind\": \"done\"}");
    std::vector<brk::JournalEntry> entries;
    std::size_t dropped = 9;
    std::string err;
    ASSERT_TRUE(brk::parseJournal(text, entries, &dropped, &err))
        << err;
    ASSERT_EQ(3u, entries.size());
    EXPECT_EQ(0u, dropped);
    EXPECT_EQ(5u, entries[0].seq);
    EXPECT_EQ("{\"kind\": \"commit\"}", entries[1].body);
}

TEST(BrokerJournal, TornFinalLineIsDroppedAndCounted)
{
    std::string whole;
    whole += brk::buildJournalLine(1, "{\"kind\": \"job\"}");
    whole += brk::buildJournalLine(2, "{\"kind\": \"commit\"}");
    const std::size_t firstLen = whole.find('\n') + 1;
    // Every torn prefix of the FINAL line (the crash-mid-append
    // shape) must parse: the complete first line survives, the torn
    // tail is dropped and counted, never rejected. A cut that only
    // loses the trailing newline leaves a hash-valid line, so stop
    // one byte short of it.
    for (std::size_t cut = firstLen + 1; cut + 1 < whole.size();
         ++cut) {
        std::vector<brk::JournalEntry> entries;
        std::size_t dropped = 0;
        std::string err;
        ASSERT_TRUE(brk::parseJournal(whole.substr(0, cut), entries,
                                      &dropped, &err))
            << "cut=" << cut << ": " << err;
        EXPECT_EQ(1u, entries.size()) << "cut=" << cut;
        EXPECT_EQ(1u, dropped) << "cut=" << cut;
    }
}

TEST(BrokerJournal, MidFileDamageIsTamperingAndRejects)
{
    std::string text;
    text += brk::buildJournalLine(1, "{\"kind\": \"job\"}");
    text += brk::buildJournalLine(2, "{\"kind\": \"commit\"}");
    text += brk::buildJournalLine(3, "{\"kind\": \"done\"}");
    // Flip one byte of the FIRST line: with valid lines after it,
    // this cannot be a crash artifact.
    std::string evil = text;
    evil[text.find("job")] = 'J';
    std::vector<brk::JournalEntry> entries;
    std::string err;
    EXPECT_FALSE(brk::parseJournal(evil, entries, nullptr, &err));
    EXPECT_FALSE(err.empty());
    // A seq gap before the end is equally tampering (deleted line).
    std::string gapped;
    gapped += brk::buildJournalLine(1, "{\"kind\": \"job\"}");
    gapped += brk::buildJournalLine(3, "{\"kind\": \"done\"}");
    gapped += brk::buildJournalLine(4, "{\"kind\": \"done\"}");
    EXPECT_FALSE(brk::parseJournal(gapped, entries, nullptr, &err));
    // The pristine text still parses — the rejects above were about
    // the damage, not the corpus.
    EXPECT_TRUE(brk::parseJournal(text, entries, nullptr, &err))
        << err;
}

// --- The Broker state machine (in-process, no socket) ------------------

brk::BrokerConfig
quickConfig()
{
    brk::BrokerConfig cfg;
    cfg.heartbeatSec = 0.05;
    cfg.workerDeadSec = 10.0; // liveness off unless a test wants it
    cfg.leaseBaseSec = 10.0;
    cfg.stragglerFactor = 0.0; // stealing off unless a test wants it
    cfg.parkAfterSec = 0.0;    // parking off unless a test wants it
    return cfg;
}

TEST(Broker, SubmitPullCommitPollFetchHappyPath)
{
    brk::Broker b(quickConfig());
    const brk::Msg job = ask(b, submitMsg());
    ASSERT_EQ("job", job.type) << job.error;
    EXPECT_EQ(2u, job.total);
    EXPECT_EQ(0u, job.resumed);

    // Idle poll before any commit.
    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    brk::Msg st = ask(b, poll);
    ASSERT_EQ("status", st.type);
    EXPECT_EQ(0u, st.done.size());
    EXPECT_EQ(0u, st.complete);

    std::string payloads[2];
    for (int i = 0; i < 2; ++i) {
        const brk::Msg assign = ask(b, pullMsg("w1"));
        ASSERT_EQ("assign", assign.type);
        EXPECT_EQ(2u, assign.nshards);
        ASSERT_GE(assign.args.size(), 2u);
        EXPECT_EQ("--shard", assign.args[assign.args.size() - 2]);
        const brk::Msg ack = computeAndCommit(b, assign, "w1");
        ASSERT_EQ("ok", ack.type);
        EXPECT_EQ(1u, ack.accepted);
        EXPECT_EQ(0u, ack.duplicate);
        brk::Msg get;
        get.type = "fetch";
        get.job = job.job;
        get.shard = assign.shard;
        const brk::Msg res = ask(b, get);
        ASSERT_EQ("result", res.type);
        payloads[assign.shard] = res.payload;
    }
    EXPECT_EQ("idle", ask(b, pullMsg("w1")).type);
    st = ask(b, poll);
    EXPECT_EQ(2u, st.done.size());
    EXPECT_EQ(1u, st.complete);
    EXPECT_NE(payloads[0], payloads[1]);
    const brk::Broker::Stats s = b.stats();
    EXPECT_EQ(1u, s.jobsSubmitted);
    EXPECT_EQ(1u, s.jobsCompleted);
    EXPECT_EQ(2u, s.assignments);
    EXPECT_EQ(2u, s.commitsAccepted);
    EXPECT_EQ(0u, s.redispatches);

    // Re-submitting the same fingerprint adopts the finished job.
    const brk::Msg again = ask(b, submitMsg());
    ASSERT_EQ("job", again.type);
    EXPECT_EQ(1u, again.resumed);
    EXPECT_EQ(job.job, again.job);
}

TEST(Broker, BadSubmitsAreRejected)
{
    brk::Broker b(quickConfig());
    brk::Msg m = submitMsg();
    m.fingerprint.clear();
    EXPECT_EQ("error", ask(b, m).type) << "missing fingerprint";
    m = submitMsg();
    m.nshards = 0;
    EXPECT_EQ("error", ask(b, m).type) << "zero shards";
    m = submitMsg();
    m.args.push_back("--shard");
    m.args.push_back("0/2");
    EXPECT_EQ("error", ask(b, m).type) << "broker-owned flag";
    m = submitMsg();
    m.args.push_back("--tier");
    m.args.push_back("scalar");
    EXPECT_EQ("error", ask(b, m).type) << "per-process pin";
    m = submitMsg();
    m.args = {"--arch", "nope"};
    EXPECT_EQ("error", ask(b, m).type) << "unknown workload";
    // An unparseable frame and an unknown type count as bad frames.
    brk::Msg back;
    ASSERT_TRUE(brk::parseMsg(b.handleMessage("garbage"), back));
    EXPECT_EQ("error", back.type);
    brk::Msg odd;
    odd.type = "frobnicate";
    EXPECT_EQ("error", ask(b, odd).type);
    EXPECT_EQ(2u, b.stats().badFrames);
}

TEST(Broker, DuplicateCommitIsCrossCheckedByteForByte)
{
    brk::Broker b(quickConfig());
    const brk::Msg job = ask(b, submitMsg("fp-dup", 1));
    ASSERT_EQ("job", job.type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    const srv::ShardResponse r = computeServer().handle(assign.args);
    ASSERT_EQ(0, r.status);

    brk::Msg c;
    c.type = "commit";
    c.worker = "w1";
    c.lease = assign.lease;
    c.job = assign.job;
    c.shard = assign.shard;
    c.payload = r.payload;
    ASSERT_EQ(1u, ask(b, c).accepted);

    // The losing twin of a steal: identical bytes, a free
    // end-to-end determinism check.
    c.worker = "w2";
    c.lease = 9999; // its lease is long gone
    brk::Msg ack = ask(b, c);
    EXPECT_EQ(1u, ack.duplicate);
    EXPECT_EQ(0u, ack.accepted);
    EXPECT_EQ(1u, b.stats().duplicateMatches);
    EXPECT_EQ(0u, b.stats().duplicateMismatches);

    // A diverging duplicate is the alarm bell.
    c.payload = "{\"not\": \"the same\"}";
    ack = ask(b, c);
    EXPECT_EQ(1u, ack.duplicate);
    EXPECT_EQ(1u, b.stats().duplicateMismatches);
}

TEST(Broker, InvalidSuccessPayloadIsRejectedAndRequeued)
{
    brk::Broker b(quickConfig());
    ASSERT_EQ("job", ask(b, submitMsg("fp-bad", 1)).type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    brk::Msg c;
    c.type = "commit";
    c.worker = "w1";
    c.lease = assign.lease;
    c.job = assign.job;
    c.shard = assign.shard;
    c.status = 0;
    c.payload = "{\"qramsim_partial\": 1, \"garbage\": true}";
    const brk::Msg ack = ask(b, c);
    EXPECT_EQ(0u, ack.accepted);
    EXPECT_EQ(0u, ack.duplicate);
    EXPECT_EQ(1u, b.stats().commitsRejected);
    // The shard went straight back to the queue.
    const brk::Msg retry = ask(b, pullMsg("w2"));
    ASSERT_EQ("assign", retry.type);
    EXPECT_EQ(assign.shard, retry.shard);
    EXPECT_EQ(1u, b.stats().redispatches);
    EXPECT_EQ(1u, b.stats().steals) << "new worker = steal";

    // A real partial drawn by another sampler version is refused as
    // well: accepted, it would become a client checkpoint that mixes
    // another sampler's shots into the merge.
    const srv::ShardResponse r = computeServer().handle(retry.args);
    ASSERT_EQ(0, r.status);
    PartialEstimate part;
    ASSERT_TRUE(PartialEstimate::fromJson(r.payload, part));
    part.sampler = kSamplerVersion - 1;
    c.worker = "w2";
    c.lease = retry.lease;
    c.payload = part.toJson();
    EXPECT_EQ(0u, ask(b, c).accepted);
    EXPECT_EQ(2u, b.stats().commitsRejected);
}

TEST(Broker, RetryableFailuresRequeuePermanentOnesSettle)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.maxAttempts = 2;
    brk::Broker b(cfg);
    const brk::Msg job = ask(b, submitMsg("fp-fail", 1));
    ASSERT_EQ("job", job.type);

    // Retryable (ToolExit 3): requeued.
    brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    brk::Msg c;
    c.type = "commit";
    c.worker = "w1";
    c.lease = assign.lease;
    c.job = assign.job;
    c.shard = assign.shard;
    c.status = 3;
    c.error = "transient I/O";
    ask(b, c);

    // Second attempt fails permanently (ToolExit 2): settle.
    assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    c.lease = assign.lease;
    c.status = 2;
    c.error = "usage";
    ask(b, c);
    EXPECT_EQ("idle", ask(b, pullMsg("w1")).type);

    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    const brk::Msg st = ask(b, poll);
    ASSERT_EQ("status", st.type);
    EXPECT_EQ(0u, st.complete);
    EXPECT_EQ(1u, st.jobFailed);
    ASSERT_EQ(1u, st.failed.size());
    EXPECT_EQ(1u, b.stats().shardsFailed);

    // Fetching an unfinished shard reports pending, not garbage.
    brk::Msg get;
    get.type = "fetch";
    get.job = job.job;
    get.shard = 0;
    EXPECT_EQ("pending", ask(b, get).type);
}

TEST(Broker, ExhaustedRetryableAttemptsSettleTheShard)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.maxAttempts = 2;
    brk::Broker b(cfg);
    ASSERT_EQ("job", ask(b, submitMsg("fp-exhaust", 1)).type);
    for (int attempt = 0; attempt < 2; ++attempt) {
        const brk::Msg assign = ask(b, pullMsg("w1"));
        ASSERT_EQ("assign", assign.type) << "attempt " << attempt;
        brk::Msg c;
        c.type = "commit";
        c.worker = "w1";
        c.lease = assign.lease;
        c.job = assign.job;
        c.shard = assign.shard;
        c.status = 3;
        ask(b, c);
    }
    EXPECT_EQ("idle", ask(b, pullMsg("w1")).type)
        << "attempts exhausted: the shard must settle, not loop";
    EXPECT_EQ(1u, b.stats().shardsFailed);
}

TEST(Broker, DeadWorkerLeaseReturnsToQueueForStealing)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.heartbeatSec = 0.03;
    cfg.workerDeadSec = 0.12;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start()); // housekeeping thread, no socket
    ASSERT_EQ("job", ask(b, submitMsg("fp-dead", 1)).type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    // w1 goes silent holding the lease. The broker must declare it
    // dead and hand the shard to w2.
    brk::Msg stolen;
    for (int i = 0; i < 100; ++i) {
        sleepMs(30);
        stolen = ask(b, pullMsg("w2"));
        if (stolen.type == "assign")
            break;
    }
    ASSERT_EQ("assign", stolen.type);
    EXPECT_EQ(assign.shard, stolen.shard);
    const brk::Broker::Stats s = b.stats();
    EXPECT_GE(s.deadWorkers, 1u);
    EXPECT_GE(s.steals, 1u);
    EXPECT_GE(s.redispatches, 1u);
    EXPECT_GT(s.stealLatencySecTotal, 0.0);
    // w2 finishes it.
    const brk::Msg ack = computeAndCommit(b, stolen, "w2");
    EXPECT_EQ(1u, ack.accepted);
    b.stop();
}

TEST(Broker, FrozenProgressHeartbeatsLoseTheLease)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.heartbeatSec = 0.03;
    cfg.workerDeadSec = 10.0; // alive the whole time
    cfg.leaseBaseSec = 0.15;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    ASSERT_EQ("job", ask(b, submitMsg("fp-stall", 1)).type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);

    // Heartbeat diligently — with progress FROZEN. The lease must
    // expire on schedule despite the liveness signal.
    brk::Msg stolen;
    bool cancelled = false;
    for (int i = 0; i < 100; ++i) {
        brk::Msg beat;
        beat.type = "heartbeat";
        beat.worker = "w1";
        beat.lease = assign.lease;
        beat.progress = 1; // never advances
        if (ask(b, beat).cancel)
            cancelled = true;
        stolen = ask(b, pullMsg("w2"));
        if (stolen.type == "assign")
            break;
        sleepMs(30);
    }
    ASSERT_EQ("assign", stolen.type);
    EXPECT_EQ(assign.shard, stolen.shard);
    EXPECT_TRUE(cancelled)
        << "the stalled worker's next heartbeat learns of the "
           "revocation";
    EXPECT_GE(b.stats().leaseExpiries, 1u);
    EXPECT_EQ(0u, b.stats().deadWorkers)
        << "the worker heartbeat the whole time";
    b.stop();
}

TEST(Broker, AdvancingProgressKeepsRenewingTheLease)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.heartbeatSec = 0.03;
    cfg.leaseBaseSec = 0.15;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    ASSERT_EQ("job", ask(b, submitMsg("fp-renew", 1)).type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    // 0.45 s of advancing heartbeats across a 0.15 s lease: renewal
    // must keep the lease alive the whole way.
    for (std::uint64_t p = 1; p <= 15; ++p) {
        brk::Msg beat;
        beat.type = "heartbeat";
        beat.worker = "w1";
        beat.lease = assign.lease;
        beat.progress = p;
        EXPECT_EQ(0u, ask(b, beat).cancel) << "beat " << p;
        EXPECT_EQ("idle", ask(b, pullMsg("w2")).type)
            << "a renewed lease must not be re-dispatched";
        sleepMs(30);
    }
    EXPECT_EQ(0u, b.stats().leaseExpiries);
    b.stop();
}

TEST(Broker, AbandonedJobParksAndClientReturnUnparks)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.parkAfterSec = 0.1;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    const brk::Msg job = ask(b, submitMsg("fp-park", 1));
    ASSERT_EQ("job", job.type);
    // The client vanishes; the job must park and stop dispatching.
    bool parked = false;
    for (int i = 0; i < 100 && !parked; ++i) {
        sleepMs(30);
        parked = b.stats().jobsParked > 0;
    }
    ASSERT_TRUE(parked);
    EXPECT_EQ("idle", ask(b, pullMsg("w1")).type)
        << "parked jobs do not dispatch";
    // The client reconnects (same fingerprint): dispatch resumes.
    const brk::Msg again = ask(b, submitMsg("fp-park", 1));
    ASSERT_EQ("job", again.type);
    EXPECT_EQ(1u, again.resumed);
    EXPECT_EQ("assign", ask(b, pullMsg("w1")).type);
    b.stop();
}

TEST(Broker, QueueEmptyStealDuplicatesTheOldestStraggler)
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.stragglerFactor = 1.5;
    cfg.stragglerMinDone = 1;
    brk::Broker b(cfg);
    ASSERT_EQ("job", ask(b, submitMsg("fp-spec", 2)).type);

    // w1 takes shard A and commits fast — seeding the duration
    // history — then w2 takes shard B and goes quiet.
    const brk::Msg a = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", a.type);
    ASSERT_EQ(1u, computeAndCommit(b, a, "w1").accepted);
    const brk::Msg stuck = ask(b, pullMsg("w2"));
    ASSERT_EQ("assign", stuck.type);

    // Once w2's lease age crosses 1.5x the median, an idle w1 pull
    // speculatively duplicates it instead of sitting idle.
    brk::Msg spec;
    for (int i = 0; i < 400; ++i) {
        spec = ask(b, pullMsg("w1"));
        if (spec.type == "assign")
            break;
        sleepMs(20);
    }
    ASSERT_EQ("assign", spec.type);
    EXPECT_EQ(stuck.shard, spec.shard);
    EXPECT_GE(b.stats().speculativeAssignments, 1u);
    EXPECT_GE(b.stats().steals, 1u);

    // Both commit; first valid commit wins, the twin cross-checks.
    ASSERT_EQ(1u, computeAndCommit(b, spec, "w1").accepted);
    const brk::Msg late = computeAndCommit(b, stuck, "w2");
    EXPECT_EQ(1u, late.duplicate);
    EXPECT_EQ(1u, b.stats().duplicateMatches);
    EXPECT_EQ(0u, b.stats().duplicateMismatches)
        << "a steal twin must be byte-identical";
}

// --- Journal persistence across restarts -------------------------------

TEST(Broker, JournalReplayResumesHalfDoneJobs)
{
    const std::string dir = tempDir("brk_journal");
    std::string donePayload;
    std::uint64_t doneShard = 0;
    {
        brk::BrokerConfig cfg = quickConfig();
        cfg.stateDir = dir;
        brk::Broker a(cfg);
        ASSERT_TRUE(a.start());
        ASSERT_EQ("job", ask(a, submitMsg("fp-replay", 2)).type);
        const brk::Msg assign = ask(a, pullMsg("w1"));
        ASSERT_EQ("assign", assign.type);
        const srv::ShardResponse r =
            computeServer().handle(assign.args);
        ASSERT_EQ(0, r.status);
        donePayload = r.payload;
        doneShard = assign.shard;
        brk::Msg c;
        c.type = "commit";
        c.worker = "w1";
        c.lease = assign.lease;
        c.job = assign.job;
        c.shard = assign.shard;
        c.payload = r.payload;
        ASSERT_EQ(1u, ask(a, c).accepted);
        a.stop(); // broker dies with one of two shards committed
    }
    {
        // Present journal without resume: refuse loudly.
        brk::BrokerConfig cfg = quickConfig();
        cfg.stateDir = dir;
        brk::Broker no(cfg);
        std::string err;
        EXPECT_FALSE(no.start(&err));
        EXPECT_NE(std::string::npos, err.find("resume")) << err;
    }
    brk::BrokerConfig cfg = quickConfig();
    cfg.stateDir = dir;
    cfg.resume = true;
    brk::Broker b(cfg);
    std::string err;
    ASSERT_TRUE(b.start(&err)) << err;
    EXPECT_EQ(1u, b.stats().journalReplayedCommits);

    // The client reconnects with the same fingerprint and adopts
    // the half-done job; the replayed commit serves byte-identically.
    const brk::Msg job = ask(b, submitMsg("fp-replay", 2));
    ASSERT_EQ("job", job.type);
    EXPECT_EQ(1u, job.resumed);
    brk::Msg get;
    get.type = "fetch";
    get.job = job.job;
    get.shard = doneShard;
    const brk::Msg res = ask(b, get);
    ASSERT_EQ("result", res.type);
    EXPECT_EQ(donePayload, res.payload);

    // Exactly the missing shard is dispatched, and the job finishes.
    const brk::Msg assign = ask(b, pullMsg("w2"));
    ASSERT_EQ("assign", assign.type);
    EXPECT_NE(doneShard, assign.shard);
    ASSERT_EQ(1u, computeAndCommit(b, assign, "w2").accepted);
    EXPECT_EQ("idle", ask(b, pullMsg("w2")).type);
    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    EXPECT_EQ(1u, ask(b, poll).complete);
    b.stop();
}

TEST(Broker, TornJournalTailIsDroppedTamperIsRefused)
{
    const std::string dir = tempDir("brk_torn");
    {
        brk::BrokerConfig cfg = quickConfig();
        cfg.stateDir = dir;
        brk::Broker a(cfg);
        ASSERT_TRUE(a.start());
        ASSERT_EQ("job", ask(a, submitMsg("fp-torn", 2)).type);
        const brk::Msg assign = ask(a, pullMsg("w1"));
        ASSERT_EQ("assign", assign.type);
        ASSERT_EQ(1u, computeAndCommit(a, assign, "w1").accepted);
        a.stop();
    }
    const std::string path = brk::Broker::journalPath(dir);
    const std::string whole = readFileStr(path);
    ASSERT_FALSE(whole.empty());

    // Torn tail (SIGKILL mid-append): drop, count, resume — the
    // half-written commit is simply recomputed.
    ASSERT_TRUE(
        writeFileStr(path, whole.substr(0, whole.size() - 7)));
    {
        brk::BrokerConfig cfg = quickConfig();
        cfg.stateDir = dir;
        cfg.resume = true;
        brk::Broker b(cfg);
        std::string err;
        ASSERT_TRUE(b.start(&err)) << err;
        EXPECT_GE(b.stats().journalDroppedEntries, 1u);
        EXPECT_EQ(0u, b.stats().journalReplayedCommits)
            << "the torn line WAS the commit";
        b.stop();
    }

    // Mid-file damage: refuse to start at all. Flip a byte of the
    // FIRST line so valid lines follow the damage.
    std::string evil = whole;
    evil[whole.find('\n') / 2] ^= 0x20;
    ASSERT_TRUE(writeFileStr(path, evil));
    {
        brk::BrokerConfig cfg = quickConfig();
        cfg.stateDir = dir;
        cfg.resume = true;
        brk::Broker b(cfg);
        std::string err;
        EXPECT_FALSE(b.start(&err))
            << "a tampered journal must not replay";
    }
}

TEST(Broker, JournalCompactionPreservesStateAndStaysReplayable)
{
    const std::string dir = tempDir("brk_compact");
    brk::BrokerConfig cfg = quickConfig();
    cfg.stateDir = dir;
    cfg.rotateBytes = 1; // compact whenever the journal doubles
    brk::Broker a(cfg);
    ASSERT_TRUE(a.start());
    ASSERT_EQ("job", ask(a, submitMsg("fp-compact", 2)).type);
    for (int i = 0; i < 2; ++i) {
        const brk::Msg assign = ask(a, pullMsg("w1"));
        ASSERT_EQ("assign", assign.type);
        ASSERT_EQ(1u, computeAndCommit(a, assign, "w1").accepted);
    }
    // The start-up snapshot plus at least one rotation.
    EXPECT_GE(a.stats().journalCompactions, 2u);
    a.stop();
    // The rotated journal must replay to the full finished job.
    brk::BrokerConfig rcfg = quickConfig();
    rcfg.stateDir = dir;
    rcfg.resume = true;
    brk::Broker b(rcfg);
    std::string err;
    ASSERT_TRUE(b.start(&err)) << err;
    EXPECT_EQ(2u, b.stats().journalReplayedCommits);
    const brk::Msg job = ask(b, submitMsg("fp-compact", 2));
    ASSERT_EQ("job", job.type);
    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    EXPECT_EQ(1u, ask(b, poll).complete);
    b.stop();
}

TEST(Broker, JobWhoseAdmissionCompactsTheJournalSurvivesARestart)
{
    // The admission line itself sets off the compaction: the snapshot
    // must already hold the new job, or a restart forgets it.
    const std::string dir = tempDir("brk_admit_compact");
    brk::BrokerConfig cfg = quickConfig();
    cfg.stateDir = dir;
    cfg.rotateBytes = 1;
    {
        brk::Broker a(cfg);
        ASSERT_TRUE(a.start());
        ASSERT_EQ("job", ask(a, submitMsg("fp-admit", 2)).type);
        EXPECT_EQ(2u, a.stats().journalCompactions);
        a.stop();
    }
    cfg.resume = true;
    brk::Broker b(cfg);
    std::string err;
    ASSERT_TRUE(b.start(&err)) << err;
    const brk::Msg again = ask(b, submitMsg("fp-admit", 2));
    ASSERT_EQ("job", again.type);
    EXPECT_EQ(1u, again.resumed) << "the restart lost the admission";
    EXPECT_EQ("assign", ask(b, pullMsg("w1")).type);
    b.stop();
}

brk::Msg
submitSeed(const char *fingerprint, int seed)
{
    brk::Msg m = submitMsg(fingerprint, 2);
    for (std::size_t i = 0; i + 1 < m.args.size(); ++i)
        if (m.args[i] == "--seed")
            m.args[i + 1] = std::to_string(seed);
    return m;
}

brk::Msg
fetchMsg(const std::string &job, std::uint64_t shard)
{
    brk::Msg m;
    m.type = "fetch";
    m.job = job;
    m.shard = shard;
    return m;
}

TEST(Broker, PayloadFetchedAfterSeveralCompactionsIsByteIdentical)
{
    const std::string dir = tempDir("brk_fetch_compact");
    brk::BrokerConfig cfg = quickConfig();
    cfg.stateDir = dir;
    cfg.rotateBytes = 1;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    struct Committed
    {
        std::string job;
        std::uint64_t shard;
        std::string payload;
    };
    std::vector<Committed> committed;
    for (int j = 0; j < 3; ++j) {
        const std::string fp = "fp-fetch-" + std::to_string(j);
        ASSERT_EQ("job", ask(b, submitSeed(fp.c_str(), 40 + j)).type);
        for (int i = 0; i < 2; ++i) {
            const brk::Msg assign = ask(b, pullMsg("w1"));
            ASSERT_EQ("assign", assign.type);
            const srv::ShardResponse r =
                computeServer().handle(assign.args);
            ASSERT_EQ(0, r.status) << r.error;
            brk::Msg c;
            c.type = "commit";
            c.worker = "w1";
            c.lease = assign.lease;
            c.job = assign.job;
            c.shard = assign.shard;
            c.payload = r.payload;
            ASSERT_EQ(1u, ask(b, c).accepted);
            committed.push_back({assign.job, assign.shard, r.payload});
        }
    }
    // Start-up plus at least three rotations moved every early payload.
    EXPECT_GE(b.stats().journalCompactions, 4u);
    for (const Committed &c : committed) {
        const brk::Msg res = ask(b, fetchMsg(c.job, c.shard));
        ASSERT_EQ("result", res.type);
        EXPECT_EQ(c.payload, res.payload);
    }
    EXPECT_EQ(0u, b.stats().journalBadReads);
    b.stop();
}

TEST(Broker, OverwrittenCommitLineIsRequeuedNotServed)
{
    const std::string dir = tempDir("brk_bad_line");
    brk::BrokerConfig cfg = quickConfig();
    cfg.stateDir = dir;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    const brk::Msg job = ask(b, submitMsg("fp-bad-line", 1));
    ASSERT_EQ("job", job.type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    const srv::ShardResponse r = computeServer().handle(assign.args);
    ASSERT_EQ(0, r.status) << r.error;
    brk::Msg c;
    c.type = "commit";
    c.worker = "w1";
    c.lease = assign.lease;
    c.job = assign.job;
    c.shard = assign.shard;
    c.payload = r.payload;
    ASSERT_EQ(1u, ask(b, c).accepted);

    // Change one digit of the committed payload on disk, in place and
    // at the same length: the line still parses, its hash does not.
    const std::string path = brk::Broker::journalPath(dir);
    std::string text = readFileStr(path);
    const std::size_t line = text.find("\\\"commit\\\"");
    ASSERT_NE(std::string::npos, line) << text;
    const std::size_t rows = text.find("shot_begin", line);
    ASSERT_NE(std::string::npos, rows);
    const std::size_t digit =
        text.find_first_of("0123456789", rows);
    ASSERT_NE(std::string::npos, digit);
    text[digit] = text[digit] == '9' ? '8' : text[digit] + 1;
    ASSERT_TRUE(writeFileStr(path, text));

    // Neither version is served; the shard goes back to the queue.
    EXPECT_EQ("pending", ask(b, fetchMsg(job.job, 0)).type);
    EXPECT_EQ(1u, b.stats().journalBadReads);
    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    EXPECT_EQ(0u, ask(b, poll).complete);
    const brk::Msg again = ask(b, pullMsg("w2"));
    ASSERT_EQ("assign", again.type);
    EXPECT_EQ(assign.shard, again.shard);
    ASSERT_EQ(1u, computeAndCommit(b, again, "w2").accepted);
    const brk::Msg res = ask(b, fetchMsg(job.job, 0));
    ASSERT_EQ("result", res.type);
    EXPECT_EQ(r.payload, res.payload);
    EXPECT_EQ(1u, ask(b, poll).complete);
    b.stop();
}

// --- Long-poll waits ---------------------------------------------------

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** A broker whose parks can last 10 s, so "woken promptly" and "ran
 *  out its cap" are far apart. */
brk::BrokerConfig
waitConfig()
{
    brk::BrokerConfig cfg = quickConfig();
    cfg.workerDeadSec = 30.0;
    cfg.pollSec = 10.0;
    return cfg;
}

constexpr double kPark = 10.0;

TEST(BrokerWait, ParkedPullWakesWhenAJobIsSubmitted)
{
    brk::Broker b(waitConfig());
    const auto t0 = std::chrono::steady_clock::now();
    brk::Msg got;
    std::thread parked([&] {
        brk::Msg pull = pullMsg("w1");
        pull.pollSec = kPark;
        got = ask(b, pull);
    });
    sleepMs(100);
    ASSERT_EQ("job", ask(b, submitMsg("fp-wake-pull", 1)).type);
    parked.join();
    const double waited = secondsSince(t0);
    EXPECT_EQ("assign", got.type)
        << "the pull must park on the empty queue, not answer idle";
    EXPECT_LT(waited, 0.2 * kPark) << "woke after " << waited << " s";
    b.stop();
}

TEST(BrokerWait, ParkedPollWakesOnCommitAndStaleProgressAnswersAtOnce)
{
    brk::Broker b(waitConfig());
    const brk::Msg job = ask(b, submitMsg("fp-wake-poll", 2));
    ASSERT_EQ("job", job.type);
    EXPECT_GT(job.pollSec, 0.0);
    EXPECT_GT(job.deadSec, 0.0);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);

    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    poll.progress = 0; // nothing settled yet: park
    poll.pollSec = kPark;
    const auto t0 = std::chrono::steady_clock::now();
    brk::Msg st;
    std::thread parked([&] { st = ask(b, poll); });
    sleepMs(100);
    ASSERT_EQ(1u, computeAndCommit(b, assign, "w1").accepted);
    parked.join();
    const double waited = secondsSince(t0);
    ASSERT_EQ("status", st.type);
    EXPECT_EQ(1u, st.done.size())
        << "the poll must park until the commit lands";
    EXPECT_EQ(1u, st.progress);
    EXPECT_LT(waited, 0.2 * kPark) << "woke after " << waited << " s";

    // A stale progress value (the client saw less) answers at once.
    const auto t1 = std::chrono::steady_clock::now();
    const brk::Msg fresh = ask(b, poll);
    EXPECT_LT(secondsSince(t1), 0.1 * kPark);
    EXPECT_EQ(1u, fresh.done.size());
    EXPECT_EQ(1u, fresh.progress);
    b.stop();
}

TEST(BrokerWait, ZeroPollSecondsAnswersAtOnce)
{
    brk::Broker b(waitConfig());
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ("idle", ask(b, pullMsg("w1")).type);
    const brk::Msg job = ask(b, submitMsg("fp-no-park", 1));
    ASSERT_EQ("job", job.type);
    const brk::Msg assign = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", assign.type);
    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    const brk::Msg st = ask(b, poll); // progress 0 = current, no park
    EXPECT_EQ("status", st.type);
    EXPECT_EQ(0u, st.done.size());
    EXPECT_LT(secondsSince(t0), 0.1 * kPark);
    b.stop();
}

TEST(BrokerWait, ParkedIdlePullStillStealsAnOverdueLease)
{
    brk::BrokerConfig cfg = waitConfig();
    // Steal after 20x the median shard time; leases last 10 s, so
    // only the housekeeping tick can hand the stuck shard over.
    cfg.heartbeatSec = 5.0;
    cfg.stragglerFactor = 20.0;
    cfg.stragglerMinDone = 1;
    brk::Broker b(cfg);
    ASSERT_TRUE(b.start());
    ASSERT_EQ("job", ask(b, submitMsg("fp-park-steal", 2)).type);
    const brk::Msg a = ask(b, pullMsg("w1"));
    ASSERT_EQ("assign", a.type);
    ASSERT_EQ(1u, computeAndCommit(b, a, "w1").accepted);
    const brk::Msg stuck = ask(b, pullMsg("w2"));
    ASSERT_EQ("assign", stuck.type);

    const auto t0 = std::chrono::steady_clock::now();
    brk::Msg pull = pullMsg("w1");
    pull.pollSec = kPark;
    const brk::Msg spec = ask(b, pull);
    const double waited = secondsSince(t0);
    ASSERT_EQ("assign", spec.type)
        << "the parked pull must be woken for the steal";
    EXPECT_EQ(stuck.shard, spec.shard);
    EXPECT_EQ(1u, b.stats().speculativeAssignments);
    EXPECT_LT(waited, 0.5 * kPark) << "stole after " << waited << " s";
    ASSERT_EQ(1u, computeAndCommit(b, spec, "w1").accepted);
    EXPECT_EQ(1u, computeAndCommit(b, stuck, "w2").duplicate);
    EXPECT_EQ(0u, b.stats().duplicateMismatches);
    b.stop();
}

TEST(BrokerWait, StopReleasesParkedRequests)
{
    brk::Broker b(waitConfig());
    ASSERT_TRUE(b.start());
    const brk::Msg job = ask(b, submitMsg("fp-stop", 1));
    ASSERT_EQ("job", job.type);
    ASSERT_EQ("assign", ask(b, pullMsg("w1")).type); // queue now empty

    const auto t0 = std::chrono::steady_clock::now();
    double pullDone = 0.0, pollDone = 0.0;
    std::thread pullThread([&] {
        brk::Msg pull = pullMsg("w2");
        pull.pollSec = kPark;
        EXPECT_EQ("idle", ask(b, pull).type);
        pullDone = secondsSince(t0);
    });
    std::thread pollThread([&] {
        brk::Msg poll;
        poll.type = "poll";
        poll.job = job.job;
        poll.pollSec = kPark;
        EXPECT_EQ("status", ask(b, poll).type);
        pollDone = secondsSince(t0);
    });
    sleepMs(300);
    b.stop();
    pullThread.join();
    pollThread.join();
    // Both were parked until stop(), and stop() let them go at once.
    EXPECT_GE(pullDone, 0.25);
    EXPECT_GE(pollDone, 0.25);
    EXPECT_LT(pullDone, 0.2 * kPark);
    EXPECT_LT(pollDone, 0.2 * kPark);
}

// --- The socket plumbing -----------------------------------------------

/** Lines in /proc/self/maps: a finished but unjoined thread keeps its
 *  stack and guard page mapped. */
std::size_t
mappingCount()
{
    const std::string maps = readFileStr("/proc/self/maps");
    return static_cast<std::size_t>(
        std::count(maps.begin(), maps.end(), '\n'));
}

brk::Msg
registerMsg()
{
    brk::Msg m;
    m.type = "register";
    m.worker = "w1";
    return m;
}

TEST(BrokerSocket, FinishedConnectionThreadsAreJoined)
{
    const std::string dir = tempDir("brk_join");
    brk::BrokerConfig cfg = quickConfig();
    cfg.socketPath = dir + "/broker.sock";
    brk::Broker b(cfg);
    std::string err;
    ASSERT_TRUE(b.start(&err)) << err;
    brk::Msg resp;
    // Warm-up round trips fill the allocator's thread-stack cache.
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(brk::roundTrip(cfg.socketPath, registerMsg(), resp,
                                   &err))
            << err;
    const std::size_t before = mappingCount();
    for (int i = 0; i < 2000; ++i)
        ASSERT_TRUE(brk::roundTrip(cfg.socketPath, registerMsg(), resp,
                                   &err))
            << "round trip " << i << ": " << err;
    const std::size_t after = mappingCount();
    b.stop();
    EXPECT_LT(after, before + 100)
        << "2000 finished connections grew the mappings from " << before
        << " to " << after << " lines";
}

TEST(BrokerSocket, SilentConnectionIsClosedAndCounted)
{
    const std::string dir = tempDir("brk_idle");
    brk::BrokerConfig cfg = quickConfig();
    cfg.socketPath = dir + "/broker.sock";
    cfg.workerDeadSec = 0.2; // the idle deadline
    brk::Broker b(cfg);
    std::string err;
    ASSERT_TRUE(b.start(&err)) << err;

    // A normal round trip ends at the client's close, not the deadline.
    brk::Msg resp;
    ASSERT_TRUE(brk::roundTrip(cfg.socketPath, registerMsg(), resp,
                               &err))
        << err;

    const int fd = srv::connectUnix(cfg.socketPath, &err);
    ASSERT_GE(fd, 0) << err;
    timeval bound{};
    bound.tv_sec = 5; // the client's own bound on the wait
    ASSERT_EQ(0, ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &bound,
                              sizeof bound));
    const auto t0 = std::chrono::steady_clock::now();
    char byte = 0;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    ::close(fd);
    EXPECT_EQ(0, n) << "the broker must close a silent connection";
    EXPECT_LT(waited, 1.0) << "closed after " << waited << " s";

    EXPECT_EQ(1u, b.stats().transportTimeouts);
    EXPECT_NE(std::string::npos,
              b.statsJson().find("\"transport_timeouts\": 1,"));
    b.stop();
}

// --- The kill/steal/resume matrix end to end ---------------------------

#if defined(QRAMSIM_SHARD_BIN) && defined(QRAMSIM_DRIVE_BIN) && \
    defined(QRAMSIM_SERVER_BIN) && defined(QRAMSIM_BROKER_BIN)

const char kWorkload[] =
    " --arch bb --m 4 --noise gate-depol --eps 2e-3 --shots 48 "
    "--seed 2023 --factors 0.5,1,2";

/**
 * A background process the test owns: forked here and exec'd through
 * `sh -c 'exec CMD > LOG 2>&1'` (the shell only applies the redirect,
 * then becomes CMD under the same pid; env prefixes go through
 * `env`). wait() reaps it with waitpid, so no wait ever watches a
 * zombie, and scope exit kills and reaps whatever is still running.
 */
class Child
{
  public:
    Child(const std::string &cmd, const std::string &log)
    {
        const std::string line = "exec " + cmd + " > " + log + " 2>&1";
        pid_ = ::fork();
        if (pid_ == 0) {
            ::execl("/bin/sh", "sh", "-c", line.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
        EXPECT_GT(pid_, 0) << "fork failed for: " << cmd;
    }

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    ~Child()
    {
        signal(SIGKILL);
        wait();
    }

    /** Send @p sig; a no-op once the child is reaped. */
    void
    signal(int sig)
    {
        if (pid_ > 0)
            ::kill(pid_, sig);
    }

    /** Reap the child: its exit code, or 128 + the killing signal. */
    int
    wait()
    {
        if (pid_ > 0) {
            int st = 0;
            while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
            }
            pid_ = -1;
            code_ = WIFEXITED(st) ? WEXITSTATUS(st)
                                  : 128 + WTERMSIG(st);
        }
        return code_;
    }

  private:
    pid_t pid_ = -1;
    int code_ = -1;
};

bool
waitSocket(const std::string &sock)
{
    for (int i = 0; i < 250; ++i) {
        const int fd = srv::connectUnix(sock);
        if (fd >= 0) {
            ::close(fd);
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
}

std::string
waitStats(const std::string &dir)
{
    for (int i = 0; i < 250; ++i) {
        const std::string stats = readFileStr(dir + "/stats.json");
        if (!stats.empty())
            return stats;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return "";
}

TEST(BrokerCli, DriveBrokerIsByteIdenticalToForkExec)
{
    const std::string dir = tempDir("brkcli_basic");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 6";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));
    const std::string ref = readFileStr(dir + "/ref/result.json");
    ASSERT_FALSE(ref.empty());

    const std::string sock = dir + "/broker.sock";
    Child broker(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock +
                     " --state " + dir + "/state --heartbeat 0.2" +
                     " --stats-out " + dir + "/stats.json",
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    Child w2(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w2",
             dir + "/w2.log");

    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/brokered" +
                        " --broker " + sock + kWorkload +
                        " > /dev/null 2>&1"));
    EXPECT_EQ(ref, readFileStr(dir + "/brokered/result.json"));
    const std::string report =
        readFileStr(dir + "/brokered/report.json");
    EXPECT_NE(std::string::npos,
              report.find("\"broker_shards\": 6"));
    EXPECT_NE(std::string::npos,
              report.find("\"broker_transport_failures\": 0"));

    w1.signal(SIGTERM);
    w2.signal(SIGTERM);
    broker.signal(SIGTERM);
    const std::string stats = waitStats(dir);
    EXPECT_NE(std::string::npos,
              stats.find("\"commits_accepted\": 6"))
        << stats;
    EXPECT_NE(std::string::npos,
              stats.find("\"duplicate_mismatches\": 0"));
}

TEST(BrokerCli, MissingBrokerFallsBackWithoutBurningRetries)
{
    const std::string dir = tempDir("brkcli_fallback");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/fallback" +
                        " --broker " + dir + "/never-existed.sock" +
                        kWorkload + " > /dev/null 2>&1"));
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/fallback/result.json"));
    const std::string report =
        readFileStr(dir + "/fallback/report.json");
    EXPECT_EQ(std::string::npos,
              report.find("\"broker_transport_failures\": 0"))
        << "the fallback must be visible in the report: " << report;
    EXPECT_NE(std::string::npos, report.find("\"retries\": 0"))
        << "a dead broker must not burn worker retries: " << report;
}

TEST(BrokerCli, AdaptiveJobIsNotAnsweredByItsReplayTwin)
{
    // Same workload and seed, different estimate mode: the brokered
    // --adaptive job must compute its own answer, not resume the
    // finished Replay job (the job identity carries the mode).
    const std::string dir = tempDir("brkcli_adaptive");
    const std::string adaptive = std::string(kWorkload) + " --adaptive";
    ASSERT_EQ(0, shCode(std::string(QRAMSIM_DRIVE_BIN) +
                        " --in-process --shards 4 --job " + dir +
                        "/ref" + adaptive + " > /dev/null 2>&1"));
    const std::string ref = readFileStr(dir + "/ref/result.json");
    ASSERT_FALSE(ref.empty());

    const std::string sock = dir + "/broker.sock";
    Child broker(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock +
                     " --heartbeat 0.2",
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) + " --worker-bin " +
        QRAMSIM_SHARD_BIN + " --shards 4 --broker " + sock;
    const int replayRc = shCode(drive + " --job " + dir + "/replay" +
                                kWorkload + " > /dev/null 2>&1");
    const int adaptiveRc = shCode(drive + " --job " + dir +
                                  "/adaptive" + adaptive +
                                  " > /dev/null 2>&1");
    w1.signal(SIGTERM);
    broker.signal(SIGTERM);
    ASSERT_EQ(0, replayRc);
    ASSERT_EQ(0, adaptiveRc);

    EXPECT_EQ(ref, readFileStr(dir + "/adaptive/result.json"));
    EXPECT_NE(readFileStr(dir + "/replay/result.json"), ref);
    const std::string report =
        readFileStr(dir + "/adaptive/report.json");
    EXPECT_NE(std::string::npos, report.find("\"broker_shards\": 4"))
        << report;
    EXPECT_NE(std::string::npos,
              report.find("\"broker_transport_failures\": 0"))
        << report;
}

TEST(BrokerCli, KilledWorkerIsStolenByteIdentically)
{
    const std::string dir = tempDir("brkcli_steal");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));

    const std::string sock = dir + "/broker.sock";
    Child broker(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock +
                     " --state " + dir + "/state --heartbeat 0.2" +
                     " --stats-out " + dir + "/stats.json",
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    // ONLY the doomed worker at first: it must win shard 0 (global
    // shot 0), SIGKILL itself holding the lease, and leave the
    // broker to declare it dead and steal the shard back.
    Child w1("env QRAMSIM_FAULT=kill-on-pull:0 QRAMSIM_FAULT_MARK=" + dir +
                 "/mark " QRAMSIM_SERVER_BIN " --broker " + sock +
                 " --name doomed",
             dir + "/w1.log");
    Child client(drive + " --job " + dir + "/stolen --broker " + sock +
                     kWorkload,
                 dir + "/drive.log");
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    Child w2(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name rescuer",
             dir + "/w2.log");
    ASSERT_EQ(0, client.wait());
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/stolen/result.json"));

    w2.signal(SIGTERM);
    broker.signal(SIGTERM);
    const std::string stats = waitStats(dir);
    EXPECT_EQ(std::string::npos, stats.find("\"steals\": 0"))
        << "the kill must surface as a steal: " << stats;
    EXPECT_EQ(std::string::npos, stats.find("\"dead_workers\": 0"))
        << stats;
    EXPECT_NE(std::string::npos,
              stats.find("\"duplicate_mismatches\": 0"))
        << stats;
}

TEST(BrokerCli, SigkilledBrokerResumesFromJournalByteIdentically)
{
    const std::string dir = tempDir("brkcli_resume");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 6";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));

    const std::string sock = dir + "/broker.sock";
    const std::string bcmd = std::string(QRAMSIM_BROKER_BIN) +
                             " --socket " + sock + " --state " + dir +
                             "/state --heartbeat 0.2";
    Child broker(bcmd, dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    // First run seeds the journal (some or all shards commit), then
    // the broker is SIGKILLed — the torn-crash shape.
    Child client(drive + " --job " + dir + "/resumed --broker " + sock +
                     " --broker-stall 30" + kWorkload,
                 dir + "/drive.log");
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    broker.signal(SIGKILL);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_FALSE(
        readFileStr(brk::Broker::journalPath(dir + "/state"))
            .empty())
        << "the journal must survive the SIGKILL";
    // Restart with --resume: replay, re-adopt the live worker, and
    // finish every in-flight job.
    Child broker2(bcmd + " --resume --stats-out " + dir + "/stats.json",
                  dir + "/broker2.log");
    ASSERT_TRUE(waitSocket(sock));
    ASSERT_EQ(0, client.wait());
    // Whether the drive streamed everything from the broker or fell
    // back for the tail, the merged result must not change.
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/resumed/result.json"));

    w1.signal(SIGTERM);
    broker2.signal(SIGTERM);
    EXPECT_NE(std::string::npos,
              waitStats(dir).find("\"duplicate_mismatches\": 0"));
}

TEST(BrokerCli, JournalTruncateFaultTearsKillsAndRecovers)
{
    const std::string dir = tempDir("brkcli_torn");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));

    const std::string sock = dir + "/broker.sock";
    // journal-truncate:0 — the broker writes HALF of the journal
    // line committing the shard that covers global shot 0, fsyncs,
    // and SIGKILLs itself. The deterministic power-loss drill.
    Child broker("env QRAMSIM_FAULT=journal-truncate:0 QRAMSIM_FAULT_MARK=" +
                     dir + "/mark " QRAMSIM_BROKER_BIN " --socket " +
                     sock + " --state " + dir + "/state --heartbeat 0.2",
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    Child client(drive + " --job " + dir + "/torn --broker " + sock +
                     " --broker-stall 30" + kWorkload,
                 dir + "/drive.log");
    // The fault fires on the doomed commit and kills the broker.
    EXPECT_EQ(128 + SIGKILL, broker.wait());
    Child broker2(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock +
                      " --state " + dir + "/state --heartbeat 0.2 " +
                      "--resume --stats-out " + dir + "/stats.json",
                  dir + "/broker2.log");
    ASSERT_TRUE(waitSocket(sock));
    ASSERT_EQ(0, client.wait());
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/torn/result.json"));
    w1.signal(SIGTERM);
    broker2.signal(SIGTERM);
    const std::string stats = waitStats(dir);
    // The torn line was dropped on replay (its shard recomputed);
    // nothing may have diverged.
    EXPECT_EQ(std::string::npos,
              stats.find("\"journal_dropped_entries\": 0"))
        << stats;
    EXPECT_NE(std::string::npos,
              stats.find("\"duplicate_mismatches\": 0"))
        << stats;
}

/** Block until the broker under @p stateDir has journaled a job. */
bool
waitJournaled(const std::string &stateDir)
{
    for (int i = 0; i < 250; ++i) {
        if (!readFileStr(brk::Broker::journalPath(stateDir)).empty())
            return true;
        sleepMs(20);
    }
    return false;
}

TEST(BrokerCli, ParkedDriveRidesOutABrokerRestartInsideTheWindow)
{
    const std::string dir = tempDir("brkcli_ride");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));

    // Default heartbeat: the drive re-polls a lost broker for 3 s.
    const std::string sock = dir + "/broker.sock";
    const std::string bcmd = std::string(QRAMSIM_BROKER_BIN) +
                             " --socket " + sock + " --state " + dir +
                             "/state";
    Child broker(bcmd, dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    // No worker yet: the job is journaled and the drive parks in poll.
    Child client(drive + " --job " + dir + "/ride --broker " + sock +
                     kWorkload,
                 dir + "/drive.log");
    ASSERT_TRUE(waitJournaled(dir + "/state"));
    sleepMs(200);
    broker.signal(SIGKILL);
    sleepMs(300); // an outage no poll can slip past
    Child broker2(bcmd + " --resume --stats-out " + dir + "/stats.json",
                  dir + "/broker2.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    ASSERT_EQ(0, client.wait());
    w1.signal(SIGTERM);
    broker2.signal(SIGTERM);

    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/ride/result.json"));
    const std::string report = readFileStr(dir + "/ride/report.json");
    EXPECT_NE(std::string::npos, report.find("\"broker_shards\": 4"))
        << "the restarted broker must serve every shard: " << report;
    EXPECT_NE(std::string::npos,
              report.find("\"broker_transport_failures\": 0"))
        << report;
    EXPECT_NE(std::string::npos,
              waitStats(dir).find("\"commits_accepted\": 4"));
}

TEST(BrokerCli, BrokerGoneForGoodFallsBackAfterTheWindow)
{
    const std::string dir = tempDir("brkcli_gone");
    const std::string drive =
        std::string(QRAMSIM_DRIVE_BIN) +
        " --worker-bin " QRAMSIM_SHARD_BIN " --shards 4";
    ASSERT_EQ(0, shCode(drive + " --job " + dir + "/ref" + kWorkload +
                        " > /dev/null 2>&1"));

    // --heartbeat 0.2: a 0.6 s window before the fork/exec fallback.
    const std::string sock = dir + "/broker.sock";
    Child broker(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock +
                     " --state " + dir + "/state --heartbeat 0.2",
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child client(drive + " --job " + dir + "/gone --broker " + sock +
                     kWorkload,
                 dir + "/drive.log");
    ASSERT_TRUE(waitJournaled(dir + "/state"));
    sleepMs(200);
    broker.signal(SIGKILL);
    ASSERT_EQ(0, client.wait());

    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/gone/result.json"));
    const std::string report = readFileStr(dir + "/gone/report.json");
    EXPECT_NE(std::string::npos, report.find("\"broker_shards\": 0"))
        << report;
    EXPECT_EQ(std::string::npos,
              report.find("\"broker_transport_failures\": 0"))
        << "the fallback must be visible in the report: " << report;
}

TEST(BrokerCli, OneWorkerDrainsManyShardsWithoutPerShardWaits)
{
    // 64 one-shot shards through one worker. Each costs well under a
    // millisecond of compute; a worker that waited out a heartbeat
    // sleep slice (25-50 ms) after every commit, or re-pulled on a
    // 50 ms tick, could not finish inside the bound.
    const std::string dir = tempDir("brkcli_many");
    const char many[] = " --arch bb --m 4 --noise gate-depol --eps 2e-3 "
                        "--shots 64 --seed 5 --shards 64";
    const std::string drive = std::string(QRAMSIM_DRIVE_BIN) +
                              " --worker-bin " QRAMSIM_SHARD_BIN;
    ASSERT_EQ(0, shCode(drive + " --workers 4 --job " + dir + "/ref" +
                        many + " > /dev/null 2>&1"));

    const std::string sock = dir + "/broker.sock";
    Child broker(std::string(QRAMSIM_BROKER_BIN) + " --socket " + sock,
                 dir + "/broker.log");
    ASSERT_TRUE(waitSocket(sock));
    Child w1(std::string(QRAMSIM_SERVER_BIN) + " --broker " + sock +
                 " --name w1",
             dir + "/w1.log");
    bool pulling = false;
    for (int i = 0; i < 250 && !pulling; ++i) {
        pulling = readFileStr(dir + "/w1.log").find("pulling") !=
                  std::string::npos;
        if (!pulling)
            sleepMs(20);
    }
    ASSERT_TRUE(pulling);

    const auto t0 = std::chrono::steady_clock::now();
    const int rc = shCode(drive + " --job " + dir + "/many --broker " +
                          sock + many + " > /dev/null 2>&1");
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    w1.signal(SIGTERM);
    broker.signal(SIGTERM);
    ASSERT_EQ(0, rc);
    EXPECT_EQ(readFileStr(dir + "/ref/result.json"),
              readFileStr(dir + "/many/result.json"));
    EXPECT_NE(std::string::npos,
              readFileStr(dir + "/many/report.json")
                  .find("\"broker_shards\": 64"));
    EXPECT_LT(wall, 1.2) << "64 brokered shards took " << wall << " s";
}

#endif // tool binaries available

} // namespace
} // namespace qramsim
