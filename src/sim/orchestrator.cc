#include "sim/orchestrator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/atomicfile.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace qramsim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

const char *
stateName(bool done, bool failed)
{
    return done ? "done" : failed ? "failed" : "pending";
}

} // namespace

ExitClass
classifyWaitStatus(int status)
{
    if (WIFSIGNALED(status)) {
        return {WorkerOutcome::Retryable,
                "killed by signal " +
                    std::to_string(WTERMSIG(status))};
    }
    if (!WIFEXITED(status))
        return {WorkerOutcome::Retryable, "abnormal wait status"};
    return classifyExitCode(WEXITSTATUS(status));
}

ExitClass
classifyExitCode(int code)
{
    if (code == kToolExitOk)
        return {WorkerOutcome::Success, "exit code 0"};
    const std::string detail = "exit code " + std::to_string(code);
    if (code == kToolExitUsage || code == kToolExitRuntime)
        return {WorkerOutcome::Permanent, detail};
    // kToolExitIo, kToolExitFault, exec failures (127), and anything
    // unrecognized: give the shard another chance.
    return {WorkerOutcome::Retryable, detail};
}

double
backoffDelayMs(const RetryPolicy &policy, std::uint64_t seed,
               std::size_t shard, unsigned attempt)
{
    QRAMSIM_ASSERT(attempt >= 1, "backoff of a zeroth attempt");
    double base = policy.backoffBaseMs;
    // A non-growing factor (<= 1) or a zero base would make the loop
    // below spin `attempt` times without ever reaching the cap —
    // with attempt counts near UINT_MAX that is billions of useless
    // iterations for an answer that is just baseMs. Only grow when
    // growth can terminate the loop.
    if (policy.backoffFactor > 1.0 && base > 0.0)
        for (unsigned k = 1; k < attempt && base < policy.backoffMaxMs;
             ++k)
            base *= policy.backoffFactor;
    base = std::min(base, policy.backoffMaxMs);
    // Deterministic jitter: the schedule is a pure function of
    // (seed, shard, attempt), so recovery runs replay exactly.
    CounterRng rng(seed ^ 0x6f72636862616b6full,
                   static_cast<std::uint64_t>(shard) * 131 + attempt);
    const double jitter =
        1.0 + policy.jitterFrac * (rng.uniform() - 0.5);
    return std::max(0.0, base * jitter);
}

// --- JobManifest -------------------------------------------------------

std::string
JobManifest::toJson() const
{
    std::string s;
    s += "{\n  \"qramsim_job\": 1,\n  \"workload\": ";
    json::appendEscaped(s, workload);
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  ",\n  \"total_shots\": %zu,\n  \"seed\": %llu,\n"
                  "  \"stream\": \"%s\",\n  \"num_shards\": %zu,\n",
                  totalShots, static_cast<unsigned long long>(seed),
                  shotStreamName(stream), numShards);
    s += buf;
    s += "  \"factors\": ";
    json::appendDoubleArray(s, factors);
    s += ",\n  \"attempts\": ";
    json::appendDoubleArray(s, attempts);
    s += ",\n  \"speculative\": ";
    json::appendDoubleArray(s, speculative);
    s += ",\n  \"state\": ";
    json::appendStringArray(s, state);
    s += "\n}\n";
    return s;
}

bool
JobManifest::fromJson(const std::string &text, JobManifest &out,
                      std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    out = JobManifest{};
    json::Cursor c(text);
    if (!c.consume('{'))
        return fail("not a JSON object");
    bool sawMagic = false;
    std::uint64_t u = 0;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return fail(c.err.empty() ? "expected key" : c.err);
            bool ok = true;
            if (key == "qramsim_job") {
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "workload") {
                ok = c.parseString(out.workload);
            } else if (key == "total_shots") {
                ok = c.parseU64(u);
                out.totalShots = u;
            } else if (key == "seed") {
                ok = c.parseU64(out.seed);
            } else if (key == "stream") {
                std::string name;
                ok = c.parseString(name) &&
                     parseShotStream(name, out.stream);
                if (!ok)
                    return fail("unknown stream kind");
            } else if (key == "num_shards") {
                ok = c.parseU64(u);
                out.numShards = u;
            } else if (key == "factors") {
                ok = c.parseDoubleArray(out.factors);
            } else if (key == "attempts") {
                ok = c.parseDoubleArray(out.attempts);
            } else if (key == "speculative") {
                ok = c.parseDoubleArray(out.speculative);
            } else if (key == "state") {
                ok = c.parseStringArray(out.state);
            } else {
                ok = c.skipValue();
            }
            if (!ok)
                return fail(c.err.empty() ? "bad value for " + key
                                          : c.err);
            if (c.consume('}'))
                break;
            if (!c.consume(','))
                return fail("expected ',' or '}'");
        }
    }
    if (!sawMagic)
        return fail("missing qramsim_job marker");
    if (out.numShards == 0)
        return fail("num_shards must be positive");
    const std::size_t n = out.attempts.size();
    if (out.speculative.size() != n || out.state.size() != n)
        return fail("per-shard arrays disagree in length");
    for (const std::string &s : out.state)
        if (s != "pending" && s != "done" && s != "failed")
            return fail("unknown shard state '" + s + "'");
    for (double a : out.attempts)
        if (!(a >= 0.0) || a != std::floor(a))
            return fail("attempt counters must be whole numbers");
    return true;
}

// --- DriveReport -------------------------------------------------------

std::string
DriveReport::toJson() const
{
    std::string s;
    s += "{\n  \"qramsim_job_report\": 1,\n";
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "  \"complete\": %s,\n  \"launched\": %zu,\n"
        "  \"retries\": %zu,\n  \"timeouts\": %zu,\n"
        "  \"speculative\": %zu,\n  \"duplicate_matches\": %zu,\n"
        "  \"duplicate_mismatches\": %zu,\n"
        "  \"resumed_shards\": %zu,\n"
        "  \"broker_shards\": %zu,\n"
        "  \"broker_transport_failures\": %zu,\n",
        complete ? "true" : "false", launched, retries, timeouts,
        speculativeLaunches, duplicateMatches, duplicateMismatches,
        resumedShards, brokerShards, brokerTransportFailures);
    s += buf;
    s += "  \"missing\": [";
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(missing[i]);
    }
    s += "],\n  \"shards\": [\n";
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const ShardOutcome &o = shards[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"index\": %zu, \"attempts\": %u, "
                      "\"speculative\": %u, \"done\": %s, "
                      "\"resumed\": %s, \"seconds\": ",
                      o.index, o.attempts, o.speculative,
                      o.done ? "true" : "false",
                      o.resumed ? "true" : "false");
        s += buf;
        json::appendDouble(s, o.seconds);
        s += ", \"setup_seconds\": ";
        json::appendDouble(s, o.setupSeconds);
        s += ", \"compute_seconds\": ";
        json::appendDouble(s, o.computeSeconds);
        s += ", \"last_error\": ";
        json::appendEscaped(s, o.lastError);
        s += '}';
        if (i + 1 < shards.size())
            s += ',';
        s += '\n';
    }
    s += "  ],\n  \"error\": ";
    json::appendEscaped(s, error);
    s += "\n}\n";
    return s;
}

// --- Orchestrator ------------------------------------------------------

Orchestrator::Orchestrator(OrchestratorConfig cfg_)
    : cfg(std::move(cfg_))
{}

std::string
Orchestrator::checkpointPath(const std::string &jobDir,
                             std::size_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "/shard-%03zu.json", shard);
    return jobDir + buf;
}

std::string
Orchestrator::manifestPath(const std::string &jobDir)
{
    return jobDir + "/manifest.json";
}

bool
Orchestrator::loadCheckpoint(const std::string &path,
                             const ShardSpec &spec,
                             PartialEstimate &out, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    std::string text;
    if (!readFile(path, text))
        return fail("cannot read " + path);
    std::string parseErr;
    if (!PartialEstimate::fromJson(text, out, &parseErr))
        return fail(parseErr);
    if (out.shotBegin != spec.shotBegin ||
        out.shotEnd != spec.shotEnd)
        return fail("checkpoint covers the wrong shot range");
    if (out.totalShots != spec.totalShots || out.seed != spec.seed ||
        out.stream != spec.stream || out.factors != spec.factors)
        return fail("checkpoint belongs to a different plan");
    if (out.sampler != kSamplerVersion)
        return fail("checkpoint was drawn by sampler version " +
                    std::to_string(out.sampler));
    return true;
}

namespace {

/** Book-keeping of one live worker subprocess. */
struct LiveAttempt
{
    pid_t pid = -1;
    int pidfd = -1; ///< readable once pid exits; -1: seen on the tick
    std::size_t shard = 0;
    bool speculative = false;
    Clock::time_point start;
    std::string outPath;
};

/** A close-on-exec pidfd for @p pid, or -1 when the kernel has none. */
int
openPidfd(pid_t pid)
{
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

void
closePidfd(LiveAttempt &att)
{
    if (att.pidfd >= 0)
        ::close(att.pidfd);
    att.pidfd = -1;
}

/**
 * Sleep until some live attempt's worker exits or @p ms pass. The
 * event loop's deadline, straggler and backoff checks still run once
 * per @p ms; only a child's exit is seen at once.
 */
void
waitForExit(const std::vector<LiveAttempt> &live, double ms)
{
    std::vector<pollfd> fds;
    for (const LiveAttempt &att : live)
        if (att.pidfd >= 0)
            fds.push_back({att.pidfd, POLLIN, 0});
    const double sec = std::max(0.0, ms) / 1e3;
    timespec ts;
    ts.tv_sec = static_cast<time_t>(sec);
    ts.tv_nsec = static_cast<long>((sec - ts.tv_sec) * 1e9);
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
}

/** Mutable per-shard tracking of the event loop. */
struct Track
{
    bool done = false;
    bool failed = false;
    bool resumed = false;
    unsigned attempts = 0;    ///< cumulative (resume carries over)
    unsigned speculative = 0; ///< cumulative duplicate launches
    double seconds = 0.0;
    std::string lastError;
    Clock::time_point eligible; ///< earliest next launch
    int running = 0;            ///< live attempts (primary + dup)
};

} // namespace

// The speculative-duplicate integrity check (exported — the broker
// reuses it for every stolen/duplicated shard commit). Timing keys
// are observability metadata two byte-identical computations
// legitimately disagree on, so equality is judged on the partials
// with setup/compute zeroed; everything else must match to the byte.
bool
equivalentPartials(const std::string &a, const std::string &b)
{
    if (a == b)
        return true;
    PartialEstimate pa, pb;
    if (!PartialEstimate::fromJson(a, pa) ||
        !PartialEstimate::fromJson(b, pb))
        return false;
    pa.setupSeconds = pa.computeSeconds = 0.0;
    pb.setupSeconds = pb.computeSeconds = 0.0;
    return pa.toJson() == pb.toJson();
}

DriveReport
Orchestrator::run()
{
    DriveReport report;
    report.brokerShards = cfg.brokerShards;
    report.brokerTransportFailures = cfg.brokerTransportFailures;
    const std::size_t n = cfg.plan.shards.size();
    const std::string maniPath = manifestPath(cfg.jobDir);

    auto fatal = [&](const std::string &msg) {
        report.error = msg;
        return report;
    };
    if (cfg.jobDir.empty())
        return fatal("no job directory configured");
    if (!makeDirs(cfg.jobDir) || !makeDirs(cfg.jobDir + "/tmp") ||
        !makeDirs(cfg.jobDir + "/logs"))
        return fatal("cannot create job directory " + cfg.jobDir);

    // One canonical workload string: resume refuses a manifest from a
    // different command line instead of merging mixed partials.
    std::string workload;
    for (const std::string &a : cfg.workloadArgs) {
        if (!workload.empty())
            workload += ' ';
        workload += a;
    }

    JobManifest mani;
    mani.workload = workload;
    mani.totalShots = cfg.plan.totalShots;
    mani.seed = cfg.plan.seed;
    mani.stream = n ? cfg.plan.shards[0].stream : ShotStream::Counter;
    mani.factors = cfg.plan.factors;
    mani.numShards = cfg.requestedShards;
    mani.attempts.assign(n, 0.0);
    mani.speculative.assign(n, 0.0);
    mani.state.assign(n, "pending");

    std::vector<Track> tracks(n);
    if (cfg.resume) {
        std::string text, err;
        JobManifest prev;
        if (readFile(maniPath, text)) {
            if (!JobManifest::fromJson(text, prev, &err))
                return fatal("cannot resume: manifest unreadable (" +
                             err + ")");
            if (prev.workload != mani.workload ||
                prev.totalShots != mani.totalShots ||
                prev.seed != mani.seed ||
                prev.stream != mani.stream ||
                prev.factors != mani.factors ||
                prev.numShards != mani.numShards ||
                prev.attempts.size() != n)
                return fatal(
                    "cannot resume: the job directory belongs to a "
                    "different workload or plan");
            // Attempt counters are cumulative across resumes; states
            // are re-derived from the checkpoints below (a manifest
            // can be stale if the orchestrator itself was killed).
            for (std::size_t i = 0; i < n; ++i) {
                tracks[i].attempts =
                    static_cast<unsigned>(prev.attempts[i]);
                tracks[i].speculative =
                    static_cast<unsigned>(prev.speculative[i]);
                mani.attempts[i] = prev.attempts[i];
                mani.speculative[i] = prev.speculative[i];
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            PartialEstimate part;
            std::string ckErr;
            if (loadCheckpoint(checkpointPath(cfg.jobDir, i),
                               cfg.plan.shards[i], part, &ckErr)) {
                tracks[i].done = true;
                tracks[i].resumed = true;
                mani.state[i] = "done";
                ++report.resumedShards;
            }
        }
    }

    auto persistManifest = [&]() {
        for (std::size_t i = 0; i < n; ++i) {
            mani.attempts[i] = tracks[i].attempts;
            mani.speculative[i] = tracks[i].speculative;
            mani.state[i] =
                stateName(tracks[i].done, tracks[i].failed);
        }
        std::string err;
        if (!atomicWriteFile(maniPath, mani.toJson(), &err))
            std::fprintf(stderr, "warning: %s\n", err.c_str());
    };
    persistManifest();

    const bool inProcess = cfg.workerBin.empty();
    if (inProcess && !cfg.inlineRunner)
        return fatal("in-process mode needs an inlineRunner");

    auto commitCheckpoint = [&](std::size_t shard,
                                const std::string &tmpPath,
                                std::string *why) -> bool {
        PartialEstimate part;
        if (!loadCheckpoint(tmpPath, cfg.plan.shards[shard], part,
                            why))
            return false;
        const std::string ckPath = checkpointPath(cfg.jobDir, shard);
        if (::rename(tmpPath.c_str(), ckPath.c_str()) != 0) {
            if (why)
                *why = "cannot rename " + tmpPath + " over " + ckPath;
            return false;
        }
        return true;
    };

    if (inProcess) {
        // Sequential pool-lane execution: same checkpoint/resume and
        // bounded-retry semantics, no subprocess machinery (deadlines
        // and speculation need a killable worker).
        for (std::size_t i = 0; i < n; ++i) {
            Track &t = tracks[i];
            // Exhaustion is judged on cumulative attempts, but every
            // run() grants at least one try — a resumed job retries
            // shards that ran out last time (same rule the
            // subprocess path applies by only checking after a
            // failure).
            const unsigned priorAttempts = t.attempts;
            while (!t.done && !t.failed) {
                if (t.attempts >= cfg.retry.maxAttempts &&
                    t.attempts > priorAttempts) {
                    t.failed = true;
                    break;
                }
                if (t.attempts > 0) {
                    const double ms = backoffDelayMs(
                        cfg.retry, cfg.plan.seed, i, t.attempts);
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            ms));
                    ++report.retries;
                }
                ++t.attempts;
                ++report.launched;
                persistManifest();
                const Clock::time_point start = Clock::now();
                try {
                    PartialEstimate part =
                        cfg.inlineRunner(cfg.plan.shards[i]);
                    std::string err;
                    if (!atomicWriteFile(
                            checkpointPath(cfg.jobDir, i),
                            part.toJson(), &err)) {
                        t.lastError = err;
                        continue;
                    }
                    t.done = true;
                    t.seconds = secondsSince(start, Clock::now());
                } catch (const std::exception &e) {
                    t.lastError = e.what();
                }
                persistManifest();
            }
            persistManifest();
        }
    } else {
        // --- Subprocess event loop ---------------------------------
        std::vector<LiveAttempt> live;
        std::vector<double> doneDurations;
        const unsigned slots = std::max(1u, cfg.workers);

        auto launch = [&](std::size_t shard, bool speculative) {
            Track &t = tracks[shard];
            const unsigned attemptNo =
                speculative ? ++t.speculative : ++t.attempts;
            char suffix[64];
            std::snprintf(suffix, sizeof suffix,
                          "/shard-%03zu.%s%u", shard,
                          speculative ? "dup" : "attempt",
                          attemptNo);
            const std::string outPath =
                cfg.jobDir + "/tmp" + suffix + ".json";
            const std::string logPath =
                cfg.jobDir + "/logs" + suffix + ".log";
            std::remove(outPath.c_str());

            std::vector<std::string> args;
            args.push_back(cfg.workerBin);
            args.push_back("run");
            for (const std::string &a : cfg.workloadArgs)
                args.push_back(a);
            args.push_back("--shard");
            args.push_back(std::to_string(shard) + "/" +
                           std::to_string(cfg.requestedShards));
            args.push_back("--out");
            args.push_back(outPath);

            const pid_t pid = ::fork();
            if (pid == 0) {
                const int fd =
                    ::open(logPath.c_str(),
                           O_CREAT | O_WRONLY | O_APPEND, 0644);
                if (fd >= 0) {
                    ::dup2(fd, 1);
                    ::dup2(fd, 2);
                    ::close(fd);
                }
                std::vector<char *> argv;
                argv.reserve(args.size() + 1);
                for (std::string &a : args)
                    argv.push_back(a.data());
                argv.push_back(nullptr);
                ::execv(argv[0], argv.data());
                std::_Exit(127); // exec failed; classified retryable
            }
            if (pid < 0) {
                // fork failure: count the attempt as failed so the
                // retry/backoff machinery handles resource pressure.
                t.lastError = "fork failed";
                if (!speculative)
                    t.eligible =
                        Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double,
                                                  std::milli>(
                                backoffDelayMs(cfg.retry,
                                               cfg.plan.seed, shard,
                                               t.attempts)));
                return;
            }
            ++report.launched;
            if (speculative)
                ++report.speculativeLaunches;
            ++t.running;
            LiveAttempt att;
            att.pid = pid;
            att.pidfd = openPidfd(pid);
            att.shard = shard;
            att.speculative = speculative;
            att.start = Clock::now();
            att.outPath = outPath;
            live.push_back(std::move(att));
            persistManifest();
        };

        auto handleFinished = [&](const LiveAttempt &att,
                                  const ExitClass &cls) {
            Track &t = tracks[att.shard];
            --t.running;
            const double age = secondsSince(att.start, Clock::now());
            std::string why;
            if (cls.outcome == WorkerOutcome::Success) {
                if (t.done) {
                    // Speculation race already settled: cross-check
                    // the duplicate against the committed checkpoint
                    // before discarding it. equivalentPartials is
                    // byte-for-byte on everything but the reported
                    // wall-clock timing (which legitimately differs
                    // between attempts).
                    std::string a, b;
                    if (readFile(att.outPath, a) &&
                        readFile(
                            checkpointPath(cfg.jobDir, att.shard),
                            b) &&
                        equivalentPartials(a, b))
                        ++report.duplicateMatches;
                    else
                        ++report.duplicateMismatches;
                    std::remove(att.outPath.c_str());
                    return;
                }
                if (commitCheckpoint(att.shard, att.outPath, &why)) {
                    t.done = true;
                    t.seconds = age;
                    doneDurations.push_back(age);
                    persistManifest();
                    return;
                }
                // Exit 0 but unusable output (truncated/corrupt/
                // missing partial): a retryable lie.
                std::remove(att.outPath.c_str());
                why = "invalid worker output: " + why;
            } else {
                why = cls.detail;
            }
            std::remove(att.outPath.c_str());
            if (att.speculative) {
                // A failed duplicate never hurts the primary track.
                return;
            }
            t.lastError = why;
            if (cls.outcome == WorkerOutcome::Permanent) {
                t.failed = true;
            } else if (t.attempts >= cfg.retry.maxAttempts) {
                t.failed = true;
                t.lastError += " (attempts exhausted)";
            } else {
                ++report.retries;
                const double ms = backoffDelayMs(
                    cfg.retry, cfg.plan.seed, att.shard, t.attempts);
                t.eligible =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            ms));
            }
            persistManifest();
        };

        for (;;) {
            // Reap finished workers, per known pid (never steal other
            // children of the embedding process).
            for (std::size_t i = 0; i < live.size();) {
                int status = 0;
                const pid_t r =
                    ::waitpid(live[i].pid, &status, WNOHANG);
                if (r == live[i].pid) {
                    LiveAttempt att = live[i];
                    closePidfd(att);
                    live.erase(live.begin() + i);
                    handleFinished(att, classifyWaitStatus(status));
                } else {
                    // Not reapable here (someone else waited for it):
                    // its pidfd would keep the wait awake.
                    if (r < 0)
                        closePidfd(live[i]);
                    ++i;
                }
            }

            // Hard deadlines: kill overdue attempts outright.
            if (cfg.retry.shardDeadlineSec > 0.0) {
                for (std::size_t i = 0; i < live.size();) {
                    const double age =
                        secondsSince(live[i].start, Clock::now());
                    if (age <= cfg.retry.shardDeadlineSec) {
                        ++i;
                        continue;
                    }
                    LiveAttempt att = live[i];
                    ::kill(att.pid, SIGKILL);
                    int status = 0;
                    ::waitpid(att.pid, &status, 0);
                    closePidfd(att);
                    live.erase(live.begin() + i);
                    ++report.timeouts;
                    Track &t = tracks[att.shard];
                    --t.running;
                    std::remove(att.outPath.c_str());
                    if (!att.speculative && !t.done) {
                        t.lastError = "deadline exceeded (killed)";
                        if (t.attempts >= cfg.retry.maxAttempts) {
                            t.failed = true;
                            t.lastError += " (attempts exhausted)";
                        } else {
                            ++report.retries;
                            t.eligible =
                                Clock::now() +
                                std::chrono::duration_cast<
                                    Clock::duration>(
                                    std::chrono::duration<
                                        double, std::milli>(
                                        backoffDelayMs(
                                            cfg.retry,
                                            cfg.plan.seed,
                                            att.shard,
                                            t.attempts)));
                        }
                        persistManifest();
                    }
                }
            }

            // Straggler speculation: duplicate attempts running far
            // past the median completed duration.
            if (cfg.retry.stragglerFactor > 0.0 &&
                doneDurations.size() >= cfg.retry.stragglerMinDone &&
                live.size() < slots) {
                std::vector<double> sorted = doneDurations;
                std::sort(sorted.begin(), sorted.end());
                const double median = sorted[sorted.size() / 2];
                const double threshold =
                    cfg.retry.stragglerFactor * median;
                for (const LiveAttempt &att :
                     std::vector<LiveAttempt>(live)) {
                    if (live.size() >= slots)
                        break;
                    Track &t = tracks[att.shard];
                    if (att.speculative || t.done || t.running > 1)
                        continue;
                    if (secondsSince(att.start, Clock::now()) >
                        threshold)
                        launch(att.shard, /*speculative=*/true);
                }
            }

            // Launch eligible pending shards into free slots.
            for (std::size_t i = 0; i < n && live.size() < slots;
                 ++i) {
                Track &t = tracks[i];
                if (t.done || t.failed || t.running > 0)
                    continue;
                if (Clock::now() < t.eligible)
                    continue;
                launch(i, /*speculative=*/false);
            }

            // Termination: every shard settled, and (optionally) all
            // duplicate attempts drained for the byte cross-check.
            bool settled = true;
            for (const Track &t : tracks)
                if (!t.done && !t.failed)
                    settled = false;
            if (settled) {
                if (!cfg.retry.waitForDuplicates || live.empty()) {
                    for (LiveAttempt &att : live) {
                        ::kill(att.pid, SIGKILL);
                        int status = 0;
                        ::waitpid(att.pid, &status, 0);
                        closePidfd(att);
                        --tracks[att.shard].running;
                        std::remove(att.outPath.c_str());
                    }
                    live.clear();
                    break;
                }
            } else {
                // Unsettled but nothing live and nothing eligible
                // soon: pending shards are waiting out backoff.
            }
            waitForExit(live, cfg.pollIntervalMs);
        }
    }

    persistManifest();

    // Merge from the durable checkpoints (not in-memory results):
    // what resume would see is what the result is derived from.
    std::vector<PartialEstimate> parts;
    for (std::size_t i = 0; i < n; ++i) {
        ShardOutcome o;
        o.index = i;
        o.attempts = tracks[i].attempts;
        o.speculative = tracks[i].speculative;
        o.done = tracks[i].done;
        o.resumed = tracks[i].resumed;
        o.seconds = tracks[i].seconds;
        o.lastError = tracks[i].lastError;
        report.shards.push_back(std::move(o));
        if (!tracks[i].done) {
            report.missing.push_back(i);
            continue;
        }
        PartialEstimate part;
        std::string err;
        if (loadCheckpoint(checkpointPath(cfg.jobDir, i),
                           cfg.plan.shards[i], part, &err)) {
            report.shards.back().setupSeconds = part.setupSeconds;
            report.shards.back().computeSeconds = part.computeSeconds;
            parts.push_back(std::move(part));
        } else {
            report.shards.back().done = false;
            report.shards.back().lastError =
                "checkpoint vanished: " + err;
            report.missing.push_back(i);
        }
    }
    if (report.missing.empty() && !parts.empty()) {
        PartialEstimate merged;
        std::string err;
        if (mergePartials(std::move(parts), merged, &err)) {
            report.complete = true;
            report.resultJson = merged.resultJson();
            std::string werr;
            if (!atomicWriteFile(cfg.jobDir + "/result.json",
                                 report.resultJson, &werr))
                std::fprintf(stderr, "warning: %s\n", werr.c_str());
        } else {
            report.error = "merge failed: " + err;
        }
    }
    std::string werr;
    if (!atomicWriteFile(cfg.jobDir + "/report.json",
                         report.toJson(), &werr))
        std::fprintf(stderr, "warning: %s\n", werr.c_str());
    return report;
}

} // namespace qramsim
