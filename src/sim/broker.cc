/**
 * @file
 * See broker.hh for the protocol and the recovery contract. Layout:
 * wire messages (flat JSON, hardened Cursor), the journal line format
 * and its truncation/tamper-aware loader, then the Broker: job and
 * lease state, the pull/commit/steal scheduler, journal replay and
 * compaction, and the socket plumbing (a thread per connection,
 * joined once it finishes, with an idle deadline).
 */

#include "sim/broker.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <system_error>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/atomicfile.hh"
#include "common/json.hh"
#include "sim/cachestore.hh"    // fnv1a64
#include "sim/orchestrator.hh"  // equivalentPartials, classifyExitCode
#include "tools/workload.hh"

namespace qramsim {
namespace brk {

namespace {

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

// --- Wire messages -----------------------------------------------------

std::string
buildMsg(const Msg &m)
{
    std::string s = "{\"qramsim_broker\": 1, \"type\": ";
    json::appendEscaped(s, m.type);
    s += ", \"worker\": ";
    json::appendEscaped(s, m.worker);
    s += ", \"job\": ";
    json::appendEscaped(s, m.job);
    s += ", \"fingerprint\": ";
    json::appendEscaped(s, m.fingerprint);
    s += ", \"error\": ";
    json::appendEscaped(s, m.error);
    s += ", \"payload\": ";
    json::appendEscaped(s, m.payload);
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        ", \"lease\": %llu, \"shard\": %llu, \"nshards\": %llu, "
        "\"total\": %llu, \"status\": %llu, \"progress\": %llu, "
        "\"cancel\": %llu, \"accepted\": %llu, \"duplicate\": %llu, "
        "\"resumed\": %llu, \"complete\": %llu, \"job_failed\": %llu",
        static_cast<unsigned long long>(m.lease),
        static_cast<unsigned long long>(m.shard),
        static_cast<unsigned long long>(m.nshards),
        static_cast<unsigned long long>(m.total),
        static_cast<unsigned long long>(m.status),
        static_cast<unsigned long long>(m.progress),
        static_cast<unsigned long long>(m.cancel),
        static_cast<unsigned long long>(m.accepted),
        static_cast<unsigned long long>(m.duplicate),
        static_cast<unsigned long long>(m.resumed),
        static_cast<unsigned long long>(m.complete),
        static_cast<unsigned long long>(m.jobFailed));
    s += buf;
    s += ", \"heartbeat_seconds\": ";
    json::appendDouble(s, m.heartbeatSec);
    s += ", \"poll_seconds\": ";
    json::appendDouble(s, m.pollSec);
    s += ", \"dead_seconds\": ";
    json::appendDouble(s, m.deadSec);
    s += ", \"args\": ";
    json::appendStringArray(s, m.args);
    s += ", \"done\": ";
    json::appendDoubleArray(s, m.done);
    s += ", \"failed\": ";
    json::appendDoubleArray(s, m.failed);
    s += "}\n";
    return s;
}

bool
parseMsg(const std::string &text, Msg &out, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    out = Msg{};
    json::Cursor c(text);
    if (!c.consume('{'))
        return fail("not a JSON object");
    bool sawMagic = false;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return fail(c.err.empty() ? "expected key" : c.err);
            bool ok = true;
            std::uint64_t u = 0;
            if (key == "qramsim_broker") {
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "type") {
                ok = c.parseString(out.type);
            } else if (key == "worker") {
                ok = c.parseString(out.worker);
            } else if (key == "job") {
                ok = c.parseString(out.job);
            } else if (key == "fingerprint") {
                ok = c.parseString(out.fingerprint);
            } else if (key == "error") {
                ok = c.parseString(out.error);
            } else if (key == "payload") {
                ok = c.parseString(out.payload);
            } else if (key == "lease") {
                ok = c.parseU64(out.lease);
            } else if (key == "shard") {
                ok = c.parseU64(out.shard);
            } else if (key == "nshards") {
                ok = c.parseU64(out.nshards);
            } else if (key == "total") {
                ok = c.parseU64(out.total);
            } else if (key == "status") {
                ok = c.parseU64(out.status) && out.status <= 255;
            } else if (key == "progress") {
                ok = c.parseU64(out.progress);
            } else if (key == "cancel") {
                ok = c.parseU64(out.cancel) && out.cancel <= 1;
            } else if (key == "accepted") {
                ok = c.parseU64(out.accepted) && out.accepted <= 1;
            } else if (key == "duplicate") {
                ok = c.parseU64(out.duplicate) && out.duplicate <= 1;
            } else if (key == "resumed") {
                ok = c.parseU64(out.resumed) && out.resumed <= 1;
            } else if (key == "complete") {
                ok = c.parseU64(out.complete) && out.complete <= 1;
            } else if (key == "job_failed") {
                ok = c.parseU64(out.jobFailed) && out.jobFailed <= 1;
            } else if (key == "heartbeat_seconds") {
                ok = c.parseNumber(out.heartbeatSec) &&
                     out.heartbeatSec >= 0.0;
            } else if (key == "poll_seconds") {
                ok = c.parseNumber(out.pollSec) && out.pollSec >= 0.0;
            } else if (key == "dead_seconds") {
                ok = c.parseNumber(out.deadSec) && out.deadSec >= 0.0;
            } else if (key == "args") {
                ok = c.parseStringArray(out.args);
            } else if (key == "done") {
                ok = c.parseDoubleArray(out.done);
            } else if (key == "failed") {
                ok = c.parseDoubleArray(out.failed);
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
        return fail("missing qramsim_broker marker");
    if (out.type.empty())
        return fail("missing type");
    return true;
}

bool
roundTrip(const std::string &socketPath, const Msg &req, Msg &resp,
          std::string *err)
{
    const int fd = srv::connectUnix(socketPath, err);
    if (fd < 0)
        return false;
    std::string frame;
    bool ok = srv::sendFrame(fd, buildMsg(req), err) &&
              srv::recvFrame(fd, frame, srv::kDefaultMaxFrameBytes,
                             err);
    ::close(fd);
    if (ok && !parseMsg(frame, resp, err))
        ok = false;
    if (!ok && err && err->empty())
        *err = "connection closed before response";
    return ok;
}

// --- Journal -----------------------------------------------------------

std::string
buildJournalLine(std::uint64_t seq, const std::string &body)
{
    std::string s = "{\"qramsim_broker_journal\": 1, \"seq\": ";
    s += std::to_string(seq);
    s += ", \"hash\": \"";
    s += hex16(fnv1a64(std::to_string(seq) + ":" + body));
    s += "\", \"body\": ";
    json::appendEscaped(s, body);
    s += "}\n";
    return s;
}

namespace {

/** Parse one journal line. False = unusable (torn or tampered). */
bool
parseJournalLine(const std::string &line, JournalEntry &out)
{
    json::Cursor c(line);
    if (!c.consume('{'))
        return false;
    bool sawMagic = false, sawSeq = false, sawBody = false;
    std::string hash;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return false;
            bool ok = true;
            std::uint64_t u = 0;
            if (key == "qramsim_broker_journal") {
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "seq") {
                ok = c.parseU64(out.seq);
                sawSeq = ok;
            } else if (key == "hash") {
                ok = c.parseString(hash);
            } else if (key == "body") {
                ok = c.parseString(out.body);
                sawBody = ok;
            } else {
                ok = c.skipValue();
            }
            if (!ok)
                return false;
            if (c.consume('}'))
                break;
            if (!c.consume(','))
                return false;
        }
    }
    return sawMagic && sawSeq && sawBody &&
           hash == hex16(fnv1a64(std::to_string(out.seq) + ":" +
                                 out.body));
}

} // namespace

bool
parseJournal(const std::string &text, std::vector<JournalEntry> &out,
             std::size_t *droppedTail, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        out.clear();
        if (err)
            *err = msg;
        return false;
    };
    out.clear();
    if (droppedTail)
        *droppedTail = 0;
    std::size_t lineNo = 0, at = 0;
    bool sawFirst = false;
    std::uint64_t expectSeq = 0;
    while (at < text.size()) {
        ++lineNo;
        const std::size_t nl = text.find('\n', at);
        const bool hasNewline = nl != std::string::npos;
        const std::string line =
            text.substr(at, hasNewline ? nl - at : std::string::npos);
        at = hasNewline ? nl + 1 : text.size();
        if (line.empty())
            continue;
        JournalEntry entry;
        const bool lineOk = parseJournalLine(line, entry) &&
                            (!sawFirst || entry.seq == expectSeq);
        if (!lineOk) {
            // Only the FINAL line may be bad: that is the legitimate
            // residue of a crash mid-append (torn write, missing
            // fsync). A bad line with anything after it cannot be a
            // crash artifact — O_APPEND writes land in order — so it
            // is tampering, and the whole journal is rejected.
            if (at < text.size())
                return fail("journal line " + std::to_string(lineNo) +
                            " is invalid before end of file "
                            "(tampered journal)");
            if (droppedTail)
                ++*droppedTail;
            return true;
        }
        if (!sawFirst) {
            sawFirst = true;
            expectSeq = entry.seq;
        }
        ++expectSeq;
        out.push_back(std::move(entry));
    }
    return true;
}

// --- Broker state ------------------------------------------------------

struct Broker::ShardState
{
    bool done = false;
    bool failed = false;
    unsigned attempts = 0; ///< primary assignments so far
    int liveLeases = 0;
    /** The winning commit while it is not in the journal. */
    std::string payload;
    /** Its journal commit line (lineLen 0 = the payload is in memory). */
    std::uint64_t lineOff = 0, lineLen = 0;
    std::string lastError;
    std::string lastWorker;
    bool everAssigned = false;
    bool hasReturnedAt = false;
    Clock::time_point returnedAt{}; ///< for steal-latency accounting
};

struct Broker::Job
{
    std::string id;
    std::string fingerprint;
    std::vector<std::string> args; ///< workload args, no --shard
    std::size_t nshards = 0;       ///< requested N
    SweepPlan plan;
    std::string expectedWorkload;
    std::vector<ShardState> shards; ///< size = plan.shards.size()
    /** Commits, failures and requeues so far: a poll's `progress`. */
    std::uint64_t transitions = 0;
    Clock::time_point lastClientContact{};
    bool parked = false;
    bool complete = false;
};

struct Broker::Lease
{
    std::uint64_t id = 0;
    std::string job;
    std::size_t shard = 0;
    std::string worker;
    Clock::time_point issued{};
    Clock::time_point deadline{};
    double durationSec = 0.0;
    std::uint64_t lastProgress = 0;
};

struct Broker::Worker
{
    Clock::time_point lastBeat{};
};

struct Broker::QueueEntry
{
    std::string job;
    std::size_t shard = 0;
};

namespace {

/** Journal entry body (flat JSON, one per accepted transition). */
struct JournalBody
{
    std::string kind; ///< "job" | "commit" | "failed" | "done"
    std::string job, fingerprint, payload, error;
    std::uint64_t nshards = 0, shard = 0;
    std::vector<std::string> args;
};

std::string
buildJournalBody(const JournalBody &b)
{
    std::string s = "{\"kind\": ";
    json::appendEscaped(s, b.kind);
    s += ", \"job\": ";
    json::appendEscaped(s, b.job);
    s += ", \"fingerprint\": ";
    json::appendEscaped(s, b.fingerprint);
    s += ", \"payload\": ";
    json::appendEscaped(s, b.payload);
    s += ", \"error\": ";
    json::appendEscaped(s, b.error);
    s += ", \"nshards\": " + std::to_string(b.nshards);
    s += ", \"shard\": " + std::to_string(b.shard);
    s += ", \"args\": ";
    json::appendStringArray(s, b.args);
    s += "}";
    return s;
}

bool
parseJournalBody(const std::string &text, JournalBody &out)
{
    out = JournalBody{};
    json::Cursor c(text);
    if (!c.consume('{'))
        return false;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return false;
            bool ok = true;
            if (key == "kind")
                ok = c.parseString(out.kind);
            else if (key == "job")
                ok = c.parseString(out.job);
            else if (key == "fingerprint")
                ok = c.parseString(out.fingerprint);
            else if (key == "payload")
                ok = c.parseString(out.payload);
            else if (key == "error")
                ok = c.parseString(out.error);
            else if (key == "nshards")
                ok = c.parseU64(out.nshards);
            else if (key == "shard")
                ok = c.parseU64(out.shard);
            else if (key == "args")
                ok = c.parseStringArray(out.args);
            else
                ok = c.skipValue();
            if (!ok)
                return false;
            if (c.consume('}'))
                break;
            if (!c.consume(','))
                return false;
        }
    }
    return !out.kind.empty();
}

/** Validate workload args + shard count for a job admission; fills
 *  @p opt on success. Used by submit and journal replay — the two
 *  must agree on the plan geometry. */
bool
validJobArgs(const std::vector<std::string> &args,
             std::size_t nshards, std::string &why,
             tool::RunOptions &opt)
{
    if (nshards == 0 || nshards > (std::size_t(1) << 20)) {
        why = "nshards out of range";
        return false;
    }
    for (const std::string &a : args)
        if (a == "--shard" || a == "--out" || a == "--out-worker") {
            why = a + " is broker-owned and cannot be submitted";
            return false;
        }
    std::vector<std::string> copy(args);
    std::vector<char *> argv;
    argv.reserve(copy.size());
    for (std::string &a : copy)
        argv.push_back(&a[0]);
    if (!tool::parseRunFlags(static_cast<int>(argv.size()),
                             argv.data(), opt)) {
        why = "bad workload flags";
        return false;
    }
    if (!opt.w.validate(&why))
        return false;
    if (!opt.tier.empty()) {
        why = "--tier pins are per-process; the broker's workers "
              "refuse them";
        return false;
    }
    return true;
}

/** Re-validate a commit payload against the job's plan — the same
 *  checks Orchestrator::loadCheckpoint applies to a checkpoint file,
 *  because an accepted commit BECOMES a checkpoint on the client. */
bool
validCommit(const SweepPlan &plan,
            const std::string &expectedWorkload, std::size_t shard,
            const std::string &payload, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };
    PartialEstimate part;
    std::string perr;
    if (!PartialEstimate::fromJson(payload, part, &perr))
        return fail("unparsable payload: " + perr);
    const ShardSpec &spec = plan.shards[shard];
    if (part.shotBegin != spec.shotBegin ||
        part.shotEnd != spec.shotEnd)
        return fail("payload covers the wrong shot range");
    if (part.totalShots != spec.totalShots ||
        part.seed != spec.seed || part.stream != spec.stream)
        return fail("payload belongs to a different plan");
    if (part.factors != spec.factors)
        return fail("payload sweep factors differ");
    if (part.sampler != kSamplerVersion)
        return fail("payload was drawn by sampler version " +
                    std::to_string(part.sampler));
    if (!expectedWorkload.empty() && !part.workload.empty() &&
        part.workload != expectedWorkload)
        return fail("payload workload fingerprint differs");
    return true;
}

} // namespace

// --- Broker ------------------------------------------------------------

Broker::Broker(BrokerConfig cfg) : cfg_(std::move(cfg))
{
    // The broker consults QRAMSIM_FAULT for journal-truncate ONLY:
    // every other kind belongs to workers, and a broker sharing an
    // environment with faulted workers must not steal their marks.
    for (const fault::Spec &s : fault::fromEnv())
        if (s.kind == fault::Kind::JournalTruncate)
            faults_.push_back(s);
}

Broker::~Broker()
{
    stop();
}

std::string
Broker::journalPath(const std::string &stateDir)
{
    return stateDir + "/journal.jsonl";
}

bool
Broker::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    std::lock_guard<std::mutex> lk(mu_);
    if (running_)
        return fail("broker already running");
    stopping_ = false;
    if (!cfg_.stateDir.empty()) {
        if (!makeDirs(cfg_.stateDir))
            return fail("cannot create state dir " + cfg_.stateDir);
        std::string text;
        const bool haveJournal =
            readFile(journalPath(cfg_.stateDir), text);
        if (haveJournal && !text.empty() && !cfg_.resume)
            return fail("journal exists at " +
                        journalPath(cfg_.stateDir) +
                        "; pass resume=true (or remove it) — "
                        "silently recomputing live jobs would be "
                        "worse than refusing");
        if (haveJournal && cfg_.resume) {
            std::string rerr;
            if (!replayLocked(text, &rerr))
                return fail("journal replay failed: " + rerr);
        }
        // Compaction doubles as truncation repair: the rewritten
        // journal has no torn tail, and the append fd is (re)opened
        // on the clean file.
        std::string cerr2;
        compactLocked(&cerr2);
        if (journalFd_ < 0)
            return fail("cannot open journal: " + cerr2);
    }
    if (!cfg_.socketPath.empty()) {
        sockaddr_un addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sun_family = AF_UNIX;
        if (cfg_.socketPath.size() >= sizeof addr.sun_path)
            return fail("socket path too long: " + cfg_.socketPath);
        std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                    cfg_.socketPath.size() + 1);
        ::unlink(cfg_.socketPath.c_str());
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return fail(std::string("socket: ") +
                        std::strerror(errno));
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(fd, cfg_.backlog) != 0) {
            const std::string reason = std::strerror(errno);
            ::close(fd);
            return fail("bind/listen " + cfg_.socketPath + ": " +
                        reason);
        }
        listenFd_ = fd;
    }
    running_ = true;
    housekeepingThread_ = std::thread([this] { housekeepingLoop(); });
    if (listenFd_ >= 0)
        acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Broker::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        // Parked pulls and polls answer at once, and none park again.
        stopping_ = true;
        changed_.notify_all();
        if (!running_ && listenFd_ < 0 && conns_.empty() &&
            journalFd_ < 0)
            return;
        running_ = false;
        if (listenFd_ >= 0) {
            ::shutdown(listenFd_, SHUT_RDWR);
            ::close(listenFd_);
            listenFd_ = -1;
        }
        for (const Conn &c : conns_)
            if (c.fd >= 0)
                ::shutdown(c.fd, SHUT_RDWR);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (housekeepingThread_.joinable())
        housekeepingThread_.join();
    std::list<Conn> conns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        conns.swap(conns_);
    }
    for (Conn &c : conns)
        if (c.thread.joinable())
            c.thread.join();
    std::lock_guard<std::mutex> lk(mu_);
    if (journalFd_ >= 0) {
        ::close(journalFd_);
        journalFd_ = -1;
    }
    if (!cfg_.socketPath.empty())
        ::unlink(cfg_.socketPath.c_str());
}

double
Broker::deadSec() const
{
    return cfg_.workerDeadSec > 0.0 ? cfg_.workerDeadSec
                                    : 3.0 * cfg_.heartbeatSec;
}

double
Broker::parkCapSec() const
{
    // A parked pull touches its worker only when it answers, so it
    // must answer well inside the dead-worker deadline.
    const double dead = deadSec();
    return dead > 0.0 ? std::min(cfg_.pollSec, 0.5 * dead)
                      : cfg_.pollSec;
}

void
Broker::acceptLoop()
{
    for (;;) {
        int lfd;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!running_)
                return;
            lfd = listenFd_;
        }
        const int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        // Each arrival joins the connections that finished since the
        // last one, so an idle broker holds no dead threads' stacks.
        std::list<Conn> finished;
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!running_) {
                ::close(fd);
                return;
            }
            for (auto it = conns_.begin(); it != conns_.end();) {
                const auto next = std::next(it);
                if (it->fd < 0)
                    finished.splice(finished.end(), conns_, it);
                it = next;
            }
            Conn &c = conns_.emplace_back();
            c.fd = fd;
            try {
                // The thread cannot mark itself finished before this
                // assignment: that needs mu_, held here.
                c.thread = std::thread([this, &c] { serveConnection(c); });
            } catch (const std::system_error &) {
                // Out of threads: close this one connection rather
                // than end the broker.
                conns_.pop_back();
                ::close(fd);
            }
        }
        for (Conn &c : finished)
            c.thread.join();
    }
}

void
Broker::serveConnection(Conn &conn)
{
    const int fd = conn.fd;
    // A connection holding a thread must make frame progress: a peer
    // silent for a dead worker's deadline is cut (a zero deadline,
    // from --heartbeat 0, cuts nothing). recvFrame maps the
    // SO_RCVTIMEO expiry to the "idle timeout" reason counted below.
    const double idle = deadSec();
    if (idle > 0.0) {
        timeval tv;
        tv.tv_sec = static_cast<time_t>(idle);
        tv.tv_usec = static_cast<suseconds_t>(
            (idle - static_cast<double>(tv.tv_sec)) * 1e6);
        if (tv.tv_sec == 0 && tv.tv_usec == 0)
            tv.tv_usec = 1; // all zeros would mean "no timeout"
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    std::string frame, err;
    for (;;) {
        if (!srv::recvFrame(fd, frame, cfg_.maxFrameBytes, &err))
            break;
        if (!srv::sendFrame(fd, handleMessage(frame)))
            break;
    }
    {
        // Under mu_, so stop() never shuts down a reused fd number.
        std::lock_guard<std::mutex> lk(mu_);
        if (err == "idle timeout")
            ++stats_.transportTimeouts;
        conn.fd = -1;
    }
    ::close(fd);
}

void
Broker::housekeepingLoop()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (!running_)
                return;
            tickLocked(Clock::now());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

std::string
Broker::handleMessage(const std::string &frame)
{
    Msg req;
    std::string err;
    std::unique_lock<std::mutex> lk(mu_);
    if (!parseMsg(frame, req, &err)) {
        ++stats_.badFrames;
        Msg resp;
        resp.type = "error";
        resp.error = "bad frame: " + err;
        return buildMsg(resp);
    }
    // Long-poll: a pull or poll carrying poll_seconds is answered
    // again on every state change and returned once the answer has
    // news, at its deadline, or when stop() releases it.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               std::min(req.pollSec, parkCapSec())));
    for (;;) {
        const Clock::time_point now = Clock::now();
        Msg resp = handleLocked(req, now);
        const bool nothingNew =
            (req.type == "pull" && resp.type == "idle") ||
            (req.type == "poll" && resp.type == "status" &&
             resp.progress == req.progress && !resp.complete &&
             !resp.jobFailed);
        if (!nothingNew || stopping_ || now >= deadline)
            return buildMsg(resp);
        changed_.wait_until(lk, deadline);
    }
}

Msg
Broker::handleLocked(const Msg &req, Clock::time_point now)
{
    if (req.type == "register")
        return handleRegister(req, now);
    if (req.type == "pull")
        return handlePull(req, now);
    if (req.type == "heartbeat")
        return handleHeartbeat(req, now);
    if (req.type == "commit")
        return handleCommit(req, now);
    if (req.type == "submit")
        return handleSubmit(req, now);
    if (req.type == "poll")
        return handlePoll(req, now);
    if (req.type == "fetch")
        return handleFetch(req, now);
    ++stats_.badFrames;
    Msg resp;
    resp.type = "error";
    resp.error = "unknown message type '" + req.type + "'";
    return resp;
}

Broker::Worker &
Broker::touchWorkerLocked(const std::string &name,
                          Clock::time_point now)
{
    Worker &w = workers_[name];
    w.lastBeat = now;
    return w;
}

double
Broker::leaseDurationLocked() const
{
    if (cfg_.stragglerFactor > 0.0 && !doneDurations_.empty() &&
        doneDurations_.size() >= cfg_.stragglerMinDone) {
        const double median = doneDurations_[doneDurations_.size() / 2];
        const double scaled = cfg_.stragglerFactor * median;
        // Never let a fast history shrink the lease below a sane
        // floor: scheduling noise alone can exceed a tiny median.
        return std::max(scaled, cfg_.heartbeatSec * 2.0);
    }
    return cfg_.leaseBaseSec;
}

Msg
Broker::handleRegister(const Msg &req, Clock::time_point now)
{
    Msg resp;
    if (req.worker.empty()) {
        resp.type = "error";
        resp.error = "register wants a worker name";
        return resp;
    }
    touchWorkerLocked(req.worker, now);
    resp.type = "registered";
    resp.worker = req.worker;
    resp.heartbeatSec = cfg_.heartbeatSec;
    resp.pollSec = parkCapSec();
    return resp;
}

Msg
Broker::handlePull(const Msg &req, Clock::time_point now)
{
    Msg resp;
    if (req.worker.empty()) {
        resp.type = "error";
        resp.error = "pull wants a worker name";
        return resp;
    }
    touchWorkerLocked(req.worker, now);

    auto assign = [&](Job &job, std::size_t shard,
                      bool speculative) -> Msg {
        ShardState &ss = job.shards[shard];
        Lease lease;
        lease.id = nextLease_++;
        lease.job = job.id;
        lease.shard = shard;
        lease.worker = req.worker;
        lease.issued = now;
        lease.durationSec = leaseDurationLocked();
        lease.deadline =
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          lease.durationSec));
        leases_[lease.id] = lease;
        ++ss.liveLeases;
        if (speculative) {
            ++stats_.speculativeAssignments;
            ++stats_.steals; // by construction a different worker
        } else {
            ++ss.attempts;
            ++stats_.assignments;
            if (ss.everAssigned) {
                ++stats_.redispatches;
                if (!ss.lastWorker.empty() &&
                    ss.lastWorker != req.worker)
                    ++stats_.steals;
            }
            if (ss.hasReturnedAt) {
                stats_.stealLatencySecTotal +=
                    std::chrono::duration<double>(now - ss.returnedAt)
                        .count();
                ss.hasReturnedAt = false;
            }
        }
        ss.everAssigned = true;
        ss.lastWorker = req.worker;
        Msg out;
        out.type = "assign";
        out.lease = lease.id;
        out.job = job.id;
        out.shard = shard;
        out.nshards = job.nshards;
        out.args = job.args;
        out.args.push_back("--shard");
        out.args.push_back(std::to_string(shard) + "/" +
                           std::to_string(job.nshards));
        return out;
    };

    // Primary dispatch: the oldest queued shard of an unparked job.
    for (auto it = queue_.begin(); it != queue_.end();) {
        auto jit = jobs_.find(it->job);
        if (jit == jobs_.end() || jit->second.complete ||
            it->shard >= jit->second.shards.size() ||
            jit->second.shards[it->shard].done ||
            jit->second.shards[it->shard].failed ||
            jit->second.shards[it->shard].liveLeases > 0) {
            it = queue_.erase(it); // stale entry
            continue;
        }
        if (jit->second.parked) {
            ++it;
            continue;
        }
        const std::size_t shard = it->shard;
        Job &job = jit->second;
        queue_.erase(it);
        return assign(job, shard, false);
    }

    // Queue empty: steal.
    if (const Lease *victim = stealVictimLocked(req.worker, now))
        return assign(jobs_.find(victim->job)->second, victim->shard,
                      true);

    resp.type = "idle";
    return resp;
}

const Broker::Lease *
Broker::stealVictimLocked(const std::string &worker,
                          Clock::time_point now) const
{
    // Speculatively duplicate the oldest in-flight lease past the
    // straggler threshold, if its history says it is overdue and
    // nobody else is already duplicating it.
    if (cfg_.stragglerFactor <= 0.0 || doneDurations_.empty() ||
        doneDurations_.size() < cfg_.stragglerMinDone)
        return nullptr;
    const double threshold =
        cfg_.stragglerFactor * doneDurations_[doneDurations_.size() / 2];
    const Lease *victim = nullptr;
    double victimAge = 0.0;
    for (const auto &kv : leases_) {
        const Lease &l = kv.second;
        if (l.worker == worker)
            continue; // no self-steal
        auto jit = jobs_.find(l.job);
        if (jit == jobs_.end() || jit->second.parked ||
            jit->second.complete)
            continue;
        const ShardState &ss = jit->second.shards[l.shard];
        if (ss.done || ss.failed || ss.liveLeases != 1)
            continue;
        const double age =
            std::chrono::duration<double>(now - l.issued).count();
        if (age > threshold && age > victimAge) {
            victim = &l;
            victimAge = age;
        }
    }
    return victim;
}

Msg
Broker::handleHeartbeat(const Msg &req, Clock::time_point now)
{
    Msg resp;
    if (req.worker.empty()) {
        resp.type = "error";
        resp.error = "heartbeat wants a worker name";
        return resp;
    }
    touchWorkerLocked(req.worker, now);
    resp.type = "ok";
    if (req.lease != 0) {
        auto it = leases_.find(req.lease);
        if (it == leases_.end()) {
            // Lease revoked (expired / worker declared dead): tell
            // the worker its result will at best be a duplicate.
            resp.cancel = 1;
        } else if (req.progress > it->second.lastProgress) {
            // Progress advanced: renew. A frozen progress counter
            // (lease-stall) heartbeats without renewing and loses
            // the lease on schedule.
            it->second.lastProgress = req.progress;
            it->second.deadline =
                now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(
                              it->second.durationSec));
        }
    }
    return resp;
}

void
Broker::dropLeaseLocked(std::uint64_t leaseId)
{
    auto it = leases_.find(leaseId);
    if (it == leases_.end())
        return;
    auto jit = jobs_.find(it->second.job);
    if (jit != jobs_.end() &&
        it->second.shard < jit->second.shards.size())
        --jit->second.shards[it->second.shard].liveLeases;
    leases_.erase(it);
}

void
Broker::returnShardLocked(const std::string &jobId, std::size_t shard,
                          Clock::time_point now)
{
    auto jit = jobs_.find(jobId);
    if (jit == jobs_.end() || shard >= jit->second.shards.size())
        return;
    Job &job = jit->second;
    ShardState &ss = job.shards[shard];
    if (ss.done || ss.failed || ss.liveLeases > 0)
        return; // another lease is still working it, or it settled
    if (ss.attempts >= cfg_.maxAttempts) {
        failShardLocked(job, shard,
                        ss.lastError.empty()
                            ? "lease expired and attempts exhausted"
                            : ss.lastError);
        return;
    }
    ss.hasReturnedAt = true;
    ss.returnedAt = now;
    queue_.push_back(QueueEntry{jobId, shard});
    changed_.notify_all();
}

Msg
Broker::handleCommit(const Msg &req, Clock::time_point now)
{
    Msg resp;
    if (req.worker.empty()) {
        resp.type = "error";
        resp.error = "commit wants a worker name";
        return resp;
    }
    touchWorkerLocked(req.worker, now);

    double leaseAge = -1.0;
    {
        auto it = leases_.find(req.lease);
        if (it != leases_.end()) {
            leaseAge = std::chrono::duration<double>(
                           now - it->second.issued)
                           .count();
            dropLeaseLocked(req.lease);
        }
    }

    auto jit = jobs_.find(req.job);
    if (jit == jobs_.end()) {
        resp.type = "error";
        resp.error = "unknown job '" + req.job + "'";
        return resp;
    }
    Job &job = jit->second;
    if (req.shard >= job.shards.size()) {
        resp.type = "error";
        resp.error = "shard index out of range";
        return resp;
    }
    const std::size_t shard = req.shard;
    ShardState &ss = job.shards[shard];
    resp.type = "ok";

    std::string won;
    if (ss.done &&
        (req.status != 0 || settledPayloadLocked(job, shard, won))) {
        // First valid commit won already; this one is the loser of a
        // steal or a speculation — which makes it a free end-to-end
        // integrity check. (A winner whose journal line failed its
        // read-back was requeued instead, and this commit may settle
        // the shard below.)
        ++stats_.duplicateCommits;
        if (req.status == 0) {
            if (equivalentPartials(won, req.payload))
                ++stats_.duplicateMatches;
            else
                ++stats_.duplicateMismatches;
        }
        resp.duplicate = 1;
        return resp;
    }

    if (req.status == 0) {
        std::string why;
        if (validCommit(job.plan, job.expectedWorkload, shard,
                        req.payload, &why)) {
            if (leaseAge >= 0.0)
                doneDurations_.insert(
                    std::upper_bound(doneDurations_.begin(),
                                     doneDurations_.end(), leaseAge),
                    leaseAge);
            acceptCommitLocked(job, shard, req.payload, now);
            resp.accepted = 1;
            return resp;
        }
        // A success status wrapping an invalid payload is the torn/
        // corrupt class: retryable, the worker state is suspect.
        ++stats_.commitsRejected;
        ss.lastError = "invalid payload: " + why;
        returnShardLocked(job.id, shard, now);
        return resp;
    }

    ss.lastError = req.error.empty()
                       ? "worker status " +
                             std::to_string(req.status)
                       : req.error;
    const ExitClass cls =
        classifyExitCode(static_cast<int>(req.status));
    if (cls.outcome == WorkerOutcome::Permanent)
        failShardLocked(job, shard, ss.lastError);
    else
        returnShardLocked(job.id, shard, now);
    return resp;
}

void
Broker::acceptCommitLocked(Job &job, std::size_t shard,
                           const std::string &payload,
                           Clock::time_point now)
{
    (void)now;
    ShardState &ss = job.shards[shard];
    ss.done = true;
    ss.failed = false;
    ss.payload = payload; // dropped once its journal line lands whole
    ++job.transitions;
    ++stats_.commitsAccepted;
    {
        JournalBody b;
        b.kind = "commit";
        b.job = job.id;
        b.shard = shard;
        b.payload = payload;
        const ShardSpec &spec = job.plan.shards[shard];
        appendEntryLocked(buildJournalBody(b), spec.shotBegin,
                          spec.shotEnd, &ss);
    }
    bool all = true;
    for (const ShardState &s : job.shards)
        all = all && s.done;
    if (all) {
        job.complete = true;
        ++stats_.jobsCompleted;
        JournalBody b;
        b.kind = "done";
        b.job = job.id;
        appendEntryLocked(buildJournalBody(b), 0, 0);
    }
    changed_.notify_all();
}

bool
Broker::settledPayloadLocked(Job &job, std::size_t shard,
                             std::string &out)
{
    ShardState &ss = job.shards[shard];
    if (ss.lineLen == 0) {
        out = ss.payload;
        return true;
    }
    std::string line(ss.lineLen, '\0');
    std::size_t got = 0;
    while (journalFd_ >= 0 && got < line.size()) {
        const ssize_t n =
            ::pread(journalFd_, &line[got], line.size() - got,
                    static_cast<off_t>(ss.lineOff + got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    JournalEntry entry;
    JournalBody b;
    if (got == line.size() && line.back() == '\n') {
        line.pop_back();
        if (parseJournalLine(line, entry) &&
            parseJournalBody(entry.body, b) && b.kind == "commit" &&
            b.job == job.id && b.shard == shard) {
            out = std::move(b.payload);
            return true;
        }
    }
    // Not the line this shard committed: serve neither version and
    // recompute the shard, as replay does with a payload it cannot
    // vouch for.
    ++stats_.journalBadReads;
    ss.done = false;
    ss.lineOff = ss.lineLen = 0;
    ss.attempts = 0;
    job.complete = false;
    ++job.transitions;
    if (ss.liveLeases == 0)
        queue_.push_back(QueueEntry{job.id, shard});
    changed_.notify_all();
    return false;
}

void
Broker::failShardLocked(Job &job, std::size_t shard,
                        const std::string &why)
{
    ShardState &ss = job.shards[shard];
    if (ss.done || ss.failed)
        return;
    ss.failed = true;
    ss.lastError = why;
    ++job.transitions;
    ++stats_.shardsFailed;
    JournalBody b;
    b.kind = "failed";
    b.job = job.id;
    b.shard = shard;
    b.error = why;
    appendEntryLocked(buildJournalBody(b), 0, 0);
    changed_.notify_all();
}

Msg
Broker::handleSubmit(const Msg &req, Clock::time_point now)
{
    Msg resp;
    if (req.fingerprint.empty()) {
        resp.type = "error";
        resp.error = "submit wants a workload fingerprint";
        return resp;
    }
    const std::string id = hex16(fnv1a64(req.fingerprint));
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        Job &job = it->second;
        if (job.fingerprint != req.fingerprint) {
            // An fnv1a64 collision between concurrent workloads:
            // astronomically unlikely, but never silently merge two
            // different jobs.
            resp.type = "error";
            resp.error = "job id collision; change the workload";
            return resp;
        }
        job.lastClientContact = now;
        if (job.parked) {
            job.parked = false;
            changed_.notify_all();
        }
        ++stats_.jobsResumed;
        resp.type = "job";
        resp.job = id;
        resp.total = job.plan.shards.size();
        resp.resumed = 1;
        resp.pollSec = parkCapSec();
        resp.deadSec = deadSec();
        return resp;
    }

    std::string why;
    tool::RunOptions opt;
    if (!validJobArgs(req.args, req.nshards, why, opt)) {
        resp.type = "error";
        resp.error = "bad submit: " + why;
        return resp;
    }
    // In the table before its journal line: a compaction that this
    // append sets off must snapshot the new job too.
    Job &job = jobs_[id];
    job.id = id;
    job.fingerprint = req.fingerprint;
    job.args = req.args;
    job.nshards = req.nshards;
    job.plan = SweepPlan::partition(opt.shots, job.nshards, opt.seed,
                                    opt.factors, opt.stream);
    job.expectedWorkload = opt.w.fingerprint(opt.shots);
    job.shards.assign(job.plan.shards.size(), ShardState{});
    job.lastClientContact = now;
    {
        JournalBody b;
        b.kind = "job";
        b.job = id;
        b.fingerprint = job.fingerprint;
        b.nshards = job.nshards;
        b.args = job.args;
        appendEntryLocked(buildJournalBody(b), 0, 0);
    }
    for (std::size_t i = 0; i < job.plan.shards.size(); ++i)
        queue_.push_back(QueueEntry{id, i});
    ++stats_.jobsSubmitted;
    resp.type = "job";
    resp.job = id;
    resp.total = job.plan.shards.size();
    resp.pollSec = parkCapSec();
    resp.deadSec = deadSec();
    changed_.notify_all();
    return resp;
}

Msg
Broker::handlePoll(const Msg &req, Clock::time_point now)
{
    Msg resp;
    auto it = jobs_.find(req.job);
    if (it == jobs_.end()) {
        resp.type = "error";
        resp.error = "unknown job '" + req.job + "'";
        return resp;
    }
    Job &job = it->second;
    job.lastClientContact = now;
    if (job.parked) { // a polling client unparks its job
        job.parked = false;
        changed_.notify_all();
    }
    resp.type = "status";
    resp.total = job.shards.size();
    resp.progress = job.transitions;
    std::size_t nDone = 0, nFailed = 0;
    for (std::size_t i = 0; i < job.shards.size(); ++i) {
        if (job.shards[i].done) {
            resp.done.push_back(static_cast<double>(i));
            ++nDone;
        } else if (job.shards[i].failed) {
            resp.failed.push_back(static_cast<double>(i));
            ++nFailed;
        }
    }
    resp.complete = nDone == job.shards.size() ? 1 : 0;
    resp.jobFailed =
        (nFailed > 0 && nDone + nFailed == job.shards.size()) ? 1 : 0;
    return resp;
}

Msg
Broker::handleFetch(const Msg &req, Clock::time_point now)
{
    Msg resp;
    auto it = jobs_.find(req.job);
    if (it == jobs_.end()) {
        resp.type = "error";
        resp.error = "unknown job '" + req.job + "'";
        return resp;
    }
    Job &job = it->second;
    job.lastClientContact = now;
    if (job.parked) {
        job.parked = false;
        changed_.notify_all();
    }
    if (req.shard >= job.shards.size()) {
        resp.type = "error";
        resp.error = "shard index out of range";
        return resp;
    }
    resp.shard = req.shard;
    if (!job.shards[req.shard].done ||
        !settledPayloadLocked(job, req.shard, resp.payload)) {
        resp.type = "pending";
        return resp;
    }
    resp.type = "result";
    return resp;
}

void
Broker::tickLocked(Clock::time_point now)
{
    const double deadSec = this->deadSec();

    // Dead workers: silence past the deadline forfeits every lease.
    for (auto it = workers_.begin(); it != workers_.end();) {
        const double silent =
            std::chrono::duration<double>(now - it->second.lastBeat)
                .count();
        if (silent <= deadSec) {
            ++it;
            continue;
        }
        const std::string name = it->first;
        it = workers_.erase(it);
        ++stats_.deadWorkers;
        std::vector<std::uint64_t> doomed;
        for (const auto &kv : leases_)
            if (kv.second.worker == name)
                doomed.push_back(kv.first);
        for (std::uint64_t id : doomed) {
            const Lease l = leases_[id];
            dropLeaseLocked(id);
            returnShardLocked(l.job, l.shard, now);
        }
    }

    // Expired leases: un-renewed past the deadline.
    {
        std::vector<std::uint64_t> expired;
        for (const auto &kv : leases_)
            if (now > kv.second.deadline)
                expired.push_back(kv.first);
        for (std::uint64_t id : expired) {
            const Lease l = leases_[id];
            dropLeaseLocked(id);
            ++stats_.leaseExpiries;
            returnShardLocked(l.job, l.shard, now);
        }
    }

    // Park jobs whose client went away; their queued shards stop
    // dispatching (in-flight leases still commit) until a client
    // with the same fingerprint returns.
    if (cfg_.parkAfterSec > 0.0) {
        for (auto &kv : jobs_) {
            Job &job = kv.second;
            if (job.complete || job.parked)
                continue;
            const double idle = std::chrono::duration<double>(
                                    now - job.lastClientContact)
                                    .count();
            if (idle > cfg_.parkAfterSec) {
                job.parked = true;
                ++stats_.jobsParked;
            }
        }
    }

    // A lease just went overdue for a queue-empty steal: parked pulls
    // re-check (the no-self-steal rule is theirs to apply).
    if (stealVictimLocked(std::string(), now))
        changed_.notify_all();
}

// --- Journal plumbing --------------------------------------------------

void
Broker::appendEntryLocked(const std::string &body,
                          std::size_t faultShotBegin,
                          std::size_t faultShotEnd,
                          ShardState *committed)
{
    if (journalFd_ < 0)
        return;
    const std::string line = buildJournalLine(nextSeq_, body);
    // journal-truncate drill: tear THIS line in half and die like a
    // power loss would — the restarted broker must drop the tail and
    // recompute the shard.
    if (faultShotEnd > faultShotBegin) {
        for (std::size_t i = 0; i < faults_.size(); ++i) {
            if (faults_[i].shot < faultShotBegin ||
                faults_[i].shot >= faultShotEnd)
                continue;
            if (!fault::acquireMark(i))
                continue;
            const std::string half = line.substr(0, line.size() / 2);
            (void)!::write(journalFd_, half.data(), half.size());
            ::fsync(journalFd_);
            ::kill(::getpid(), SIGKILL);
        }
    }
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(journalFd_, line.data() + off,
                                  line.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break; // journal write failure: state stays in memory
        }
        off += static_cast<std::size_t>(n);
    }
    if (atomicFileFsync())
        ::fsync(journalFd_);
    ++nextSeq_;
    // Count only the bytes that landed: journalBytes_ is the file's
    // length, so it is where this line starts and the next one will.
    const std::uint64_t at = journalBytes_;
    journalBytes_ += off;
    if (committed && off == line.size()) {
        committed->lineOff = at;
        committed->lineLen = line.size();
        std::string().swap(committed->payload);
    }
    // Geometric rotation: a snapshot is rewritten only after as many
    // bytes were appended since the last one as it holds, so each
    // append pays O(1) amortized for compaction.
    if (journalBytes_ >
        std::max<std::uint64_t>(cfg_.rotateBytes, 2 * snapshotBytes_))
        compactLocked();
}

void
Broker::compactLocked(std::string *err)
{
    if (cfg_.stateDir.empty())
        return;
    // Snapshot the live state as a fresh journal: every job's
    // admission, its accepted commits and failures, and its done
    // marker. The lines stream into atomicWriteWith's temp file one
    // at a time (settled payloads are read back from the current
    // journal), and the rename is both the rotation mechanism and
    // torn-tail repair. Where each commit line lands is applied only
    // once the snapshot has replaced the journal.
    struct Placed
    {
        ShardState *ss;
        std::uint64_t off, len;
    };
    std::vector<Placed> placed;
    std::uint64_t seq = 1, bytes = 0;
    const std::string path = journalPath(cfg_.stateDir);
    std::string werr;
    const bool written = atomicWriteWith(
        path,
        [&](std::FILE *f) {
            auto put = [&](const JournalBody &b) {
                const std::string line =
                    buildJournalLine(seq++, buildJournalBody(b));
                bytes += line.size();
                return std::fwrite(line.data(), 1, line.size(), f) ==
                       line.size();
            };
            for (auto &kv : jobs_) {
                Job &job = kv.second;
                JournalBody adm;
                adm.kind = "job";
                adm.job = job.id;
                adm.fingerprint = job.fingerprint;
                adm.nshards = job.nshards;
                adm.args = job.args;
                if (!put(adm))
                    return false;
                for (std::size_t i = 0; i < job.shards.size(); ++i) {
                    ShardState &ss = job.shards[i];
                    JournalBody b;
                    b.job = job.id;
                    b.shard = i;
                    if (ss.done) {
                        b.kind = "commit";
                        if (!settledPayloadLocked(job, i, b.payload))
                            continue; // requeued: it commits again
                        const std::uint64_t at = bytes;
                        if (!put(b))
                            return false;
                        placed.push_back(Placed{&ss, at, bytes - at});
                    } else if (ss.failed) {
                        b.kind = "failed";
                        b.error = ss.lastError;
                        if (!put(b))
                            return false;
                    }
                }
                if (job.complete) {
                    JournalBody b;
                    b.kind = "done";
                    b.job = job.id;
                    if (!put(b))
                        return false;
                }
            }
            return true;
        },
        &werr);
    if (!written) {
        if (err)
            *err = werr;
        return;
    }
    if (journalFd_ >= 0)
        ::close(journalFd_);
    // O_RDWR: settled payloads are read back from this fd.
    journalFd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (journalFd_ < 0) {
        // Journaling stops; payloads kept only in the old file fail
        // their read-back and are recomputed.
        if (err)
            *err = "open " + path + ": " + std::strerror(errno);
        return;
    }
    for (const Placed &p : placed) {
        p.ss->lineOff = p.off;
        p.ss->lineLen = p.len;
        std::string().swap(p.ss->payload);
    }
    nextSeq_ = seq;
    journalBytes_ = snapshotBytes_ = bytes;
    ++stats_.journalCompactions;
}

bool
Broker::replayLocked(const std::string &text, std::string *err)
{
    std::vector<JournalEntry> entries;
    std::size_t droppedTail = 0;
    if (!parseJournal(text, entries, &droppedTail, err))
        return false;
    stats_.journalDroppedEntries += droppedTail;
    const Clock::time_point now = Clock::now();
    for (const JournalEntry &e : entries) {
        JournalBody b;
        if (!parseJournalBody(e.body, b)) {
            ++stats_.journalDroppedEntries;
            continue;
        }
        if (b.kind == "job") {
            if (jobs_.count(b.job))
                continue;
            std::string why;
            tool::RunOptions opt;
            if (b.job != hex16(fnv1a64(b.fingerprint)) ||
                !validJobArgs(b.args, b.nshards, why, opt)) {
                ++stats_.journalDroppedEntries;
                continue;
            }
            Job job;
            job.id = b.job;
            job.fingerprint = b.fingerprint;
            job.args = b.args;
            job.nshards = b.nshards;
            job.plan = SweepPlan::partition(opt.shots, job.nshards,
                                            opt.seed, opt.factors,
                                            opt.stream);
            job.expectedWorkload = opt.w.fingerprint(opt.shots);
            job.shards.assign(job.plan.shards.size(), ShardState{});
            job.lastClientContact = now;
            jobs_[job.id] = std::move(job);
        } else if (b.kind == "commit") {
            auto it = jobs_.find(b.job);
            std::string why;
            if (it == jobs_.end() ||
                b.shard >= it->second.shards.size() ||
                !validCommit(it->second.plan,
                             it->second.expectedWorkload, b.shard,
                             b.payload, &why)) {
                // A replayed payload that no longer validates is
                // dropped — the shard is simply recomputed. Never
                // trust a journal byte the plan cannot vouch for.
                ++stats_.journalDroppedEntries;
                continue;
            }
            ShardState &ss = it->second.shards[b.shard];
            if (ss.done)
                continue;
            ss.done = true;
            ss.payload = std::move(b.payload);
            ++it->second.transitions;
            ++stats_.journalReplayedCommits;
        } else if (b.kind == "failed") {
            auto it = jobs_.find(b.job);
            if (it == jobs_.end() ||
                b.shard >= it->second.shards.size()) {
                ++stats_.journalDroppedEntries;
                continue;
            }
            ShardState &ss = it->second.shards[b.shard];
            if (!ss.done && !ss.failed) {
                ss.failed = true;
                ss.lastError = b.error;
                ss.attempts = cfg_.maxAttempts;
                ++it->second.transitions;
            }
        } else if (b.kind == "done") {
            // Advisory: completeness is re-derived below from the
            // replayed commits, never trusted from the marker alone.
        } else {
            ++stats_.journalDroppedEntries;
        }
    }
    // Rebuild the queue: every shard neither committed nor failed
    // goes back to pending. Jobs start unparked — a journal-replayed
    // broker must FINISH its in-flight jobs even before any client
    // reconnects.
    for (auto &kv : jobs_) {
        Job &job = kv.second;
        bool all = true;
        for (std::size_t i = 0; i < job.shards.size(); ++i) {
            ShardState &ss = job.shards[i];
            if (ss.done)
                continue;
            all = false;
            if (!ss.failed)
                queue_.push_back(QueueEntry{job.id, i});
        }
        job.complete = all;
    }
    return true;
}

// --- Stats -------------------------------------------------------------

Broker::Stats
Broker::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::string
Broker::statsJson() const
{
    const Stats s = stats();
    std::string out = "{\n  \"qramsim_broker_stats\": 1,\n";
    char buf[1536];
    std::snprintf(
        buf, sizeof buf,
        "  \"jobs_submitted\": %llu,\n  \"jobs_resumed\": %llu,\n"
        "  \"jobs_completed\": %llu,\n  \"jobs_parked\": %llu,\n"
        "  \"assignments\": %llu,\n"
        "  \"speculative_assignments\": %llu,\n"
        "  \"redispatches\": %llu,\n  \"steals\": %llu,\n"
        "  \"lease_expiries\": %llu,\n  \"dead_workers\": %llu,\n"
        "  \"commits_accepted\": %llu,\n"
        "  \"commits_rejected\": %llu,\n  \"shards_failed\": %llu,\n"
        "  \"duplicate_commits\": %llu,\n"
        "  \"duplicate_matches\": %llu,\n"
        "  \"duplicate_mismatches\": %llu,\n"
        "  \"journal_replayed_commits\": %llu,\n"
        "  \"journal_dropped_entries\": %llu,\n"
        "  \"journal_compactions\": %llu,\n"
        "  \"journal_bad_reads\": %llu,\n"
        "  \"bad_frames\": %llu,\n"
        "  \"transport_timeouts\": %llu,\n",
        static_cast<unsigned long long>(s.jobsSubmitted),
        static_cast<unsigned long long>(s.jobsResumed),
        static_cast<unsigned long long>(s.jobsCompleted),
        static_cast<unsigned long long>(s.jobsParked),
        static_cast<unsigned long long>(s.assignments),
        static_cast<unsigned long long>(s.speculativeAssignments),
        static_cast<unsigned long long>(s.redispatches),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.leaseExpiries),
        static_cast<unsigned long long>(s.deadWorkers),
        static_cast<unsigned long long>(s.commitsAccepted),
        static_cast<unsigned long long>(s.commitsRejected),
        static_cast<unsigned long long>(s.shardsFailed),
        static_cast<unsigned long long>(s.duplicateCommits),
        static_cast<unsigned long long>(s.duplicateMatches),
        static_cast<unsigned long long>(s.duplicateMismatches),
        static_cast<unsigned long long>(s.journalReplayedCommits),
        static_cast<unsigned long long>(s.journalDroppedEntries),
        static_cast<unsigned long long>(s.journalCompactions),
        static_cast<unsigned long long>(s.journalBadReads),
        static_cast<unsigned long long>(s.badFrames),
        static_cast<unsigned long long>(s.transportTimeouts));
    out += buf;
    out += "  \"steal_latency_seconds_total\": ";
    json::appendDouble(out, s.stealLatencySecTotal);
    out += "\n}\n";
    return out;
}

} // namespace brk
} // namespace qramsim
