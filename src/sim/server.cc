/**
 * @file
 * See server.hh for the protocol and the caching contract. Layout:
 * framing helpers (raw fd I/O, EINTR-safe, SIGPIPE-free), the
 * request/response JSON (common/json.hh hardened reader — a byte
 * flip in a frame degrades to a status-2 response or a dropped
 * connection, never UB), then the Server: accept loop, per-connection
 * threads, and handle(), where the two cache layers meet the
 * estimator.
 */

#include "sim/server.hh"

#include <cstring>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/fidelity.hh"
#include "sim/sharding.hh"
#include "tools/workload.hh"

namespace qramsim {
namespace srv {

namespace {

bool
writeAll(int fd, const char *data, std::size_t len, std::string *err)
{
    while (len > 0) {
        // MSG_NOSIGNAL: a peer that closed mid-response must surface
        // as an error return, not kill the server with SIGPIPE.
        const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (err)
                *err = std::string("send: ") + std::strerror(errno);
            return false;
        }
        data += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

/** @return 1 on success, 0 on clean EOF at a frame boundary, -1 on
 *  error / torn read. */
int
readAll(int fd, char *data, std::size_t len, std::string *err)
{
    std::size_t got = 0;
    while (got < len) {
        const ssize_t n = ::recv(fd, data + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // SO_RCVTIMEO expired: the peer went idle (or is
                // trickling a frame slower than the deadline).
                if (err)
                    *err = "idle timeout";
                return -1;
            }
            if (err)
                *err = std::string("recv: ") + std::strerror(errno);
            return -1;
        }
        if (n == 0) {
            if (got == 0)
                return 0;
            if (err)
                *err = "connection closed mid-frame";
            return -1;
        }
        got += static_cast<std::size_t>(n);
    }
    return 1;
}

} // namespace

bool
sendFrame(int fd, const std::string &payload, std::string *err)
{
    const std::uint32_t len =
        static_cast<std::uint32_t>(payload.size());
    if (payload.size() != len) {
        if (err)
            *err = "frame too large";
        return false;
    }
    char hdr[4] = {static_cast<char>(len & 0xff),
                   static_cast<char>((len >> 8) & 0xff),
                   static_cast<char>((len >> 16) & 0xff),
                   static_cast<char>((len >> 24) & 0xff)};
    return writeAll(fd, hdr, sizeof hdr, err) &&
           writeAll(fd, payload.data(), payload.size(), err);
}

bool
recvFrame(int fd, std::string &payload, std::uint32_t maxBytes,
          std::string *err)
{
    char hdr[4];
    const int r = readAll(fd, hdr, sizeof hdr, err);
    if (r == 0) {
        if (err)
            *err = ""; // clean EOF: peer is done
        return false;
    }
    if (r < 0)
        return false;
    const std::uint32_t len =
        static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[0])) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[1]))
         << 8) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[2]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[3]))
         << 24);
    if (len > maxBytes) {
        // A corrupt length prefix cannot be resynchronized; the
        // caller must drop the connection.
        if (err)
            *err = "frame length " + std::to_string(len) +
                   " exceeds cap " + std::to_string(maxBytes);
        return false;
    }
    payload.resize(len);
    if (len > 0 && readAll(fd, &payload[0], len, err) != 1)
        return false;
    return true;
}

int
connectUnix(const std::string &path, std::string *err)
{
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof addr.sun_path) {
        if (err)
            *err = "socket path too long: " + path;
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        if (err)
            *err = std::string("socket: ") + std::strerror(errno);
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        if (err)
            *err = "connect " + path + ": " + std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

// --- Request / response JSON ------------------------------------------

std::string
buildShardRequest(const std::vector<std::string> &args)
{
    std::string s = "{\n  \"qramsim_shard_request\": 1,\n"
                    "  \"args\": ";
    json::appendStringArray(s, args);
    s += "\n}\n";
    return s;
}

bool
parseShardRequest(const std::string &text,
                  std::vector<std::string> &args, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    args.clear();
    json::Cursor c(text);
    if (!c.consume('{'))
        return fail("not a JSON object");
    bool sawMagic = false, sawArgs = false;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return fail(c.err.empty() ? "expected key" : c.err);
            bool ok = true;
            if (key == "qramsim_shard_request") {
                std::uint64_t u = 0;
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "args") {
                ok = c.parseStringArray(args);
                sawArgs = ok;
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
        return fail("missing qramsim_shard_request marker");
    if (!sawArgs)
        return fail("missing args");
    return true;
}

std::string
buildShardResponse(const ShardResponse &r)
{
    std::string s = "{\n  \"qramsim_shard_response\": 1,\n"
                    "  \"status\": ";
    s += std::to_string(r.status);
    s += ",\n  \"cache\": ";
    json::appendEscaped(s, r.cache);
    s += ",\n  \"setup_seconds\": ";
    json::appendDouble(s, r.setupSeconds);
    s += ",\n  \"compute_seconds\": ";
    json::appendDouble(s, r.computeSeconds);
    s += ",\n  \"error\": ";
    json::appendEscaped(s, r.error);
    s += ",\n  \"payload\": ";
    json::appendEscaped(s, r.payload);
    s += "\n}\n";
    return s;
}

bool
parseShardResponse(const std::string &text, ShardResponse &out,
                   std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    out = ShardResponse{};
    json::Cursor c(text);
    if (!c.consume('{'))
        return fail("not a JSON object");
    bool sawMagic = false, sawStatus = false;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return fail(c.err.empty() ? "expected key" : c.err);
            bool ok = true;
            std::uint64_t u = 0;
            if (key == "qramsim_shard_response") {
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "status") {
                ok = c.parseU64(u) && u <= 255;
                out.status = static_cast<int>(u);
                sawStatus = ok;
            } else if (key == "cache") {
                ok = c.parseString(out.cache);
            } else if (key == "setup_seconds") {
                ok = c.parseNumber(out.setupSeconds);
            } else if (key == "compute_seconds") {
                ok = c.parseNumber(out.computeSeconds);
            } else if (key == "error") {
                ok = c.parseString(out.error);
            } else if (key == "payload") {
                ok = c.parseString(out.payload);
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
        return fail("missing qramsim_shard_response marker");
    if (!sawStatus)
        return fail("missing status");
    if (out.setupSeconds < 0.0 || out.computeSeconds < 0.0)
        return fail("negative timing");
    if (out.status == 0 && out.payload.empty())
        return fail("ok response without payload");
    return true;
}

// --- Server ------------------------------------------------------------

namespace {

/** One resident entry: the circuit must outlive the estimator that
 *  compiled it, hence the member order. */
struct CompiledEntry
{
    QueryCircuit qc;
    std::unique_ptr<FidelityEstimator> est;
};

/** The resident-estimator identity: everything that changes the
 *  OBJECT (not the result — results are engine-invariant, which is
 *  why the engine is absent from the result key). The engine enters
 *  as the resolved pin, so "--engine ensemble" and no --engine share
 *  one estimator. */
std::string
compiledCacheKey(const tool::RunOptions &opt, ReplayPin replay)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "arch=%s;m=%u;k=%u;mem-seed=%llu;engine=%s",
                  opt.w.arch.c_str(), opt.w.m, opt.w.k,
                  static_cast<unsigned long long>(opt.w.memSeed),
                  replay == ReplayPin::Scalar ? "scalar" : "ensemble");
    return buf;
}

bool
validPartialPayload(const std::string &payload)
{
    PartialEstimate part;
    return PartialEstimate::fromJson(payload, part);
}

} // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), pool_(resolveThreads(cfg_.threads)),
      compiled_(cfg_.compiledCapacity),
      results_(cfg_.resultCapacity, cfg_.spillDir,
               &validPartialPayload, cfg_.spillCapBytes)
{
}

Server::~Server() { stop(); }

bool
Server::start(std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    std::lock_guard<std::mutex> lk(mu_);
    if (running_)
        return fail("server already running");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.empty() ||
        cfg_.socketPath.size() >= sizeof addr.sun_path)
        return fail("socket path too long: " + cfg_.socketPath);
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(),
                cfg_.socketPath.size() + 1);
    // A stale socket file from a crashed predecessor would make bind
    // fail forever; unlink is safe because a LIVE server would have
    // made this bind fail with EADDRINUSE anyway.
    ::unlink(cfg_.socketPath.c_str());
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return fail(std::string("socket: ") + std::strerror(errno));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, cfg_.backlog) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        return fail("bind/listen " + cfg_.socketPath + ": " + reason);
    }
    listenFd_ = fd;
    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_ && listenFd_ < 0 && connThreads_.empty())
            return;
        running_ = false;
        if (listenFd_ >= 0) {
            // shutdown() forces the blocking accept() to return on
            // every platform close() alone does not.
            ::shutdown(listenFd_, SHUT_RDWR);
            ::close(listenFd_);
            listenFd_ = -1;
        }
        for (int fd : liveFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    std::vector<std::thread> conns;
    {
        std::lock_guard<std::mutex> lk(mu_);
        conns.swap(connThreads_);
    }
    for (std::thread &t : conns)
        if (t.joinable())
            t.join();
    ::unlink(cfg_.socketPath.c_str());
}

void
Server::acceptLoop()
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
            return; // listen socket shut down (stop) or broken
        }
        std::lock_guard<std::mutex> lk(mu_);
        if (!running_) {
            ::close(fd);
            return;
        }
        liveFds_.push_back(fd);
        connThreads_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
Server::serveConnection(int fd)
{
    if (cfg_.idleTimeoutSec > 0.0) {
        // Slow-loris defense: a connection holding a thread must make
        // frame progress. SO_RCVTIMEO bounds each recv(), which
        // bounds a silent peer; readAll maps the expiry to the "idle
        // timeout" reason counted below.
        timeval tv;
        tv.tv_sec = static_cast<time_t>(cfg_.idleTimeoutSec);
        tv.tv_usec = static_cast<suseconds_t>(
            (cfg_.idleTimeoutSec - static_cast<double>(tv.tv_sec)) *
            1e6);
        if (tv.tv_sec == 0 && tv.tv_usec == 0)
            tv.tv_usec = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    }
    std::string frame;
    for (;;) {
        std::string err;
        if (!recvFrame(fd, frame, cfg_.maxFrameBytes, &err)) {
            // clean EOF, torn frame, oversized prefix, or idle peer
            if (err == "idle timeout") {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.transportTimeouts;
            }
            break;
        }
        std::vector<std::string> args;
        ShardResponse resp;
        if (!parseShardRequest(frame, args, &err)) {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.badRequests;
            resp.status = 2;
            resp.error = "bad request: " + err;
        } else {
            resp = handle(args);
        }
        if (!sendFrame(fd, buildShardResponse(resp)))
            break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < liveFds_.size(); ++i) {
        if (liveFds_[i] == fd) {
            liveFds_[i] = liveFds_.back();
            liveFds_.pop_back();
            break;
        }
    }
}

ShardResponse
Server::handle(const std::vector<std::string> &args)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.requests;
    }
    auto usage = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.usageErrors;
        ShardResponse r;
        r.status = 2;
        r.error = why;
        return r;
    };
    auto transient = [&](const std::string &why) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.failures;
        ShardResponse r;
        r.status = 3;
        r.error = why;
        return r;
    };

    // parseRunFlags wants the worker's argv shape; the copies keep
    // the request immutable.
    std::vector<std::string> copy(args);
    std::vector<char *> argv;
    argv.reserve(copy.size());
    for (std::string &a : copy)
        argv.push_back(&a[0]);
    tool::RunOptions opt;
    if (!tool::parseRunFlags(static_cast<int>(argv.size()),
                             argv.data(), opt))
        return usage("bad shard flags");

    // Validation the CLI worker defers to std::exit(2) / panic paths:
    // a resident server must refuse, not die.
    std::string why;
    if (!opt.w.validate(&why))
        return usage(why);
    if (!opt.tier.empty())
        return usage("--tier is process-global state; the server "
                     "refuses tier pins (results are tier-invariant)");
    if (opt.w.addressWidth() > cfg_.maxAddressWidth)
        return usage("workload address width " +
                     std::to_string(opt.w.addressWidth()) +
                     " exceeds server cap " +
                     std::to_string(cfg_.maxAddressWidth));
    if (opt.shots > cfg_.maxShots)
        return usage("shot budget exceeds server cap " +
                     std::to_string(cfg_.maxShots));

    ShardSpec spec;
    if (!tool::cutShardSpec(opt, spec, &why))
        return usage(why);

    const std::string key = tool::resultCacheKey(opt, spec);
    ShardResponse resp;
    switch (results_.acquire(key, resp.payload)) {
      case ResultCache::Outcome::Hit:
        resp.cache = "result";
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.resultHits;
        }
        return resp;
      case ResultCache::Outcome::SpillHit:
        resp.cache = "spill";
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.resultHits;
        }
        return resp;
      case ResultCache::Outcome::Coalesced:
        resp.cache = "coalesced";
        {
            std::lock_guard<std::mutex> lk(mu_);
            ++stats_.resultCoalesced;
        }
        return resp;
      case ResultCache::Outcome::MustCompute:
        break; // this request owns the claim: publish or abandon
    }

    CompiledCache::Result res;
    const bool built = compiled_.acquire(
        compiledCacheKey(opt, spec.replay),
        [&](std::string *berr) -> std::shared_ptr<void> {
            try {
                auto e = std::make_shared<CompiledEntry>();
                e->qc = opt.w.build(); // names pre-validated: no exit
                e->est = std::make_unique<FidelityEstimator>(
                    e->qc.circuit, e->qc.addressQubits, e->qc.busQubit,
                    AddressSuperposition::uniform(
                        opt.w.addressWidth()));
                // Engine pins mutate the estimator, which is only
                // legal here, before the entry is shared: once
                // resident it runs concurrent disjoint shards.
                applyShardPins(*e->est, spec);
                return e;
            } catch (const std::exception &ex) {
                if (berr)
                    *berr = ex.what();
                return nullptr;
            }
        },
        res, &why);
    if (!built) {
        results_.abandon(key);
        return transient("estimator build failed: " + why);
    }
    auto entry = std::static_pointer_cast<CompiledEntry>(res.payload);

    try {
        std::unique_ptr<NoiseModel> noise = opt.w.makeNoise();
        spec.pool = &pool_; // one shared pool across all requests
        PartialEstimate part = entry->est->runShard(*noise, spec);
        part.workload = opt.w.fingerprint(opt.shots);
        part.setupSeconds = res.buildSeconds;
        resp.payload = part.toJson();
        results_.publish(key, resp.payload);
        resp.cache = res.built ? "cold" : "compiled";
        resp.setupSeconds = res.buildSeconds;
        resp.computeSeconds = part.computeSeconds;
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.computed;
        if (res.built)
            ++stats_.compiledBuilds;
        return resp;
    } catch (const std::exception &ex) {
        results_.abandon(key);
        return transient(std::string("shard evaluation failed: ") +
                         ex.what());
    }
}

Server::Stats
Server::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

} // namespace srv
} // namespace qramsim
