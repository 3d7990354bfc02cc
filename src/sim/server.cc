/**
 * @file
 * See server.hh for the request and caching contract. Layout: framing
 * helpers (raw fd I/O, EINTR-safe, SIGPIPE-free), then the Server's
 * handle(), where the two cache layers meet the estimator.
 */

#include "sim/server.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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
        // as an error return, not kill the process with SIGPIPE.
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
 *  OBJECT, the compiled circuit and its checkpoints. */
std::string
compiledCacheKey(const tool::RunOptions &opt)
{
    char buf[192];
    std::snprintf(buf, sizeof buf, "arch=%s;m=%u;k=%u;mem-seed=%llu",
                  opt.w.arch.c_str(), opt.w.m, opt.w.k,
                  static_cast<unsigned long long>(opt.w.memSeed));
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
    tool::cutShardSpec(opt, spec);

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
        compiledCacheKey(opt),
        [&](std::string *berr) -> std::shared_ptr<void> {
            try {
                auto e = std::make_shared<CompiledEntry>();
                e->qc = opt.w.build(); // names pre-validated: no exit
                e->est = std::make_unique<FidelityEstimator>(
                    e->qc.circuit, e->qc.addressQubits, e->qc.busQubit,
                    AddressSuperposition::uniform(
                        opt.w.addressWidth()));
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
