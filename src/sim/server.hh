/**
 * @file
 * The resident shard executor that `qramsim_server --broker` runs,
 * and the frame helpers the broker protocol rides on.
 *
 * ## Why a resident executor
 *
 * Every `qramsim_shard run` recompiles the circuit and rebuilds the
 * estimator's ideal/checkpoint caches before evaluating one shot —
 * setup the orchestrator multiplies by shards x retries x
 * speculative duplicates. A broker worker keeps that state RESIDENT:
 * compiled circuits + estimators live across the shards it pulls in
 * a CompiledCache, finished PartialEstimate blobs in a
 * content-addressed ResultCache (cachestore.hh), so the 2nd..Nth
 * shard of a sweep pays zero setup and an identical re-request pays
 * zero compute.
 *
 * ## Requests
 *
 * Server::handle takes exactly a `qramsim_shard run` argument vector
 * (the shared parseRunFlags vocabulary, tools/workload.hh) — the
 * `args` of a broker assignment. `--out` is ignored (the result rides
 * the ShardResponse) and `--tier` is REJECTED (a SIMD tier pin is
 * process-global state a shared executor must not toggle; results are
 * tier-invariant anyway). The response's `status` reuses the ToolExit
 * contract the orchestrator and the broker classify (0 ok / 2 usage =
 * permanent / 3 transient = retryable), and a worker commits it to
 * the broker as is.
 *
 * The executor never consults QRAMSIM_FAULT — fault injection is a
 * worker-tool testing hook (qramsim_server's pull loop), and a
 * resident executor must not inherit job-scoped faults. Bad requests
 * get status 2; handle() never exits the process.
 *
 * ## Frames
 *
 * The broker's Unix-domain stream socket carries FRAMES: a 4-byte
 * little-endian unsigned payload length, then that many bytes of
 * UTF-8 JSON (sim/broker.hh).
 */

#ifndef QRAMSIM_SIM_SERVER_HH
#define QRAMSIM_SIM_SERVER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/threadpool.hh"
#include "sim/cachestore.hh"

namespace qramsim {
namespace srv {

// --- Framing -----------------------------------------------------------

/** Default cap on one frame's payload (request or response). Partial
 *  blobs carry per-shot rows, so this is generous by design. */
constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/** Write one length-prefixed frame. False (with reason) on any short
 *  write or peer reset; never raises SIGPIPE. */
bool sendFrame(int fd, const std::string &payload,
               std::string *err = nullptr);

/**
 * Read one frame. False on EOF, short read, or a length prefix
 * exceeding @p maxBytes (a corrupt or hostile peer — the caller
 * closes the connection, it cannot resynchronize). Clean EOF before
 * any byte sets @p err to "" so callers can tell "peer done" from
 * "torn frame"; an expired SO_RCVTIMEO on @p fd sets it to
 * "idle timeout".
 */
bool recvFrame(int fd, std::string &payload, std::uint32_t maxBytes,
               std::string *err = nullptr);

/** Connect to a Unix-domain stream socket. Returns the fd or -1 with
 *  the reason in @p err. */
int connectUnix(const std::string &path, std::string *err = nullptr);

// --- Server ------------------------------------------------------------

/** What one handle() call produced. */
struct ShardResponse
{
    /** ToolExit semantics: 0 ok, 2 usage (permanent), 3 transient
     *  (retryable). */
    int status = 0;
    /** How the payload was produced: "result" (memory hit), "spill"
     *  (validated disk blob), "coalesced" (waited on an identical
     *  in-flight request), "compiled" (computed on a resident
     *  estimator), "cold" (computed after a full build); "" on
     *  error. */
    std::string cache;
    /** Setup cost THIS request paid (estimator build; 0 on a warm
     *  hit) and the shard evaluation wall time (0 when served from
     *  any cache). */
    double setupSeconds = 0.0;
    double computeSeconds = 0.0;
    std::string error;
    /** PartialEstimate JSON when status == 0. */
    std::string payload;
};

struct ServerConfig
{
    /** Estimation ThreadPool size (0 = hardware concurrency). ONE
     *  pool is shared by every request via ShardSpec::pool — the
     *  resident process bounds compute, not the request. */
    unsigned threads = 0;
    /** Resident circuit+estimator entries (LRU). */
    std::size_t compiledCapacity = 8;
    /** In-memory result blobs (LRU). */
    std::size_t resultCapacity = 256;
    /** Result spill directory; "" disables the on-disk cache. */
    std::string spillDir;
    /** Spill-directory size cap in bytes; the cache sweeps the
     *  directory LRU-by-mtime on startup and after each spill write
     *  (0 = unbounded, the pre-cap behaviour). */
    std::size_t spillCapBytes = 256u << 20;
    /** Reject workloads wider than this (address width ~ state
     *  cost); a shared server must bound one request's footprint. */
    unsigned maxAddressWidth = 24;
    /** Reject jobs over this raw shot/draw budget. */
    std::size_t maxShots = std::size_t(1) << 24;
};

class Server
{
  public:
    explicit Server(ServerConfig cfg);

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Execute one request: validate it, then serve it from the result
     * cache or compute it on a resident estimator. Thread-safe; every
     * call shares one estimation pool.
     */
    ShardResponse handle(const std::vector<std::string> &args);

    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t usageErrors = 0; ///< status 2
        std::uint64_t failures = 0;    ///< status 3
        std::uint64_t resultHits = 0;  ///< "result" + "spill"
        std::uint64_t resultCoalesced = 0;
        std::uint64_t computed = 0;    ///< "compiled" + "cold"
        std::uint64_t compiledBuilds = 0; ///< "cold"
    };
    Stats stats() const;

  private:
    ServerConfig cfg_;
    ThreadPool pool_;
    CompiledCache compiled_;
    ResultCache results_;

    mutable std::mutex mu_;
    Stats stats_;
};

} // namespace srv
} // namespace qramsim

#endif // QRAMSIM_SIM_SERVER_HH
