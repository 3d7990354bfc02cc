/**
 * @file
 * The work-stealing shard broker: a resident process that owns ONE
 * global shard queue across concurrent estimation jobs.
 *
 * ## Why a broker
 *
 * On its own, each qramsim_drive supervises a private shard queue
 * (orchestrator.hh) — so a dead or slow worker stalls exactly one
 * client, and an idle worker on one job cannot help a straggling
 * shard of another. The broker inverts the topology: drives SUBMIT
 * jobs, workers (qramsim_server --broker, each running a resident
 * srv::Server) PULL shards, and the broker leases, re-dispatches, and
 * journals in between. The same
 * correctness nets apply: shards are deterministic, so every stolen
 * or duplicated shard's commit is cross-checked byte-for-byte against
 * the first (equivalentPartials, orchestrator.hh), and a job's merged
 * result is byte-identical to the undisturbed single-process run.
 *
 * ## Protocol
 *
 * Unix-domain stream socket carrying the srv:: frame format (4-byte
 * LE length + JSON). Every message is a flat JSON object with the
 * magic key `"qramsim_broker": 1` and a `"type"`; each connection is
 * strictly request/response (workers and clients use short-lived
 * connections, one round trip each, so a worker's heartbeat thread
 * never contends with its compute loop on a socket). Each connection
 * gets a thread, joined after it finishes, and a connection that sends
 * nothing for workerDeadSec is closed (Stats::transportTimeouts).
 *
 * Worker-facing types (worker identity is a caller-chosen name, e.g.
 * "w<pid>"; the broker auto-registers unknown names on ANY contact,
 * which is how a restarted broker re-adopts live workers with no
 * special handshake):
 *
 *   register            -> registered {heartbeat_seconds, poll_seconds}
 *   pull {worker, poll_seconds}
 *                       -> assign {lease, job, shard, nshards, args[]}
 *                        | idle
 *   heartbeat {worker, lease, progress}
 *                       -> ok {cancel}   (lease 0 = liveness only)
 *   commit {worker, lease, job, shard, status, error, payload}
 *                       -> ok {accepted, duplicate}
 *
 * Client-facing types:
 *
 *   submit {args[], nshards, fingerprint}
 *                       -> job {job, total, resumed, poll_seconds,
 *                               dead_seconds}
 *   poll {job, progress, poll_seconds}
 *                       -> status {total, done[], failed[], complete,
 *                                  job_failed, progress}
 *   fetch {job, shard}  -> result {shard, payload} | pending | error
 *
 * ## Long-poll
 *
 * A `pull` or `poll` carrying `poll_seconds` > 0 parks on the broker
 * until its answer would change, for at most min(poll_seconds, the
 * broker's cap). The cap is BrokerConfig::pollSec, held to half the
 * dead-worker deadline so a parked worker never looks dead, and is
 * announced as `poll_seconds` in `registered` and `job`. A parked pull
 * wakes when the queue or a job changes, and when the housekeeping
 * tick finds a lease overdue for a queue-empty steal. A poll's
 * `progress` echoes the job's transition count from the last `status`
 * (commits, failures and requeues so far); the poll parks while that
 * count has not moved and answers at once when it is stale. Without
 * `poll_seconds` both answer at once.
 *
 * A drive whose parked poll loses its connection (a broker SIGKILLed
 * and restarted with resume) re-polls the same job, with `progress`
 * 0, for the `dead_seconds` its `job` response announced (the broker's
 * dead-worker deadline), and only then falls back to fork/exec.
 *
 * ## Leases and stealing
 *
 * Every assignment holds the shard under a lease whose duration is
 * the straggler-scaled median of completed-shard durations (base
 * leaseBaseSec until stragglerMinDone completions exist). A
 * heartbeat carrying the lease renews the deadline only when its
 * progress counter advanced — a stalled worker that still heartbeats
 * loses the lease on schedule. A missed worker heartbeat
 * (workerDeadSec) or an expired lease returns the shard to the queue
 * for re-dispatch; when the queue is empty, an idle pull may
 * speculatively duplicate the oldest in-flight lease past the
 * straggler threshold (cross-job stealing). First VALID commit wins;
 * later commits are duplicates and must be byte-equivalent.
 *
 * ## Journal
 *
 * With a state dir configured the broker appends every accepted
 * state transition (job admitted / shard committed / shard failed /
 * job done) to `<state>/journal.jsonl`: one line per entry,
 * `{"qramsim_broker_journal":1,"seq":N,"hash":"<16hex>","body":"…"}`
 * where hash = fnv1a64("<seq>:" + body). Appends are O_APPEND +
 * fsync (knob: atomicFileFsync). Compaction rewrites the file as a
 * snapshot of live state, streamed line by line through
 * atomicWriteWith, and runs only once the file outgrows
 * max(rotateBytes, 2 x the last snapshot), so its cost stays
 * proportional to the appends between two snapshots. The loader is
 * hardened like the orchestrator's manifest loader: a torn FINAL line
 * (the SIGKILL-mid-write shape) is dropped and counted; any bad line
 * before the tail is tampering and rejects the whole journal.
 * Replayed commit payloads are re-validated against the job's plan
 * before being trusted; invalid ones are dropped and recomputed.
 *
 * A settled shard's payload lives only in the journal: the broker
 * keeps the offset and length of its commit line and reads it back
 * with pread for fetch, the duplicate cross-check and compaction. A
 * read-back line is served only if it parses, its hash matches and it
 * is that job's and shard's commit; otherwise the shard is requeued
 * and recomputed (Stats::journalBadReads), the same rule replay
 * applies to a payload it cannot vouch for. A payload whose append
 * failed or fell short stays in memory, and so does every payload
 * of a broker without a state dir.
 *
 * ## Faults
 *
 * The broker consults QRAMSIM_FAULT for exactly one kind —
 * journal-truncate, which tears the journal line committing the
 * selected shard and SIGKILLs the broker (the deterministic
 * crash-recovery drill). The worker-side kinds (kill-on-pull,
 * drop-heartbeat, lease-stall) live in qramsim_server's broker
 * worker loop; the resident executor it runs (sim/server.hh) never
 * consults faults.
 */

#ifndef QRAMSIM_SIM_BROKER_HH
#define QRAMSIM_SIM_BROKER_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "sim/server.hh"
#include "sim/sharding.hh"

namespace qramsim {
namespace brk {

// --- Wire messages -----------------------------------------------------

/**
 * One broker protocol message (either direction). Flat by design so
 * the hardened json::Cursor covers it; every field is emitted by
 * buildMsg and round-trips through parseMsg. Booleans travel as 0/1.
 */
struct Msg
{
    std::string type; ///< required
    std::string worker, job, fingerprint, error, payload;
    std::uint64_t lease = 0;
    std::uint64_t shard = 0;
    std::uint64_t nshards = 0; ///< requested N (worker --shard i/N)
    std::uint64_t total = 0;   ///< actual planned shard count
    std::uint64_t status = 0;  ///< ToolExit semantics
    std::uint64_t progress = 0;
    std::uint64_t cancel = 0, accepted = 0, duplicate = 0;
    std::uint64_t resumed = 0, complete = 0, jobFailed = 0;
    double heartbeatSec = 0.0;
    /** Requests: the longest the caller lets a pull or poll park (0 =
     *  answer at once). `registered` and `job`: the broker's cap. */
    double pollSec = 0.0;
    /** `job`: how long a client keeps re-polling a broker it lost. */
    double deadSec = 0.0;
    std::vector<std::string> args;
    std::vector<double> done, failed;
};

std::string buildMsg(const Msg &m);
bool parseMsg(const std::string &json, Msg &out,
              std::string *err = nullptr);

/** One framed request/response round trip over a fresh connection to
 *  @p socketPath. False (with reason) on any transport failure. */
bool roundTrip(const std::string &socketPath, const Msg &req,
               Msg &resp, std::string *err = nullptr);

// --- Journal -----------------------------------------------------------

struct JournalEntry
{
    std::uint64_t seq = 0;
    std::string body; ///< one flat JSON object (see broker.cc)
};

/** `{"qramsim_broker_journal":1,"seq":N,"hash":"…","body":"…"}\n`. */
std::string buildJournalLine(std::uint64_t seq,
                             const std::string &body);

/**
 * Parse a whole journal text. Lines must carry consecutive seq
 * numbers starting at the first line's and matching hashes. A bad or
 * torn FINAL line is dropped (counted in @p droppedTail) — that is
 * what a crash mid-append legitimately leaves. A bad line with more
 * lines after it is tampering: false with the reason in @p err.
 */
bool parseJournal(const std::string &text,
                  std::vector<JournalEntry> &out,
                  std::size_t *droppedTail = nullptr,
                  std::string *err = nullptr);

// --- Broker ------------------------------------------------------------

struct BrokerConfig
{
    std::string socketPath; ///< "" = no socket (in-process tests)

    /** Journal directory; "" disables persistence. */
    std::string stateDir;

    /** Replay an existing journal on start (otherwise a leftover
     *  journal is an error — refusing beats silently recomputing). */
    bool resume = false;

    /** Heartbeat interval announced to workers. */
    double heartbeatSec = 1.0;

    /** A worker silent for this long is dead and its leases return
     *  to the queue (0 = 3 * heartbeatSec). Also each connection's
     *  idle deadline: one that sends no frame for this long is
     *  closed. */
    double workerDeadSec = 0.0;

    /** Lease duration until enough completions exist to scale. */
    double leaseBaseSec = 30.0;

    /** Lease duration and steal threshold = stragglerFactor * median
     *  completed duration, once stragglerMinDone completions exist. */
    double stragglerFactor = 3.0;
    std::size_t stragglerMinDone = 3;

    /** Dispatch attempts per shard before it is failed. */
    unsigned maxAttempts = 3;

    /** Park a job no client has polled for this long (0 = never);
     *  parked jobs stop dispatching until the client returns. */
    double parkAfterSec = 60.0;

    /** Longest a pull or poll carrying poll_seconds parks (also held
     *  to half of the dead-worker deadline). */
    double pollSec = 0.5;

    /** Compact the journal once it outgrows max(this, 2 x the last
     *  snapshot). */
    std::size_t rotateBytes = std::size_t(4) << 20;

    std::uint32_t maxFrameBytes = srv::kDefaultMaxFrameBytes;
    int backlog = 64;
};

class Broker
{
  public:
    explicit Broker(BrokerConfig cfg);
    ~Broker();

    Broker(const Broker &) = delete;
    Broker &operator=(const Broker &) = delete;

    /** Replay/compact the journal (stateDir mode), bind the socket
     *  (socketPath mode), start the housekeeping + accept threads. */
    bool start(std::string *err = nullptr);

    /** Stop serving, join threads, unlink the socket. Idempotent. */
    void stop();

    /**
     * Dispatch one request frame and return the response frame — the
     * full protocol logic without a socket. Exposed for tests; the
     * socket path is recvFrame -> handleMessage -> sendFrame.
     */
    std::string handleMessage(const std::string &frame);

    struct Stats
    {
        std::uint64_t jobsSubmitted = 0;
        std::uint64_t jobsResumed = 0; ///< re-submits adopting state
        std::uint64_t jobsCompleted = 0;
        std::uint64_t jobsParked = 0;
        std::uint64_t assignments = 0;
        std::uint64_t speculativeAssignments = 0; ///< queue-empty steals
        std::uint64_t redispatches = 0; ///< re-assignment of a shard
        std::uint64_t steals = 0; ///< re-assignment to a NEW worker
        std::uint64_t leaseExpiries = 0;
        std::uint64_t deadWorkers = 0;
        std::uint64_t commitsAccepted = 0;
        std::uint64_t commitsRejected = 0; ///< invalid payloads
        std::uint64_t shardsFailed = 0;
        std::uint64_t duplicateCommits = 0;
        std::uint64_t duplicateMatches = 0;
        std::uint64_t duplicateMismatches = 0;
        std::uint64_t journalReplayedCommits = 0;
        std::uint64_t journalDroppedEntries = 0;
        std::uint64_t journalCompactions = 0; ///< start-up one included
        /** Settled payloads whose journal line failed the read-back
         *  check; each shard was requeued. */
        std::uint64_t journalBadReads = 0;
        std::uint64_t badFrames = 0;
        std::uint64_t transportTimeouts = 0; ///< idle connections cut
        double stealLatencySecTotal = 0.0; ///< queue-return -> pickup
    };
    Stats stats() const;

    /** Flat JSON of the counters above (for --stats-out and CI). */
    std::string statsJson() const;

    /** `<stateDir>/journal.jsonl`. */
    static std::string journalPath(const std::string &stateDir);

  private:
    struct ShardState;
    struct Job;
    struct Lease;
    struct Worker;
    struct QueueEntry;

    /** One accepted connection and the thread serving it. */
    struct Conn
    {
        std::thread thread;
        int fd = -1; ///< -1 once the connection is finished
    };

    using Clock = std::chrono::steady_clock;

    /** workerDeadSec with its default applied. */
    double deadSec() const;
    /** The longest a pull or poll may park. */
    double parkCapSec() const;
    void acceptLoop();
    void serveConnection(Conn &conn);
    void housekeepingLoop();
    void tickLocked(Clock::time_point now);

    Msg handleLocked(const Msg &req, Clock::time_point now);
    Msg handleRegister(const Msg &req, Clock::time_point now);
    Msg handlePull(const Msg &req, Clock::time_point now);
    Msg handleHeartbeat(const Msg &req, Clock::time_point now);
    Msg handleCommit(const Msg &req, Clock::time_point now);
    Msg handleSubmit(const Msg &req, Clock::time_point now);
    Msg handlePoll(const Msg &req, Clock::time_point now);
    Msg handleFetch(const Msg &req, Clock::time_point now);

    Worker &touchWorkerLocked(const std::string &name,
                              Clock::time_point now);
    double leaseDurationLocked() const;
    /** The lease an idle @p worker may speculatively duplicate, or
     *  null. */
    const Lease *stealVictimLocked(const std::string &worker,
                                   Clock::time_point now) const;
    void returnShardLocked(const std::string &jobId, std::size_t shard,
                           Clock::time_point now);
    void dropLeaseLocked(std::uint64_t leaseId);
    void acceptCommitLocked(Job &job, std::size_t shard,
                            const std::string &payload,
                            Clock::time_point now);
    void failShardLocked(Job &job, std::size_t shard,
                         const std::string &why);
    /** A settled shard's payload: from memory, or read back from its
     *  journal line. A line that fails the check requeues the shard
     *  and returns false. */
    bool settledPayloadLocked(Job &job, std::size_t shard,
                              std::string &out);
    bool replayLocked(const std::string &text, std::string *err);
    /** Append one entry. When it is @p committed's commit line and it
     *  lands whole, the shard keeps only the line's place. */
    void appendEntryLocked(const std::string &body,
                           std::size_t faultShotBegin,
                           std::size_t faultShotEnd,
                           ShardState *committed = nullptr);
    void compactLocked(std::string *err = nullptr);

    BrokerConfig cfg_;
    std::vector<fault::Spec> faults_; ///< journal-truncate only

    mutable std::mutex mu_;
    /** Parked pulls and polls wait here for a state change. */
    std::condition_variable changed_;
    bool stopping_ = false; ///< set by stop(): nothing parks any more
    std::map<std::string, Job> jobs_; ///< ordered: deterministic scans
    std::map<std::string, Worker> workers_;
    std::map<std::uint64_t, Lease> leases_;
    std::deque<QueueEntry> queue_;
    std::vector<double> doneDurations_; ///< sorted lease-scaling history
    std::uint64_t nextLease_ = 1;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t journalBytes_ = 0;  ///< bytes in the journal file
    std::uint64_t snapshotBytes_ = 0; ///< size of the last snapshot
    int journalFd_ = -1; ///< O_RDWR | O_APPEND: appends and read-backs
    Stats stats_;

    int listenFd_ = -1;
    bool running_ = false;
    std::thread acceptThread_;
    std::thread housekeepingThread_;
    std::list<Conn> conns_; ///< list: a serving thread holds its node
};

} // namespace brk
} // namespace qramsim

#endif // QRAMSIM_SIM_BROKER_HH
