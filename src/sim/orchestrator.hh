/**
 * @file
 * Fault-tolerant orchestration of a sharded sweep: the supervision
 * layer between "a CLI that can run one shard" (tools/qramsim_shard)
 * and "a job that survives its workers".
 *
 * PR 4 made the estimation subsystem distributable (SweepPlan →
 * runShard → PartialEstimate, bit-identical under every partition and
 * merge order), but left supervision to the job runner: one crashed,
 * stalled, or truncating worker lost the whole sweep, and every retry
 * recomputed from shot zero. The Orchestrator closes that gap by
 * exploiting what PartialEstimate already is — a serializable,
 * mergeable, deterministic unit — as a durable checkpoint:
 *
 *  - **Dispatch** — shards run as `qramsim_shard run` subprocesses
 *    (up to `workers` at a time), or through an in-process runner for
 *    pool-lane execution without fork/exec. Every live attempt is a
 *    child process, so the event loop waits on children only.
 *    (`qramsim_drive --broker` runs its broker phase BEFORE the
 *    orchestrator; brokered shards arrive as checkpoints.)
 *  - **Checkpoint** — each validated partial is committed to the job
 *    directory by write-temp-then-rename (common/atomicfile.hh), so
 *    the directory only ever holds complete-or-absent checkpoints and
 *    a killed job resumes (`resume = true`) by recomputing exactly
 *    the unfinished shards. Checkpoints are revalidated on load
 *    (PartialEstimate::fromJson re-derives and cross-checks the
 *    summary sums), so a corrupted file is recomputed, not merged.
 *  - **Retry** — worker failures are classified by wait status
 *    (classifyWaitStatus): I/O errors, injected faults, signal
 *    deaths, and invalid/truncated output retry with exponential
 *    backoff and deterministic jitter (backoffDelayMs, CounterRng —
 *    reproducible schedules, testable as pure math); usage and
 *    runtime errors are permanent. Attempts are bounded; a shard that
 *    exhausts them degrades the job gracefully: the report names the
 *    missing shards, every completed checkpoint survives, and a later
 *    resume continues from there.
 *  - **Stragglers** — once enough shards have completed to estimate a
 *    typical duration, an attempt running longer than
 *    `stragglerFactor`× the median is speculatively re-dispatched.
 *    Shards are deterministic, so when both attempts complete the two
 *    partials are compared byte for byte before deduplication —
 *    speculation doubles as a free end-to-end integrity check. A hard
 *    per-attempt deadline (`shardDeadlineSec`) additionally kills
 *    hung workers outright.
 *
 * Job directory layout (all writes atomic):
 *
 *   <job>/manifest.json   plan geometry + per-shard attempt counters
 *                         and states (resume validates it against the
 *                         requested job before trusting checkpoints)
 *   <job>/shard-<i>.json  committed PartialEstimate checkpoints
 *   <job>/result.json     merged FidelityResult JSON (complete jobs;
 *                         byte-identical to a fault-free
 *                         single-process run of the same workload)
 *   <job>/report.json     orchestration report (missing shards,
 *                         retries, duplicate-check outcomes)
 *   <job>/tmp/, logs/     per-attempt worker output and stderr
 *
 * Every failure mode above is deterministically injectable in the
 * workers via QRAMSIM_FAULT (common/fault.hh) and exercised by
 * tests/test_orchestrator.cc and the CI fault-injection leg.
 */

#ifndef QRAMSIM_SIM_ORCHESTRATOR_HH
#define QRAMSIM_SIM_ORCHESTRATOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sharding.hh"

namespace qramsim {

/**
 * Exit-code contract of the shard tools (qramsim_shard, and
 * qramsim_drive itself). The orchestrator's retry classifier depends
 * on workers distinguishing "retrying might help" from "it will not":
 *
 *   0  success
 *   2  usage — unknown flag, malformed value, unknown workload;
 *      permanent (the relaunched command line would be just as wrong)
 *   3  I/O — a file could not be read or written; retryable
 *      (transient disk/NFS conditions are the common cause)
 *   4  runtime — inputs read fine but are invalid (unparsable
 *      partial, merge mismatch); permanent
 *   5  injected fault (the default of QRAMSIM_FAULT's `exit` kind);
 *      retryable
 *
 * Any other nonzero exit and any signal death is treated as
 * retryable: crashes are exactly what the supervisor exists for.
 */
enum ToolExit : int
{
    kToolExitOk = 0,
    kToolExitUsage = 2,
    kToolExitIo = 3,
    kToolExitRuntime = 4,
    kToolExitFault = 5,
};

/** What a finished worker attempt means for the shard. */
enum class WorkerOutcome : std::uint8_t
{
    Success,   ///< exit 0 — output still gets validated
    Retryable, ///< transient by contract (I/O, fault, crash, unknown)
    Permanent, ///< retrying cannot help (usage, runtime)
};

struct ExitClass
{
    WorkerOutcome outcome;
    std::string detail; ///< "exit code 3", "killed by signal 9", ...
};

/** Map a waitpid() status to the retry classification above. */
ExitClass classifyWaitStatus(int status);

/** Map a bare ToolExit code (a worker's exit code, or the `status`
 *  of a broker commit — the wire format reuses the contract) to the
 *  same classification. */
ExitClass classifyExitCode(int code);

/** Retry, deadline, and straggler policy of one orchestrated job. */
struct RetryPolicy
{
    /** Dispatch attempts per shard (>= 1) before the shard is
     *  reported missing. Speculative duplicates do not count. */
    unsigned maxAttempts = 3;

    /** Backoff before retry k (1-based) is
     *  min(backoffBaseMs * backoffFactor^(k-1), backoffMaxMs),
     *  scaled by a deterministic jitter in
     *  [1 - jitterFrac/2, 1 + jitterFrac/2]. */
    double backoffBaseMs = 200.0;
    double backoffFactor = 2.0;
    double backoffMaxMs = 10000.0;
    double jitterFrac = 0.5;

    /** Hard per-attempt deadline in seconds; an attempt older than
     *  this is killed (SIGKILL) and classified retryable. 0 disables
     *  the deadline. */
    double shardDeadlineSec = 0.0;

    /** Speculative re-dispatch threshold: an attempt running longer
     *  than stragglerFactor * median(completed durations) gets a
     *  duplicate launch. 0 disables speculation. */
    double stragglerFactor = 0.0;

    /** Completed shards required before the median is trusted. */
    std::size_t stragglerMinDone = 3;

    /** Keep the job alive until outstanding duplicate attempts also
     *  finish, so every speculation ends in a byte-for-byte
     *  cross-check (otherwise losers are killed once the job is
     *  complete). */
    bool waitForDuplicates = false;
};

/**
 * The backoff delay (milliseconds) before retry @p attempt (1-based
 * count of failures so far) of @p shard. Pure: the jitter comes from
 * CounterRng(seed, shard, attempt), so a job replays the identical
 * schedule — which is what makes recovery timing testable.
 */
double backoffDelayMs(const RetryPolicy &policy, std::uint64_t seed,
                      std::size_t shard, unsigned attempt);

/**
 * Byte-for-byte equivalence of two PartialEstimate JSON payloads with
 * the setup/compute timing keys zeroed — the duplicate cross-check
 * shared by the orchestrator's straggler speculation and the broker's
 * stolen-shard commits. Unparsable payloads are never equivalent.
 */
bool equivalentPartials(const std::string &a, const std::string &b);

/**
 * The durable face of a job: plan geometry (validated on resume
 * against the requested job) plus per-shard attempt counters and
 * states. Rewritten atomically on every state transition, so a
 * killed orchestrator leaves an accurate manifest behind.
 */
struct JobManifest
{
    std::string workload; ///< canonical forwarded workload arguments
    std::size_t totalShots = 0;
    std::uint64_t seed = 0;
    ShotStream stream = ShotStream::Counter;
    std::vector<double> factors;
    std::size_t numShards = 0; ///< requested N (worker --shard i/N)

    /** Per planned shard (doubles for the JSON wire format). */
    std::vector<double> attempts;
    std::vector<double> speculative;
    std::vector<std::string> state; ///< "pending" | "done" | "failed"

    std::string toJson() const;
    static bool fromJson(const std::string &json, JobManifest &out,
                         std::string *err = nullptr);
};

/** Per-shard outcome in a DriveReport. */
struct ShardOutcome
{
    std::size_t index = 0;
    unsigned attempts = 0;    ///< cumulative across resumes
    unsigned speculative = 0; ///< duplicate launches
    bool done = false;
    bool resumed = false; ///< satisfied by a pre-existing checkpoint
    double seconds = 0.0; ///< duration of the winning attempt

    /** Setup (schedule/compile/checkpoint build) vs evaluation split
     *  of the shard, as recorded in its committed checkpoint. */
    double setupSeconds = 0.0;
    double computeSeconds = 0.0;
    std::string lastError;
};

/** What one Orchestrator::run() accomplished. */
struct DriveReport
{
    bool complete = false;
    std::vector<std::size_t> missing; ///< shards with no checkpoint
    std::vector<ShardOutcome> shards;

    std::size_t launched = 0; ///< worker processes started
    std::size_t retries = 0;
    std::size_t speculativeLaunches = 0;
    std::size_t duplicateMatches = 0;    ///< byte-identical dups
    std::size_t duplicateMismatches = 0; ///< integrity failures
    std::size_t resumedShards = 0;
    std::size_t timeouts = 0; ///< attempts killed at the deadline

    /** Broker-phase accounting (qramsim_drive --broker; carried in
     *  from OrchestratorConfig — the broker phase runs before the
     *  orchestrator and its counters ride along in report.json). */
    std::size_t brokerShards = 0; ///< checkpoints streamed from broker
    std::size_t brokerTransportFailures = 0; ///< fell back to this run

    /** Merged FidelityResult JSON (empty unless complete). */
    std::string resultJson;

    /** Fatal setup error (job dir, manifest mismatch, ...). */
    std::string error;

    /** The report.json payload. */
    std::string toJson() const;
};

/** One orchestrated job. */
struct OrchestratorConfig
{
    std::string jobDir;

    /** Worker binary (qramsim_shard). Empty selects in-process mode:
     *  shards run through inlineRunner on the calling thread (no
     *  deadlines or speculation — a subprocess can be killed, a
     *  library call cannot), with the same checkpoint/resume/retry
     *  machinery. */
    std::string workerBin;

    /** Workload flags forwarded verbatim to `qramsim_shard run`;
     *  their canonical join is the manifest's workload string. */
    std::vector<std::string> workloadArgs;

    /** Shard geometry. plan.shards.size() may be smaller than
     *  requestedShards (trailing empty ranges are dropped); workers
     *  are invoked with --shard i/requestedShards so their in-worker
     *  partition reproduces this plan exactly. */
    SweepPlan plan;
    std::size_t requestedShards = 1;

    /** Concurrent worker subprocesses. */
    unsigned workers = 2;

    RetryPolicy retry;

    /** Trust valid checkpoints already in the job directory. */
    bool resume = false;

    /** Broker-phase counters to surface in the report (the drive's
     *  broker phase fills these before handing over; the orchestrator
     *  itself never talks to a broker). */
    std::size_t brokerShards = 0;
    std::size_t brokerTransportFailures = 0;

    /** Tick of the event loop's deadline, straggler and backoff
     *  checks. A worker's exit wakes the loop at once (pidfd). */
    double pollIntervalMs = 15.0;

    /** In-process shard executor (in-process mode only). Exceptions
     *  it throws are retryable failures. */
    std::function<PartialEstimate(const ShardSpec &)> inlineRunner;
};

class Orchestrator
{
  public:
    explicit Orchestrator(OrchestratorConfig cfg);

    /** Run the job to completion or graceful degradation. Never
     *  throws on worker failure; a fatal setup problem is reported
     *  in DriveReport::error. */
    DriveReport run();

    /** `<jobDir>/shard-<i>.json`. */
    static std::string checkpointPath(const std::string &jobDir,
                                      std::size_t shard);

    /** `<jobDir>/manifest.json`. */
    static std::string manifestPath(const std::string &jobDir);

    /**
     * Load and revalidate one checkpoint: parse (fromJson re-derives
     * the redundant sums), then require the shard range and plan
     * metadata to match @p spec and the sampler version to be this
     * build's. False (with the reason in @p err) means "recompute
     * this shard".
     */
    static bool loadCheckpoint(const std::string &path,
                               const ShardSpec &spec,
                               PartialEstimate &out,
                               std::string *err = nullptr);

  private:
    OrchestratorConfig cfg;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_ORCHESTRATOR_HH
