/**
 * @file
 * Fault-tolerant sweep driver: run a whole sharded estimation job
 * end-to-end under the supervision of sim/orchestrator.hh — the CLI
 * face of checkpoint/resume, bounded retries with backoff, hard
 * deadlines, and straggler re-dispatch.
 *
 *   qramsim_drive [orchestration flags] [workload flags]
 *
 * Workload flags are exactly `qramsim_shard run`'s (minus --shard and
 * --out, which the driver owns) and are forwarded verbatim to the
 * worker subprocesses; the driver parses them too (tools/workload.hh,
 * the same parser the worker uses) to learn the plan geometry it is
 * partitioning. Orchestration flags:
 *
 *   --job DIR         job directory: manifest, checkpoints, result,
 *                     report, per-attempt logs (required)
 *   --resume          trust valid checkpoints already in DIR and
 *                     recompute only the missing shards
 *   --shards N        partition the shot budget N ways (default 4)
 *   --workers W       concurrent worker subprocesses (default 2)
 *   --worker-bin P    the qramsim_shard binary (default: the
 *                     QRAMSIM_SHARD environment variable)
 *   --in-process      run shards on this process's estimator instead
 *                     of subprocesses (no deadlines/speculation — a
 *                     library call cannot be killed)
 *   --broker PATH     submit the job to a qramsim_broker on the Unix
 *                     socket PATH and stream finished shards into
 *                     the job directory as checkpoints; the drive
 *                     long-polls the job, so a commit reaches it at
 *                     once. A lost connection (the broker restarting
 *                     from its journal) is re-polled for the
 *                     broker's announced dead-worker deadline (3 s
 *                     by default) before the drive gives up on it;
 *                     whatever the broker does not deliver (it dies,
 *                     stalls, or parks) is recomputed by fork/exec
 *                     workers (so --worker-bin/QRAMSIM_SHARD is still
 *                     required), and the result is byte-identical
 *                     either way.
 *                     Ignored with a warning when the workload pins
 *                     --tier (broker workers reject process-global
 *                     pins). A dead drive can rerun the same command
 *                     line: the matching estimate (tool::estimateKey)
 *                     resumes the parked job.
 *   --broker-stall S  give up on the broker when no new result has
 *                     arrived for S seconds (default 60)
 *   --max-attempts N  dispatch attempts per shard (default 3)
 *   --backoff-base MS exponential-backoff base delay (default 200)
 *   --deadline SEC    per-attempt hard deadline; overdue workers are
 *                     SIGKILLed and retried (0 = off)
 *   --straggler F     speculatively duplicate an attempt running
 *                     longer than F x the median completed duration
 *                     (0 = off)
 *   --straggler-min N completed shards needed before the median is
 *                     trusted (default 3)
 *   --wait-duplicates keep the job alive until duplicate attempts
 *                     finish, so each speculation ends in a
 *                     byte-for-byte cross-check
 *   --out FILE        also write the merged result JSON here
 *                     ("-" = stdout)
 *
 * Exit codes (same contract as qramsim_shard, see ToolExit):
 *   0  complete — every shard checkpointed and merged; result.json is
 *      byte-identical to a fault-free single-process run
 *   1  degraded — some shards failed permanently; their indices are
 *      in report.json, completed checkpoints survive, and a later
 *      --resume continues from them
 *   2  usage
 *   3  fatal setup error (job dir, resume mismatch, ...)
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/atomicfile.hh"
#include "common/threadpool.hh"
#include "sim/broker.hh"
#include "sim/orchestrator.hh"
#include "workload.hh"

using namespace qramsim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: qramsim_drive --job DIR [--resume] [--shards N] "
        "[--workers W]\n"
        "         [--worker-bin P | --in-process] "
        "[--broker PATH] [--broker-stall S]\n"
        "         [--max-attempts N] [--backoff-base MS]\n"
        "         [--deadline SEC] [--straggler F] "
        "[--straggler-min N] [--wait-duplicates]\n"
        "         [--out FILE] [workload flags of qramsim_shard "
        "run]\n"
        "see the file header of tools/qramsim_drive.cc\n");
    return kToolExitUsage;
}

/**
 * The broker phase: submit the job, stream finished shards into the
 * job directory as checkpoints, and bail out (latching a transport
 * failure in @p cfg) the moment the broker misbehaves or stays
 * unreachable past its announced deadline — the orchestrator behind
 * it recomputes whatever is missing, so the broker can only ever
 * make the run cheaper, never wrong.
 */
void
runBrokerPhase(OrchestratorConfig &cfg, const tool::RunOptions &opt,
               const std::string &brokerPath, double stallSec)
{
    // Job identity = the canonical estimate (mode and adaptive policy
    // included) plus the shard geometry: a reconnecting drive with
    // the same command line resumes its parked job, a different
    // estimate can never collide into it (the broker re-checks the
    // full fingerprint string, not just its hash).
    const std::string fp = tool::estimateKey(opt) + ";shards=" +
                           std::to_string(cfg.requestedShards);

    auto transportFail = [&](const std::string &why) {
        ++cfg.brokerTransportFailures;
        std::fprintf(stderr,
                     "warning: broker %s unavailable (%s); "
                     "falling back to direct dispatch\n",
                     brokerPath.c_str(), why.c_str());
    };

    brk::Msg sub;
    sub.type = "submit";
    sub.fingerprint = fp;
    sub.nshards = cfg.requestedShards;
    sub.args = cfg.workloadArgs;
    brk::Msg jobResp;
    std::string err;
    if (!brk::roundTrip(brokerPath, sub, jobResp, &err)) {
        transportFail(err);
        return;
    }
    if (jobResp.type != "job") {
        std::fprintf(stderr,
                     "warning: broker rejected the job (%s); "
                     "falling back to direct dispatch\n",
                     jobResp.error.c_str());
        ++cfg.brokerTransportFailures;
        return;
    }
    if (jobResp.total != cfg.plan.shards.size()) {
        // The broker planned different geometry than this drive —
        // its results would not be this job's checkpoints.
        std::fprintf(stderr,
                     "warning: broker planned %llu shards, drive "
                     "planned %zu; falling back\n",
                     static_cast<unsigned long long>(jobResp.total),
                     cfg.plan.shards.size());
        ++cfg.brokerTransportFailures;
        return;
    }
    if (jobResp.resumed)
        std::fprintf(stderr,
                     "qramsim_drive: broker resumed job %s\n",
                     jobResp.job.c_str());
    if (!makeDirs(cfg.jobDir)) {
        std::fprintf(stderr,
                     "warning: cannot create %s for broker "
                     "checkpoints\n",
                     cfg.jobDir.c_str());
        return;
    }

    using Clock = std::chrono::steady_clock;
    auto since = [](Clock::time_point t) {
        return std::chrono::duration<double>(Clock::now() - t).count();
    };
    std::vector<bool> fetched(cfg.plan.shards.size(), false);
    auto lastProgress = Clock::now();
    std::uint64_t seen = 0; // the job's transition count last seen
    // A broker SIGKILLed and restarted from its journal drops every
    // parked poll: the drive reconnects and re-polls the same job for
    // the broker's dead-worker deadline before it falls back.
    bool lost = false;
    Clock::time_point lostAt{};
    for (;;) {
        brk::Msg poll, st;
        poll.type = "poll";
        poll.job = jobResp.job;
        poll.progress = seen;
        poll.pollSec = jobResp.pollSec; // park until a shard settles
        bool reached = brk::roundTrip(brokerPath, poll, st, &err);
        if (reached && st.type != "status") {
            transportFail(st.error);
            break;
        }
        bool progress = false;
        for (std::size_t i = 0; reached && i < st.done.size(); ++i) {
            const std::size_t idx = static_cast<std::size_t>(st.done[i]);
            if (idx >= fetched.size() || fetched[idx])
                continue;
            brk::Msg get, res;
            get.type = "fetch";
            get.job = jobResp.job;
            get.shard = idx;
            if (!brk::roundTrip(brokerPath, get, res, &err)) {
                reached = false;
                break;
            }
            if (res.type != "result")
                continue; // raced a re-dispatch; next poll retries
            std::string werr;
            if (atomicWriteFile(
                    Orchestrator::checkpointPath(cfg.jobDir, idx),
                    res.payload, &werr)) {
                fetched[idx] = true;
                ++cfg.brokerShards;
                progress = true;
            } else {
                std::fprintf(stderr, "warning: %s\n", werr.c_str());
            }
        }
        if (!reached) {
            if (!lost) {
                lost = true;
                lostAt = Clock::now();
            }
            if (since(lostAt) >= jobResp.deadSec) {
                transportFail(err);
                break;
            }
            seen = 0; // a restarted broker counts afresh
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            continue;
        }
        lost = false;
        seen = st.progress;
        if (progress)
            lastProgress = Clock::now();
        if (st.complete)
            break;
        if (st.jobFailed) {
            std::fprintf(stderr,
                         "warning: broker settled the job with "
                         "failed shards; recomputing them "
                         "directly\n");
            break;
        }
        if (since(lastProgress) > stallSec) {
            std::fprintf(stderr,
                         "warning: no broker result for %.0f s; "
                         "recomputing the remainder directly\n",
                         stallSec);
            break;
        }
    }
    // Whatever landed is a checkpoint; resume makes the orchestrator
    // trust (re-validate) it and compute only the remainder.
    cfg.resume = true;
}

} // namespace

int
main(int argc, char **argv)
{
    OrchestratorConfig cfg;
    cfg.requestedShards = 4;
    std::string outPath, brokerPath;
    double brokerStallSec = 60.0;
    bool inProcess = false;
    std::vector<char *> workloadArgv;

    constexpr unsigned long kNoCap = ~0ul;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s wants a value\n",
                             flag.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        auto uintVal = [&](unsigned long cap,
                           unsigned long &dst) -> bool {
            const char *v = value();
            if (!v || !env::parseUnsigned(v, cap, dst)) {
                std::fprintf(stderr,
                             "malformed value for %s (want an "
                             "unsigned integer)\n",
                             flag.c_str());
                return false;
            }
            return true;
        };
        auto doubleVal = [&](double &dst) -> bool {
            const char *v = value();
            if (!v || !env::parseDouble(v, dst) || dst < 0.0) {
                std::fprintf(stderr,
                             "malformed value for %s (want a "
                             "nonnegative number)\n",
                             flag.c_str());
                return false;
            }
            return true;
        };
        unsigned long u = 0;
        if (flag == "--job") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.jobDir = v;
        } else if (flag == "--resume") {
            cfg.resume = true;
        } else if (flag == "--shards") {
            if (!uintVal(1ul << 20, u) || u == 0)
                return usage();
            cfg.requestedShards = u;
        } else if (flag == "--workers") {
            if (!uintVal(1ul << 12, u) || u == 0)
                return usage();
            cfg.workers = static_cast<unsigned>(u);
        } else if (flag == "--worker-bin") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.workerBin = v;
        } else if (flag == "--in-process") {
            inProcess = true;
        } else if (flag == "--broker") {
            const char *v = value();
            if (!v)
                return usage();
            brokerPath = v;
        } else if (flag == "--broker-stall") {
            if (!doubleVal(brokerStallSec) || brokerStallSec <= 0.0)
                return usage();
        } else if (flag == "--max-attempts") {
            if (!uintVal(1000, u) || u == 0)
                return usage();
            cfg.retry.maxAttempts = static_cast<unsigned>(u);
        } else if (flag == "--backoff-base") {
            if (!doubleVal(cfg.retry.backoffBaseMs))
                return usage();
        } else if (flag == "--deadline") {
            if (!doubleVal(cfg.retry.shardDeadlineSec))
                return usage();
        } else if (flag == "--straggler") {
            if (!doubleVal(cfg.retry.stragglerFactor))
                return usage();
        } else if (flag == "--straggler-min") {
            if (!uintVal(kNoCap, u))
                return usage();
            cfg.retry.stragglerMinDone = u;
        } else if (flag == "--wait-duplicates") {
            cfg.retry.waitForDuplicates = true;
        } else if (flag == "--out") {
            const char *v = value();
            if (!v)
                return usage();
            outPath = v;
        } else if (flag == "--shard" || flag == "--out-worker") {
            std::fprintf(stderr,
                         "%s is owned by the driver and cannot be "
                         "forwarded\n",
                         flag.c_str());
            return usage();
        } else {
            // Everything else is workload vocabulary, forwarded
            // verbatim to the workers (and parsed below to learn the
            // plan geometry).
            workloadArgv.push_back(argv[i]);
            continue;
        }
    }
    if (cfg.jobDir.empty()) {
        std::fprintf(stderr, "--job is required\n");
        return usage();
    }
    if (!inProcess && cfg.workerBin.empty()) {
        const char *envBin = std::getenv("QRAMSIM_SHARD");
        if (envBin && *envBin)
            cfg.workerBin = envBin;
        else {
            std::fprintf(stderr,
                         "no worker binary: pass --worker-bin, set "
                         "QRAMSIM_SHARD, or use --in-process\n");
            return usage();
        }
    }
    if (inProcess)
        cfg.workerBin.clear();

    // Parse the forwarded workload flags with the worker's own parser
    // — a flag the worker would reject must fail here, before any
    // subprocess is spawned (and --shard/--out were screened above).
    tool::RunOptions opt;
    if (!tool::parseRunFlags(static_cast<int>(workloadArgv.size()),
                             workloadArgv.data(), opt))
        return usage();
    cfg.workloadArgs.assign(workloadArgv.begin(), workloadArgv.end());
    cfg.plan = SweepPlan::partition(opt.shots, cfg.requestedShards,
                                    opt.seed, opt.factors, opt.stream);

    if (!brokerPath.empty() && inProcess) {
        std::fprintf(stderr,
                     "warning: --broker is a subprocess-mode "
                     "transport; ignored with --in-process\n");
        brokerPath.clear();
    }
    if (!brokerPath.empty() && !opt.tier.empty()) {
        // Broker workers are resident executors and refuse --tier (a
        // process-global SIMD pin a shared process must not toggle).
        // Results are tier-invariant, but the user asked for the pin,
        // so honor it via fork/exec.
        std::fprintf(stderr,
                     "warning: --tier pins are per-process; "
                     "ignoring --broker and using fork/exec\n");
        brokerPath.clear();
    }

    // The broker phase runs FIRST: finished shards stream in as
    // checkpoints, and everything else (a dead broker included)
    // falls through to the orchestrator's fork/exec workers.
    if (!brokerPath.empty())
        runBrokerPhase(cfg, opt, brokerPath, brokerStallSec);

    // In-process mode: one estimator serves every shard on this
    // thread, and — so concurrent shards don't each spin up their
    // own workers — ONE ThreadPool is shared across all shards via
    // ShardSpec::pool.
    QueryCircuit qc;
    std::unique_ptr<FidelityEstimator> est;
    std::unique_ptr<NoiseModel> noise;
    std::unique_ptr<ThreadPool> pool;
    if (inProcess) {
        qc = opt.w.build();
        est = std::make_unique<FidelityEstimator>(
            qc.circuit, qc.addressQubits, qc.busQubit,
            AddressSuperposition::uniform(opt.w.addressWidth()));
        ShardSpec pinSpec = cfg.plan.shards.front();
        tool::finishSpec(opt, pinSpec);
        applyShardPins(*est, pinSpec);
        noise = opt.w.makeNoise();
        pool = std::make_unique<ThreadPool>(
            resolveThreads(opt.threads));
        cfg.inlineRunner = [&opt, &est, &noise,
                            &pool](const ShardSpec &planned) {
            ShardSpec spec = planned;
            tool::finishSpec(opt, spec);
            spec.pool = pool.get();
            PartialEstimate part = est->runShard(*noise, spec);
            part.workload = opt.w.fingerprint(opt.shots);
            return part;
        };
    }

    Orchestrator orch(std::move(cfg));
    const DriveReport report = orch.run();

    if (!report.error.empty()) {
        std::fprintf(stderr, "qramsim_drive: %s\n",
                     report.error.c_str());
        return kToolExitIo;
    }
    std::fprintf(stderr,
                 "qramsim_drive: %s — %zu launched, %zu retries, "
                 "%zu timeouts, %zu speculative (%zu byte-matched, "
                 "%zu mismatched), %zu resumed, %zu brokered\n",
                 report.complete ? "complete" : "DEGRADED",
                 report.launched, report.retries, report.timeouts,
                 report.speculativeLaunches, report.duplicateMatches,
                 report.duplicateMismatches, report.resumedShards,
                 report.brokerShards);
    for (std::size_t shard : report.missing)
        std::fprintf(stderr, "qramsim_drive: shard %zu missing: %s\n",
                     shard,
                     report.shards[shard].lastError.c_str());
    if (report.complete && !outPath.empty()) {
        if (outPath == "-") {
            if (std::fwrite(report.resultJson.data(), 1,
                            report.resultJson.size(), stdout) !=
                    report.resultJson.size() ||
                std::fflush(stdout) != 0)
                return kToolExitIo;
        } else {
            std::string err;
            if (!atomicWriteFile(outPath, report.resultJson, &err)) {
                std::fprintf(stderr, "%s\n", err.c_str());
                return kToolExitIo;
            }
        }
    }
    return report.complete ? 0 : 1;
}
