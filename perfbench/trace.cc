/**
 * @file
 * Traced in-process replica of one benchmark workload's job.
 *
 *   perfbench_trace --host
 *   perfbench_trace --workload W --seeds S1,S2,... [--spans FILE]
 *                   -- <workload flags of qramsim_shard run, no --seed>
 *
 * Replays each seed's job through the same public functions the CLIs
 * call, with the job's own shard concurrency, and records a span
 * (name, start, end, parent, job) around every call into a layer.
 * Spans stay in memory and are written to --spans at exit. A layer's
 * self time is its span minus the part its child spans cover.
 *
 *   bb8-depol         Workload::build, the FidelityEstimator
 *                     constructor, then Orchestrator::run in
 *                     in-process mode whose inlineRunner calls
 *                     runShard (the path of qramsim_drive
 *                     --in-process).
 *   vqram-z-adaptive  two lanes, each shard paying build + estimator +
 *                     runShard + toJson + atomicWriteFile (what one
 *                     qramsim_shard process does), then
 *                     Orchestrator::run resuming over the checkpoints.
 *   svc-broker        an in-process brk::Broker with a journal state
 *                     dir: submit, two lanes of pull ->
 *                     srv::Server::handle -> commit, then poll, fetch,
 *                     checkpoint commits and Orchestrator::run.
 *
 * Every job runs twice, with spans on and off (alternating which goes
 * first); the ratio of the two median wall times is the tracing
 * overhead. Layer probes that are not part of a job (the SIMD block
 * kernels, the noise sampler where no pipeline reports it, the
 * sharding codec on the job's partials, brk::roundTrip against the
 * live broker) run outside the job spans.
 *
 * Prints one JSON line: {"metrics": {...}, "replica_wall_s": x,
 * "replica_wall_traced_s": y}. Each job's merged result is written to
 * result-<seed>.json in the working directory so the caller can check
 * it byte for byte against the CLI's result.json.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "common/atomicfile.hh"
#include "common/pathensemble.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/threadpool.hh"
#include "sim/broker.hh"
#include "sim/orchestrator.hh"
#include "sim/server.hh"
#include "tools/workload.hh"

using namespace qramsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Spans ---------------------------------------------------------------

struct Span
{
    std::string name;
    Clock::time_point start, end;
    int parent = -1;
    int job = -1;
};

class Tracer
{
  public:
    bool enabled = true;

    int
    open(const char *name, int parent, int job)
    {
        if (!enabled)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, Clock::now(), {}, parent, job});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].end = now;
    }

    void
    rename(int id, const char *name)
    {
        if (id < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id].name = name;
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

Tracer tracer;
thread_local int tlsParent = -1;
thread_local int tlsJob = -1;

/** One span around a scope; nests under the thread's open span. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
        : prev_(tlsParent), id_(tracer.open(name, tlsParent, tlsJob))
    {
        if (id_ >= 0)
            tlsParent = id_;
    }

    ~SpanScope()
    {
        tracer.close(id_);
        tlsParent = prev_;
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    void rename(const char *name) { tracer.rename(id_, name); }

  private:
    int prev_;
    int id_;
};

// --- Per-job counters ------------------------------------------------------

/** Non-span per-job figures (stage busy times, counts), summed over
 *  the job's shards. */
using Counters = std::map<std::string, double>;

/**
 * Run @p fn(lane, counters) on @p lanes threads that inherit the
 * caller's span. Each lane's counters are added into @p c after all
 * lanes have joined; the first lane error is rethrown then.
 */
template <class Fn>
void
runLanes(unsigned lanes, Counters &c, Fn fn)
{
    const int parent = tlsParent, job = tlsJob;
    std::vector<Counters> counters(lanes);
    std::vector<std::string> errors(lanes);
    std::vector<std::thread> threads;
    for (unsigned l = 0; l < lanes; ++l)
        threads.emplace_back([&, l] {
            tlsParent = parent;
            tlsJob = job;
            try {
                fn(l, counters[l]);
            } catch (const std::exception &e) {
                errors[l] = e.what();
            }
        });
    for (std::thread &t : threads)
        t.join();
    for (const std::string &e : errors)
        if (!e.empty())
            throw std::runtime_error(e);
    for (const Counters &lc : counters)
        for (const auto &[k, v] : lc)
            c[k] += v;
}

void
addPipelineStats(Counters &c, const PipelineStats &st)
{
    c["fidelity.gather_s"] += st.gatherSec;
    c["fidelity.replay_s"] += st.replaySec;
    c["fidelity.accumulate_s"] += st.accumulateSec;
    c["fidelity.general_batches"] += static_cast<double>(st.batches);
    if (st.pipelined) {
        c["noise.sample_s"] += st.sampleSec;
        c["pipelined_shards"] += 1.0;
        c["occupancy_sum"] += st.occupancy();
    }
}

void
addAdaptive(Counters &c, const PartialEstimate &part)
{
    if (!part.adaptive)
        return;
    c["fidelity.adaptive_draws"] += static_cast<double>(part.drawsUsed);
    c["fidelity.adaptive_kept_shots"] +=
        static_cast<double>(part.full.size());
}

/**
 * Time the public counter-stream sampler over the draws @p part
 * consumed (outside the replica): the sampling share of a shard whose
 * executor does not report a stage split.
 */
double
sampleProbe(const NoiseModel &noise, const FidelityEstimator &est,
            const PartialEstimate &part)
{
    const FeynmanExecutor &exec = est.executor();
    const std::size_t draws =
        part.adaptive ? part.drawsUsed : part.shots();
    const std::size_t npts = std::max<std::size_t>(1, part.factors.size());
    std::vector<FlatRealization> outs(npts);
    const Clock::time_point t0 = Clock::now();
    if (part.factors.empty()) {
        noise.prepare(exec);
        for (std::size_t d = 0; d < draws; ++d) {
            CounterRng rng(part.seed, part.shotBegin + d);
            noise.sampleFlat(exec, rng, outs[0]);
        }
    } else {
        noise.prepareSweep(exec, part.factors.data(), npts);
        for (std::size_t d = 0; d < draws; ++d) {
            CounterRng rng(part.seed, part.shotBegin + d);
            noise.sampleFlatSweep(exec, rng, part.factors.data(), npts,
                                  outs.data());
        }
    }
    return secondsBetween(t0, Clock::now());
}

/** toJson / fromJson / merge+resultJson over a job's partials. */
void
codecProbe(Counters &c, const std::vector<PartialEstimate> &parts)
{
    std::vector<PartialEstimate> back(parts.size());
    for (std::size_t i = 0; i < parts.size(); ++i) {
        Clock::time_point t0 = Clock::now();
        const std::string js = parts[i].toJson();
        Clock::time_point t1 = Clock::now();
        std::string err;
        if (!PartialEstimate::fromJson(js, back[i], &err))
            throw std::runtime_error("fromJson: " + err);
        c["sharding.to_json_s"] += secondsBetween(t0, t1);
        c["sharding.from_json_s"] += secondsBetween(t1, Clock::now());
        c["sharding.partial_bytes"] += static_cast<double>(js.size());
    }
    const Clock::time_point t0 = Clock::now();
    PartialEstimate merged;
    std::string err;
    if (!mergePartials(back, merged, &err))
        throw std::runtime_error("merge: " + err);
    const std::string result = merged.resultJson();
    c["sharding.merge_s"] += secondsBetween(t0, Clock::now());
    if (result.empty())
        throw std::runtime_error("empty merged result");
}

/** One estimator outside the jobs, for the probes that need one. */
struct Probe
{
    QueryCircuit qc;
    std::unique_ptr<FidelityEstimator> est;
    std::unique_ptr<NoiseModel> noise;
};

/**
 * The layer probes over one job's partials, run after its wall time is
 * taken: the sharding codec, atomicWriteFile of each partial, and the
 * sampler wherever no pipeline reported a sampling stage.
 */
void
probeJob(const Probe &probe, const std::vector<PartialEstimate> &parts,
         const std::string &dir, Counters &c)
{
    codecProbe(c, parts);
    for (const PartialEstimate &p : parts) {
        const std::string js = p.toJson();
        const Clock::time_point t0 = Clock::now();
        std::string err;
        if (!atomicWriteFile(dir + "/probe.json", js, &err))
            throw std::runtime_error(err);
        c["atomicfile.commit_s"] += secondsBetween(t0, Clock::now());
    }
    if (c["pipelined_shards"] == 0.0)
        for (const PartialEstimate &p : parts)
            c["noise.sample_s"] += sampleProbe(*probe.noise, *probe.est, p);
}

// --- Jobs ------------------------------------------------------------------

struct Job
{
    std::vector<std::string> args; ///< workload flags incl. --seed
    tool::RunOptions opt;
    std::size_t shards = 4;
};

Job
makeJob(const std::vector<std::string> &base, std::uint64_t seed)
{
    Job j;
    j.args = base;
    j.args.push_back("--seed");
    j.args.push_back(std::to_string(seed));
    std::vector<std::string> copy(j.args);
    std::vector<char *> argv;
    for (std::string &a : copy)
        argv.push_back(a.data());
    if (!tool::parseRunFlags(static_cast<int>(argv.size()), argv.data(),
                             j.opt))
        throw std::runtime_error("bad workload flags");
    return j;
}

OrchestratorConfig
orchestratorConfig(const Job &j, const std::string &dir)
{
    OrchestratorConfig cfg;
    cfg.jobDir = dir;
    cfg.requestedShards = j.shards;
    cfg.workloadArgs = j.args;
    cfg.plan = SweepPlan::partition(j.opt.shots, j.shards, j.opt.seed,
                                    j.opt.factors, j.opt.stream);
    return cfg;
}

/** Orchestrator::run over checkpoints already in @p dir. */
std::string
finishFromCheckpoints(const Job &j, const std::string &dir, Counters &c)
{
    SpanScope sp("orchestrator.run");
    OrchestratorConfig cfg = orchestratorConfig(j, dir);
    cfg.resume = true;
    cfg.inlineRunner = [](const ShardSpec &) -> PartialEstimate {
        throw std::runtime_error("checkpoint missing");
    };
    const DriveReport rep = Orchestrator(std::move(cfg)).run();
    c["orchestrator.retries"] += static_cast<double>(rep.retries);
    if (!rep.complete || !rep.error.empty())
        throw std::runtime_error("orchestrator: " + rep.error);
    return rep.resultJson;
}

/** bb8-depol: the in-process drive. */
std::string
runInProcessJob(const Job &j, const std::string &dir, Counters &c,
                std::vector<PartialEstimate> &parts)
{
    QueryCircuit qc;
    {
        SpanScope sp("qram.build");
        qc = j.opt.w.build();
    }
    OrchestratorConfig cfg = orchestratorConfig(j, dir);
    std::unique_ptr<FidelityEstimator> est;
    std::unique_ptr<NoiseModel> noise;
    std::unique_ptr<ThreadPool> pool;
    {
        SpanScope sp("fidelity.setup");
        est = std::make_unique<FidelityEstimator>(
            qc.circuit, qc.addressQubits, qc.busQubit,
            AddressSuperposition::uniform(j.opt.w.addressWidth()));
        ShardSpec pin = cfg.plan.shards.front();
        tool::finishSpec(j.opt, pin);
        applyShardPins(*est, pin);
        noise = j.opt.w.makeNoise();
        pool = std::make_unique<ThreadPool>(resolveThreads(j.opt.threads));
    }
    cfg.inlineRunner = [&](const ShardSpec &planned) {
        ShardSpec spec = planned;
        tool::finishSpec(j.opt, spec);
        spec.pool = pool.get();
        PartialEstimate part;
        {
            SpanScope sp("fidelity.run");
            part = est->runShard(*noise, spec);
        }
        part.workload = j.opt.w.fingerprint(j.opt.shots);
        addPipelineStats(c, est->lastPipelineStats());
        addAdaptive(c, part);
        c["fidelity.run_s"] += part.computeSeconds;
        parts.push_back(part);
        return part;
    };
    std::string result;
    {
        SpanScope sp("orchestrator.run");
        const DriveReport rep = Orchestrator(std::move(cfg)).run();
        c["orchestrator.retries"] += static_cast<double>(rep.retries);
        if (!rep.complete || !rep.error.empty())
            throw std::runtime_error("orchestrator: " + rep.error);
        result = rep.resultJson;
    }
    return result;
}

/** vqram-z-adaptive: two fork/exec-style lanes, one estimator per
 *  shard, then the drive's checkpoint merge. */
std::string
runShardLanesJob(const Job &j, const std::string &dir, Counters &c,
                 std::vector<PartialEstimate> &parts)
{
    const SweepPlan plan =
        SweepPlan::partition(j.opt.shots, j.shards, j.opt.seed,
                             j.opt.factors, j.opt.stream);
    parts.assign(plan.shards.size(), PartialEstimate());
    std::atomic<std::size_t> next{0};
    ::mkdir(dir.c_str(), 0755);
    runLanes(2, c, [&](unsigned, Counters &lc) {
        for (std::size_t i; (i = next++) < plan.shards.size();) {
            tool::RunOptions opt = j.opt;
            opt.shardIdx = i;
            opt.shardCount = j.shards;
            ShardSpec spec;
            tool::cutShardSpec(opt, spec);
            QueryCircuit qc;
            {
                SpanScope sp("qram.build");
                qc = opt.w.build();
            }
            std::unique_ptr<FidelityEstimator> est;
            std::unique_ptr<NoiseModel> noise;
            {
                SpanScope sp("fidelity.setup");
                est = std::make_unique<FidelityEstimator>(
                    qc.circuit, qc.addressQubits, qc.busQubit,
                    AddressSuperposition::uniform(
                        opt.w.addressWidth()));
                applyShardPins(*est, spec);
                noise = opt.w.makeNoise();
            }
            PartialEstimate part;
            {
                SpanScope sp("fidelity.run");
                part = est->runShard(*noise, spec);
            }
            part.workload = opt.w.fingerprint(opt.shots);
            addPipelineStats(lc, est->lastPipelineStats());
            addAdaptive(lc, part);
            lc["fidelity.run_s"] += part.computeSeconds;
            std::string js;
            {
                SpanScope sp("sharding.to_json");
                js = part.toJson();
            }
            {
                SpanScope sp("atomicfile.commit");
                std::string err;
                if (!atomicWriteFile(
                        Orchestrator::checkpointPath(dir, i), js,
                        &err))
                    throw std::runtime_error(err);
            }
            parts[i] = std::move(part);
        }
    });
    return finishFromCheckpoints(j, dir, c);
}

// --- svc-broker ------------------------------------------------------------

brk::Msg
ask(brk::Broker &b, const brk::Msg &req)
{
    brk::Msg resp;
    std::string err;
    if (!brk::parseMsg(b.handleMessage(brk::buildMsg(req)), resp, &err))
        throw std::runtime_error("broker reply: " + err);
    return resp;
}

struct BrokerRig
{
    std::unique_ptr<brk::Broker> broker;
    std::vector<std::unique_ptr<srv::Server>> servers;
};

std::string
runBrokerJob(BrokerRig &rig, const Job &j, const std::string &dir,
             Counters &c, std::vector<PartialEstimate> &parts)
{
    brk::Broker &b = *rig.broker;
    brk::Msg sub;
    sub.type = "submit";
    // The broker only hashes and compares the job key, and this broker
    // is fresh, so any key unique to the job will do.
    for (const std::string &a : j.args)
        sub.fingerprint += a + ' ';
    sub.nshards = j.shards;
    sub.args = j.args;
    brk::Msg job;
    {
        SpanScope sp("broker.submit");
        job = ask(b, sub);
    }
    if (job.type != "job")
        throw std::runtime_error("submit refused: " + job.error);

    runLanes(static_cast<unsigned>(rig.servers.size()), c,
             [&](unsigned l, Counters &lc) {
        const std::string name = "lane" + std::to_string(l);
        for (;;) {
            brk::Msg pull, task;
            pull.type = "pull";
            pull.worker = name;
            {
                SpanScope sp("broker.pull");
                task = ask(b, pull);
            }
            if (task.type != "assign")
                break;
            srv::ShardResponse r;
            {
                SpanScope sp("server.handle");
                r = rig.servers[l]->handle(task.args);
                sp.rename(r.cache == "cold" ? "server.handle_cold"
                                            : "server.handle_warm");
            }
            lc["fidelity.run_s"] += r.computeSeconds;
            brk::Msg commit, ack;
            commit.type = "commit";
            commit.worker = name;
            commit.lease = task.lease;
            commit.job = task.job;
            commit.shard = task.shard;
            commit.status = static_cast<std::uint64_t>(r.status);
            commit.error = r.error;
            commit.payload = r.payload;
            {
                SpanScope sp("broker.commit");
                ack = ask(b, commit);
            }
            if (r.status != 0 || ack.type != "ok")
                throw std::runtime_error("shard failed: " + r.error +
                                         ack.error);
        }
    });

    brk::Msg poll, st;
    poll.type = "poll";
    poll.job = job.job;
    {
        SpanScope sp("broker.poll");
        st = ask(b, poll);
    }
    if (st.type != "status" || !st.complete)
        throw std::runtime_error("job not complete after all pulls");
    ::mkdir(dir.c_str(), 0755);
    std::vector<std::string> payloads;
    for (double d : st.done) {
        brk::Msg get, res;
        get.type = "fetch";
        get.job = job.job;
        get.shard = static_cast<std::uint64_t>(d);
        {
            SpanScope sp("broker.fetch");
            res = ask(b, get);
        }
        if (res.type != "result")
            throw std::runtime_error("fetch: " + res.type);
        {
            SpanScope sp("atomicfile.commit");
            std::string err;
            if (!atomicWriteFile(
                    Orchestrator::checkpointPath(dir, get.shard),
                    res.payload, &err))
                throw std::runtime_error(err);
        }
        payloads.push_back(std::move(res.payload));
    }
    const std::string result = finishFromCheckpoints(j, dir, c);
    for (const std::string &js : payloads) {
        parts.emplace_back();
        if (!PartialEstimate::fromJson(js, parts.back()))
            throw std::runtime_error("bad fetched payload");
    }
    return result;
}

// --- Layer probes outside the jobs --------------------------------------------

/** Rows per second of the active tier's four block kernels over a
 *  16-shot arena of @p paths-path rows (median of 5 timed windows). */
Counters
simdProbe(std::size_t paths)
{
    constexpr std::size_t kShots = 16;
    PathEnsemble ens(8, paths);
    const std::size_t nw = ens.wordsPerQubit();
    CounterRng rng(0x5eed, 1);
    for (std::size_t q = 0; q < ens.numQubits(); ++q)
        for (std::size_t w = 0; w < nw; ++w)
            ens.row(q)[w] = rng.bits() & ens.validMask(w);
    EnsembleBlock blk;
    blk.reshape(8, paths, kShots);
    for (std::size_t s = 0; s < kShots; ++s) {
        blk.join(s);
        blk.loadShot(s, ens);
    }
    const std::size_t rw = blk.rowWords();
    std::uint64_t *t0 = blk.blockRow(0);
    std::uint64_t *t1 = blk.blockRow(1);
    const std::uint64_t *rows = blk.rowData();
    const std::uint64_t *bmask = blk.maskRow();
    simd::AlignedWords dev(rw, 0);
    std::uint64_t anyOut[kShots];
    const EnsembleCtrl ctrls[2] = {{2, 0}, {3, ~std::uint64_t(0)}};
    const simd::RowKernels &K = simd::activeKernels();
    std::uint64_t sink = 0;

    auto rate = [&](auto &&call) {
        std::vector<double> windows;
        for (int rep = 0; rep < 5; ++rep) {
            std::size_t calls = 0;
            const Clock::time_point t = Clock::now();
            double el = 0.0;
            while (el < 0.04) {
                for (int i = 0; i < 256; ++i)
                    call();
                calls += 256;
                el = secondsBetween(t, Clock::now());
            }
            windows.push_back(kShots * calls / el);
        }
        return median(windows);
    };
    Counters c;
    c["simd.xor_fire_block_rows_per_s"] = rate([&] {
        K.xorFireBlock(t0, rows, rw, ctrls, 2, bmask, rw);
        sink ^= t0[0];
    });
    c["simd.swap_fire_block_rows_per_s"] = rate([&] {
        K.swapFireBlock(t0, t1, rows, rw, ctrls, 1, bmask, rw);
        sink ^= t1[0];
    });
    c["simd.xor_row_block_rows_per_s"] = rate([&] {
        K.xorRowBlock(t0, blk.validMask(), nw, kShots);
        sink ^= t0[0];
    });
    c["simd.diff_or_block_rows_per_s"] = rate([&] {
        std::fill(dev.begin(), dev.end(), 0);
        K.diffOrBlock(dev.data(), t0, ens.row(4), nw, kShots, anyOut);
        sink ^= anyOut[0];
    });
    if (sink == 0x5eed5eed5eedull)
        std::fprintf(stderr, " "); // keep the kernels' results live
    return c;
}

/** Median brk::roundTrip latency of a poll against the live broker. */
double
roundTripProbe(const std::string &sock)
{
    std::vector<double> lat;
    for (int i = 0; i < 64; ++i) {
        brk::Msg req, resp;
        req.type = "register";
        req.worker = "probe";
        const Clock::time_point t0 = Clock::now();
        std::string err;
        if (!brk::roundTrip(sock, req, resp, &err))
            throw std::runtime_error("roundTrip: " + err);
        lat.push_back(secondsBetween(t0, Clock::now()));
    }
    return median(lat);
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans,
           Clock::time_point origin)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "  {\"name\": \"%s\", \"start\": %.9f, \"end\": "
                      "%.9f, \"parent\": %d, \"job\": %d}%s\n",
                      spans[i].name.c_str(),
                      secondsBetween(origin, spans[i].start),
                      secondsBetween(origin, spans[i].end),
                      spans[i].parent, spans[i].job,
                      i + 1 < spans.size() ? "," : "");
        out += buf;
    }
    out += "]\n";
    std::string err;
    if (!atomicWriteFile(path, out, &err))
        std::fprintf(stderr, "cannot write spans: %s\n", err.c_str());
}

int
printHost()
{
    std::printf("{\"hw_threads\": %u, \"simd_tier\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                hardwareThreads(), simd::tierName(simd::activeTier()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_trace --host\n"
                 "       perfbench_trace --workload W --seeds S1,S2,... "
                 "[--spans FILE] -- WORKLOAD FLAGS\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, spansPath;
    std::vector<std::uint64_t> seeds;
    std::vector<std::string> base;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--host")
            return printHost();
        if (a == "--") {
            base.assign(argv + i + 1, argv + argc);
            break;
        }
        if (i + 1 >= argc)
            return usage();
        if (a == "--workload")
            workload = argv[++i];
        else if (a == "--spans")
            spansPath = argv[++i];
        else if (a == "--seeds") {
            for (const char *p = argv[++i]; *p;) {
                char *end = nullptr;
                seeds.push_back(std::strtoull(p, &end, 10));
                p = *end == ',' ? end + 1 : end;
            }
        } else
            return usage();
    }
    if (seeds.empty() || base.empty())
        return usage();
    const bool inProcess = workload == "bb8-depol";
    const bool lanes = workload == "vqram-z-adaptive";
    const bool broker = workload == "svc-broker";
    if (!inProcess && !lanes && !broker)
        return usage();

    const Clock::time_point origin = Clock::now();
    try {
        // The probe estimator, built outside the jobs. Its build and
        // setup times stand for svc-broker's, whose resident workers pay
        // them once, not per job.
        const tool::Workload w = makeJob(base, seeds.front()).opt.w;
        Probe probe;
        Counters once;
        const Clock::time_point b0 = Clock::now();
        probe.qc = w.build();
        const Clock::time_point b1 = Clock::now();
        probe.est = std::make_unique<FidelityEstimator>(
            probe.qc.circuit, probe.qc.addressQubits, probe.qc.busQubit,
            AddressSuperposition::uniform(w.addressWidth()));
        probe.noise = w.makeNoise();
        once["qram.build_s"] = secondsBetween(b0, b1);
        once["fidelity.setup_s"] = secondsBetween(b1, Clock::now());

        BrokerRig rig;
        if (broker) {
            brk::BrokerConfig bc;
            bc.socketPath = "trace-brk.sock";
            bc.stateDir = "trace-state";
            rig.broker = std::make_unique<brk::Broker>(bc);
            std::string err;
            if (!rig.broker->start(&err))
                throw std::runtime_error("broker start: " + err);
            for (int l = 0; l < 2; ++l) {
                srv::ServerConfig sc;
                sc.threads = 1;
                sc.spillDir = "trace-spill" + std::to_string(l);
                rig.servers.push_back(std::make_unique<srv::Server>(sc));
            }
        }

        std::vector<Counters> perJob;
        std::vector<double> wallOn, wallOff;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            for (int pass = 0; pass < 2; ++pass) {
                const bool on = (pass == 0) == (k % 2 == 0);
                tracer.enabled = on;
                // The untraced pass runs a sibling seed: the broker and
                // the servers' result caches would answer a repeat.
                const std::uint64_t seed =
                    on ? seeds[k] : seeds[k] ^ 0x5bd1e995ull;
                const Job j = makeJob(base, seed);
                const std::string dir =
                    "trace-job-" + std::to_string(seed);
                Counters c;
                const int jobId = static_cast<int>(perJob.size());
                tlsJob = on ? jobId : -1;
                std::string result;
                std::vector<PartialEstimate> parts;
                const Clock::time_point t0 = Clock::now();
                {
                    SpanScope sp("job");
                    if (inProcess)
                        result = runInProcessJob(j, dir, c, parts);
                    else if (lanes)
                        result = runShardLanesJob(j, dir, c, parts);
                    else
                        result = runBrokerJob(rig, j, dir, c, parts);
                }
                const double wall = secondsBetween(t0, Clock::now());
                tlsJob = -1;
                (on ? wallOn : wallOff).push_back(wall);
                if (on) {
                    probeJob(probe, parts, dir, c);
                    perJob.push_back(std::move(c));
                    std::string err;
                    if (!atomicWriteFile("result-" + std::to_string(seed) +
                                             ".json",
                                         result, &err))
                        throw std::runtime_error(err);
                }
            }
        }
        tracer.enabled = false;

        Counters metrics = simdProbe(std::size_t(1) << w.addressWidth());
        if (broker) {
            metrics["broker.roundtrip_s"] = roundTripProbe("trace-brk.sock");
            const brk::Broker::Stats bs = rig.broker->stats();
            metrics["broker.redispatches"] =
                static_cast<double>(bs.redispatches);
            metrics["broker.duplicate_mismatches"] =
                static_cast<double>(bs.duplicateMismatches);
            std::uint64_t builds = 0;
            for (const auto &s : rig.servers)
                builds += s->stats().compiledBuilds;
            metrics["server.compiled_builds"] = static_cast<double>(builds);
            rig.broker->stop();
        }

        // Self time per (job, span name): duration minus children.
        const std::vector<Span> spans = tracer.spans();
        std::vector<double> childTime(spans.size(), 0.0);
        for (const Span &s : spans)
            if (s.parent >= 0)
                childTime[s.parent] += secondsBetween(s.start, s.end);
        std::vector<Counters> selfPerJob(perJob.size());
        std::map<std::string, std::vector<double>> perCall;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            const double self =
                secondsBetween(s.start, s.end) - childTime[i];
            if (s.job >= 0 && s.name != "job")
                selfPerJob[s.job][s.name] += self;
            perCall[s.name].push_back(self);
        }
        // Per-call medians for the calls whose cost differs by kind
        // rather than by job (cold vs warm handles).
        metrics["server.handle_cold_s"] = median(perCall["server.handle_cold"]);
        metrics["server.handle_warm_s"] = median(perCall["server.handle_warm"]);

        static const std::pair<const char *, const char *> kSpanMetrics[] =
            {{"qram.build", "qram.build_s"},
             {"fidelity.setup", "fidelity.setup_s"},
             {"orchestrator.run", "orchestrator.overhead_s"},
             {"broker.submit", "broker.submit_s"},
             {"broker.pull", "broker.pull_s"},
             {"broker.commit", "broker.commit_s"},
             {"broker.poll", "broker.poll_s"},
             {"broker.fetch", "broker.fetch_s"}};
        for (std::size_t jb = 0; jb < perJob.size(); ++jb)
            for (const auto &[span, metric] : kSpanMetrics)
                if (selfPerJob[jb].count(span))
                    perJob[jb][metric] += selfPerJob[jb][span];

        static const char *const kJobMetrics[] = {
            "qram.build_s", "fidelity.setup_s", "noise.sample_s",
            "fidelity.run_s", "fidelity.gather_s", "fidelity.replay_s",
            "fidelity.accumulate_s", "fidelity.occupancy",
            "fidelity.general_batches", "fidelity.adaptive_draws",
            "fidelity.adaptive_kept_shots", "sharding.to_json_s",
            "sharding.from_json_s", "sharding.merge_s",
            "sharding.partial_bytes", "orchestrator.overhead_s",
            "orchestrator.retries", "atomicfile.commit_s",
            "broker.submit_s", "broker.pull_s", "broker.commit_s",
            "broker.poll_s", "broker.fetch_s"};
        for (Counters &c : perJob)
            if (c["pipelined_shards"] > 0.0)
                c["fidelity.occupancy"] =
                    c["occupancy_sum"] / c["pipelined_shards"];
        for (const char *m : kJobMetrics) {
            std::vector<double> vals;
            for (Counters &c : perJob)
                vals.push_back(c[m]);
            metrics[m] = median(vals);
        }
        if (broker)
            for (const auto &[k, v] : once)
                metrics[k] = v;
        for (const char *m :
             {"server.handle_cold_s", "server.handle_warm_s",
              "server.compiled_builds", "broker.roundtrip_s",
              "broker.redispatches", "broker.duplicate_mismatches"})
            metrics.emplace(m, 0.0);

        const double on = median(wallOn), off = median(wallOff);
        metrics["trace.overhead_frac"] = off > 0.0 ? on / off - 1.0 : 0.0;

        if (!spansPath.empty())
            writeSpans(spansPath, spans, origin);

        std::string out = "{\"metrics\": {";
        bool first = true;
        for (const auto &[k, v] : metrics) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                          first ? "" : ", ", k.c_str(), v);
            out += buf;
            first = false;
        }
        char tail[160];
        std::snprintf(tail, sizeof tail,
                      "}, \"replica_wall_s\": %.17g, "
                      "\"replica_wall_traced_s\": %.17g}\n",
                      off, on);
        out += tail;
        std::fputs(out.c_str(), stdout);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
        return 1;
    }
    return 0;
}
