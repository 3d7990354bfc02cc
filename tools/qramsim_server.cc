/**
 * @file
 * The broker worker CLI: a resident shard executor that pulls its
 * work from a qramsim_broker.
 *
 *     qramsim_server --broker PATH [--name NAME] [--threads N]
 *                    [--compiled-cache N] [--result-cache N]
 *                    [--spill DIR] [--spill-cap BYTES]
 *                    [--max-width N] [--max-shots N]
 *
 * The worker PULLS assignments from the broker on the Unix socket
 * PATH (protocol: src/sim/broker.hh), executes each on a resident
 * srv::Server (src/sim/server.hh) whose compiled-circuit and result
 * caches outlive the shard, heartbeats its lease on the broker's
 * announced interval, and commits the result. Repeated shards of the
 * same sweep pay zero setup and identical queries pay zero compute.
 * Nothing sleeps between shards: an idle pull long-polls (it parks
 * in the broker for up to the `poll_seconds` announced at register
 * and is asked again at once when it comes back idle), and the
 * heartbeat thread waits on a condition variable, so the join after
 * each commit returns at once.
 * The pull loop consults QRAMSIM_FAULT (kill-on-pull /
 * drop-heartbeat / lease-stall) — faults are scoped to the pulled
 * shard's global shot range exactly like the shard CLI's, and the
 * executor itself never injects.
 *
 * Prints "worker NAME pulling from PATH" once registered, then works
 * until SIGINT/SIGTERM, exiting 0 after a clean drain (a parked pull
 * returns within the broker's cap, 0.5 s by default). Exit 2 on bad
 * flags.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/fault.hh"
#include "sim/broker.hh"
#include "sim/server.hh"
#include "tools/workload.hh"

using namespace qramsim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: qramsim_server --broker PATH\n"
        "                      [--name NAME] [--threads N]\n"
        "                      [--compiled-cache N] [--result-cache "
        "N]\n"
        "                      [--spill DIR] [--spill-cap BYTES]\n"
        "                      [--max-width N] [--max-shots N]\n");
    return 2;
}

/** Sleep @p seconds in small slices so @p stop stays responsive. */
void
sleepInterruptible(double seconds, const std::atomic<bool> &stop)
{
    auto left = std::chrono::duration<double>(seconds);
    while (left.count() > 0.0 && !stop.load()) {
        const auto slice =
            std::min(left, std::chrono::duration<double>(0.05));
        std::this_thread::sleep_for(slice);
        left -= slice;
    }
}

/**
 * The broker worker loop: register, pull, execute on the resident
 * @p server, heartbeat the lease while computing, commit. Runs until
 * @p stop. Returns the count of shards this worker committed.
 */
std::size_t
runWorker(srv::Server &server, const std::string &brokerPath,
          const std::string &name, const std::atomic<bool> &stop)
{
    // Worker-side fault kinds only: the broker owns journal-truncate
    // and the classic shard kinds belong to qramsim_shard.
    std::vector<fault::Spec> faults;
    for (const fault::Spec &s : fault::fromEnv())
        if (s.kind == fault::Kind::KillOnPull ||
            s.kind == fault::Kind::DropHeartbeat ||
            s.kind == fault::Kind::LeaseStall)
            faults.push_back(s);

    double heartbeatSec = 1.0, pollSec = 0.0;
    bool registered = false;
    while (!stop.load()) {
        brk::Msg req, resp;
        req.type = "register";
        req.worker = name;
        std::string err;
        if (brk::roundTrip(brokerPath, req, resp, &err) &&
            resp.type == "registered") {
            if (resp.heartbeatSec > 0.0)
                heartbeatSec = resp.heartbeatSec;
            pollSec = resp.pollSec;
            registered = true;
            break;
        }
        sleepInterruptible(0.2, stop);
    }
    if (!registered)
        return 0;
    std::printf("worker %s pulling from %s\n", name.c_str(),
                brokerPath.c_str());
    std::fflush(stdout);

    std::size_t committed = 0;
    while (!stop.load()) {
        brk::Msg pull, task;
        pull.type = "pull";
        pull.worker = name;
        pull.pollSec = pollSec; // park in the broker until work appears
        std::string err;
        if (!brk::roundTrip(brokerPath, pull, task, &err)) {
            sleepInterruptible(0.2, stop); // broker gone or restarting
            continue;
        }
        if (task.type != "assign")
            continue; // the park ran out: ask again

        // Scope faults to the pulled shard's global shot range —
        // the same selector the shard CLI uses, so a test can aim a
        // fault at "the worker that got shard k".
        std::size_t shotBegin = 0, shotEnd = 0;
        {
            std::vector<std::string> copy(task.args);
            std::vector<char *> argv;
            argv.reserve(copy.size());
            for (std::string &a : copy)
                argv.push_back(&a[0]);
            tool::RunOptions opt;
            ShardSpec spec;
            if (tool::parseRunFlags(static_cast<int>(argv.size()),
                                    argv.data(), opt)) {
                tool::cutShardSpec(opt, spec);
                shotBegin = spec.shotBegin;
                shotEnd = spec.shotEnd;
            }
        }
        const fault::Spec *armed =
            fault::arm(faults, shotBegin, shotEnd);
        if (armed && armed->kind == fault::Kind::KillOnPull) {
            // Die holding the lease: the broker must notice the
            // silence and re-dispatch.
            ::kill(::getpid(), SIGKILL);
        }
        const bool dropHeartbeat =
            armed && armed->kind == fault::Kind::DropHeartbeat;
        const double stallSec =
            armed && armed->kind == fault::Kind::LeaseStall
                ? armed->param
                : 0.0;

        // The heartbeat thread waits on hbWake between beats, so the
        // join after the commit returns as soon as hbStop is set.
        std::mutex hbMu;
        std::condition_variable hbWake;
        bool hbStop = false;
        std::thread hb;
        if (!dropHeartbeat) {
            const std::uint64_t lease = task.lease;
            hb = std::thread([&, lease] {
                std::uint64_t progress = 0;
                std::unique_lock<std::mutex> lk(hbMu);
                while (!hbStop) {
                    // lease-stall heartbeats with FROZEN progress:
                    // the broker sees a live worker but no advance,
                    // so the lease expires on schedule.
                    if (stallSec <= 0.0)
                        ++progress;
                    lk.unlock();
                    brk::Msg beat, ok;
                    beat.type = "heartbeat";
                    beat.worker = name;
                    beat.lease = lease;
                    beat.progress = progress;
                    brk::roundTrip(brokerPath, beat, ok);
                    lk.lock();
                    hbWake.wait_for(
                        lk, std::chrono::duration<double>(heartbeatSec),
                        [&] { return hbStop; });
                }
            });
        }
        if (stallSec > 0.0)
            sleepInterruptible(stallSec, stop);

        const srv::ShardResponse r = server.handle(task.args);

        brk::Msg commit;
        commit.type = "commit";
        commit.worker = name;
        commit.lease = task.lease;
        commit.job = task.job;
        commit.shard = task.shard;
        commit.status = static_cast<std::uint64_t>(r.status);
        commit.error = r.error;
        commit.payload = r.payload;
        for (int attempt = 0; attempt < 5; ++attempt) {
            brk::Msg ack;
            if (brk::roundTrip(brokerPath, commit, ack)) {
                ++committed;
                break;
            }
            sleepInterruptible(0.2, stop);
            if (stop.load())
                break;
        }
        {
            std::lock_guard<std::mutex> lk(hbMu);
            hbStop = true;
        }
        hbWake.notify_one();
        if (hb.joinable())
            hb.join();
    }
    return committed;
}

} // namespace

int
main(int argc, char **argv)
{
    srv::ServerConfig cfg;
    std::string brokerPath, workerName;
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
            if (!v)
                return false;
            if (!env::parseUnsigned(v, cap, dst)) {
                std::fprintf(stderr,
                             "malformed value '%s' for %s\n", v,
                             flag.c_str());
                return false;
            }
            return true;
        };
        unsigned long u = 0;
        if (flag == "--broker") {
            const char *v = value();
            if (!v)
                return usage();
            brokerPath = v;
        } else if (flag == "--name") {
            const char *v = value();
            if (!v)
                return usage();
            workerName = v;
        } else if (flag == "--threads") {
            if (!uintVal(1ul << 16, u))
                return usage();
            cfg.threads = static_cast<unsigned>(u);
        } else if (flag == "--compiled-cache") {
            if (!uintVal(1ul << 16, u))
                return usage();
            cfg.compiledCapacity = u;
        } else if (flag == "--result-cache") {
            if (!uintVal(1ul << 24, u))
                return usage();
            cfg.resultCapacity = u;
        } else if (flag == "--spill") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.spillDir = v;
        } else if (flag == "--spill-cap") {
            if (!uintVal(1ul << 40, u))
                return usage();
            cfg.spillCapBytes = u;
        } else if (flag == "--max-width") {
            if (!uintVal(64, u))
                return usage();
            cfg.maxAddressWidth = static_cast<unsigned>(u);
        } else if (flag == "--max-shots") {
            if (!uintVal(1ul << 30, u))
                return usage();
            cfg.maxShots = u;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (brokerPath.empty()) {
        std::fprintf(stderr, "--broker is required\n");
        return usage();
    }

    // Mask SIGINT/SIGTERM BEFORE any thread exists so every thread
    // inherits the mask and sigwait below owns delivery — otherwise
    // a signal landing on a worker thread takes the default
    // (process-killing) action instead of the clean drain.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    srv::Server server(cfg);

    // The Server runs headless; a signal thread turns SIGINT/SIGTERM
    // into a stop flag the pull loop polls between shards.
    if (workerName.empty())
        workerName = "w" + std::to_string(::getpid());
    std::atomic<bool> stop{false};
    std::thread sigThread([&] {
        int sig = 0;
        sigwait(&set, &sig);
        stop.store(true);
    });
    const std::size_t committed =
        runWorker(server, brokerPath, workerName, stop);
    if (!stop.load())
        ::kill(::getpid(), SIGTERM); // unblock sigwait
    sigThread.join();
    const srv::Server::Stats st = server.stats();
    std::fprintf(stderr,
                 "worker %s committed %zu shards (%llu result hits, "
                 "%llu computed, %llu builds)\n",
                 workerName.c_str(), committed,
                 static_cast<unsigned long long>(st.resultHits),
                 static_cast<unsigned long long>(st.computed),
                 static_cast<unsigned long long>(st.compiledBuilds));
    return 0;
}
