/**
 * @file
 * Sharded-estimation CLI: execute one shard of a fidelity estimate or
 * eps_r sweep, or merge shard partials into the final result — the
 * process/host-level face of sim/sharding.hh, so sweeps can be farmed
 * out by any job runner (qramsim_drive, xargs, slurm, make -j, ssh
 * loops, ...).
 *
 *   qramsim_shard run   [workload flags] --shard I/N [--out FILE]
 *   qramsim_shard merge [--out FILE] partial1.json partial2.json ...
 *
 * `run` evaluates shard I of the N-way partition of the workload's
 * shot budget and writes its PartialEstimate JSON (atomically, via
 * write-temp-then-rename — a killed worker never leaves a torn
 * partial). `merge` folds any complete set of partials and writes the
 * FidelityResult JSON, which is byte-identical for every partition of
 * the same workload (the CI sharded smoke leg diffs a 2-way merge
 * against the 1-way run).
 *
 * Exit codes follow the supervision contract of sim/orchestrator.hh
 * (ToolExit) — qramsim_drive classifies retryability from them:
 *
 *   0  success
 *   2  usage: unknown flag/arch/noise, malformed value, shard index
 *      out of range (permanent — the command line itself is wrong)
 *   3  I/O: an input could not be read or the output could not be
 *      written (retryable)
 *   4  runtime: inputs read fine but are invalid — unparsable
 *      partial, merge mismatch (permanent)
 *   5  injected fault (the QRAMSIM_FAULT `exit` kind's default;
 *      retryable)
 *
 * Fault injection: QRAMSIM_FAULT (see common/fault.hh) deterministically
 * makes `run` crash, stall, truncate its output, corrupt its JSON, or
 * exit with a chosen code, keyed by global shot index — the testing
 * backbone of the orchestrator's recovery paths. Honest runs never
 * consult it.
 *
 * Workload flags (all have defaults; the fingerprint embedded in the
 * partials guards against merging mismatched runs):
 *
 *   --arch A      bb | fanout | virtual | sqc | select-swap | compact
 *   --m M         QRAM width (address width for bb/fanout)
 *   --k K         SQC/select width (virtual, sqc, select-swap,
 *                 compact; address width is m+k)
 *   --mem-seed S  seed of the random classical memory (default 7)
 *   --noise N     qubit-x | qubit-y | qubit-z | qubit-depol |
 *                 gate-x | gate-y | gate-z | gate-depol | device
 *   --eps E       base error rate (device: the 1q rate)
 *   --eps2 E      device 2q rate
 *   --rounds R    qubit-channel logical rounds (0 = every moment)
 *   --unweighted  flat per-gate rates for the gate channels
 *   --factors F1,F2,...   eps_r sweep scale factors (omit for a
 *                         plain estimate)
 *   --shots S --seed S    Monte Carlo budget
 *   --stream counter|sequential   shot RNG streams (default counter:
 *                 partition-invariant; sequential reproduces the
 *                 sequential estimator but fast-forwards shot 0..b)
 *   --threads T   in-process threads for this shard (counter streams
 *                 split the shot range across them; bit-identical at
 *                 every thread count)
 *   --tier scalar|avx2|avx512     SIMD tier pin
 *   --adaptive    run the shard under EstimateMode::Adaptive: --shots
 *                 becomes the raw-draw budget, the empty class is
 *                 folded in analytically and only kept draws are
 *                 evaluated (counter stream only)
 *   --target-ci W       adaptive CI half-width target (<= 0, the
 *                       default, keeps every non-empty draw — the
 *                       partition-invariant mode)
 *   --confidence C      adaptive CI confidence level (default 0.95)
 *   --min-shots N --max-shots N --batch N   adaptive stopping floor,
 *                       pooled per-point kept-shot budget, and draws
 *                       per stopping check
 *
 * Numeric flag values are parsed strictly (common/env.hh): signs,
 * whitespace, trailing junk, or overflow print a diagnostic and exit
 * with the usage code instead of being silently truncated.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <unistd.h>

#include "common/atomicfile.hh"
#include "common/fault.hh"
#include "sim/orchestrator.hh"
#include "workload.hh"

using namespace qramsim;

namespace {

/** Write @p content to @p path ("" or "-" = stdout). File targets go
 *  through atomicWriteFile, so a crash mid-write leaves no torn
 *  partial behind a success-looking file. */
bool
writeOutput(const std::string &path, const std::string &content)
{
    if (path.empty() || path == "-") {
        // A truncated partial must not exit 0: the job runner would
        // record success and the corruption would only surface (at
        // best) as a later merge failure.
        const bool ok =
            std::fwrite(content.data(), 1, content.size(), stdout) ==
                content.size() &&
            std::fflush(stdout) == 0;
        if (!ok)
            std::fprintf(stderr, "short write to stdout\n");
        return ok;
    }
    std::string err;
    if (!atomicWriteFile(path, content, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return false;
    }
    return true;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: qramsim_shard run [workload flags] --shots S "
        "--seed S --shard I/N [--out FILE]\n"
        "       qramsim_shard merge [--out FILE] partial.json ...\n"
        "see the file header of tools/qramsim_shard.cc for the "
        "workload flags and the exit-code contract\n");
    return kToolExitUsage;
}

int
cmdRun(int argc, char **argv)
{
    tool::RunOptions opt;
    if (!tool::parseRunFlags(argc, argv, opt))
        return usage();

    ShardSpec spec;
    tool::cutShardSpec(opt, spec);

    // Fault injection: the armed spec (if any) is the one whose
    // global shot index falls in THIS shard's range, so any fault in
    // QRAMSIM_FAULT deterministically selects one worker of the job.
    const std::vector<fault::Spec> faults = fault::fromEnv();
    const fault::Spec *injected =
        fault::arm(faults, spec.shotBegin, spec.shotEnd);
    if (injected) {
        switch (injected->kind) {
          case fault::Kind::Crash:
            // Die the way a segfaulting or OOM-killed worker dies:
            // no output, no exit code, just a signal death.
            ::kill(::getpid(), SIGKILL);
            break;
          case fault::Kind::Exit:
            return static_cast<int>(injected->param);
          case fault::Kind::Stall:
            // A pure straggler: sleep, then complete normally (if
            // the orchestrator's deadline doesn't kill us first).
            std::this_thread::sleep_for(std::chrono::duration<double>(
                injected->param));
            break;
          default:
            break; // truncate/corrupt fire at write time below
        }
    }

    const auto setup0 = std::chrono::steady_clock::now();
    QueryCircuit qc = opt.w.build();
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(
                              opt.w.addressWidth()));
    applyShardPins(est, spec);
    std::unique_ptr<NoiseModel> noise = opt.w.makeNoise();
    const double setupSec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      setup0)
            .count();

    PartialEstimate part = est.runShard(*noise, spec);
    part.workload = opt.w.fingerprint(opt.shots);
    part.setupSeconds = setupSec;
    std::string payload = part.toJson();

    if (injected && injected->kind == fault::Kind::Truncate) {
        // A torn file behind a success exit code: write a prefix
        // NON-atomically — exactly the corruption atomicWriteFile
        // exists to prevent, so downstream validation must catch it.
        const std::size_t keep =
            injected->param >= 0.0
                ? std::min(payload.size(),
                           static_cast<std::size_t>(injected->param))
                : payload.size() / 2;
        std::FILE *f = opt.out.empty() || opt.out == "-"
                           ? stdout
                           : std::fopen(opt.out.c_str(), "wb");
        if (f) {
            std::fwrite(payload.data(), 1, keep, f);
            if (f != stdout)
                std::fclose(f);
        }
        return kToolExitOk; // the lie is the point
    }
    if (injected && injected->kind == fault::Kind::Corrupt)
        fault::corruptJson(payload);

    return writeOutput(opt.out, payload) ? kToolExitOk : kToolExitIo;
}

int
cmdMerge(int argc, char **argv)
{
    std::string out;
    std::vector<std::string> files;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "--out wants a value\n");
                return usage();
            }
            out = argv[++i];
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        } else {
            files.push_back(argv[i]);
        }
    }
    if (files.empty())
        return usage();

    std::vector<PartialEstimate> parts;
    parts.reserve(files.size());
    for (const std::string &path : files) {
        std::string json, err;
        if (!readFile(path, json)) {
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
            return kToolExitIo;
        }
        PartialEstimate p;
        if (!PartialEstimate::fromJson(json, p, &err)) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         err.c_str());
            return kToolExitRuntime;
        }
        parts.push_back(std::move(p));
    }
    PartialEstimate merged;
    std::string err;
    if (!mergePartials(std::move(parts), merged, &err)) {
        std::fprintf(stderr, "merge failed: %s\n", err.c_str());
        return kToolExitRuntime;
    }
    return writeOutput(out, merged.resultJson()) ? kToolExitOk
                                                 : kToolExitIo;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "merge") == 0)
        return cmdMerge(argc - 2, argv + 2);
    return usage();
}
