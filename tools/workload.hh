/**
 * @file
 * The shared workload vocabulary of the sharded-estimation CLIs:
 * tools/qramsim_shard.cc (run one shard / merge partials) and
 * tools/qramsim_drive.cc (orchestrate a whole job) must agree exactly
 * on what a workload is — the same flags, the same strict parsing, the
 * same fingerprint — because the driver forwards its workload flags
 * verbatim to the workers and then merges what they produce. One
 * definition here keeps a driver/worker skew from ever becoming a
 * silently mixed merge.
 *
 * See the file header of tools/qramsim_shard.cc for the flag
 * reference.
 */

#ifndef QRAMSIM_TOOLS_WORKLOAD_HH
#define QRAMSIM_TOOLS_WORKLOAD_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/env.hh"
#include "qram/baselines.hh"
#include "qram/bucket_brigade.hh"
#include "qram/compact.hh"
#include "qram/fanout.hh"
#include "qram/select_swap.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"
#include "sim/sharding.hh"

namespace qramsim {
namespace tool {

struct Workload
{
    std::string arch = "bb";
    unsigned m = 3;
    unsigned k = 0;
    std::uint64_t memSeed = 7;
    std::string noise = "gate-z";
    double eps = 1e-3;
    double eps2 = 1e-3;
    unsigned rounds = 0;
    bool weighted = true;

    unsigned
    addressWidth() const
    {
        return (arch == "bb" || arch == "fanout") ? m : m + k;
    }

    QueryCircuit
    build() const
    {
        Rng rng(memSeed);
        Memory mem = Memory::random(addressWidth(), rng);
        if (arch == "bb")
            return BucketBrigadeQram(m).build(mem);
        if (arch == "fanout")
            return FanoutQram(m).build(mem);
        if (arch == "virtual")
            return VirtualQram(m, k).build(mem);
        if (arch == "sqc")
            return SqcBucketBrigade(m, k).build(mem);
        if (arch == "select-swap")
            return SelectSwapQram(m, k).build(mem);
        if (arch == "compact")
            return CompactQram(m, k).build(mem);
        std::fprintf(stderr, "unknown --arch '%s'\n", arch.c_str());
        std::exit(2); // kToolExitUsage
    }

    std::unique_ptr<NoiseModel>
    makeNoise() const
    {
        auto pauli = [&](const char *kind) -> PauliRates {
            if (std::strcmp(kind, "x") == 0)
                return PauliRates::bitFlip(eps);
            if (std::strcmp(kind, "y") == 0)
                return PauliRates{0.0, eps, 0.0};
            if (std::strcmp(kind, "z") == 0)
                return PauliRates::phaseFlip(eps);
            return PauliRates::depolarizing(eps); // depol
        };
        if (noise.rfind("qubit-", 0) == 0)
            return std::make_unique<QubitChannelNoise>(
                pauli(noise.c_str() + 6), rounds);
        if (noise.rfind("gate-", 0) == 0)
            return std::make_unique<GateNoise>(pauli(noise.c_str() + 5),
                                               weighted);
        if (noise == "device")
            return std::make_unique<DeviceNoise>(eps, eps2);
        std::fprintf(stderr, "unknown --noise '%s'\n", noise.c_str());
        std::exit(2); // kToolExitUsage
    }

    /** Canonical fingerprint: merge refuses mismatched partials. */
    std::string
    fingerprint(std::size_t shots) const
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "arch=%s;m=%u;k=%u;mem-seed=%llu;noise=%s;"
                      "eps=%.17g;eps2=%.17g;rounds=%u;weighted=%d;"
                      "input=uniform;shots=%zu",
                      arch.c_str(), m, k,
                      static_cast<unsigned long long>(memSeed),
                      noise.c_str(), eps, eps2, rounds,
                      weighted ? 1 : 0, shots);
        return buf;
    }

    /**
     * Non-exiting validation of the names build()/makeNoise() would
     * otherwise reject with std::exit(2). A CLI worker may die on a
     * bad workload — a resident server must refuse the request and
     * keep serving, so it calls this BEFORE touching build().
     */
    bool
    validate(std::string *err = nullptr) const
    {
        auto fail = [&](const std::string &msg) {
            if (err)
                *err = msg;
            return false;
        };
        static const char *const kArchs[] = {
            "bb", "fanout", "virtual", "sqc", "select-swap", "compact"};
        bool knownArch = false;
        for (const char *a : kArchs)
            knownArch = knownArch || arch == a;
        if (!knownArch)
            return fail("unknown arch '" + arch + "'");
        if (m == 0)
            return fail("m must be positive");
        // Mirrors makeNoise(): any qubit-*/gate-* suffix is a Pauli
        // channel name (unrecognized suffixes mean depolarizing).
        if (noise.rfind("qubit-", 0) != 0 &&
            noise.rfind("gate-", 0) != 0 && noise != "device")
            return fail("unknown noise '" + noise + "'");
        return true;
    }
};

/** Everything `qramsim_shard run` accepts (the driver parses the
 *  same set minus --shard/--out to learn the plan geometry it
 *  forwards). */
struct RunOptions
{
    Workload w;
    std::size_t shots = 1024;
    std::uint64_t seed = 2023;
    std::size_t shardIdx = 0, shardCount = 1;
    std::vector<double> factors;
    ShotStream stream = ShotStream::Counter;
    unsigned threads = 1;
    bool adaptive = false;
    AdaptivePolicy pol;
    std::string out, engine, tier;
};

/**
 * Parse `run` flags into @p opt. Strict (common/env.hh): a malformed
 * value prints a diagnostic and returns false — the caller exits with
 * the usage code. Also enforces the cross-flag invariants (shard index
 * in range, adaptive requires the counter stream).
 */
inline bool
parseRunFlags(int argc, char **argv, RunOptions &opt)
{
    constexpr unsigned long kNoCap =
        std::numeric_limits<unsigned long>::max();
    for (int i = 0; i < argc; ++i) {
        const std::string flag = argv[i];
        // Strict value parsing (common/env.hh): a malformed number is
        // a hard error, never a silently truncated zero.
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
                             "malformed value '%s' for %s (want an "
                             "unsigned integer <= %lu)\n",
                             v, flag.c_str(), cap);
                return false;
            }
            return true;
        };
        auto doubleVal = [&](double &dst) -> bool {
            const char *v = value();
            if (!v)
                return false;
            if (!env::parseDouble(v, dst)) {
                std::fprintf(stderr,
                             "malformed value '%s' for %s (want a "
                             "finite number)\n",
                             v, flag.c_str());
                return false;
            }
            return true;
        };
        unsigned long u = 0;
        if (flag == "--arch") {
            const char *v = value();
            if (!v)
                return false;
            opt.w.arch = v;
        } else if (flag == "--m") {
            if (!uintVal(64, u))
                return false;
            opt.w.m = static_cast<unsigned>(u);
        } else if (flag == "--k") {
            if (!uintVal(64, u))
                return false;
            opt.w.k = static_cast<unsigned>(u);
        } else if (flag == "--mem-seed") {
            if (!uintVal(kNoCap, u))
                return false;
            opt.w.memSeed = u;
        } else if (flag == "--noise") {
            const char *v = value();
            if (!v)
                return false;
            opt.w.noise = v;
        } else if (flag == "--eps") {
            if (!doubleVal(opt.w.eps))
                return false;
        } else if (flag == "--eps2") {
            if (!doubleVal(opt.w.eps2))
                return false;
        } else if (flag == "--rounds") {
            if (!uintVal(1ul << 30, u))
                return false;
            opt.w.rounds = static_cast<unsigned>(u);
        } else if (flag == "--unweighted") {
            opt.w.weighted = false;
        } else if (flag == "--shots") {
            if (!uintVal(kNoCap, u))
                return false;
            opt.shots = u;
        } else if (flag == "--seed") {
            if (!uintVal(kNoCap, u))
                return false;
            opt.seed = u;
        } else if (flag == "--factors") {
            const char *v = value();
            if (!v)
                return false;
            opt.factors.clear();
            for (const char *p = v; *p;) {
                char *end = nullptr;
                const double f = std::strtod(p, &end);
                if (end == p || (*end != '\0' && *end != ',')) {
                    std::fprintf(stderr,
                                 "malformed --factors '%s'\n", v);
                    return false;
                }
                opt.factors.push_back(f);
                p = *end == ',' ? end + 1 : end;
            }
        } else if (flag == "--shard") {
            const char *v = value();
            if (!v)
                return false;
            const char *slash = std::strchr(v, '/');
            unsigned long idx = 0, cnt = 0;
            if (!slash ||
                !env::parseUnsigned(
                    std::string(v, slash).c_str(), kNoCap, idx) ||
                !env::parseUnsigned(slash + 1, kNoCap, cnt)) {
                std::fprintf(stderr, "--shard wants I/N, got '%s'\n",
                             v);
                return false;
            }
            opt.shardIdx = idx;
            opt.shardCount = cnt;
        } else if (flag == "--stream") {
            const char *v = value();
            if (!v || !parseShotStream(v, opt.stream)) {
                std::fprintf(stderr, "unknown --stream '%s'\n",
                             v ? v : "");
                return false;
            }
        } else if (flag == "--threads") {
            if (!uintVal(1ul << 16, u))
                return false;
            opt.threads = static_cast<unsigned>(u);
        } else if (flag == "--engine") {
            const char *v = value();
            if (!v)
                return false;
            opt.engine = v;
        } else if (flag == "--tier") {
            const char *v = value();
            if (!v)
                return false;
            opt.tier = v;
        } else if (flag == "--out") {
            const char *v = value();
            if (!v)
                return false;
            opt.out = v;
        } else if (flag == "--adaptive") {
            opt.adaptive = true;
        } else if (flag == "--target-ci") {
            if (!doubleVal(opt.pol.targetHalfWidth))
                return false;
        } else if (flag == "--confidence") {
            if (!doubleVal(opt.pol.confidence))
                return false;
            if (!(opt.pol.confidence > 0.0 &&
                  opt.pol.confidence < 1.0)) {
                std::fprintf(stderr,
                             "--confidence wants a value in (0, 1)\n");
                return false;
            }
        } else if (flag == "--min-shots") {
            if (!uintVal(kNoCap, u))
                return false;
            opt.pol.minShots = u;
        } else if (flag == "--max-shots") {
            if (!uintVal(kNoCap, u))
                return false;
            opt.pol.maxShots = u;
        } else if (flag == "--batch") {
            if (!uintVal(1ul << 24, u))
                return false;
            opt.pol.batch = std::max<std::size_t>(1, u);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return false;
        }
    }
    if (opt.shardCount == 0 || opt.shardIdx >= opt.shardCount) {
        std::fprintf(stderr, "--shard index out of range\n");
        return false;
    }
    if (opt.adaptive && opt.stream == ShotStream::Sequential) {
        std::fprintf(stderr,
                     "--adaptive requires the counter stream "
                     "(keep decisions would desynchronize a shared "
                     "sequential draw sequence)\n");
        return false;
    }
    return true;
}

/**
 * Apply the per-shard execution options (threads, adaptive policy,
 * engine/tier pins) to a spec cut from the plan. False (with a
 * diagnostic) on an unknown engine name.
 */
inline bool
finishSpec(const RunOptions &opt, ShardSpec &spec)
{
    spec.threads = opt.threads;
    if (opt.adaptive) {
        spec.mode = EstimateMode::Adaptive;
        spec.policy = opt.pol;
    }
    if (opt.engine == "ensemble")
        spec.replay = ReplayPin::Ensemble;
    else if (opt.engine == "scalar")
        spec.replay = ReplayPin::Scalar;
    else if (!opt.engine.empty()) {
        std::fprintf(stderr, "unknown --engine '%s'\n",
                     opt.engine.c_str());
        return false;
    }
    spec.simdTier = opt.tier;
    return true;
}

/**
 * Cut this request's ShardSpec from its SweepPlan exactly the way
 * `qramsim_shard run` does — including the empty-shard special case
 * when more shards are requested than there are shots — then apply
 * the per-shard execution options via finishSpec. Shared by the
 * shard CLI and the resident server so the two transports can never
 * disagree about which shots a request covers. False (diagnostic on
 * stderr and in *err) on an unknown engine name.
 */
inline bool
cutShardSpec(const RunOptions &opt, ShardSpec &spec,
             std::string *err = nullptr)
{
    SweepPlan plan = SweepPlan::partition(opt.shots, opt.shardCount,
                                          opt.seed, opt.factors,
                                          opt.stream);
    std::size_t shardIdx = opt.shardIdx;
    if (shardIdx >= plan.shards.size()) {
        // More shards requested than shots: this shard is empty.
        // Emit a valid zero-shot partial so the merge side never has
        // to special-case job runners with fixed worker counts.
        ShardSpec empty = plan.shards.front();
        empty.shotBegin = empty.shotEnd = opt.shots;
        plan.shards.push_back(empty);
        shardIdx = plan.shards.size() - 1;
    }
    spec = plan.shards[shardIdx];
    if (!finishSpec(opt, spec)) {
        if (err)
            *err = "unknown --engine '" + opt.engine + "'";
        return false;
    }
    return true;
}

/**
 * Canonical text of the estimate a request asks for. Built from the
 * PARSED request, never the flag text: permuted flag orderings and
 * equivalent spellings of the same value ("2e-3" vs "0.002", factor
 * lists with the same doubles) canonicalize to the same text, while
 * every semantic knob (workload, noise rates, shot budget, seed,
 * stream, sweep factors, the estimate mode and the full adaptive
 * policy — batch included, it moves stopping decisions) changes it.
 *
 * Deliberately EXCLUDED: threads, pipeline, engine and SIMD-tier
 * pins, and the output path. The estimation invariants enforced by
 * the test suite make results bit-identical across all of them, so
 * keying on them would only split a cache.
 *
 * The one source of both resultCacheKey (one shard's result) and
 * qramsim_drive's broker job identity (a whole job), so neither can
 * drop a field that changes the answer.
 */
inline std::string
estimateKey(const RunOptions &opt)
{
    std::string key = opt.w.fingerprint(opt.shots);
    char buf[320];
    std::snprintf(buf, sizeof buf, ";seed=%llu;stream=%s",
                  static_cast<unsigned long long>(opt.seed),
                  shotStreamName(opt.stream));
    key += buf;
    key += ";factors=";
    for (std::size_t i = 0; i < opt.factors.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "",
                      opt.factors[i]);
        key += buf;
    }
    if (opt.adaptive) {
        std::snprintf(buf, sizeof buf,
                      ";mode=adaptive;target-ci=%.17g;confidence=%.17g;"
                      "min-shots=%zu;max-shots=%zu;batch=%zu;"
                      "max-draws=%zu",
                      opt.pol.targetHalfWidth, opt.pol.confidence,
                      opt.pol.minShots, opt.pol.maxShots,
                      opt.pol.batch, opt.pol.maxDraws);
        key += buf;
    } else {
        key += ";mode=replay";
    }
    return key;
}

/**
 * Canonical content key of one shard request's RESULT: the request's
 * estimateKey plus the shot range @p spec covers (cutShardSpec of
 * the same request). Two requests with equal keys produce
 * byte-identical PartialEstimate JSON, so a result cache may serve
 * one computation to both.
 */
inline std::string
resultCacheKey(const RunOptions &opt, const ShardSpec &spec)
{
    return estimateKey(opt) + ";range=" +
           std::to_string(spec.shotBegin) + "-" +
           std::to_string(spec.shotEnd);
}

inline bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[1 << 16];
    std::size_t nr;
    out.clear();
    while ((nr = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, nr);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

} // namespace tool
} // namespace qramsim

#endif // QRAMSIM_TOOLS_WORKLOAD_HH
