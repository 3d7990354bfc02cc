/**
 * @file
 * Simulator micro-benchmarks and the perf-trajectory record.
 *
 * Two modes:
 *
 *  - `bench_simulator --json FILE [--m M] [--budget-ms T] [--threads N]`
 *    runs the Fig. 10-style workload (bucket-brigade QRAM, uniform
 *    address superposition, Z-biased gate noise) through both the seed
 *    engine (per-Gate interpreter + per-shot linear collision scan)
 *    and the compiled engine (flat op stream + error-sparse replay),
 *    cross-checks them bit for bit, and writes a paths·gates/sec
 *    record to FILE — the number the ROADMAP perf trajectory tracks.
 *    A second workload swaps in depolarizing gate noise, whose X/Y
 *    events force the general replay path on nearly every shot, and
 *    records the scalar-replay vs bit-sliced-ensemble throughput —
 *    the ensemble engine's speedup over the compiled scalar engine —
 *    plus the threaded shot loop's throughput and stage split.
 *
 *  - without --json, the google-benchmark registrations run (when the
 *    library was available at configure time): Feynman-path throughput
 *    for circuit construction, ideal propagation, and noisy Monte
 *    Carlo shots — the "efficient simulation of noisy QRAM circuits
 *    at larger scale than previously possible" claim of Sec. 6.2.
 */

#include <chrono>
#include <complex>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "qram/bucket_brigade.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"

#ifdef QRAMSIM_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

using namespace qramsim;

namespace {

/**
 * The seed estimator, kept verbatim as the perf baseline: heap-walked
 * Gate objects, bit-at-a-time control checks, per-shot visible-key map
 * construction, and an O(paths^2)-worst-case collision scan.
 */
class SeedEstimator
{
  public:
    SeedEstimator(const QueryCircuit &qc,
                  const AddressSuperposition &input_)
        : exec(qc.circuit), addr(qc.addressQubits), bus(qc.busQubit),
          input(input_)
    {
        for (std::size_t k = 0; k < input.size(); ++k) {
            PathState p(qc.circuit.numQubits());
            for (std::size_t b = 0; b < addr.size(); ++b)
                p.bits.set(addr[b], (input.addresses[k] >> b) & 1);
            inputs.push_back(p);
            ideals.push_back(exec.runIdealReference(p));
            idealVisible.push_back(visibleKey(ideals.back().bits));
        }
    }

    const FeynmanExecutor &executor() const { return exec; }

    void
    shotFidelity(const ErrorRealization &errors, double &fullOut,
                 double &reducedOut) const
    {
        std::unordered_map<std::uint64_t, std::complex<double>> visAmp;
        visAmp.reserve(input.size());
        for (std::size_t k = 0; k < input.size(); ++k)
            visAmp[idealVisible[k]] = std::conj(input.amps[k]);

        std::complex<double> fullOverlap{0.0, 0.0};
        struct Group { std::complex<double> sum{0.0, 0.0}; };
        struct BitVecHash
        {
            std::size_t
            operator()(const BitVec &b) const
            {
                return b.hash();
            }
        };
        std::unordered_map<BitVec, Group, BitVecHash> groups;
        groups.reserve(8);

        for (std::size_t k = 0; k < input.size(); ++k) {
            PathState out = exec.runNoisyReference(inputs[k], errors);
            if (out.bits == ideals[k].bits) {
                fullOverlap += std::conj(input.amps[k]) *
                               input.amps[k] * out.phase;
            } else {
                auto it = visAmp.find(visibleKey(out.bits));
                if (it != visAmp.end()) {
                    for (std::size_t j = 0; j < input.size(); ++j) {
                        if (ideals[j].bits == out.bits) {
                            fullOverlap += std::conj(input.amps[j]) *
                                           input.amps[k] * out.phase;
                            break;
                        }
                    }
                }
            }
            auto it = visAmp.find(visibleKey(out.bits));
            if (it != visAmp.end()) {
                BitVec anc = out.bits;
                for (Qubit q : addr)
                    anc.set(q, false);
                anc.set(bus, false);
                groups[anc].sum +=
                    it->second * input.amps[k] * out.phase;
            }
        }

        fullOut = std::norm(fullOverlap);
        double red = 0.0;
        for (const auto &[anc, g] : groups)
            red += std::norm(g.sum);
        reducedOut = red;
    }

    FidelityResult
    estimate(const NoiseModel &noise, std::size_t shots,
             std::uint64_t seed) const
    {
        Rng rng(seed);
        double sumF = 0.0, sumF2 = 0.0, sumR = 0.0, sumR2 = 0.0;
        for (std::size_t s = 0; s < shots; ++s) {
            ErrorRealization errors = noise.sample(exec, rng);
            double f = 0.0, r = 0.0;
            shotFidelity(errors, f, r);
            sumF += f;
            sumF2 += f * f;
            sumR += r;
            sumR2 += r * r;
        }
        FidelityResult res;
        res.shots = shots;
        res.full = stats::meanFromSums(sumF, shots);
        res.reduced = stats::meanFromSums(sumR, shots);
        if (shots > 1) {
            res.fullStderr = stats::stderrFromSums(sumF, sumF2, shots);
            res.reducedStderr =
                stats::stderrFromSums(sumR, sumR2, shots);
        }
        return res;
    }

  private:
    std::uint64_t
    visibleKey(const BitVec &bits) const
    {
        std::uint64_t key = 0;
        for (std::size_t b = 0; b < addr.size(); ++b)
            key |= std::uint64_t(bits.get(addr[b])) << b;
        key |= std::uint64_t(bits.get(bus)) << addr.size();
        return key;
    }

    FeynmanExecutor exec;
    std::vector<Qubit> addr;
    Qubit bus;
    AddressSuperposition input;
    std::vector<PathState> inputs;
    std::vector<PathState> ideals;
    std::vector<std::uint64_t> idealVisible;
};

using bench::secondsSince;

/**
 * Throughput of fn(shots): calibrate with doubling shot counts until
 * one run fills budgetSec (the calibration runs double as warmup —
 * caches hot, pools spun up, arenas sized), then re-run the
 * calibrated width @p repeats times and keep the fastest. Min-of-N
 * discards scheduler noise, so the dated trajectory records compare
 * across commits with less jitter.
 */
template <typename F>
double
shotsPerSecond(F &&fn, double budgetSec, unsigned repeats)
{
    std::size_t shots = 1;
    double dt;
    for (;;) {
        auto t0 = std::chrono::steady_clock::now();
        fn(shots);
        dt = secondsSince(t0);
        if (dt >= budgetSec)
            break;
        shots = dt <= 0.0
                    ? shots * 8
                    : static_cast<std::size_t>(
                          static_cast<double>(shots) *
                          std::min(8.0, 1.25 * budgetSec / dt)) +
                          1;
    }
    double best = dt;
    for (unsigned r = 1; r < repeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn(shots);
        best = std::min(best, secondsSince(t0));
    }
    return static_cast<double>(shots) / best;
}

int
runJsonMode(const std::string &path, unsigned m, double budgetSec,
            unsigned threads, unsigned repeats)
{
    std::printf("qramsim perf record | bucket-brigade m=%u, "
                "gate-noise shots\n", m);
    Rng rng(7);
    Memory mem = Memory::random(m, rng);
    QueryCircuit qc = BucketBrigadeQram(m).build(mem);
    AddressSuperposition in = AddressSuperposition::uniform(m);
    GateNoise noise(PauliRates::phaseFlip(1e-3));

    SeedEstimator seedEst(qc, in);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          in);
    const std::size_t paths = in.size();
    const std::size_t gates = est.executor().stream().size();
    std::printf("  circuit: %zu qubits, %zu executable gates, %zu "
                "paths\n", qc.circuit.numQubits(), gates, paths);

    // Cross-check before timing: both engines must produce the same
    // estimate bit for bit for a fixed seed.
    const std::uint64_t checkSeed = 2023;
    FidelityResult a = seedEst.estimate(noise, 6, checkSeed);
    FidelityResult b = est.estimate(noise, 6, checkSeed);
    if (a.full != b.full || a.reduced != b.reduced) {
        std::fprintf(stderr,
                     "engine mismatch: seed (%.17g, %.17g) vs "
                     "compiled (%.17g, %.17g)\n",
                     a.full, a.reduced, b.full, b.reduced);
        return 1;
    }

    const double seedSps = shotsPerSecond(
        [&](std::size_t shots) {
            seedEst.estimate(noise, shots, 11);
        },
        budgetSec, repeats);
    const double compiledSps = shotsPerSecond(
        [&](std::size_t shots) {
            est.estimate(noise, shots, 11);
        },
        budgetSec, repeats);
    double compiledMtSps = compiledSps;
    if (threads > 1) {
        compiledMtSps = shotsPerSecond(
            [&](std::size_t shots) {
                est.estimate(noise, shots, 11, threads);
            },
            budgetSec, repeats);
    }

    const double perShot =
        static_cast<double>(paths) * static_cast<double>(gates);
    const double speedup = compiledSps / seedSps;
    std::printf("  seed engine:     %.3g shots/s (%.4g paths*gates/s)\n",
                seedSps, seedSps * perShot);
    std::printf("  compiled engine: %.3g shots/s (%.4g paths*gates/s), "
                "speedup %.2fx\n", compiledSps, compiledSps * perShot,
                speedup);
    if (threads > 1)
        std::printf("  compiled x%u thr: %.3g shots/s\n", threads,
                    compiledMtSps);

    // Depolarizing workload: X/Y events on almost every shot, so both
    // engines live on the general replay path. Scalar replay is the
    // pre-ensemble compiled engine; the ensemble engine advances 64
    // paths per word op.
    // The estimator is noise-agnostic, so the existing one serves the
    // depolarizing workload too — only the replay engine is toggled.
    GateNoise depol(PauliRates::depolarizing(1e-3));
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    FidelityResult ds = est.estimate(depol, 6, checkSeed);
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
    FidelityResult de = est.estimate(depol, 6, checkSeed);
    if (ds.full != de.full || ds.reduced != de.reduced) {
        std::fprintf(stderr,
                     "engine mismatch: scalar (%.17g, %.17g) vs "
                     "block (%.17g, %.17g)\n",
                     ds.full, ds.reduced, de.full, de.reduced);
        return 1;
    }
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    const double depolScalarSps = shotsPerSecond(
        [&](std::size_t shots) {
            est.estimate(depol, shots, 11);
        },
        budgetSec, repeats);
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
    const double depolEnsembleSps = shotsPerSecond(
        [&](std::size_t shots) {
            est.estimate(depol, shots, 11);
        },
        budgetSec, repeats);
    const double ensembleSpeedup = depolEnsembleSps / depolScalarSps;
    std::printf("  depolarizing (general path):\n");
    std::printf("    scalar replay:   %.3g shots/s\n", depolScalarSps);
    std::printf("    op-major replay: %.3g shots/s, speedup %.2fx\n",
                depolEnsembleSps, ensembleSpeedup);

    // The threaded shot loop on the same depolarizing workload: each
    // thread runs the op-major loop over its slice of the counter
    // streams and times its own stages.
    const unsigned pthreads = std::max(2u, threads);
    const double depolThreadedSps = shotsPerSecond(
        [&](std::size_t shots) {
            est.estimate(depol, shots, 11, pthreads);
        },
        budgetSec, repeats);
    // Stage breakdown of the last (timed) threaded run.
    const PipelineStats pst = est.lastPipelineStats();
    std::printf("    threaded x%u:    %.3g shots/s\n", pthreads,
                depolThreadedSps);
    std::printf("    stages: sample %.3fs gather %.3fs replay %.3fs "
                "accumulate %.3fs | wall %.3fs occupancy %.2f "
                "(%u hw threads)\n",
                pst.sampleSec, pst.gatherSec, pst.replaySec,
                pst.accumulateSec, pst.wallSec, pst.occupancy(),
                hardwareThreads());

    // Append one dated record to the trajectory array (legacy
    // single-object files are wrapped on first append).
    char record[3072];
    std::snprintf(
        record, sizeof record,
        "  {\n"
        "    \"bench\": \"simulator\",\n"
        "    \"date\": \"%s\",\n"
        "    \"git\": \"%s\",\n"
        "    \"workload\": \"bucket_brigade_gate_noise\",\n"
        "    \"simd_tier\": \"%s\",\n"
        "    \"m\": %u,\n"
        "    \"qubits\": %zu,\n"
        "    \"gates\": %zu,\n"
        "    \"paths\": %zu,\n"
        "    \"repeats\": %u,\n"
        "    \"noise\": \"gate phase-flip 1e-3 (weighted)\",\n"
        "    \"seed_engine_shots_per_sec\": %.6g,\n"
        "    \"seed_engine_paths_gates_per_sec\": %.6g,\n"
        "    \"compiled_engine_shots_per_sec\": %.6g,\n"
        "    \"compiled_engine_paths_gates_per_sec\": %.6g,\n"
        "    \"compiled_mt_shots_per_sec\": %.6g,\n"
        "    \"threads\": %u,\n"
        "    \"speedup\": %.4g,\n"
        "    \"depol_noise\": \"gate depolarizing 1e-3 (weighted)\",\n"
        "    \"depol_scalar_shots_per_sec\": %.6g,\n"
        "    \"depol_ensemble_shots_per_sec\": %.6g,\n"
        "    \"ensemble_speedup\": %.4g,\n"
        "    \"depol_threaded_shots_per_sec\": %.6g,\n"
        "    \"depol_threaded_threads\": %u,\n"
        "    \"host_hw_threads\": %u,\n"
        "    \"stage_sample_sec\": %.6g,\n"
        "    \"stage_gather_sec\": %.6g,\n"
        "    \"stage_replay_sec\": %.6g,\n"
        "    \"stage_accumulate_sec\": %.6g,\n"
        "    \"depol_threaded_wall_sec\": %.6g,\n"
        "    \"depol_threaded_occupancy\": %.4g,\n"
        "    \"depol_threaded_batches\": %zu\n"
        "  }",
        bench::isoDateUtc().c_str(), bench::gitRevision().c_str(),
        simd::tierName(simd::activeTier()), m, qc.circuit.numQubits(),
        gates, paths, repeats, seedSps, seedSps * perShot, compiledSps,
        compiledSps * perShot, compiledMtSps, threads, speedup,
        depolScalarSps, depolEnsembleSps, ensembleSpeedup,
        depolThreadedSps, pthreads, hardwareThreads(), pst.sampleSec,
        pst.gatherSec, pst.replaySec, pst.accumulateSec, pst.wallSec,
        pst.occupancy(), pst.batches);
    if (!bench::appendJsonRecord(path, record)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("  appended record to %s\n", path.c_str());
    return 0;
}

/**
 * The adaptive-estimation headline record: on a depolarizing
 * bucket-brigade sweep, how many evaluated shots the adaptive
 * estimator (analytic empty-class folding + stratified allocation +
 * sequential stopping) needs to reach the CI half-width a
 * fixed-budget replay sweep achieves, and the wall-clock ratio at
 * that matched target. Self-calibrating comparator: the fixed run's
 * own worst-point CI half-width IS the adaptive target, so by
 * construction the fixed budget is exactly the uniform allocation
 * that reaches the target and no hand-picked tolerance can skew the
 * ratio either way.
 */
int
appendAdaptiveRecord(const std::string &path, unsigned m,
                     unsigned repeats)
{
    std::printf("qramsim adaptive record | bucket-brigade m=%u, "
                "depolarizing sweep\n", m);
    Rng rng(7);
    Memory mem = Memory::random(m, rng);
    QueryCircuit qc = BucketBrigadeQram(m).build(mem);
    AddressSuperposition in = AddressSuperposition::uniform(m);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          in);
    GateNoise depol(PauliRates::depolarizing(1e-3));

    // Scale the sweep's rate factors so the analytic empty-class
    // weight at the middle point is ~0.6 — a regime where folding
    // matters but the sampled strata still dominate the work, i.e.
    // representative rather than a best case. P(empty) is monotone
    // decreasing in the factor, so bisect.
    auto pEmptyAt = [&](double f) {
        double pe = 0.0, pz = 0.0;
        if (!depol.classProbabilities(est.executor(), &f, 1, &pe,
                                      &pz))
            return -1.0;
        return pe;
    };
    if (pEmptyAt(1.0) < 0.0) {
        std::fprintf(stderr,
                     "noise model lost its closed-form class "
                     "probabilities\n");
        return 1;
    }
    double lo = 0.0, hi = 1.0;
    while (pEmptyAt(hi) > 0.6 && hi < 1e9)
        hi *= 2.0;
    for (int it = 0; it < 60; ++it) {
        const double mid = 0.5 * (lo + hi);
        (pEmptyAt(mid) > 0.6 ? lo : hi) = mid;
    }
    const double fMid = 0.5 * (lo + hi);
    const std::vector<double> factors = {0.5 * fMid, fMid,
                                         1.5 * fMid};
    const std::size_t npts = factors.size();

    // Fixed-budget comparator: a plain replay sweep, n0 shots per
    // point (one draw serves every point — common random numbers).
    const std::size_t n0 = 256;
    const std::uint64_t seed = 909;
    const double conf = 0.95;
    double fixedSec = 0.0;
    std::vector<FidelityResult> fixed;
    for (unsigned r = 0; r < std::max(1u, repeats); ++r) {
        auto t0 = std::chrono::steady_clock::now();
        auto res = est.estimateSweep(depol, factors, n0, seed);
        const double dt = secondsSince(t0);
        if (r == 0 || dt < fixedSec) {
            fixedSec = dt;
            fixed = std::move(res);
        }
    }
    double target = 0.0;
    for (const FidelityResult &r : fixed)
        target = std::max(target, bench::ciHalfWidthFull(r, conf));
    if (target <= 0.0)
        target = 1e-4; // degenerate zero-variance workload

    AdaptivePolicy pol;
    pol.targetHalfWidth = target;
    pol.confidence = conf;
    pol.minShots = 16;
    pol.maxShots = 8 * n0;
    pol.batch = 64;
    est.setAdaptivePolicy(pol);
    double adaptiveSec = 0.0;
    AdaptiveReport rep;
    for (unsigned r = 0; r < std::max(1u, repeats); ++r) {
        auto t0 = std::chrono::steady_clock::now();
        AdaptiveReport rr =
            est.estimateSweepAdaptive(depol, factors, seed + 1);
        const double dt = secondsSince(t0);
        if (r == 0 || dt < adaptiveSec) {
            adaptiveSec = dt;
            rep = std::move(rr);
        }
    }

    const std::size_t fixedShots = n0 * npts;
    const std::size_t adaptShots = rep.keptShots;
    const double shotSpeedup =
        adaptShots > 0 ? static_cast<double>(fixedShots) /
                             static_cast<double>(adaptShots)
                       : 0.0;
    const double wallSpeedup =
        adaptiveSec > 0.0 ? fixedSec / adaptiveSec : 0.0;
    std::size_t converged = 0;
    for (char c : rep.converged)
        converged += c ? 1u : 0u;

    std::printf("  sweep factors: %.4g / %.4g / %.4g "
                "(P(empty) %.3f / %.3f / %.3f)\n",
                factors[0], factors[1], factors[2], rep.emptyProb[0],
                rep.emptyProb[1], rep.emptyProb[2]);
    std::printf("  matched CI half-width %.4g @ %.0f%%: fixed %zu "
                "shots (%.3fs), adaptive %zu shots (%.3fs)\n",
                target, conf * 100.0, fixedShots, fixedSec,
                adaptShots, adaptiveSec);
    std::printf("  adaptive speedup: %.2fx fewer shots, %.2fx "
                "wall-clock; %zu/%zu points converged, %zu raw "
                "draws\n",
                shotSpeedup, wallSpeedup, converged, npts,
                rep.rawDraws);

    auto jsonArray = [](const auto &xs, const char *fmt) {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < xs.size(); ++i) {
            std::snprintf(buf, sizeof buf, fmt, xs[i]);
            s += (i ? ", " : "") + std::string(buf);
        }
        return s + "]";
    };
    std::vector<double> zShots(rep.zOnlyShots.begin(),
                               rep.zOnlyShots.end());
    std::vector<double> gShots(rep.generalShots.begin(),
                               rep.generalShots.end());
    char record[2048];
    std::snprintf(
        record, sizeof record,
        "  {\n"
        "    \"bench\": \"adaptive\",\n"
        "    \"date\": \"%s\",\n"
        "    \"git\": \"%s\",\n"
        "    \"workload\": \"bucket_brigade_gate_depol_sweep\",\n"
        "    \"noise\": \"gate depolarizing 1e-3 (weighted)\",\n"
        "    \"m\": %u,\n"
        "    \"qubits\": %zu,\n"
        "    \"points\": %zu,\n"
        "    \"factors\": %s,\n"
        "    \"confidence\": %.4g,\n"
        "    \"target_half_width\": %.6g,\n"
        "    \"fixed_shots_per_point\": %zu,\n"
        "    \"fixed_shots_to_target_ci\": %zu,\n"
        "    \"shots_to_target_ci\": %zu,\n"
        "    \"adaptive_speedup\": %.4g,\n"
        "    \"fixed_wall_sec\": %.6g,\n"
        "    \"adaptive_wall_sec\": %.6g,\n"
        "    \"wall_speedup\": %.4g,\n"
        "    \"empty_class_prob\": %.6g,\n"
        "    \"empty_class_prob_sweep\": %s,\n"
        "    \"zonly_shots\": %s,\n"
        "    \"general_shots\": %s,\n"
        "    \"raw_draws\": %zu,\n"
        "    \"converged_points\": %zu,\n"
        "    \"repeats\": %u,\n"
        "    \"host_hw_threads\": %u\n"
        "  }",
        bench::isoDateUtc().c_str(), bench::gitRevision().c_str(), m,
        qc.circuit.numQubits(), npts,
        jsonArray(factors, "%.6g").c_str(), conf, target, n0,
        fixedShots, adaptShots, shotSpeedup, fixedSec, adaptiveSec,
        wallSpeedup, rep.emptyProb[1],
        jsonArray(rep.emptyProb, "%.6g").c_str(),
        jsonArray(zShots, "%.0f").c_str(),
        jsonArray(gShots, "%.0f").c_str(), rep.rawDraws, converged,
        repeats, hardwareThreads());
    if (!bench::appendJsonRecord(path, record)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::printf("  appended adaptive record to %s\n", path.c_str());
    return 0;
}

} // namespace

#ifdef QRAMSIM_HAVE_GBENCH
namespace {

void
bmBuildCircuit(benchmark::State &state)
{
    const unsigned m = static_cast<unsigned>(state.range(0));
    Rng rng(1);
    Memory mem = Memory::random(m + 1, rng);
    VirtualQram arch(m, 1);
    for (auto _ : state) {
        QueryCircuit qc = arch.build(mem);
        benchmark::DoNotOptimize(qc.circuit.numGates());
    }
}
BENCHMARK(bmBuildCircuit)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void
bmIdealQuery(benchmark::State &state)
{
    const unsigned m = static_cast<unsigned>(state.range(0));
    Rng rng(2);
    Memory mem = Memory::random(m, rng);
    QueryCircuit qc = VirtualQram(m, 0).build(mem);
    FeynmanExecutor exec(qc.circuit);
    PathState in(qc.circuit.numQubits());
    for (auto _ : state) {
        PathState out = exec.runIdeal(in);
        benchmark::DoNotOptimize(out.phase);
    }
    state.SetItemsProcessed(state.iterations() *
                            qc.circuit.numGates());
}
BENCHMARK(bmIdealQuery)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void
bmIdealQueryReference(benchmark::State &state)
{
    const unsigned m = static_cast<unsigned>(state.range(0));
    Rng rng(2);
    Memory mem = Memory::random(m, rng);
    QueryCircuit qc = VirtualQram(m, 0).build(mem);
    FeynmanExecutor exec(qc.circuit);
    PathState in(qc.circuit.numQubits());
    for (auto _ : state) {
        PathState out = exec.runIdealReference(in);
        benchmark::DoNotOptimize(out.phase);
    }
    state.SetItemsProcessed(state.iterations() *
                            qc.circuit.numGates());
}
BENCHMARK(bmIdealQueryReference)->Arg(2)->Arg(4)->Arg(6)->Arg(8);

void
bmNoisyShot(benchmark::State &state)
{
    const unsigned m = static_cast<unsigned>(state.range(0));
    Rng rng(3);
    Memory mem = Memory::random(m, rng);
    QueryCircuit qc = VirtualQram(m, 0).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(m));
    GateNoise noise(PauliRates::phaseFlip(1e-3));
    noise.prepare(est.executor());
    Rng shotRng(4);
    FlatRealization errs;
    for (auto _ : state) {
        noise.sampleFlat(est.executor(), shotRng, errs);
        double f = 0.0, r = 0.0;
        est.shotFidelity(errs, f, r);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(bmNoisyShot)->Arg(2)->Arg(4)->Arg(6);

} // namespace
#endif // QRAMSIM_HAVE_GBENCH

int
main(int argc, char **argv)
{
    std::string jsonPath;
    unsigned m = 8;
    unsigned threads = 2;
    unsigned repeats = 3;
    double budgetSec = 0.5;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (want("--json"))
            jsonPath = argv[++i];
        else if (want("--m"))
            m = static_cast<unsigned>(std::strtoul(argv[++i], nullptr,
                                                   10));
        else if (want("--threads"))
            threads = static_cast<unsigned>(std::strtoul(argv[++i],
                                                         nullptr, 10));
        else if (want("--repeats"))
            repeats = static_cast<unsigned>(std::strtoul(argv[++i],
                                                         nullptr, 10));
        else if (want("--budget-ms"))
            budgetSec =
                std::strtod(argv[++i], nullptr) / 1000.0;
    }
    if (repeats == 0)
        repeats = 1;
    if (!jsonPath.empty()) {
        int rc = runJsonMode(jsonPath, m, budgetSec, threads, repeats);
        if (rc == 0)
            rc = appendAdaptiveRecord(jsonPath, m, repeats);
        return rc;
    }

#ifdef QRAMSIM_HAVE_GBENCH
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
#else
    std::fprintf(stderr,
                 "google-benchmark unavailable; use --json FILE "
                 "[--m M] [--budget-ms T] [--threads N] "
                 "[--repeats R]\n");
    return 1;
#endif
}
