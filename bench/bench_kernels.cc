/**
 * @file
 * Kernel microbenchmark: rows/sec for each SIMD block kernel
 * (common/simd.hh) at every tier the host CPU supports, appended as a
 * "kernels" record to the perf trajectory (BENCH_simulator.json) so
 * kernel-level regressions stay visible independently of the
 * end-to-end shot rate.
 *
 *   bench_kernels --json FILE [--paths N] [--budget-ms T] [--m M]
 *                 [--repeats R]
 *
 * The kernels sweep a fused EnsembleBlock arena (16 shots' rows back
 * to back — the op-major replay layout). One "row" is one shot's
 * bit-across-paths row of N paths (the PathEnsemble layout: dense
 * ceil(N / 64)-word stride, tail bits masked by the valid row), so
 * the record reads block_*_rows_per_sec in per-shot-row units.
 *
 * The record also carries a replay-batch width sweep: estimator
 * shots/sec on a bucket-brigade m=M depolarizing workload (general
 * replay path) at each batch width, plus the best width — per-host
 * tuning data for FidelityEstimator::setReplayBatch. Every width
 * produces bit-identical results, so this is purely a throughput
 * surface.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "common/pathensemble.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/threadpool.hh"
#include "qram/bucket_brigade.hh"
#include "sim/fidelity.hh"

using namespace qramsim;

namespace {

using bench::secondsSince;

/**
 * Run fn(iters) with doubling counts until it fills budgetSec, then
 * re-run the calibrated width @p repeats times keeping the fastest
 * (min-of-N discards scheduler noise; the calibration laps double as
 * warmup).
 */
template <typename F>
double
itersPerSecond(F &&fn, double budgetSec, unsigned repeats = 1)
{
    std::size_t iters = 1024;
    double dt;
    for (;;) {
        auto t0 = std::chrono::steady_clock::now();
        fn(iters);
        dt = secondsSince(t0);
        if (dt >= budgetSec)
            break;
        iters = dt <= 0.0
                    ? iters * 8
                    : static_cast<std::size_t>(
                          static_cast<double>(iters) *
                          std::min(8.0, 1.25 * budgetSec / dt)) +
                          1;
    }
    double best = dt;
    for (unsigned r = 1; r < repeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn(iters);
        best = std::min(best, secondsSince(t0));
    }
    return static_cast<double>(iters) / best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    std::size_t paths = 4096;
    double budgetSec = 0.05;
    unsigned m = 6;
    unsigned repeats = 3;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (want("--json"))
            jsonPath = argv[++i];
        else if (want("--paths"))
            paths = std::strtoull(argv[++i], nullptr, 10);
        else if (want("--budget-ms"))
            budgetSec = std::strtod(argv[++i], nullptr) / 1000.0;
        else if (want("--m"))
            m = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (want("--repeats"))
            repeats = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
    }
    if (repeats == 0)
        repeats = 1;

    // An 8-row ensemble provides the row layout, the valid-mask
    // row, and control rows; contents are random valid bit patterns.
    PathEnsemble ens(8, paths);
    const std::size_t nw = ens.wordsPerQubit();
    CounterRng rng(0xbadc0ffee, 1);
    for (std::size_t q = 0; q < ens.numQubits(); ++q)
        for (std::size_t w = 0; w < nw; ++w)
            ens.row(q)[w] = rng.bits() & ens.validMask(w);

    const EnsembleCtrl ctrls[2] = {{2, 0}, {3, ~std::uint64_t(0)}};
    std::uint64_t sink = 0;

    std::printf("qramsim kernel bench | %zu paths, %zu-word rows\n",
                paths, nw);

    std::string tiersJson;
    for (simd::Tier tier : {simd::Tier::Scalar, simd::Tier::Avx2,
                            simd::Tier::Avx512}) {
        if (!simd::tierSupported(tier))
            continue;
        const simd::RowKernels &K = simd::kernels(tier);

        // The ops swept op-major over a fused EnsembleBlock arena
        // (kBlockShots shots' rows back to back, all joined).
        constexpr std::size_t kBlockShots = 16;
        EnsembleBlock blk;
        blk.reshape(8, paths, kBlockShots);
        for (std::size_t s = 0; s < kBlockShots; ++s) {
            blk.join(s);
            blk.loadShot(s, ens);
        }
        const std::size_t rw = blk.rowWords();
        std::uint64_t *bt0 = blk.blockRow(0);
        std::uint64_t *bt1 = blk.blockRow(1);
        const std::uint64_t *brows = blk.rowData();
        const std::uint64_t *bmask = blk.maskRow();
        simd::AlignedWords bdev(rw, 0);
        std::uint64_t anyOut[kBlockShots];

        const double xorFireB = kBlockShots * itersPerSecond(
            [&](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    K.xorFireBlock(bt0, brows, rw, ctrls, 2, bmask,
                                   rw);
                sink ^= bt0[0];
            },
            budgetSec, repeats);
        const double swapFireB = kBlockShots * itersPerSecond(
            [&](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    K.swapFireBlock(bt0, bt1, brows, rw, ctrls, 1,
                                    bmask, rw);
                sink ^= bt1[0];
            },
            budgetSec, repeats);
        const double xorRowB = kBlockShots * itersPerSecond(
            [&](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i)
                    K.xorRowBlock(bt0, blk.validMask(), nw,
                                  kBlockShots);
                sink ^= bt0[0];
            },
            budgetSec, repeats);
        const double diffOrB = kBlockShots * itersPerSecond(
            [&](std::size_t n) {
                for (std::size_t i = 0; i < n; ++i) {
                    bdev.assign(rw, 0);
                    K.diffOrBlock(bdev.data(), bt0, ens.row(4), nw,
                                  kBlockShots, anyOut);
                    sink ^= anyOut[0];
                }
            },
            budgetSec, repeats);

        std::printf("  %-6s block(%zu): xor_fire %.3g  "
                    "swap_fire %.3g  xor_row %.3g  diff_or %.3g "
                    "rows/s\n",
                    simd::tierName(tier), kBlockShots, xorFireB,
                    swapFireB, xorRowB, diffOrB);

        char buf[1024];
        std::snprintf(buf, sizeof buf,
                      "%s      {\n"
                      "        \"tier\": \"%s\",\n"
                      "        \"block_shots\": %zu,\n"
                      "        \"block_rows_per_sec\": %.6g,\n"
                      "        \"block_swap_fire_rows_per_sec\": %.6g,\n"
                      "        \"block_xor_row_rows_per_sec\": %.6g,\n"
                      "        \"block_diff_or_rows_per_sec\": %.6g\n"
                      "      }",
                      tiersJson.empty() ? "" : ",\n",
                      simd::tierName(tier), kBlockShots, xorFireB,
                      swapFireB, xorRowB, diffOrB);
        tiersJson += buf;
    }
    if (sink == 0xdeadbeefdeadbeefull) // defeat dead-code elimination
        std::printf("  (sink)\n");

    // Replay-batch width sweep through the op-major block path (the
    // default replay engine): depolarizing gate noise keeps nearly
    // every shot on the general replay path, so the shots/sec
    // surface over the width exposes the best batch for this host's
    // cache hierarchy.
    Rng rng2(7);
    Memory mem = Memory::random(m, rng2);
    QueryCircuit qc = BucketBrigadeQram(m).build(mem);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          AddressSuperposition::uniform(m));
    GateNoise depol(PauliRates::depolarizing(1e-3));
    std::printf("  replay-batch sweep (bucket-brigade m=%u, "
                "depolarizing):\n", m);
    std::string batchJson;
    std::size_t bestWidth = 0;
    double bestSps = 0.0;
    for (std::size_t width : {1, 2, 4, 8, 16, 32, 64}) {
        est.setReplayBatch(width);
        // One "iter" is one Monte Carlo shot here.
        const double sps = itersPerSecond(
            [&](std::size_t shots) {
                est.estimate(depol, shots, 11);
            },
            budgetSec, repeats);
        std::printf("    width %2zu: %.3g shots/s\n", width, sps);
        if (sps > bestSps) {
            bestSps = sps;
            bestWidth = width;
        }
        char bbuf[160];
        std::snprintf(bbuf, sizeof bbuf,
                      "%s      {\"width\": %zu, "
                      "\"shots_per_sec\": %.6g}",
                      batchJson.empty() ? "" : ",\n", width, sps);
        batchJson += bbuf;
    }
    std::printf("    best width: %zu\n", bestWidth);

    if (jsonPath.empty())
        return 0;

    std::string record;
    record += "  {\n"
              "    \"bench\": \"kernels\",\n"
              "    \"date\": \"" + bench::isoDateUtc() + "\",\n"
              "    \"git\": \"" + bench::gitRevision() + "\",\n"
              "    \"active_tier\": \"";
    record += simd::tierName(simd::activeTier());
    record += "\",\n";
    char head[192];
    std::snprintf(head, sizeof head,
                  "    \"paths\": %zu,\n    \"row_words\": %zu,\n"
                  "    \"repeats\": %u,\n"
                  "    \"host_hw_threads\": %u,\n",
                  paths, nw, repeats, hardwareThreads());
    record += head;
    record += "    \"tiers\": [\n" + tiersJson + "\n    ],\n";
    char batchHead[160];
    std::snprintf(batchHead, sizeof batchHead,
                  "    \"replay_batch_m\": %u,\n"
                  "    \"replay_engine\": \"block\",\n"
                  "    \"best_replay_batch\": %zu,\n", m, bestWidth);
    record += batchHead;
    record += "    \"replay_batch\": [\n" + batchJson + "\n    ]\n  }";

    if (!bench::appendJsonRecord(jsonPath, record)) {
        std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
        return 1;
    }
    std::printf("  appended record to %s\n", jsonPath.c_str());
    return 0;
}
