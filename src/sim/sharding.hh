/**
 * @file
 * Sharded estimation: plan → execute → merge.
 *
 * The Monte-Carlo fidelity figures are embarrassingly parallel across
 * shots, and every per-shot value is a pure function of (estimator,
 * noise model, seed, global shot index). This header turns
 * FidelityEstimator::estimate / estimateSweep into a distributable
 * three-phase subsystem:
 *
 *  - **Plan** — SweepPlan::partition splits a shot budget into N
 *    ShardSpecs (contiguous global shot ranges plus the shared seed,
 *    sweep factors, stream kind, and an optional SIMD tier pin).
 *    Specs are plain data: serialize them, mail them to another
 *    process or host, hand them to any job runner.
 *
 *  - **Execute** — FidelityEstimator::runShard evaluates one spec and
 *    returns a PartialEstimate: the per-shot fidelity rows of the
 *    range plus shot-order-reduced summary sums. Shards share no
 *    state; a shard may itself run multi-threaded.
 *
 *  - **Merge** — PartialEstimate::merge / mergePartials fold partials
 *    back together. Because the rows are keyed by global shot index
 *    and the summary sums are (re)derived by reducing the rows in
 *    global shot order, the merged result is *bit-identical* for
 *    every partition and every merge order — and identical to the
 *    single-process estimate()/estimateSweep() result for the same
 *    stream kind (enforced by tests/test_sharding.cc).
 *
 * Two shot streams are supported (ShotStream):
 *
 *  - Sequential — the one-Rng(seed) Mersenne stream of the sequential
 *    estimator. Noise models draw a fixed number of uniforms per shot
 *    (one per exposure site), so a shard starting at global shot b
 *    fast-forwards by sampling-and-discarding shots [0, b): exact,
 *    stdlib-independent, and bit-identical to the seed estimator —
 *    but the skipped sampling work grows with b, so this stream is
 *    for reproducing sequential results, not for scale.
 *  - Counter — per-shot CounterRng(seed, shot) streams (the threaded
 *    loop's streams): partition-invariant with zero fast-forward
 *    cost. The canonical stream for sharded runs.
 *
 * JSON (de)serialization (toJson/fromJson, resultJson) lets shards
 * run in separate processes or on separate hosts: see
 * tools/qramsim_shard.cc (`run` one spec → partial JSON; `merge`
 * partial files → FidelityResult JSON) and bench_fig10/11 --shards N
 * (fork-based workers through the same code path).
 */

#ifndef QRAMSIM_SIM_SHARDING_HH
#define QRAMSIM_SIM_SHARDING_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qramsim {

struct FidelityResult;
class FidelityEstimator;
class ThreadPool;

/** Which RNG stream a shard's shots draw from. */
enum class ShotStream : std::uint8_t
{
    /**
     * One Rng(seed) Mersenne stream consumed in global shot order —
     * the sequential estimator's stream. Shards with shotBegin > 0
     * fast-forward by resampling the preceding shots' draws.
     */
    Sequential = 0,

    /**
     * Per-shot CounterRng(seed, shot) streams — the threaded loop's
     * streams. Partition-invariant: any shard starts at its first
     * shot for free.
     */
    Counter = 1,
};

/**
 * Version of the noise sampler that turns a counter stream into
 * realizations (NoiseModel's event walk, sim/noise.cc). Version 1
 * drew one uniform per exposure site; version 2 walks from event to
 * event with exponential skips. The same seed gives other shots under
 * another version, so partials, checkpoints, result-cache keys,
 * broker job identities and result.json carry it: work drawn by one
 * version never answers a request for, or merges with, another's,
 * and two results drawn by different versions never share a header.
 */
constexpr unsigned kSamplerVersion = 2;

/** "sequential" / "counter". */
const char *shotStreamName(ShotStream s);

/** Parse a stream name; returns false on an unknown name. */
bool parseShotStream(const std::string &name, ShotStream &out);

/**
 * Which estimation policy a shard runs under.
 *
 *  - Replay — the historical fixed-budget path: every shot in the
 *    range is sampled, classified, and evaluated, and the result is
 *    bit-identical across engines, SIMD tiers, thread counts, and
 *    shard partitions. The default; nothing changes for existing
 *    callers.
 *  - Adaptive — the stratified sequential-stopping estimator:
 *    statistically equivalent (CI-tolerance-validated, see
 *    tests/test_adaptive.cc) but NOT bit-identical to Replay. The
 *    empty stratum's contribution is folded in analytically from the
 *    noise model's closed-form class probabilities, sampled shots are
 *    kept per-stratum under a deterministic Neyman allocation rule,
 *    and sweep points stop drawing once their CI half-width reaches
 *    the policy target. Requires ShotStream::Counter.
 */
enum class EstimateMode : std::uint8_t { Replay = 0, Adaptive = 1 };

/**
 * Knobs of the adaptive estimator (ignored under EstimateMode::Replay).
 *
 * The degenerate default (targetHalfWidth <= 0) never stops early and
 * keeps every non-empty draw: keep decisions then depend only on each
 * draw's class, which makes the kept-row set partition-invariant and
 * adaptive shard merges byte-identical to a single-process run. With
 * a positive target, the sequential-stopping rule kicks in and only
 * merge-order invariance (not partition invariance) is guaranteed.
 */
struct AdaptivePolicy
{
    /** Stop a sweep point once z_confidence * stderr(full fidelity)
     *  falls to this half-width; <= 0 disables stopping. */
    double targetHalfWidth = 0.0;

    /** Confidence level of the stopping CI (two-sided). */
    double confidence = 0.95;

    /** Minimum kept shots per point before stopping is considered. */
    std::size_t minShots = 64;

    /** Kept-shot budget per point, pooled across the sweep: budget
     *  freed by early-stopping points rolls over to slow ones. */
    std::size_t maxShots = 65536;

    /** Raw draws between stopping checks (batch boundaries are also
     *  where in-flight evaluation chunks drain). */
    std::size_t batch = 256;

    /** Raw-draw budget; 0 derives one from maxShots and the smallest
     *  non-empty class probability across the sweep. */
    std::size_t maxDraws = 0;
};

/**
 * One unit of sharded work: a contiguous global shot range plus
 * everything needed to evaluate it reproducibly anywhere.
 */
struct ShardSpec
{
    std::size_t shotBegin = 0; ///< first global shot (inclusive)
    std::size_t shotEnd = 0;   ///< one past the last global shot
    std::size_t totalShots = 0; ///< the plan's full shot budget
    std::uint64_t seed = 0;     ///< the plan's base seed
    ShotStream stream = ShotStream::Counter;

    /**
     * Rate scale factors of an eps_r sweep (empty for a plain
     * estimate). Every shard carries the FULL factor list — sharding
     * partitions shots, never sweep points.
     */
    std::vector<double> factors;

    /** In-process threads for this shard (0 = hardware concurrency;
     *  Sequential shards always run single-threaded). */
    unsigned threads = 1;

    /**
     * Worker pool this shard's threaded execution runs on.
     * nullptr (the default, and the value after deserialization — the
     * pool is process-local, never part of the JSON wire format) means
     * the estimator uses its own lazily created persistent pool.
     * Callers running several in-process shards concurrently on ONE
     * estimator should pass a shared pool here: the estimator's lazy
     * pool may be re-created to grow and must not be resized while
     * another shard is using it.
     */
    ThreadPool *pool = nullptr;

    /** SIMD tier pin ("", "scalar", "avx2", "avx512"). */
    std::string simdTier;

    /** Estimation policy. Under Adaptive the shot range is a RAW DRAW
     *  range: draw d uses CounterRng(seed, d), empty draws cost no
     *  evaluation, and only kept draws become rows. */
    EstimateMode mode = EstimateMode::Replay;

    /** Adaptive knobs (ignored under Replay). */
    AdaptivePolicy policy;

    std::size_t shots() const { return shotEnd - shotBegin; }

    /**
     * The worker count this spec actually runs with: threads == 0
     * resolves to hardware concurrency, Sequential-stream shards are
     * forced single-threaded (one Mersenne stream cannot be split),
     * and multi-threaded counts are clamped to the shot count. The
     * one copy of a rule that used to live in three places in
     * fidelity.cc.
     */
    unsigned resolvedThreads() const;
};

/**
 * Apply a spec's SIMD-tier pin to the process-wide kernel dispatch.
 * Panics on an unknown tier name. The only pin left is process-wide,
 * so @p est is not modified. (Separate from runShard, which is const;
 * orchestrators call this once per process.)
 */
void applyShardPins(FidelityEstimator &est, const ShardSpec &spec);

/**
 * A partitioned estimate or sweep: N shard specs tiling
 * [0, totalShots) exactly, in shot order.
 */
struct SweepPlan
{
    std::size_t totalShots = 0;
    std::uint64_t seed = 0;
    std::vector<double> factors;
    std::vector<ShardSpec> shards;

    /**
     * Partition @p shots into @p nShards contiguous ranges (the same
     * ceil(shots/n) chunking as the threaded shot loop; trailing
     * empty ranges are dropped, and a zero-shot plan keeps one empty
     * shard so merge/finalize still work). @p factors empty plans a
     * plain estimate, otherwise an eps_r sweep.
     */
    static SweepPlan partition(std::size_t shots, std::size_t nShards,
                               std::uint64_t seed,
                               std::vector<double> factors = {},
                               ShotStream stream = ShotStream::Counter);
};

/**
 * A mergeable accumulator for one shard's shot range: per-shot
 * fidelity rows keyed by global shot index, plus summary sums
 * (per-point sum, sum-of-squares for both metrics) that are always
 * (re)derived by reducing the rows in global shot order. That
 * derivation is what makes merging deterministic: the final sums
 * depend only on the assembled rows, never on the partition
 * boundaries or the merge order, and reproduce the single-process
 * shot loop's reduction bit for bit.
 */
struct PartialEstimate
{
    /** Producer-defined workload fingerprint; merge requires all
     *  partials to agree on it (empty for in-process use). */
    std::string workload;

    std::size_t shotBegin = 0;
    std::size_t shotEnd = 0;
    std::size_t totalShots = 0;
    std::uint64_t seed = 0;
    ShotStream stream = ShotStream::Counter;

    /** kSamplerVersion of the producer (1 when the JSON predates the
     *  field); merge requires all partials to agree on it. */
    unsigned sampler = kSamplerVersion;

    /** Sweep factors (empty for a plain estimate). */
    std::vector<double> factors;

    /** Sweep points per shot (1 for a plain estimate). */
    std::size_t numPoints = 1;

    /**
     * Wall-clock split of producing this partial. setupSeconds is the
     * schedule/compile/checkpoint-build cost the producer paid for
     * THIS run — a fresh `qramsim_shard run` pays it in full, a
     * resident qramsim_server pays ~0 on a compiled-cache hit.
     * computeSeconds is the runShard evaluation wall time (stamped by
     * runShard itself). Reporting only: merge sums them and they never
     * participate in canMerge, the sum cross-checks, or resultJson —
     * two byte-identical results can legitimately carry different
     * timings, which is why the orchestrator's speculative duplicate
     * cross-check compares partials with these two keys zeroed.
     */
    double setupSeconds = 0.0;
    double computeSeconds = 0.0;

    /** Per-shot rows: value of (global shot s, point j) lives at
     *  [(s - shotBegin) * numPoints + j]. Under `adaptive` the layout
     *  changes: full/reduced hold one value per KEPT row, parallel to
     *  rowDraw/rowPoint/rowStratum. */
    std::vector<double> full;
    std::vector<double> reduced;

    /** Summary sums per point, reduced in global shot order over the
     *  covered range (maintained by recomputeSums). Empty under
     *  `adaptive` — the per-stratum sums below replace them. */
    std::vector<double> sumF, sumF2, sumR, sumR2;

    // --- Adaptive-mode fields (EstimateMode::Adaptive) -----------------
    //
    // An adaptive partial covers a RAW DRAW range [shotBegin, shotEnd)
    // but stores only the draws the allocation rule kept. Each kept
    // row i records its global draw index (rowDraw, strictly
    // increasing within a partial), sweep point (rowPoint) and stratum
    // (rowStratum: 0 = Z-only, 1 = general) alongside its full/reduced
    // fidelity in the row vectors above. The analytic ingredients
    // (per-point class probabilities and the cached empty-shot
    // fidelities) travel with the partial so finalize() needs no
    // estimator, and merging validates they agree exactly. All
    // counters are doubles for the JSON wire format; they hold exact
    // integers far below 2^53.

    /** Replay/adaptive shape switch; partials of different modes
     *  never merge. */
    bool adaptive = false;

    /** Closed-form per-point class probabilities (size numPoints). */
    std::vector<double> probEmpty, probZOnly;

    /** Cached empty-shot fidelities (every empty draw evaluates to
     *  exactly these, so the empty stratum needs no samples). */
    double emptyFullShot = 0.0;
    double emptyReducedShot = 0.0;

    /** Raw draws actually consumed (<= shots(); reporting only —
     *  summed on merge). */
    std::size_t drawsUsed = 0;

    /** Kept-row metadata, parallel to full/reduced. */
    std::vector<double> rowDraw, rowPoint, rowStratum;

    /** Per-point per-stratum summary sums, derived from the kept rows
     *  in draw order by recomputeSums (size numPoints each). */
    std::vector<double> zCount, zSumF, zSumF2, zSumR, zSumR2;
    std::vector<double> gCount, gSumF, gSumF2, gSumR, gSumR2;

    std::size_t shots() const { return shotEnd - shotBegin; }

    /** Re-derive the summary sums from the rows (shot-major, then
     *  point — the estimator's reduction order). */
    void recomputeSums();

    /**
     * True if @p other covers an adjacent shot range of the same plan
     * (same workload/seed/totalShots/stream/sampler/factors). @p why, when
     * non-null, receives the reason on mismatch.
     */
    bool canMerge(const PartialEstimate &other,
                  std::string *why = nullptr) const;

    /** Fold an adjacent partial in (either side); panics unless
     *  canMerge. Sums are recomputed from the combined rows. */
    void merge(const PartialEstimate &other);

    /**
     * Final results, one per sweep point (one element for a plain
     * estimate) — the same arithmetic, in the same order, as
     * estimate()/estimateSweep(). Panics unless the partial covers
     * [0, totalShots) exactly.
     */
    std::vector<FidelityResult> finalize() const;

    /** Serialize to a JSON object (doubles round-trip exactly). */
    std::string toJson() const;

    /** Parse toJson output; on failure returns false and explains in
     *  @p err. Validates sizes and the sum/row consistency. */
    static bool fromJson(const std::string &json, PartialEstimate &out,
                         std::string *err = nullptr);

    /**
     * The merged FidelityResult(s) as a deterministic JSON object —
     * derived only from the plan metadata (sampler version included)
     * and the rows, so any
     * partition of the same run produces byte-identical output (the
     * CI sharded smoke leg diffs exactly this). Panics unless
     * complete (see finalize).
     */
    std::string resultJson() const;
};

/**
 * Merge an arbitrary set of partials (any order) into one covering
 * partial. Sorts by shot range, verifies the set tiles
 * [0, totalShots) with no gaps or overlaps and agrees on the plan
 * metadata; returns false with an explanation in @p err otherwise.
 */
bool mergePartials(std::vector<PartialEstimate> parts,
                   PartialEstimate &out, std::string *err = nullptr);

} // namespace qramsim

#endif // QRAMSIM_SIM_SHARDING_HH
