/**
 * @file
 * Monte Carlo query-fidelity estimation (Secs. 5-7).
 *
 * A query takes sum_i alpha_i |i>_A |0>_B to sum_i alpha_i |i>_A |x_i>_B
 * with every internal qubit (router, carrier, data node) restored to
 * |0>. Per shot, one error realization is sampled and every address path
 * is propagated through the same noisy circuit; because all gates are
 * classical-reversible, the shot output is sum_i alpha_i phi_i |out_i>
 * for basis states out_i.
 *
 * Two fidelity metrics are reported:
 *
 *  - full:    F = |<psi_ideal | psi_noisy>|^2 over the entire register,
 *             the paper's Sec. 5 definition;
 *  - reduced: F = <psi_ideal| Tr_ancilla(rho_noisy) |psi_ideal> on the
 *             address+bus subsystem, the operational figure when
 *             internal qubits are discarded or reused after the query.
 *
 * Z-error experiments give identical values under both metrics (Z never
 * moves a basis state); they differ only when X errors strand internal
 * qubits away from |0>.
 *
 * The estimator exploits error sparsity (src/sim/README.md): most
 * sampled shots carry few — often zero — Pauli events, so shots are
 * replayed from cached per-path checkpoints of the ideal propagation
 * instead of re-running the whole circuit:
 *
 *  - empty realization:   the cached ideal shot result is returned
 *                         outright (zero propagation);
 *  - Z-only realization:  bits never deviate from the ideal trajectory
 *                         (no gate in the QRAM set turns a Z into an
 *                         X — the lightcone rules of analysis/lightcone
 *                         keep pure-Z cones X-free), so each event's
 *                         sign is read from a precomputed per-qubit
 *                         bit-across-paths snapshot and no gate is
 *                         replayed at all; the cached ideal output
 *                         supplies bits and base phase;
 *  - general realization: bit-sliced ensemble replay
 *                         (common/pathensemble.hh) starting at the
 *                         checkpoint preceding the first event — every
 *                         word-level op advances 64 paths at once.
 *                         Batched shots replay op-major through one
 *                         fused EnsembleBlock arena (each op decoded
 *                         once, one contiguous kernel sweep over all
 *                         shots' rows), and only the deviating paths
 *                         whose visible keys can contribute are
 *                         materialized for accumulation.
 *
 * All three produce bit-identical results to full propagation (the
 * ensemble applies the identical ordered flips and phase factors to
 * each path as the scalar engine). The shot loop can additionally
 * split its shot range across threads, each running the same batched
 * loop, with deterministic per-shot counter-based RNG streams (see
 * estimate()).
 */

#ifndef QRAMSIM_SIM_FIDELITY_HH
#define QRAMSIM_SIM_FIDELITY_HH

#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "sim/feynman.hh"
#include "sim/noise.hh"
#include "sim/sharding.hh"

namespace qramsim {

class ThreadPool;

/** Input superposition over classical addresses. */
struct AddressSuperposition
{
    std::vector<std::uint64_t> addresses;
    std::vector<std::complex<double>> amps;

    /** Uniform superposition over all 2^n addresses. */
    static AddressSuperposition uniform(unsigned addressWidth);

    /** A single classical address. */
    static AddressSuperposition single(std::uint64_t address,
                                       unsigned addressWidth);

    /** Random-amplitude superposition over all addresses. */
    static AddressSuperposition random(unsigned addressWidth, Rng &rng);

    std::size_t size() const { return addresses.size(); }
};

/** Fidelity estimate with sampling error. */
struct FidelityResult
{
    double full = 0.0;       ///< mean full-state fidelity
    double reduced = 0.0;    ///< mean reduced (address+bus) fidelity
    double fullStderr = 0.0;
    double reducedStderr = 0.0;
    std::size_t shots = 0;
};

/**
 * Stage accounting of one estimate/sweep/shard run. sampleSec..
 * accumulateSec are task-seconds per stage summed over the run's
 * threads (each thread times its own sampling and its general replay
 * batches; empty, Z-only and Scalar-oracle shots are booked to no
 * stage); occupancy() is the fraction of the worker-second budget
 * (threads x wall) the stages kept busy. Adaptive runs report only
 * threads and wall time.
 */
struct PipelineStats
{
    bool pipelined = false; ///< always false (no pipelined executor)
    unsigned threads = 0;   ///< resolved worker count of the run
    double wallSec = 0.0;   ///< shot-loop wall time
    double sampleSec = 0.0; ///< realization sampling
    double gatherSec = 0.0; ///< checkpoint-row gather into the arena
    double replaySec = 0.0; ///< op-major block replay kernels
    double accumulateSec = 0.0; ///< deviation masks + overlap sums
    std::size_t batches = 0;    ///< general replay batches dispatched

    double busySec() const
    {
        return sampleSec + gatherSec + replaySec + accumulateSec;
    }

    double occupancy() const
    {
        const double budget = threads * wallSec;
        return budget > 0.0 ? busySec() / budget : 0.0;
    }
};

/**
 * Outcome of one adaptive estimation run (estimateAdaptive /
 * estimateSweepAdaptive): the per-point results plus the stratum
 * accounting behind them — what fraction of the draw space each class
 * covers analytically, how many shots each sampled stratum consumed,
 * and whether each point reached the CI target before the draw budget
 * ran out.
 */
struct AdaptiveReport
{
    /** One result per sweep point (one element for a plain run). */
    std::vector<FidelityResult> results;

    /** Closed-form class probabilities per point. */
    std::vector<double> emptyProb, zOnlyProb, generalProb;

    /** Kept (evaluated) shots per point and stratum. */
    std::vector<std::size_t> zOnlyShots, generalShots;

    /** 1 where the CI half-width target was met (all zero when the
     *  policy disables stopping). */
    std::vector<char> converged;

    /** Raw draws consumed and total shots actually evaluated. */
    std::size_t rawDraws = 0;
    std::size_t keptShots = 0;
};

/**
 * Reusable estimator: schedules and compiles the circuit once, caches
 * ideal outputs and replay checkpoints, then evaluates shots under any
 * noise model.
 */
class FidelityEstimator
{
  public:
    /**
     * Which engine replays general (X-containing) realizations. Both
     * produce bit-identical results:
     *
     *  - Ensemble (default): op-major block replay — batched shots
     *    live in one fused EnsembleBlock arena and every op is
     *    decoded once and applied to all shots' rows in one
     *    contiguous block-kernel sweep;
     *  - Scalar: the path-by-path oracle kept for differential tests
     *    and as the perf baseline of the recorded ensemble speedup.
     */
    enum class ReplayEngine { Ensemble, Scalar };

    /**
     * @param circuit      the query circuit (all non-address qubits
     *                     assumed initialized |0>)
     * @param addressQubits address register, LSB-first
     * @param busQubit     the output bus
     * @param input        address superposition to query with
     */
    FidelityEstimator(const Circuit &circuit,
                      const std::vector<Qubit> &addressQubits,
                      Qubit busQubit,
                      const AddressSuperposition &input);

    ~FidelityEstimator();

    /**
     * Select the general-realization replay engine (default:
     * Ensemble). Switching to Scalar materializes per-path checkpoint
     * copies from the ensemble checkpoints on first use, so the
     * scalar oracle pays no per-shot transpose.
     */
    void setReplayEngine(ReplayEngine engine);

    ReplayEngine replayEngine() const { return replay; }

    /** Fidelities of a single error realization. */
    void shotFidelity(const ErrorRealization &errors,
                      double &fullOut, double &reducedOut) const;

    /** Fidelities of a flattened (position-sorted) realization (the
     *  batched shot loop run on one shot). */
    void shotFidelity(const FlatRealization &errors,
                      double &fullOut, double &reducedOut) const;

    /**
     * Average fidelity over @p shots Monte Carlo realizations.
     *
     * With @p threads <= 1 the shot loop runs sequentially, drawing
     * every realization from one Rng(seed) stream — bit-identical to
     * the original estimator for a fixed seed. With threads > 1
     * (0 = hardware concurrency) shot s draws from its own
     * counter-based CounterRng(seed, s) stream (cheap to construct,
     * no sequential seeking) and each thread runs the shot loop over
     * one contiguous slice of the range, so the result depends only
     * on (seed, shots), not on the thread count, and agrees with the
     * sequential estimate within Monte Carlo error.
     *
     * Internally shots are sampled ahead in chunks (same RNG stream,
     * same draw order) and the general realizations of a chunk are
     * replayed as one batched ensemble pass per replayBatch() shots —
     * shot-by-shot results and their reduction order are unchanged,
     * so both modes stay bit-identical to the per-shot loop.
     */
    FidelityResult estimate(const NoiseModel &noise, std::size_t shots,
                            std::uint64_t seed,
                            unsigned threads = 1) const;

    /**
     * Batched eps_r-sweep estimation: one FidelityResult per rate
     * scale factor, with every sweep point of a shot built from the
     * SAME uniform draws (NoiseModel::sampleFlatSweep — common random
     * numbers, so the sweep is smooth in the factor and the sampling
     * cost is paid once per shot instead of once per point). The
     * points of a shot are replayed as one batched ensemble pass.
     * Requires a model with sweep support (all bundled models:
     * QubitChannelNoise, GateNoise, DeviceNoise); panics otherwise.
     * A single factor f reproduces estimate() with all rates scaled
     * by f bit for bit.
     */
    std::vector<FidelityResult>
    estimateSweep(const NoiseModel &noise,
                  const std::vector<double> &factors, std::size_t shots,
                  std::uint64_t seed, unsigned threads = 1) const;

    /**
     * Execute one shard of a partitioned estimate or sweep
     * (sim/sharding.hh): evaluate the spec's global shot range and
     * return its mergeable PartialEstimate. Shards share no mutable
     * state, so disjoint specs may run concurrently, in other
     * processes, or on other hosts; merging any partition of
     * [0, totalShots) reproduces the single-process result for the
     * spec's stream kind bit for bit (Sequential == estimate() with
     * threads <= 1, Counter == the threaded estimate()). estimate()
     * and estimateSweep() are themselves thin wrappers over a
     * single full-range shard.
     *
     * Sequential-stream shards with shotBegin > 0 fast-forward the
     * Mersenne stream by sampling-and-discarding the preceding
     * shots' draws (noise samplers consume a fixed draw count per
     * shot); Counter shards start at their first shot for free.
     * Replay-engine / SIMD-tier pins are NOT applied here (this
     * method is const) — orchestrators call applyShardPins first.
     */
    PartialEstimate runShard(const NoiseModel &noise,
                             const ShardSpec &spec) const;

    /**
     * Select the estimation policy estimate()/estimateSweep() run
     * under (default Replay — the bit-identical fixed-budget path;
     * see EstimateMode). Under Adaptive their `shots` argument is the
     * RAW DRAW budget, the stream is forced to Counter, and results
     * are statistically equivalent but not bit-identical to Replay.
     */
    void setEstimateMode(EstimateMode m) { estMode = m; }

    EstimateMode estimateMode() const { return estMode; }

    /** Adaptive policy used by estimate()/estimateSweep() under
     *  EstimateMode::Adaptive and by estimate{,Sweep}Adaptive(). */
    void setAdaptivePolicy(const AdaptivePolicy &p) { apolicy = p; }

    const AdaptivePolicy &adaptivePolicy() const { return apolicy; }

    /**
     * Adaptive estimation with full stratum accounting. The raw-draw
     * budget comes from the policy (maxDraws, or derived from
     * maxShots and the smallest non-empty class probability when 0);
     * shots run in policy.batch-sized batches until every point's CI
     * half-width reaches the target (or the budget runs out), with
     * the empty class folded in analytically at zero shot cost and
     * kept shots allocated Neyman-style across the Z-only/general
     * strata. Requires a noise model with closed-form class
     * probabilities (all bundled models); panics otherwise.
     */
    AdaptiveReport estimateAdaptive(const NoiseModel &noise,
                                    std::uint64_t seed,
                                    unsigned threads = 1) const;

    /**
     * The sweep counterpart of estimateAdaptive: one result per rate
     * scale factor, sampled with common random numbers like
     * estimateSweep. Points that converge early stop keeping and
     * evaluating shots, so the remaining draw budget flows to the
     * slow-converging points (the pooled-budget rollover).
     */
    AdaptiveReport
    estimateSweepAdaptive(const NoiseModel &noise,
                          const std::vector<double> &factors,
                          std::uint64_t seed,
                          unsigned threads = 1) const;

    /**
     * Set the number of general-realization shots replayed per
     * batched ensemble pass (clamped to [1, kShotChunk]; default 16).
     * Any width produces bit-identical results — batching never
     * changes per-shot values or reduction order — so this is purely
     * a throughput knob (bench_kernels sweeps it and records the best
     * width per host). Returns the applied width. Not thread-safe
     * against a concurrently running estimate.
     */
    std::size_t setReplayBatch(std::size_t n);

    std::size_t replayBatch() const { return replayBatchN; }

    /**
     * Stage timing/occupancy of this estimator's most recent
     * estimate / estimateSweep / runShard call (valid once the call
     * returned). The instrumentation behind the bench_simulator
     * stage record fields and the perfbench per-layer trace.
     */
    PipelineStats lastPipelineStats() const;

    const FeynmanExecutor &executor() const { return exec; }

    /** The ideal (noiseless) bus value for input path @p k. */
    bool idealBus(std::size_t k) const;

  private:
    /** Pack address+bus bits of a basis state into one word. */
    std::uint64_t visibleKey(const BitVec &bits) const;

    /** Copy of @p bits with address+bus positions cleared. */
    BitVec ancillaPart(const BitVec &bits) const;

    /** Shots sampled ahead per chunk of the estimate loop (also the
     *  upper clamp of the replay-batch width: wider batches could
     *  never fill from one chunk). */
    static constexpr std::size_t kShotChunk = 64;

    /** General-realization shots replayed per batched ensemble pass
     *  (runtime knob; see setReplayBatch). */
    std::size_t replayBatchN = 16;

    /** Reusable per-shot scratch for shot evaluation. */
    struct ShotWorkspace
    {
        PathState path;           ///< scalar replay state
        simd::AlignedWords parity; ///< Z-path sign bits per path
        std::vector<std::uint32_t> devRows; ///< qubits with deviation
    };

    /** Scratch of accumulateShotRows. Shots accumulate one at a time,
     *  so one instance serves a whole replay batch. */
    struct AccumulateScratch
    {
        /** A deviating path whose visible key hits an ideal key. */
        struct Hit
        {
            std::size_t path;  ///< path index
            std::size_t owner; ///< the key's ideal-path index
        };
        std::vector<std::uint64_t> keys;        ///< row-wise visible keys
        std::vector<std::uint64_t> uniformMask; ///< all-path flip words
        std::vector<std::uint32_t> partialRows; ///< per-path-flip rows
        std::vector<std::uint64_t> hitMask;     ///< hits, one bit per path
        std::vector<Hit> hits;                  ///< hits in path order
        std::vector<BitVec> outs;               ///< outs[h]: hit h's output
        std::vector<std::uint64_t *> outOf;     ///< path -> its outs words
    };

    /** The Scalar engine's replay of a general realization: path by
     *  path from the materialized per-path checkpoints. */
    void shotScalar(const FlatRealization &errors, ShotWorkspace &ws,
                    double &fullOut, double &reducedOut) const;

    /** The Z-only fast path (no gate replayed at all). */
    void shotZOnly(const FlatRealization &errors, ShotWorkspace &ws,
                   double &fullOut, double &reducedOut) const;

    /** Wall time per stage, summed over one thread's shot loop. */
    struct StageTimes
    {
        double sample = 0.0;
        double gather = 0.0;
        double replay = 0.0;
        double accumulate = 0.0;
        std::size_t batches = 0; ///< general replay batches
    };

    /** Reusable per-thread scratch for evalShots (workspaces, the
     *  batched-replay queue, and the op-major block arena), so the
     *  hot loop never allocates; it also carries the thread's stage
     *  times. */
    struct EvalScratch
    {
        std::vector<ShotWorkspace> wss;
        std::vector<std::size_t> queue;
        AccumulateScratch accum;
        StageTimes times;

        /// @name Op-major block replay (ReplayEngine::Ensemble)
        /// @{
        EnsembleBlock block;                ///< fused multi-shot arena
        std::vector<FeynmanExecutor::BlockReplayShot> bshots;
        simd::AlignedWords devBlock;        ///< per-shot deviation slices
        std::vector<std::uint64_t> anyDev;  ///< diffOrBlock per-shot OR
        /// @}
    };

    /**
     * Evaluate @p n presampled realizations into fs/rs. Empty and
     * Z-only realizations take their fast paths; general ones are
     * replayed in batches of replayBatch() through evalGeneralBatch
     * (ReplayEngine::Scalar replays them one by one through
     * shotScalar instead).
     */
    void evalShots(const FlatRealization *reals, std::size_t n,
                   EvalScratch &scratch, double *fs,
                   double *rs) const;

    /**
     * The batched general-realization core of evalShots: replay
     * reals[rows[b]] for b in [0, qn) (all guaranteed non-empty and
     * not Z-only) op-major through one EnsembleBlock and write the
     * per-shot fidelities to fs[rows[b]] / rs[rows[b]], adding the
     * batch's gather / replay / accumulate wall times to
     * scratch.times. Identical arithmetic for any batch composition —
     * per-shot values never depend on which other shots share the
     * batch.
     */
    void evalGeneralBatch(const FlatRealization *reals,
                          const std::size_t *rows, std::size_t qn,
                          EvalScratch &scratch, double *fs,
                          double *rs) const;

    /**
     * The pool a spec's threaded execution runs on: spec.pool when
     * set, else the estimator's lazily created persistent pool
     * (grown by re-creation under poolMu when a run wants more
     * workers than it has — hence the ShardSpec::pool requirement
     * for concurrent in-process shards on one estimator).
     */
    ThreadPool &poolFor(const ShardSpec &spec, unsigned threads) const;

    /**
     * runShard body. With @p keepRows false AND a single-threaded
     * spec, the per-shot rows are not materialized: values are
     * reduced chunk by chunk in shot order into the summary sums
     * (identical arithmetic and order), restoring the O(kShotChunk)
     * footprint of the plain sequential estimator. Such a partial is
     * finalize()-able but not mergeable — it is the internal path of
     * estimate()/estimateSweep() only.
     */
    PartialEstimate runShardImpl(const NoiseModel &noise,
                                 const ShardSpec &spec,
                                 bool keepRows) const;

    /**
     * The adaptive estimator core (EstimateMode::Adaptive): consume
     * the spec's raw-draw range in policy.batch-sized batches. Each
     * draw d samples from CounterRng(seed, d) (Counter stream
     * required — keep decisions must never disturb a shared Mersenne
     * sequence); empty realizations are never kept (their
     * contribution is analytic), the rest pass a deterministic
     * per-batch Neyman keep rule and are evaluated — chunked across
     * the worker pool when the spec is threaded, with stopping
     * decisions taken only after the batch's in-flight chunks drain.
     * Returns an adaptive-shape PartialEstimate covering the full
     * spec range (unconsumed draws simply kept nothing).
     */
    PartialEstimate runShardAdaptive(const NoiseModel &noise,
                                     const ShardSpec &spec) const;

    /** Shared body of estimateAdaptive / estimateSweepAdaptive. */
    AdaptiveReport adaptiveRun(const NoiseModel &noise,
                               const std::vector<double> &factors,
                               std::uint64_t seed,
                               unsigned threads) const;

    /** Per-shot overlap sums shared by every shot kind and the
     *  empty-shot cache. */
    struct ShotAccumulator;

    /**
     * The ensemble accumulation of one replayed shot: qubit q of the
     * shot's noisy output lives at rows + q * stride (one shot's
     * slice view of an EnsembleBlock),
     * @p dev is the shot's ready-made per-path deviation mask and
     * @p devRows its deviating qubits in ascending order. Visible
     * keys come from a word transpose of the visible rows; only the
     * deviating paths whose key hits an ideal key materialize an
     * output (ideal words XOR the uniform-row mask), and each
     * partial row's bit is scattered into the outputs of its
     * deviating hit paths. Per-path arithmetic and order are the
     * scalar engine's — the bit-identity contract between engines.
     */
    void accumulateShotRows(const std::uint64_t *rows,
                            std::size_t stride,
                            const std::complex<double> *phases,
                            const std::uint64_t *dev,
                            const std::vector<std::uint32_t> &devRows,
                            AccumulateScratch &as,
                            ShotAccumulator &acc) const;

    /**
     * Accumulate path @p k's noisy output (the scalar oracle's
     * per-path step). @p outBits is spent: a deviating path's
     * visible bits are cleared in place.
     */
    void accumulatePath(ShotAccumulator &acc, std::size_t k,
                        BitVec &outBits,
                        std::complex<double> outPhase) const;

    /**
     * accumulatePath for a path known to have left its ideal output
     * whose visible key hits ideal path @p owner (a visIndex lookup):
     * skips the self-overlap compare, clears @p outBits' visible bits
     * in place and uses the result as the reduced-overlap group key.
     */
    void accumulateVisiblePath(ShotAccumulator &acc, std::size_t k,
                               BitVec &outBits, std::size_t owner,
                               std::complex<double> outPhase) const;

    /**
     * accumulatePath specialized to a path that landed on its ideal
     * output (the Z-only and ensemble non-deviating fast paths).
     */
    void accumulateIdealPath(ShotAccumulator &acc, std::size_t k,
                             std::complex<double> phase) const;

    FeynmanExecutor exec;
    std::vector<Qubit> addrQubits;
    Qubit bus;
    AddressSuperposition input;

    std::vector<PathState> ideals;       ///< cached ideal outputs

    /** The ideal outputs in ensemble layout (deviation-mask oracle). */
    PathEnsemble idealEns;

    /** ancillaPart(ideals[k].bits), precomputed for the Z-only path. */
    std::vector<BitVec> idealAnc;

    /** visIndex[idealVisible[k]], precomputed (== k for unique keys). */
    std::vector<std::size_t> idealVisOwner;

    /**
     * ideal visible key -> path index, built once. Resolves both the
     * full-overlap collision check and the reduced-overlap amplitude
     * in O(1) instead of rescanning all paths.
     */
    std::unordered_map<std::uint64_t, std::size_t> visIndex;

    /** True if two paths share a visible key (degenerate input). */
    bool dupVisibleKeys = false;

    /** Per-word mask of visible (address+bus) bit positions. */
    std::vector<std::uint64_t> visMaskWords;

    /**
     * ckpts[c]: the whole ensemble's ideal state after the first
     * c*ckptStride compiled ops — the replay starting points for
     * noisy shots. ckpts[0] is the input ensemble itself, so its rows
     * double as the Z-parity tables' initial bit-across-paths
     * vectors.
     */
    std::vector<PathEnsemble> ckpts;
    std::uint32_t ckptStride = 1;

    /** Replay engine for general realizations. */
    ReplayEngine replay = ReplayEngine::Ensemble;

    /**
     * Per-path checkpoint copies, gathered lazily from 'ckpts' when
     * the Scalar engine is selected (empty otherwise).
     */
    std::vector<std::vector<PathState>> scalarCkpts;

    /// @name Z-parity tables
    ///
    /// For a Z-only realization no bit ever deviates from the ideal
    /// trajectory, so each event (pos, q) contributes a sign given by
    /// the *ideal* bit of q at pos — a shot-independent quantity.
    /// These tables are rows in the ensemble layout: for every qubit,
    /// the bit-across-paths row captured at each position where it
    /// toggles (the initial rows live in ckpts[0]); a shot then XORs
    /// one such row per event into a parity accumulator and never
    /// replays any gate at all.
    /// @{

    /** Words per packed path row: PathEnsemble::wordsPerQubit(). */
    std::size_t pathWords = 0;

    /** snapBegin[q]..snapBegin[q+1]: qubit q's toggle entries. */
    std::vector<std::uint32_t> snapBegin;

    /** snapPos[e]: stream position the entry is valid from. */
    std::vector<std::uint32_t> snapPos;

    /** snapBits[e*pathWords..]: bit-across-paths after the toggle
     *  (aligned rows at the ensemble stride, kernel-ready). */
    simd::AlignedWords snapBits;

    /// @}

    /** Cached shot result of the empty realization. */
    double emptyFull = 0.0;
    double emptyReduced = 0.0;

    /** Estimation policy of estimate()/estimateSweep()
     *  (setEstimateMode). */
    EstimateMode estMode = EstimateMode::Replay;

    /** Adaptive knobs (setAdaptivePolicy). */
    AdaptivePolicy apolicy;

    /** Lazily created persistent worker pool (see poolFor); reused
     *  across estimate/sweep/shard calls for the estimator's
     *  lifetime. */
    mutable std::unique_ptr<ThreadPool> ownPool;

    /** Guards ownPool growth and pstats publication (runShard may
     *  legally run concurrently for disjoint specs). */
    mutable std::mutex poolMu;

    /** Stage timing of the most recent run (lastPipelineStats). */
    mutable PipelineStats pstats;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_FIDELITY_HH
