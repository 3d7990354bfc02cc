/**
 * @file
 * Noise models (Secs. 5-6) and the one sampler they share.
 *
 * Every bundled model is a Pauli channel applied at *exposure sites*:
 * each site draws one uniform u and suffers X, Y or Z when u falls
 * below the cumulative thresholds of its rates, independently of every
 * other site, so the Feynman-path property is preserved. The models
 * differ only in where the sites are and which rates each one uses:
 *
 *  - QubitChannelNoise — the Sec. 5.1 analysis model: after every
 *    schedule moment (or every logical round) each qubit is a site,
 *    and all sites share one rate row. Pure phase-flip / bit-flip
 *    channels are the special cases used for Figs. 10-11.
 *
 *  - GateNoise — the Sec. 6.3 evaluation model (Monte Carlo sampling
 *    applied to quantum gates): every operand of every gate is a
 *    site, with that gate's rates; one row per gate.
 *
 *  - DeviceNoise — the Appendix A device channel: GateNoise's sites
 *    with separate 1q/2q rates; one row per arity class.
 *
 * So a model supplies only three things: its reference sample() (the
 * per-Gate walk the tests compare against), its site enumeration, and
 * the rates of one of its rows at a rate factor. NoiseModel builds
 * one SampleSites schedule per circuit from them and serves every
 * flat sampler and the closed-form class probabilities from it. The
 * sequential Rng streams the schedule site by site, draw for draw
 * like sample() (the per-site oracle); the counter streams of the
 * threaded and sharded loops skip from event to event with
 * exponential draws, which is exact in distribution and costs a few
 * draws per event instead of one per site.
 *
 * An "error reduction factor" eps_r divides all rates, matching the
 * paper's definition eps_r = current error rate / future error rate.
 */

#ifndef QRAMSIM_SIM_NOISE_HH
#define QRAMSIM_SIM_NOISE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/feynman.hh"

namespace qramsim {

/** Per-Pauli error probabilities. */
struct PauliRates
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    PauliRates scaled(double factor) const
    {
        return {x * factor, y * factor, z * factor};
    }

    static PauliRates phaseFlip(double eps) { return {0.0, 0.0, eps}; }
    static PauliRates bitFlip(double eps) { return {eps, 0.0, 0.0}; }

    /** Depolarizing split: each Pauli with eps/3. */
    static PauliRates
    depolarizing(double eps)
    {
        return {eps / 3.0, eps / 3.0, eps / 3.0};
    }
};

/**
 * One circuit's draw schedule: every exposure site in the order
 * sample() draws its uniforms, with the stream position its event
 * fires at, its qubit and its rate row. Rates live per row, not per
 * site, as cumulative thresholds tx = r.x, txy = r.x + r.y and
 * txyz = (r.x + r.y) + r.z — the sums sample() compares against, so
 * precomputing them changes no decision.
 *
 * A Rows table holds those thresholds for a list of rate factors,
 * row-major ([row * factors.size() + j]), and each row's top: its
 * largest txyz over the factors. Two samplers read it, one per
 * generator family:
 *
 *  - Rng (the sequential Mersenne stream) streams every site, the
 *    per-site oracle: one raw engine draw per site against the row's
 *    integer rejection cut (Rng::cutFor of the top), converting to
 *    double — then making exactly the threshold compares sample()
 *    makes — only when an event may have fired. Its consumed stream
 *    and every decision are sample()'s.
 *
 *  - CounterRng (the threaded and sharded streams) walks events, not
 *    sites. The schedule splits into maximal runs of consecutive
 *    sites whose rows share a top, each with the hazard
 *    h = -log1p(-top) of one site firing below that top. The walk
 *    draws E ~ Exp(1) and skips floor(E/h) sites inside the current
 *    run; when E outlasts the run it gives up the run's remaining
 *    hazard and moves on. At the site that fires it draws u uniform
 *    in [0, min(top, 1)) and makes the same per-factor compares, then
 *    starts afresh from the next site. The exponential is memoryless
 *    and u is uniform below the top given that the site fired, so
 *    every site still fires independently with its rates: exact in
 *    distribution, not draw for draw. A top <= 0 never fires (h = 0)
 *    and a top >= 1 fires at every site (h = +inf).
 *
 * Either way one draw per site serves every factor: common random
 * numbers across a sweep. Under Rng, factor j's events are exactly
 * those of a model whose rates were scaled by factors[j]; under
 * CounterRng that holds for the factor whose thresholds are the tops
 * (the same hazards), and the other factors match in distribution.
 */
struct SampleSites
{
    struct Site
    {
        std::uint32_t pos; ///< stream position the event fires at
        std::uint32_t qubit;
        std::uint32_t row; ///< rate row (the model's numbering)
    };

    struct Rows
    {
        /** Sites [previous run's end, end) share one top. */
        struct Run
        {
            std::uint32_t end;
            double span;   ///< min(top, 1): the firing site's u range
            double hazard; ///< -log1p(-top); 0 or +inf at the ends
        };

        std::vector<double> factors;
        std::vector<double> tx, txy, txyz;
        std::vector<double> top;        ///< per row: max txyz
        std::vector<std::uint64_t> cut; ///< per row: Rng::cutFor(top)
        std::vector<Run> runs;          ///< the counter-stream walk
    };

    std::vector<Site> sites;

    /** Sites per row (the closed-form class probabilities). */
    std::vector<std::uint64_t> rowSites;

    Rows unit;  ///< factor 1: sampleFlat
    Rows sweep; ///< prepareSweep's factors: sampleFlatSweep
};

/**
 * A Pauli channel at exposure sites. Subclasses enumerate the sites
 * and give each row's rates; everything else — the cached schedule,
 * both generator families, sweeps and class probabilities — is this
 * one implementation.
 */
class NoiseModel
{
  public:
    virtual ~NoiseModel() = default;

    /**
     * Sample a shot's error realization for @p exec's circuit by
     * walking its Gates: the reference the flat samplers must match
     * draw for draw.
     */
    virtual ErrorRealization sample(const FeynmanExecutor &exec,
                                    Rng &rng) const = 0;

    /**
     * Build the site schedule for @p exec's circuit (and its factor-1
     * thresholds). Call it before a shot loop; sampleFlat calls for
     * the same executor are then read-only and safe to run
     * concurrently. Idempotent, and itself safe to call from several
     * threads — but sharing one model instance between concurrently
     * running shot loops over *different* circuits is unsupported
     * (one loop's prepare would rebuild the other's schedule
     * mid-flight; use one instance per circuit instead).
     */
    void prepare(const FeynmanExecutor &exec) const;

    /**
     * prepare() plus the thresholds for these @p factors, so
     * sampleFlatSweep runs read-only. Same idempotence and
     * concurrency contract as prepare(); one factor list is cached at
     * a time.
     */
    void prepareSweep(const FeynmanExecutor &exec, const double *factors,
                      std::size_t n) const;

    /**
     * Sample a shot directly into a flattened, position-sorted
     * realization (reusing @p out's storage). Draws from @p rng in
     * exactly the same sequence as sample(), so a fixed seed yields
     * the same errors through either entry point. Panics unless
     * prepare() or prepareSweep() ran for this circuit. Virtual only
     * so a test double can wrap it; the bundled models do not
     * override it.
     */
    virtual void sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                            FlatRealization &out) const;

    /**
     * Counter-stream twin for the threaded and sharded shot loops:
     * the same event distribution, drawn by the event walk (see
     * SampleSites) from a cheap per-shot counter-based generator —
     * a few draws per event instead of one per site.
     */
    virtual void sampleFlat(const FeynmanExecutor &exec,
                            CounterRng &rng,
                            FlatRealization &out) const;

    /**
     * Sweep sampling for batched eps_r sweeps
     * (FidelityEstimator::estimateSweep): draw ONE shot's worth of
     * uniforms and emit, for each rate scale factor factors[j], the
     * realization sampleFlat would produce with every rate multiplied
     * by factors[j] given the same draws — common random numbers
     * across the sweep, so the per-shot sampling cost is paid once
     * instead of once per sweep point and the resulting curves are
     * smooth in the factor. outs[j] receives point j's realization.
     * Consumes the same draws as sampleFlat. (The counter-stream
     * twin walks the sweep's tops, so only the point whose
     * thresholds are the tops matches the scaled model draw for
     * draw; every point matches it in distribution.) Panics unless
     * prepareSweep() ran for this circuit and these factors.
     */
    void sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const;

    /** Counter-stream twin of the sweep sampler (the event walk
     *  over the sweep's tops). */
    void sampleFlatSweep(const FeynmanExecutor &exec, CounterRng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const;

    /**
     * Closed-form shot-class probabilities, per sweep factor: the
     * probability that a sampled realization is *empty* (no event at
     * any exposure site) and that it is *Z-only* (at least one event,
     * all of them Z). Because every site draws independently with the
     * cumulative thresholds tx <= txy <= txyz,
     *
     *   P(empty)  = prod_sites (1 - txyz_i),
     *   P(Z-only) = prod_sites (1 - txy_i) - P(empty),
     *
     * evaluated in log space (sum of log1p, row by row in row order)
     * over exactly the schedule the samplers draw from. The adaptive
     * estimator folds the empty stratum's fidelity contribution
     * analytically with these weights — zero shots spent on the empty
     * class — and uses them as stratum weights for Z-only/general
     * allocation. Writes pEmpty[j] / pZOnly[j] for each factors[j];
     * prepares the schedule itself.
     */
    void classProbabilities(const FeynmanExecutor &exec,
                            const double *factors, std::size_t n,
                            double *pEmpty, double *pZOnly) const;

    virtual std::string name() const = 0;

  protected:
    /** Append every exposure site of @p exec's circuit in draw order. */
    virtual void enumerateSites(const FeynmanExecutor &exec,
                                std::vector<SampleSites::Site> &out)
        const = 0;

    /**
     * The rates of schedule row @p row with every base rate scaled by
     * @p factor. scaled(1.0) is exact, so factor 1 gives the model's
     * own rates.
     */
    virtual PauliRates rowRates(const FeynmanExecutor &exec,
                                std::uint32_t row,
                                double factor) const = 0;

  private:
    /** Fill @p rows with every row's thresholds at these factors. */
    void buildRows(const FeynmanExecutor &exec, const double *factors,
                   std::size_t n, SampleSites::Rows &rows) const;

    /** The prepared factor-1 table of @p exec's circuit (panics when
     *  prepare() did not run for it). */
    const SampleSites::Rows &unitRows(const FeynmanExecutor &exec) const;

    /** The prepared table for these factors (panics when
     *  prepareSweep() did not run for them). */
    const SampleSites::Rows &sweepRows(const FeynmanExecutor &exec,
                                       const double *factors,
                                       std::size_t n) const;

    /**
     * The schedule of the circuit at preparedFor, keyed by address
     * plus a structural fingerprint of the gate list so a mutated
     * circuit (or a new one reusing the address) rebuilds instead of
     * reading stale — or out-of-bounds — sites. Written only under
     * prepMutex; the samplers only read it.
     */
    mutable std::mutex prepMutex;
    mutable const Circuit *preparedFor = nullptr;
    mutable std::uint64_t preparedFingerprint = 0;
    mutable SampleSites sched;
};

/**
 * Qubit-based channel (Sec. 5.1's rho -> (1-eps) rho + eps Z rho Z and
 * its X analog).
 *
 * Granularity: with rounds == 0 every qubit draws at every ASAP
 * moment — the most pessimistic exposure. The paper's analysis model
 * charges one channel application per *logical round* (one per
 * address-loading step, one per retrieval phase: the (1-eps)^(m^2)
 * branch-survival term counts m routers x O(m) rounds), so passing
 * rounds = R > 0 draws per qubit exactly R times, at evenly spaced
 * moments. Eqs. 3/5/6 are lower bounds under this round-based model.
 */
class QubitChannelNoise : public NoiseModel
{
  public:
    explicit QubitChannelNoise(PauliRates rates_, unsigned rounds_ = 0)
        : rates(rates_), rounds(rounds_)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    std::string name() const override { return "qubit-channel"; }

    /**
     * The logical round count of a virtual QRAM query at (m, k):
     * m loading + m unloading rounds, and two compression rounds plus
     * the MCX per segment.
     */
    static unsigned
    virtualQramRounds(unsigned m, unsigned k)
    {
        return 2 * m + 3 * (1u << k) + 2;
    }

  protected:
    /** The exposed moments x qubits grid, moment-major; one row. */
    void enumerateSites(const FeynmanExecutor &exec,
                        std::vector<SampleSites::Site> &out)
        const override;

    PauliRates rowRates(const FeynmanExecutor &exec, std::uint32_t row,
                        double factor) const override;

  private:
    PauliRates rates;
    unsigned rounds;
};

/**
 * Gate-based channel: after each gate, each operand qubit suffers an
 * independent Pauli draw (Sec. 6.3 Monte Carlo model).
 *
 * By default the draw probability is weighted by the gate's Clifford+T
 * decomposition size (its two-qubit-gate count), so a CSWAP is ~6x as
 * error-prone as a CX and a wide MCX pays for its Toffoli ladder —
 * matching how a transpiled circuit would accumulate noise. Pass
 * weightByDecomposition = false for the flat per-gate model.
 */
class GateNoise : public NoiseModel
{
  public:
    explicit GateNoise(PauliRates rates_,
                       bool weightByDecomposition = true)
        : rates(rates_), weighted(weightByDecomposition)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    std::string name() const override { return "gate"; }

    /**
     * Effective rates of @p base for one gate: with @p weighted, each
     * rate p becomes 1-(1-p)^w for the gate's decomposed CX count w,
     * so a sweep's rows are a genuine table, not a rescale of the
     * eps_r = 1 rates.
     */
    static PauliRates effectiveRatesFor(const PauliRates &base,
                                        const Gate &g, bool weighted);

  protected:
    /** Operand sites in program order (controls then targets,
     *  barriers skipped); row = gate index. */
    void enumerateSites(const FeynmanExecutor &exec,
                        std::vector<SampleSites::Site> &out)
        const override;

    PauliRates rowRates(const FeynmanExecutor &exec, std::uint32_t row,
                        double factor) const override;

  private:
    PauliRates rates;
    bool weighted;
};

/**
 * Device-calibrated gate channel: separate depolarizing-split rates for
 * single-qubit and multi-qubit gates, the stand-in for the IBMQ noise
 * models of Appendix A.
 */
class DeviceNoise : public NoiseModel
{
  public:
    DeviceNoise(double eps1q, double eps2q)
        : rates1q(PauliRates::depolarizing(eps1q)),
          rates2q(PauliRates::depolarizing(eps2q))
    {}

    /** Explicit per-arity Pauli rates (sweep oracles, tests). */
    DeviceNoise(PauliRates r1q, PauliRates r2q)
        : rates1q(r1q), rates2q(r2q)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    std::string name() const override { return "device"; }

  protected:
    /** GateNoise's operand sites; row 0 = 1q gates, row 1 = wider. */
    void enumerateSites(const FeynmanExecutor &exec,
                        std::vector<SampleSites::Site> &out)
        const override;

    PauliRates rowRates(const FeynmanExecutor &exec, std::uint32_t row,
                        double factor) const override;

  private:
    PauliRates rates1q;
    PauliRates rates2q;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_NOISE_HH
