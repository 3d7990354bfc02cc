#include "sim/noise.hh"

#include <algorithm>
#include <cmath>

#include "circuit/cost_model.hh"
#include "common/logging.hh"

namespace qramsim {

namespace {

/** Draw at most one Pauli for a qubit and append it to @p out. */
void
drawPauli(const PauliRates &r, std::uint32_t qubit, Rng &rng,
          std::vector<ErrorEvent> &out)
{
    // Independent draws; multiple Paulis on one qubit compose fine
    // (X then Z == -iY up to phase), but for the small rates used here
    // a sequential exclusive draw is the conventional channel sampling.
    double u = rng.uniform();
    if (u < r.x)
        out.push_back({qubit, PauliKind::X});
    else if (u < r.x + r.y)
        out.push_back({qubit, PauliKind::Y});
    else if (u < r.x + r.y + r.z)
        out.push_back({qubit, PauliKind::Z});
}

/**
 * Resolve a site that may have fired: the threshold compares of
 * sample() for every factor of @p rows, on one uniform @p u.
 */
inline void
resolveSite(const SampleSites::Rows &rows, const SampleSites::Site &s,
            double u, FlatRealization *outs)
{
    const std::size_t n = rows.factors.size();
    const std::size_t at = std::size_t(s.row) * n;
    for (std::size_t j = 0; j < n; ++j) {
        if (u < rows.tx[at + j])
            outs[j].push(s.pos, s.qubit, PauliKind::X);
        else if (u < rows.txy[at + j])
            outs[j].push(s.pos, s.qubit, PauliKind::Y);
        else if (u < rows.txyz[at + j])
            outs[j].push(s.pos, s.qubit, PauliKind::Z);
    }
}

/**
 * The per-site streamer (sequential Rng): per site one raw engine
 * draw and one integer compare against its row's rejection cut
 * (almost always a miss at physical rates — no double conversion at
 * all); a potential event resolves through the generator's
 * bits→uniform mapping and every factor's threshold compares.
 * rng.uniform() is uniformFromBits(one engine step) and the cut is
 * exact-no-miss, so the consumed stream and every decision are those
 * of sample() with the rates scaled by each factor.
 */
void
streamSites(const SampleSites &ss, const SampleSites::Rows &rows,
            Rng &rng, FlatRealization *outs)
{
    const std::size_t n = rows.factors.size();
    for (std::size_t j = 0; j < n; ++j)
        outs[j].clear();
    const std::uint64_t *cut = rows.cut.data();
    for (const SampleSites::Site &s : ss.sites) {
        const std::uint64_t r = rng.bits();
        if (r <= cut[s.row])
            resolveSite(rows, s, Rng::uniformFromBits(r), outs);
    }
    for (std::size_t j = 0; j < n; ++j)
        outs[j].sortByPos();
}

/**
 * The event walk (counter streams; see SampleSites): an Exp(1) draw
 * e skips floor(e/h) sites of the current run, or — when it outlasts
 * the run (always, for h = 0) — gives up the run's remaining hazard
 * and carries the rest into the next run. The site it lands on fires:
 * u uniform in [0, min(top, 1)) resolves it for every factor, and the
 * walk restarts from the next site with a fresh e. Exact in
 * distribution because the exponential is memoryless. A change to
 * what this draws bumps kSamplerVersion (sim/sharding.hh).
 */
void
walkEvents(const SampleSites &ss, const SampleSites::Rows &rows,
           CounterRng &rng, FlatRealization *outs)
{
    const std::size_t n = rows.factors.size();
    for (std::size_t j = 0; j < n; ++j)
        outs[j].clear();
    std::uint32_t at = 0;
    double e = rng.exponential();
    for (const SampleSites::Rows::Run &run : rows.runs) {
        while (at < run.end) {
            const double left = run.end - at;
            const double skip = e / run.hazard; // NaN only if e = h = 0
            if (!(skip < left)) {
                e = std::max(0.0, e - left * run.hazard);
                at = run.end;
                continue;
            }
            // A zero-rate run's hazard is -0 (-logNoEvent(0, 1)), so
            // its skip is -inf. Default x86-64 code converts that to
            // 0, so the walk visits each of the run's sites, where
            // nothing can fire, and results carry that stream.
            // Clamping at 0 keeps it, and defined, where the
            // conversion differs (AVX-512's vcvttsd2usi gives
            // 0xFFFFFFFF).
            at += skip > 0.0 ? static_cast<std::uint32_t>(skip) : 0;
            resolveSite(rows, ss.sites[at++], rng.uniform() * run.span,
                        outs);
            e = rng.exponential();
        }
    }
    for (std::size_t j = 0; j < n; ++j)
        outs[j].sortByPos();
}

/** True when @p rows holds @p ss's thresholds for exactly @p factors. */
bool
rowsReady(const SampleSites &ss, const SampleSites::Rows &rows,
          const double *factors, std::size_t n)
{
    return rows.cut.size() == ss.rowSites.size() &&
           rows.factors.size() == n &&
           std::equal(factors, factors + n, rows.factors.begin());
}

/**
 * Append the operand sites of every non-barrier gate in program
 * order, controls then targets — the draw order of the gate channels'
 * sample() — each in the row @p rowOf(gate index, gate) names.
 */
template <class RowOf>
void
appendOperandSites(const FeynmanExecutor &exec, RowOf &&rowOf,
                   std::vector<SampleSites::Site> &out)
{
    const auto &gates = exec.circuit().gates();
    const auto &gatePos = exec.stream().gatePos;
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const std::uint32_t pos = gatePos[gi] + 1;
        const std::uint32_t row = rowOf(gi, g);
        for (Qubit q : g.controls)
            out.push_back({pos, q, row});
        for (Qubit q : g.targets)
            out.push_back({pos, q, row});
    }
}

/**
 * log P(no event fires at any of @p k independent sites whose
 * any-event threshold is @p t): k * log1p(-t), with the degenerate
 * ends handled exactly — a threshold >= 1 fires every draw
 * (P(u < t) = 1 for u in [0,1)), a threshold <= 0 never fires.
 */
inline double
logNoEvent(double t, double k)
{
    if (t >= 1.0)
        return -HUGE_VAL;
    if (t <= 0.0 || k <= 0.0)
        return 0.0;
    return k * std::log1p(-t);
}

/**
 * Structural fingerprint of a circuit (cache invalidation): the qubit
 * count and every gate's kind and operands — all a schedule is built
 * from, moments included.
 */
std::uint64_t
circuitFingerprint(const Circuit &c)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(c.numQubits());
    mix(c.numGates());
    for (const Gate &g : c.gates()) {
        mix(static_cast<std::uint64_t>(g.kind));
        mix(g.controls.size());
        for (Qubit q : g.controls)
            mix(q);
        mix(g.targets.size());
        for (Qubit q : g.targets)
            mix(q);
    }
    return h;
}

} // namespace

void
NoiseModel::prepare(const FeynmanExecutor &exec) const
{
    const Circuit *c = &exec.circuit();
    const std::uint64_t fp = circuitFingerprint(*c);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (preparedFor == c && preparedFingerprint == fp)
        return;
    preparedFor = nullptr; // invalidate while the schedule is in flux
    sched.sites.clear();
    enumerateSites(exec, sched.sites);
    sched.rowSites.clear();
    for (const SampleSites::Site &s : sched.sites) {
        if (s.row >= sched.rowSites.size())
            sched.rowSites.resize(std::size_t(s.row) + 1, 0);
        ++sched.rowSites[s.row];
    }
    static const double kUnitFactor = 1.0;
    buildRows(exec, &kUnitFactor, 1, sched.unit);
    sched.sweep = SampleSites::Rows{};
    preparedFingerprint = fp;
    preparedFor = c;
}

void
NoiseModel::prepareSweep(const FeynmanExecutor &exec,
                         const double *factors, std::size_t n) const
{
    prepare(exec);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (!rowsReady(sched, sched.sweep, factors, n))
        buildRows(exec, factors, n, sched.sweep);
}

void
NoiseModel::buildRows(const FeynmanExecutor &exec,
                      const double *factors, std::size_t n,
                      SampleSites::Rows &rows) const
{
    const std::size_t nrows = sched.rowSites.size();
    rows.factors.clear(); // invalidate while in flux
    rows.tx.assign(nrows * n, 0.0);
    rows.txy.assign(nrows * n, 0.0);
    rows.txyz.assign(nrows * n, 0.0);
    rows.top.assign(nrows, 0.0);
    rows.cut.assign(nrows, 0);
    // A cut costs a 64-step search, and a row nearly always repeats
    // its predecessor's threshold (runs of one gate kind), so the
    // last one is reused.
    double lastTop = -1.0;
    std::uint64_t lastCut = 0;
    for (std::uint32_t row = 0; row < nrows; ++row) {
        if (sched.rowSites[row] == 0)
            continue; // no site draws against it (a barrier's row)
        double top = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const PauliRates r = rowRates(exec, row, factors[j]);
            const std::size_t at = row * n + j;
            rows.tx[at] = r.x;
            rows.txy[at] = r.x + r.y;
            rows.txyz[at] = r.x + r.y + r.z;
            top = std::max(top, rows.txyz[at]);
        }
        // One cut (and one hazard) for the row's largest threshold
        // serves every factor at once.
        if (top != lastTop) {
            lastTop = top;
            lastCut = Rng::cutFor(top);
        }
        rows.top[row] = top;
        rows.cut[row] = lastCut;
    }
    rows.runs.clear();
    for (std::uint32_t i = 0; i < sched.sites.size(); ++i) {
        const double top = rows.top[sched.sites[i].row];
        if (i > 0 && rows.top[sched.sites[i - 1].row] == top)
            rows.runs.back().end = i + 1;
        else
            rows.runs.push_back({i + 1, std::min(top, 1.0),
                                 -logNoEvent(top, 1.0)});
    }
    rows.factors.assign(factors, factors + n);
}

const SampleSites::Rows &
NoiseModel::unitRows(const FeynmanExecutor &exec) const
{
    QRAMSIM_ASSERT(preparedFor == &exec.circuit(), "noise model '",
                   name(), "' sampled before prepare()");
    return sched.unit;
}

const SampleSites::Rows &
NoiseModel::sweepRows(const FeynmanExecutor &exec,
                      const double *factors, std::size_t n) const
{
    QRAMSIM_ASSERT(preparedFor == &exec.circuit() &&
                       rowsReady(sched, sched.sweep, factors, n),
                   "noise model '", name(),
                   "' sweep-sampled before prepareSweep() for these "
                   "factors");
    return sched.sweep;
}

void
NoiseModel::sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                       FlatRealization &out) const
{
    streamSites(sched, unitRows(exec), rng, &out);
}

void
NoiseModel::sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                       FlatRealization &out) const
{
    walkEvents(sched, unitRows(exec), rng, &out);
}

void
NoiseModel::sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                            const double *factors, std::size_t n,
                            FlatRealization *outs) const
{
    streamSites(sched, sweepRows(exec, factors, n), rng, outs);
}

void
NoiseModel::sampleFlatSweep(const FeynmanExecutor &exec,
                            CounterRng &rng, const double *factors,
                            std::size_t n, FlatRealization *outs) const
{
    walkEvents(sched, sweepRows(exec, factors, n), rng, outs);
}

void
NoiseModel::classProbabilities(const FeynmanExecutor &exec,
                               const double *factors, std::size_t n,
                               double *pEmpty, double *pZOnly) const
{
    prepare(exec);
    std::vector<double> logE(n, 0.0), logXY(n, 0.0);
    for (std::uint32_t row = 0; row < sched.rowSites.size(); ++row) {
        if (sched.rowSites[row] == 0)
            continue;
        const double sites = static_cast<double>(sched.rowSites[row]);
        for (std::size_t j = 0; j < n; ++j) {
            const PauliRates r = rowRates(exec, row, factors[j]);
            const double txy = r.x + r.y;
            logE[j] += logNoEvent(txy + r.z, sites);
            logXY[j] += logNoEvent(txy, sites);
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        pEmpty[j] = std::exp(logE[j]);
        pZOnly[j] = std::max(0.0, std::exp(logXY[j]) - pEmpty[j]);
    }
}

ErrorRealization
QubitChannelNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    real.afterMoment.resize(depth);
    if (rounds == 0 || rounds >= depth) {
        for (std::size_t t = 0; t < depth; ++t)
            for (std::uint32_t q = 0; q < nq; ++q)
                drawPauli(rates, q, rng, real.afterMoment[t]);
        return real;
    }
    // Round-based exposure: R draws per qubit at evenly spaced moments.
    for (unsigned r = 0; r < rounds; ++r) {
        std::size_t t = (std::size_t(r) * depth) / rounds;
        for (std::uint32_t q = 0; q < nq; ++q)
            drawPauli(rates, q, rng, real.afterMoment[t]);
    }
    return real;
}

void
QubitChannelNoise::enumerateSites(const FeynmanExecutor &exec,
                                  std::vector<SampleSites::Site> &out)
    const
{
    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    const auto &momentEnd = exec.stream().momentEndPos;
    auto moment = [&](std::size_t t) {
        for (std::uint32_t q = 0; q < nq; ++q)
            out.push_back({momentEnd[t], q, 0});
    };
    if (rounds == 0 || rounds >= depth) {
        for (std::size_t t = 0; t < depth; ++t)
            moment(t);
        return;
    }
    for (unsigned r = 0; r < rounds; ++r)
        moment((std::size_t(r) * depth) / rounds);
}

PauliRates
QubitChannelNoise::rowRates(const FeynmanExecutor &, std::uint32_t,
                            double factor) const
{
    return rates.scaled(factor);
}

PauliRates
GateNoise::effectiveRatesFor(const PauliRates &base, const Gate &g,
                             bool weighted)
{
    if (!weighted)
        return base;
    // Weight by the decomposed two-qubit-gate count: a gate that
    // compiles to w CXs exposes each operand ~w times.
    Cost gc = gateCost(g);
    const double w = std::max<std::uint64_t>(1, gc.cxCount);
    auto scale = [&](double p) {
        return 1.0 - std::pow(1.0 - p, w);
    };
    return PauliRates{scale(base.x), scale(base.y), scale(base.z)};
}

ErrorRealization
GateNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const auto &gates = exec.circuit().gates();
    real.afterGate.resize(gates.size());
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates r = effectiveRatesFor(rates, g, weighted);
        for (Qubit q : g.controls)
            drawPauli(r, q, rng, real.afterGate[gi]);
        for (Qubit q : g.targets)
            drawPauli(r, q, rng, real.afterGate[gi]);
    }
    return real;
}

void
GateNoise::enumerateSites(const FeynmanExecutor &exec,
                          std::vector<SampleSites::Site> &out) const
{
    appendOperandSites(
        exec,
        [](std::size_t gi, const Gate &) {
            return static_cast<std::uint32_t>(gi);
        },
        out);
}

PauliRates
GateNoise::rowRates(const FeynmanExecutor &exec, std::uint32_t row,
                    double factor) const
{
    return effectiveRatesFor(rates.scaled(factor),
                             exec.circuit().gates()[row], weighted);
}

ErrorRealization
DeviceNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const auto &gates = exec.circuit().gates();
    real.afterGate.resize(gates.size());
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates &r =
            g.aritytotal() >= 2 ? rates2q : rates1q;
        for (Qubit q : g.controls)
            drawPauli(r, q, rng, real.afterGate[gi]);
        for (Qubit q : g.targets)
            drawPauli(r, q, rng, real.afterGate[gi]);
    }
    return real;
}

void
DeviceNoise::enumerateSites(const FeynmanExecutor &exec,
                            std::vector<SampleSites::Site> &out) const
{
    appendOperandSites(
        exec,
        [](std::size_t, const Gate &g) {
            return g.aritytotal() >= 2 ? 1u : 0u;
        },
        out);
}

PauliRates
DeviceNoise::rowRates(const FeynmanExecutor &, std::uint32_t row,
                      double factor) const
{
    return (row ? rates2q : rates1q).scaled(factor);
}

} // namespace qramsim
