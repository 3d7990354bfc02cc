/**
 * @file
 * The counter-stream event walk (sim/noise.hh, SampleSites) against
 * the per-site streamer and against ground truth:
 *
 *  - equivalence: two-sample chi-square tests (alpha = 1e-4, fixed
 *    seeds) of per-site event frequency, the X/Y/Z split and the
 *    events-per-shot distribution, walk (CounterRng) against streamer
 *    (Rng), plain and sweep sampling, on bucket brigade m=3 and
 *    virtual QRAM m=2 k=1 under weighted and unweighted gate
 *    depolarizing noise, the device channel and the qubit channel
 *    with rounds 0;
 *  - ground truth: the walk's empty / Z-only / general fractions per
 *    sweep point within 4 sigma of classProbabilities;
 *  - degenerate rows: tops >= 1 fire at every site in every draw,
 *    factor 0 and zero-rate rows never fire, as in the streamer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "qram/bucket_brigade.hh"
#include "qram/virtual_qram.hh"
#include "sim/noise.hh"

namespace qramsim {
namespace {

constexpr double kAlpha = 1e-4;

/** Upper-alpha critical value of chi-square with @p dof degrees of
 *  freedom (Wilson-Hilferty; a few percent high at dof 1). */
double
chiSquareCritical(std::size_t dof, double alpha)
{
    const double k = static_cast<double>(dof);
    const double z = stats::normalQuantile(1.0 - alpha);
    const double c = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
    return k * c * c * c;
}

/**
 * Two-sample chi-square homogeneity test of binned counts @p a and
 * @p b (the same bins, in order). Adjacent bins are pooled until each
 * holds at least 20 counts of both samples together; the statistic
 * allows unequal totals (Numerical Recipes' chstwo).
 */
void
expectSameDistribution(const std::vector<double> &a,
                       const std::vector<double> &b,
                       const std::string &what)
{
    ASSERT_EQ(a.size(), b.size());
    std::vector<double> pa, pb;
    double ca = 0.0, cb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ca += a[i];
        cb += b[i];
        if (ca + cb >= 20.0) {
            pa.push_back(ca);
            pb.push_back(cb);
            ca = cb = 0.0;
        }
    }
    if (!pa.empty()) {
        pa.back() += ca;
        pb.back() += cb;
    }
    ASSERT_GE(pa.size(), 2u) << what << ": too few events to compare";
    double ta = 0.0, tb = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ta += pa[i];
        tb += pb[i];
    }
    const double ra = std::sqrt(tb / ta), rb = std::sqrt(ta / tb);
    double chi2 = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        const double d = ra * pa[i] - rb * pb[i];
        chi2 += d * d / (pa[i] + pb[i]);
    }
    const std::size_t dof = pa.size() - 1;
    EXPECT_LT(chi2, chiSquareCritical(dof, kAlpha))
        << what << ": chi-square " << chi2 << " over " << dof
        << " dof (" << ta << " vs " << tb << " counts)";
}

/** Per-point event statistics of one sampler. */
struct Tally
{
    /** Events per site, keyed (pos << 32 | qubit). */
    std::vector<std::unordered_map<std::uint64_t, double>> site;
    std::vector<std::array<double, 3>> kind; ///< X, Y, Z counts
    std::vector<std::vector<double>> perShot; ///< histogram

    explicit Tally(std::size_t npts)
        : site(npts), kind(npts, {0.0, 0.0, 0.0}), perShot(npts)
    {}

    void
    add(const FlatRealization *outs)
    {
        for (std::size_t j = 0; j < site.size(); ++j) {
            for (const FlatEvent &ev : outs[j].events) {
                site[j][std::uint64_t(ev.pos) << 32 | ev.qubit] += 1.0;
                kind[j][static_cast<std::size_t>(ev.pauli)] += 1.0;
            }
            const std::size_t n = outs[j].events.size();
            if (perShot[j].size() <= n)
                perShot[j].resize(n + 1, 0.0);
            perShot[j][n] += 1.0;
        }
    }
};

/** Compare point @p j of two tallies on all three statistics. */
void
expectSameEvents(const Tally &a, const Tally &b, std::size_t j,
                 const std::string &what)
{
    std::map<std::uint64_t, std::array<double, 2>> sites;
    for (const auto &[key, n] : a.site[j])
        sites[key][0] = n;
    for (const auto &[key, n] : b.site[j])
        sites[key][1] = n;
    std::vector<double> sa, sb;
    for (const auto &[key, n] : sites) {
        sa.push_back(n[0]);
        sb.push_back(n[1]);
    }
    expectSameDistribution(sa, sb, what + " per-site frequency");

    const std::vector<double> ka(a.kind[j].begin(), a.kind[j].end());
    const std::vector<double> kb(b.kind[j].begin(), b.kind[j].end());
    expectSameDistribution(ka, kb, what + " X/Y/Z split");

    std::vector<double> ha = a.perShot[j], hb = b.perShot[j];
    ha.resize(std::max(ha.size(), hb.size()), 0.0);
    hb.resize(ha.size(), 0.0);
    expectSameDistribution(ha, hb, what + " events per shot");
}

/**
 * Draw @p shots shots from the streamer (Rng(seed), sequential) and
 * the walk (CounterRng(seed, s)), plain and over @p factors, and
 * compare every point.
 */
void
expectWalkMatchesStreamer(const NoiseModel &noise,
                          const FeynmanExecutor &exec,
                          const std::vector<double> &factors,
                          std::size_t shots, std::uint64_t seed)
{
    SCOPED_TRACE(noise.name());
    const std::size_t npts = factors.size();
    std::vector<FlatRealization> outs(npts);

    noise.prepare(exec);
    Tally plainSeq(1), plainCtr(1);
    Rng rng(seed);
    for (std::size_t s = 0; s < shots; ++s) {
        noise.sampleFlat(exec, rng, outs[0]);
        plainSeq.add(outs.data());
        CounterRng ctr(seed, s);
        noise.sampleFlat(exec, ctr, outs[0]);
        plainCtr.add(outs.data());
    }
    expectSameEvents(plainSeq, plainCtr, 0, "plain");

    noise.prepareSweep(exec, factors.data(), npts);
    Tally sweepSeq(npts), sweepCtr(npts);
    Rng sweepRng(seed + 1);
    for (std::size_t s = 0; s < shots; ++s) {
        noise.sampleFlatSweep(exec, sweepRng, factors.data(), npts,
                              outs.data());
        sweepSeq.add(outs.data());
        CounterRng ctr(seed + 1, s);
        noise.sampleFlatSweep(exec, ctr, factors.data(), npts,
                              outs.data());
        sweepCtr.add(outs.data());
    }
    for (std::size_t j = 0; j < npts; ++j)
        expectSameEvents(sweepSeq, sweepCtr, j,
                         "sweep factor " + std::to_string(factors[j]));
}

/** The two circuits of the harness: bb m=3 and virtual m=2 k=1. */
std::vector<QueryCircuit>
harnessCircuits()
{
    Rng memRng(2031);
    std::vector<QueryCircuit> out;
    out.push_back(BucketBrigadeQram(3).build(Memory::random(3, memRng)));
    out.push_back(VirtualQram(2, 1).build(Memory::random(3, memRng)));
    return out;
}

TEST(SamplerEquivalence, WalkMatchesPerSiteStreamerAllModels)
{
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t shots = 20000;
    std::uint64_t seed = 9100;
    for (const QueryCircuit &qc : harnessCircuits()) {
        SCOPED_TRACE(std::to_string(qc.circuit.numQubits()) +
                     " qubits");
        FeynmanExecutor exec(qc.circuit);
        const PauliRates depol = PauliRates::depolarizing(1e-2);
        expectWalkMatchesStreamer(GateNoise(depol, true), exec, factors,
                                  shots, seed += 10);
        expectWalkMatchesStreamer(GateNoise(depol, false), exec,
                                  factors, shots, seed += 10);
        expectWalkMatchesStreamer(DeviceNoise(5e-3, 1e-2), exec,
                                  factors, shots, seed += 10);
        expectWalkMatchesStreamer(
            QubitChannelNoise(PauliRates::depolarizing(4e-3), 0), exec,
            factors, shots, seed += 10);
    }
}

TEST(SamplerGroundTruth, WalkClassFractionsMatchClosedForm)
{
    // Rates where every class is common: the fractions of empty,
    // Z-only and general walk realizations per sweep point must sit
    // within 4 sigma of the closed-form class probabilities.
    const std::vector<double> factors = {0.5, 1.0, 2.0};
    const std::size_t npts = factors.size();
    const std::size_t draws = 20000;
    for (const QueryCircuit &qc : harnessCircuits()) {
        FeynmanExecutor exec(qc.circuit);
        const GateNoise gateDepol(PauliRates::depolarizing(2e-3));
        const GateNoise gateZ(PauliRates::phaseFlip(3e-3), false);
        const DeviceNoise device(1e-3, 4e-3);
        const QubitChannelNoise qubit(PauliRates{5e-5, 5e-5, 4e-4}, 0);
        const NoiseModel *const models[] = {&gateDepol, &gateZ,
                                            &device, &qubit};
        for (const NoiseModel *noise : models) {
            SCOPED_TRACE(noise->name());
            noise->prepareSweep(exec, factors.data(), npts);
            std::vector<double> pE(npts), pZ(npts);
            noise->classProbabilities(exec, factors.data(), npts,
                                      pE.data(), pZ.data());
            std::vector<double> nE(npts, 0.0), nZ(npts, 0.0);
            std::vector<FlatRealization> outs(npts);
            for (std::size_t d = 0; d < draws; ++d) {
                CounterRng rng(4401, d);
                noise->sampleFlatSweep(exec, rng, factors.data(), npts,
                                       outs.data());
                for (std::size_t j = 0; j < npts; ++j) {
                    if (outs[j].empty())
                        nE[j] += 1.0;
                    else if (outs[j].zOnly)
                        nZ[j] += 1.0;
                }
            }
            const double n = static_cast<double>(draws);
            for (std::size_t j = 0; j < npts; ++j) {
                SCOPED_TRACE("factor " + std::to_string(factors[j]));
                const double pG = std::max(0.0, 1.0 - pE[j] - pZ[j]);
                const double nG = n - nE[j] - nZ[j];
                auto tol = [&](double p) {
                    return 4.0 *
                           std::sqrt(std::max(p * (1.0 - p), 1e-12) / n);
                };
                EXPECT_NEAR(nE[j] / n, pE[j], tol(pE[j]));
                EXPECT_NEAR(nZ[j] / n, pZ[j], tol(pZ[j]));
                EXPECT_NEAR(nG / n, pG, tol(pG));
            }
        }
    }
}

/** Every (pos, qubit) of @p r, in order. */
std::vector<std::uint64_t>
sitesOf(const FlatRealization &r)
{
    std::vector<std::uint64_t> out;
    for (const FlatEvent &ev : r.events)
        out.push_back(std::uint64_t(ev.pos) << 32 | ev.qubit);
    return out;
}

TEST(SamplerEdgeRows, CertainAndImpossibleSitesMatchTheStreamer)
{
    // gate-depol at eps 0.3 over factors 0, 1, 4: at factor 4 every
    // row's top is >= 1 (hazard +inf), so every site fires in every
    // draw; factor 0 never fires. DeviceNoise with a zero 1q rate has
    // rows whose top is 0 (hazard 0): their sites never fire. The
    // walk must reproduce the streamer's certain and impossible sites
    // exactly.
    const std::vector<double> factors = {0.0, 1.0, 4.0};
    const std::size_t npts = factors.size();
    for (const QueryCircuit &qc : harnessCircuits()) {
        FeynmanExecutor exec(qc.circuit);
        std::size_t numSites = 0;
        std::map<std::uint64_t, bool> oneQubitSite;
        const auto &gates = qc.circuit.gates();
        for (std::size_t gi = 0; gi < gates.size(); ++gi) {
            const Gate &g = gates[gi];
            if (g.kind == GateKind::Barrier)
                continue;
            const std::uint32_t pos = exec.stream().gatePos[gi] + 1;
            for (const auto *qs : {&g.controls, &g.targets})
                for (Qubit q : *qs) {
                    ++numSites;
                    oneQubitSite[std::uint64_t(pos) << 32 | q] =
                        g.aritytotal() < 2;
                }
        }

        for (bool weighted : {true, false}) {
            SCOPED_TRACE(weighted ? "weighted" : "unweighted");
            GateNoise noise(PauliRates::depolarizing(0.3), weighted);
            noise.prepareSweep(exec, factors.data(), npts);
            std::vector<FlatRealization> seq(npts), ctr(npts);
            Rng rng(77);
            for (std::size_t d = 0; d < 64; ++d) {
                noise.sampleFlatSweep(exec, rng, factors.data(), npts,
                                      seq.data());
                CounterRng crng(77, d);
                noise.sampleFlatSweep(exec, crng, factors.data(), npts,
                                      ctr.data());
                EXPECT_TRUE(seq[0].empty());
                EXPECT_TRUE(ctr[0].empty());
                EXPECT_EQ(ctr[2].events.size(), numSites);
                EXPECT_EQ(sitesOf(ctr[2]), sitesOf(seq[2]));
            }
        }

        DeviceNoise device(0.0, 0.3);
        device.prepareSweep(exec, factors.data(), npts);
        std::vector<FlatRealization> seq(npts), ctr(npts);
        Rng rng(78);
        std::size_t fired = 0;
        for (std::size_t d = 0; d < 256; ++d) {
            device.sampleFlatSweep(exec, rng, factors.data(), npts,
                                   seq.data());
            CounterRng crng(78, d);
            device.sampleFlatSweep(exec, crng, factors.data(), npts,
                                   ctr.data());
            EXPECT_TRUE(ctr[0].empty());
            for (const FlatRealization *r : {&seq[1], &ctr[1], &seq[2],
                                             &ctr[2]})
                for (std::uint64_t key : sitesOf(*r)) {
                    ++fired;
                    EXPECT_FALSE(oneQubitSite.at(key))
                        << "a zero-rate row fired";
                }
            // Factor 4 puts the 2q row's top at 1.2: all of its
            // sites fire, in both samplers.
            EXPECT_EQ(sitesOf(ctr[2]), sitesOf(seq[2]));
        }
        EXPECT_GT(fired, 0u);
    }
}

} // namespace
} // namespace qramsim
