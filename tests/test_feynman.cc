/**
 * @file
 * Unit tests for the Feynman-path simulator and noise models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <unordered_map>
#include <vector>

#include "qram/virtual_qram.hh"
#include "sim/feynman.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"

namespace qramsim {
namespace {

PathState
makePath(std::size_t n, std::uint64_t value)
{
    PathState p(n);
    p.bits.deposit(0, n, value);
    return p;
}

TEST(Feynman, XFlipsBit)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    c.x(q[0]);
    FeynmanExecutor ex(c);
    PathState out = ex.runIdeal(makePath(2, 0b00));
    EXPECT_EQ(out.bits.extract(0, 2), 0b01u);
}

TEST(Feynman, CxRespectsControl)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    c.cx(q[0], q[1]);
    FeynmanExecutor ex(c);
    EXPECT_EQ(ex.runIdeal(makePath(2, 0b01)).bits.extract(0, 2), 0b11u);
    EXPECT_EQ(ex.runIdeal(makePath(2, 0b00)).bits.extract(0, 2), 0b00u);
}

TEST(Feynman, NegativeControlFiresOnZero)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    c.cx0(q[0], q[1]);
    FeynmanExecutor ex(c);
    EXPECT_EQ(ex.runIdeal(makePath(2, 0b00)).bits.extract(0, 2), 0b10u);
    EXPECT_EQ(ex.runIdeal(makePath(2, 0b01)).bits.extract(0, 2), 0b01u);
}

TEST(Feynman, McxPattern)
{
    Circuit c;
    auto q = c.allocRegister(4, "q");
    c.mcx({q[0], q[1], q[2]}, 0b010, q[3]);
    FeynmanExecutor ex(c);
    EXPECT_EQ(ex.runIdeal(makePath(4, 0b0010)).bits.extract(0, 4),
              0b1010u);
    EXPECT_EQ(ex.runIdeal(makePath(4, 0b0011)).bits.extract(0, 4),
              0b0011u);
}

TEST(Feynman, SwapAndCswap)
{
    Circuit c;
    auto q = c.allocRegister(3, "q");
    c.cswap(q[0], q[1], q[2]);
    FeynmanExecutor ex(c);
    EXPECT_EQ(ex.runIdeal(makePath(3, 0b011)).bits.extract(0, 3),
              0b101u);
    EXPECT_EQ(ex.runIdeal(makePath(3, 0b010)).bits.extract(0, 3),
              0b010u);
}

TEST(Feynman, ZPhaseOnOne)
{
    Circuit c;
    auto q = c.allocRegister(1, "q");
    c.z(q[0]);
    FeynmanExecutor ex(c);
    EXPECT_DOUBLE_EQ(ex.runIdeal(makePath(1, 1)).phase.real(), -1.0);
    EXPECT_DOUBLE_EQ(ex.runIdeal(makePath(1, 0)).phase.real(), 1.0);
}

TEST(Feynman, ErrorEvents)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    c.x(q[0]); // one gate so there's a slot to attach errors to
    FeynmanExecutor ex(c);

    ErrorRealization errs;
    errs.afterGate.resize(1);
    errs.afterGate[0].push_back({q[1], PauliKind::X});
    PathState out = ex.runNoisy(makePath(2, 0b00), errs);
    EXPECT_EQ(out.bits.extract(0, 2), 0b11u);

    ErrorRealization zerr;
    zerr.afterGate.resize(1);
    zerr.afterGate[0].push_back({q[0], PauliKind::Z});
    out = ex.runNoisy(makePath(2, 0b00), zerr);
    EXPECT_DOUBLE_EQ(out.phase.real(), -1.0); // X made the bit 1 first
}

TEST(Feynman, YErrorIsIXZ)
{
    Circuit c;
    auto q = c.allocRegister(1, "q");
    c.x(q[0]);
    FeynmanExecutor ex(c);
    ErrorRealization errs;
    errs.afterGate.resize(1);
    errs.afterGate[0].push_back({q[0], PauliKind::Y});
    PathState out = ex.runNoisy(makePath(1, 0), errs);
    // Y|1> = -i|0>.
    EXPECT_EQ(out.bits.extract(0, 1), 0u);
    EXPECT_NEAR(out.phase.imag(), -1.0, 1e-12);
}

TEST(Noise, ZeroRateGivesEmptyRealization)
{
    Circuit c;
    auto q = c.allocRegister(3, "q");
    c.cx(q[0], q[1]);
    c.cx(q[1], q[2]);
    FeynmanExecutor ex(c);
    Rng rng(3);
    EXPECT_TRUE(QubitChannelNoise(PauliRates{}).sample(ex, rng).empty());
    EXPECT_TRUE(GateNoise(PauliRates{}).sample(ex, rng).empty());
}

TEST(Noise, RatesProduceExpectedCounts)
{
    Circuit c;
    auto q = c.allocRegister(10, "q");
    for (int i = 0; i < 9; ++i)
        c.cx(q[i], q[i + 1]);
    FeynmanExecutor ex(c);
    Rng rng(17);
    QubitChannelNoise noise(PauliRates::phaseFlip(0.1));
    std::size_t events = 0, samples = 200;
    for (std::size_t s = 0; s < samples; ++s) {
        auto real = noise.sample(ex, rng);
        for (const auto &v : real.afterMoment)
            events += v.size();
    }
    // depth 9 moments * 10 qubits * 0.1 = 9 expected per sample.
    double mean = events / double(samples);
    EXPECT_NEAR(mean, 9.0, 1.0);
}

TEST(Fidelity, NoiselessIsUnity)
{
    Circuit c;
    auto q = c.allocRegister(3, "q");
    Qubit bus = c.allocQubit("bus");
    c.cx(q[0], bus); // a trivial "query": bus = addr bit 0
    FidelityEstimator est(c, {q[0], q[1], q[2]}, bus,
                          AddressSuperposition::uniform(3));
    QubitChannelNoise none(PauliRates{});
    FidelityResult r = est.estimate(none, 4, 1);
    EXPECT_DOUBLE_EQ(r.full, 1.0);
    EXPECT_DOUBLE_EQ(r.reduced, 1.0);
}

TEST(Fidelity, DeterministicXOnBusKillsFidelity)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    Qubit bus = c.allocQubit("bus");
    c.cx(q[0], bus);
    FidelityEstimator est(c, {q[0], q[1]}, bus,
                          AddressSuperposition::uniform(2));
    ErrorRealization errs;
    errs.afterGate.resize(1);
    errs.afterGate[0].push_back({bus, PauliKind::X});
    double full = 0.0, red = 0.0;
    est.shotFidelity(errs, full, red);
    EXPECT_DOUBLE_EQ(full, 0.0);
    EXPECT_DOUBLE_EQ(red, 0.0);
}

TEST(Fidelity, StrandedAncillaDistinguishesMetrics)
{
    // An X error on an idle ancilla wrecks the full-state overlap but
    // leaves the reduced (address+bus) fidelity at 1.
    Circuit c;
    auto q = c.allocRegister(1, "q");
    Qubit bus = c.allocQubit("bus");
    Qubit anc = c.allocQubit("anc");
    c.cx(q[0], bus);
    FidelityEstimator est(c, {q[0]}, bus,
                          AddressSuperposition::uniform(1));
    ErrorRealization errs;
    errs.afterGate.resize(1);
    errs.afterGate[0].push_back({anc, PauliKind::X});
    double full = 0.0, red = 0.0;
    est.shotFidelity(errs, full, red);
    EXPECT_DOUBLE_EQ(full, 0.0);
    EXPECT_DOUBLE_EQ(red, 1.0);
}

TEST(Fidelity, ZOnAddressDampsSuperposition)
{
    // Z on an address qubit flips the sign of half the branches:
    // overlap = 0 for the uniform 1-qubit superposition.
    Circuit c;
    auto q = c.allocRegister(1, "q");
    Qubit bus = c.allocQubit("bus");
    c.cx(q[0], bus);
    FidelityEstimator est(c, {q[0]}, bus,
                          AddressSuperposition::uniform(1));
    ErrorRealization errs;
    errs.afterGate.resize(1);
    errs.afterGate[0].push_back({q[0], PauliKind::Z});
    double full = 0.0, red = 0.0;
    est.shotFidelity(errs, full, red);
    EXPECT_NEAR(full, 0.0, 1e-12);
    EXPECT_NEAR(red, 0.0, 1e-12);
}

// --- Compiled engine vs the reference interpreter ---------------------

TEST(Compiled, StreamLowersScheduledCircuit)
{
    Circuit c;
    auto q = c.allocRegister(3, "q");
    c.cx(q[0], q[1]);
    c.barrier();
    c.cswap(q[0], q[1], q[2]);
    FeynmanExecutor ex(c);
    const CompiledStream &cs = ex.stream();
    EXPECT_EQ(cs.size(), 2u); // barrier dropped
    EXPECT_EQ(cs.gatePos[0], 0u);
    EXPECT_EQ(cs.gatePos[1], UINT32_MAX);
    EXPECT_EQ(cs.gatePos[2], 1u);
    EXPECT_FALSE(cs.hasPhaseOps);
    // Both gates have one positive control on q0: one ctrl word each,
    // mask == value == bit 0.
    ASSERT_EQ(cs.ctrl.size(), 2u);
    EXPECT_EQ(cs.ctrl[0].mask, 1ull);
    EXPECT_EQ(cs.ctrl[0].value, 1ull);
}

TEST(Compiled, MultiWordControlMasks)
{
    // An MCX whose controls straddle the 64-bit word boundary must
    // compile to two word predicates honoring per-control polarity.
    Circuit c;
    auto q = c.allocRegister(70, "q");
    c.mcx({q[10], q[63], q[64], q[69]}, 0b1011, q[0]);
    FeynmanExecutor ex(c);
    ASSERT_EQ(ex.stream().ctrl.size(), 2u);

    PathState in(70);
    in.bits.set(10, true);
    in.bits.set(63, true);
    in.bits.set(64, false); // pattern bit 2 == 0: negative control
    in.bits.set(69, true);
    PathState out = ex.runIdeal(in);
    EXPECT_TRUE(out.bits.get(0));

    in.bits.set(64, true); // control mismatch: gate must not fire
    out = ex.runIdeal(in);
    EXPECT_FALSE(out.bits.get(0));
}

TEST(Compiled, NoisyRunMatchesReferenceOnQramCircuit)
{
    Rng rng(911);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    FeynmanExecutor ex(qc.circuit);
    GateNoise noise(PauliRates::depolarizing(3e-3));
    Rng shotRng(12);
    for (int shot = 0; shot < 25; ++shot) {
        ErrorRealization errors = noise.sample(ex, shotRng);
        for (std::uint64_t addr = 0; addr < 8; ++addr) {
            PathState in(qc.circuit.numQubits());
            for (unsigned b = 0; b < 3; ++b)
                in.bits.set(qc.addressQubits[b], (addr >> b) & 1);
            PathState ref = ex.runNoisyReference(in, errors);
            PathState out = ex.runNoisy(in, errors);
            EXPECT_EQ(out.bits, ref.bits);
            EXPECT_EQ(out.phase, ref.phase); // bit-identical
        }
    }
}

TEST(Compiled, FlatSamplingMatchesLegacySampling)
{
    // Every model's prepared schedule must consume the RNG exactly like
    // its Gate-walking sample() and place the same events at
    // equivalent stream positions.
    Rng rng(404);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FeynmanExecutor ex(qc.circuit);
    const PauliRates depol = PauliRates::depolarizing(5e-3);
    const QubitChannelNoise perMoment(depol);
    const QubitChannelNoise perRound(
        depol, QubitChannelNoise::virtualQramRounds(2, 1));
    const GateNoise weighted(depol);
    const GateNoise flat(depol, false);
    const DeviceNoise device(depol, PauliRates::depolarizing(2e-2));
    const NoiseModel *models[] = {&perMoment, &perRound, &weighted,
                                  &flat, &device};
    for (const NoiseModel *noise : models) {
        SCOPED_TRACE(noise->name());
        noise->prepare(ex);
        Rng a(77), b(77);
        std::size_t events = 0;
        for (int shot = 0; shot < 10; ++shot) {
            ErrorRealization legacy = noise->sample(ex, a);
            FlatRealization direct;
            noise->sampleFlat(ex, b, direct);
            FlatRealization flattened;
            ex.flatten(legacy, flattened);
            ASSERT_EQ(direct.events.size(), flattened.events.size());
            events += direct.events.size();
            for (std::size_t i = 0; i < direct.events.size(); ++i) {
                EXPECT_EQ(direct.events[i].pos,
                          flattened.events[i].pos);
                EXPECT_EQ(direct.events[i].qubit,
                          flattened.events[i].qubit);
                EXPECT_EQ(direct.events[i].pauli,
                          flattened.events[i].pauli);
            }
        }
        EXPECT_GT(events, 0u) << "rates too low to compare anything";
    }
}

TEST(CompiledDeathTest, SamplingAnUnpreparedModelPanics)
{
    Rng rng(405);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);
    FeynmanExecutor ex(qc.circuit);
    GateNoise noise(PauliRates::depolarizing(5e-3));
    Rng r(1);
    CounterRng c(1, 0);
    FlatRealization out;
    EXPECT_DEATH(noise.sampleFlat(ex, r, out), "before prepare");
    EXPECT_DEATH(noise.sampleFlat(ex, c, out), "before prepare");

    // Prepared for plain sampling, but not for this sweep.
    noise.prepare(ex);
    const double factors[] = {0.5, 2.0};
    FlatRealization outs[2];
    EXPECT_DEATH(noise.sampleFlatSweep(ex, r, factors, 2, outs),
                 "before prepareSweep");
    noise.prepareSweep(ex, factors, 1);
    EXPECT_DEATH(noise.sampleFlatSweep(ex, c, factors, 2, outs),
                 "before prepareSweep");
}

// --- Reference estimator replica (the seed implementation) ------------

namespace reference {

std::uint64_t
visibleKey(const BitVec &bits, const std::vector<Qubit> &addr, Qubit bus)
{
    std::uint64_t key = 0;
    for (std::size_t b = 0; b < addr.size(); ++b)
        key |= std::uint64_t(bits.get(addr[b])) << b;
    key |= std::uint64_t(bits.get(bus)) << addr.size();
    return key;
}

/** Verbatim replica of the pre-optimization shotFidelity. */
void
shotFidelity(const FeynmanExecutor &exec,
             const std::vector<Qubit> &addr, Qubit bus,
             const AddressSuperposition &input,
             const std::vector<PathState> &inputs,
             const std::vector<PathState> &ideals,
             const std::vector<std::uint64_t> &idealVisible,
             const ErrorRealization &errors, double &fullOut,
             double &reducedOut)
{
    std::unordered_map<std::uint64_t, std::complex<double>> visAmp;
    visAmp.reserve(input.size());
    for (std::size_t k = 0; k < input.size(); ++k)
        visAmp[idealVisible[k]] = std::conj(input.amps[k]);

    std::complex<double> fullOverlap{0.0, 0.0};

    struct Group { std::complex<double> sum{0.0, 0.0}; };
    struct BitVecHash
    {
        std::size_t operator()(const BitVec &b) const { return b.hash(); }
    };
    std::unordered_map<BitVec, Group, BitVecHash> groups;
    groups.reserve(8);

    for (std::size_t k = 0; k < input.size(); ++k) {
        PathState out = exec.runNoisyReference(inputs[k], errors);
        if (out.bits == ideals[k].bits) {
            fullOverlap += std::conj(input.amps[k]) * input.amps[k]
                           * out.phase;
        } else {
            auto it = visAmp.find(visibleKey(out.bits, addr, bus));
            if (it != visAmp.end()) {
                for (std::size_t j = 0; j < input.size(); ++j) {
                    if (ideals[j].bits == out.bits) {
                        fullOverlap += std::conj(input.amps[j])
                                       * input.amps[k] * out.phase;
                        break;
                    }
                }
            }
        }
        auto it = visAmp.find(visibleKey(out.bits, addr, bus));
        if (it != visAmp.end()) {
            BitVec anc = out.bits;
            for (Qubit q : addr)
                anc.set(q, false);
            anc.set(bus, false);
            groups[anc].sum += it->second * input.amps[k] * out.phase;
        }
    }

    fullOut = std::norm(fullOverlap);
    double red = 0.0;
    for (const auto &[anc, g] : groups)
        red += std::norm(g.sum);
    reducedOut = red;
}

/** Verbatim replica of the pre-optimization estimate(). */
FidelityResult
estimate(const QueryCircuit &qc, const AddressSuperposition &input,
         const NoiseModel &noise, std::size_t shots,
         std::uint64_t seed)
{
    FeynmanExecutor exec(qc.circuit);
    std::vector<PathState> inputs, ideals;
    std::vector<std::uint64_t> idealVisible;
    for (std::size_t k = 0; k < input.size(); ++k) {
        PathState p(qc.circuit.numQubits());
        for (std::size_t b = 0; b < qc.addressQubits.size(); ++b)
            p.bits.set(qc.addressQubits[b],
                       (input.addresses[k] >> b) & 1);
        inputs.push_back(p);
        ideals.push_back(exec.runIdealReference(p));
        idealVisible.push_back(
            visibleKey(ideals.back().bits, qc.addressQubits,
                       qc.busQubit));
    }
    Rng rng(seed);
    double sumF = 0.0, sumF2 = 0.0, sumR = 0.0, sumR2 = 0.0;
    for (std::size_t s = 0; s < shots; ++s) {
        ErrorRealization errors = noise.sample(exec, rng);
        double f = 0.0, r = 0.0;
        shotFidelity(exec, qc.addressQubits, qc.busQubit, input,
                     inputs, ideals, idealVisible, errors, f, r);
        sumF += f;
        sumF2 += f * f;
        sumR += r;
        sumR2 += r * r;
    }
    FidelityResult res;
    res.shots = shots;
    const double n = static_cast<double>(shots);
    res.full = sumF / n;
    res.reduced = sumR / n;
    if (shots > 1) {
        double varF = std::max(0.0, sumF2 / n - res.full * res.full);
        double varR =
            std::max(0.0, sumR2 / n - res.reduced * res.reduced);
        res.fullStderr = std::sqrt(varF / (n - 1));
        res.reducedStderr = std::sqrt(varR / (n - 1));
    }
    return res;
}

} // namespace reference

TEST(Fidelity, EmptyRealizationFastPathEqualsFullPropagation)
{
    Rng rng(5150);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    AddressSuperposition in = AddressSuperposition::random(4, rng);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit, in);

    // Empty realization evaluated through the fast path...
    ErrorRealization empty;
    double fFast = -1.0, rFast = -1.0;
    est.shotFidelity(empty, fFast, rFast);

    // ...must equal the reference full propagation bit for bit.
    FeynmanExecutor ref(qc.circuit);
    std::vector<PathState> inputs, ideals;
    std::vector<std::uint64_t> idealVisible;
    for (std::size_t k = 0; k < in.size(); ++k) {
        PathState p(qc.circuit.numQubits());
        for (std::size_t b = 0; b < qc.addressQubits.size(); ++b)
            p.bits.set(qc.addressQubits[b], (in.addresses[k] >> b) & 1);
        inputs.push_back(p);
        ideals.push_back(ref.runIdealReference(p));
        idealVisible.push_back(reference::visibleKey(
            ideals.back().bits, qc.addressQubits, qc.busQubit));
    }
    double fRef = -2.0, rRef = -2.0;
    reference::shotFidelity(ref, qc.addressQubits, qc.busQubit, in,
                            inputs, ideals, idealVisible, empty, fRef,
                            rRef);
    EXPECT_EQ(fFast, fRef);
    EXPECT_EQ(rFast, rRef);
}

TEST(Fidelity, SequentialEstimateBitIdenticalToSeedEstimator)
{
    Rng rng(2718);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    AddressSuperposition in = AddressSuperposition::uniform(4);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit, in);

    const std::size_t shots = 48;
    const std::uint64_t seed = 20230917;

    // Gate-based channel (weighted), the Sec. 6.3 evaluation model.
    {
        GateNoise noise(PauliRates::depolarizing(2e-3));
        FidelityResult a = est.estimate(noise, shots, seed);
        FidelityResult b = reference::estimate(qc, in, noise, shots,
                                               seed);
        EXPECT_EQ(a.full, b.full);
        EXPECT_EQ(a.reduced, b.reduced);
        EXPECT_EQ(a.fullStderr, b.fullStderr);
        EXPECT_EQ(a.reducedStderr, b.reducedStderr);
    }
    // Qubit channel with round-based exposure (Sec. 5.1 model).
    {
        QubitChannelNoise noise(PauliRates::phaseFlip(1e-3),
                                QubitChannelNoise::virtualQramRounds(3,
                                                                     1));
        FidelityResult a = est.estimate(noise, shots, seed + 1);
        FidelityResult b = reference::estimate(qc, in, noise, shots,
                                               seed + 1);
        EXPECT_EQ(a.full, b.full);
        EXPECT_EQ(a.reduced, b.reduced);
    }
    // Device-calibrated channel (Appendix A stand-in).
    {
        DeviceNoise noise(1e-4, 1e-3);
        FidelityResult a = est.estimate(noise, shots, seed + 2);
        FidelityResult b = reference::estimate(qc, in, noise, shots,
                                               seed + 2);
        EXPECT_EQ(a.full, b.full);
        EXPECT_EQ(a.reduced, b.reduced);
    }
}

TEST(Fidelity, ParallelEstimateIsThreadCountInvariant)
{
    Rng rng(31415);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    AddressSuperposition in = AddressSuperposition::uniform(4);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit, in);
    GateNoise noise(PauliRates::depolarizing(2e-3));

    const std::size_t shots = 64;
    FidelityResult t2 = est.estimate(noise, shots, 99, 2);
    FidelityResult t3 = est.estimate(noise, shots, 99, 3);
    FidelityResult t8 = est.estimate(noise, shots, 99, 8);
    EXPECT_EQ(t2.full, t3.full);
    EXPECT_EQ(t2.reduced, t3.reduced);
    EXPECT_EQ(t2.full, t8.full);
    EXPECT_EQ(t2.reduced, t8.reduced);

    // Different shot streams than sequential mode, but the same
    // distribution: agree within a few standard errors.
    FidelityResult seq = est.estimate(noise, shots, 99, 1);
    const double tolF =
        5.0 * (seq.fullStderr + t2.fullStderr) + 1e-12;
    const double tolR =
        5.0 * (seq.reducedStderr + t2.reducedStderr) + 1e-12;
    EXPECT_NEAR(seq.full, t2.full, tolF);
    EXPECT_NEAR(seq.reduced, t2.reduced, tolR);
}

TEST(Fidelity, WordMultipleQubitCountsWork)
{
    // Regression: visible-mask and snapshot tables must size their
    // word arrays exactly like BitVec does; a circuit whose qubit
    // count is a multiple of 64 used to over-run them.
    Circuit c;
    auto q = c.allocRegister(64, "q");
    Qubit bus = q[63];
    c.cx(q[0], bus);
    std::vector<Qubit> addr(q.begin(), q.begin() + 3);
    FidelityEstimator est(c, addr, bus, AddressSuperposition::uniform(3));
    QubitChannelNoise noise(PauliRates::phaseFlip(0.05));
    FidelityResult r = est.estimate(noise, 16, 7);
    EXPECT_GT(r.reduced, 0.0);
    EXPECT_LE(r.reduced, 1.0);
}

TEST(Fidelity, SingleAddressInput)
{
    Circuit c;
    auto q = c.allocRegister(2, "q");
    Qubit bus = c.allocQubit("bus");
    c.cx(q[1], bus);
    FidelityEstimator est(c, {q[0], q[1]}, bus,
                          AddressSuperposition::single(0b10, 2));
    QubitChannelNoise none(PauliRates{});
    FidelityResult r = est.estimate(none, 2, 5);
    EXPECT_DOUBLE_EQ(r.full, 1.0);
    EXPECT_TRUE(est.idealBus(0));
}

} // namespace
} // namespace qramsim
