/**
 * @file
 * Differential tests for the bit-sliced PathEnsemble engine.
 *
 * The ensemble engine must be bit-identical — bits *and* phases, not
 * merely numerically close — to the scalar compiled engine and to the
 * reference per-Gate interpreter, path by path, on randomized
 * Clifford+T circuits and on every QRAM architecture under X/Y/Z
 * noise. The estimator-level suites additionally pin the Ensemble and
 * Scalar replay engines to each other (and to a verbatim replica of
 * the seed estimator) on degenerate inputs: duplicate-visible-key
 * superpositions and random-amplitude superpositions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <unordered_map>
#include <vector>

#include "common/pathensemble.hh"
#include "qram/baselines.hh"
#include "qram/bucket_brigade.hh"
#include "qram/compact.hh"
#include "qram/fanout.hh"
#include "qram/select_swap.hh"
#include "qram/sqc.hh"
#include "qram/virtual_qram.hh"
#include "sim/fidelity.hh"
#include "sim/noise.hh"

namespace qramsim {
namespace {

// --- Container basics -------------------------------------------------

TEST(Ensemble, ScatterGatherRoundTrip)
{
    Rng rng(42);
    const std::size_t nq = 130, np = 70; // both straddle word edges
    PathEnsemble ens(nq, np);
    std::vector<BitVec> paths;
    for (std::size_t k = 0; k < np; ++k) {
        BitVec b(nq);
        for (std::size_t q = 0; q < nq; ++q)
            b.set(q, rng.bernoulli(0.5));
        ens.scatterPath(k, b, {0.5, -0.5});
        paths.push_back(std::move(b));
    }
    BitVec out(nq);
    for (std::size_t k = 0; k < np; ++k) {
        ens.gatherPath(k, out);
        EXPECT_EQ(out, paths[k]);
        EXPECT_EQ(ens.phase(k), std::complex<double>(0.5, -0.5));
    }
    // Tail bits (paths 70..127 of the last word) must stay zero.
    for (std::size_t q = 0; q < nq; ++q)
        EXPECT_EQ(ens.row(q)[ens.wordsPerQubit() - 1] &
                      ~ens.validMask(ens.wordsPerQubit() - 1),
                  0u);
}

TEST(Ensemble, ValidMaskCoversExactPaths)
{
    PathEnsemble full(3, 128);
    EXPECT_EQ(full.dataWords(), 2u);
    EXPECT_EQ(full.wordsPerQubit(), 2u); // dense: no padding words
    EXPECT_EQ(full.validMask(0), ~std::uint64_t(0));
    EXPECT_EQ(full.validMask(1), ~std::uint64_t(0));
    PathEnsemble partial(3, 65);
    EXPECT_EQ(partial.dataWords(), 2u);
    EXPECT_EQ(partial.wordsPerQubit(), 2u);
    EXPECT_EQ(partial.validMask(0), ~std::uint64_t(0));
    EXPECT_EQ(partial.validMask(1), 1u);
    // Nothing past the row is valid, and the valid-mask row mirrors
    // validMask(w) word for word.
    EXPECT_EQ(partial.validMask(partial.wordsPerQubit()), 0u);
    for (std::size_t w = 0; w < partial.wordsPerQubit(); ++w)
        EXPECT_EQ(partial.validMask()[w], partial.validMask(w));
    // Rows are back to back: row q + 1 starts right after row q's
    // data words.
    EXPECT_EQ(partial.row(1), partial.row(0) + partial.dataWords());
}

// --- Scalar vs ensemble vs reference interpreter ----------------------

/** Random basis-preserving Clifford+T circuit (diagonal + X family). */
Circuit
randomCliffordT(std::size_t n, std::size_t gates, Rng &rng)
{
    Circuit c;
    auto q = c.allocRegister(n, "q");
    for (std::size_t g = 0; g < gates; ++g) {
        auto pick = [&]() { return q[rng.below(n)]; };
        auto pickDistinct = [&](std::vector<Qubit> used) {
            Qubit x = pick();
            while (std::find(used.begin(), used.end(), x) != used.end())
                x = pick();
            return x;
        };
        switch (rng.below(12)) {
          case 0: c.x(pick()); break;
          case 1: c.z(pick()); break;
          case 2: c.s(pick()); break;
          case 3: c.t(pick()); break;
          case 4: c.tdg(pick()); break;
          case 5: {
            Qubit a = pick(), b = pickDistinct({a});
            c.cz(a, b);
            break;
          }
          case 6: {
            Qubit a = pick(), b = pickDistinct({a});
            c.cx(a, b);
            break;
          }
          case 7: {
            Qubit a = pick(), b = pickDistinct({a});
            c.cx0(a, b);
            break;
          }
          case 8: {
            Qubit a = pick(), b = pickDistinct({a});
            c.swap(a, b);
            break;
          }
          case 9: {
            Qubit a = pick(), b = pickDistinct({a});
            Qubit d = pickDistinct({a, b});
            c.cswap(a, b, d);
            break;
          }
          case 10: {
            Qubit a = pick(), b = pickDistinct({a});
            Qubit d = pickDistinct({a, b});
            c.mcx({a, b}, rng.below(4), d);
            break;
          }
          default: {
            Qubit a = pick(), b = pickDistinct({a});
            Qubit d = pickDistinct({a, b});
            c.ccx(a, b, d);
            break;
          }
        }
    }
    return c;
}

/**
 * Propagate @p inputs through @p errors three ways — reference
 * interpreter, scalar compiled stream, bit-sliced ensemble — and
 * require bit-identical bits and phases.
 */
void
expectEnginesAgree(const FeynmanExecutor &exec,
                   const std::vector<PathState> &inputs,
                   const ErrorRealization &errors)
{
    const std::size_t nq = exec.circuit().numQubits();
    const std::size_t np = inputs.size();

    FlatRealization flat;
    exec.flatten(errors, flat);

    PathEnsemble out(nq, np);
    for (std::size_t k = 0; k < np; ++k)
        out.scatterPath(k, inputs[k].bits, inputs[k].phase);
    exec.runSpanEnsemble(out, 0,
                         static_cast<std::uint32_t>(exec.stream().size()),
                         flat.events.data(), flat.events.size());

    BitVec gathered(nq);
    for (std::size_t k = 0; k < np; ++k) {
        PathState ref = exec.runNoisyReference(inputs[k], errors);
        PathState scalar = exec.runFlat(inputs[k], flat);
        EXPECT_EQ(scalar.bits, ref.bits);
        EXPECT_EQ(scalar.phase, ref.phase);

        out.gatherPath(k, gathered);
        EXPECT_EQ(gathered, ref.bits) << "path " << k;
        EXPECT_EQ(out.phase(k), ref.phase) << "path " << k;
    }
}

TEST(Ensemble, IdealEnsembleMatchesScalarIdeal)
{
    Rng rng(31459);
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = 4 + rng.below(6);
        Circuit c = randomCliffordT(n, 40, rng);
        FeynmanExecutor exec(c);
        const std::size_t np = 65; // tail word in play
        PathEnsemble in(n, np);
        std::vector<PathState> inputs;
        for (std::size_t k = 0; k < np; ++k) {
            PathState p(n);
            p.bits.deposit(0, n, rng.below(std::uint64_t(1) << n));
            in.scatterPath(k, p.bits);
            inputs.push_back(std::move(p));
        }
        PathEnsemble out = in;
        exec.runSpanEnsemble(
            out, 0, static_cast<std::uint32_t>(exec.stream().size()),
            nullptr, 0);
        BitVec gathered(n);
        for (std::size_t k = 0; k < np; ++k) {
            PathState scalar = exec.runIdeal(inputs[k]);
            out.gatherPath(k, gathered);
            EXPECT_EQ(gathered, scalar.bits);
            EXPECT_EQ(out.phase(k), scalar.phase);
        }
    }
}

TEST(Ensemble, MatchesScalarAndReferenceOnRandomCliffordT)
{
    Rng rng(987654);
    GateNoise noise(PauliRates::depolarizing(0.02)); // X, Y and Z
    for (int trial = 0; trial < 12; ++trial) {
        const std::size_t n = 4 + rng.below(8); // 4..11 qubits
        Circuit c = randomCliffordT(n, 50, rng);
        FeynmanExecutor exec(c);

        // More paths than one word so the tail logic is exercised.
        const std::size_t np = 66 + rng.below(10);
        std::vector<PathState> inputs;
        for (std::size_t k = 0; k < np; ++k) {
            PathState p(n);
            p.bits.deposit(0, n, rng.below(std::uint64_t(1) << n));
            inputs.push_back(std::move(p));
        }

        for (int shot = 0; shot < 4; ++shot) {
            ErrorRealization errors = noise.sample(exec, rng);
            expectEnginesAgree(exec, inputs, errors);
        }
    }
}

TEST(Ensemble, MatchesScalarAndReferenceOnAllArchitectures)
{
    Rng rng(5551212);
    struct Arch
    {
        const char *name;
        QueryCircuit qc;
        unsigned width;
    };
    Memory mem3 = Memory::random(3, rng);
    Memory mem4 = Memory::random(4, rng);
    std::vector<Arch> archs;
    archs.push_back({"virtual", VirtualQram(2, 1).build(mem3), 3});
    archs.push_back({"bucket-brigade",
                     BucketBrigadeQram(3).build(mem3), 3});
    archs.push_back({"fanout", FanoutQram(3).build(mem3), 3});
    archs.push_back({"sqc", SqcBucketBrigade(2, 1).build(mem3), 3});
    archs.push_back({"select-swap",
                     SelectSwapQram(2, 1).build(mem3), 3});
    archs.push_back({"compact", CompactQram(2, 2).build(mem4), 4});

    GateNoise noise(PauliRates::depolarizing(5e-3));
    for (const Arch &a : archs) {
        FeynmanExecutor exec(a.qc.circuit);
        std::vector<PathState> inputs;
        for (std::uint64_t addr = 0;
             addr < (std::uint64_t(1) << a.width); ++addr) {
            PathState p(a.qc.circuit.numQubits());
            for (unsigned b = 0; b < a.width; ++b)
                p.bits.set(a.qc.addressQubits[b], (addr >> b) & 1);
            inputs.push_back(std::move(p));
        }
        for (int shot = 0; shot < 6; ++shot) {
            ErrorRealization errors = noise.sample(exec, rng);
            SCOPED_TRACE(a.name);
            expectEnginesAgree(exec, inputs, errors);
        }
    }
}

// --- Estimator-level oracles ------------------------------------------

/**
 * Verbatim replica of the seed estimator (per-Gate interpreter,
 * per-shot visible map, exhaustive collision scan) — the historical-
 * semantics oracle for degenerate inputs.
 */
FidelityResult
seedEstimate(const Circuit &circuit, const std::vector<Qubit> &addr,
             Qubit bus, const AddressSuperposition &input,
             const NoiseModel &noise, std::size_t shots,
             std::uint64_t seed)
{
    FeynmanExecutor exec(circuit);
    std::vector<PathState> inputs, ideals;
    std::vector<std::uint64_t> idealVisible;
    auto visibleKey = [&](const BitVec &bits) {
        std::uint64_t key = 0;
        for (std::size_t b = 0; b < addr.size(); ++b)
            key |= std::uint64_t(bits.get(addr[b])) << b;
        key |= std::uint64_t(bits.get(bus)) << addr.size();
        return key;
    };
    for (std::size_t k = 0; k < input.size(); ++k) {
        PathState p(circuit.numQubits());
        for (std::size_t b = 0; b < addr.size(); ++b)
            p.bits.set(addr[b], (input.addresses[k] >> b) & 1);
        inputs.push_back(p);
        ideals.push_back(exec.runIdealReference(p));
        idealVisible.push_back(visibleKey(ideals.back().bits));
    }

    Rng rng(seed);
    double sumF = 0.0, sumF2 = 0.0, sumR = 0.0, sumR2 = 0.0;
    for (std::size_t s = 0; s < shots; ++s) {
        ErrorRealization errors = noise.sample(exec, rng);

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

        double f = std::norm(fullOverlap);
        double r = 0.0;
        for (const auto &[anc, g] : groups)
            r += std::norm(g.sum);
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

/**
 * Estimate under both replay engines, sequentially and on 2 threads
 * (counter streams), and with the seed replica; require bit-identity.
 */
void
expectEnginesAndSeedAgree(const Circuit &circuit,
                          const std::vector<Qubit> &addr, Qubit bus,
                          const AddressSuperposition &input,
                          const NoiseModel &noise, std::size_t shots,
                          std::uint64_t seed)
{
    FidelityEstimator est(circuit, addr, bus, input);
    FidelityResult ensemble = est.estimate(noise, shots, seed);
    FidelityResult ensemble2 = est.estimate(noise, shots, seed, 2);
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    FidelityResult scalar = est.estimate(noise, shots, seed);
    FidelityResult scalar2 = est.estimate(noise, shots, seed, 2);
    FidelityResult ref =
        seedEstimate(circuit, addr, bus, input, noise, shots, seed);

    EXPECT_EQ(ensemble.full, scalar.full);
    EXPECT_EQ(ensemble.reduced, scalar.reduced);
    EXPECT_EQ(ensemble.fullStderr, scalar.fullStderr);
    EXPECT_EQ(ensemble.reducedStderr, scalar.reducedStderr);
    EXPECT_EQ(ensemble.full, ref.full);
    EXPECT_EQ(ensemble.reduced, ref.reduced);
    EXPECT_EQ(ensemble.fullStderr, ref.fullStderr);
    EXPECT_EQ(ensemble.reducedStderr, ref.reducedStderr);
    EXPECT_EQ(ensemble2.full, scalar2.full);
    EXPECT_EQ(ensemble2.reduced, scalar2.reduced);
    EXPECT_EQ(ensemble2.fullStderr, scalar2.fullStderr);
    EXPECT_EQ(ensemble2.reducedStderr, scalar2.reducedStderr);
}

TEST(Fidelity, DuplicateVisibleKeySuperposition)
{
    // Repeated addresses give repeated ideal outputs, which disables
    // the O(1) collision lookup (dupVisibleKeys) and exercises the
    // historical exhaustive-scan semantics in both replay engines.
    Rng rng(1123);
    Memory mem = Memory::random(3, rng);
    QueryCircuit qc = VirtualQram(2, 1).build(mem);

    AddressSuperposition dup;
    dup.addresses = {5, 5, 2, 7, 2};
    const double a = 1.0 / std::sqrt(5.0);
    dup.amps.assign(5, {a, 0.0});

    GateNoise depol(PauliRates::depolarizing(4e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, dup, depol, 40, 91);

    QubitChannelNoise zchan(PauliRates::phaseFlip(2e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, dup, zchan, 40, 92);
}

TEST(Fidelity, RandomSuperpositionRoundTrip)
{
    // AddressSuperposition::random: complex amplitudes on every
    // address; full/reduced fidelity must agree bit for bit with the
    // reference interpreter under X/Y/Z noise through both engines.
    Rng rng(20260730);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    AddressSuperposition in = AddressSuperposition::random(4, rng);

    GateNoise depol(PauliRates::depolarizing(3e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, in, depol, 48, 1009);

    DeviceNoise dev(1e-4, 1e-3);
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, in, dev, 48, 1010);
}

TEST(Fidelity, ZOnlyShotsReduceManyAncillaGroupsInOrder)
{
    // Every bundled QRAM restores its ancillas, so its Z-only shots
    // reduce one group. Copying the two low address bits onto fresh
    // ancillas after the query leaves 4 groups of 4 paths: the Z
    // signs reach each group's sum, and the order the groups are
    // reduced in reaches the bytes. The seed oracle builds a fresh
    // map per shot; the flat Z-only table must reduce identically.
    Rng rng(20261018);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    for (std::size_t b = 0; b < 2; ++b)
        qc.circuit.cx(qc.addressQubits[b], qc.circuit.allocQubit());
    AddressSuperposition in = AddressSuperposition::random(4, rng);

    QubitChannelNoise zchan(PauliRates::phaseFlip(2e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, in, zchan, 64, 1021);
    GateNoise gateZ(PauliRates::phaseFlip(4e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit, in, gateZ, 64, 1022);
}

TEST(Fidelity, MultiWordBucketBrigadeUnderDepolarizing)
{
    // The accumulation at the benchmark's shape: 128 paths (two path
    // words), and a rate at which every path of a general shot
    // deviates, most deviating rows are partial and a shot's outputs
    // split into dozens of reduced-overlap groups, so group order
    // reaches the sums.
    Rng rng(7);
    Memory mem = Memory::random(7, rng);
    QueryCircuit qc = BucketBrigadeQram(7).build(mem);
    GateNoise depol(PauliRates::depolarizing(1e-3));
    expectEnginesAndSeedAgree(qc.circuit, qc.addressQubits,
                              qc.busQubit,
                              AddressSuperposition::uniform(7), depol,
                              16, 7);
}

TEST(Fidelity, ParallelEnsembleMatchesParallelScalar)
{
    // The threaded shot loop shares one counter stream per shot, so
    // the two replay engines must agree bit for bit there too.
    Rng rng(777);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = VirtualQram(3, 1).build(mem);
    AddressSuperposition in = AddressSuperposition::uniform(4);
    FidelityEstimator est(qc.circuit, qc.addressQubits, qc.busQubit,
                          in);
    GateNoise noise(PauliRates::depolarizing(2e-3));

    FidelityResult ensemble = est.estimate(noise, 64, 3141, 4);
    est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    FidelityResult scalar = est.estimate(noise, 64, 3141, 4);
    EXPECT_EQ(ensemble.full, scalar.full);
    EXPECT_EQ(ensemble.reduced, scalar.reduced);
}

} // namespace
} // namespace qramsim
