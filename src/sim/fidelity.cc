#include "sim/fidelity.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/stats.hh"
#include "common/threadpool.hh"

namespace qramsim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

AddressSuperposition
AddressSuperposition::uniform(unsigned addressWidth)
{
    AddressSuperposition s;
    const std::uint64_t n = std::uint64_t(1) << addressWidth;
    const double a = 1.0 / std::sqrt(static_cast<double>(n));
    s.addresses.reserve(n);
    s.amps.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        s.addresses.push_back(i);
        s.amps.emplace_back(a, 0.0);
    }
    return s;
}

AddressSuperposition
AddressSuperposition::single(std::uint64_t address, unsigned addressWidth)
{
    QRAMSIM_ASSERT(address < (std::uint64_t(1) << addressWidth),
                   "address out of range");
    AddressSuperposition s;
    s.addresses.push_back(address);
    s.amps.emplace_back(1.0, 0.0);
    return s;
}

AddressSuperposition
AddressSuperposition::random(unsigned addressWidth, Rng &rng)
{
    AddressSuperposition s;
    const std::uint64_t n = std::uint64_t(1) << addressWidth;
    double norm = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        double re = rng.uniform() - 0.5;
        double im = rng.uniform() - 0.5;
        s.addresses.push_back(i);
        s.amps.emplace_back(re, im);
        norm += re * re + im * im;
    }
    norm = std::sqrt(norm);
    for (auto &a : s.amps)
        a /= norm;
    return s;
}

/**
 * Per-shot overlap accumulator. The reduced-overlap group map is
 * created fresh per shot with the same initial capacity regardless of
 * entry point, so group iteration order — and hence floating-point
 * summation order — is reproducible.
 */
struct FidelityEstimator::ShotAccumulator
{
    struct Group
    {
        std::complex<double> sum{0.0, 0.0};
    };
    struct BitVecHash
    {
        std::size_t operator()(const BitVec &b) const { return b.hash(); }
    };

    std::complex<double> fullOverlap{0.0, 0.0};
    std::unordered_map<BitVec, Group, BitVecHash> groups;

    ShotAccumulator() { groups.reserve(8); }

    double full() const { return std::norm(fullOverlap); }

    double
    reduced() const
    {
        double red = 0.0;
        for (const auto &[anc, g] : groups)
            red += std::norm(g.sum);
        return red;
    }
};

FidelityEstimator::FidelityEstimator(
    const Circuit &circuit, const std::vector<Qubit> &addressQubits,
    Qubit busQubit, const AddressSuperposition &input_)
    : exec(circuit), addrQubits(addressQubits), bus(busQubit),
      input(input_)
{
    QRAMSIM_ASSERT(addrQubits.size() + 1 <= 64,
                   "visible register too wide to pack");

    // The working state of the construction pass is the bit-sliced
    // ensemble itself: address bits scattered column-wise, phases 1.
    PathEnsemble ens(circuit.numQubits(), input.size());
    for (std::size_t k = 0; k < input.size(); ++k)
        for (std::size_t b = 0; b < addrQubits.size(); ++b)
            if ((input.addresses[k] >> b) & 1)
                ens.set(addrQubits[b], k, true);

    // Checkpoint layout: snapshots every ckptStride ops, bounded both
    // in count and in memory so wide circuits with many paths stay
    // within a fixed budget. Checkpoint 0 is the input itself.
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::size_t words = (circuit.numQubits() + 63) / 64;
    const std::size_t stateBytes = words * 8 + sizeof(PathState);
    const std::size_t budget = std::size_t(64) << 20;
    std::size_t maxCkpts =
        budget / std::max<std::size_t>(1, input.size() * stateBytes);
    maxCkpts = std::clamp<std::size_t>(maxCkpts, 2, 257);
    ckptStride = static_cast<std::uint32_t>(numOps / maxCkpts + 1);
    const std::size_t numCkpts = numOps / ckptStride + 1;

    // Z-parity snapshot layout: one entry per flippable target of
    // every X/Swap op, in stream order per qubit.
    const CompiledStream &cs = exec.stream();
    const std::size_t nq = circuit.numQubits();
    pathWords = ens.wordsPerQubit();
    std::vector<std::uint32_t> opQ0(numOps, UINT32_MAX);
    std::vector<std::uint32_t> opQ1(numOps, UINT32_MAX);
    snapBegin.assign(nq + 1, 0);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        const auto op = static_cast<CompiledStream::Op>(cs.kind[i]);
        if (op != CompiledStream::Op::X &&
            op != CompiledStream::Op::Swap)
            continue;
        opQ0[i] = cs.word0[i] * 64 +
                  static_cast<std::uint32_t>(
                      __builtin_ctzll(cs.mask0[i]));
        ++snapBegin[opQ0[i] + 1];
        if (op == CompiledStream::Op::Swap) {
            opQ1[i] = cs.word1[i] * 64 +
                      static_cast<std::uint32_t>(
                          __builtin_ctzll(cs.mask1[i]));
            ++snapBegin[opQ1[i] + 1];
        }
    }
    for (std::size_t q = 0; q < nq; ++q)
        snapBegin[q + 1] += snapBegin[q];
    const std::size_t numEntries = snapBegin[nq];
    snapPos.resize(numEntries);
    snapBits.assign(numEntries * pathWords, 0);
    std::vector<std::uint32_t> cursor(snapBegin.begin(),
                                      snapBegin.end() - 1);
    std::vector<std::uint32_t> opEntry0(numOps, UINT32_MAX);
    std::vector<std::uint32_t> opEntry1(numOps, UINT32_MAX);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        if (opQ0[i] != UINT32_MAX) {
            opEntry0[i] = cursor[opQ0[i]]++;
            snapPos[opEntry0[i]] = i + 1;
        }
        if (opQ1[i] != UINT32_MAX) {
            opEntry1[i] = cursor[opQ1[i]]++;
            snapPos[opEntry1[i]] = i + 1;
        }
    }

    // One ensemble sweep builds every checkpoint, every snapshot row,
    // and the ideal outputs: checkpoints are whole-ensemble copies,
    // snapshots are row copies taken right after the toggling op.
    ckpts.reserve(numCkpts);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        if (i % ckptStride == 0)
            ckpts.push_back(ens);
        exec.runSpanEnsemble(ens, i, i + 1, nullptr, 0);
        if (opEntry0[i] != UINT32_MAX)
            std::copy(ens.row(opQ0[i]), ens.row(opQ0[i]) + pathWords,
                      snapBits.begin() +
                          std::size_t(opEntry0[i]) * pathWords);
        if (opEntry1[i] != UINT32_MAX)
            std::copy(ens.row(opQ1[i]), ens.row(opQ1[i]) + pathWords,
                      snapBits.begin() +
                          std::size_t(opEntry1[i]) * pathWords);
    }
    if (numOps % ckptStride == 0)
        ckpts.push_back(ens);
    idealEns = std::move(ens);

    // Gather the per-path ideal outputs (the accumulation code works
    // on scalar bit vectors and hash keys).
    ideals.reserve(input.size());
    for (std::size_t k = 0; k < input.size(); ++k) {
        PathState p(circuit.numQubits());
        idealEns.gatherPath(k, p.bits);
        p.phase = idealEns.phase(k);
        QRAMSIM_ASSERT(std::abs(p.phase.real() - 1.0) < 1e-12 &&
                       std::abs(p.phase.imag()) < 1e-12,
                       "ideal path acquired a phase; circuit contains "
                       "non-classical diagonal gates");
        ideals.push_back(std::move(p));
        if (!visIndex
                 .insert_or_assign(visibleKey(ideals.back().bits), k)
                 .second)
            dupVisibleKeys = true;
    }

    visMaskWords.assign(words, 0);
    for (Qubit q : addrQubits)
        visMaskWords[q >> 6] |= std::uint64_t(1) << (q & 63);
    visMaskWords[bus >> 6] |= std::uint64_t(1) << (bus & 63);

    idealAnc.reserve(input.size());
    idealVisOwner.reserve(input.size());
    for (std::size_t k = 0; k < input.size(); ++k) {
        idealAnc.push_back(ancillaPart(ideals[k].bits));
        idealVisOwner.push_back(
            visIndex.at(visibleKey(ideals[k].bits)));
    }

    // Cache the empty-realization shot: identical accumulation to a
    // real shot whose every path lands on its ideal output.
    ShotAccumulator acc;
    for (std::size_t k = 0; k < input.size(); ++k)
        accumulateIdealPath(acc, k, ideals[k].phase);
    emptyFull = acc.full();
    emptyReduced = acc.reduced();
}

std::uint64_t
FidelityEstimator::visibleKey(const BitVec &bits) const
{
    std::uint64_t key = 0;
    for (std::size_t b = 0; b < addrQubits.size(); ++b)
        key |= std::uint64_t(bits.get(addrQubits[b])) << b;
    key |= std::uint64_t(bits.get(bus)) << addrQubits.size();
    return key;
}

BitVec
FidelityEstimator::ancillaPart(const BitVec &bits) const
{
    BitVec a = bits;
    for (std::size_t w = 0; w < visMaskWords.size(); ++w)
        a.andWord(w, ~visMaskWords[w]);
    return a;
}

bool
FidelityEstimator::idealBus(std::size_t k) const
{
    return ideals.at(k).bits.get(bus);
}

void
FidelityEstimator::accumulatePath(ShotAccumulator &acc, std::size_t k,
                                  BitVec &outBits,
                                  std::complex<double> outPhase) const
{
    // A path that landed on its ideal output takes the precomputed
    // route (same arithmetic, same group key and owner — the map
    // population sequence is unchanged); a deviating path contributes
    // only if its visible key hits some ideal key.
    if (outBits == ideals[k].bits) {
        accumulateIdealPath(acc, k, outPhase);
        return;
    }
    const auto it = visIndex.find(visibleKey(outBits));
    if (it != visIndex.end())
        accumulateVisiblePath(acc, k, outBits, it->second, outPhase);
}

void
FidelityEstimator::accumulateVisiblePath(
    ShotAccumulator &acc, std::size_t k, BitVec &outBits,
    std::size_t owner, std::complex<double> outPhase) const
{
    // Full-state overlap: the noisy output contributes iff it lands
    // exactly on some OTHER path's ideal output (distinct addresses
    // give orthogonal ideal outputs, and the circuit is a
    // permutation).
    if (!dupVisibleKeys) {
        // Visible keys are unique, so the key owner is the only
        // candidate; one exact-bits check resolves the collision.
        if (ideals[owner].bits == outBits)
            acc.fullOverlap += std::conj(input.amps[owner]) *
                               input.amps[k] * outPhase;
    } else {
        // Degenerate input with repeated visible keys: fall back
        // to the exhaustive scan to keep historical semantics.
        for (std::size_t j = 0; j < input.size(); ++j) {
            if (ideals[j].bits == outBits) {
                acc.fullOverlap += std::conj(input.amps[j]) *
                                   input.amps[k] * outPhase;
                break;
            }
        }
    }

    // Reduced overlap: group by ancilla configuration; within a
    // group, the visible component projects onto psi_ideal. The
    // output becomes its own ancilla key (visible bits cleared in
    // place), and try_emplace hashes it once, inserting exactly the
    // keys (in exactly the order) operator[] would — the group
    // iteration, and thus summation, order is unchanged.
    std::uint64_t *ow = outBits.wordData();
    for (std::size_t w = 0; w < visMaskWords.size(); ++w)
        ow[w] &= ~visMaskWords[w];
    acc.groups.try_emplace(outBits).first->second.sum +=
        std::conj(input.amps[owner]) * input.amps[k] * outPhase;
}

void
FidelityEstimator::accumulateIdealPath(
    ShotAccumulator &acc, std::size_t k,
    std::complex<double> phase) const
{
    // accumulatePath specialized to outBits == ideals[k].bits with
    // every per-path invariant precomputed; bit-identical to the
    // general form for paths that land on their ideal output.
    acc.fullOverlap +=
        std::conj(input.amps[k]) * input.amps[k] * phase;
    acc.groups[idealAnc[k]].sum +=
        std::conj(input.amps[idealVisOwner[k]]) * input.amps[k] *
        phase;
}

// Z-only realization: no bit ever deviates from the ideal
// trajectory (Z errors do not flip, and no reversible gate maps a
// Z component onto an X component — see analysis/lightcone), so
// every event's sign is the precomputed ideal bit of its qubit at
// its position. XOR the per-event snapshot vectors into one
// parity-per-path accumulator (the Z-parity row-reduction kernel);
// no gate is replayed at all. This stays bit-identical even for
// circuits with diagonal phase ops: multiplying by -1 is exact and
// commutes exactly through complex products, so out.phase ==
// +-ideals[k].phase to the last ulp.
void
FidelityEstimator::shotZOnly(const FlatRealization &errors,
                             ShotWorkspace &ws, double &fullOut,
                             double &reducedOut) const
{
    const simd::RowKernels &K = simd::activeKernels();
    const FlatEvent *events = errors.events.data();
    const std::size_t numEvents = errors.events.size();

    ShotAccumulator acc;
    ws.parity.assign(pathWords, 0);
    for (std::size_t e = 0; e < numEvents; ++e) {
        const std::uint32_t q = events[e].qubit;
        const std::uint32_t *lo = snapPos.data() + snapBegin[q];
        const std::uint32_t *hi = snapPos.data() + snapBegin[q + 1];
        const std::uint32_t *it =
            std::upper_bound(lo, hi, events[e].pos);
        const std::uint64_t *vec =
            it == lo
                ? ckpts.front().row(q)
                : snapBits.data() +
                      std::size_t(it - snapPos.data() - 1) *
                          pathWords;
        K.xorRow(ws.parity.data(), vec, pathWords);
    }
    for (std::size_t k = 0; k < input.size(); ++k) {
        const bool neg = (ws.parity[k >> 6] >> (k & 63)) & 1;
        accumulateIdealPath(acc, k,
                            neg ? -ideals[k].phase : ideals[k].phase);
    }
    fullOut = acc.full();
    reducedOut = acc.reduced();
}

void
FidelityEstimator::accumulateShotRows(
    const std::uint64_t *rows, std::size_t stride,
    const std::complex<double> *phases, const std::uint64_t *dev,
    const std::vector<std::uint32_t> &devRows, AccumulateScratch &as,
    ShotAccumulator &acc) const
{
    const std::uint64_t *ideal = idealEns.rowData();

    // Visible keys by word transpose of the visible rows only
    // (address bits + bus; <= 64 rows), and only for words that hold
    // a deviating path — non-deviating paths never read a key.
    if (!devRows.empty()) {
        as.keys.assign(input.size(), 0);
        for (std::size_t w = 0; w < pathWords; ++w) {
            if (!dev[w])
                continue;
            const std::size_t base = w * 64;
            for (std::size_t b = 0; b < addrQubits.size(); ++b) {
                std::uint64_t m = rows[addrQubits[b] * stride + w];
                while (m) {
                    const std::size_t k = static_cast<std::size_t>(
                        __builtin_ctzll(m));
                    m &= m - 1;
                    as.keys[base + k] |= std::uint64_t(1) << b;
                }
            }
            std::uint64_t m = rows[std::size_t(bus) * stride + w];
            while (m) {
                const std::size_t k =
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                as.keys[base + k] |= std::uint64_t(1)
                                     << addrQubits.size();
            }
        }
    }

    // Split the deviating rows into uniform flips (every valid path
    // deviates — the typical shape of an X event's whole-row flip
    // before per-path routing divergence) and partial rows. Uniform
    // rows fold into ONE output-word mask applied to every path;
    // only the partial rows flip path by path.
    const std::size_t onw = visMaskWords.size();
    const std::size_t dw = idealEns.dataWords();
    as.uniformMask.assign(onw, 0);
    as.partialRows.clear();
    for (std::uint32_t q : devRows) {
        bool uniform = true;
        for (std::size_t w = 0; w < dw && uniform; ++w)
            uniform = (rows[q * stride + w] ^
                       ideal[q * pathWords + w]) ==
                      idealEns.validMask(w);
        if (uniform)
            as.uniformMask[q >> 6] ^= std::uint64_t(1) << (q & 63);
        else
            as.partialRows.push_back(q);
    }

    // A deviating path contributes nothing unless its visible key
    // hits some ideal key, so pick the hits first, in path order,
    // walking the set bits of the deviation mask. Only hits
    // materialize an output: their ideal words XOR the uniform mask.
    as.hitMask.assign(pathWords, 0);
    as.hits.clear();
    for (std::size_t w = 0; w < pathWords; ++w) {
        for (std::uint64_t m = dev[w]; m; m &= m - 1) {
            const unsigned b = static_cast<unsigned>(__builtin_ctzll(m));
            const auto it = visIndex.find(as.keys[w * 64 + b]);
            if (it == visIndex.end())
                continue;
            as.hitMask[w] |= std::uint64_t(1) << b;
            as.hits.push_back({w * 64 + b, it->second});
        }
    }
    if (as.outs.size() < as.hits.size())
        as.outs.resize(as.hits.size(),
                       BitVec(exec.circuit().numQubits()));
    if (as.outOf.size() < input.size())
        as.outOf.resize(input.size());
    const std::uint64_t *um = as.uniformMask.data();
    for (std::size_t h = 0; h < as.hits.size(); ++h) {
        const std::uint64_t *iw = ideals[as.hits[h].path].bits.wordData();
        std::uint64_t *ow = as.outs[h].wordData();
        for (std::size_t w = 0; w < onw; ++w)
            ow[w] = iw[w] ^ um[w];
        as.outOf[as.hits[h].path] = ow;
    }

    // Partial rows, row by row: XOR the row's bit into the outputs of
    // exactly its deviating hit paths — the set bits of (noisy ^
    // ideal) & hitMask — so the work is one step per deviating
    // (row, hit path) bit, not per row per hit path.
    for (std::uint32_t q : as.partialRows) {
        const std::uint64_t *nr = rows + q * stride;
        const std::uint64_t *ir = ideal + q * pathWords;
        const std::size_t qw = q >> 6;
        const std::uint64_t qb = std::uint64_t(1) << (q & 63);
        for (std::size_t w = 0; w < pathWords; ++w)
            for (std::uint64_t m = (nr[w] ^ ir[w]) & as.hitMask[w]; m;
                 m &= m - 1)
                as.outOf[w * 64 + static_cast<std::size_t>(
                                      __builtin_ctzll(m))][qw] ^= qb;
    }

    // Accumulate in path order (same arithmetic, same order as the
    // scalar engine): non-deviating paths from precomputed ideal
    // lookups, hits from their outputs. A set deviation bit proves
    // a hit's output differs from its ideal, so the self-overlap
    // compare of the general form is skipped.
    std::size_t h = 0;
    for (std::size_t k = 0; k < input.size(); ++k) {
        if (!((dev[k >> 6] >> (k & 63)) & 1))
            accumulateIdealPath(acc, k, phases[k]);
        else if (h < as.hits.size() && as.hits[h].path == k) {
            accumulateVisiblePath(acc, k, as.outs[h], as.hits[h].owner,
                                  phases[k]);
            ++h;
        }
    }
}

void
FidelityEstimator::shotScalar(const FlatRealization &errors,
                              ShotWorkspace &ws, double &fullOut,
                              double &reducedOut) const
{
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const FlatEvent *events = errors.events.data();
    const std::size_t numEvents = errors.events.size();

    // Replay from the checkpoint preceding the first event to the end
    // of the stream: the pre-ensemble replay loop, fed from the
    // materialized per-path checkpoint copies.
    const std::uint32_t lastCkpt =
        static_cast<std::uint32_t>(ckpts.size() - 1);
    const std::uint32_t ckpt =
        std::min(events[0].pos / ckptStride, lastCkpt);
    const std::uint32_t from = ckpt * ckptStride;

    ShotAccumulator acc;
    for (std::size_t k = 0; k < input.size(); ++k) {
        ws.path = scalarCkpts[ckpt][k];
        exec.runSpan(ws.path, from, numOps, events, numEvents);
        accumulatePath(acc, k, ws.path.bits, ws.path.phase);
    }
    fullOut = acc.full();
    reducedOut = acc.reduced();
}

void
FidelityEstimator::evalGeneralBatch(
    const FlatRealization *reals, const std::size_t *rows,
    std::size_t qn, EvalScratch &scratch, double *fs, double *rs) const
{
    Clock::time_point tp = Clock::now();
    auto stage = [&](double StageTimes::*slot) {
        const Clock::time_point now = Clock::now();
        scratch.times.*slot +=
            std::chrono::duration<double>(now - tp).count();
        tp = now;
    };
    ++scratch.times.batches;

    std::vector<ShotWorkspace> &wss = scratch.wss;
    if (wss.size() < qn)
        wss.resize(qn);
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::uint32_t lastCkpt =
        static_cast<std::uint32_t>(ckpts.size() - 1);

    // Op-major block replay: gather the queued shots' checkpoint rows
    // into the fused arena qubit-major (contiguous writes per block
    // row), run one transposed pass, then accumulate straight off the
    // block rows — deviation masks for all shots of a qubit in one
    // diffOrBlock sweep against the shared ideal row.
    EnsembleBlock &blk = scratch.block;
    const std::size_t nq = exec.circuit().numQubits();
    blk.reshape(nq, input.size(), qn);
    const std::size_t pw = blk.wordsPerQubit();
    if (scratch.bshots.size() < qn)
        scratch.bshots.resize(qn);
    FeynmanExecutor::BlockReplayShot *bshots = scratch.bshots.data();
    for (std::size_t b = 0; b < qn; ++b) {
        const FlatRealization &r = reals[rows[b]];
        const std::uint32_t ckpt =
            std::min(r.events[0].pos / ckptStride, lastCkpt);
        bshots[b] = {r.events.data(), r.events.size(),
                     ckpt * ckptStride, 0};
    }
    for (std::size_t q = 0; q < nq; ++q) {
        std::uint64_t *dst = blk.blockRow(q);
        for (std::size_t b = 0; b < qn; ++b, dst += pw) {
            const std::uint32_t ckpt = bshots[b].from / ckptStride;
            const std::uint64_t *src = ckpts[ckpt].row(q);
            std::copy(src, src + pw, dst);
        }
    }
    for (std::size_t b = 0; b < qn; ++b) {
        const std::uint32_t ckpt = bshots[b].from / ckptStride;
        const std::complex<double> *src = ckpts[ckpt].phaseData();
        std::copy(src, src + input.size(), blk.phaseSlice(b));
    }
    stage(&StageTimes::gather);

    exec.runSpanEnsembleBlock(blk, bshots, numOps);
    stage(&StageTimes::replay);

    const simd::RowKernels &K = simd::activeKernels();
    scratch.devBlock.assign(qn * pw, 0);
    scratch.anyDev.resize(qn);
    for (std::size_t b = 0; b < qn; ++b)
        wss[b].devRows.clear();
    for (std::size_t q = 0; q < nq; ++q) {
        K.diffOrBlock(scratch.devBlock.data(), blk.blockRow(q),
                      idealEns.row(q), pw, qn, scratch.anyDev.data());
        for (std::size_t b = 0; b < qn; ++b)
            if (scratch.anyDev[b])
                wss[b].devRows.push_back(
                    static_cast<std::uint32_t>(q));
    }
    for (std::size_t b = 0; b < qn; ++b) {
        ShotAccumulator acc;
        accumulateShotRows(blk.rowData() + b * pw, blk.rowWords(),
                           blk.phaseSlice(b),
                           scratch.devBlock.data() + b * pw,
                           wss[b].devRows, scratch.accum, acc);
        fs[rows[b]] = acc.full();
        rs[rows[b]] = acc.reduced();
    }
    stage(&StageTimes::accumulate);
}

void
FidelityEstimator::evalShots(const FlatRealization *reals,
                             std::size_t n, EvalScratch &scratch,
                             double *fs, double *rs) const
{
    std::vector<ShotWorkspace> &wss = scratch.wss;
    if (wss.size() < replayBatchN)
        wss.resize(replayBatchN);
    if (scratch.queue.size() < replayBatchN)
        scratch.queue.resize(replayBatchN);

    // General realizations queue up and replay replayBatchN at a time
    // through one op-major pass over the fused block arena; empty /
    // Z-only / scalar-oracle realizations resolve immediately.
    // Results land at their own indices, so the caller's reduction
    // order is untouched.
    std::size_t *queue = scratch.queue.data();
    std::size_t qn = 0;

    auto flush = [&]() {
        if (qn == 0)
            return;
        evalGeneralBatch(reals, queue, qn, scratch, fs, rs);
        qn = 0;
    };

    for (std::size_t j = 0; j < n; ++j) {
        const FlatRealization &r = reals[j];
        if (r.empty()) {
            fs[j] = emptyFull;
            rs[j] = emptyReduced;
        } else if (r.zOnly) {
            shotZOnly(r, wss[0], fs[j], rs[j]);
        } else if (replay == ReplayEngine::Scalar) {
            shotScalar(r, wss[0], fs[j], rs[j]);
        } else {
            queue[qn++] = j;
            if (qn == replayBatchN)
                flush();
        }
    }
    flush();
}

void
FidelityEstimator::setReplayEngine(ReplayEngine engine)
{
    if (engine != ReplayEngine::Scalar) {
        // Release the scalar oracle's duplicate of the checkpoint
        // data; it is re-materialized on the next switch to Scalar.
        scalarCkpts.clear();
        scalarCkpts.shrink_to_fit();
    }
    if (engine == ReplayEngine::Scalar && scalarCkpts.empty()) {
        // Materialize per-path checkpoint copies so the scalar oracle
        // replays exactly like the pre-ensemble estimator (checkpoint
        // copy + scalar sweep, no per-shot transpose).
        scalarCkpts.resize(ckpts.size());
        const std::size_t nq = exec.circuit().numQubits();
        for (std::size_t c = 0; c < ckpts.size(); ++c) {
            scalarCkpts[c].reserve(input.size());
            for (std::size_t k = 0; k < input.size(); ++k) {
                PathState p(nq);
                ckpts[c].gatherPath(k, p.bits);
                p.phase = ckpts[c].phase(k);
                scalarCkpts[c].push_back(std::move(p));
            }
        }
    }
    replay = engine;
}

void
FidelityEstimator::shotFidelity(const FlatRealization &errors,
                                double &fullOut,
                                double &reducedOut) const
{
    EvalScratch scratch;
    evalShots(&errors, 1, scratch, &fullOut, &reducedOut);
}

void
FidelityEstimator::shotFidelity(const ErrorRealization &errors,
                                double &fullOut,
                                double &reducedOut) const
{
    FlatRealization flat;
    exec.flatten(errors, flat);
    shotFidelity(flat, fullOut, reducedOut);
}

std::size_t
FidelityEstimator::setReplayBatch(std::size_t n)
{
    replayBatchN = std::clamp<std::size_t>(n, 1, kShotChunk);
    return replayBatchN;
}

// Out of line so the unique_ptr<ThreadPool> member destroys where
// ThreadPool is complete.
FidelityEstimator::~FidelityEstimator() = default;

PipelineStats
FidelityEstimator::lastPipelineStats() const
{
    std::lock_guard<std::mutex> lock(poolMu);
    return pstats;
}

ThreadPool &
FidelityEstimator::poolFor(const ShardSpec &spec,
                           unsigned threads) const
{
    if (spec.pool)
        return *spec.pool;
    std::lock_guard<std::mutex> lock(poolMu);
    if (!ownPool || ownPool->size() < threads)
        ownPool = std::make_unique<ThreadPool>(
            std::max(threads, ownPool ? ownPool->size() : 0u));
    return *ownPool;
}

PartialEstimate
FidelityEstimator::runShard(const NoiseModel &noise,
                            const ShardSpec &spec) const
{
    const Clock::time_point t0 = Clock::now();
    PartialEstimate part = runShardImpl(noise, spec, /*keepRows=*/true);
    part.computeSeconds = secondsSince(t0);
    return part;
}

/**
 * The adaptive estimator core. One pass over the spec's raw-draw
 * range in policy.batch-sized batches:
 *
 *   classify  draw d's realization(s) come from CounterRng(seed, d)
 *             — the same partition-invariant streams as a Counter
 *             replay shard, with sweep points sharing one draw's
 *             uniforms (common random numbers). Empty realizations
 *             are resolved analytically (their class probability and
 *             exact fidelity travel with the partial) and NEVER cost
 *             an evaluation.
 *   keep      a deterministic per-batch rule: with stopping disabled
 *             every non-empty draw is kept (keep decisions then
 *             depend only on the draw's class — the partition-
 *             invariant mode shard merges rely on); with a CI target,
 *             warm-up keeps everything until a stratum has kWarmup
 *             shots, after which batches are rationed Neyman-style —
 *             stratum s of point j gets a share proportional to
 *             p_s * sigma_s, floored at kMinKeep so no live stratum
 *             starves.
 *   evaluate  kept realizations run through the same evalShots core
 *             as replay mode, chunked across the worker pool when the
 *             spec is threaded; rows are accumulated in draw order
 *             after the chunks drain, so results are thread-count
 *             independent.
 *   stop      at each batch boundary (only there — a stop signal
 *             drains the batch's in-flight chunks first) a point
 *             whose CI half-width z * sqrt(sum_s p_s^2 se_s^2)
 *             reaches the target stops keeping and evaluating; the
 *             remaining budget flows to the live points (pooled
 *             rollover). The run ends when every point converged,
 *             the draw range is exhausted, or the pooled kept-shot
 *             budget (maxShots * numPoints) is spent.
 */
PartialEstimate
FidelityEstimator::runShardAdaptive(const NoiseModel &noise,
                                    const ShardSpec &spec) const
{
    QRAMSIM_ASSERT(spec.shotBegin <= spec.shotEnd &&
                   spec.shotEnd <= spec.totalShots,
                   "malformed shard shot range");
    QRAMSIM_ASSERT(spec.stream == ShotStream::Counter,
                   "adaptive estimation requires the counter stream "
                   "(keep decisions must not disturb a shared "
                   "Mersenne draw sequence)");
    const std::size_t npts =
        spec.factors.empty() ? 1 : spec.factors.size();
    if (spec.factors.empty())
        noise.prepare(exec);
    else
        noise.prepareSweep(exec, spec.factors.data(), npts);

    static const double kUnitFactor = 1.0;
    const double *facs =
        spec.factors.empty() ? &kUnitFactor : spec.factors.data();
    std::vector<double> pE(npts), pZ(npts), pG(npts);
    QRAMSIM_ASSERT(noise.classProbabilities(exec, facs, npts,
                                            pE.data(), pZ.data()),
                   "noise model '", noise.name(),
                   "' has no closed-form class probabilities "
                   "(required by EstimateMode::Adaptive)");
    for (std::size_t j = 0; j < npts; ++j)
        pG[j] = std::max(0.0, 1.0 - pE[j] - pZ[j]);

    PartialEstimate part;
    part.shotBegin = spec.shotBegin;
    part.shotEnd = spec.shotEnd;
    part.totalShots = spec.totalShots;
    part.seed = spec.seed;
    part.stream = spec.stream;
    part.factors = spec.factors;
    part.numPoints = npts;
    part.adaptive = true;
    part.probEmpty = pE;
    part.probZOnly = pZ;
    part.emptyFullShot = emptyFull;
    part.emptyReducedShot = emptyReduced;

    const AdaptivePolicy &pol = spec.policy;
    const bool stopping = pol.targetHalfWidth > 0.0;
    const double target = pol.targetHalfWidth;
    const double zq = stats::normalZ(pol.confidence);
    const std::size_t batchN = std::max<std::size_t>(1, pol.batch);
    const unsigned threads = spec.resolvedThreads();
    const Clock::time_point wallBegin = Clock::now();

    constexpr std::size_t kWarmup = 32;
    constexpr std::size_t kMinKeep = 8;
    constexpr std::size_t kAll =
        std::numeric_limits<std::size_t>::max();

    // Per-point per-stratum running sums of the full fidelity (the
    // stopping rule and the Neyman weights watch the headline
    // metric; finalize() recomputes both metrics from the rows).
    struct Strat
    {
        std::size_t n = 0;
        double sF = 0.0, sF2 = 0.0;
    };
    std::vector<Strat> zs(npts), gs(npts);
    std::vector<char> converged(npts, 0);
    std::size_t liveCount = npts;
    for (std::size_t j = 0; j < npts; ++j) {
        if (pZ[j] + pG[j] <= 0.0) {
            // Every draw is empty at this point: the analytic term IS
            // the answer, with zero variance and zero shots.
            converged[j] = 1;
            --liveCount;
        }
    }
    const std::size_t keptCap = stopping ? pol.maxShots * npts : kAll;
    std::size_t keptTotal = 0;

    std::vector<FlatRealization> reals(npts);
    std::vector<FlatRealization> keptReals;
    struct Meta
    {
        std::size_t draw, point;
        std::uint8_t stratum;
    };
    std::vector<Meta> keptMeta;
    std::vector<double> fvals, rvals;
    std::vector<EvalScratch> scratches(std::max(1u, threads));
    std::vector<std::size_t> quotaZ(npts), quotaG(npts);
    std::vector<std::size_t> usedZ(npts), usedG(npts);

    std::size_t draw = spec.shotBegin;
    while (draw < spec.shotEnd && liveCount > 0 &&
           keptTotal < keptCap) {
        const std::size_t batchEnd =
            std::min(spec.shotEnd, draw + batchN);

        for (std::size_t j = 0; j < npts; ++j) {
            if (converged[j]) {
                quotaZ[j] = quotaG[j] = 0;
                continue;
            }
            if (!stopping) {
                quotaZ[j] = quotaG[j] = kAll;
                continue;
            }
            const bool zLive = pZ[j] > 0.0;
            const bool gLive = pG[j] > 0.0;
            if ((zLive && zs[j].n < kWarmup) ||
                (gLive && gs[j].n < kWarmup)) {
                quotaZ[j] = quotaG[j] = kAll;
                continue;
            }
            const double sigZ =
                zLive ? std::sqrt(stats::varianceFromSums(
                            zs[j].sF, zs[j].sF2, zs[j].n))
                      : 0.0;
            const double sigG =
                gLive ? std::sqrt(stats::varianceFromSums(
                            gs[j].sF, gs[j].sF2, gs[j].n))
                      : 0.0;
            const double wZ = pZ[j] * sigZ;
            const double wG = pG[j] * sigG;
            const double wSum = wZ + wG;
            const double total =
                static_cast<double>(zs[j].n + gs[j].n) +
                static_cast<double>(batchEnd - draw) *
                    (pZ[j] + pG[j]);
            auto quota = [&](bool live, double w,
                             std::size_t have) -> std::size_t {
                if (!live)
                    return 0;
                if (wSum <= 0.0)
                    return kMinKeep;
                const double want = std::ceil(
                    total * (w / wSum) - static_cast<double>(have));
                return want <= static_cast<double>(kMinKeep)
                           ? kMinKeep
                           : static_cast<std::size_t>(want);
            };
            quotaZ[j] = quota(zLive, wZ, zs[j].n);
            quotaG[j] = quota(gLive, wG, gs[j].n);
        }
        std::fill(usedZ.begin(), usedZ.end(), 0);
        std::fill(usedG.begin(), usedG.end(), 0);

        // Sample and keep, first-come in draw order (deterministic).
        keptReals.clear();
        keptMeta.clear();
        for (; draw < batchEnd; ++draw) {
            CounterRng rng(spec.seed, draw);
            if (spec.factors.empty()) {
                noise.sampleFlat(exec, rng, reals[0]);
            } else {
                const bool ok = noise.sampleFlatSweep(
                    exec, rng, spec.factors.data(), npts,
                    reals.data());
                QRAMSIM_ASSERT(ok, "noise model '", noise.name(),
                               "' has no sweep sampler");
            }
            for (std::size_t j = 0; j < npts; ++j) {
                if (converged[j])
                    continue;
                FlatRealization &r = reals[j];
                if (r.empty())
                    continue; // folded in analytically
                const std::uint8_t stratum = r.zOnly ? 0 : 1;
                std::size_t &used =
                    stratum == 0 ? usedZ[j] : usedG[j];
                if (used >= (stratum == 0 ? quotaZ[j] : quotaG[j]))
                    continue;
                ++used;
                keptMeta.push_back({draw, j, stratum});
                keptReals.push_back(std::move(r));
            }
        }

        const std::size_t kn = keptReals.size();
        fvals.assign(kn, 0.0);
        rvals.assign(kn, 0.0);
        if (kn > 0) {
            if (threads <= 1 || kn == 1) {
                evalShots(keptReals.data(), kn, scratches[0],
                          fvals.data(), rvals.data());
            } else {
                // Contiguous chunks at disjoint result indices; the
                // stopping decision below runs only after wait(), so
                // a stop drains the batch's in-flight chunks.
                TaskGroup group(poolFor(spec, threads));
                const std::size_t chunk =
                    (kn + threads - 1) / threads;
                for (unsigned t = 0; t < threads; ++t) {
                    const std::size_t b0 = std::size_t(t) * chunk;
                    const std::size_t b1 = std::min(kn, b0 + chunk);
                    if (b0 >= b1)
                        break;
                    EvalScratch &scr = scratches[t];
                    group.run([this, &keptReals, &scr, &fvals,
                               &rvals, b0, b1] {
                        evalShots(keptReals.data() + b0, b1 - b0,
                                  scr, fvals.data() + b0,
                                  rvals.data() + b0);
                    });
                }
                group.wait();
            }
        }

        // Accumulate rows in draw order — thread-count independent.
        for (std::size_t i = 0; i < kn; ++i) {
            const Meta &m = keptMeta[i];
            part.rowDraw.push_back(static_cast<double>(m.draw));
            part.rowPoint.push_back(static_cast<double>(m.point));
            part.rowStratum.push_back(
                static_cast<double>(m.stratum));
            part.full.push_back(fvals[i]);
            part.reduced.push_back(rvals[i]);
            Strat &st = m.stratum == 0 ? zs[m.point] : gs[m.point];
            st.n += 1;
            st.sF += fvals[i];
            st.sF2 += fvals[i] * fvals[i];
        }
        keptTotal += kn;

        if (!stopping)
            continue;
        for (std::size_t j = 0; j < npts; ++j) {
            if (converged[j])
                continue;
            const std::size_t nZ = zs[j].n, nG = gs[j].n;
            if (nZ + nG < pol.minShots)
                continue;
            // A stratum with non-negligible weight needs >= 2 shots
            // before its stderr is meaningful; below that weight the
            // worst-case unsampled bias is already a fraction of the
            // target.
            const double negligible = 0.25 * target;
            if (pZ[j] > negligible && nZ < 2)
                continue;
            if (pG[j] > negligible && nG < 2)
                continue;
            const double seZ =
                stats::stderrFromSums(zs[j].sF, zs[j].sF2, nZ);
            const double seG =
                stats::stderrFromSums(gs[j].sF, gs[j].sF2, nG);
            const double se =
                std::sqrt(pZ[j] * pZ[j] * seZ * seZ +
                          pG[j] * pG[j] * seG * seG);
            if (zq * se <= target) {
                converged[j] = 1;
                --liveCount;
            }
        }
    }
    part.drawsUsed = draw - spec.shotBegin;
    part.recomputeSums();

    {
        PipelineStats st;
        st.threads = threads;
        st.wallSec = secondsSince(wallBegin);
        std::lock_guard<std::mutex> lock(poolMu);
        pstats = st;
    }
    return part;
}

PartialEstimate
FidelityEstimator::runShardImpl(const NoiseModel &noise,
                                const ShardSpec &spec,
                                bool keepRows) const
{
    if (spec.mode == EstimateMode::Adaptive)
        return runShardAdaptive(noise, spec);
    QRAMSIM_ASSERT(spec.shotBegin <= spec.shotEnd &&
                   spec.shotEnd <= spec.totalShots,
                   "malformed shard shot range");
    const std::size_t npts =
        spec.factors.empty() ? 1 : spec.factors.size();
    if (spec.factors.empty())
        noise.prepare(exec);
    else
        noise.prepareSweep(exec, spec.factors.data(), npts);

    PartialEstimate part;
    part.shotBegin = spec.shotBegin;
    part.shotEnd = spec.shotEnd;
    part.totalShots = spec.totalShots;
    part.seed = spec.seed;
    part.stream = spec.stream;
    part.factors = spec.factors;
    part.numPoints = npts;
    const std::size_t n = spec.shots();

    const unsigned threads = spec.resolvedThreads();
    const Clock::time_point wallBegin = Clock::now();

    // Summary-only mode (estimate()/estimateSweep() single-threaded):
    // values are reduced chunk by chunk in shot order — identical
    // arithmetic — without materializing O(shots) rows. The threaded
    // mode always keeps rows; it needs them for the deterministic
    // shot-order reduction anyway.
    const bool summaryOnly = !keepRows && threads <= 1;
    if (!summaryOnly) {
        part.full.assign(n * npts, 0.0);
        part.reduced.assign(n * npts, 0.0);
    }
    std::vector<double> aF(npts, 0.0), aF2(npts, 0.0),
        aR(npts, 0.0), aR2(npts, 0.0);

    // Rows are indexed by GLOBAL shot: the value of (shot s, point j)
    // lives at [(s - shotBegin)*npts + j]. All loops below run over
    // global shot indices so per-shot draws are partition-invariant.
    auto rowsAt = [&](std::size_t globalShot) {
        return (globalShot - spec.shotBegin) * npts;
    };

    // The per-chunk evaluation bodies (plain estimate vs sweep),
    // shared by every stream/thread dispatch below. Each evaluates
    // global shots [begin, end) using makeRng(s) for shot s's draws
    // and leaves its stage times in `times`.
    auto plainRange = [&](auto makeRng, std::size_t begin,
                          std::size_t end, StageTimes &times) {
        std::vector<FlatRealization> reals(std::min<std::size_t>(
            std::max<std::size_t>(1, end - begin), kShotChunk));
        EvalScratch scratch;
        std::vector<double> fbuf, rbuf;
        if (summaryOnly) {
            fbuf.resize(reals.size());
            rbuf.resize(reals.size());
        }
        for (std::size_t base = begin; base < end;
             base += kShotChunk) {
            const std::size_t nThis = std::min(kShotChunk, end - base);
            const Clock::time_point ts = Clock::now();
            for (std::size_t j = 0; j < nThis; ++j) {
                auto &&rng = makeRng(base + j);
                noise.sampleFlat(exec, rng, reals[j]);
            }
            scratch.times.sample += secondsSince(ts);
            double *fs = summaryOnly ? fbuf.data()
                                     : part.full.data() + rowsAt(base);
            double *rs = summaryOnly
                             ? rbuf.data()
                             : part.reduced.data() + rowsAt(base);
            evalShots(reals.data(), nThis, scratch, fs, rs);
            if (summaryOnly) {
                for (std::size_t j = 0; j < nThis; ++j) {
                    aF[0] += fs[j];
                    aF2[0] += fs[j] * fs[j];
                    aR[0] += rs[j];
                    aR2[0] += rs[j] * rs[j];
                }
            }
        }
        times = scratch.times;
    };
    auto sweepRange = [&](auto makeRng, std::size_t begin,
                          std::size_t end, StageTimes &times) {
        std::vector<FlatRealization> reals(npts);
        EvalScratch scratch;
        std::vector<double> fbuf, rbuf;
        if (summaryOnly) {
            fbuf.resize(npts);
            rbuf.resize(npts);
        }
        for (std::size_t s = begin; s < end; ++s) {
            const Clock::time_point ts = Clock::now();
            auto &&rng = makeRng(s);
            const bool ok = noise.sampleFlatSweep(
                exec, rng, spec.factors.data(), npts, reals.data());
            QRAMSIM_ASSERT(ok, "noise model '", noise.name(),
                           "' has no sweep sampler");
            scratch.times.sample += secondsSince(ts);
            // One shot's sweep points replay as one ensemble batch.
            double *fs = summaryOnly ? fbuf.data()
                                     : part.full.data() + rowsAt(s);
            double *rs = summaryOnly ? rbuf.data()
                                     : part.reduced.data() + rowsAt(s);
            evalShots(reals.data(), npts, scratch, fs, rs);
            if (summaryOnly) {
                for (std::size_t j = 0; j < npts; ++j) {
                    aF[j] += fs[j];
                    aF2[j] += fs[j] * fs[j];
                    aR[j] += rs[j];
                    aR2[j] += rs[j] * rs[j];
                }
            }
        }
        times = scratch.times;
    };

    // Stream / thread dispatch, shared by both bodies: one StageTimes
    // slot per task, summed once every task has finished.
    std::vector<StageTimes> taskTimes(std::max(1u, threads));
    auto dispatch = [&](auto &&range) {
        if (spec.stream == ShotStream::Sequential) {
            // The sequential stream draws shots [0, shotEnd) in order
            // from one Rng(seed); a shard not starting at 0
            // fast-forwards by sampling-and-discarding the earlier
            // shots. Exact — every sampler consumes a fixed number of
            // uniforms per shot, and sampleFlat consumes the
            // identical draw sequence as sampleFlatSweep, so it
            // serves as the cheaper skipper for sweep shards too.
            Rng rng(spec.seed);
            FlatRealization skip;
            for (std::size_t s = 0; s < spec.shotBegin; ++s)
                noise.sampleFlat(exec, rng, skip);
            range([&](std::size_t) -> Rng & { return rng; },
                  spec.shotBegin, spec.shotEnd, taskTimes[0]);
        } else if (threads <= 1) {
            range([&](std::size_t s) {
                      return CounterRng(spec.seed, s);
                  },
                  spec.shotBegin, spec.shotEnd, taskTimes[0]);
        } else {
            // In-process shards: each pool task evaluates a
            // contiguous sub-range through the same counter streams.
            // The persistent pool replaces the former per-call
            // std::thread spawn/join, and TaskGroup::wait propagates
            // the first worker exception instead of terminating.
            TaskGroup group(poolFor(spec, threads));
            const std::size_t chunk = (n + threads - 1) / threads;
            for (unsigned t = 0; t < threads; ++t) {
                const std::size_t begin =
                    spec.shotBegin + std::size_t(t) * chunk;
                const std::size_t end =
                    std::min(begin + chunk, spec.shotEnd);
                if (begin >= end)
                    break;
                StageTimes &slot = taskTimes[t];
                group.run([&range, &spec, &slot, begin, end] {
                    range([&spec](std::size_t s) {
                              return CounterRng(spec.seed, s);
                          },
                          begin, end, slot);
                });
            }
            group.wait();
        }
    };
    if (spec.factors.empty())
        dispatch(plainRange);
    else
        dispatch(sweepRange);

    {
        PipelineStats st;
        st.threads = threads;
        st.wallSec = secondsSince(wallBegin);
        for (const StageTimes &t : taskTimes) {
            st.sampleSec += t.sample;
            st.gatherSec += t.gather;
            st.replaySec += t.replay;
            st.accumulateSec += t.accumulate;
            st.batches += t.batches;
        }
        std::lock_guard<std::mutex> lock(poolMu);
        pstats = st;
    }

    if (summaryOnly) {
        part.sumF = std::move(aF);
        part.sumF2 = std::move(aF2);
        part.sumR = std::move(aR);
        part.sumR2 = std::move(aR2);
    } else {
        part.recomputeSums();
    }
    return part;
}

FidelityResult
FidelityEstimator::estimate(const NoiseModel &noise, std::size_t shots,
                            std::uint64_t seed, unsigned threads) const
{
    threads = resolveThreads(threads);

    // One full-range shard through the sharding layer. The sequential
    // mode keeps the one-Rng(seed) stream (bit-identical to the seed
    // estimator); the threaded mode is the counter-stream shard split
    // across in-process workers, with per-shot rows reduced in shot
    // order — both exactly as before the sharding refactor.
    ShardSpec spec;
    spec.shotEnd = spec.totalShots = shots;
    spec.seed = seed;
    spec.threads = threads;
    spec.stream = (threads <= 1 || shots <= 1)
                      ? ShotStream::Sequential
                      : ShotStream::Counter;
    if (estMode == EstimateMode::Adaptive) {
        // Adaptive runs treat `shots` as the raw-draw budget and
        // need the partition-invariant counter streams.
        spec.mode = EstimateMode::Adaptive;
        spec.policy = apolicy;
        spec.stream = ShotStream::Counter;
    }
    return runShardImpl(noise, spec, /*keepRows=*/false)
        .finalize()
        .front();
}

std::vector<FidelityResult>
FidelityEstimator::estimateSweep(const NoiseModel &noise,
                                 const std::vector<double> &factors,
                                 std::size_t shots, std::uint64_t seed,
                                 unsigned threads) const
{
    const std::size_t npts = factors.size();
    if (npts == 0 || shots == 0)
        return std::vector<FidelityResult>(npts);
    threads = resolveThreads(threads);

    ShardSpec spec;
    spec.shotEnd = spec.totalShots = shots;
    spec.seed = seed;
    spec.threads = threads;
    spec.factors = factors;
    spec.stream = (threads <= 1 || shots <= 1)
                      ? ShotStream::Sequential
                      : ShotStream::Counter;
    if (estMode == EstimateMode::Adaptive) {
        spec.mode = EstimateMode::Adaptive;
        spec.policy = apolicy;
        spec.stream = ShotStream::Counter;
    }
    return runShardImpl(noise, spec, /*keepRows=*/false).finalize();
}

AdaptiveReport
FidelityEstimator::adaptiveRun(const NoiseModel &noise,
                               const std::vector<double> &factors,
                               std::uint64_t seed,
                               unsigned threads) const
{
    const std::size_t npts = factors.empty() ? 1 : factors.size();
    ShardSpec spec;
    spec.seed = seed;
    spec.threads = threads;
    spec.stream = ShotStream::Counter;
    spec.factors = factors;
    spec.mode = EstimateMode::Adaptive;
    spec.policy = apolicy;

    // Raw-draw budget: the explicit policy.maxDraws, else sized so
    // the point with the smallest non-empty class probability can
    // still fill its kept-shot budget (with 2x headroom), capped to
    // keep pE -> 1 workloads from demanding astronomically many
    // draws — the stopping rule usually ends the run far earlier.
    std::size_t budget = apolicy.maxDraws;
    if (budget == 0) {
        if (factors.empty())
            noise.prepare(exec);
        else
            noise.prepareSweep(exec, factors.data(), npts);
        static const double kUnitFactor = 1.0;
        const double *facs =
            factors.empty() ? &kUnitFactor : factors.data();
        std::vector<double> pEv(npts), pZv(npts);
        double minRate = 1.0;
        if (noise.classProbabilities(exec, facs, npts, pEv.data(),
                                     pZv.data())) {
            for (std::size_t j = 0; j < npts; ++j) {
                const double rate = std::max(0.0, 1.0 - pEv[j]);
                if (rate > 0.0)
                    minRate = std::min(minRate, rate);
            }
        }
        const double perPoint =
            2.0 * static_cast<double>(apolicy.maxShots) /
            std::max(minRate, 1e-9);
        const double cap = static_cast<double>(
            std::max<std::size_t>(std::size_t(1) << 20,
                                  apolicy.maxShots * 1024));
        budget = static_cast<std::size_t>(
            std::max(1.0, std::min(perPoint, cap)));
    }
    spec.shotEnd = spec.totalShots = budget;

    const PartialEstimate part = runShardAdaptive(noise, spec);
    AdaptiveReport rep;
    rep.results = part.finalize();
    rep.emptyProb = part.probEmpty;
    rep.zOnlyProb = part.probZOnly;
    rep.generalProb.resize(npts);
    rep.zOnlyShots.resize(npts);
    rep.generalShots.resize(npts);
    rep.converged.assign(npts, 0);
    const double zq = stats::normalZ(apolicy.confidence);
    for (std::size_t j = 0; j < npts; ++j) {
        rep.generalProb[j] = std::max(
            0.0, 1.0 - part.probEmpty[j] - part.probZOnly[j]);
        rep.zOnlyShots[j] =
            static_cast<std::size_t>(part.zCount[j]);
        rep.generalShots[j] =
            static_cast<std::size_t>(part.gCount[j]);
        if (apolicy.targetHalfWidth > 0.0 &&
            zq * rep.results[j].fullStderr <= apolicy.targetHalfWidth)
            rep.converged[j] = 1;
    }
    rep.rawDraws = part.drawsUsed;
    rep.keptShots = part.rowDraw.size();
    return rep;
}

AdaptiveReport
FidelityEstimator::estimateAdaptive(const NoiseModel &noise,
                                    std::uint64_t seed,
                                    unsigned threads) const
{
    return adaptiveRun(noise, {}, seed, threads);
}

AdaptiveReport
FidelityEstimator::estimateSweepAdaptive(
    const NoiseModel &noise, const std::vector<double> &factors,
    std::uint64_t seed, unsigned threads) const
{
    return adaptiveRun(noise, factors, seed, threads);
}

} // namespace qramsim
