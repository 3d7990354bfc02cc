#include "sim/feynman.hh"

#include <algorithm>
#include <numbers>

namespace qramsim {

namespace {

/** True iff every control of @p g matches its required polarity. */
bool
controlsFire(const Gate &g, const BitVec &bits)
{
    for (std::size_t i = 0; i < g.controls.size(); ++i) {
        bool want = !g.negControl(i);
        if (bits.get(g.controls[i]) != want)
            return false;
    }
    return true;
}

/**
 * Apply one error event to raw path words + phase. Same arithmetic as
 * applyError, minus the per-bit bounds checks (positions were validated
 * at sampling/flattening time).
 */
inline void
applyErrorWords(const FlatEvent &e, std::uint64_t *w,
                std::complex<double> &phase)
{
    const std::size_t wi = e.qubit >> 6;
    const std::uint64_t mask = std::uint64_t(1) << (e.qubit & 63);
    switch (e.pauli) {
      case PauliKind::X:
        w[wi] ^= mask;
        break;
      case PauliKind::Z:
        if (w[wi] & mask)
            phase = -phase;
        break;
      case PauliKind::Y:
        // Y = i X Z: sign from Z on |1>, then flip, global i.
        if (w[wi] & mask)
            phase = -phase;
        w[wi] ^= mask;
        phase *= std::complex<double>(0.0, 1.0);
        break;
    }
}

} // namespace

void
FlatRealization::sortByPos()
{
    if (std::is_sorted(events.begin(), events.end(),
                       [](const FlatEvent &a, const FlatEvent &b) {
                           return a.pos < b.pos;
                       }))
        return;
    std::stable_sort(events.begin(), events.end(),
                     [](const FlatEvent &a, const FlatEvent &b) {
                         return a.pos < b.pos;
                     });
}

void
applyGate(const Gate &g, PathState &path)
{
    switch (g.kind) {
      case GateKind::Barrier:
        return;
      case GateKind::H:
        QRAMSIM_PANIC("H gate is not basis-preserving; teleportation "
                      "gadgets must not reach the path simulator");
      default:
        break;
    }

    if (!controlsFire(g, path.bits))
        return;

    switch (g.kind) {
      case GateKind::X:
        path.bits.flip(g.targets[0]);
        break;
      case GateKind::Z:
        if (path.bits.get(g.targets[0]))
            path.phase = -path.phase;
        break;
      case GateKind::S:
        if (path.bits.get(g.targets[0]))
            path.phase *= std::complex<double>(0.0, 1.0);
        break;
      case GateKind::T:
        if (path.bits.get(g.targets[0])) {
            constexpr double r = std::numbers::sqrt2 / 2.0;
            path.phase *= std::complex<double>(r, r);
        }
        break;
      case GateKind::Tdg:
        if (path.bits.get(g.targets[0])) {
            constexpr double r = std::numbers::sqrt2 / 2.0;
            path.phase *= std::complex<double>(r, -r);
        }
        break;
      case GateKind::Swap:
        path.bits.swapBits(g.targets[0], g.targets[1]);
        break;
      default:
        QRAMSIM_PANIC("unhandled gate kind");
    }
}

void
applyError(const ErrorEvent &e, PathState &path)
{
    switch (e.pauli) {
      case PauliKind::X:
        path.bits.flip(e.qubit);
        break;
      case PauliKind::Z:
        if (path.bits.get(e.qubit))
            path.phase = -path.phase;
        break;
      case PauliKind::Y:
        // Y = i X Z: sign from Z on |1>, then flip, global i.
        if (path.bits.get(e.qubit))
            path.phase = -path.phase;
        path.bits.flip(e.qubit);
        path.phase *= std::complex<double>(0.0, 1.0);
        break;
    }
}

FeynmanExecutor::FeynmanExecutor(const Circuit &c)
    : circ(c), sched(scheduleAsap(c)), exec(executionOrder(sched))
{
    // Compile: lower every non-barrier gate, in execution order, into
    // one flat op with precomputed word masks.
    const std::size_t n = exec.order.size();
    cs.kind.reserve(n);
    cs.word0.reserve(n);
    cs.mask0.reserve(n);
    cs.word1.reserve(n);
    cs.mask1.reserve(n);
    cs.ctrlBegin.reserve(n + 1);
    cs.ctrlBegin.push_back(0);
    cs.tq0.reserve(n);
    cs.tq1.reserve(n);
    cs.ectrlBegin.reserve(n + 1);
    cs.ectrlBegin.push_back(0);
    cs.gatePos.assign(circ.numGates(), UINT32_MAX);

    // Scratch: per-word accumulation of control masks/values.
    std::vector<std::uint64_t> wMask(circ.numQubits() / 64 + 1, 0);
    std::vector<std::uint64_t> wValue(wMask.size(), 0);
    std::vector<std::uint32_t> wTouched;

    for (std::size_t e = 0; e < n; ++e) {
        const Gate &g = circ.gates()[exec.order[e]];
        cs.gatePos[exec.order[e]] = static_cast<std::uint32_t>(e);

        wTouched.clear();
        for (std::size_t i = 0; i < g.controls.size(); ++i) {
            const std::uint32_t w = g.controls[i] >> 6;
            const std::uint64_t bit = std::uint64_t(1)
                                      << (g.controls[i] & 63);
            if (!wMask[w])
                wTouched.push_back(w);
            wMask[w] |= bit;
            if (!g.negControl(i))
                wValue[w] |= bit;
        }
        std::sort(wTouched.begin(), wTouched.end());
        for (std::uint32_t w : wTouched) {
            cs.ctrl.push_back({w, wMask[w], wValue[w]});
            wMask[w] = 0;
            wValue[w] = 0;
        }
        cs.ctrlBegin.push_back(
            static_cast<std::uint32_t>(cs.ctrl.size()));

        CompiledStream::Op op = CompiledStream::Op::X;
        switch (g.kind) {
          case GateKind::X:    op = CompiledStream::Op::X; break;
          case GateKind::Z:    op = CompiledStream::Op::Z; break;
          case GateKind::S:    op = CompiledStream::Op::S; break;
          case GateKind::T:    op = CompiledStream::Op::T; break;
          case GateKind::Tdg:  op = CompiledStream::Op::Tdg; break;
          case GateKind::Swap: op = CompiledStream::Op::Swap; break;
          case GateKind::H:    op = CompiledStream::Op::H; break;
          case GateKind::Barrier:
            QRAMSIM_PANIC("barrier in scheduled moments");
        }
        cs.kind.push_back(static_cast<std::uint8_t>(op));
        if (op == CompiledStream::Op::Z || op == CompiledStream::Op::S ||
            op == CompiledStream::Op::T || op == CompiledStream::Op::Tdg)
            cs.hasPhaseOps = true;

        const Qubit t0 = g.targets.empty() ? 0 : g.targets[0];
        cs.word0.push_back(t0 >> 6);
        cs.mask0.push_back(std::uint64_t(1) << (t0 & 63));
        const Qubit t1 = g.targets.size() > 1 ? g.targets[1] : t0;
        cs.word1.push_back(t1 >> 6);
        cs.mask1.push_back(std::uint64_t(1) << (t1 & 63));

        // Ensemble lowering: qubit-major targets and per-qubit
        // polarity controls (evaluated as 64-path fire masks).
        cs.tq0.push_back(t0);
        cs.tq1.push_back(t1);
        for (std::size_t i = 0; i < g.controls.size(); ++i)
            cs.ectrl.push_back(
                {g.controls[i],
                 g.negControl(i) ? ~std::uint64_t(0)
                                 : std::uint64_t(0)});
        cs.ectrlBegin.push_back(
            static_cast<std::uint32_t>(cs.ectrl.size()));
    }

    cs.momentEndPos.reserve(exec.momentEnd.size());
    for (std::size_t me : exec.momentEnd)
        cs.momentEndPos.push_back(static_cast<std::uint32_t>(me));
}

void
FeynmanExecutor::runSpan(PathState &path, std::uint32_t from,
                         std::uint32_t to, const FlatEvent *events,
                         std::size_t numEvents) const
{
    std::uint64_t *w = path.bits.wordData();
    std::complex<double> phase = path.phase;
    std::size_t ev = 0;

    const std::uint8_t *kind = cs.kind.data();
    const std::uint32_t *word0 = cs.word0.data();
    const std::uint64_t *mask0 = cs.mask0.data();
    const std::uint32_t *word1 = cs.word1.data();
    const std::uint64_t *mask1 = cs.mask1.data();
    const std::uint32_t *ctrlBegin = cs.ctrlBegin.data();
    const CompiledStream::CtrlWord *ctrl = cs.ctrl.data();

    for (std::uint32_t i = from; i < to; ++i) {
        while (ev < numEvents && events[ev].pos <= i)
            applyErrorWords(events[ev++], w, phase);

        const std::uint32_t cb = ctrlBegin[i], ce = ctrlBegin[i + 1];
        bool fire = true;
        for (std::uint32_t c = cb; c != ce; ++c) {
            if ((w[ctrl[c].word] & ctrl[c].mask) != ctrl[c].value) {
                fire = false;
                break;
            }
        }
        if (!fire)
            continue;

        switch (static_cast<CompiledStream::Op>(kind[i])) {
          case CompiledStream::Op::X:
            w[word0[i]] ^= mask0[i];
            break;
          case CompiledStream::Op::Swap: {
            const bool b0 = w[word0[i]] & mask0[i];
            const bool b1 = w[word1[i]] & mask1[i];
            if (b0 != b1) {
                w[word0[i]] ^= mask0[i];
                w[word1[i]] ^= mask1[i];
            }
            break;
          }
          case CompiledStream::Op::Z:
            if (w[word0[i]] & mask0[i])
                phase = -phase;
            break;
          case CompiledStream::Op::S:
            if (w[word0[i]] & mask0[i])
                phase *= std::complex<double>(0.0, 1.0);
            break;
          case CompiledStream::Op::T:
            if (w[word0[i]] & mask0[i]) {
                constexpr double r = std::numbers::sqrt2 / 2.0;
                phase *= std::complex<double>(r, r);
            }
            break;
          case CompiledStream::Op::Tdg:
            if (w[word0[i]] & mask0[i]) {
                constexpr double r = std::numbers::sqrt2 / 2.0;
                phase *= std::complex<double>(r, -r);
            }
            break;
          case CompiledStream::Op::H:
            QRAMSIM_PANIC("H gate is not basis-preserving; "
                          "teleportation gadgets must not reach the "
                          "path simulator");
        }
    }

    while (ev < numEvents) {
        QRAMSIM_ASSERT(events[ev].pos <= to,
                       "error event beyond replay span");
        applyErrorWords(events[ev++], w, phase);
    }
    path.phase = phase;
}

namespace {

/**
 * Apply one error event to one shot's row slice and phase
 * accumulators — the shared core of the per-shot and block ensemble
 * engines, so the Pauli arithmetic (the bit-identity contract) lives
 * in exactly one place. Per-path arithmetic is identical (value and
 * order) to applyErrorWords on each path: sign flips for the paths
 * whose bit is set, then the bit flip / global i. Bit flips are whole-row XORs
 * of the valid mask (the broadcast block kernel, one slice); phase
 * walks only visit data words — padding words are zero by invariant,
 * so they can never contribute a set bit.
 */
void
applyErrorRows(const FlatEvent &e, std::uint64_t *r,
               const std::uint64_t *vmask, std::size_t pw,
               std::size_t dw, std::complex<double> *ph,
               std::size_t np, const simd::RowKernels &K)
{
    switch (e.pauli) {
      case PauliKind::X:
        K.xorRowBlock(r, vmask, pw, 1);
        break;
      case PauliKind::Z:
        for (std::size_t w = 0; w < dw; ++w) {
            std::uint64_t m = r[w];
            while (m) {
                const std::size_t k =
                    w * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                ph[k] = -ph[k];
            }
        }
        break;
      case PauliKind::Y: {
        // Y = i X Z: sign from Z on |1>, then flip, global i.
        for (std::size_t w = 0; w < dw; ++w) {
            std::uint64_t m = r[w];
            while (m) {
                const std::size_t k =
                    w * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                ph[k] = -ph[k];
            }
        }
        K.xorRowBlock(r, vmask, pw, 1);
        const std::complex<double> im(0.0, 1.0);
        for (std::size_t k = 0; k < np; ++k)
            ph[k] *= im;
        break;
      }
    }
}

/** applyErrorRows over a whole (single-shot) ensemble. */
inline void
applyErrorEnsemble(const FlatEvent &e, PathEnsemble &ens,
                   const simd::RowKernels &K)
{
    applyErrorRows(e, ens.row(e.qubit), ens.validMaskRow(),
                   ens.wordsPerQubit(), ens.dataWords(),
                   ens.phaseData(), ens.numPaths(), K);
}

/**
 * Apply one decoded compiled op to one ensemble. X/Swap dispatch to
 * the fire-mask row kernels; diagonal ops walk the firing set bits
 * and multiply phases (same constants, same order as the scalar
 * engine — the bit-identity contract).
 */
inline void
applyOpEnsemble(CompiledStream::Op op, std::uint32_t q0,
                std::uint32_t q1, const EnsembleCtrl *ec,
                std::size_t nc, PathEnsemble &ens,
                const simd::RowKernels &K)
{
    const std::size_t pw = ens.wordsPerQubit();
    // Diagonal-op phase walks only visit data words — fire masks on
    // padding words are provably zero.
    const std::size_t dw = ens.dataWords();
    std::uint64_t *rows = ens.rowData();
    std::complex<double> *ph = ens.phaseData();

    switch (op) {
      case CompiledStream::Op::X:
        K.xorFire(rows + std::size_t(q0) * pw, rows, pw, ec, nc,
                  ens.validMaskRow(), pw);
        break;
      case CompiledStream::Op::Swap:
        K.swapFire(rows + std::size_t(q0) * pw,
                   rows + std::size_t(q1) * pw, rows, pw, ec, nc,
                   ens.validMaskRow(), pw);
        break;
      case CompiledStream::Op::Z: {
        const std::uint64_t *t = rows + std::size_t(q0) * pw;
        for (std::size_t w = 0; w < dw; ++w) {
            std::uint64_t m = t[w] & ensembleFireMask(ens, ec, nc, w);
            while (m) {
                const std::size_t k =
                    w * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                ph[k] = -ph[k];
            }
        }
        break;
      }
      case CompiledStream::Op::S:
      case CompiledStream::Op::T:
      case CompiledStream::Op::Tdg: {
        constexpr double r = std::numbers::sqrt2 / 2.0;
        const std::complex<double> factor =
            op == CompiledStream::Op::S
                ? std::complex<double>(0.0, 1.0)
                : (op == CompiledStream::Op::T
                       ? std::complex<double>(r, r)
                       : std::complex<double>(r, -r));
        const std::uint64_t *t = rows + std::size_t(q0) * pw;
        for (std::size_t w = 0; w < dw; ++w) {
            std::uint64_t m = t[w] & ensembleFireMask(ens, ec, nc, w);
            while (m) {
                const std::size_t k =
                    w * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                ph[k] *= factor;
            }
        }
        break;
      }
      case CompiledStream::Op::H:
        QRAMSIM_PANIC("H gate is not basis-preserving; "
                      "teleportation gadgets must not reach the "
                      "path simulator");
    }
}

/**
 * Fire mask of arena word @p w: the block mask row (per-shot valid
 * masks for joined shots, zeros otherwise) ANDed with every control
 * term's block row — the EnsembleBlock twin of ensembleFireMask.
 */
inline std::uint64_t
blockFireMask(const std::uint64_t *rows, std::size_t stride,
              const std::uint64_t *bmask, const EnsembleCtrl *ctrls,
              std::size_t n, std::size_t w)
{
    std::uint64_t fire = bmask[w];
    for (std::size_t c = 0; c < n && fire; ++c)
        fire &= rows[std::size_t(ctrls[c].qubit) * stride + w] ^
                ctrls[c].invert;
    return fire;
}

/**
 * applyErrorRows on shot @p s's slice of the block. Uses the
 * valid-mask template — not the join mask — so tail events of shots
 * that never join the op loop (from == to) still apply.
 */
inline void
applyErrorBlock(const FlatEvent &e, EnsembleBlock &blk, std::size_t s,
                const simd::RowKernels &K)
{
    applyErrorRows(e, blk.row(e.qubit, s), blk.validMask(),
                   blk.wordsPerQubit(), blk.dataWords(),
                   blk.phaseSlice(s), blk.numPaths(), K);
}

/**
 * Apply one decoded compiled op to every joined shot of the block in
 * one contiguous sweep. X/Swap are single block-kernel calls over the
 * fused rows; diagonal ops walk each joined shot's firing bits in
 * slice order (same constants, same per-shot order as the per-shot
 * engine — the bit-identity contract).
 */
inline void
applyOpBlock(CompiledStream::Op op, std::uint32_t q0, std::uint32_t q1,
             const EnsembleCtrl *ec, std::size_t nc, EnsembleBlock &blk,
             const simd::RowKernels &K)
{
    const std::size_t rw = blk.rowWords();
    const std::size_t pw = blk.wordsPerQubit();
    const std::size_t dw = blk.dataWords();
    std::uint64_t *rows = blk.rowData();
    const std::uint64_t *bmask = blk.maskRow();

    switch (op) {
      case CompiledStream::Op::X:
        K.xorFireBlock(rows + std::size_t(q0) * rw, rows, rw, ec, nc,
                       bmask, rw);
        break;
      case CompiledStream::Op::Swap:
        K.swapFireBlock(rows + std::size_t(q0) * rw,
                        rows + std::size_t(q1) * rw, rows, rw, ec, nc,
                        bmask, rw);
        break;
      case CompiledStream::Op::Z: {
        const std::uint64_t *t = rows + std::size_t(q0) * rw;
        for (std::size_t s = 0; s < blk.numShots(); ++s) {
            std::complex<double> *ph = blk.phaseSlice(s);
            // Fire masks on pad words and unjoined slices are zero.
            for (std::size_t ww = 0; ww < dw; ++ww) {
                const std::size_t w = s * pw + ww;
                std::uint64_t m =
                    t[w] & blockFireMask(rows, rw, bmask, ec, nc, w);
                while (m) {
                    const std::size_t k =
                        ww * 64 +
                        static_cast<std::size_t>(__builtin_ctzll(m));
                    m &= m - 1;
                    ph[k] = -ph[k];
                }
            }
        }
        break;
      }
      case CompiledStream::Op::S:
      case CompiledStream::Op::T:
      case CompiledStream::Op::Tdg: {
        constexpr double r = std::numbers::sqrt2 / 2.0;
        const std::complex<double> factor =
            op == CompiledStream::Op::S
                ? std::complex<double>(0.0, 1.0)
                : (op == CompiledStream::Op::T
                       ? std::complex<double>(r, r)
                       : std::complex<double>(r, -r));
        const std::uint64_t *t = rows + std::size_t(q0) * rw;
        for (std::size_t s = 0; s < blk.numShots(); ++s) {
            std::complex<double> *ph = blk.phaseSlice(s);
            for (std::size_t ww = 0; ww < dw; ++ww) {
                const std::size_t w = s * pw + ww;
                std::uint64_t m =
                    t[w] & blockFireMask(rows, rw, bmask, ec, nc, w);
                while (m) {
                    const std::size_t k =
                        ww * 64 +
                        static_cast<std::size_t>(__builtin_ctzll(m));
                    m &= m - 1;
                    ph[k] *= factor;
                }
            }
        }
        break;
      }
      case CompiledStream::Op::H:
        QRAMSIM_PANIC("H gate is not basis-preserving; "
                      "teleportation gadgets must not reach the "
                      "path simulator");
    }
}

} // namespace

void
FeynmanExecutor::runSpanEnsembleBlock(EnsembleBlock &blk,
                                      BlockReplayShot *shots,
                                      std::uint32_t to) const
{
    const simd::RowKernels &K = simd::activeKernels();
    const std::size_t n = blk.numShots();
    QRAMSIM_ASSERT(blk.numQubits() == circ.numQubits(),
                   "block width mismatch");
    std::uint32_t i = to;
    for (std::size_t b = 0; b < n; ++b) {
        QRAMSIM_ASSERT(shots[b].from <= to,
                       "replay shot starts beyond span end");
        shots[b].ev = 0;
        i = std::min(i, shots[b].from);
    }

    const std::uint8_t *kind = cs.kind.data();
    const std::uint32_t *tq0 = cs.tq0.data();
    const std::uint32_t *tq1 = cs.tq1.data();
    const std::uint32_t *ectrlBegin = cs.ectrlBegin.data();
    const EnsembleCtrl *ectrl = cs.ectrl.data();

    while (i < to) {
        // Join shots whose span starts here, fire events due at or
        // before this position, and find the next position where any
        // per-shot bookkeeping is needed again. Events fire before
        // the op at their position and a shot's first op is the op at
        // its join position — exactly runSpanEnsemble's interleaving —
        // so every stop position is > i and the loop advances.
        std::uint32_t stop = to;
        for (std::size_t b = 0; b < n; ++b) {
            BlockReplayShot &s = shots[b];
            if (s.from > i) {
                stop = std::min(stop, s.from);
                continue;
            }
            if (!blk.joined(b))
                blk.join(b);
            while (s.ev < s.numEvents && s.events[s.ev].pos <= i)
                applyErrorBlock(s.events[s.ev++], blk, b, K);
            if (s.ev < s.numEvents)
                stop = std::min(stop, s.events[s.ev].pos);
        }

        // Op-major run: every op between here and the next stop is
        // decoded once and applied to all joined shots' rows with one
        // block-kernel sweep — no per-shot work at all.
        for (; i < stop; ++i) {
            const auto op = static_cast<CompiledStream::Op>(kind[i]);
            applyOpBlock(op, tq0[i], tq1[i], ectrl + ectrlBegin[i],
                         ectrlBegin[i + 1] - ectrlBegin[i], blk, K);
        }
    }

    for (std::size_t b = 0; b < n; ++b) {
        BlockReplayShot &s = shots[b];
        while (s.ev < s.numEvents) {
            QRAMSIM_ASSERT(s.events[s.ev].pos <= to,
                           "error event beyond replay span");
            applyErrorBlock(s.events[s.ev++], blk, b, K);
        }
    }
}

void
FeynmanExecutor::runSpanEnsemble(PathEnsemble &ens, std::uint32_t from,
                                 std::uint32_t to,
                                 const FlatEvent *events,
                                 std::size_t numEvents) const
{
    const simd::RowKernels &K = simd::activeKernels();
    QRAMSIM_ASSERT(ens.numQubits() == circ.numQubits(),
                   "ensemble width mismatch");
    QRAMSIM_ASSERT(from <= to, "replay span starts beyond its end");

    const std::uint8_t *kind = cs.kind.data();
    const std::uint32_t *tq0 = cs.tq0.data();
    const std::uint32_t *tq1 = cs.tq1.data();
    const std::uint32_t *ectrlBegin = cs.ectrlBegin.data();
    const EnsembleCtrl *ectrl = cs.ectrl.data();

    std::size_t ev = 0;
    for (std::uint32_t i = from; i < to; ++i) {
        while (ev < numEvents && events[ev].pos <= i)
            applyErrorEnsemble(events[ev++], ens, K);
        applyOpEnsemble(static_cast<CompiledStream::Op>(kind[i]),
                        tq0[i], tq1[i], ectrl + ectrlBegin[i],
                        ectrlBegin[i + 1] - ectrlBegin[i], ens, K);
    }
    for (; ev < numEvents; ++ev) {
        QRAMSIM_ASSERT(events[ev].pos <= to,
                       "error event beyond replay span");
        applyErrorEnsemble(events[ev], ens, K);
    }
}

PathEnsemble
FeynmanExecutor::runIdealEnsemble(const PathEnsemble &input) const
{
    PathEnsemble e = input;
    runSpanEnsemble(e, 0, static_cast<std::uint32_t>(cs.size()),
                    nullptr, 0);
    return e;
}

PathEnsemble
FeynmanExecutor::runFlatEnsemble(const PathEnsemble &input,
                                 const FlatRealization &errors) const
{
    PathEnsemble e = input;
    runSpanEnsemble(e, 0, static_cast<std::uint32_t>(cs.size()),
                    errors.events.data(), errors.events.size());
    return e;
}

PathState
FeynmanExecutor::runIdeal(const PathState &input) const
{
    PathState p = input;
    runSpan(p, 0, static_cast<std::uint32_t>(cs.size()), nullptr, 0);
    return p;
}

PathState
FeynmanExecutor::runFlat(const PathState &input,
                         const FlatRealization &errors) const
{
    PathState p = input;
    runSpan(p, 0, static_cast<std::uint32_t>(cs.size()),
            errors.events.data(), errors.events.size());
    return p;
}

PathState
FeynmanExecutor::runNoisy(const PathState &input,
                          const ErrorRealization &errors) const
{
    FlatRealization flat;
    flatten(errors, flat);
    return runFlat(input, flat);
}

void
FeynmanExecutor::flatten(const ErrorRealization &errors,
                         FlatRealization &out) const
{
    out.clear();
    std::size_t e = 0;
    for (std::size_t t = 0; t < exec.momentEnd.size(); ++t) {
        for (; e < exec.momentEnd[t]; ++e) {
            const std::size_t gi = exec.order[e];
            if (gi < errors.afterGate.size())
                for (const ErrorEvent &ev : errors.afterGate[gi])
                    out.push(static_cast<std::uint32_t>(e + 1),
                             ev.qubit, ev.pauli);
        }
        if (t < errors.afterMoment.size())
            for (const ErrorEvent &ev : errors.afterMoment[t])
                out.push(cs.momentEndPos[t], ev.qubit, ev.pauli);
    }
}

PathState
FeynmanExecutor::runIdealReference(const PathState &input) const
{
    PathState p = input;
    for (std::size_t gi : exec.order)
        applyGate(circ.gates()[gi], p);
    return p;
}

PathState
FeynmanExecutor::runNoisyReference(const PathState &input,
                                   const ErrorRealization &errors) const
{
    PathState p = input;
    std::size_t oi = 0;
    for (std::size_t t = 0; t < exec.momentEnd.size(); ++t) {
        for (; oi < exec.momentEnd[t]; ++oi) {
            std::size_t gi = exec.order[oi];
            applyGate(circ.gates()[gi], p);
            if (gi < errors.afterGate.size())
                for (const ErrorEvent &e : errors.afterGate[gi])
                    applyError(e, p);
        }
        if (t < errors.afterMoment.size())
            for (const ErrorEvent &e : errors.afterMoment[t])
                applyError(e, p);
    }
    return p;
}

} // namespace qramsim
