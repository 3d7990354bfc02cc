/**
 * @file
 * Feynman-path simulation (Sec. 6.2).
 *
 * QRAM circuits are built from classical-reversible gates, so a
 * computational basis state is mapped to exactly one computational basis
 * state — no path ever branches into a superposition. Each memory
 * address in the query superposition is therefore one path, represented
 * by a bit vector plus a complex phase, and the storage per path stays
 * constant in the circuit depth. Pauli noise preserves the property:
 * an X event flips a bit, a Z event flips the sign when the bit is 1,
 * a Y event does both (with a global i). This is what makes noisy
 * simulation of ~200-qubit QRAM circuits cheap.
 *
 * The executor compiles the scheduled circuit once into a flat
 * structure-of-arrays op stream (CompiledStream): per-op gate kind,
 * precomputed target word/mask pairs, and per-word control predicates,
 * so the inner propagation loop is a cache-friendly sweep of word AND/XOR
 * operations with no Gate-object or per-bit accessor overhead. See
 * src/sim/README.md for the format and its invariants. The original
 * per-Gate interpreter is kept as runIdealReference/runNoisyReference —
 * it is the differential-testing oracle and the baseline the perf
 * trajectory (BENCH_simulator.json) is measured against.
 *
 * H gates (used only inside teleportation gadgets, which are analyzed
 * for depth rather than simulated) are rejected with panic() when
 * executed.
 */

#ifndef QRAMSIM_SIM_FEYNMAN_HH
#define QRAMSIM_SIM_FEYNMAN_HH

#include <complex>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hh"
#include "circuit/schedule.hh"
#include "common/bitvec.hh"
#include "common/pathensemble.hh"

namespace qramsim {

/** One Feynman path: basis state plus accumulated phase. */
struct PathState
{
    BitVec bits;
    std::complex<double> phase{1.0, 0.0};

    PathState() = default;
    explicit PathState(std::size_t nqubits) : bits(nqubits) {}
};

/** A Pauli error applied to one qubit at one point in the circuit. */
enum class PauliKind : std::uint8_t { X, Y, Z };

/**
 * One sampled error event. Events are anchored either after a gate
 * (gate-based channel) or after a schedule moment (qubit-based channel);
 * the executor interleaves them accordingly.
 */
struct ErrorEvent
{
    std::uint32_t qubit;
    PauliKind pauli;
};

/** A full error realization for one Monte Carlo shot. */
struct ErrorRealization
{
    /** afterGate[g] = events applied right after gate g executes. */
    std::vector<std::vector<ErrorEvent>> afterGate;

    /** afterMoment[t] = events applied after schedule moment t. */
    std::vector<std::vector<ErrorEvent>> afterMoment;

    bool
    empty() const
    {
        for (const auto &v : afterGate)
            if (!v.empty())
                return false;
        for (const auto &v : afterMoment)
            if (!v.empty())
                return false;
        return true;
    }
};

/**
 * One error event addressed by stream position: an event at position p
 * fires after the ops [0, p) of the compiled stream have executed (so
 * "after gate at execution index e" is position e + 1, and "after
 * moment t" is CompiledStream::momentEndPos[t]).
 */
struct FlatEvent
{
    std::uint32_t pos;
    std::uint32_t qubit;
    PauliKind pauli;
};

/**
 * A shot's error realization flattened onto the compiled op stream:
 * events sorted by position (stable — same-position events keep their
 * sampling order, which is their application order).
 */
struct FlatRealization
{
    std::vector<FlatEvent> events;

    /** True while no X or Y event is present (pure phase noise). */
    bool zOnly = true;

    bool empty() const { return events.empty(); }

    void
    clear()
    {
        events.clear();
        zOnly = true;
    }

    void
    push(std::uint32_t pos, std::uint32_t qubit, PauliKind pauli)
    {
        events.push_back({pos, qubit, pauli});
        if (pauli != PauliKind::Z)
            zOnly = false;
    }

    /** Stable-sort events by position (no-op if already sorted). */
    void sortByPos();
};

/**
 * The compiled circuit: a flat structure-of-arrays op stream in
 * execution (moment) order, one entry per non-barrier gate.
 *
 * Controls are lowered to word predicates: op i fires iff
 * (state.word(ctrl[c].word) & ctrl[c].mask) == ctrl[c].value for every
 * c in [ctrlBegin[i], ctrlBegin[i+1]) — controls sharing a 64-bit word
 * collapse into a single AND/compare. Targets are precomputed
 * word-index/mask pairs (mask1/word1 only used by Swap).
 *
 * A second lowering of the same stream serves the bit-sliced ensemble
 * engine (common/pathensemble.hh), whose state is qubit-major: targets
 * as plain qubit indices (tq0/tq1) and controls as per-qubit polarity
 * terms (ectrl) that evaluate to a 64-path fire mask per row word.
 */
struct CompiledStream
{
    /** Base operation of a compiled op. */
    enum class Op : std::uint8_t { X, Z, S, T, Tdg, Swap, H };

    struct CtrlWord
    {
        std::uint32_t word;
        std::uint64_t mask;  ///< bits of this word holding controls
        std::uint64_t value; ///< required value under 'mask'
    };

    std::vector<std::uint8_t> kind;   ///< Op per stream position
    std::vector<std::uint32_t> word0; ///< first target word index
    std::vector<std::uint64_t> mask0; ///< first target bit mask
    std::vector<std::uint32_t> word1; ///< second target word (Swap)
    std::vector<std::uint64_t> mask1; ///< second target mask (Swap)

    /** ctrlBegin[i]..ctrlBegin[i+1]: op i's slice of 'ctrl'. */
    std::vector<std::uint32_t> ctrlBegin;
    std::vector<CtrlWord> ctrl;

    /// @name Ensemble lowering (qubit-major state)
    /// @{

    std::vector<std::uint32_t> tq0; ///< first target qubit index
    std::vector<std::uint32_t> tq1; ///< second target qubit (Swap)

    /** ectrlBegin[i]..ectrlBegin[i+1]: op i's slice of 'ectrl'. */
    std::vector<std::uint32_t> ectrlBegin;
    std::vector<EnsembleCtrl> ectrl;

    /// @}

    /** Stream position of program gate g (UINT32_MAX for barriers). */
    std::vector<std::uint32_t> gatePos;

    /** momentEndPos[t] = stream position one past moment t's ops. */
    std::vector<std::uint32_t> momentEndPos;

    /** True if any op multiplies the path phase (Z/S/T/Tdg). */
    bool hasPhaseOps = false;

    std::size_t size() const { return kind.size(); }
};

/** Apply a single gate to a path in place. Panics on H. */
void applyGate(const Gate &g, PathState &path);

/** Apply a single Pauli error event to a path in place. */
void applyError(const ErrorEvent &e, PathState &path);

/**
 * Path executor: propagates basis states through a circuit, optionally
 * interleaving a sampled error realization. The schedule is computed
 * and the circuit compiled once; both are reused across paths and
 * shots.
 */
class FeynmanExecutor
{
  public:
    explicit FeynmanExecutor(const Circuit &c);

    const Circuit &circuit() const { return circ; }
    const Schedule &schedule() const { return sched; }
    const CompiledStream &stream() const { return cs; }

    /** Noiseless propagation of one path (compiled engine). */
    PathState runIdeal(const PathState &input) const;

    /**
     * Propagation under an error realization. Gates execute in moment
     * order; after each gate its afterGate events fire, after each
     * moment its afterMoment events fire. Compiled engine; numerically
     * identical to runNoisyReference (same operations, same order).
     */
    PathState runNoisy(const PathState &input,
                       const ErrorRealization &errors) const;

    /** Propagation under a flattened (position-sorted) realization. */
    PathState runFlat(const PathState &input,
                      const FlatRealization &errors) const;

    /**
     * Advance @p path in place through stream positions [from, to),
     * firing the events of @p events[evBegin, evEnd) at their
     * positions. Every event position must lie in [from, to]; events
     * at position 'to' fire after the last op. The core of the
     * estimator's error-sparse replay.
     */
    void runSpan(PathState &path, std::uint32_t from, std::uint32_t to,
                 const FlatEvent *events, std::size_t numEvents) const;

    /** Apply the single compiled op at stream position @p i. */
    void
    applyOpAt(std::uint32_t i, PathState &path) const
    {
        runSpan(path, i, i + 1, nullptr, 0);
    }

    /// @name Bit-sliced ensemble engine
    ///
    /// Propagates every path of a shot at once through the qubit-major
    /// layout: each op evaluates its controls into a 64-path fire mask
    /// per row word and applies target updates word-wide (through the
    /// runtime-dispatched row kernels of common/simd.hh), and every
    /// error event becomes a whole-row operation. Sequentially
    /// bit-identical (bits and phases) to running the scalar engine
    /// path by path: each path sees the identical ordered sequence of
    /// flips and phase factors.
    /// @{

    /**
     * Ensemble twin of runSpan: advance @p ens in place through
     * stream positions [from, to), firing @p events[0, numEvents) at
     * their positions (all positions must lie in [from, to]). The
     * per-shot reference of the op-major block replay, and the
     * estimator's checkpoint builder.
     */
    void runSpanEnsemble(PathEnsemble &ens, std::uint32_t from,
                         std::uint32_t to, const FlatEvent *events,
                         std::size_t numEvents) const;

    /**
     * One shot of an op-major block replay: its remaining events
     * (positions in [from, to] of the block call) and its join
     * position in the op stream. The event cursor is internal state
     * of runSpanEnsembleBlock.
     */
    struct BlockReplayShot
    {
        const FlatEvent *events;
        std::size_t numEvents;
        std::uint32_t from;
        std::size_t ev = 0; ///< event cursor (managed by the replay)
    };

    /**
     * Op-major (transposed) multi-shot twin of runSpanEnsemble over
     * the fused EnsembleBlock arena: @p blk holds blk.numShots()
     * shots' states qubit-major, shot-minor, and @p shots their join
     * positions and event lists. Each op is decoded once and applied
     * to every joined shot's rows with ONE contiguous block-kernel
     * sweep per target row; runs of event-free ops execute back to
     * back with zero per-shot bookkeeping. Shots join at their own
     * positions (their mask slices open right before their first op)
     * and their events fire at their own positions, so each shot's
     * op/event sequence is exactly its solo runSpanEnsemble sequence
     * — results are bit-identical shot by shot to the per-shot
     * engine at every batch width.
     */
    void runSpanEnsembleBlock(EnsembleBlock &blk,
                              BlockReplayShot *shots,
                              std::uint32_t to) const;

    /** Noiseless ensemble propagation (whole stream). */
    PathEnsemble runIdealEnsemble(const PathEnsemble &input) const;

    /** Ensemble propagation under a flattened realization. */
    PathEnsemble runFlatEnsemble(const PathEnsemble &input,
                                 const FlatRealization &errors) const;

    /// @}

    /** Flatten @p errors onto the compiled stream (position-sorted). */
    void flatten(const ErrorRealization &errors,
                 FlatRealization &out) const;

    /**
     * Reference interpreter (the pre-compilation implementation):
     * walks Gate objects bit-at-a-time. Oracle for differential tests
     * and the baseline of the recorded speedup.
     */
    PathState runIdealReference(const PathState &input) const;
    PathState runNoisyReference(const PathState &input,
                                const ErrorRealization &errors) const;

  private:
    const Circuit &circ;
    Schedule sched;

    /** Gate indices in execution (moment) order. */
    ExecutionOrder exec;

    /** The compiled op stream. */
    CompiledStream cs;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_FEYNMAN_HH
