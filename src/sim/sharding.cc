#include "sim/sharding.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"
#include "sim/fidelity.hh"

namespace qramsim {

unsigned
ShardSpec::resolvedThreads() const
{
    if (stream == ShotStream::Sequential)
        return 1; // one Mersenne stream cannot be split
    unsigned t = resolveThreads(threads);
    if (t > 1)
        t = static_cast<unsigned>(std::min<std::size_t>(
            t, std::max<std::size_t>(1, shots())));
    return t;
}

const char *
shotStreamName(ShotStream s)
{
    return s == ShotStream::Sequential ? "sequential" : "counter";
}

bool
parseShotStream(const std::string &name, ShotStream &out)
{
    if (name == "sequential" || name == "seq") {
        out = ShotStream::Sequential;
        return true;
    }
    if (name == "counter") {
        out = ShotStream::Counter;
        return true;
    }
    return false;
}

void
applyShardPins(FidelityEstimator &est, const ShardSpec &spec)
{
    if (spec.replay == ReplayPin::Ensemble)
        est.setReplayEngine(FidelityEstimator::ReplayEngine::Ensemble);
    else if (spec.replay == ReplayPin::Scalar)
        est.setReplayEngine(FidelityEstimator::ReplayEngine::Scalar);
    if (!spec.simdTier.empty()) {
        simd::Tier t = simd::Tier::Scalar;
        if (spec.simdTier == "scalar")
            t = simd::Tier::Scalar;
        else if (spec.simdTier == "avx2")
            t = simd::Tier::Avx2;
        else if (spec.simdTier == "avx512")
            t = simd::Tier::Avx512;
        else
            QRAMSIM_PANIC("unknown SIMD tier pin '", spec.simdTier,
                          "'");
        simd::setActiveTier(t);
    }
}

SweepPlan
SweepPlan::partition(std::size_t shots, std::size_t nShards,
                     std::uint64_t seed, std::vector<double> factors,
                     ShotStream stream)
{
    QRAMSIM_ASSERT(nShards >= 1, "a plan needs at least one shard");
    SweepPlan plan;
    plan.totalShots = shots;
    plan.seed = seed;
    plan.factors = factors;
    const std::size_t chunk = (shots + nShards - 1) / nShards;
    for (std::size_t t = 0; t < nShards; ++t) {
        const std::size_t begin = t * chunk;
        const std::size_t end = std::min(begin + chunk, shots);
        if (begin >= end)
            break;
        ShardSpec s;
        s.shotBegin = begin;
        s.shotEnd = end;
        s.totalShots = shots;
        s.seed = seed;
        s.stream = stream;
        s.factors = factors;
        plan.shards.push_back(std::move(s));
    }
    if (plan.shards.empty()) {
        // Zero-shot plan: keep one empty shard so run+merge+finalize
        // still produce a (degenerate) result.
        ShardSpec s;
        s.totalShots = shots;
        s.seed = seed;
        s.stream = stream;
        s.factors = factors;
        plan.shards.push_back(std::move(s));
    }
    return plan;
}

// --- PartialEstimate ---------------------------------------------------

void
PartialEstimate::recomputeSums()
{
    if (adaptive) {
        // Per-point per-stratum sums, reduced over the kept rows in
        // draw order — like the replay branch, the sums depend only
        // on the assembled rows, so any partition merges to the same
        // values bit for bit.
        sumF.clear();
        sumF2.clear();
        sumR.clear();
        sumR2.clear();
        zCount.assign(numPoints, 0.0);
        zSumF.assign(numPoints, 0.0);
        zSumF2.assign(numPoints, 0.0);
        zSumR.assign(numPoints, 0.0);
        zSumR2.assign(numPoints, 0.0);
        gCount.assign(numPoints, 0.0);
        gSumF.assign(numPoints, 0.0);
        gSumF2.assign(numPoints, 0.0);
        gSumR.assign(numPoints, 0.0);
        gSumR2.assign(numPoints, 0.0);
        for (std::size_t i = 0; i < rowDraw.size(); ++i) {
            const std::size_t j =
                static_cast<std::size_t>(rowPoint[i]);
            const double f = full[i];
            const double r = reduced[i];
            if (rowStratum[i] == 0.0) {
                zCount[j] += 1.0;
                zSumF[j] += f;
                zSumF2[j] += f * f;
                zSumR[j] += r;
                zSumR2[j] += r * r;
            } else {
                gCount[j] += 1.0;
                gSumF[j] += f;
                gSumF2[j] += f * f;
                gSumR[j] += r;
                gSumR2[j] += r * r;
            }
        }
        return;
    }
    sumF.assign(numPoints, 0.0);
    sumF2.assign(numPoints, 0.0);
    sumR.assign(numPoints, 0.0);
    sumR2.assign(numPoints, 0.0);
    const std::size_t n = shots();
    for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t j = 0; j < numPoints; ++j) {
            const double f = full[s * numPoints + j];
            const double r = reduced[s * numPoints + j];
            sumF[j] += f;
            sumF2[j] += f * f;
            sumR[j] += r;
            sumR2[j] += r * r;
        }
    }
}

bool
PartialEstimate::canMerge(const PartialEstimate &other,
                          std::string *why) const
{
    auto fail = [&](const char *msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (workload != other.workload)
        return fail("workload fingerprints differ");
    if (seed != other.seed)
        return fail("seeds differ");
    if (totalShots != other.totalShots)
        return fail("total shot counts differ");
    if (stream != other.stream)
        return fail("shot streams differ");
    if (numPoints != other.numPoints || factors != other.factors)
        return fail("sweep factors differ");
    if (adaptive != other.adaptive)
        return fail("estimate modes differ");
    if (adaptive) {
        // The analytic ingredients are pure functions of the plan, so
        // honest partials agree exactly; anything else is a workload
        // mixup the fingerprint failed to catch.
        if (probEmpty != other.probEmpty ||
            probZOnly != other.probZOnly)
            return fail("class probabilities differ");
        if (emptyFullShot != other.emptyFullShot ||
            emptyReducedShot != other.emptyReducedShot)
            return fail("empty-shot fidelities differ");
    }
    if (other.shotBegin != shotEnd && other.shotEnd != shotBegin)
        return fail("shot ranges are not adjacent");
    return true;
}

void
PartialEstimate::merge(const PartialEstimate &other)
{
    std::string why;
    QRAMSIM_ASSERT(canMerge(other, &why), "cannot merge partials: ",
                   why);
    if (other.shotBegin == shotEnd) {
        full.insert(full.end(), other.full.begin(), other.full.end());
        reduced.insert(reduced.end(), other.reduced.begin(),
                       other.reduced.end());
        if (adaptive) {
            rowDraw.insert(rowDraw.end(), other.rowDraw.begin(),
                           other.rowDraw.end());
            rowPoint.insert(rowPoint.end(), other.rowPoint.begin(),
                            other.rowPoint.end());
            rowStratum.insert(rowStratum.end(),
                              other.rowStratum.begin(),
                              other.rowStratum.end());
        }
        shotEnd = other.shotEnd;
    } else {
        full.insert(full.begin(), other.full.begin(),
                    other.full.end());
        reduced.insert(reduced.begin(), other.reduced.begin(),
                       other.reduced.end());
        if (adaptive) {
            rowDraw.insert(rowDraw.begin(), other.rowDraw.begin(),
                           other.rowDraw.end());
            rowPoint.insert(rowPoint.begin(), other.rowPoint.begin(),
                            other.rowPoint.end());
            rowStratum.insert(rowStratum.begin(),
                              other.rowStratum.begin(),
                              other.rowStratum.end());
        }
        shotBegin = other.shotBegin;
    }
    drawsUsed += other.drawsUsed;
    setupSeconds += other.setupSeconds;
    computeSeconds += other.computeSeconds;
    recomputeSums();
}

std::vector<FidelityResult>
PartialEstimate::finalize() const
{
    QRAMSIM_ASSERT(shotBegin == 0 && shotEnd == totalShots,
                   "finalize of an incomplete partial (covers [",
                   shotBegin, ", ", shotEnd, ") of ", totalShots,
                   " shots)");
    std::vector<FidelityResult> out(numPoints);
    if (adaptive) {
        // Stratified estimate: F = pE * F_empty + pZ * mean_Z +
        // pG * mean_G, the empty stratum folded in exactly. A stratum
        // with no kept rows (possible when its probability is
        // negligible) falls back to the empty-shot fidelity — a bias
        // bounded by the stratum weight, which the stopping rule keeps
        // below a fraction of the CI target. The empty term is exact,
        // so only the sampled strata contribute variance.
        for (std::size_t j = 0; j < numPoints; ++j) {
            FidelityResult &res = out[j];
            const double pE = probEmpty[j];
            const double pZ = probZOnly[j];
            const double pG = std::max(0.0, 1.0 - pE - pZ);
            const std::size_t nZ =
                static_cast<std::size_t>(zCount[j]);
            const std::size_t nG =
                static_cast<std::size_t>(gCount[j]);
            res.shots = nZ + nG;
            const double meanZF =
                nZ > 0 ? stats::meanFromSums(zSumF[j], nZ)
                       : emptyFullShot;
            const double meanZR =
                nZ > 0 ? stats::meanFromSums(zSumR[j], nZ)
                       : emptyReducedShot;
            const double meanGF =
                nG > 0 ? stats::meanFromSums(gSumF[j], nG)
                       : emptyFullShot;
            const double meanGR =
                nG > 0 ? stats::meanFromSums(gSumR[j], nG)
                       : emptyReducedShot;
            res.full = pE * emptyFullShot + pZ * meanZF + pG * meanGF;
            res.reduced =
                pE * emptyReducedShot + pZ * meanZR + pG * meanGR;
            const double seZF =
                stats::stderrFromSums(zSumF[j], zSumF2[j], nZ);
            const double seZR =
                stats::stderrFromSums(zSumR[j], zSumR2[j], nZ);
            const double seGF =
                stats::stderrFromSums(gSumF[j], gSumF2[j], nG);
            const double seGR =
                stats::stderrFromSums(gSumR[j], gSumR2[j], nG);
            res.fullStderr = std::sqrt(pZ * pZ * seZF * seZF +
                                       pG * pG * seGF * seGF);
            res.reducedStderr = std::sqrt(pZ * pZ * seZR * seZR +
                                          pG * pG * seGR * seGR);
        }
        return out;
    }
    for (std::size_t j = 0; j < numPoints; ++j) {
        FidelityResult &res = out[j];
        res.shots = totalShots;
        res.full = stats::meanFromSums(sumF[j], totalShots);
        res.reduced = stats::meanFromSums(sumR[j], totalShots);
        if (totalShots > 1) {
            res.fullStderr =
                stats::stderrFromSums(sumF[j], sumF2[j], totalShots);
            res.reducedStderr =
                stats::stderrFromSums(sumR[j], sumR2[j], totalShots);
        }
    }
    return out;
}

bool
mergePartials(std::vector<PartialEstimate> parts, PartialEstimate &out,
              std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    if (parts.empty())
        return fail("no partials to merge");
    std::sort(parts.begin(), parts.end(),
              [](const PartialEstimate &a, const PartialEstimate &b) {
                  return a.shotBegin < b.shotBegin;
              });
    if (parts.front().shotBegin != 0)
        return fail("shot range does not start at 0");
    out = std::move(parts.front());
    // Validate and concatenate directly (rows are already sorted by
    // shot range), deriving the sums ONCE at the end — the result is
    // identical to folding via merge(), which recomputes per fold.
    for (std::size_t i = 1; i < parts.size(); ++i) {
        std::string why;
        if (parts[i].shotBegin != out.shotEnd)
            return fail(parts[i].shotBegin < out.shotEnd
                            ? "overlapping shot ranges"
                            : "gap in shot coverage");
        if (!out.canMerge(parts[i], &why))
            return fail(why);
        out.full.insert(out.full.end(), parts[i].full.begin(),
                        parts[i].full.end());
        out.reduced.insert(out.reduced.end(),
                           parts[i].reduced.begin(),
                           parts[i].reduced.end());
        if (out.adaptive) {
            out.rowDraw.insert(out.rowDraw.end(),
                               parts[i].rowDraw.begin(),
                               parts[i].rowDraw.end());
            out.rowPoint.insert(out.rowPoint.end(),
                                parts[i].rowPoint.begin(),
                                parts[i].rowPoint.end());
            out.rowStratum.insert(out.rowStratum.end(),
                                  parts[i].rowStratum.begin(),
                                  parts[i].rowStratum.end());
            out.drawsUsed += parts[i].drawsUsed;
        }
        out.setupSeconds += parts[i].setupSeconds;
        out.computeSeconds += parts[i].computeSeconds;
        out.shotEnd = parts[i].shotEnd;
    }
    if (out.shotEnd != out.totalShots)
        return fail("merged partials do not cover all shots");
    out.recomputeSums();
    return true;
}

// --- JSON --------------------------------------------------------------
//
// Serialization goes through common/json.hh: the shared hardened
// writer/reader used by every tool artifact (partials, orchestrator
// manifests, bench records). The reader rejects non-finite and
// wrapped-negative numbers outright, so the structural validation
// below only needs to check shape and cross-field consistency.

using json::appendDouble;
using json::appendDoubleArray;
using json::appendEscaped;

std::string
PartialEstimate::toJson() const
{
    std::string s;
    s.reserve(64 + (full.size() + reduced.size()) * 20);
    s += "{\n  \"qramsim_partial\": 1,\n  \"workload\": ";
    appendEscaped(s, workload);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  ",\n  \"seed\": %llu,\n  \"total_shots\": %zu,\n"
                  "  \"shot_begin\": %zu,\n  \"shot_end\": %zu,\n"
                  "  \"stream\": \"%s\",\n  \"num_points\": %zu,\n",
                  static_cast<unsigned long long>(seed), totalShots,
                  shotBegin, shotEnd, shotStreamName(stream),
                  numPoints);
    s += buf;
    s += "  \"factors\": ";
    appendDoubleArray(s, factors);
    s += ",\n  \"setup_seconds\": ";
    appendDouble(s, setupSeconds);
    s += ",\n  \"compute_seconds\": ";
    appendDouble(s, computeSeconds);
    if (adaptive) {
        std::snprintf(buf, sizeof buf,
                      ",\n  \"adaptive\": 1,\n  \"draws_used\": %zu,\n"
                      "  \"empty_full_shot\": ",
                      drawsUsed);
        s += buf;
        appendDouble(s, emptyFullShot);
        s += ",\n  \"empty_reduced_shot\": ";
        appendDouble(s, emptyReducedShot);
        s += ",\n  \"prob_empty\": ";
        appendDoubleArray(s, probEmpty);
        s += ",\n  \"prob_zonly\": ";
        appendDoubleArray(s, probZOnly);
        s += ",\n  \"zonly_count\": ";
        appendDoubleArray(s, zCount);
        s += ",\n  \"zonly_sum_full\": ";
        appendDoubleArray(s, zSumF);
        s += ",\n  \"zonly_sum_full_sq\": ";
        appendDoubleArray(s, zSumF2);
        s += ",\n  \"zonly_sum_reduced\": ";
        appendDoubleArray(s, zSumR);
        s += ",\n  \"zonly_sum_reduced_sq\": ";
        appendDoubleArray(s, zSumR2);
        s += ",\n  \"general_count\": ";
        appendDoubleArray(s, gCount);
        s += ",\n  \"general_sum_full\": ";
        appendDoubleArray(s, gSumF);
        s += ",\n  \"general_sum_full_sq\": ";
        appendDoubleArray(s, gSumF2);
        s += ",\n  \"general_sum_reduced\": ";
        appendDoubleArray(s, gSumR);
        s += ",\n  \"general_sum_reduced_sq\": ";
        appendDoubleArray(s, gSumR2);
        s += ",\n  \"row_draw\": ";
        appendDoubleArray(s, rowDraw);
        s += ",\n  \"row_point\": ";
        appendDoubleArray(s, rowPoint);
        s += ",\n  \"row_stratum\": ";
        appendDoubleArray(s, rowStratum);
    } else {
        s += ",\n  \"sum_full\": ";
        appendDoubleArray(s, sumF);
        s += ",\n  \"sum_full_sq\": ";
        appendDoubleArray(s, sumF2);
        s += ",\n  \"sum_reduced\": ";
        appendDoubleArray(s, sumR);
        s += ",\n  \"sum_reduced_sq\": ";
        appendDoubleArray(s, sumR2);
    }
    s += ",\n  \"rows_full\": ";
    appendDoubleArray(s, full);
    s += ",\n  \"rows_reduced\": ";
    appendDoubleArray(s, reduced);
    s += "\n}\n";
    return s;
}

bool
PartialEstimate::fromJson(const std::string &json, PartialEstimate &out,
                          std::string *err)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    out = PartialEstimate{};
    qramsim::json::Cursor c(json);
    if (!c.consume('{'))
        return fail("not a JSON object");
    bool sawMagic = false;
    std::uint64_t u = 0;
    if (!c.consume('}')) {
        for (;;) {
            std::string key;
            if (!c.parseString(key) || !c.consume(':'))
                return fail(c.err.empty() ? "expected key" : c.err);
            bool ok = true;
            if (key == "qramsim_partial") {
                ok = c.parseU64(u);
                sawMagic = ok && u == 1;
            } else if (key == "workload") {
                ok = c.parseString(out.workload);
            } else if (key == "seed") {
                ok = c.parseU64(out.seed);
            } else if (key == "total_shots") {
                ok = c.parseU64(u);
                out.totalShots = u;
            } else if (key == "shot_begin") {
                ok = c.parseU64(u);
                out.shotBegin = u;
            } else if (key == "shot_end") {
                ok = c.parseU64(u);
                out.shotEnd = u;
            } else if (key == "stream") {
                std::string name;
                ok = c.parseString(name) &&
                     parseShotStream(name, out.stream);
                if (!ok)
                    return fail("unknown stream kind");
            } else if (key == "num_points") {
                ok = c.parseU64(u);
                out.numPoints = u;
            } else if (key == "factors") {
                ok = c.parseDoubleArray(out.factors);
            } else if (key == "setup_seconds") {
                ok = c.parseNumber(out.setupSeconds);
            } else if (key == "compute_seconds") {
                ok = c.parseNumber(out.computeSeconds);
            } else if (key == "sum_full") {
                ok = c.parseDoubleArray(out.sumF);
            } else if (key == "sum_full_sq") {
                ok = c.parseDoubleArray(out.sumF2);
            } else if (key == "sum_reduced") {
                ok = c.parseDoubleArray(out.sumR);
            } else if (key == "sum_reduced_sq") {
                ok = c.parseDoubleArray(out.sumR2);
            } else if (key == "rows_full") {
                ok = c.parseDoubleArray(out.full);
            } else if (key == "rows_reduced") {
                ok = c.parseDoubleArray(out.reduced);
            } else if (key == "adaptive") {
                ok = c.parseU64(u);
                out.adaptive = u != 0;
            } else if (key == "draws_used") {
                ok = c.parseU64(u);
                out.drawsUsed = u;
            } else if (key == "empty_full_shot") {
                ok = c.parseNumber(out.emptyFullShot);
            } else if (key == "empty_reduced_shot") {
                ok = c.parseNumber(out.emptyReducedShot);
            } else if (key == "prob_empty") {
                ok = c.parseDoubleArray(out.probEmpty);
            } else if (key == "prob_zonly") {
                ok = c.parseDoubleArray(out.probZOnly);
            } else if (key == "zonly_count") {
                ok = c.parseDoubleArray(out.zCount);
            } else if (key == "zonly_sum_full") {
                ok = c.parseDoubleArray(out.zSumF);
            } else if (key == "zonly_sum_full_sq") {
                ok = c.parseDoubleArray(out.zSumF2);
            } else if (key == "zonly_sum_reduced") {
                ok = c.parseDoubleArray(out.zSumR);
            } else if (key == "zonly_sum_reduced_sq") {
                ok = c.parseDoubleArray(out.zSumR2);
            } else if (key == "general_count") {
                ok = c.parseDoubleArray(out.gCount);
            } else if (key == "general_sum_full") {
                ok = c.parseDoubleArray(out.gSumF);
            } else if (key == "general_sum_full_sq") {
                ok = c.parseDoubleArray(out.gSumF2);
            } else if (key == "general_sum_reduced") {
                ok = c.parseDoubleArray(out.gSumR);
            } else if (key == "general_sum_reduced_sq") {
                ok = c.parseDoubleArray(out.gSumR2);
            } else if (key == "row_draw") {
                ok = c.parseDoubleArray(out.rowDraw);
            } else if (key == "row_point") {
                ok = c.parseDoubleArray(out.rowPoint);
            } else if (key == "row_stratum") {
                ok = c.parseDoubleArray(out.rowStratum);
            } else {
                ok = c.skipValue();
            }
            if (!ok)
                return fail(c.err.empty() ? "bad value for " + key
                                          : c.err);
            if (c.consume('}'))
                break;
            if (!c.consume(','))
                return fail("expected ',' or '}'");
        }
    }
    if (!sawMagic)
        return fail("missing qramsim_partial marker");

    // Structural validation.
    if (out.shotBegin > out.shotEnd || out.shotEnd > out.totalShots)
        return fail("inconsistent shot range");
    if (out.numPoints == 0)
        return fail("num_points must be positive");
    if (out.setupSeconds < 0.0 || out.computeSeconds < 0.0)
        return fail("negative timing");
    if (!out.factors.empty() && out.factors.size() != out.numPoints)
        return fail("factors/num_points mismatch");
    if (out.adaptive) {
        const std::size_t rows = out.rowDraw.size();
        if (out.full.size() != rows || out.reduced.size() != rows ||
            out.rowPoint.size() != rows ||
            out.rowStratum.size() != rows)
            return fail("kept-row arrays disagree in length");
        if (out.probEmpty.size() != out.numPoints ||
            out.probZOnly.size() != out.numPoints)
            return fail(
                "class probability count does not match num_points");
        if (out.zCount.size() != out.numPoints ||
            out.zSumF.size() != out.numPoints ||
            out.zSumF2.size() != out.numPoints ||
            out.zSumR.size() != out.numPoints ||
            out.zSumR2.size() != out.numPoints ||
            out.gCount.size() != out.numPoints ||
            out.gSumF.size() != out.numPoints ||
            out.gSumF2.size() != out.numPoints ||
            out.gSumR.size() != out.numPoints ||
            out.gSumR2.size() != out.numPoints)
            return fail(
                "stratum sum count does not match num_points");
        double prevDraw = -1.0;
        for (std::size_t i = 0; i < rows; ++i) {
            const double d = out.rowDraw[i];
            if (!(d >= static_cast<double>(out.shotBegin)) ||
                !(d < static_cast<double>(out.shotEnd)))
                return fail("kept-row draw outside the shot range");
            // Nondecreasing, not strict: one draw keeps up to one row
            // per sweep point.
            if (!(d >= prevDraw))
                return fail("kept-row draws are not sorted");
            prevDraw = d;
            const double pt = out.rowPoint[i];
            if (!(pt >= 0.0) ||
                !(pt < static_cast<double>(out.numPoints)) ||
                pt != static_cast<double>(
                          static_cast<std::size_t>(pt)))
                return fail("kept-row point index out of range");
            if (out.rowStratum[i] != 0.0 && out.rowStratum[i] != 1.0)
                return fail("kept-row stratum must be 0 or 1");
        }
        // The stratum sums are redundant with the rows; require
        // exact agreement so silently corrupted files cannot merge.
        PartialEstimate check = out;
        check.recomputeSums();
        if (check.zCount != out.zCount || check.zSumF != out.zSumF ||
            check.zSumF2 != out.zSumF2 || check.zSumR != out.zSumR ||
            check.zSumR2 != out.zSumR2 ||
            check.gCount != out.gCount || check.gSumF != out.gSumF ||
            check.gSumF2 != out.gSumF2 || check.gSumR != out.gSumR ||
            check.gSumR2 != out.gSumR2)
            return fail("stratum sums disagree with rows");
        return true;
    }
    // Overflow-safe expected-row-count: shots() and numPoints come
    // straight from the (possibly hostile) file, and their product
    // must not wrap before the comparison.
    if (out.numPoints != 0 &&
        out.shots() >
            std::numeric_limits<std::size_t>::max() / out.numPoints)
        return fail("row count overflows");
    const std::size_t rows = out.shots() * out.numPoints;
    if (out.full.size() != rows || out.reduced.size() != rows)
        return fail("row count does not match shot range");
    if (out.sumF.size() != out.numPoints ||
        out.sumF2.size() != out.numPoints ||
        out.sumR.size() != out.numPoints ||
        out.sumR2.size() != out.numPoints)
        return fail("summary sum count does not match num_points");

    // The sums are redundant with the rows; require exact agreement
    // so silently corrupted files cannot merge.
    PartialEstimate check = out;
    check.recomputeSums();
    if (check.sumF != out.sumF || check.sumF2 != out.sumF2 ||
        check.sumR != out.sumR || check.sumR2 != out.sumR2)
        return fail("summary sums disagree with rows");
    return true;
}

std::string
PartialEstimate::resultJson() const
{
    const std::vector<FidelityResult> results = finalize();
    std::string s;
    s += "{\n  \"qramsim_result\": 1,\n  \"workload\": ";
    appendEscaped(s, workload);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ",\n  \"seed\": %llu,\n  \"stream\": \"%s\",\n"
                  "  \"shots\": %zu,\n  \"num_points\": %zu,\n"
                  "  \"points\": [\n",
                  static_cast<unsigned long long>(seed),
                  shotStreamName(stream), totalShots, numPoints);
    s += buf;
    for (std::size_t j = 0; j < results.size(); ++j) {
        s += "    {";
        if (!factors.empty()) {
            s += "\"factor\": ";
            appendDouble(s, factors[j]);
            s += ", ";
        }
        s += "\"full\": ";
        appendDouble(s, results[j].full);
        s += ", \"full_stderr\": ";
        appendDouble(s, results[j].fullStderr);
        s += ", \"reduced\": ";
        appendDouble(s, results[j].reduced);
        s += ", \"reduced_stderr\": ";
        appendDouble(s, results[j].reducedStderr);
        s += "}";
        if (j + 1 < results.size())
            s += ",";
        s += "\n";
    }
    s += "  ]\n}\n";
    return s;
}

} // namespace qramsim
