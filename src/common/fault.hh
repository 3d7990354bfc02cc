/**
 * @file
 * Deterministic fault injection for the sharded-estimation workers
 * (`QRAMSIM_FAULT`), the testing face of the orchestrator's recovery
 * machinery: every failure mode the supervisor must survive — worker
 * crash, stall past the deadline, torn partial file, silently
 * corrupted JSON, and each exit-code class — can be triggered on an
 * exact shard of an exact run, from ctest and CI, with no timing
 * races.
 *
 * Grammar (parsed with the strict env.hh contract — a malformed spec
 * is one loud warning and no faults, never a silent half-armed
 * state):
 *
 *   QRAMSIM_FAULT = spec [ ';' spec ]...
 *   spec          = kind ':' shot [ ':' param ]
 *
 * `shot` is a GLOBAL shot index: the spec fires in the worker whose
 * shard range contains that shot, which pins each fault to exactly
 * one shard of any partition. Kinds:
 *
 *   crash:S        die by SIGKILL before writing any output
 *                  (abnormal termination, no exit code)
 *   stall:S[:SEC]  sleep SEC seconds (default 3600) before running,
 *                  then complete normally — a pure straggler, killed
 *                  by the orchestrator's deadline or out-raced by a
 *                  speculative duplicate
 *   truncate:S[:N] compute the partial, then write only its first N
 *                  bytes (default: half) NON-atomically and exit 0 —
 *                  a torn file behind a success exit code
 *   corrupt:S      flip one digit inside the partial's row data and
 *                  exit 0 — well-formed JSON whose redundant sums no
 *                  longer match (caught by PartialEstimate::fromJson)
 *   exit:S[:CODE]  exit CODE (default 5) without writing output —
 *                  exercises the retry classifier's code mapping
 *
 * Broker-layer kinds (consulted only by the `qramsim_server --broker`
 * pull loop and, for journal-truncate, by the broker itself — never by
 * the resident executor's Server::handle):
 *
 *   kill-on-pull:S      worker dies by SIGKILL immediately after
 *                       pulling the assignment whose shard range
 *                       contains S — the lease is live, no heartbeat
 *                       ever arrives, the broker must re-dispatch
 *   drop-heartbeat:S    worker computes the shard containing S but
 *                       sends NO heartbeats while doing so — looks
 *                       dead to the broker (steal), then still
 *                       commits (duplicate cross-check path)
 *   lease-stall:S[:SEC] worker heartbeats normally but with a FROZEN
 *                       progress counter and delays the compute by
 *                       SEC seconds (default 5) — the lease expires
 *                       un-renewed and the shard is stolen while the
 *                       worker is demonstrably alive
 *   journal-truncate:S  the broker writes only the first half of the
 *                       journal line committing the shard containing
 *                       S, then dies by SIGKILL — a torn tail the
 *                       restarted broker must drop and recompute
 *
 * One-shot marks: when QRAMSIM_FAULT_MARK is set to a path prefix,
 * spec i fires only if `<prefix>.<i>` can be created exclusively
 * (O_CREAT|O_EXCL). The first worker to hit the fault consumes it;
 * the orchestrator's retry then runs clean — the "fail once, recover"
 * scenario the CI fault-injection leg scripts. Without a mark path a
 * fault fires on every matching attempt (permanent-failure testing).
 */

#ifndef QRAMSIM_COMMON_FAULT_HH
#define QRAMSIM_COMMON_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/env.hh"

namespace qramsim {
namespace fault {

enum class Kind : std::uint8_t
{
    Crash,
    Stall,
    Truncate,
    Corrupt,
    Exit,
    KillOnPull,
    DropHeartbeat,
    LeaseStall,
    JournalTruncate,
};

struct Spec
{
    Kind kind = Kind::Crash;
    std::size_t shot = 0; ///< global shot index selecting the victim
    double param = 0.0;   ///< stall seconds / keep bytes / exit code
};

/**
 * Parse a QRAMSIM_FAULT value. Strict: any malformed field fails the
 * whole string (with the reason in @p err) and leaves @p out empty —
 * a fault harness that half-understands its configuration would test
 * the wrong thing.
 */
inline bool
parseSpecs(const char *text, std::vector<Spec> &out, std::string *err)
{
    auto fail = [&](const std::string &msg) {
        out.clear();
        if (err)
            *err = msg;
        return false;
    };
    out.clear();
    if (text == nullptr || *text == '\0')
        return fail("empty fault spec");
    std::string item;
    for (const char *p = text;; ++p) {
        if (*p != ';' && *p != '\0') {
            item += *p;
            continue;
        }
        // One spec: kind:shot[:param]
        const std::size_t c1 = item.find(':');
        if (c1 == std::string::npos)
            return fail("fault spec '" + item + "' wants kind:shot");
        const std::string kindName = item.substr(0, c1);
        Spec spec;
        if (kindName == "crash")
            spec.kind = Kind::Crash;
        else if (kindName == "stall")
            spec.kind = Kind::Stall;
        else if (kindName == "truncate")
            spec.kind = Kind::Truncate;
        else if (kindName == "corrupt")
            spec.kind = Kind::Corrupt;
        else if (kindName == "exit")
            spec.kind = Kind::Exit;
        else if (kindName == "kill-on-pull")
            spec.kind = Kind::KillOnPull;
        else if (kindName == "drop-heartbeat")
            spec.kind = Kind::DropHeartbeat;
        else if (kindName == "lease-stall")
            spec.kind = Kind::LeaseStall;
        else if (kindName == "journal-truncate")
            spec.kind = Kind::JournalTruncate;
        else
            return fail("unknown fault kind '" + kindName + "'");
        const std::size_t c2 = item.find(':', c1 + 1);
        const std::string shotText =
            item.substr(c1 + 1, c2 == std::string::npos
                                    ? std::string::npos
                                    : c2 - c1 - 1);
        unsigned long shot = 0;
        if (!env::parseUnsigned(shotText.c_str(),
                                std::numeric_limits<
                                    unsigned long>::max(),
                                shot))
            return fail("malformed fault shot '" + shotText + "'");
        spec.shot = shot;
        // Kind-specific parameter defaults.
        spec.param = spec.kind == Kind::Stall        ? 3600.0
                     : spec.kind == Kind::Exit       ? 5.0
                     : spec.kind == Kind::LeaseStall ? 5.0
                                                     : -1.0;
        if (c2 != std::string::npos) {
            const std::string paramText = item.substr(c2 + 1);
            if (!env::parseDouble(paramText.c_str(), spec.param) ||
                spec.param < 0.0)
                return fail("malformed fault parameter '" +
                            paramText + "'");
        }
        out.push_back(spec);
        item.clear();
        if (*p == '\0')
            break;
    }
    if (out.empty())
        return fail("empty fault spec");
    return true;
}

/**
 * The armed fault set of this process: QRAMSIM_FAULT parsed under the
 * env.hh contract (unset → none, silently; malformed → none, one
 * stderr warning).
 */
inline std::vector<Spec>
fromEnv()
{
    std::vector<Spec> specs;
    const char *text = std::getenv("QRAMSIM_FAULT");
    if (text == nullptr)
        return specs;
    std::string err;
    if (!parseSpecs(text, specs, &err))
        std::fprintf(stderr,
                     "warning: ignoring malformed QRAMSIM_FAULT='%s' "
                     "(%s)\n",
                     text, err.c_str());
    return specs;
}

/**
 * Try to consume the one-shot mark of spec @p index. True when the
 * fault should fire: either no QRAMSIM_FAULT_MARK is set (faults are
 * unconditional) or this process won the exclusive creation of the
 * mark file.
 */
inline bool
acquireMark(std::size_t index)
{
    const char *prefix = std::getenv("QRAMSIM_FAULT_MARK");
    if (prefix == nullptr || *prefix == '\0')
        return true;
    const std::string path =
        std::string(prefix) + "." + std::to_string(index);
    const int fd =
        ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false; // already consumed (or unwritable prefix)
    ::close(fd);
    return true;
}

/**
 * The fault to fire in a worker covering global shots [begin, end),
 * or nullptr. Scans in spec order and consumes at most one mark.
 */
inline const Spec *
arm(const std::vector<Spec> &specs, std::size_t begin,
    std::size_t end)
{
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].shot < begin || specs[i].shot >= end)
            continue;
        if (acquireMark(i))
            return &specs[i];
    }
    return nullptr;
}

/**
 * Deterministically corrupt a partial-estimate JSON payload: advance
 * the first digit of the row data (9 wraps to 1 — never to 0, which
 * for single-digit values could round-trip to a consistent file).
 * The result stays well-formed JSON, but the redundant summary sums
 * no longer match the rows, which is exactly the tamper class
 * PartialEstimate::fromJson must reject.
 */
inline void
corruptJson(std::string &payload)
{
    const std::size_t at = payload.find("\"rows_full\"");
    for (std::size_t i = at == std::string::npos ? 0 : at;
         i < payload.size(); ++i) {
        const char c = payload[i];
        if (c >= '0' && c <= '9') {
            payload[i] = c == '9' ? '1' : static_cast<char>(c + 1);
            return;
        }
    }
}

} // namespace fault
} // namespace qramsim

#endif // QRAMSIM_COMMON_FAULT_HH
