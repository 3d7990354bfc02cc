/**
 * @file
 * See cachestore.hh for the design. The implementation notes that
 * matter:
 *
 *  - Both caches serialize their bookkeeping on one mutex each, but
 *    never hold it across a build or a disk read — the coalescing
 *    claim (a Building slot / an inflight_ mark) is what keeps
 *    duplicate work out, not the lock.
 *
 *  - A failed build is propagated to every waiter and NOT cached:
 *    the slot is erased before the wakeup, so the next acquire gets
 *    a fresh attempt. A failed RESULT computation is handled by the
 *    caller via abandon(), which hands the claim to one waiter.
 *
 *  - Spill files are named by FNV-1a 64 of the key but store the
 *    full key; a load serves bytes only after an exact key match and
 *    payload validation, so collisions and corruption degrade to a
 *    recompute, never to wrong data.
 */

#include "sim/cachestore.hh"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>

#include "common/atomicfile.hh"
#include "common/env.hh"
#include "common/json.hh"

namespace qramsim {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

// --- CompiledCache -----------------------------------------------------

struct CompiledCache::Slot
{
    enum class State
    {
        Building,
        Ready,
        Failed,
    };
    State state = State::Building;
    std::shared_ptr<void> payload;
    double buildSeconds = 0.0;
    std::string error;
};

CompiledCache::CompiledCache(std::size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{
}

void
CompiledCache::touchLocked(const std::string &key)
{
    lru_.remove(key);
    if (slots_.count(key))
        lru_.push_front(key);
}

void
CompiledCache::evictLocked()
{
    while (lru_.size() > capacity_) {
        slots_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

bool
CompiledCache::acquire(
    const std::string &key,
    const std::function<std::shared_ptr<void>(std::string *err)>
        &build,
    Result &out, std::string *err)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        auto it = slots_.find(key);
        if (it == slots_.end()) {
            auto slot = std::make_shared<Slot>();
            slots_[key] = slot;
            ++stats_.misses;
            lk.unlock();
            const auto t0 = std::chrono::steady_clock::now();
            std::string berr;
            std::shared_ptr<void> payload = build(&berr);
            const double secs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            lk.lock();
            if (payload) {
                slot->state = Slot::State::Ready;
                slot->payload = payload;
                slot->buildSeconds = secs;
                touchLocked(key);
                evictLocked();
                cv_.notify_all();
                out.payload = std::move(payload);
                out.buildSeconds = secs;
                out.built = true;
                return true;
            }
            slot->state = Slot::State::Failed;
            slot->error =
                berr.empty() ? "compiled-cache build failed" : berr;
            slots_.erase(key); // failures are never cached
            ++stats_.failures;
            cv_.notify_all();
            if (err)
                *err = slot->error;
            return false;
        }
        std::shared_ptr<Slot> slot = it->second;
        if (slot->state == Slot::State::Ready) {
            touchLocked(key);
            ++stats_.hits;
            out.payload = slot->payload;
            out.buildSeconds = 0.0;
            out.built = false;
            return true;
        }
        // In flight: wait for the builder, then serve its outcome.
        ++stats_.coalesced;
        cv_.wait(lk, [&] {
            return slot->state != Slot::State::Building;
        });
        if (slot->state == Slot::State::Ready) {
            touchLocked(key);
            out.payload = slot->payload;
            out.buildSeconds = 0.0;
            out.built = false;
            return true;
        }
        if (err)
            *err = slot->error;
        return false;
    }
}

CompiledCache::Stats
CompiledCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::size_t
CompiledCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return lru_.size();
}

// --- ResultCache -------------------------------------------------------

ResultCache::ResultCache(std::size_t capacity, std::string spillDir,
                         Validator validate,
                         std::size_t spillCapBytes)
    : capacity_(capacity < 1 ? 1 : capacity),
      spillDir_(std::move(spillDir)), spillCapBytes_(spillCapBytes),
      validate_(std::move(validate))
{
    // Startup sweep: a restarted server inherits whatever its
    // predecessors left behind — torn temps, stale-schema wrappers,
    // and an unbounded accumulation of valid ones.
    sweepSpill(true);
}

void
ResultCache::sweepSpill(bool checkContents)
{
    if (spillDir_.empty())
        return;
    DIR *d = ::opendir(spillDir_.c_str());
    if (!d)
        return; // nothing spilled yet
    struct SpillFile
    {
        std::string path;
        std::uint64_t size;
        long long mtimeNs;
    };
    std::vector<SpillFile> files;
    std::uint64_t swept = 0;
    for (dirent *e; (e = ::readdir(d)) != nullptr;) {
        const std::string name = e->d_name;
        if (name == "." || name == "..")
            continue;
        const std::string path = spillDir_ + "/" + name;
        struct stat st;
        if (::lstat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
            continue;
        const std::size_t tmpAt = name.find(".json.tmp.");
        if (tmpAt != std::string::npos) {
            // atomicWriteFile temp: orphaned iff its writer (the pid
            // suffix) is gone; a live writer's in-flight temp is
            // left alone.
            unsigned long pid = 0;
            const bool live =
                env::parseUnsigned(name.c_str() + tmpAt + 10,
                                   std::numeric_limits<
                                       unsigned long>::max(),
                                   pid) &&
                pid != 0 &&
                !(::kill(static_cast<pid_t>(pid), 0) != 0 &&
                  errno == ESRCH);
            if (!live && std::remove(path.c_str()) == 0)
                ++swept;
            continue;
        }
        // Wrapper name: exactly 16 lowercase hex digits + ".json".
        // Anything else in the directory is not ours: never deleted,
        // never counted toward the cap.
        bool wrapperName =
            name.size() == 21 && name.compare(16, 5, ".json") == 0;
        for (std::size_t i = 0; wrapperName && i < 16; ++i) {
            const char c = name[i];
            wrapperName = (c >= '0' && c <= '9') ||
                          (c >= 'a' && c <= 'f');
        }
        if (!wrapperName)
            continue;
        if (checkContents) {
            // Cheap shape probe: every wrapper opens with the magic
            // key. Full key/payload validation still happens on load;
            // this just stops garbage from occupying cap space.
            char head[64] = {0};
            std::FILE *f = std::fopen(path.c_str(), "rb");
            if (f) {
                const std::size_t nr =
                    std::fread(head, 1, sizeof head - 1, f);
                head[nr] = '\0';
                std::fclose(f);
            }
            if (std::strstr(head, "\"qramsim_cached_result\"") ==
                nullptr) {
                if (std::remove(path.c_str()) == 0)
                    ++swept;
                continue;
            }
        }
        files.push_back({path, static_cast<std::uint64_t>(st.st_size),
                         static_cast<long long>(st.st_mtim.tv_sec) *
                                 1000000000ll +
                             st.st_mtim.tv_nsec});
    }
    ::closedir(d);
    std::uint64_t evicted = 0;
    if (spillCapBytes_ > 0) {
        std::uint64_t total = 0;
        for (const SpillFile &f : files)
            total += f.size;
        // Oldest write first; path tiebreak keeps the order (and
        // therefore tests) deterministic on coarse-mtime filesystems.
        std::sort(files.begin(), files.end(),
                  [](const SpillFile &a, const SpillFile &b) {
                      return a.mtimeNs != b.mtimeNs
                                 ? a.mtimeNs < b.mtimeNs
                                 : a.path < b.path;
                  });
        for (const SpillFile &f : files) {
            if (total <= spillCapBytes_)
                break;
            if (std::remove(f.path.c_str()) == 0) {
                total -= f.size;
                ++evicted;
            }
        }
    }
    if (swept + evicted > 0) {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.spillSwept += swept;
        stats_.spillEvictions += evicted;
    }
}

std::string
ResultCache::spillPath(const std::string &key) const
{
    if (spillDir_.empty())
        return "";
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.json",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return spillDir_ + "/" + name;
}

void
ResultCache::touchLocked(const std::string &key)
{
    lru_.remove(key);
    if (entries_.count(key))
        lru_.push_front(key);
}

void
ResultCache::insertLocked(const std::string &key,
                          const std::string &payload)
{
    entries_[key] = payload;
    touchLocked(key);
    while (lru_.size() > capacity_) {
        entries_.erase(lru_.back());
        lru_.pop_back();
        ++stats_.evictions;
    }
}

/**
 * Probe the spill file for @p key. Called WITHOUT the lock held (the
 * caller owns the inflight claim, which is what prevents duplicate
 * probes); mutates only locals, the stats, and the filesystem. True
 * with the validated payload, false on miss or on a rejected blob
 * (which is deleted and counted so it cannot waste another probe).
 */
bool
ResultCache::loadSpill(const std::string &key, std::string &payload)
{
    const std::string path = spillPath(key);
    std::string text;
    if (!readFile(path, text))
        return false; // plain miss: no file
    bool magic = false;
    std::string storedKey, storedPayload;
    json::Cursor c(text);
    bool shapeOk = c.consume('{') && !c.consume('}');
    while (shapeOk) {
        std::string k;
        if (!c.parseString(k) || !c.consume(':')) {
            shapeOk = false;
            break;
        }
        bool ok = true;
        if (k == "qramsim_cached_result") {
            std::uint64_t u = 0;
            ok = c.parseU64(u);
            magic = ok && u == 1;
        } else if (k == "key") {
            ok = c.parseString(storedKey);
        } else if (k == "payload") {
            ok = c.parseString(storedPayload);
        } else {
            ok = c.skipValue();
        }
        if (!ok) {
            shapeOk = false;
            break;
        }
        if (c.consume('}'))
            break;
        if (!c.consume(',')) {
            shapeOk = false;
            break;
        }
    }
    const bool valid = shapeOk && magic && storedKey == key &&
                       !storedPayload.empty() &&
                       (!validate_ || validate_(storedPayload));
    if (!valid) {
        // Corrupt, collided, or stale-schema blob: delete and
        // recompute. Never served.
        std::remove(path.c_str());
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.corruptSpills;
        return false;
    }
    payload = std::move(storedPayload);
    return true;
}

ResultCache::Outcome
ResultCache::acquire(const std::string &key, std::string &payload)
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            touchLocked(key);
            ++stats_.hits;
            payload = it->second;
            return Outcome::Hit;
        }
        if (!inflight_.count(key)) {
            inflight_[key] = true; // claim
            if (spillDir_.empty()) {
                ++stats_.misses;
                return Outcome::MustCompute;
            }
            lk.unlock();
            std::string blob;
            const bool fromDisk = loadSpill(key, blob);
            lk.lock();
            if (fromDisk) {
                insertLocked(key, blob);
                inflight_.erase(key);
                ++stats_.spillHits;
                cv_.notify_all();
                payload = std::move(blob);
                return Outcome::SpillHit;
            }
            ++stats_.misses;
            return Outcome::MustCompute; // claim retained
        }
        // Identical request in flight: wait, then either serve its
        // published result or (after an abandon) take over the claim
        // by looping.
        cv_.wait(lk);
        auto done = entries_.find(key);
        if (done != entries_.end()) {
            touchLocked(key);
            ++stats_.coalesced;
            payload = done->second;
            return Outcome::Coalesced;
        }
    }
}

void
ResultCache::publish(const std::string &key,
                     const std::string &payload)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        insertLocked(key, payload);
        inflight_.erase(key);
        ++stats_.publishes;
        cv_.notify_all();
    }
    if (spillDir_.empty())
        return;
    std::string wrapper = "{\n  \"qramsim_cached_result\": 1,\n"
                          "  \"key\": ";
    json::appendEscaped(wrapper, key);
    wrapper += ",\n  \"payload\": ";
    json::appendEscaped(wrapper, payload);
    wrapper += "\n}\n";
    std::string err;
    if (!makeDirs(spillDir_) ||
        !atomicWriteFile(spillPath(key), wrapper, &err)) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.spillWriteFailures;
        return;
    }
    // Re-enforce the byte cap after every write (content probing is
    // startup-only: blobs this process just wrote are known-good).
    sweepSpill(false);
}

void
ResultCache::abandon(const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    inflight_.erase(key);
    cv_.notify_all();
}

ResultCache::Stats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
}

} // namespace qramsim
