/**
 * @file
 * Crash-safe file replacement: write-temp-then-rename, the one
 * primitive every JSON artifact writer in the tree goes through
 * (shard partials and merge results, orchestrator checkpoints and job
 * manifests, the bench trajectory's read-modify-write). A reader can
 * then assume any file it finds is complete-or-absent: a worker
 * killed mid-write leaves at most a stale temp file, never a torn
 * target — which is what makes a checkpoint directory resumable and
 * lets duplicate shard completions be compared byte for byte. The
 * two helpers beside it, readFile and makeDirs, are the read side and
 * the directory setup every one of those writers shares.
 */

#ifndef QRAMSIM_COMMON_ATOMICFILE_HH
#define QRAMSIM_COMMON_ATOMICFILE_HH

#include <cerrno>
#include <cstdio>
#include <string>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/env.hh"

namespace qramsim {

/**
 * Process-wide durability toggle for atomicWriteFile. Defaults to ON
 * (or the QRAMSIM_FSYNC env knob, strict env.hh parsing); tests and
 * benchmarks that churn thousands of throwaway files may flip the
 * returned reference to false — crash-durability is meaningless for
 * artifacts that do not outlive the process.
 */
inline bool &
atomicFileFsync()
{
    static bool on = env::readBool("QRAMSIM_FSYNC").value_or(true);
    return on;
}

/**
 * Atomically replace @p path with the bytes @p fill writes to the
 * FILE* it is handed (@p fill returns false on a write error). The
 * bytes land in `path.tmp.<pid>` first (pid-suffixed so concurrent
 * writers — e.g. a speculative duplicate shard — never clobber each
 * other's temp) and are renamed over the target only after a clean
 * close, so a crash at any instant leaves the old content or the new,
 * never a prefix. Streaming through @p fill lets a writer replace a
 * large file (the broker's journal snapshot) without first building
 * it in memory; atomicWriteFile below is the one-string case.
 *
 * DURABILITY INVARIANT: the temp file is fsync'd before the rename
 * and the parent directory is fsync'd after it (unless
 * atomicFileFsync() is off). rename(2) alone orders nothing against
 * the data blocks — on a power-loss-shaped crash a journaling
 * filesystem may commit the rename but not the contents, surfacing a
 * ZERO-LENGTH committed file, which is exactly the
 * "complete-or-absent" promise this primitive exists to keep. Do not
 * remove the fsync without removing every caller that relies on a
 * found file being complete (checkpoint resume, journal replay,
 * spill-cache loads).
 *
 * Non-regular targets (pipes, /dev/null, ...) must not be renamed
 * over — a device node would be replaced by a regular file — so those
 * are written directly; such targets opt out of crash-safety by
 * nature. On failure returns false with a one-line reason in @p err
 * (when non-null) and removes the temp file.
 */
template <class Fill>
inline bool
atomicWriteWith(const std::string &path, Fill &&fill,
                std::string *err = nullptr)
{
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    struct stat st;
    const bool regular =
        ::stat(path.c_str(), &st) != 0 || S_ISREG(st.st_mode);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    const std::string &target = regular ? tmp : path;
    std::FILE *f = std::fopen(target.c_str(), "wb");
    if (!f)
        return fail("cannot open " + target + " for writing");
    bool wrote = fill(f);
    // Flush libc buffers and push the data to stable storage BEFORE
    // the rename publishes the name (see the invariant above).
    if (wrote && regular && atomicFileFsync())
        wrote = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        if (regular)
            std::remove(tmp.c_str());
        return fail("short write to " + target);
    }
    if (regular && std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return fail("cannot rename " + tmp + " over " + path);
    }
    if (regular && atomicFileFsync()) {
        // Make the rename itself durable: fsync the parent directory.
        // Best-effort — some filesystems refuse directory fsync, and
        // the data is already safe; only the NAME could revert.
        const std::size_t slash = path.rfind('/');
        const std::string dir =
            slash == std::string::npos ? "." : path.substr(0, slash);
        const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
        if (dfd >= 0) {
            ::fsync(dfd);
            ::close(dfd);
        }
    }
    return true;
}

/** Atomically replace @p path with @p content (see atomicWriteWith). */
inline bool
atomicWriteFile(const std::string &path, const std::string &content,
                std::string *err = nullptr)
{
    return atomicWriteWith(
        path,
        [&](std::FILE *f) {
            return std::fwrite(content.data(), 1, content.size(), f) ==
                   content.size();
        },
        err);
}

/** Read the whole file at @p path into @p out. False when it cannot
 *  be opened or a read fails. */
inline bool
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[1 << 16];
    std::size_t nr;
    out.clear();
    while ((nr = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, nr);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    return ok;
}

/** mkdir -p: create every missing component of @p path. */
inline bool
makeDirs(const std::string &path)
{
    std::string prefix;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        if (i < path.size() && path[i] != '/') {
            prefix += path[i];
            continue;
        }
        if (!prefix.empty() &&
            ::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
        if (i < path.size())
            prefix += '/';
    }
    return true;
}

} // namespace qramsim

#endif // QRAMSIM_COMMON_ATOMICFILE_HH
