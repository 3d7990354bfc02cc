/**
 * @file
 * Strict parsing for the QRAMSIM_* environment knobs.
 *
 * Every runtime knob (QRAMSIM_THREADS, QRAMSIM_FSYNC, ...) follows
 * the same contract: an unset variable is silently ignored, a
 * well-formed value is applied, and anything else — garbage, a sign,
 * embedded whitespace, or a value that overflows the knob's range —
 * is rejected with one warning to stderr and the built-in default
 * kept. The strtoul-based parsers this
 * replaces accepted "  +7junk" and silently truncated values wider
 * than the destination type.
 */

#ifndef QRAMSIM_COMMON_ENV_HH
#define QRAMSIM_COMMON_ENV_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace qramsim {
namespace env {

/**
 * Parse @p text as an unsigned decimal integer in [0, cap]. Strict:
 * the whole string must be digits — no sign, no whitespace, no
 * trailing junk — and any value exceeding @p cap (including ones that
 * would overflow unsigned long itself) fails instead of wrapping.
 */
inline bool
parseUnsigned(const char *text, unsigned long cap, unsigned long &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    unsigned long v = 0;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        const unsigned long d = static_cast<unsigned long>(*p - '0');
        if (v > (cap - d) / 10)
            return false; // v * 10 + d would exceed cap
        v = v * 10 + d;
    }
    out = v;
    return true;
}

/**
 * Parse @p text as a finite decimal double. Strict: no leading
 * whitespace (strtod would silently skip it), no hexadecimal form
 * (strtod's "0x1p1"), the entire string must be consumed, and
 * non-finite results (inf/nan, overflowing exponents) fail. Used by
 * the CLI tools for flag values, where a malformed number must be an
 * error rather than a silent zero.
 */
inline bool
parseDouble(const char *text, double &out)
{
    if (text == nullptr || *text == '\0')
        return false;
    if (*text == ' ' || *text == '\t' || *text == '\n' ||
        *text == '\r' || *text == '\v' || *text == '\f')
        return false;
    if (std::strpbrk(text, "xX") != nullptr)
        return false;
    char *after = nullptr;
    const double v = std::strtod(text, &after);
    if (after == text || *after != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

/**
 * Read an unsigned env knob. Unset → nullopt (silent); malformed or
 * out of [0, cap] → nullopt after one stderr warning naming the
 * variable and the rejected value.
 */
inline std::optional<unsigned long>
readUnsigned(const char *name, unsigned long cap)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return std::nullopt;
    unsigned long v = 0;
    if (!parseUnsigned(text, cap, v)) {
        std::fprintf(stderr,
                     "warning: ignoring malformed %s='%s' "
                     "(want an integer in [0, %lu])\n",
                     name, text, cap);
        return std::nullopt;
    }
    return v;
}

/**
 * Read a boolean env knob: "1"/"on"/"true"/"yes" and
 * "0"/"off"/"false"/"no" (lowercase). Unset → nullopt (silent);
 * anything else → nullopt after one stderr warning.
 */
inline std::optional<bool>
readBool(const char *name)
{
    const char *text = std::getenv(name);
    if (text == nullptr)
        return std::nullopt;
    auto is = [&](const char *a, const char *b, const char *c,
                  const char *d) {
        auto eq = [&](const char *w) {
            const char *p = text;
            for (; *p != '\0' && *w != '\0'; ++p, ++w)
                if (*p != *w)
                    return false;
            return *p == '\0' && *w == '\0';
        };
        return eq(a) || eq(b) || eq(c) || eq(d);
    };
    if (is("1", "on", "true", "yes"))
        return true;
    if (is("0", "off", "false", "no"))
        return false;
    std::fprintf(stderr,
                 "warning: ignoring malformed %s='%s' "
                 "(want 1/on/true/yes or 0/off/false/no)\n",
                 name, text);
    return std::nullopt;
}

} // namespace env
} // namespace qramsim

#endif // QRAMSIM_COMMON_ENV_HH
