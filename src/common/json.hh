/**
 * @file
 * Minimal JSON writer/reader for the tool artifacts (shard partials,
 * orchestrator job manifests, bench trajectory records).
 *
 * The subset is deliberately tiny: objects with string keys whose
 * values are strings, numbers, arrays of numbers, or arrays of
 * strings. Unknown keys can be skipped, so formats can grow without
 * breaking old readers.
 *
 * The reader is hardened for hostile input — these files cross
 * process and host boundaries, get truncated by crashed workers, and
 * are fed back by resumable jobs, so every parse failure must be a
 * clean typed error (bool + message), never a throw, abort, or UB:
 *
 *  - numbers must be finite and JSON-shaped (leading '-' or digit; no
 *    hex, no "inf"/"nan", no overflow-to-infinity);
 *  - unsigned integers are parsed digit-by-digit with an exact
 *    overflow check (strtoull would accept "-1" by wrapping);
 *  - \u escapes require four hex digits and name one byte (at most
 *    \u00ff; a wider code point is refused, never truncated);
 *  - every cursor advance is bounds-checked, so a file cut at any
 *    byte yields "truncated ..." rather than a read past the end
 *    (corpus-tested over all prefixes in tests/test_orchestrator.cc).
 *
 * Writers emit doubles with %.17g, which round-trips exactly through
 * strtod — byte-identical re-serialization is what the sharded-merge
 * and checkpoint/resume guarantees are built on.
 */

#ifndef QRAMSIM_COMMON_JSON_HH
#define QRAMSIM_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace qramsim {
namespace json {

/** Shortest exact double: %.17g round-trips through strtod. */
inline void
appendDouble(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += buf;
}

inline void
appendDoubleArray(std::string &s, const std::vector<double> &v)
{
    s += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        appendDouble(s, v[i]);
    }
    s += ']';
}

inline void
appendEscaped(std::string &s, const std::string &v)
{
    s += '"';
    const char *p = v.data();
    const char *const end = p + v.size();
    for (;;) {
        // Copy the run up to the next byte that needs an escape in
        // one append: payloads nested in journal lines are long runs.
        const char *run = p;
        while (p < end && *p != '"' && *p != '\\' &&
               static_cast<unsigned char>(*p) >= 0x20)
            ++p;
        s.append(run, p);
        if (p == end)
            break;
        const char c = *p++;
        if (c == '"' || c == '\\') {
            s += '\\';
            s += c;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            s += buf;
        }
    }
    s += '"';
}

inline void
appendStringArray(std::string &s, const std::vector<std::string> &v)
{
    s += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ',';
        appendEscaped(s, v[i]);
    }
    s += ']';
}

/**
 * Bounds-checked pull parser over a byte range. Every method returns
 * false on malformed or truncated input with the first failure
 * recorded in @p err; no method ever reads past @p end.
 */
struct Cursor
{
    const char *p;
    const char *end;
    std::string err;

    Cursor(const char *begin, const char *end_) : p(begin), end(end_)
    {}

    explicit Cursor(const std::string &text)
        : p(text.data()), end(text.data() + text.size())
    {}

    bool
    fail(const char *msg)
    {
        if (err.empty())
            err = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end &&
               (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p != '\\') {
                // The run up to the next quote or escape, in one append.
                const char *run = p;
                while (p < end && *p != '"' && *p != '\\')
                    ++p;
                out.append(run, p);
            } else {
                ++p;
                if (p >= end)
                    return fail("truncated escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("truncated \\u escape");
                    unsigned v = 0;
                    for (int i = 1; i <= 4; ++i) {
                        const char h = p[i];
                        unsigned d;
                        if (h >= '0' && h <= '9')
                            d = static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            d = static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            d = static_cast<unsigned>(h - 'A') + 10;
                        else
                            return fail("malformed \\u escape");
                        v = v * 16 + d;
                    }
                    // Strings here are bytes: an escape names one.
                    if (v > 0xff)
                        return fail("\\u escape beyond one byte");
                    out += static_cast<char>(v);
                    p += 4;
                    break;
                  }
                  default: return fail("unsupported escape");
                }
                ++p;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    /**
     * A finite JSON number. Rejects strtod extensions that valid
     * writers never emit and tampered files might: hex ("0x1p4"),
     * "inf"/"nan", a leading '+', and values that overflow to
     * infinity.
     */
    bool
    parseNumber(double &out)
    {
        skipWs();
        if (p >= end)
            return fail("truncated value");
        if (*p != '-' && (*p < '0' || *p > '9'))
            return fail("expected number");
        const char *digits = *p == '-' ? p + 1 : p;
        if (digits + 1 < end && digits[0] == '0' &&
            (digits[1] == 'x' || digits[1] == 'X'))
            return fail("hex numbers are not JSON");
        // The buffer backing [p, end) is a std::string, so a NUL
        // terminator exists at *end and strtod cannot overrun.
        char *after = nullptr;
        out = std::strtod(p, &after);
        if (after == p || after > end)
            return fail("expected number");
        if (!std::isfinite(out))
            return fail("non-finite number");
        p = after;
        return true;
    }

    /** Strict unsigned decimal: digits only, exact overflow check. */
    bool
    parseU64(std::uint64_t &out)
    {
        skipWs();
        if (p >= end || *p < '0' || *p > '9')
            return fail("expected unsigned integer");
        constexpr std::uint64_t cap =
            std::numeric_limits<std::uint64_t>::max();
        std::uint64_t v = 0;
        while (p < end && *p >= '0' && *p <= '9') {
            const std::uint64_t d =
                static_cast<std::uint64_t>(*p - '0');
            if (v > (cap - d) / 10)
                return fail("integer overflows 64 bits");
            v = v * 10 + d;
            ++p;
        }
        out = v;
        return true;
    }

    bool
    parseDoubleArray(std::vector<double> &out)
    {
        out.clear();
        if (!consume('['))
            return fail("expected array");
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            double v;
            if (!parseNumber(v))
                return false;
            out.push_back(v);
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseStringArray(std::vector<std::string> &out)
    {
        out.clear();
        if (!consume('['))
            return fail("expected array");
        skipWs();
        if (consume(']'))
            return true;
        for (;;) {
            std::string v;
            if (!parseString(v))
                return false;
            out.push_back(std::move(v));
            if (consume(']'))
                return true;
            if (!consume(','))
                return fail("expected ',' or ']' in array");
        }
    }

    /** Skip any value of the supported subset (unknown keys). */
    bool
    skipValue()
    {
        skipWs();
        if (p >= end)
            return fail("truncated value");
        if (*p == '"') {
            std::string tmp;
            return parseString(tmp);
        }
        if (*p == '[') {
            // Arrays may hold numbers or strings; peek one element.
            const char *save = p;
            ++p;
            skipWs();
            const bool strings = p < end && *p == '"';
            p = save;
            if (strings) {
                std::vector<std::string> tmp;
                return parseStringArray(tmp);
            }
            std::vector<double> tmp;
            return parseDoubleArray(tmp);
        }
        double tmp;
        return parseNumber(tmp);
    }
};

} // namespace json
} // namespace qramsim

#endif // QRAMSIM_COMMON_JSON_HH
