/**
 * @file
 * Unit tests for the common substrate: BitVec, Rng, Table, JSON
 * strings.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <random>

#include "common/bitvec.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "common/table.hh"

namespace qramsim {
namespace {

TEST(BitVec, StartsAllZero)
{
    BitVec b(130);
    EXPECT_EQ(b.size(), 130u);
    EXPECT_TRUE(b.none());
    EXPECT_EQ(b.popcount(), 0u);
    for (std::size_t i = 0; i < 130; ++i)
        EXPECT_FALSE(b.get(i));
}

TEST(BitVec, SetGetFlipAcrossWordBoundary)
{
    BitVec b(130);
    for (std::size_t i : {0u, 63u, 64u, 65u, 127u, 128u, 129u}) {
        b.set(i, true);
        EXPECT_TRUE(b.get(i));
        b.flip(i);
        EXPECT_FALSE(b.get(i));
        b.flip(i);
        EXPECT_TRUE(b.get(i));
    }
    EXPECT_EQ(b.popcount(), 7u);
}

TEST(BitVec, SwapBits)
{
    BitVec b(70);
    b.set(3, true);
    b.swapBits(3, 69);
    EXPECT_FALSE(b.get(3));
    EXPECT_TRUE(b.get(69));
    b.swapBits(3, 69);
    EXPECT_TRUE(b.get(3));
    EXPECT_FALSE(b.get(69));
    // Swapping equal bits is a no-op.
    b.swapBits(10, 11);
    EXPECT_FALSE(b.get(10));
    EXPECT_FALSE(b.get(11));
}

TEST(BitVec, ExtractDeposit)
{
    BitVec b(100);
    b.deposit(60, 10, 0x2ABu);
    EXPECT_EQ(b.extract(60, 10), 0x2ABu);
    EXPECT_EQ(b.extract(0, 60), 0u);
    b.deposit(60, 10, 0);
    EXPECT_TRUE(b.none());
}

TEST(BitVec, EqualityAndHash)
{
    BitVec a(80), b(80);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.set(79, true);
    EXPECT_NE(a, b);
    b.set(79, false);
    EXPECT_EQ(a, b);
    BitVec c(81);
    EXPECT_NE(a, c); // different widths differ
}

TEST(BitVec, ValueConstructor)
{
    BitVec b(16, 0xA5);
    EXPECT_EQ(b.extract(0, 16), 0xA5u);
    EXPECT_TRUE(b.get(0));
    EXPECT_FALSE(b.get(1));
    EXPECT_TRUE(b.get(2));
}

TEST(BitVec, ToString)
{
    BitVec b(4);
    b.set(1, true);
    EXPECT_EQ(b.toString(), "0100");
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, BernoulliEdges)
{
    Rng r(1);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng r(7);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += r.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / double(trials), 0.3, 0.01);
}

TEST(Rng, UniformRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowBound)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, ForkIndependence)
{
    Rng a(5);
    Rng b = a.fork();
    // Forked stream differs from the parent's continuation.
    EXPECT_NE(a.bits(), b.bits());
}

TEST(Rng, UniformMatchesGenerateCanonical)
{
    // Rng::uniform's hand-rolled mapping (one engine step scaled by
    // 2^-64, clamped below 1.0) must reproduce libstdc++'s
    // generate_canonical<double, 53>(mt19937_64) sequence bit for bit
    // — the historical draw stream every fixed-seed result in the
    // repo was recorded against. On standard libraries with a
    // different (implementation-defined) generate_canonical this
    // check is skipped: the repo's own sequence is the defined one.
    std::mt19937_64 probe(123);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    {
        std::mt19937_64 raw(123);
        if (dist(probe) != Rng::uniformFromBits(raw()))
            GTEST_SKIP() << "non-libstdc++ generate_canonical";
    }
    std::mt19937_64 engine(20260730);
    Rng rng(20260730);
    for (int i = 0; i < 100000; ++i)
        ASSERT_EQ(dist(engine), rng.uniform()) << "draw " << i;
}

TEST(Rng, UniformFromBitsMonotoneAndClamped)
{
    // The integer-cut machinery (cutFor) relies on monotonicity and
    // the sub-1.0 clamp of the bits->uniform mappings.
    const std::uint64_t top = ~std::uint64_t(0);
    EXPECT_LT(Rng::uniformFromBits(top), 1.0);
    EXPECT_LT(CounterRng::uniformFromBits(top), 1.0);
    EXPECT_EQ(Rng::uniformFromBits(0), 0.0);
    Rng r(3);
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t a = r.bits(), b = r.bits();
        const std::uint64_t lo = std::min(a, b), hi = std::max(a, b);
        EXPECT_LE(Rng::uniformFromBits(lo), Rng::uniformFromBits(hi));
        EXPECT_LE(CounterRng::uniformFromBits(lo),
                  CounterRng::uniformFromBits(hi));
    }
}

TEST(Rng, CutForNeverMissesAnEvent)
{
    // For any threshold t and any raw draw r: if the uniform image of
    // r fires (u < t), then r must pass the integer rejection test
    // (r <= cutFor(t)) — the exactness contract of the per-site
    // streamer's fast path. Also check tightness one draw above the
    // cut.
    Rng r(77);
    const double thresholds[] = {0.0,    1e-12, 1e-6, 1e-3,
                                 0.2023, 0.5,   1.0 - 1e-15, 1.0, 2.0};
    for (double t : thresholds) {
        const std::uint64_t cutS = Rng::cutFor(t);
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t x = r.bits();
            if (Rng::uniformFromBits(x) < t) {
                EXPECT_LE(x, cutS) << "t=" << t;
            }
        }
        // Just above the cut must NOT fire (tightness), when
        // representable.
        if (cutS < ~std::uint64_t(0)) {
            EXPECT_GE(Rng::uniformFromBits(cutS + 1), t);
        }
    }
}

TEST(Table, RowsAndCsv)
{
    Table t("demo", {"a", "b"});
    t.addRow({"1", "2"});
    t.addRow({Table::fmt(3.14159, 2), Table::fmt(std::uint64_t(7))});
    EXPECT_EQ(t.data().size(), 2u);
    EXPECT_EQ(t.data()[1][0], "3.14");
    EXPECT_EQ(t.data()[1][1], "7");
}

TEST(Table, CsvRoundTrip)
{
    Table t("demo", {"x", "y"});
    t.addRow({"1", "hello"});
    t.addRow({"2", "world"});
    const std::string path = ::testing::TempDir() + "/qramsim_t.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::ifstream f(path);
    std::string line;
    std::getline(f, line);
    EXPECT_EQ(line, "x,y");
    std::getline(f, line);
    EXPECT_EQ(line, "1,hello");
    std::getline(f, line);
    EXPECT_EQ(line, "2,world");
}

TEST(Table, CsvFailsOnBadPath)
{
    Table t("demo", {"x"});
    EXPECT_FALSE(t.writeCsv("/nonexistent-dir-xyz/t.csv"));
}

// --- JSON strings --------------------------------------------------------

std::string
escaped(const std::string &v)
{
    std::string s;
    json::appendEscaped(s, v);
    return s;
}

/** Parse one JSON string; false (with the cursor's error) if refused. */
bool
unescaped(const std::string &text, std::string &out, std::string *err)
{
    json::Cursor c(text);
    const bool ok = c.parseString(out);
    *err = c.err;
    return ok;
}

TEST(Json, EscapesAtStartMiddleAndEndByteExact)
{
    const std::string ctl("\x01", 1), nul("\0", 1);
    const struct
    {
        std::string raw, text;
    } cases[] = {
        {"", "\"\""},
        {"\"ab", "\"\\\"ab\""},
        {"a\"b", "\"a\\\"b\""},
        {"ab\"", "\"ab\\\"\""},
        {"\\ab", "\"\\\\ab\""},
        {"a\\b", "\"a\\\\b\""},
        {"ab\\", "\"ab\\\\\""},
        {ctl + "ab", "\"\\u0001ab\""},
        {"a\nb", "\"a\\u000ab\""},
        {"ab\x1f", "\"ab\\u001f\""},
        {nul + "a" + nul, "\"\\u0000a\\u0000\""},
        {"\"\\\t", "\"\\\"\\\\\\u0009\""},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.text);
        EXPECT_EQ(escaped(c.raw), c.text);
        std::string back, err;
        ASSERT_TRUE(unescaped(c.text, back, &err)) << err;
        EXPECT_EQ(back, c.raw);
    }

    // The reader's own short escapes decode wherever they sit.
    std::string back, err;
    ASSERT_TRUE(unescaped("\"\\nx\\/y\\r\"", back, &err)) << err;
    EXPECT_EQ(back, "\nx/y\r");
}

TEST(Json, LongUnescapedStringCopiesThrough)
{
    // Every byte from 0x20 up but '"' and '\\' needs no escape, high
    // bytes included.
    std::string raw;
    for (std::size_t i = 0; i < (1u << 20); ++i) {
        const char c = static_cast<char>(0x20 + i % 0xe0);
        raw += c == '"' || c == '\\' ? 'x' : c;
    }
    const std::string text = escaped(raw);
    EXPECT_EQ(text, "\"" + raw + "\"");
    std::string back, err;
    ASSERT_TRUE(unescaped(text, back, &err)) << err;
    EXPECT_EQ(back, raw);
}

TEST(Json, WideUnicodeEscapesAreRefused)
{
    // \u escapes name one byte; a wider code point used to decode to
    // its low byte ("\u012d" and "\u4e2d" read as "-").
    std::string back, err;
    ASSERT_TRUE(unescaped("\"\\u00ff\\u002d\"", back, &err)) << err;
    EXPECT_EQ(back, std::string("\xff-"));
    for (const char *text :
         {"\"\\u0100\"", "\"\\u012d\"", "\"a\\u4e2db\"", "\"\\uFFFF\""}) {
        SCOPED_TRACE(text);
        EXPECT_FALSE(unescaped(text, back, &err));
        EXPECT_EQ(err, "\\u escape beyond one byte");
    }
}

} // namespace
} // namespace qramsim
