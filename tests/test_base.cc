/**
 * @file
 * Unit tests for the base utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

#include "base/bitops.hh"
#include "base/csv.hh"
#include "base/logging.hh"
#include "base/random.hh"
#include "base/stats.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "obs/json.hh"

namespace cosim {
namespace {

// ---------------------------------------------------------------- bitops

TEST(Bitops, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(12));
}

TEST(Bitops, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2((1ull << 33) + 5), 33u);
}

TEST(Bitops, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(Bitops, Alignment)
{
    EXPECT_EQ(alignDown(0x12345, 0x1000), 0x12000u);
    EXPECT_EQ(alignUp(0x12345, 0x1000), 0x13000u);
    EXPECT_EQ(alignUp(0x12000, 0x1000), 0x12000u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
}

TEST(Bitops, BitExtract)
{
    EXPECT_EQ(bits(0xff00, 15, 8), 0xffull);
    EXPECT_EQ(bits(0xabcd, 3, 0), 0xdull);
    EXPECT_EQ(bits(~0ull, 63, 0), ~0ull);
}

// ----------------------------------------------------------------- units

TEST(Units, Format)
{
    EXPECT_EQ(formatSize(64), "64B");
    EXPECT_EQ(formatSize(4 * KiB), "4KB");
    EXPECT_EQ(formatSize(32 * MiB), "32MB");
    EXPECT_EQ(formatSize(2 * GiB), "2GB");
    EXPECT_EQ(formatSize(1536), "1536B"); // not a whole KiB multiple
}

TEST(Units, Parse)
{
    EXPECT_EQ(parseSize("64"), 64u);
    EXPECT_EQ(parseSize("64B"), 64u);
    EXPECT_EQ(parseSize("4KB"), 4 * KiB);
    EXPECT_EQ(parseSize("4k"), 4 * KiB);
    EXPECT_EQ(parseSize("32MiB"), 32 * MiB);
    EXPECT_EQ(parseSize("2 GB"), 2 * GiB);
}

TEST(Units, RoundTrip)
{
    for (std::uint64_t v : {64ull, 4096ull, 4ull * MiB, 256ull * MiB})
        EXPECT_EQ(parseSize(formatSize(v)), v);
}

// ---------------------------------------------------------------- random

TEST(Random, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, RecordsConstructionSeed)
{
    Rng rng(123);
    EXPECT_EQ(rng.seed(), 123u);
    // Drawing values must not disturb the recorded provenance.
    rng.next();
    EXPECT_EQ(rng.seed(), 123u);
    EXPECT_EQ(Rng().seed(), 0x9e3779b97f4a7c15ull);
}

TEST(Random, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int differing = 0;
    for (int i = 0; i < 16; ++i)
        differing += a.next() != b.next() ? 1 : 0;
    EXPECT_GT(differing, 12);
}

TEST(Random, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Random, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        std::int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Random, DoubleInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Random, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian(2.0, 3.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.5);
}

/** The per-draw Zipf formula ZipfSampler replaced, as the reference. */
std::uint64_t
referenceZipf(Rng& rng, std::uint64_t n, double s)
{
    double u = rng.nextDouble();
    if (s <= 0.0)
        return rng.nextBounded(n);
    double one_minus_s = 1.0 - s;
    double x;
    if (std::fabs(one_minus_s) < 1e-9) {
        x = std::pow(static_cast<double>(n), u);
    } else {
        double max_cdf = std::pow(static_cast<double>(n), one_minus_s);
        x = std::pow(u * (max_cdf - 1.0) + 1.0, 1.0 / one_minus_s);
    }
    if (x < 1.0)
        x = 1.0;
    std::uint64_t rank = static_cast<std::uint64_t>(x - 1.0);
    if (rank >= n)
        rank = n - 1;
    return rank;
}

TEST(Random, ZipfSamplerMatchesPerDrawFormula)
{
    // The uniform case, the log-uniform one, FIMI's exponent and a
    // steep one; FIMI's item universe and a small one.
    for (double s : {0.0, 1.0, 1.05, 2.5}) {
        for (std::uint64_t n : {std::uint64_t{4000}, std::uint64_t{7}}) {
            const ZipfSampler zipf(n, s);
            Rng sampled(101);
            Rng reference(101);
            for (int i = 0; i < 100000; ++i) {
                ASSERT_EQ(zipf.draw(sampled), referenceZipf(reference, n, s))
                    << "s=" << s << " n=" << n << " draw " << i;
            }
            // Both consumed the same draws.
            EXPECT_EQ(sampled.next(), reference.next())
                << "s=" << s << " n=" << n;
        }
    }
}

TEST(Random, ZipfIsSkewed)
{
    Rng rng(17);
    const std::uint64_t n = 100;
    const ZipfSampler zipf(n, 1.1);
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.draw(rng)];
    // Rank 0 must dominate and the tail must still be reachable.
    EXPECT_GT(counts[0], counts[9] * 2);
    int tail = 0;
    for (std::uint64_t r = 50; r < n; ++r)
        tail += counts[r];
    EXPECT_GT(tail, 0);
}

TEST(Random, ZipfZeroExponentIsUniform)
{
    Rng rng(19);
    const std::uint64_t n = 10;
    const ZipfSampler zipf(n, 0.0);
    std::vector<int> counts(n, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.draw(rng)];
    for (std::uint64_t r = 0; r < n; ++r)
        EXPECT_NEAR(counts[r], 5000, 600);
}

TEST(Random, BoolProbability)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.nextBool(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

// ----------------------------------------------------------------- stats

TEST(Stats, GroupCollectAndDump)
{
    // A group collects values in the order added.
    const std::uint64_t hits = 90;
    const std::uint64_t misses = 10;
    stats::Group g("cache");
    g.add("hits", double(hits));
    g.add("misses", double(misses));
    g.add("miss_rate", stats::safeRatio(double(misses),
                                        double(hits + misses)));

    EXPECT_EQ(g.name, "cache");
    ASSERT_EQ(g.values.size(), 3u);
    EXPECT_EQ(g.values[0].first, "hits");
    EXPECT_DOUBLE_EQ(g.values[0].second, 90.0);
    EXPECT_EQ(g.values[2].first, "miss_rate");
    EXPECT_DOUBLE_EQ(g.values[2].second, 0.1);

    const std::string dump = obs::json::statsDump({g});
    EXPECT_NE(dump.find("\"hits\": 90,"), std::string::npos) << dump;
    EXPECT_NE(dump.find("\"miss_rate\": 0.1"), std::string::npos) << dump;
}

TEST(Stats, Helpers)
{
    EXPECT_DOUBLE_EQ(stats::safeRatio(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(stats::perKiloInst(5, 1000), 5.0);
    EXPECT_DOUBLE_EQ(stats::perKiloInst(5, 0), 0.0);
}

// ------------------------------------------------------------------- str

TEST(Str, Split)
{
    auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Str, TrimAndLower)
{
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(toLower("AbC-12"), "abc-12");
}

TEST(Str, FormatHelpers)
{
    EXPECT_EQ(strFormat("x=%d y=%s", 5, "z"), "x=5 y=z");
    EXPECT_TRUE(startsWith("--scale=2", "--scale="));
    EXPECT_FALSE(startsWith("-s", "--scale="));
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
}

// ------------------------------------------------------------------- csv

TEST(Csv, WritesAndEscapes)
{
    std::string path = ::testing::TempDir() + "cosim_csv_test.csv";
    {
        CsvWriter csv(path);
        csv.writeRow({"name", "va,lue", "quo\"te"});
        csv.writeNumericRow("row", {1.5, 2.0});
    }
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256];
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "name,\"va,lue\",\"quo\"\"te\"\n");
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "row,1.5,2\n");
    std::fclose(f);
    std::remove(path.c_str());
}

// ----------------------------------------------------------------- table

TEST(Table, AsciiLayout)
{
    TableWriter t("Title");
    t.setHeader({"Workload", "MPKI"});
    t.addRow({"FIMI", "3.76"});
    t.addRow({"MDS", "18.95"});
    std::string out = t.renderAscii();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("| FIMI"), std::string::npos);
    // Numeric columns are right-aligned.
    EXPECT_NE(out.find(" 3.76 |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, Markdown)
{
    TableWriter t;
    t.setHeader({"a", "b"});
    t.addRow({"1", "2"});
    std::string md = t.renderMarkdown();
    EXPECT_NE(md.find("| a | b |"), std::string::npos);
    EXPECT_NE(md.find("|---|---|"), std::string::npos);
    EXPECT_NE(md.find("| 1 | 2 |"), std::string::npos);
}

// --------------------------------------------------------------- logging

void
throwingHandler(LogLevel level, const std::string& msg)
{
    if (level == LogLevel::Panic || level == LogLevel::Fatal)
        throw std::runtime_error(msg);
}

TEST(Logging, PanicReachesHandler)
{
    LogHandler prev = setLogHandler(throwingHandler);
    EXPECT_THROW(panic("boom %d", 42), std::runtime_error);
    try {
        panic("boom %d", 42);
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("boom 42"),
                  std::string::npos);
    }
    setLogHandler(prev);
}

TEST(Logging, PanicIfConditionFalseIsQuiet)
{
    LogHandler prev = setLogHandler(throwingHandler);
    EXPECT_NO_THROW(panic_if(false, "never"));
    EXPECT_THROW(panic_if(1 + 1 == 2, "always"), std::runtime_error);
    setLogHandler(prev);
}

TEST(Logging, FatalIfReachesHandler)
{
    LogHandler prev = setLogHandler(throwingHandler);
    EXPECT_THROW(fatal_if(true, "bad config %s", "x"),
                 std::runtime_error);
    setLogHandler(prev);
}

namespace {
std::vector<std::pair<LogLevel, std::string>> captured_logs;
} // namespace

void
capturingHandler(LogLevel level, const std::string& msg)
{
    captured_logs.emplace_back(level, msg);
}

TEST(Logging, VerbosityFiltersBelowThreshold)
{
    LogHandler prev_handler = setLogHandler(capturingHandler);
    LogLevel prev_verbosity = setLogVerbosity(LogLevel::Info);
    captured_logs.clear();

    // Default (Info): debug dropped, info/warn delivered. Call
    // logMessage() directly so the check holds even in NDEBUG builds
    // where the debug() macro compiles to nothing.
    logMessage(LogLevel::Debug, "dropped %d", 1);
    logMessage(LogLevel::Info, "kept info");
    logMessage(LogLevel::Warn, "kept warn");
    ASSERT_EQ(captured_logs.size(), 2u);
    EXPECT_EQ(captured_logs[0].first, LogLevel::Info);
    EXPECT_EQ(captured_logs[1].first, LogLevel::Warn);

    // Raising to Warn drops info too.
    captured_logs.clear();
    setLogVerbosity(LogLevel::Warn);
    logMessage(LogLevel::Info, "now dropped");
    logMessage(LogLevel::Warn, "still kept");
    ASSERT_EQ(captured_logs.size(), 1u);
    EXPECT_EQ(captured_logs[0].second, "still kept");

    // Lowering to Debug delivers everything.
    captured_logs.clear();
    setLogVerbosity(LogLevel::Debug);
    logMessage(LogLevel::Debug, "debug %s", "visible");
    ASSERT_EQ(captured_logs.size(), 1u);
    EXPECT_EQ(captured_logs[0].first, LogLevel::Debug);
    EXPECT_EQ(captured_logs[0].second, "debug visible");

    setLogVerbosity(prev_verbosity);
    setLogHandler(prev_handler);
}

TEST(Logging, FatalAndPanicAreNeverFiltered)
{
    LogHandler prev_handler = setLogHandler(throwingHandler);
    LogLevel prev_verbosity = setLogVerbosity(LogLevel::Panic);
    // Even at the most restrictive verbosity, fatal/panic reach the
    // handler (here: throw instead of terminating).
    EXPECT_THROW(fatal("must not be filtered"), std::runtime_error);
    EXPECT_THROW(panic("must not be filtered"), std::runtime_error);
    setLogVerbosity(prev_verbosity);
    setLogHandler(prev_handler);
}

} // namespace
} // namespace cosim
