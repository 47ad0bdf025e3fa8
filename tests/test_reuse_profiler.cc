/**
 * @file
 * Tests for the configuration-independent reuse-distance profiler.
 */

#include <gtest/gtest.h>

#include "base/random.hh"
#include "cache/cache.hh"
#include "trace/reuse_profiler.hh"

namespace cosim {
namespace {

TEST(ReuseProfiler, ColdAccountingAndFootprint)
{
    ReuseDistanceProfiler prof(64, 1 << 16);
    for (Addr a = 0; a < 64 * 64; a += 64)
        prof.access(a);
    EXPECT_EQ(prof.accesses(), 64u);
    EXPECT_EQ(prof.coldAccesses(), 64u);
    EXPECT_EQ(prof.footprintLines(), 64u);
    // Everything is cold: the miss ratio is 1 at every capacity.
    EXPECT_DOUBLE_EQ(prof.missRatioAt(1024), 1.0);
}

TEST(ReuseProfiler, ImmediateReuseHasDistanceZero)
{
    ReuseDistanceProfiler prof(64, 1 << 16);
    prof.access(0x100);
    prof.access(0x100);
    prof.access(0x108); // same line
    EXPECT_EQ(prof.coldAccesses(), 1u);
    EXPECT_EQ(prof.histogram()[0], 2u);
    // A 1-line cache would capture both reuses.
    EXPECT_DOUBLE_EQ(prof.missRatioAt(1), 1.0 / 3.0);
}

TEST(ReuseProfiler, CyclicSweepDistanceEqualsFootprint)
{
    // Sweeping N lines cyclically gives every reuse distance N-1.
    ReuseDistanceProfiler prof(64, 1 << 16);
    const int n = 16;
    for (int pass = 0; pass < 3; ++pass)
        for (int l = 0; l < n; ++l)
            prof.access(static_cast<Addr>(l) * 64);

    // LRU with >= n lines hits all reuses; with < n lines, none.
    double cold_floor = static_cast<double>(n) / (3.0 * n);
    EXPECT_NEAR(prof.missRatioAt(n), cold_floor, 1e-9);
    EXPECT_DOUBLE_EQ(prof.missRatioAt(n - 1), 1.0);
    EXPECT_EQ(prof.workingSetLines(0.01), 16u);
}

TEST(ReuseProfiler, MixedHotColdCurveHasTwoLevels)
{
    // A 4-line hot set touched between strides of a long stream: the
    // miss-ratio curve steps down at capacity ~5.
    ReuseDistanceProfiler prof(64, 1 << 18);
    Addr stream = 1 << 20;
    for (int i = 0; i < 2000; ++i) {
        prof.access(static_cast<Addr>(i % 4) * 64); // hot
        prof.access(stream);                        // cold stream
        stream += 64;
    }
    double small = prof.missRatioAt(2);
    double medium = prof.missRatioAt(8);
    EXPECT_GT(small, 0.9);
    // The hot half of the accesses hit once capacity covers hot+1.
    EXPECT_NEAR(medium, 0.5, 0.02);
}

TEST(ReuseProfiler, MissRatioIsMonotoneInCapacity)
{
    ReuseDistanceProfiler prof(64, 1 << 18);
    Rng rng(3);
    for (int i = 0; i < 50000; ++i)
        prof.access(rng.nextBounded(1 << 19));
    double prev = 1.1;
    for (std::uint64_t cap = 1; cap <= (1 << 14); cap <<= 1) {
        double mr = prof.missRatioAt(cap);
        EXPECT_LE(mr, prev + 1e-9);
        prev = mr;
    }
}

TEST(ReuseProfiler, MatchesFullyAssociativeLruSimulation)
{
    // Ground truth: the profiler's miss ratio at capacity C must equal
    // an actual C-line fully-associative LRU cache on the same stream.
    const std::uint64_t cap = 32;
    ReuseDistanceProfiler prof(64, 1 << 18);
    CacheParams p{"ref", cap * 64, 64, static_cast<std::uint32_t>(cap)};
    Cache ref(p);

    Rng rng(9);
    std::uint64_t misses = 0;
    std::uint64_t n = 20000;
    for (std::uint64_t i = 0; i < n; ++i) {
        // Skewed stream: hot region + occasional far touches.
        Addr a = rng.nextBool(0.7) ? rng.nextBounded(40) * 64
                                   : rng.nextBounded(1 << 16);
        prof.access(a);
        if (!ref.access(a, false).hit)
            ++misses;
    }
    double simulated = static_cast<double>(misses) / static_cast<double>(n);
    EXPECT_NEAR(prof.missRatioAt(cap), simulated, 1e-9);
}

TEST(ReuseProfiler, RespectsAccessBudget)
{
    ReuseDistanceProfiler prof(64, 100);
    for (int i = 0; i < 500; ++i)
        prof.access(static_cast<Addr>(i) * 64);
    EXPECT_EQ(prof.accesses(), 100u);
    EXPECT_TRUE(prof.saturated());
}

TEST(ReuseProfiler, IgnoresBusMessages)
{
    ReuseDistanceProfiler prof;
    BusTransaction msg;
    msg.kind = TxnKind::Message;
    msg.addr = 0xDA6D000000000000ull;
    prof.observe(msg);
    EXPECT_EQ(prof.accesses(), 0u);

    BusTransaction rd;
    rd.kind = TxnKind::ReadLine;
    rd.addr = 0x40;
    prof.observe(rd);
    EXPECT_EQ(prof.accesses(), 1u);
}

} // namespace
} // namespace cosim
