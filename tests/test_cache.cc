/**
 * @file
 * Unit and property tests for the LRU cache model.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "cache/cache.hh"
#include "dragonhead/dragonhead.hh"
#include "mem/fsb.hh"

namespace cosim {
namespace {

CacheParams
smallCache(std::uint64_t size = 1024, std::uint32_t line = 64,
           std::uint32_t assoc = 2)
{
    CacheParams p;
    p.name = "test";
    p.size = size;
    p.lineSize = line;
    p.assoc = assoc;
    return p;
}

TEST(Cache, GeometryDerivation)
{
    Cache c(smallCache(32 * KiB, 64, 8));
    EXPECT_EQ(c.params().sets(), 64u);
    EXPECT_EQ(c.lineAddr(0x12345), 0x12340u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    auto first = c.access(0x100, false);
    EXPECT_FALSE(first.hit);
    auto second = c.access(0x13f, false); // same 64B line
    EXPECT_TRUE(second.hit);
    auto third = c.access(0x140, false); // next line
    EXPECT_FALSE(third.hit);
    EXPECT_EQ(c.stats().accesses, 3u);
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().hits(), 1u);
}

TEST(Cache, ReadWriteCounters)
{
    Cache c(smallCache());
    c.access(0x0, false);
    c.access(0x0, true);
    c.access(0x40, true);
    EXPECT_EQ(c.stats().reads, 1u);
    EXPECT_EQ(c.stats().writes, 2u);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().writeMisses, 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2-way, set 0: lines at stride sets*64.
    CacheParams p = smallCache(1024, 64, 2); // 8 sets
    Cache c(p);
    Addr stride = 8 * 64;
    c.access(0 * stride, false);
    c.access(1 * stride, false);
    c.access(0 * stride, false); // refresh line 0
    auto out = c.access(2 * stride, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 1 * stride); // LRU victim is line 1
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(stride));
    EXPECT_TRUE(c.probe(2 * stride));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    CacheParams p = smallCache(1024, 64, 2);
    Cache c(p);
    Addr stride = 8 * 64;
    c.access(0, true); // dirty
    c.access(stride, false);
    auto out = c.access(2 * stride, false); // evicts dirty line 0
    EXPECT_TRUE(out.evicted);
    EXPECT_TRUE(out.evictedDirty);
    EXPECT_EQ(out.victimAddr, 0u);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, VictimAddressReconstruction)
{
    CacheParams p = smallCache(4096, 64, 1); // direct-mapped, 64 sets
    Cache c(p);
    Addr a = 0x7f3240; // arbitrary
    c.access(a, true);
    Addr conflicting = a + 64 * 64; // same set, different tag
    auto out = c.access(conflicting, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, c.lineAddr(a));
}

TEST(Cache, InvalidateAndFlush)
{
    Cache c(smallCache());
    c.access(0x80, true);
    c.access(0x100, false);
    c.access(0x200, false);
    EXPECT_EQ(c.linesValid(), 3u);
    c.flush();
    EXPECT_EQ(c.linesValid(), 0u);
    EXPECT_FALSE(c.probe(0x80));
    EXPECT_EQ(c.stats().accesses, 3u); // stats are kept
}

TEST(Cache, PrefetchFillSemantics)
{
    Cache c(smallCache());
    EXPECT_TRUE(c.prefetchFill(0x1000));
    EXPECT_FALSE(c.prefetchFill(0x1000)); // already present
    EXPECT_EQ(c.stats().prefetchFills, 1u);

    auto out = c.access(0x1000, false);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.firstHitOnPrefetch);
    EXPECT_EQ(c.stats().usefulPrefetches, 1u);

    auto again = c.access(0x1000, false);
    EXPECT_TRUE(again.hit);
    EXPECT_FALSE(again.firstHitOnPrefetch); // flag consumed
    EXPECT_EQ(c.stats().usefulPrefetches, 1u);
}

TEST(Cache, FullyAssociativeHoldsExactlyItsCapacity)
{
    CacheParams p = smallCache(16 * 64, 64, 16); // 1 set, 16 ways
    Cache c(p);
    for (Addr a = 0; a < 16 * 64; a += 64)
        c.access(a, false);
    EXPECT_EQ(c.linesValid(), 16u);
    for (Addr a = 0; a < 16 * 64; a += 64)
        EXPECT_TRUE(c.access(a, false).hit);
    c.access(16 * 64, false);
    EXPECT_EQ(c.linesValid(), 16u); // one line replaced, not grown
}

TEST(Cache, StatsReset)
{
    Cache c(smallCache());
    c.access(0, false);
    c.resetStats();
    EXPECT_EQ(c.stats().accesses, 0u);
    EXPECT_TRUE(c.probe(0)); // contents survive a stats reset
}

// --------------------------------------------------- LRU stack property

/**
 * The inclusion (stack) property of LRU: for caches with the same line
 * size and set count, a cache with larger associativity never misses
 * more. We check the stronger same-stream comparison across a range of
 * associativities using a shared random-ish trace.
 */
class LruStackProperty : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(LruStackProperty, MoreWaysNeverMoreMisses)
{
    std::uint32_t small_ways = GetParam();
    std::uint32_t big_ways = small_ways * 2;
    const std::uint32_t sets = 16;

    CacheParams small_p = smallCache(
        static_cast<std::uint64_t>(sets) * 64 * small_ways, 64,
        small_ways);
    CacheParams big_p = smallCache(
        static_cast<std::uint64_t>(sets) * 64 * big_ways, 64, big_ways);
    Cache small_c(small_p);
    Cache big_c(big_p);

    Rng rng(31 + small_ways);
    for (int i = 0; i < 20000; ++i) {
        // Mix of streaming and hot-set reuse.
        Addr a = (rng.nextBool(0.5) ? rng.nextBounded(64)
                                    : rng.nextBounded(4096)) *
                 64;
        small_c.access(a, rng.nextBool(0.3));
        big_c.access(a, false);
    }
    EXPECT_LE(big_c.stats().misses, small_c.stats().misses);
}

INSTANTIATE_TEST_SUITE_P(Associativities, LruStackProperty,
                         ::testing::Values(1, 2, 4, 8));

/**
 * LRU inclusion across cache *sizes* (same line, same associativity
 * scaling by sets is not stack-inclusive in general, so we compare
 * fully-associative caches where LRU inclusion is exact).
 */
TEST(CacheProperty, FullyAssociativeLruInclusion)
{
    CacheParams small_p = smallCache(8 * 64, 64, 8);   // 8 lines
    CacheParams big_p = smallCache(32 * 64, 64, 32);   // 32 lines
    Cache small_c(small_p);
    Cache big_c(big_p);

    Rng rng(97);
    for (int i = 0; i < 30000; ++i) {
        Addr a = rng.nextBounded(64) * 64;
        auto s = small_c.access(a, false);
        auto b = big_c.access(a, false);
        // Inclusion: whatever hits in the small cache hits in the big.
        if (s.hit) {
            EXPECT_TRUE(b.hit);
        }
    }
    EXPECT_LE(big_c.stats().misses, small_c.stats().misses);
}

TEST(Cache, PlaysATraceWithoutGrowing)
{
    CacheParams p = smallCache(4 * KiB, 64, 4);
    Cache c(p);
    Rng rng(5);
    for (int i = 0; i < 50000; ++i)
        c.access(rng.nextBounded(1 << 20), rng.nextBool(0.3));
    EXPECT_LE(c.linesValid(), p.size / p.lineSize);
    EXPECT_EQ(c.stats().accesses, 50000u);
    EXPECT_GT(c.stats().misses, 0u);
}

TEST(Cache, HotSetStaysResident)
{
    // Round-robin over a set-balanced working set equal to the cache
    // size is LRU's friendly case: only cold misses.
    CacheParams p = smallCache(4 * KiB, 64, 4);
    Cache c(p);
    const int lines = 64; // exactly the cache capacity
    for (int pass = 0; pass < 50; ++pass)
        for (int l = 0; l < lines; ++l)
            c.access(static_cast<Addr>(l) * 64, false);
    EXPECT_NEAR(c.stats().missRate(), 64.0 / (50.0 * 64.0), 1e-9);
}

TEST(Cache, LruExactOrder)
{
    // One 4-way set: lines at a 64 B stride all land in it.
    Cache c(smallCache(4 * 64, 64, 4));
    for (Addr line = 0; line < 4; ++line)
        c.access(line * 64, false);
    c.access(0, false); // recency now 1, 2, 3, 0
    auto out = c.access(4 * 64, false);
    EXPECT_TRUE(out.evicted);
    EXPECT_EQ(out.victimAddr, 1 * 64u);
    c.access(2 * 64, false); // recency now 3, 0, 4, 2
    EXPECT_EQ(c.access(5 * 64, false).victimAddr, 3 * 64u);
    EXPECT_EQ(c.access(6 * 64, false).victimAddr, 0u);
}

// 8 sets of 64 B lines: tags start at bit 9, so address bits 38 and up
// do not fit an entry. Line 0 holds the entry that 2^40's tag would
// truncate to; 2^40 must still read as absent.
constexpr Addr outOfRange = Addr{1} << 40;

TEST(Cache, ProbeReportsOutOfRangeLineAbsent)
{
    Cache c(smallCache());
    c.access(0, false);
    EXPECT_FALSE(c.probe(outOfRange));
    EXPECT_EQ(c.stats().accesses, 1u);
}

// ------------------------------------------------------------ size sweep

// A full LLC sweep attaches one Dragonhead per configuration to one bus
// (harness/sweep_cell.hh). These check the properties it relies on.

TEST(SweepBank, MatchesIndividualCaches)
{
    // Passive emulators sharing one bus end exactly where the same
    // configurations end when each runs alone on its own bus.
    std::vector<DragonheadParams> configs(3);
    configs[0].llc = smallCache(1 * KiB, 64, 2);
    configs[1].llc = smallCache(4 * KiB, 64, 4);
    configs[2].llc = smallCache(16 * KiB, 128, 8);

    std::vector<BusTransaction> stream = {
        msg::encode(msg::Type::StartEmulation, 0)};
    Rng rng(41);
    for (int i = 0; i < 30000; ++i) {
        BusTransaction txn;
        txn.addr = rng.nextBounded(1 << 16) & ~Addr{63};
        txn.size = 64;
        txn.kind = rng.nextBool(0.25) ? TxnKind::WriteLine
                                      : TxnKind::ReadLine;
        stream.push_back(txn);
    }

    FrontSideBus shared;
    shared.setBatchCapacity(4096);
    std::vector<std::unique_ptr<Dragonhead>> swept;
    for (const auto& cfg : configs) {
        swept.push_back(std::make_unique<Dragonhead>(cfg));
        shared.attach(swept.back().get());
    }
    for (const BusTransaction& txn : stream)
        shared.issue(txn);
    shared.flush();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        Dragonhead solo(configs[i]);
        FrontSideBus bus;
        bus.attach(&solo);
        for (const BusTransaction& txn : stream)
            bus.issue(txn);
        EXPECT_EQ(swept[i]->results().accesses, solo.results().accesses);
        EXPECT_EQ(swept[i]->results().misses, solo.results().misses);
        EXPECT_GT(solo.results().misses, 0u);
    }
}

TEST(SweepBank, BiggerCachesMissLess)
{
    std::vector<Cache> sweep;
    for (std::uint64_t kb : {1, 2, 4, 8, 16})
        sweep.emplace_back(smallCache(kb * KiB, 64, 4));
    Rng rng(43);
    for (int i = 0; i < 50000; ++i) {
        const Addr a = rng.nextBounded(12 * KiB);
        for (Cache& cache : sweep)
            cache.access(a, false);
    }
    for (std::size_t i = 1; i < sweep.size(); ++i)
        EXPECT_LE(sweep[i].stats().misses, sweep[i - 1].stats().misses);
    // 16 KB fully captures the 12 KB working set: only cold misses.
    EXPECT_EQ(sweep.back().stats().misses, 12 * KiB / 64);
}

} // namespace
} // namespace cosim
