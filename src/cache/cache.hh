/**
 * @file
 * Set-associative LRU cache model.
 *
 * The model is functional (hit/miss + evictions), line-granular, and
 * write-allocate / write-back -- the organization Dragonhead emulated.
 * Timing lives in the CPU model, not here.
 */

#ifndef COSIM_CACHE_CACHE_HH
#define COSIM_CACHE_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "base/stats.hh"
#include "base/types.hh"

namespace cosim {

/** Static geometry of one cache. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;
    std::uint32_t lineSize = 64;
    std::uint32_t assoc = 8;

    /** Number of sets implied by the geometry. */
    std::uint32_t sets() const
    {
        return static_cast<std::uint32_t>(size / (static_cast<std::uint64_t>(
            lineSize) * assoc));
    }
};

/** Event counters of one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t misses = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeMisses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t usefulPrefetches = 0;

    std::uint64_t hits() const { return accesses - misses; }
    double missRate() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(accesses);
    }

    void reset() { *this = CacheStats(); }

    CacheStats& operator+=(const CacheStats& o);

    /** Append these counters, as they stand, to @p group. */
    void addStats(stats::Group& group) const;
};

/**
 * One physical cache. All addresses are full byte addresses; the cache
 * masks them to lines internally. Accesses must not span a line (the CPU
 * model splits straddling references).
 *
 * Replacement is LRU, as Dragonhead's was. Storage is one array of
 * 32-bit entries, a set's ways side by side, so a 16-way set is one 64 B
 * host line. A set's entries are kept in recency order, most recent
 * first, with invalid entries trailing: a hit moves its entry to the
 * front, a fill shifts the set back by one and the last entry is the
 * victim.
 */
class Cache
{
  public:
    /** What happened on a demand access. */
    struct Outcome
    {
        bool hit = false;
        /** A valid line was evicted to make room. */
        bool evicted = false;
        /** The evicted line was dirty (a writeback left the cache). */
        bool evictedDirty = false;
        /** Line address of the eviction victim (valid iff evicted). */
        Addr victimAddr = invalidAddr;
        /** The hit consumed a prefetched line for the first time. */
        bool firstHitOnPrefetch = false;
    };

    /** Widest tag an entry holds; a wider address is out of range. */
    static constexpr unsigned tagBits = 29;

    /** Validates geometry (power-of-two sizes, at least one set). */
    explicit Cache(const CacheParams& params);

    /**
     * Demand access to the line containing @p addr. Fills on miss.
     * fatal() if the address's tag is wider than tagBits. Inlined, so
     * a hit costs its caller no call.
     */
    [[gnu::always_inline]] Outcome
    access(Addr addr, bool write)
    {
        std::uint32_t set;
        std::uint64_t tag;
        locate(addr, set, tag);
        return accessLine(set, tag, write);
    }

    /**
     * LRU steps for a caller that indexes the sets and keeps the
     * counters itself (LlcStack): none of them touches stats(). @{
     */

    /** fatal() unless @p tag, of address @p addr, fits an entry. */
    void
    checkTag(Addr addr, std::uint64_t tag) const
    {
        if (tag > maxTag) [[unlikely]]
            tagOutOfRange(addr, tag);
    }

    /** The way of @p set holding the line with @p tag, or -1. */
    int
    findLine(std::uint32_t set, std::uint64_t tag) const
    {
        return findWay(setEntries(set), params_.assoc, keyOf(tag));
    }

    /** Move hit way @p way of @p set to the front; a write dirties it. */
    void
    promoteHit(std::uint32_t set, int way, bool write)
    {
        Entry* ways = setEntries(set);
        dirtyOnWrite(ways[way], write);
        promote(ways, way);
    }

    /** The valid and dirty bits of an evicted entry. */
    struct Victim
    {
        bool valid;
        bool dirty;
    };

    /**
     * Install the line with @p tag, known to miss, at the front of
     * @p set (dirty on a write), and evict the set's last entry.
     */
    Victim
    installMiss(std::uint32_t set, std::uint64_t tag, bool write)
    {
        Entry* ways = setEntries(set);
        const Entry victim = ways[params_.assoc - 1];
        shiftBack(ways, params_.assoc);
        ways[0] = keyOf(tag) | (write ? entryDirty : 0);
        return {(victim & entryValid) != 0, (victim & entryDirty) != 0};
    }

    /** @} */

    /**
     * Install the line containing @p addr as a (clean) prefetch.
     * @return true if the line was absent and is now installed.
     * fatal() if the address's tag is wider than tagBits.
     */
    bool prefetchFill(Addr addr);

    /**
     * True iff the line containing @p addr is present (no side
     * effects). An out-of-range address is never present.
     */
    bool probe(Addr addr) const;

    /** Invalidate everything (stats are kept). */
    void flush();

    /** Number of valid lines currently held. */
    std::uint64_t linesValid() const;

    /** Line-aligned address helper. */
    Addr lineAddr(Addr a) const { return a & ~lineMask_; }

    const CacheParams& params() const { return params_; }
    const CacheStats& stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    /** Append this cache's counters, as they stand, to @p group. */
    void addStats(stats::Group& group) const { stats_.addStats(group); }

  private:
    /** A way: tag << 3 | prefetched | dirty | valid; 0 is invalid. */
    using Entry = std::uint32_t;
    static constexpr Entry entryValid = 1;
    static constexpr Entry entryDirty = 2;
    static constexpr Entry entryPrefetched = 4;
    static constexpr unsigned entryTagShift = 3;
    /** The bits a lookup compares: tag and valid. */
    static constexpr Entry entryKeyMask = ~(entryDirty | entryPrefetched);
    static constexpr std::uint64_t maxTag =
        (std::uint64_t{1} << tagBits) - 1;

    static Entry
    keyOf(std::uint64_t tag)
    {
        return static_cast<Entry>(tag << entryTagShift) | entryValid;
    }

    /**
     * Dirty hit entry @p e on a write. A read, or a write to a line
     * already dirty, stores nothing: the next lookup's vector load of
     * the set would otherwise wait on a store it cannot forward from.
     */
    static void
    dirtyOnWrite(Entry& e, bool write)
    {
        if (write && (e & entryDirty) == 0)
            e |= entryDirty;
    }

#if defined(__SSE2__)
    /** Four consecutive entries, at any 4 B alignment. @{ */
    static __m128i
    load4(const Entry* p)
    {
        return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    }
    static void
    store4(Entry* p, __m128i v)
    {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    }
    /** @} */
#endif

    /** The way of @p set whose tag and valid bit equal @p key, or -1. */
    static int
    findWay(const Entry* set, std::uint32_t ways, Entry key)
    {
#if defined(__SSE2__)
        if (ways % 4 == 0) {
            const __m128i want = _mm_set1_epi32(static_cast<int>(key));
            const __m128i mask =
                _mm_set1_epi32(static_cast<int>(entryKeyMask));
            for (std::uint32_t w = 0; w < ways; w += 4) {
                const __m128i e = _mm_and_si128(load4(set + w), mask);
                const int eq = _mm_movemask_ps(
                    _mm_castsi128_ps(_mm_cmpeq_epi32(e, want)));
                if (eq != 0)
                    return static_cast<int>(w) +
                           std::countr_zero(static_cast<unsigned>(eq));
            }
            return -1;
        }
#endif
        int way = -1;
        for (std::uint32_t w = ways; w-- > 0;)
            way = (set[w] & entryKeyMask) == key ? static_cast<int>(w)
                                                 : way;
        return way;
    }

    /** Move entry @p way to the front, the ones before it back by one. */
    static void
    promote(Entry* set, int way)
    {
        for (int w = way; w > 0; --w)
            std::swap(set[w], set[w - 1]);
    }

    /** Move entries [0, ways - 1) back by one; the last falls off. */
    static void
    shiftBack(Entry* set, std::uint32_t ways)
    {
#if defined(__SSE2__)
        if (ways >= 8 && ways % 4 == 0) {
            // Four ways at a time from the back: each load sits below
            // every store made so far.
            for (std::uint32_t w = ways - 4; w >= 4; w -= 4)
                store4(set + w, load4(set + w - 1));
            store4(set + 1, load4(set));
            return;
        }
#endif
        for (std::uint32_t w = ways - 1; w > 0; --w)
            set[w] = set[w - 1];
    }

    Entry*
    setEntries(std::uint32_t set)
    {
        return storage_.data() + first_ +
               static_cast<std::size_t>(set) * params_.assoc;
    }
    const Entry*
    setEntries(std::uint32_t set) const
    {
        return storage_.data() + first_ +
               static_cast<std::size_t>(set) * params_.assoc;
    }

    /** Set and range-checked tag of @p addr (fatal if too wide). */
    void
    locate(Addr addr, std::uint32_t& set, std::uint64_t& tag) const
    {
        const Addr line = addr >> lineBits_;
        set = static_cast<std::uint32_t>(line & setMask_);
        tag = line >> setBits_;
        checkTag(addr, tag);
    }

    [[noreturn]] void tagOutOfRange(Addr addr, std::uint64_t tag) const;

    /** access() after locate(): one search of the set. */
    [[gnu::always_inline]] Outcome
    accessLine(std::uint32_t set, std::uint64_t tag, bool write)
    {
        Outcome outcome;
        ++stats_.accesses;
        stats_.writes += write;
        stats_.reads += !write;

        Entry* ways = setEntries(set);
        const int way = findWay(ways, params_.assoc, keyOf(tag));
        if (way >= 0) {
            outcome.hit = true;
            Entry& e = ways[way];
            if ((e & entryPrefetched) != 0) {
                outcome.firstHitOnPrefetch = true;
                ++stats_.usefulPrefetches;
                e &= ~entryPrefetched;
            }
            dirtyOnWrite(e, write);
            promote(ways, way);
            return outcome;
        }

        ++stats_.misses;
        stats_.writeMisses += write;
        stats_.readMisses += !write;
        install(set, tag, write ? entryDirty : 0, outcome);
        return outcome;
    }

    /** Install @p tag with @p flags into @p set, evicting if needed. */
    [[gnu::always_inline]] void
    install(std::uint32_t set, std::uint64_t tag, Entry flags,
            Outcome& outcome)
    {
        Entry* ways = setEntries(set);
        // The last entry is the least recently used, or invalid.
        const Entry victim = ways[params_.assoc - 1];
        if ((victim & entryValid) != 0) {
            outcome.evicted = true;
            outcome.evictedDirty = (victim & entryDirty) != 0;
            // Reconstruct the victim's line address from tag and set.
            outcome.victimAddr =
                ((static_cast<Addr>(victim >> entryTagShift) << setBits_) |
                 set)
                << lineBits_;
            ++stats_.evictions;
            stats_.writebacks += outcome.evictedDirty;
        }

        shiftBack(ways, params_.assoc);
        ways[0] = keyOf(tag) | flags;
    }

    CacheParams params_;
    Addr lineMask_;
    unsigned lineBits_;
    std::uint32_t sets_;
    unsigned setBits_;
    std::uint64_t setMask_;

    /** sets * ways entries from first_, which starts a host line. */
    std::vector<Entry> storage_;
    std::size_t first_ = 0;
    CacheStats stats_;
};

} // namespace cosim

#endif // COSIM_CACHE_CACHE_HH
