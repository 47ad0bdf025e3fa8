/**
 * @file
 * A per-core private cache hierarchy: L1D with an optional unified L2.
 *
 * This is the filter that sits between a core's load/store stream and the
 * front-side bus. It is non-inclusive and write-back; dirty evictions
 * propagate downward (L1 victim -> L2, L2 victim -> bus writeback).
 */

#ifndef COSIM_CACHE_HIERARCHY_HH
#define COSIM_CACHE_HIERARCHY_HH

#include <memory>
#include <optional>

#include "cache/cache.hh"

namespace cosim {

/** Geometry of a private hierarchy. */
struct HierarchyParams
{
    CacheParams l1{"l1d", 32 * 1024, 64, 8};
    bool hasL2 = false;
    CacheParams l2{"l2", 512 * 1024, 64, 8};
};

/** Which level serviced an access. */
enum class ServiceLevel : std::uint8_t { L1, L2, Beyond };

/**
 * Private L1(+L2) stack for one core. The result of an access says where
 * the data came from and what traffic (if any) must go out on the bus.
 */
class PrivateHierarchy
{
  public:
    struct Result
    {
        ServiceLevel servicedBy = ServiceLevel::L1;
        /** Line (aligned) that must be fetched from beyond, if any. */
        std::optional<Addr> fetchLine;
        /**
         * Dirty lines (aligned) leaving the hierarchy. One access can
         * produce up to two (an L1-victim cascading through the L2 plus
         * the L2's own demand-miss victim).
         */
        Addr writebacks[2] = {invalidAddr, invalidAddr};
        unsigned nWritebacks = 0;
        /** The beyond-fetch was satisfied by a prior prefetch into L2. */
        bool l2PrefetchHit = false;

        void addWriteback(Addr line)
        {
            if (nWritebacks < 2)
                writebacks[nWritebacks++] = line;
        }
    };

    explicit PrivateHierarchy(const HierarchyParams& params);

    /**
     * One line-contained access (the caller splits straddling accesses).
     * Inlined, so an L1 hit is one search of its set and no call.
     */
    [[gnu::always_inline]] Result
    access(Addr addr, bool write)
    {
        Result result;

        Cache::Outcome l1_out = l1_.access(addr, write);
        if (l1_out.hit) {
            result.servicedBy = ServiceLevel::L1;
            return result;
        }

        // L1 victim writeback goes to L2 if present, else to the bus.
        std::optional<Addr> l1_victim;
        if (l1_out.evicted && l1_out.evictedDirty)
            l1_victim = l1_out.victimAddr;

        if (!l2_) {
            result.servicedBy = ServiceLevel::Beyond;
            result.fetchLine = l1_.lineAddr(addr);
            if (l1_victim)
                result.addWriteback(*l1_victim);
            return result;
        }

        // The L1 miss becomes an L2 read (the L1 is fetching the line; a
        // store miss still reads the line first under write-allocate).
        Cache::Outcome l2_out = l2_->access(addr, false);
        if (l2_out.evicted && l2_out.evictedDirty)
            result.addWriteback(l2_out.victimAddr);

        // Retire the L1 victim into the L2 as a dirty line. This models
        // the victim staying on chip; it may itself evict from the L2.
        if (l1_victim) {
            Cache::Outcome wb_out = l2_->access(*l1_victim, true);
            if (wb_out.evicted && wb_out.evictedDirty)
                result.addWriteback(wb_out.victimAddr);
        }

        if (l2_out.hit) {
            result.servicedBy = ServiceLevel::L2;
            result.l2PrefetchHit = l2_out.firstHitOnPrefetch;
            return result;
        }

        result.servicedBy = ServiceLevel::Beyond;
        result.fetchLine = l2_->lineAddr(addr);
        return result;
    }

    /**
     * Install a prefetched line into the outermost private level.
     * @return true if the line was newly installed (traffic happened).
     */
    bool prefetchFill(Addr addr);

    Cache& l1() { return l1_; }
    const Cache& l1() const { return l1_; }
    bool hasL2() const { return l2_ != nullptr; }
    Cache& l2();
    const Cache& l2() const;

    /** Line size of the outermost level (bus transaction granularity). */
    std::uint32_t busLineSize() const;

    void flush();
    void resetStats();

  private:
    Cache l1_;
    std::unique_ptr<Cache> l2_;
};

} // namespace cosim

#endif // COSIM_CACHE_HIERARCHY_HH
