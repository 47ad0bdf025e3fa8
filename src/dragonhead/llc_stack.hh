/**
 * @file
 * One bus snooper that emulates every LLC capacity of a sweep at once.
 *
 * Boards that differ only in LLC capacity see the same regulated stream
 * and index it the same way. Under LRU with power-of-two set counts, a
 * line held by the S-set cache is also held by the 2S-set cache (set
 * refinement; Mattson et al. 1970, Hill & Smith 1989), and a per-core
 * partition refines the same way. So an access that hits one capacity
 * hits every larger one, and the stack answers all of them with one
 * search from the largest capacity down: the first level that misses
 * and every level below it install the line, every level above it
 * promotes it. A line that misses the largest level is in no level and
 * is installed everywhere without a search.
 *
 * Each access is counted once, by its hit level (the smallest capacity
 * that holds the line, or "none"), per slice and read/write and per
 * core. Every per-capacity number -- accesses, misses, the per-slice
 * and per-core counters, the CB's polled totals -- is derived from those
 * counts; only evictions and writebacks, which differ per level, are
 * counted where a level installs. Each configuration keeps its own
 * control block, fed every message in stream order with its level's
 * totals as of that message.
 *
 * Every Cache is LRU, as Dragonhead's LLC was, so every board a stack
 * is built from has that property.
 */

#ifndef COSIM_DRAGONHEAD_LLC_STACK_HH
#define COSIM_DRAGONHEAD_LLC_STACK_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "dragonhead/address_filter.hh"
#include "dragonhead/control_block.hh"
#include "mem/fsb.hh"

namespace cosim {

/** How the LLC capacity is divided among the CC slices. */
enum class LlcPartitioning : std::uint8_t
{
    /** One shared LLC, line addresses interleaved across slices (the
     * physical Dragonhead board). */
    Interleaved,
    /** Equal private per-core partitions: slice = core id. The FPGA
     * could be programmed this way too; it answers the shared-vs-
     * private LLC question of the related work (PHA$E, Liu et al.). */
    PerCore,
};

/** Host-side configuration of the emulator. */
struct DragonheadParams
{
    /** Geometry of the emulated LLC (total capacity, not per slice). */
    CacheParams llc{"llc", 32 * 1024 * 1024, 64, 16};

    /** Number of cache-controller slices (the physical board had 4).
     * In PerCore mode this is the number of cores/partitions. */
    unsigned nSlices = 4;

    /** Capacity division policy. */
    LlcPartitioning partitioning = LlcPartitioning::Interleaved;

    /** CB sampling configuration. */
    ControlBlockParams cb;
};

/** Per-core LLC counters, as the CCs kept them. */
struct CoreCounters
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
};

/** Aggregated LLC results, the host-computer view. */
struct LlcResults
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    InstCount insts = 0;
    Cycles cycles = 0;

    double mpki() const
    {
        return insts == 0 ? 0.0
                          : 1000.0 * static_cast<double>(misses) /
                                static_cast<double>(insts);
    }

    double missRate() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** See file comment. */
class LlcStack : public BusSnooper
{
  public:
    /**
     * Emulate @p configs, in list order, as one stack. Every entry must
     * stack with the first (stacks()); fatal() on a geometry no board
     * can take.
     */
    explicit LlcStack(const std::vector<DragonheadParams>& configs);

    /** The bus and the Dragonhead views hold the stack's address. */
    LlcStack(const LlcStack&) = delete;
    LlcStack& operator=(const LlcStack&) = delete;

    /**
     * True iff @p a and @p b may share a stack: they differ only in
     * llc.size and llc.name (which sets the CB trace label).
     */
    static bool stacks(const DragonheadParams& a, const DragonheadParams& b);

    /** BusSnooper: regulate and emulate one transaction. */
    void observe(const BusTransaction& txn) override;

    /** BusSnooper: emulate a chunk, one dispatch for all of it. */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    /** Return every level to power-on state. */
    void reset();

    unsigned nConfigs() const
    {
        return static_cast<unsigned>(configs_.size());
    }
    const DragonheadParams& params(unsigned config) const;

    /** Config @p config's view of the counters. @{ */
    LlcResults results(unsigned config) const;
    CoreCounters coreResults(unsigned config, CoreId core) const;
    CacheStats sliceStats(unsigned config, unsigned slice) const;
    const std::vector<Sample>& samples(unsigned config) const;
    /** @} */

    unsigned nSlices() const { return nSlices_; }
    const AddressFilter& addressFilter() const { return af_; }

  private:
    /** One capacity: its cache and how a line indexes it. */
    struct Level
    {
        explicit Level(const CacheParams& p, unsigned n_slices,
                       bool per_core);

        Cache cache;
        /** Interleaved: the whole cache's set bits. Per-core: one
         * partition's set bits. */
        unsigned setBits = 0;
        Addr setMask = 0;
        /** Per-core: a partition's first set is slice << sliceShift. */
        unsigned sliceShift = 0;
    };

    /** Set and tag of @p line in @p level for slice @p slice. */
    template <bool PerCore>
    static void
    locate(const Level& level, Addr line, unsigned slice,
           std::uint32_t& set, std::uint64_t& tag)
    {
        set = static_cast<std::uint32_t>(line & level.setMask);
        if (PerCore)
            set |= slice << level.sliceShift;
        tag = line >> level.setBits;
    }

    /** observe()'s body, inlined into the chunk loop. */
    void emulate(const BusTransaction& txn);

    /** Emulate one forwarded access; @return its hit level. The
     * partitioning is a template argument so the per-level loops do
     * not test it. */
    template <bool PerCore>
    unsigned access(Addr addr, unsigned slice, bool write);

    /** Feed a consumed message to every config's CB. */
    void onMessage(const msg::Message& m);

    /** Add the accesses counted in @p row, a run of nHitLevels_ hit
     * level counts, and those among them that miss @p level. */
    void tally(const std::uint64_t* row, unsigned level,
               std::uint64_t& accesses, std::uint64_t& misses) const;

    /** Add every slice's accesses and the misses of @p level. */
    void totals(unsigned level, std::uint64_t& accesses,
                std::uint64_t& misses) const;

    std::vector<DragonheadParams> configs_;
    /** levelOf_[config]: index into levels_, by ascending capacity. */
    std::vector<unsigned> levelOf_;
    std::vector<Level> levels_;
    std::vector<ControlBlock> cbs_;
    AddressFilter af_;
    unsigned nSlices_ = 0;
    unsigned lineBits_ = 0;
    bool perCore_ = false;
    /** Hit levels 0..levels_.size(), the last meaning "no level". */
    unsigned nHitLevels_ = 0;

    /** [(slice * 2 + write) * nHitLevels_ + hit level]. */
    std::vector<std::uint64_t> sliceHits_;
    /** [core * nHitLevels_ + hit level]; grown on SetCoreId, so the
     * AF's current core always has a row. */
    std::vector<std::uint64_t> coreHits_;
    /** [level * nSlices_ + slice]: victims the level evicted. */
    std::vector<std::uint64_t> evictions_;
    std::vector<std::uint64_t> writebacks_;
};

/**
 * Group @p configs into stacks of configs that stacks() with each
 * other. While there are fewer stacks than @p workers, split again the
 * stack with the most distinct capacities per part, dealing them out
 * round-robin, smallest first: fig4's seven sizes at 3 workers make
 * {4, 32, 256}, {8, 64} and {16, 128} MB. Configs of one capacity stay
 * together, so a list with L levels (distinct capacities per stack,
 * summed) makes at least min(workers, L) stacks. @return the stack of
 * each config, stacks numbered in order of their first config.
 */
std::vector<unsigned> planStacks(const std::vector<DragonheadParams>& configs,
                                 unsigned workers = 1);

} // namespace cosim

#endif // COSIM_DRAGONHEAD_LLC_STACK_HH
