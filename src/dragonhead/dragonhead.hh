/**
 * @file
 * The assembled Dragonhead cache emulator.
 *
 * Six FPGAs on the physical board: AF (address filter), CC0..CC3 (cache
 * controller slices) and CB (control block). This class wires the
 * software models of those blocks together and exposes the host-computer
 * view: configure a cache, snoop the bus, read performance data.
 *
 * The CC slices are one emulated cache. The board interleaves line
 * addresses across the slices and each slice indexes its sets with the
 * remaining line bits, so slice j's set i is set i * nSlices + j of a
 * monolithic cache of the full size, under the same tag: the slice id is
 * the low bits of the set index. Per-core partitions are runs of
 * consecutive sets instead. The Dragonhead keeps the counters each CC
 * kept, per slice and per core, beside that one cache.
 *
 * Like the FPGA, the emulator is *passive*: it never affects what the
 * cores do, so any number of Dragonhead instances with different cache
 * configurations can snoop the same bus simultaneously -- that is how the
 * benches evaluate a whole cache-size sweep in a single workload run.
 */

#ifndef COSIM_DRAGONHEAD_DRAGONHEAD_HH
#define COSIM_DRAGONHEAD_DRAGONHEAD_HH

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "dragonhead/address_filter.hh"
#include "dragonhead/control_block.hh"
#include "mem/fsb.hh"
#include "obs/stats_registry.hh"

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
    CacheParams llc{"llc", 32 * 1024 * 1024, 64, 16, ReplPolicy::LRU};

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
class Dragonhead : public BusSnooper
{
  public:
    explicit Dragonhead(const DragonheadParams& params);
    ~Dragonhead() override;

    /** The CB polls the cache's counters in place. */
    Dragonhead(const Dragonhead&) = delete;
    Dragonhead& operator=(const Dragonhead&) = delete;

    /** BusSnooper: regulate and emulate one transaction. */
    void observe(const BusTransaction& txn) override;

    /**
     * BusSnooper: emulate a chunk. Semantically identical to observing
     * each transaction in turn, but pays the virtual dispatch once per
     * chunk instead of once per transaction.
     */
    void observeBatch(const BusTransaction* txns, std::size_t n) override;

    /** Aggregated results over the whole emulation window. */
    LlcResults results() const;

    /** Per-core accesses/misses (zero for a core never announced). */
    CoreCounters coreResults(CoreId core) const;

    /** The 500 us sample series. */
    const std::vector<Sample>& samples() const { return cb_.samples(); }

    const DragonheadParams& params() const { return params_; }
    const AddressFilter& addressFilter() const { return af_; }

    /** The counters CC slice @p i kept (its share of the accesses). */
    const CacheStats& sliceStats(unsigned i) const;
    unsigned nSlices() const
    {
        return static_cast<unsigned>(slices_.size());
    }

    /** Return the board to power-on state. */
    void reset();

    /**
     * Register this emulator's stats into @p registry under
     * "<prefix>" (aggregate) and "<prefix>.cc<i>" (per slice).
     * @return the stored aggregate group, so callers can append stats
     * of their own (the AsyncEmulatorBank adds delivery counters).
     */
    stats::Group& registerStats(obs::StatsRegistry& registry,
                                const std::string& prefix) const;

  private:
    DragonheadParams params_;
    AddressFilter af_;
    /** The whole LLC, every slice's sets. */
    Cache llc_;
    ControlBlock cb_;
    /** Per-slice counters, indexed by slice id. */
    std::vector<CacheStats> slices_;
    /** Per-core counters; grown on SetCoreId, so the AF's current core
     * always has a row. */
    std::vector<CoreCounters> perCore_;
    unsigned lineBits_;
    /** Sets per slice (a per-core partition's sets), as a shift. */
    unsigned sliceSetBits_;
};

} // namespace cosim

#endif // COSIM_DRAGONHEAD_DRAGONHEAD_HH
