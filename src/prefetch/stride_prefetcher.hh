/**
 * @file
 * Region-keyed stride prefetcher.
 *
 * The Unisys Xeon machine of Section 4.4 had a stride-based hardware
 * prefetcher that could be switched off; this model reproduces that
 * study. It watches the stream of accesses arriving at the level it
 * protects (here, the L1-miss stream feeding the L2) and proposes line
 * addresses to bring in.
 *
 * Without program counters (the co-simulation sees only addresses on the
 * bus, just as Dragonhead did), streams are identified by the memory
 * region they walk: accesses are grouped by their 4 KB-aligned region,
 * deltas within a region train a stride, and a confident entry prefetches
 * `degree` strides ahead. Forward and backward strides both train --
 * Section 4.4 notes the workloads stream "in forward and backward
 * directions".
 */

#ifndef COSIM_PREFETCH_STRIDE_PREFETCHER_HH
#define COSIM_PREFETCH_STRIDE_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace cosim {

/** Prefetcher activity counters. */
struct PrefetcherStats
{
    std::uint64_t observed = 0;   ///< accesses shown to the prefetcher
    std::uint64_t trained = 0;    ///< observations that confirmed a stride
    std::uint64_t issued = 0;     ///< prefetch candidates produced

    void reset() { *this = PrefetcherStats(); }
};

/** Tuning knobs of the stride prefetcher. */
struct StridePrefetcherParams
{
    /** log2 of the region used as the stream key (default 4 KB). */
    unsigned regionBits = 12;
    /** Number of tracked streams (direct-mapped table). */
    unsigned tableEntries = 64;
    /** Confidence needed before prefetches are issued. */
    unsigned threshold = 2;
    /** Saturation value of the confidence counter. */
    unsigned maxConfidence = 3;
    /** How many strides ahead to prefetch once confident. */
    unsigned degree = 2;
};

/** See file comment. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(
        const StridePrefetcherParams& params = StridePrefetcherParams());

    /**
     * Show the prefetcher one access and collect its prefetch proposals
     * (absolute byte addresses; the consumer line-aligns them).
     *
     * @param addr access address
     * @param out proposals are appended here (not cleared)
     */
    void observe(Addr addr, std::vector<Addr>& out);

    /** Forget all training state. */
    void reset();

    const StridePrefetcherParams& params() const { return params_; }
    const PrefetcherStats& stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    struct Entry
    {
        std::uint64_t regionTag = ~std::uint64_t{0};
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    StridePrefetcherParams params_;
    std::vector<Entry> table_;
    PrefetcherStats stats_;
};

} // namespace cosim

#endif // COSIM_PREFETCH_STRIDE_PREFETCHER_HH
