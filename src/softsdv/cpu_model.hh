/**
 * @file
 * In-order core model: instruction accounting, private caches, optional
 * hardware prefetcher, and a CPI-accumulation timing model.
 *
 * Two usage modes, matching the paper's two measurement rigs:
 *
 *  - *Timing mode* (Table 2, Figure 8): the private hierarchy is
 *    L1 + L2; misses beyond L2 are charged the shared DramModel's current
 *    effective latency, and all off-chip traffic is reported to it so
 *    bandwidth contention feeds back into latency and prefetch admission.
 *
 *  - *Co-simulation mode* (Figures 4-7): the private hierarchy is the L1
 *    filter in front of the FSB; every beyond-L1 fetch/writeback is
 *    emitted on the bus where Dragonhead instances snoop it. Latency is a
 *    fixed nominal value because the emulation is passive.
 */

#ifndef COSIM_SOFTSDV_CPU_MODEL_HH
#define COSIM_SOFTSDV_CPU_MODEL_HH

#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "cache/hierarchy.hh"
#include "mem/dram.hh"
#include "mem/fsb.hh"
#include "prefetch/stride_prefetcher.hh"

namespace cosim {

/** Static configuration of one core. */
struct CpuParams
{
    /** CPI of compute instructions and L1-hitting memory instructions. */
    double baseCpi = 0.75;

    /** Private cache stack. */
    HierarchyParams caches;

    /** Latency of an L2 hit, in cycles. */
    Cycles l2HitLatency = 18;

    /**
     * In co-simulation mode (useDramLatency == false): nominal latency
     * charged for each beyond-private-caches access.
     */
    Cycles beyondLatency = 100;

    /** Charge DramModel latency (timing mode) for beyond accesses. */
    bool useDramLatency = true;

    /** Emit beyond-traffic on the front-side bus (co-simulation mode). */
    bool emitFsbTraffic = false;

    /** Enable the stride hardware prefetcher. */
    bool prefetchEnabled = false;

    /** Prefetcher tuning (used when prefetchEnabled). */
    StridePrefetcherParams prefetch;

    /**
     * Timeliness of prefetching: the first demand hit on a prefetched
     * line still pays this fraction of the current memory latency (a
     * degree-2 stride prefetcher cannot fully hide a several-hundred-
     * cycle memory access at streaming rates).
     */
    double prefetchLateFraction = 0.7;
};

/** Prefetch bookkeeping of one core. */
struct CpuPrefetchStats
{
    std::uint64_t candidates = 0; ///< proposals from the prefetcher
    std::uint64_t admitted = 0;   ///< issued to memory (bandwidth allowed)
    std::uint64_t dropped = 0;    ///< throttled by bandwidth pressure
    std::uint64_t installed = 0;  ///< actually brought a new line in

    void reset() { *this = CpuPrefetchStats(); }
};

/**
 * One virtual core. Not a micro-architectural model: the paper measured
 * IPC on real machines; we reproduce the first-order behaviour (base CPI
 * plus stall cycles per miss level) that makes the cross-workload
 * comparison meaningful.
 */
class CpuModel
{
  public:
    /**
     * @param id this core's id (tagged on bus transactions)
     * @param params static configuration
     * @param dram shared memory model (may be nullptr in pure co-sim mode)
     * @param fsb the bus beyond-L1 traffic is issued on (may be
     *        nullptr in timing mode)
     */
    CpuModel(CoreId id, const CpuParams& params, DramModel* dram,
             FrontSideBus* fsb);

    /**
     * A data memory reference of @p size bytes at @p addr.
     * @param n_insts how many load/store instructions this reference
     * represents; 0 derives the default max(1, size/8). Instrumented
     * containers pass their element count so scalar codes that walk a
     * byte or float array are charged one instruction per element while
     * the caches still see the same lines.
     */
    void dataAccess(Addr addr, std::uint32_t size, bool write,
                    InstCount n_insts = 0);

    /** @p n non-memory instructions. */
    void computeOps(std::uint64_t n);

    /** @name Instruction/cycle counters @{ */
    InstCount insts() const { return insts_; }
    InstCount memInsts() const { return memInsts_; }
    InstCount loads() const { return loads_; }
    InstCount stores() const { return stores_; }
    Cycles cycles() const { return static_cast<Cycles>(cyclesAcc_); }
    double ipc() const;
    /** @} */

    CoreId id() const { return id_; }
    const CpuParams& params() const { return params_; }

    PrivateHierarchy& caches() { return caches_; }
    const PrivateHierarchy& caches() const { return caches_; }

    const CpuPrefetchStats& prefetchStats() const { return pfStats_; }

    /** Append the instruction/cycle/prefetch counters to @p group. */
    void addStats(stats::Group& group) const;

    /** Zero counters and empty the caches (used between runs). */
    void reset();

  private:
    void handleBeyond(Addr fetch_line, bool l1_was_write);
    void issuePrefetches(Addr trigger);

    CoreId id_;
    CpuParams params_;
    DramModel* dram_;
    FrontSideBus* fsb_;

    PrivateHierarchy caches_;
    std::unique_ptr<StridePrefetcher> prefetcher_;
    std::vector<Addr> pfProposals_;
    Rng pfAdmitRng_;

    InstCount insts_ = 0;
    InstCount memInsts_ = 0;
    InstCount loads_ = 0;
    InstCount stores_ = 0;
    double cyclesAcc_ = 0.0;
    CpuPrefetchStats pfStats_;
};

} // namespace cosim

#endif // COSIM_SOFTSDV_CPU_MODEL_HH
