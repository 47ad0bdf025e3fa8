/**
 * @file
 * The virtual multi-core platform: N CPU models, a shared bus, a shared
 * memory model, and the DEX scheduler that runs workloads to completion.
 *
 * This is the software stand-in for "SoftSDV DEX runs on this system to
 * provide a virtual platform of cores scaled from 1 to 32" (Section 3.3).
 */

#ifndef COSIM_SOFTSDV_VIRTUAL_PLATFORM_HH
#define COSIM_SOFTSDV_VIRTUAL_PLATFORM_HH

#include <memory>
#include <string>
#include <vector>

#include "base/stats.hh"
#include "cache/cache.hh"
#include "mem/address_space.hh"
#include "mem/dram.hh"
#include "mem/fsb.hh"
#include "softsdv/cpu_model.hh"
#include "softsdv/dex_scheduler.hh"
#include "softsdv/guest.hh"

namespace cosim {

/** Static description of a simulated platform. */
struct PlatformParams
{
    std::string name = "platform";
    unsigned nCores = 8;
    CpuParams cpu;
    DramParams dram;
    DexParams dex;
};

/** Everything a completed run reports. */
struct RunResult
{
    std::string workload;
    std::string platform;
    unsigned nThreads = 0;

    InstCount totalInsts = 0;
    InstCount memInsts = 0;
    InstCount loads = 0;
    InstCount stores = 0;

    /** Wall-clock of the parallel run: the slowest core's cycles. */
    Cycles maxCoreCycles = 0;
    /** Sum of all cores' cycles (serial work). */
    Cycles totalCycles = 0;

    /** Aggregated private cache stats (all cores). */
    CacheStats l1;
    CacheStats l2;
    bool hasL2 = false;

    /** Aggregated prefetch stats (all cores). */
    CpuPrefetchStats prefetch;
    std::uint64_t usefulPrefetches = 0;

    std::uint64_t schedulerRounds = 0;
    std::uint64_t schedulerSlices = 0;

    /** Simulated footprint allocated by the workload, in bytes. */
    std::uint64_t footprintBytes = 0;

    bool verified = false;

    /**
     * Provenance: empty for a live guest execution; the stream source
     * ("file:<path>" or "memory:<workload>") when the emulator results
     * come from replaying a recorded FSB stream. Replayed results carry
     * the captured run's totalInsts/verified, but no CPU-side counters
     * (l1/l2/cycles stay zero -- the guest did not execute).
     */
    std::string replayedFrom;

    /** Host-side execution time and derived simulation speed. */
    double hostSeconds = 0.0;
    double simMips() const;

    /** Host time generating the workload's inputs (setUp), outside
     * hostSeconds. */
    double setupSeconds = 0.0;
    /** The part of hostSeconds spent draining emulation workers (a
     * CoSimulation with a bank; 0 otherwise). */
    double drainSeconds = 0.0;

    /** Single-core IPC measure used by Table 2. */
    double ipc() const;

    /** Parallel IPC: instructions over the slowest core's cycles. */
    double parallelIpc() const;

    double memInstPercent() const;
    double memReadPercent() const;
    double l1AccessesPerKiloInst() const;
    double l1MissesPerKiloInst() const;
    double l2MissesPerKiloInst() const;
};

/** See file comment. */
class VirtualPlatform
{
  public:
    explicit VirtualPlatform(const PlatformParams& params);
    ~VirtualPlatform();

    VirtualPlatform(const VirtualPlatform&) = delete;
    VirtualPlatform& operator=(const VirtualPlatform&) = delete;

    /**
     * Run @p workload to completion with cfg.nThreads threads, one per
     * core (cfg.nThreads must not exceed nCores()). Resets all platform
     * state first, so a platform can be reused across runs.
     */
    RunResult run(Workload& workload, const WorkloadConfig& cfg);

    FrontSideBus& fsb() { return fsb_; }
    DramModel& dram() { return dram_; }
    SimAllocator& allocator() { return allocator_; }

    unsigned nCores() const { return static_cast<unsigned>(cpus_.size()); }
    CpuModel& cpu(unsigned i);
    const PlatformParams& params() const { return params_; }

    /**
     * Append the platform's component stats to @p groups: one
     * "cpu<i>" group per core (each followed by "cpu<i>.l1" and
     * ".l2"), then "dram" and "fsb".
     */
    void addStats(std::vector<stats::Group>& groups) const;

  private:
    PlatformParams params_;
    FrontSideBus fsb_;
    DramModel dram_;
    SimAllocator allocator_;
    std::vector<std::unique_ptr<CpuModel>> cpus_;
};

} // namespace cosim

#endif // COSIM_SOFTSDV_VIRTUAL_PLATFORM_HH
