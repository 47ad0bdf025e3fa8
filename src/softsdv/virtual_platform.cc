#include "softsdv/virtual_platform.hh"

#include <algorithm>
#include <chrono>

#include "base/logging.hh"
#include "base/stats.hh"
#include "obs/trace_session.hh"

namespace cosim {

double
RunResult::simMips()
const
{
    return hostSeconds <= 0.0
        ? 0.0
        : static_cast<double>(totalInsts) / 1e6 / hostSeconds;
}

double
RunResult::ipc()
const
{
    return totalCycles == 0
        ? 0.0
        : static_cast<double>(totalInsts) /
              static_cast<double>(totalCycles);
}

double
RunResult::parallelIpc()
const
{
    return maxCoreCycles == 0
        ? 0.0
        : static_cast<double>(totalInsts) /
              static_cast<double>(maxCoreCycles);
}

double
RunResult::memInstPercent()
const
{
    return 100.0 * stats::safeRatio(static_cast<double>(memInsts),
                                    static_cast<double>(totalInsts));
}

double
RunResult::memReadPercent()
const
{
    return 100.0 * stats::safeRatio(static_cast<double>(loads),
                                    static_cast<double>(totalInsts));
}

double
RunResult::l1AccessesPerKiloInst()
const
{
    // The paper derives DL1 accesses from the memory-instruction count
    // (Table 2 shows exactly 10 x %mem), so we report the same measure;
    // l1.accesses counts line-level references after block coalescing.
    return stats::perKiloInst(memInsts, totalInsts);
}

double
RunResult::l1MissesPerKiloInst()
const
{
    return stats::perKiloInst(l1.misses, totalInsts);
}

double
RunResult::l2MissesPerKiloInst()
const
{
    return stats::perKiloInst(l2.misses, totalInsts);
}

VirtualPlatform::VirtualPlatform(const PlatformParams& params)
    : params_(params), dram_(params.dram)
{
    fatal_if(params_.nCores == 0, "platform needs at least one core");
    cpus_.reserve(params_.nCores);
    for (unsigned i = 0; i < params_.nCores; ++i) {
        cpus_.push_back(std::make_unique<CpuModel>(
            static_cast<CoreId>(i), params_.cpu, &dram_, &fsb_));
    }
}

VirtualPlatform::~VirtualPlatform() = default;

CpuModel&
VirtualPlatform::cpu(unsigned i)
{
    panic_if(i >= cpus_.size(), "core index %u out of range", i);
    return *cpus_[i];
}

RunResult
VirtualPlatform::run(Workload& workload, const WorkloadConfig& cfg)
{
    fatal_if(cfg.nThreads == 0, "workload needs at least one thread");
    fatal_if(cfg.nThreads > nCores(),
             "%u threads exceed the platform's %u cores (the paper maps "
             "one thread per core)",
             cfg.nThreads, nCores());

    // Fresh platform state for this run.
    allocator_.reset();
    dram_.reset();
    fsb_.resetStats();
    for (auto& cpu : cpus_)
        cpu->reset();

    // Input generation happens outside the emulation window.
    auto s0 = std::chrono::steady_clock::now();
    {
        TRACE_SPAN("platform", "workload.setUp");
        workload.setUp(cfg, allocator_);
    }
    auto s1 = std::chrono::steady_clock::now();

    std::vector<std::unique_ptr<ThreadTask>> tasks;
    tasks.reserve(cfg.nThreads);
    for (unsigned tid = 0; tid < cfg.nThreads; ++tid)
        tasks.push_back(workload.createThread(tid));

    std::vector<CoreSlot> slots(cfg.nThreads);
    for (unsigned tid = 0; tid < cfg.nThreads; ++tid) {
        slots[tid].cpu = cpus_[tid].get();
        slots[tid].task = tasks[tid].get();
    }

    DexScheduler scheduler(params_.dex, &fsb_, &dram_);

    auto t0 = std::chrono::steady_clock::now();
    {
        TRACE_SPAN("platform", "scheduler.run");
        scheduler.run(slots);
        // When the bus runs batched, a partial chunk may still be
        // buffered; deliver it inside the timed window -- snoopers must
        // see the complete run before anyone reads their results.
        fsb_.flush();
    }
    auto t1 = std::chrono::steady_clock::now();

    RunResult result;
    result.workload = workload.name();
    result.platform = params_.name;
    result.nThreads = cfg.nThreads;
    result.hostSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    result.setupSeconds =
        std::chrono::duration<double>(s1 - s0).count();
    result.schedulerRounds = scheduler.rounds();
    result.schedulerSlices = scheduler.slices();
    result.footprintBytes = allocator_.footprint();
    result.hasL2 = params_.cpu.caches.hasL2;

    for (unsigned tid = 0; tid < cfg.nThreads; ++tid) {
        const CpuModel& cpu = *cpus_[tid];
        result.totalInsts += cpu.insts();
        result.memInsts += cpu.memInsts();
        result.loads += cpu.loads();
        result.stores += cpu.stores();
        result.totalCycles += cpu.cycles();
        result.maxCoreCycles = std::max(result.maxCoreCycles, cpu.cycles());
        result.l1 += cpu.caches().l1().stats();
        if (result.hasL2) {
            result.l2 += cpu.caches().l2().stats();
            result.usefulPrefetches +=
                cpu.caches().l2().stats().usefulPrefetches;
        } else {
            result.usefulPrefetches +=
                cpu.caches().l1().stats().usefulPrefetches;
        }
        const CpuPrefetchStats& pf = cpu.prefetchStats();
        result.prefetch.candidates += pf.candidates;
        result.prefetch.admitted += pf.admitted;
        result.prefetch.dropped += pf.dropped;
        result.prefetch.installed += pf.installed;
    }

    result.verified = workload.verify();
    workload.tearDown();
    return result;
}

void
VirtualPlatform::addStats(std::vector<stats::Group>& groups) const
{
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
        const CpuModel& cpu = *cpus_[i];
        const std::string prefix = "cpu" + std::to_string(i);
        cpu.addStats(groups.emplace_back(prefix));
        cpu.caches().l1().addStats(groups.emplace_back(prefix + ".l1"));
        if (cpu.caches().hasL2())
            cpu.caches().l2().addStats(groups.emplace_back(prefix + ".l2"));
    }
    dram_.addStats(groups.emplace_back("dram"));
    fsb_.addStats(groups.emplace_back("fsb"));
}

} // namespace cosim
