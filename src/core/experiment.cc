#include "core/experiment.hh"

#include "base/units.hh"

namespace cosim {
namespace presets {

CpuParams
pentium4Cpu()
{
    CpuParams cpu;
    cpu.baseCpi = 0.85;
    cpu.caches.l1 = {"dl1", 8 * KiB, 64, 4, ReplPolicy::LRU};
    cpu.caches.hasL2 = true;
    cpu.caches.l2 = {"l2", 512 * KiB, 64, 8, ReplPolicy::LRU};
    cpu.l2HitLatency = 18;
    cpu.useDramLatency = true;
    cpu.emitFsbTraffic = false;
    cpu.prefetchEnabled = false;
    return cpu;
}

CpuParams
cmpCoreCpu()
{
    CpuParams cpu;
    cpu.baseCpi = 0.85;
    cpu.caches.l1 = {"dl1", 32 * KiB, 64, 8, ReplPolicy::LRU};
    cpu.caches.hasL2 = false;
    cpu.useDramLatency = false;
    cpu.beyondLatency = 100;
    cpu.emitFsbTraffic = true;
    cpu.prefetchEnabled = false;
    return cpu;
}

CpuParams
xeonCpu(bool prefetch_enabled)
{
    CpuParams cpu;
    cpu.baseCpi = 0.85;
    cpu.caches.l1 = {"dl1", 8 * KiB, 64, 4, ReplPolicy::LRU};
    cpu.caches.hasL2 = true;
    cpu.caches.l2 = {"l2", 512 * KiB, 64, 8, ReplPolicy::LRU};
    cpu.l2HitLatency = 18;
    cpu.useDramLatency = true;
    cpu.emitFsbTraffic = false;
    cpu.prefetchEnabled = prefetch_enabled;
    cpu.prefetch.degree = 2;
    cpu.prefetch.threshold = 2;
    return cpu;
}

PlatformParams
cmpPlatform(const std::string& name, unsigned n_cores)
{
    PlatformParams p;
    p.name = name;
    p.nCores = n_cores;
    p.cpu = cmpCoreCpu();
    p.dex.quantumInsts = 50000;
    return p;
}

PlatformParams
scmp()
{
    return cmpPlatform("SCMP", 8);
}

PlatformParams
mcmp()
{
    return cmpPlatform("MCMP", 16);
}

PlatformParams
lcmp()
{
    return cmpPlatform("LCMP", 32);
}

PlatformParams
unisysSmp(unsigned n_cores, bool prefetch_enabled)
{
    PlatformParams p;
    p.name = "UnisysXeon";
    p.nCores = n_cores;
    p.cpu = xeonCpu(prefetch_enabled);
    // Shared memory system of the era: generous for one core, tight for
    // sixteen memory-bound ones.
    p.dram.baseLatency = 300;
    p.dram.peakBytesPerCycle = 6.0;
    p.dram.prefetchThrottleStart = 0.45;
    p.dram.prefetchThrottleFull = 0.80;
    p.dram.maxLatencyInflation = 4.0;
    p.dex.quantumInsts = 50000;
    return p;
}

std::vector<std::uint64_t>
llcSizeSweep()
{
    return {4 * MiB, 8 * MiB, 16 * MiB, 32 * MiB,
            64 * MiB, 128 * MiB, 256 * MiB};
}

std::vector<std::uint32_t>
lineSizeSweep()
{
    return {64, 128, 256, 512, 1024, 2048, 4096};
}

DragonheadParams
llcConfig(std::uint64_t size, std::uint32_t line_size)
{
    DragonheadParams dh;
    dh.llc.name = "llc" + formatSize(size) + "x" +
                  std::to_string(line_size);
    dh.llc.size = size;
    dh.llc.lineSize = line_size;
    dh.llc.assoc = 16;
    dh.llc.repl = ReplPolicy::LRU;
    dh.nSlices = 4;
    dh.cb.samplePeriodUs = 500;
    dh.cb.coreFreqGhz = 3.0;
    return dh;
}

std::vector<DragonheadParams>
llcSizeSweepEmulators()
{
    std::vector<DragonheadParams> out;
    for (std::uint64_t size : llcSizeSweep())
        out.push_back(llcConfig(size, 64));
    return out;
}

std::vector<DragonheadParams>
lineSizeSweepEmulators()
{
    std::vector<DragonheadParams> out;
    for (std::uint32_t line : lineSizeSweep())
        out.push_back(llcConfig(32 * MiB, line));
    return out;
}

} // namespace presets
} // namespace cosim
