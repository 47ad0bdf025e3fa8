/**
 * @file
 * Google-benchmark microbenchmarks of the co-simulation's own speed,
 * mirroring the paper's headline claim that HW/SW co-simulation runs at
 * 30-50 MIPS (vs KIPS for detailed software simulators). Reports
 * simulated instructions per second for the platform alone and with
 * increasing numbers of passive Dragonhead emulators attached.
 *
 * These loops support the claim; perfbench/run.py makes it, timing the
 * real figure benches end to end.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "core/cosim.hh"
#include "test_workload_loop.hh"

using namespace cosim;

namespace {

PlatformParams
smallPlatform(unsigned cores)
{
    PlatformParams p;
    p.nCores = cores;
    p.cpu.baseCpi = 0.85;
    p.cpu.caches.l1 = {"l1", 32 * KiB, 64, 8};
    p.cpu.caches.hasL2 = false;
    p.cpu.useDramLatency = false;
    p.cpu.emitFsbTraffic = true;
    p.dex.quantumInsts = 50000;
    return p;
}

/** The Figure-4-shaped sweep: 7 LLC sizes from 4 MB up. */
std::vector<DragonheadParams>
sweepEmulators(unsigned n_emus)
{
    std::vector<DragonheadParams> emus;
    for (unsigned e = 0; e < n_emus; ++e) {
        DragonheadParams dh;
        dh.llc = {"llc", (4ull << e) * MiB, 64, 16};
        emus.push_back(dh);
    }
    return emus;
}

void
reportMips(benchmark::State& state, std::uint64_t insts_per_iter)
{
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts_per_iter) * state.iterations() / 1e6,
        benchmark::Counter::kIsRate);
}

void
BM_PlatformOnly(benchmark::State& state)
{
    unsigned cores = static_cast<unsigned>(state.range(0));
    VirtualPlatform vp(smallPlatform(cores));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bench::LoopWorkload wl(64 * KiB, 4);
        WorkloadConfig cfg;
        cfg.nThreads = cores;
        RunResult r = vp.run(wl, cfg);
        insts = r.totalInsts;
    }
    reportMips(state, insts);
}
BENCHMARK(BM_PlatformOnly)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void
BM_CoSimWithEmulators(benchmark::State& state)
{
    unsigned n_emus = static_cast<unsigned>(state.range(0));
    CoSimParams params;
    params.platform = smallPlatform(8);
    params.emulators = sweepEmulators(n_emus);
    CoSimulation cosim(params);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bench::LoopWorkload wl(256 * KiB, 2);
        WorkloadConfig cfg;
        cfg.nThreads = 8;
        RunResult r = cosim.run(wl, cfg);
        insts = r.totalInsts;
    }
    reportMips(state, insts);
}
BENCHMARK(BM_CoSimWithEmulators)->Arg(1)->Arg(4)->Arg(7)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
