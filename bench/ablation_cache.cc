/**
 * @file
 * Ablation study (google-benchmark): design choices DESIGN.md calls out.
 *
 *  - number of CC slices (1 vs 4) -- fidelity/cost of the interleave,
 *  - simulating a sweep with N passive emulators vs N separate runs,
 *  - a shared interleaved LLC vs private per-core partitions,
 *  - the host cost of the line sizes Figure 7 sweeps.
 *
 * Each benchmark reports the measured LLC miss rate as a counter, so the
 * ablation shows both the simulation cost and the modelled outcome.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "cache/cache.hh"
#include "dragonhead/dragonhead.hh"

using namespace cosim;

namespace {

/** A deterministic FIMI-flavoured trace: pointer-chase bursts over a
 * tree-sized region plus a small hot private region. */
Addr
traceAddr(std::uint64_t i, Rng& rng)
{
    if (i % 8 < 6)
        return 0x1000'0000 + rng.nextBounded(16 * MiB); // shared tree
    return 0x4000'0000 + rng.nextBounded(512 * KiB);    // private data
}

void
BM_SliceCount(benchmark::State& state)
{
    DragonheadParams dp;
    dp.llc = {"llc", 8 * MiB, 64, 16};
    dp.nSlices = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        Dragonhead dh(dp);
        dh.observe(msg::encode(msg::Type::StartEmulation, 0));
        Rng rng(13);
        BusTransaction txn;
        txn.size = 64;
        txn.kind = TxnKind::ReadLine;
        for (std::uint64_t i = 0; i < 2'000'000; ++i) {
            txn.addr = traceAddr(i, rng);
            dh.observe(txn);
        }
        state.counters["miss_rate"] = dh.results().missRate();
    }
    state.SetItemsProcessed(state.iterations() * 2'000'000);
}
BENCHMARK(BM_SliceCount)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_SweepBankVsSeparateRuns(benchmark::State& state)
{
    // The paper's one-pass sweep (every configuration snooping one bus)
    // against one run per configuration over the identical stream.
    bool banked = state.range(0) != 0;
    std::vector<DragonheadParams> configs;
    for (std::uint64_t mb : {1, 2, 4, 8, 16, 32, 64}) {
        DragonheadParams dp;
        dp.llc = {"llc", mb * MiB, 64, 16};
        configs.push_back(dp);
    }
    std::vector<BusTransaction> stream = {
        msg::encode(msg::Type::StartEmulation, 0)};
    Rng rng(17);
    for (std::uint64_t i = 0; i < 500'000; ++i) {
        BusTransaction txn;
        txn.addr = traceAddr(i, rng);
        txn.size = 64;
        txn.kind = TxnKind::ReadLine;
        stream.push_back(txn);
    }
    auto run = [&stream](const std::vector<DragonheadParams>& group) {
        FrontSideBus bus;
        bus.setBatchCapacity(4096);
        std::vector<std::unique_ptr<Dragonhead>> emulators;
        for (const DragonheadParams& dp : group) {
            emulators.push_back(std::make_unique<Dragonhead>(dp));
            bus.attach(emulators.back().get());
        }
        for (const BusTransaction& txn : stream)
            bus.issue(txn);
        bus.flush();
        for (const auto& dh : emulators)
            benchmark::DoNotOptimize(dh->results().misses);
    };
    for (auto _ : state) {
        if (banked) {
            run(configs);
        } else {
            for (const DragonheadParams& dp : configs)
                run({dp});
        }
    }
    state.SetItemsProcessed(state.iterations() * 500'000 * 7);
}
BENCHMARK(BM_SweepBankVsSeparateRuns)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

void
BM_SharedVsPrivateLlc(benchmark::State& state)
{
    // Shared interleaved LLC vs equal-capacity private per-core
    // partitions on a stream with a shared hot region: the shared
    // organization keeps one copy, the private one replicates it
    // (the tradeoff of Liu et al. / PHA$E in the paper's related work).
    bool per_core = state.range(0) != 0;
    DragonheadParams dp;
    dp.llc = {"llc", 8 * MiB, 64, 16};
    dp.nSlices = 8;
    dp.partitioning = per_core ? LlcPartitioning::PerCore
                               : LlcPartitioning::Interleaved;
    for (auto _ : state) {
        Dragonhead dh(dp);
        dh.observe(msg::encode(msg::Type::StartEmulation, 0));
        Rng rng(23);
        BusTransaction txn;
        txn.size = 64;
        txn.kind = TxnKind::ReadLine;
        for (std::uint64_t i = 0; i < 2'000'000; ++i) {
            // DEX-style slices: cores own 4096-access time slots.
            CoreId core = static_cast<CoreId>((i / 4096) % 8);
            if (i % 4096 == 0)
                dh.observe(msg::encode(msg::Type::SetCoreId, core));
            txn.core = core;
            txn.addr = traceAddr(i, rng);
            dh.observe(txn);
        }
        state.counters["miss_rate"] = dh.results().missRate();
    }
    state.SetItemsProcessed(state.iterations() * 2'000'000);
}
BENCHMARK(BM_SharedVsPrivateLlc)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_LineSizeCost(benchmark::State& state)
{
    std::uint32_t line = static_cast<std::uint32_t>(state.range(0));
    CacheParams p{"llc", 32 * MiB, line, 16};
    for (auto _ : state) {
        Cache cache(p);
        Rng rng(19);
        for (std::uint64_t i = 0; i < 1'000'000; ++i)
            cache.access(traceAddr(i, rng), false);
        state.counters["miss_rate"] = cache.stats().missRate();
    }
    state.SetItemsProcessed(state.iterations() * 1'000'000);
}
BENCHMARK(BM_LineSizeCost)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
