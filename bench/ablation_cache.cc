/**
 * @file
 * Ablation study (google-benchmark): design choices DESIGN.md calls out.
 *
 *  - number of CC slices (1 vs 4) -- fidelity/cost of the interleave,
 *  - a size sweep emulated as one LLC stack, as the 3 sub-stacks a
 *    3-worker bank splits it into, or as 7 one-level stacks,
 *  - a shared interleaved LLC vs private per-core partitions,
 *  - the host cost of the line sizes Figure 7 sweeps.
 *
 * Each benchmark reports the measured LLC miss rate as a counter, so the
 * ablation shows both the simulation cost and the modelled outcome.
 */

#include <benchmark/benchmark.h>

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
BM_SizeSweepStacks(benchmark::State& state)
{
    // Seven capacities over one pre-generated stream, on one thread, as
    // planStacks groups them for state.range(0) workers: 1 is the one
    // stack the serial figures run; 3 the sub-stacks a 3-worker bank
    // splits it into, run here back to back, so the arm prices the
    // split's extra total work; 7 is seven one-level stacks, what seven
    // standalone boards emulate.
    const auto workers = static_cast<unsigned>(state.range(0));
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
    for (auto _ : state) {
        DragonheadStacks stacks(configs, workers);
        FrontSideBus bus;
        bus.setBatchCapacity(4096);
        for (unsigned s = 0; s < stacks.nStacks(); ++s)
            bus.attach(&stacks.stack(s));
        for (const BusTransaction& txn : stream)
            bus.issue(txn);
        bus.flush();
        for (unsigned i = 0; i < stacks.nBoards(); ++i)
            benchmark::DoNotOptimize(stacks.board(i).results().misses);
        state.counters["stacks"] = stacks.nStacks();
    }
    state.SetItemsProcessed(state.iterations() * 500'000 * 7);
}
BENCHMARK(BM_SizeSweepStacks)->Arg(1)->Arg(3)->Arg(7)
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
