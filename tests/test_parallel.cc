/**
 * @file
 * Determinism suite for host-parallel emulation.
 *
 * The whole point of the AsyncEmulatorBank is that it changes *when* the
 * emulators run, never *what* they compute: emulation is passive and the
 * chunked bus preserves issue order, so every counter, MPKI value, and
 * ControlBlock 500 us sample window must be bit-identical to serial
 * inline snooping. These tests enforce that across 2 workloads x 3
 * emulator configs x several thread counts, plus the batched-FSB
 * delivery semantics and the parallel sweep harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/results.hh"
#include "harness/sweep_runner.hh"
#include "obs/host_profiler.hh"
#include "test_util.hh"

namespace cosim {
namespace {

PlatformParams
smallCmp(unsigned cores)
{
    PlatformParams p;
    p.name = "testCMP";
    p.nCores = cores;
    p.cpu.baseCpi = 1.0;
    p.cpu.caches.l1 = {"l1", 1 * KiB, 64, 2};
    p.cpu.caches.hasL2 = false;
    p.cpu.useDramLatency = false;
    p.cpu.beyondLatency = 50;
    p.cpu.emitFsbTraffic = true;
    p.dex.quantumInsts = 2000;
    return p;
}

DragonheadParams
llc(std::uint64_t size)
{
    DragonheadParams dh;
    dh.llc = {"llc", size, 64, 4};
    dh.nSlices = 4;
    return dh;
}

/** A config that stacks with no llc(): its lines are 128 B. */
DragonheadParams
llc128(std::uint64_t size)
{
    DragonheadParams dh = llc(size);
    dh.llc.lineSize = 128;
    return dh;
}

/**
 * The sweep every determinism case emulates: three sizes, which form
 * one LLC stack, and a 128 B-line config, which forms a second, so
 * several bank workers run.
 */
std::vector<DragonheadParams>
sweepConfigs()
{
    return {llc(8 * KiB), llc(64 * KiB), llc(256 * KiB), llc128(64 * KiB)};
}

/**
 * Everything an emulation run produced, bit-exact: per-emulator LLC
 * counters, per-core counters, and the full CB 500 us sample series.
 */
struct Fingerprint
{
    std::vector<std::uint64_t> counters;
    std::vector<double> samples;

    bool operator==(const Fingerprint&) const = default;
};

Fingerprint
fingerprintOf(const CoSimulation& cosim, unsigned n_cores)
{
    Fingerprint fp;
    for (unsigned e = 0; e < cosim.nEmulators(); ++e) {
        const Dragonhead& dh = cosim.emulator(e);
        LlcResults r = dh.results();
        fp.counters.push_back(r.accesses);
        fp.counters.push_back(r.misses);
        fp.counters.push_back(r.insts);
        fp.counters.push_back(r.cycles);
        for (unsigned c = 0; c < n_cores; ++c) {
            CoreCounters cc = dh.coreResults(static_cast<CoreId>(c));
            fp.counters.push_back(cc.accesses);
            fp.counters.push_back(cc.misses);
        }
        for (const Sample& s : dh.samples()) {
            fp.samples.push_back(s.timeUs);
            fp.samples.push_back(static_cast<double>(s.insts));
            fp.samples.push_back(static_cast<double>(s.accesses));
            fp.samples.push_back(static_cast<double>(s.misses));
            fp.samples.push_back(s.mpki());
        }
    }
    return fp;
}

/** Run one workload with the given emulation mode and fingerprint it. */
Fingerprint
runOnce(unsigned emu_threads, std::size_t chunk_txns, bool shared_array)
{
    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    params.emulationThreads = emu_threads;
    params.fsbBatchTxns = chunk_txns;
    CoSimulation cosim(params);

    test::LoopWorkload wl(16 * KiB, 4, shared_array);
    WorkloadConfig cfg;
    cfg.nThreads = cores;
    RunResult r = cosim.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(cosim.nEmulators(), 4u);
    // Workers are min(requested, levels): the sweep's two stacks have
    // three capacities and one.
    EXPECT_EQ(cosim.emulationThreads(),
              emu_threads == 0 ? 0u : std::min(emu_threads, 4u));
    // Chunk size 1 is the per-transaction reference: nothing batched.
    if (chunk_txns == 1)
        EXPECT_EQ(cosim.platform().fsb().batchCount(), 0u);
    else
        EXPECT_GT(cosim.platform().fsb().batchCount(), 0u);
    return fingerprintOf(cosim, cores);
}

TEST(ParallelEmulation, BitIdenticalToSerialAcrossThreadCounts)
{
    for (bool shared : {false, true}) {
        // Serial, per-transaction delivery is the reference.
        Fingerprint serial = runOnce(0, 1, shared);
        ASSERT_FALSE(serial.counters.empty());
        ASSERT_FALSE(serial.samples.empty());
        for (unsigned threads : {1u, 2u, 4u}) {
            // Small chunks force many batches through the queues.
            Fingerprint parallel = runOnce(threads, 256, shared);
            EXPECT_EQ(parallel, serial)
                << "threads=" << threads << " shared=" << shared;
        }
    }
}

TEST(ParallelEmulation, SerialBatchedDeliveryIsIdenticalToImmediate)
{
    // Batching alone (no worker threads) must not change anything: the
    // same transactions arrive in the same order, just chunk-deferred.
    // Chunk size 1 delivers each transaction as it is issued; 0 is the
    // default chunk every sweep rig uses.
    for (bool shared : {false, true}) {
        Fingerprint immediate = runOnce(0, 1, shared);
        ASSERT_FALSE(immediate.samples.empty());
        EXPECT_EQ(runOnce(0, 64, shared), immediate);
        EXPECT_EQ(runOnce(0, 4096, shared), immediate);
        EXPECT_EQ(runOnce(0, 0, shared), immediate);
    }
}

TEST(ParallelEmulation, ChunkSizeDoesNotChangeResults)
{
    Fingerprint base = runOnce(2, 128, false);
    EXPECT_EQ(runOnce(2, 1, false), base);
    EXPECT_EQ(runOnce(2, 1024, false), base);
}

TEST(ParallelEmulation, BankReportsDeliveryStats)
{
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = sweepConfigs();
    params.emulationThreads = 2;
    params.fsbBatchTxns = 128;
    CoSimulation cosim(params);

    test::LoopWorkload wl(8 * KiB, 3);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    cosim.run(wl, cfg);

    const AsyncEmulatorBank* bank = cosim.bank();
    ASSERT_NE(bank, nullptr);
    EXPECT_EQ(bank->nEmulators(), 4u);
    EXPECT_EQ(bank->nThreads(), 2u);

    const std::uint64_t fsb_txns =
        cosim.platform().fsb().txnCount();
    for (unsigned e = 0; e < bank->nEmulators(); ++e) {
        const EmulatorWorkerStats s = bank->emulatorStats(e);
        EXPECT_GT(s.batches, 1u) << "emulator " << e;
        // Every emulator saw the complete transaction stream.
        EXPECT_EQ(s.txns, fsb_txns) << "emulator " << e;
        EXPECT_GE(bank->queuePeak(e), 1u);
    }
    // The bus delivered in chunks: fewer batches than transactions.
    EXPECT_GT(cosim.platform().fsb().batchCount(), 0u);
    EXPECT_LT(cosim.platform().fsb().batchCount(), fsb_txns);
}

TEST(ParallelEmulation, RegistersWorkerStatsInRegistry)
{
    obs::StatsRegistry registry;
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = {llc(8 * KiB), llc(64 * KiB), llc128(64 * KiB)};
    params.emulationThreads = 2;
    params.fsbBatchTxns = 64;
    CoSimulation cosim(params);

    test::LoopWorkload wl(4 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    cosim.run(wl, cfg);
    cosim.registerStats(registry);

    const stats::Group* g = registry.find("dragonhead0");
    ASSERT_NE(g, nullptr);
    bool saw_batches = false;
    for (const auto& [name, value] : g->collect()) {
        if (name == "batches") {
            saw_batches = true;
            EXPECT_GT(value, 0.0);
        }
        // A host queue high-water varies run to run, so a --stats dump
        // leaves it out.
        EXPECT_NE(name, "queue_peak");
    }
    EXPECT_TRUE(saw_batches);
    EXPECT_GE(obs::HostProfiler::global().emulationThreads(), 2u);
}

TEST(ParallelEmulation, MixedListKeepsListOrderAcrossStacks)
{
    // fig4's seven sizes form one stack and a 128 B-line config a
    // second, eight levels in all; emulator(i) must still be config i,
    // serial, banked, or split into sub-stacks.
    std::vector<DragonheadParams> configs = presets::llcSizeSweepEmulators();
    configs.insert(configs.begin() + 3, presets::llcConfig(32 * MiB, 128));
    const unsigned cores = 4;
    auto run = [&](unsigned emu_threads) {
        CoSimParams params;
        params.platform = smallCmp(cores);
        params.emulators = configs;
        params.emulationThreads = emu_threads;
        params.fsbBatchTxns = 256;
        CoSimulation cosim(params);
        test::LoopWorkload wl(16 * KiB, 4);
        WorkloadConfig cfg;
        cfg.nThreads = cores;
        EXPECT_TRUE(cosim.run(wl, cfg).verified);
        EXPECT_EQ(cosim.nEmulators(), 8u);
        EXPECT_EQ(cosim.emulationThreads(), std::min(emu_threads, 8u));
        for (unsigned i = 0; i < configs.size(); ++i) {
            const CacheParams& got = cosim.emulator(i).params().llc;
            EXPECT_EQ(got.name, configs[i].llc.name) << i;
            EXPECT_EQ(got.size, configs[i].llc.size) << i;
            EXPECT_EQ(got.lineSize, configs[i].llc.lineSize) << i;
            EXPECT_EQ(got.assoc, configs[i].llc.assoc) << i;
        }
        return fingerprintOf(cosim, cores);
    };
    const Fingerprint serial = run(0);
    ASSERT_FALSE(serial.samples.empty());
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(5), serial);
}

TEST(ParallelEmulation, SizeSweepSplitsAcrossWorkers)
{
    // fig4's seven sizes are one stack; a bank splits it so every
    // worker asked for, up to one per size, emulates part of it.
    const unsigned cores = 4;
    auto run = [&](unsigned emu_threads, std::size_t chunk_txns) {
        CoSimParams params;
        params.platform = smallCmp(cores);
        params.emulators = presets::llcSizeSweepEmulators();
        params.emulationThreads = emu_threads;
        params.fsbBatchTxns = chunk_txns;
        CoSimulation cosim(params);
        test::LoopWorkload wl(16 * KiB, 4, true);
        WorkloadConfig cfg;
        cfg.nThreads = cores;
        EXPECT_TRUE(cosim.run(wl, cfg).verified);
        EXPECT_EQ(cosim.emulationThreads(), std::min(emu_threads, 7u))
            << emu_threads << " threads";
        return fingerprintOf(cosim, cores);
    };
    // Serial, per-transaction delivery is the reference.
    const Fingerprint serial = run(0, 1);
    ASSERT_FALSE(serial.samples.empty());
    for (unsigned threads : {1u, 2u, 3u, 7u, 9u})
        EXPECT_EQ(run(threads, 256), serial) << threads << " threads";
}

/** Sizes in MB, in list order, of the configs planned into @p stack. */
std::vector<std::uint64_t>
stackSizesMb(const std::vector<DragonheadParams>& configs,
             const std::vector<unsigned>& stack_of, unsigned stack)
{
    std::vector<std::uint64_t> mb;
    for (std::size_t i = 0; i < configs.size(); ++i)
        if (stack_of[i] == stack)
            mb.push_back(configs[i].llc.size / MiB);
    return mb;
}

TEST(PlanStacks, SplitsCapacitiesRoundRobinForWorkers)
{
    // fig4's sweep, as its three-worker bank emulates it.
    const std::vector<DragonheadParams> fig4 =
        presets::llcSizeSweepEmulators();
    const std::vector<unsigned> fig4_at3 = planStacks(fig4, 3);
    using Mb = std::vector<std::uint64_t>;
    EXPECT_EQ(stackSizesMb(fig4, fig4_at3, 0), (Mb{4, 32, 256}));
    EXPECT_EQ(stackSizesMb(fig4, fig4_at3, 1), (Mb{8, 64}));
    EXPECT_EQ(stackSizesMb(fig4, fig4_at3, 2), (Mb{16, 128}));
    EXPECT_EQ(planStacks(fig4), std::vector<unsigned>(7, 0));

    // A mixed list: two 32 MB configs in the size stack, and a
    // 128 B-line stack of two sizes.
    std::vector<DragonheadParams> configs = fig4;
    configs.insert(configs.begin() + 2, presets::llcConfig(32 * MiB, 128));
    configs.push_back(presets::llcConfig(32 * MiB, 64));
    configs.back().llc.name = "llc.again";
    configs.push_back(presets::llcConfig(64 * MiB, 128));
    // Levels: seven sizes in one stack, two in the other.
    for (unsigned workers : {0u, 1u, 2u, 3u, 4u, 6u, 9u, 12u}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        const std::vector<unsigned> stack_of = planStacks(configs, workers);
        ASSERT_EQ(stack_of.size(), configs.size());
        const unsigned n_stacks =
            1 + *std::max_element(stack_of.begin(), stack_of.end());
        EXPECT_EQ(n_stacks, std::clamp(workers, 2u, 9u));
        // Stacks are numbered in order of their first config.
        unsigned seen = 0;
        for (unsigned s : stack_of) {
            EXPECT_LE(s, seen);
            seen = std::max(seen, s + 1);
        }
        for (std::size_t i = 0; i < configs.size(); ++i) {
            for (std::size_t j = 0; j < configs.size(); ++j) {
                // Each stack's members stack; equal capacities that
                // stack share a stack.
                if (stack_of[i] == stack_of[j]) {
                    EXPECT_TRUE(LlcStack::stacks(configs[i], configs[j]))
                        << i << ", " << j;
                }
                if (LlcStack::stacks(configs[i], configs[j]) &&
                    configs[i].llc.size == configs[j].llc.size) {
                    EXPECT_EQ(stack_of[i], stack_of[j]) << i << ", " << j;
                }
            }
        }
    }
}

TEST(FsbBatch, ChunksPreserveIssueOrderAndFlushOnCapacity)
{
    FrontSideBus fsb;

    struct Recorder : BusSnooper
    {
        void observe(const BusTransaction& txn) override
        {
            addrs.push_back(txn.addr);
        }
        void observeBatch(const BusTransaction* txns,
                          std::size_t n) override
        {
            batchSizes.push_back(n);
            BusSnooper::observeBatch(txns, n);
        }
        std::vector<Addr> addrs;
        std::vector<std::size_t> batchSizes;
    } rec;

    fsb.attach(&rec);
    fsb.setBatchCapacity(4);

    BusTransaction txn;
    txn.size = 64;
    txn.kind = TxnKind::ReadLine;
    for (Addr a = 0; a < 10; ++a) {
        txn.addr = a * 64;
        fsb.issue(txn);
    }
    // 10 issues, capacity 4: two full chunks delivered, 2 txns pending.
    EXPECT_EQ(rec.addrs.size(), 8u);
    EXPECT_EQ(fsb.pendingTxns(), 2u);
    fsb.flush();
    EXPECT_EQ(fsb.pendingTxns(), 0u);
    ASSERT_EQ(rec.addrs.size(), 10u);
    for (Addr a = 0; a < 10; ++a)
        EXPECT_EQ(rec.addrs[static_cast<std::size_t>(a)], a * 64);
    ASSERT_EQ(rec.batchSizes.size(), 3u);
    EXPECT_EQ(rec.batchSizes[0], 4u);
    EXPECT_EQ(rec.batchSizes[1], 4u);
    EXPECT_EQ(rec.batchSizes[2], 2u);
    EXPECT_EQ(fsb.batchCount(), 3u);
    // Counters accrue at issue time, not delivery time.
    EXPECT_EQ(fsb.txnCount(), 10u);

    fsb.detach(&rec);
}

TEST(FsbBatch, SwitchingCapacityFlushesFirst)
{
    FrontSideBus fsb;
    test::CountingSnooper snoop;
    fsb.attach(&snoop);
    fsb.setBatchCapacity(100);

    BusTransaction txn;
    txn.size = 64;
    txn.kind = TxnKind::WriteLine;
    fsb.issue(txn);
    fsb.issue(txn);
    EXPECT_EQ(snoop.total, 0u); // buffered
    fsb.setBatchCapacity(0);    // back to immediate: must flush
    EXPECT_EQ(snoop.total, 2u);
    fsb.issue(txn);
    EXPECT_EQ(snoop.total, 3u); // immediate again
    fsb.detach(&snoop);
}

TEST(FsbBatchDeathTest, DetachDuringBroadcastPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    struct Detacher : BusSnooper
    {
        FrontSideBus* bus = nullptr;
        void observe(const BusTransaction&) override { bus->detach(this); }
    };

    EXPECT_DEATH(
        {
            FrontSideBus fsb;
            Detacher d;
            d.bus = &fsb;
            fsb.attach(&d);
            BusTransaction txn;
            txn.kind = TxnKind::ReadLine;
            fsb.issue(txn);
        },
        "detach\\(\\) from inside a bus broadcast");
}

TEST(ParallelSweep, JobsProduceIdenticalFigures)
{
    // The miniature Figure-4 path, serial vs two parallel cells. The
    // figure series and the underlying integer counters must match
    // exactly; only host wall-clock may differ.
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA", "FIMI"};

    PlatformParams platform = presets::cmpPlatform("tiny", 2);

    BenchOptions serial_opts = opts;
    serial_opts.jobs = 1;
    FigureData serial =
        SweepRunner(serial_opts).runCacheSizeFigure("FigA", platform);

    BenchOptions parallel_opts = opts;
    parallel_opts.jobs = 2;
    parallel_opts.emuThreads = 2;
    FigureData parallel =
        SweepRunner(parallel_opts).runCacheSizeFigure("FigB", platform);

    ASSERT_EQ(serial.seriesNames(), parallel.seriesNames());
    for (const std::string& name : serial.seriesNames()) {
        EXPECT_EQ(serial.series(name), parallel.series(name)) << name;
        const auto& sp = serial.points(name);
        const auto& pp = parallel.points(name);
        ASSERT_EQ(sp.size(), pp.size());
        for (std::size_t i = 0; i < sp.size(); ++i) {
            EXPECT_EQ(sp[i].llcAccesses, pp[i].llcAccesses);
            EXPECT_EQ(sp[i].llcMisses, pp[i].llcMisses);
            EXPECT_EQ(sp[i].insts, pp[i].insts);
        }
    }
}

} // namespace
} // namespace cosim
