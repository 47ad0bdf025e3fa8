/**
 * @file
 * Tests for the SoftSDV side: CPU model, DEX scheduler, virtual
 * platform.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "dragonhead/fsb_messages.hh"
#include "softsdv/virtual_platform.hh"
#include "test_util.hh"

namespace cosim {
namespace {

CpuParams
timingCpu()
{
    CpuParams p;
    p.baseCpi = 1.0;
    p.caches.l1 = {"l1", 1 * KiB, 64, 2};
    p.caches.hasL2 = true;
    p.caches.l2 = {"l2", 8 * KiB, 64, 4};
    p.l2HitLatency = 10;
    p.useDramLatency = true;
    p.emitFsbTraffic = false;
    return p;
}

CpuParams
cosimCpu()
{
    CpuParams p;
    p.baseCpi = 1.0;
    p.caches.l1 = {"l1", 1 * KiB, 64, 2};
    p.caches.hasL2 = false;
    p.useDramLatency = false;
    p.beyondLatency = 50;
    p.emitFsbTraffic = true;
    return p;
}

// ------------------------------------------------------------- cpu model

TEST(CpuModel, InstructionAccounting)
{
    DramModel dram;
    CpuModel cpu(0, timingCpu(), &dram, nullptr);

    cpu.dataAccess(0x1000, 8, false);
    cpu.dataAccess(0x2000, 4, true);
    cpu.dataAccess(0x3000, 32, false); // 4 loads
    cpu.computeOps(10);

    EXPECT_EQ(cpu.insts(), 1u + 1u + 4u + 10u);
    EXPECT_EQ(cpu.memInsts(), 6u);
    EXPECT_EQ(cpu.loads(), 5u);
    EXPECT_EQ(cpu.stores(), 1u);
}

TEST(CpuModel, TimingChargesMissLatencies)
{
    DramParams dp;
    dp.baseLatency = 200;
    DramModel dram(dp);
    CpuParams p = timingCpu();
    CpuModel cpu(0, p, &dram, nullptr);

    cpu.dataAccess(0x1000, 8, false); // cold: L1 miss, L2 miss -> memory
    Cycles after_miss = cpu.cycles();
    EXPECT_GE(after_miss, 200u);

    cpu.dataAccess(0x1000, 8, false); // L1 hit: base CPI only
    EXPECT_EQ(cpu.cycles(), after_miss + 1);
}

TEST(CpuModel, L2HitCostsL2Latency)
{
    DramModel dram;
    CpuParams p = timingCpu();
    CpuModel cpu(0, p, &dram, nullptr);

    cpu.dataAccess(0x0, 8, false); // miss to memory; fills L1+L2
    // Evict from tiny L1 (2-way, 8 sets) with two same-set lines.
    cpu.dataAccess(8 * 64, 8, false);
    cpu.dataAccess(16 * 64, 8, false);
    Cycles before = cpu.cycles();
    cpu.dataAccess(0x0, 8, false); // L1 miss, L2 hit
    EXPECT_EQ(cpu.cycles(), before + 1 + p.l2HitLatency);
}

TEST(CpuModel, StraddlingAccessTouchesBothLines)
{
    DramModel dram;
    CpuModel cpu(0, timingCpu(), &dram, nullptr);
    cpu.dataAccess(0x103c, 8, false); // crosses the 0x1040 boundary
    EXPECT_EQ(cpu.caches().l1().stats().accesses, 2u);
    EXPECT_EQ(cpu.insts(), 1u);
}

TEST(CpuModel, CosimModeEmitsFsbTraffic)
{
    FrontSideBus bus;
    test::CountingSnooper snoop;
    bus.attach(&snoop);
    CpuModel cpu(0, cosimCpu(), nullptr, &bus);

    cpu.dataAccess(0x1000, 8, false); // miss -> ReadLine
    cpu.dataAccess(0x1008, 8, false); // hit -> nothing
    EXPECT_EQ(snoop.reads, 1u);
    EXPECT_EQ(snoop.total, 1u);
    EXPECT_EQ(snoop.last.addr, 0x1000u);
    EXPECT_EQ(snoop.last.size, 64u);
}

TEST(CpuModel, DirtyEvictionEmitsWriteLine)
{
    FrontSideBus bus;
    test::CountingSnooper snoop;
    bus.attach(&snoop);
    CpuModel cpu(0, cosimCpu(), nullptr, &bus);

    cpu.dataAccess(0x0, 8, true); // dirty line 0 (WriteLine fill)
    // Conflict it out of the 2-way set.
    cpu.dataAccess(8 * 64, 8, false);
    cpu.dataAccess(16 * 64, 8, false);
    EXPECT_GE(snoop.writes, 2u); // the write-miss fill + the writeback
}

TEST(CpuModel, PrefetcherCoversStream)
{
    DramParams dp;
    dp.baseLatency = 300;
    DramModel dram(dp);
    CpuParams p = timingCpu();
    p.prefetchEnabled = true;
    CpuModel with_pf(0, p, &dram, nullptr);

    DramModel dram2(dp);
    CpuParams p2 = timingCpu();
    CpuModel without(0, p2, &dram2, nullptr);

    for (Addr a = 0; a < 256 * KiB; a += 8) {
        with_pf.dataAccess(a, 8, false);
        without.dataAccess(a, 8, false);
    }
    EXPECT_GT(with_pf.prefetchStats().installed, 0u);
    EXPECT_GT(with_pf.caches().l2().stats().usefulPrefetches, 100u);
    // Same instruction count, fewer cycles with the prefetcher.
    EXPECT_EQ(with_pf.insts(), without.insts());
    EXPECT_LT(with_pf.cycles(), without.cycles());
}

TEST(CpuModel, ResetClearsEverything)
{
    DramModel dram;
    CpuModel cpu(0, timingCpu(), &dram, nullptr);
    cpu.dataAccess(0x0, 8, true);
    cpu.computeOps(5);
    cpu.reset();
    EXPECT_EQ(cpu.insts(), 0u);
    EXPECT_EQ(cpu.cycles(), 0u);
    EXPECT_EQ(cpu.caches().l1().linesValid(), 0u);
    EXPECT_EQ(cpu.caches().l1().stats().accesses, 0u);
}

// --------------------------------------------------------- dex scheduler

TEST(DexScheduler, RunsAllTasksToCompletion)
{
    DramModel dram;
    FrontSideBus bus;
    std::vector<std::unique_ptr<CpuModel>> cpus;
    for (unsigned i = 0; i < 4; ++i)
        cpus.push_back(
            std::make_unique<CpuModel>(i, cosimCpu(), &dram, &bus));

    SimAllocator alloc;
    test::LoopWorkload wl(4 * KiB, 3);
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    wl.setUp(cfg, alloc);

    std::vector<std::unique_ptr<ThreadTask>> tasks;
    std::vector<CoreSlot> slots(4);
    for (unsigned i = 0; i < 4; ++i) {
        tasks.push_back(wl.createThread(i));
        slots[i].cpu = cpus[i].get();
        slots[i].task = tasks[i].get();
    }

    DexParams dp;
    dp.quantumInsts = 500;
    DexScheduler sched(dp, &bus, &dram);
    sched.run(slots);

    EXPECT_TRUE(wl.verify());
    EXPECT_GT(sched.rounds(), 1u);
    EXPECT_GE(sched.slices(), 4u);
    for (const auto& cpu : cpus)
        EXPECT_GT(cpu->insts(), 0u);
}

TEST(DexScheduler, EmitsMessageProtocol)
{
    DramModel dram;
    FrontSideBus bus;
    test::CountingSnooper snoop;
    bus.attach(&snoop);

    CpuModel cpu(0, cosimCpu(), &dram, &bus);
    SimAllocator alloc;
    test::LoopWorkload wl(1 * KiB, 1);
    WorkloadConfig cfg;
    cfg.nThreads = 1;
    wl.setUp(cfg, alloc);
    auto task = wl.createThread(0);

    std::vector<CoreSlot> slots(1);
    slots[0].cpu = &cpu;
    slots[0].task = task.get();

    DexParams dp;
    dp.quantumInsts = 100;
    DexScheduler sched(dp, &bus, &dram);
    sched.run(slots);

    // Start + Stop + 3 messages per slice (core-id, insts, cycles).
    EXPECT_EQ(snoop.messages, 2 + 3 * sched.slices());
}

TEST(DexScheduler, MessagesCarryExactInstructionCounts)
{
    DramModel dram;
    FrontSideBus bus;

    // Decode the InstRetired stream and compare against the CPU total.
    class InstSumSnooper : public BusSnooper
    {
      public:
        void
        observe(const BusTransaction& txn) override
        {
            if (txn.kind != TxnKind::Message)
                return;
            msg::Message m = msg::decode(txn.addr);
            if (m.type == msg::Type::InstRetired)
                total += m.payload;
        }
        std::uint64_t total = 0;
    } snoop;
    bus.attach(&snoop);

    CpuModel cpu(0, cosimCpu(), &dram, &bus);
    SimAllocator alloc;
    test::LoopWorkload wl(2 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 1;
    wl.setUp(cfg, alloc);
    auto task = wl.createThread(0);

    std::vector<CoreSlot> slots(1);
    slots[0].cpu = &cpu;
    slots[0].task = task.get();
    DexParams dp;
    dp.quantumInsts = 300;
    DexScheduler sched(dp, &bus, &dram);
    sched.run(slots);

    EXPECT_EQ(snoop.total, cpu.insts());
}

// ------------------------------------------------------ virtual platform

PlatformParams
testPlatform(unsigned cores)
{
    PlatformParams p;
    p.name = "test";
    p.nCores = cores;
    p.cpu = cosimCpu();
    p.dex.quantumInsts = 1000;
    return p;
}

TEST(VirtualPlatform, RunsAndAggregates)
{
    VirtualPlatform vp(testPlatform(4));
    test::LoopWorkload wl(8 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);

    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.nThreads, 4u);
    EXPECT_GT(r.totalInsts, 4u * 2u * 1024u); // 4 threads x 2 passes
    EXPECT_GT(r.memInsts, 0u);
    EXPECT_EQ(r.loads + r.stores, r.memInsts);
    EXPECT_GT(r.maxCoreCycles, 0u);
    EXPECT_GE(r.totalCycles, r.maxCoreCycles);
    EXPECT_GT(r.l1.accesses, 0u);
    EXPECT_GT(r.footprintBytes, 4u * 8u * 1024u - 1u);
    EXPECT_GT(r.simMips(), 0.0);
}

TEST(VirtualPlatform, SymmetricThreadsBalance)
{
    VirtualPlatform vp(testPlatform(2));
    test::LoopWorkload wl(4 * KiB, 4);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    vp.run(wl, cfg);
    // Identical per-thread work: instruction counts match exactly.
    EXPECT_EQ(vp.cpu(0).insts(), vp.cpu(1).insts());
}

TEST(VirtualPlatform, ReuseAcrossRunsIsClean)
{
    VirtualPlatform vp(testPlatform(2));
    test::LoopWorkload wl(4 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    RunResult r1 = vp.run(wl, cfg);
    RunResult r2 = vp.run(wl, cfg);
    EXPECT_EQ(r1.totalInsts, r2.totalInsts);
    EXPECT_EQ(r1.l1.misses, r2.l1.misses);
    EXPECT_EQ(r1.maxCoreCycles, r2.maxCoreCycles);
}

TEST(VirtualPlatform, DerivedMetrics)
{
    RunResult r;
    r.totalInsts = 1000;
    r.memInsts = 500;
    r.loads = 400;
    r.totalCycles = 2000;
    r.maxCoreCycles = 1000;
    r.l1.accesses = 500;
    r.l1.misses = 50;
    r.l2.misses = 5;
    EXPECT_DOUBLE_EQ(r.ipc(), 0.5);
    EXPECT_DOUBLE_EQ(r.parallelIpc(), 1.0);
    EXPECT_DOUBLE_EQ(r.memInstPercent(), 50.0);
    EXPECT_DOUBLE_EQ(r.memReadPercent(), 40.0);
    EXPECT_DOUBLE_EQ(r.l1AccessesPerKiloInst(), 500.0);
    EXPECT_DOUBLE_EQ(r.l1MissesPerKiloInst(), 50.0);
    EXPECT_DOUBLE_EQ(r.l2MissesPerKiloInst(), 5.0);
}

TEST(CoreContext, YieldFlagLifecycle)
{
    DramModel dram;
    CpuModel cpu(0, cosimCpu(), &dram, nullptr);
    CoreContext ctx(&cpu);
    EXPECT_FALSE(ctx.yielded());
    ctx.yield();
    EXPECT_TRUE(ctx.yielded());
    ctx.clearYield();
    EXPECT_FALSE(ctx.yielded());
    EXPECT_EQ(ctx.coreId(), 0u);
}

} // namespace
} // namespace cosim
