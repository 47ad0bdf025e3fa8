/**
 * @file
 * Integration tests for the assembled co-simulation and the experiment
 * presets.
 */

#include <gtest/gtest.h>

#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/results.hh"
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

TEST(CoSimulation, MpkiShrinksWithCacheSize)
{
    CoSimParams params;
    params.platform = smallCmp(4);
    // Per-thread arrays of 16 KB -> 64 KB total working set. LRU thrashes
    // cyclic sweeps for any capacity below the working set, so the
    // interesting comparison is thrash vs exactly-fits vs ample.
    params.emulators = {llc(8 * KiB), llc(64 * KiB), llc(256 * KiB)};
    CoSimulation cosim(params);

    test::LoopWorkload wl(16 * KiB, 6);
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = cosim.run(wl, cfg);
    EXPECT_TRUE(r.verified);

    std::vector<double> mpki = cosim.mpkis();
    ASSERT_EQ(mpki.size(), 3u);
    EXPECT_GT(mpki[0], 2.0 * mpki[1]);
    EXPECT_GE(mpki[1], mpki[2]);
    // A capture-everything LLC leaves essentially only cold misses.
    EXPECT_LT(mpki[2], mpki[0] / 4.0);
}

TEST(CoSimulation, EmulatorsSeeTheSameExecution)
{
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = {llc(32 * KiB), llc(32 * KiB)};
    CoSimulation cosim(params);

    test::LoopWorkload wl(8 * KiB, 3);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    cosim.run(wl, cfg);

    LlcResults a = cosim.emulator(0).results();
    LlcResults b = cosim.emulator(1).results();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.insts, b.insts);
}

TEST(CoSimulation, EmulatorInstsMatchPlatform)
{
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = {llc(32 * KiB)};
    CoSimulation cosim(params);

    test::LoopWorkload wl(8 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    RunResult r = cosim.run(wl, cfg);
    EXPECT_EQ(cosim.emulator(0).results().insts, r.totalInsts);
}

TEST(CoSimulation, RepeatRunsResetEmulators)
{
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = {llc(32 * KiB)};
    CoSimulation cosim(params);

    test::LoopWorkload wl(8 * KiB, 2);
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    cosim.run(wl, cfg);
    LlcResults first = cosim.emulator(0).results();
    cosim.run(wl, cfg);
    LlcResults second = cosim.emulator(0).results();
    EXPECT_EQ(first.accesses, second.accesses);
    EXPECT_EQ(first.misses, second.misses);
}

TEST(CoSimulation, SharedWorkloadInsensitiveToThreads)
{
    // All threads hammer one shared array: LLC misses barely change
    // with the thread count (the paper's MDS/SVM-RFE/SNP category).
    auto run_mpki = [](unsigned threads) {
        CoSimParams params;
        params.platform = smallCmp(threads);
        params.emulators = {llc(16 * KiB)};
        CoSimulation cosim(params);
        test::LoopWorkload wl(64 * KiB, 4, /*shared=*/true);
        WorkloadConfig cfg;
        cfg.nThreads = threads;
        cosim.run(wl, cfg);
        return cosim.emulator(0).results().mpki();
    };
    double m2 = run_mpki(2);
    double m8 = run_mpki(8);
    EXPECT_NEAR(m8 / m2, 1.0, 0.25);
}

TEST(CoSimulation, PrivateWorkloadScalesWithThreads)
{
    // Private per-thread arrays: the total working set grows with the
    // thread count and a fixed-size LLC sees more misses (the paper's
    // SHOT/VIEWTYPE category).
    auto run_miss_rate = [](unsigned threads) {
        CoSimParams params;
        params.platform = smallCmp(threads);
        params.emulators = {llc(64 * KiB)};
        CoSimulation cosim(params);
        test::LoopWorkload wl(32 * KiB, 4, /*shared=*/false);
        WorkloadConfig cfg;
        cfg.nThreads = threads;
        cosim.run(wl, cfg);
        return cosim.emulator(0).results().missRate();
    };
    double r1 = run_miss_rate(1); // 32 KB fits in 64 KB
    double r4 = run_miss_rate(4); // 128 KB thrashes it
    EXPECT_GT(r4, 2.0 * r1);
}

// ----------------------------------------------------------- experiments

TEST(Presets, CmpScales)
{
    EXPECT_EQ(presets::scmp().nCores, 8u);
    EXPECT_EQ(presets::mcmp().nCores, 16u);
    EXPECT_EQ(presets::lcmp().nCores, 32u);
    EXPECT_TRUE(presets::scmp().cpu.emitFsbTraffic);
    EXPECT_FALSE(presets::scmp().cpu.caches.hasL2);
}

TEST(Presets, SweepShapes)
{
    auto sizes = presets::llcSizeSweep();
    ASSERT_EQ(sizes.size(), 7u);
    EXPECT_EQ(sizes.front(), 4 * MiB);
    EXPECT_EQ(sizes.back(), 256 * MiB);

    auto lines = presets::lineSizeSweep();
    ASSERT_EQ(lines.size(), 7u);
    EXPECT_EQ(lines.front(), 64u);
    EXPECT_EQ(lines.back(), 4096u);
}

TEST(Presets, EmulatorConfigsAreConstructible)
{
    for (const auto& dh_params : presets::llcSizeSweepEmulators()) {
        Dragonhead dh(dh_params);
        EXPECT_EQ(dh.nSlices(), 4u);
    }
    for (const auto& dh_params : presets::lineSizeSweepEmulators()) {
        Dragonhead dh(dh_params);
        EXPECT_EQ(dh.params().llc.size, 32 * MiB);
    }
}

TEST(Presets, TimingCpus)
{
    CpuParams p4 = presets::pentium4Cpu();
    EXPECT_EQ(p4.caches.l1.size, 8 * KiB);
    EXPECT_TRUE(p4.caches.hasL2);
    EXPECT_EQ(p4.caches.l2.size, 512 * KiB);
    EXPECT_FALSE(p4.prefetchEnabled);

    CpuParams xeon = presets::xeonCpu(true);
    EXPECT_TRUE(xeon.prefetchEnabled);
    EXPECT_TRUE(xeon.useDramLatency);
}

// --------------------------------------------------------------- results

TEST(FigureData, RenderAndSeries)
{
    FigureData fig("Fig X", "cache size", {"4MB", "8MB"});
    fig.addSeries("FIMI", {3.5, 1.25});
    fig.addSeries("MDS", {19.0, 19.0});

    EXPECT_EQ(fig.seriesNames().size(), 2u);
    EXPECT_DOUBLE_EQ(fig.series("FIMI")[1], 1.25);

    std::string out = fig.render("MPKI");
    EXPECT_NE(out.find("Fig X"), std::string::npos);
    EXPECT_NE(out.find("FIMI"), std::string::npos);
    EXPECT_NE(out.find("19.000"), std::string::npos);
}

TEST(FigureData, CsvOutput)
{
    std::string path = ::testing::TempDir() + "cosim_fig_test.csv";
    FigureData fig("FigY", "line size", {"64B", "128B"});
    fig.addSeries("SHOT", {10.0, 5.0});
    fig.addFailedSeries("MDS");
    fig.writeCsv(path);

    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[128];
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "workload,64B,128B,status\n");
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "SHOT,10,5,ok\n");
    // A failed cell keeps its row: empty value fields, status "failed".
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    EXPECT_STREQ(buf, "MDS,,,failed\n");
    std::fclose(f);
    std::remove(path.c_str());
}

TEST(SweepPointMetrics, Mpki)
{
    SweepPoint p;
    p.llcMisses = 42;
    p.insts = 84000;
    EXPECT_DOUBLE_EQ(p.mpki(), 0.5);
    SweepPoint zero;
    EXPECT_DOUBLE_EQ(zero.mpki(), 0.0);
}

} // namespace
} // namespace cosim
