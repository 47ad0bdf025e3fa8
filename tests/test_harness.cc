/**
 * @file
 * Tests for the bench harness: option parsing, output dirs, and a tiny
 * end-to-end sweep through the SweepRunner path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>

#include "base/fault.hh"
#include "base/units.hh"
#include "harness/cell_isolation.hh"
#include "harness/report.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"
#include "obs/stats_registry.hh"

namespace cosim {
namespace {

BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char*> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (auto& a : args)
        argv.push_back(a.data());
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                          "test");
}

TEST(BenchOptions, Defaults)
{
    BenchOptions o = parse({});
    EXPECT_DOUBLE_EQ(o.scale, 1.0);
    EXPECT_EQ(o.seed, 42u);
    EXPECT_EQ(o.workloads.size(), 8u);
    EXPECT_EQ(o.outDir, "results");
    EXPECT_TRUE(o.strictVerify);
}

TEST(BenchOptions, ScaleAndQuick)
{
    EXPECT_DOUBLE_EQ(parse({"--scale=0.25"}).scale, 0.25);
    EXPECT_DOUBLE_EQ(parse({"--quick"}).scale, 0.05);
}

TEST(BenchOptions, WorkloadSubset)
{
    BenchOptions o = parse({"--workloads=FIMI, MDS"});
    ASSERT_EQ(o.workloads.size(), 2u);
    EXPECT_EQ(o.workloads[0], "FIMI");
    EXPECT_EQ(o.workloads[1], "MDS");
}

TEST(BenchOptions, WorkloadNamesTakeTheCatalogSpelling)
{
    BenchOptions o = parse({"--workloads=plsa,svm_rfe,Fimi,nope"});
    ASSERT_EQ(o.workloads.size(), 4u);
    EXPECT_EQ(o.workloads[0], "PLSA");
    EXPECT_EQ(o.workloads[1], "SVM-RFE");
    EXPECT_EQ(o.workloads[2], "FIMI");
    // An unknown name is left for the cell to reject.
    EXPECT_EQ(o.workloads[3], "nope");
}

TEST(BenchOptions, SeedOutAndVerify)
{
    BenchOptions o =
        parse({"--seed=7", "--out=/tmp/x", "--no-verify"});
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.outDir, "/tmp/x");
    EXPECT_FALSE(o.strictVerify);
}

TEST(BenchOptions, RobustnessFlags)
{
    BenchOptions o = parse({"--keep-going", "--retry-cells=2",
                            "--cell-timeout=1.5", "--degrade-serial"});
    EXPECT_TRUE(o.keepGoing);
    EXPECT_EQ(o.retryCells, 2u);
    EXPECT_DOUBLE_EQ(o.cellTimeout, 1.5);
    EXPECT_TRUE(o.degradeSerial);

    BenchOptions d = parse({});
    EXPECT_FALSE(d.keepGoing);
    EXPECT_EQ(d.retryCells, 0u);
    EXPECT_DOUBLE_EQ(d.cellTimeout, 0.0);
    EXPECT_FALSE(d.degradeSerial);
    EXPECT_TRUE(d.faults.empty());
}

TEST(BenchOptions, FaultsFlagArmsThePlanWithTheRunSeed)
{
    BenchOptions o = parse({"--faults=cell.throw:nth=5", "--seed=9"});
    EXPECT_EQ(o.faults, "cell.throw:nth=5");
    EXPECT_TRUE(FaultInjector::enabled());
    FaultInjector& inj = FaultInjector::global();
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(inj.shouldFail("cell.throw")) << i;
    EXPECT_TRUE(inj.shouldFail("cell.throw"));
    // Disarm so the plan cannot leak into later tests.
    inj.disarm();
    EXPECT_FALSE(FaultInjector::enabled());
}

TEST(BenchOptions, EnsureOutputDirCreates)
{
    std::string dir = ::testing::TempDir() + "cosim_outdir_test";
    std::remove(dir.c_str());
    ensureOutputDir(dir);
    struct stat st{};
    ASSERT_EQ(stat(dir.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    ensureOutputDir(dir); // idempotent
    rmdir(dir.c_str());
}

TEST(SweepRunner, TinyEndToEndFigure)
{
    // A miniature version of the Figure 4 path: 2 cores, the real LLC
    // sweep emulators, one small workload.
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    SweepRunner runner(opts);
    FigureData fig = runner.runCacheSizeFigure("FigTest", platform);

    ASSERT_EQ(fig.seriesNames().size(), 1u);
    const auto& series = fig.series("PLSA");
    ASSERT_EQ(series.size(), 7u);
    // MPKI must be non-increasing along the size sweep.
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_LE(series[i], series[i - 1] + 1e-9);

    const auto& points = fig.points("PLSA");
    ASSERT_EQ(points.size(), 7u);
    EXPECT_EQ(points[0].llcSize, 4 * MiB);
    EXPECT_EQ(points[0].nCores, 2u);
    EXPECT_GT(points[0].insts, 0u);
}

TEST(SweepRunner, LowercaseWorkloadNamesGiveCatalogRows)
{
    // Every mode names a workload's row, CSV line and stats namespace
    // by its catalog spelling, whatever spelling --workloads used.
    const std::string out = ::testing::TempDir() + "cosim_lowercase";
    ensureOutputDir(out);
    for (const char* mode : {"combined", "replay"}) {
        BenchOptions opts = parse({"--workloads=plsa", "--scale=0.02",
                                   std::string("--cells=") + mode,
                                   "--out=" + out});
        obs::StatsRegistry::global().clear();
        PlatformParams platform = presets::cmpPlatform("tiny", 2);
        SweepRunner runner(opts);
        FigureData fig = runner.runCacheSizeFigure("FigCase", platform);
        ASSERT_EQ(fig.seriesNames(), std::vector<std::string>{"PLSA"})
            << mode;

        const std::string csv = out + "/case.csv";
        fig.writeCsv(csv);
        std::ifstream in(csv);
        std::string header, row;
        std::getline(in, header);
        std::getline(in, row);
        EXPECT_EQ(row.rfind("PLSA,", 0), 0u) << mode << ": " << row;

        bool prefixed = false;
        for (const std::string& group :
             obs::StatsRegistry::global().groupNames()) {
            prefixed = prefixed || group.rfind("cell/PLSA/", 0) == 0;
            EXPECT_NE(group.rfind("cell/plsa", 0), 0u) << group;
        }
        EXPECT_TRUE(prefixed) << mode;
    }
    obs::StatsRegistry::global().clear();
}

TEST(SweepRunner, SampledCellRetryRebuildsTheSamplingRecord)
{
    // An injected throw fails the sampled cell's first attempt (hit 1
    // is the profile cell, hit 2 the sampled cell); --retry-cells=1
    // re-runs it on a fresh rig, and the retried attempt must rebuild
    // the full sampled-simulation record -- estimates, error-vs-full
    // baseline, coverage -- not just the figure row.
    std::string dir = ::testing::TempDir() + "cosim_sampled_retry";
    ensureOutputDir(dir);
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};
    opts.cells = CellMode::Sampled;
    opts.retryCells = 1;
    opts.samplePeriodUs = 50; // quick-style: enough windows to cluster
    opts.outDir = dir;
    opts.manifestFile = dir + "/run.json";

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    FigureData fig = [&] {
        ScopedFaultPlan plan("cell.throw:nth=2");
        SweepRunner runner(opts);
        return runner.runCacheSizeFigure("FigRetry", platform);
    }();

    // The figure row is real data, tagged with the attempt history.
    EXPECT_EQ(fig.status("PLSA"), "retried");
    ASSERT_EQ(fig.series("PLSA").size(), 7u);

    std::ifstream in(dir + "/run.json");
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, doc, &error)) << error;
    const obs::json::Value* workloads = doc.find("workloads");
    ASSERT_NE(workloads, nullptr);
    ASSERT_EQ(workloads->arr.size(), 1u);
    const obs::json::Value& w = workloads->arr[0];
    EXPECT_EQ(w.find("status")->str, "retried");
    EXPECT_EQ(w.find("attempts")->num, 2.0);
    const obs::json::Value* sampling = w.find("sampling");
    ASSERT_NE(sampling, nullptr)
        << "retry dropped the sampling record";
    EXPECT_GE(sampling->find("intervals")->num, 1.0);
    EXPECT_GT(sampling->find("coverage")->num, 0.0);
    // The profile pass succeeded (hit 1 did not fire), so the error
    // baseline must be present too.
    EXPECT_NE(sampling->find("error"), nullptr);
}

TEST(CellArtifact, RenderParseRenderIsByteIdentical)
{
    // The artifact is both the isolation wire format and the journal's
    // durable result, so every field must survive a round trip: the
    // manifest entry with its sampling block, the points, the 64-bit
    // stream digest, the CB samples, and the cell's stats groups.
    CellOutput cell;
    cell.mw.name = "PLSA";
    cell.mw.totalInsts = 123456789;
    cell.mw.hostSeconds = 0.1 + 0.2;
    cell.mw.simMips = 1.0 / 3.0;
    cell.mw.verified = true;
    cell.mw.status = "retried";
    cell.mw.attempts = 2;
    cell.mw.replayedFrom = "sampled:file:/tmp/s.PLSA.fsb";
    cell.mw.mpkiPerConfig = {12.5, 3.0 / 7.0};
    cell.mw.seriesTimeUs = {500.0, 1000.0};
    cell.mw.seriesMpki = {2.0 / 3.0, 0.0};
    obs::ManifestSampling& s = cell.mw.sampling;
    s.active = true;
    s.intervals = 3;
    s.totalWindows = 40;
    s.warmupQuanta = 2;
    s.coverage = 0.225;
    s.hasError = true;
    s.errCpi = 1e-3;
    s.errMpki = 0.0275;
    s.errApki = 2e-17;
    s.errDram = 0.5;
    s.estCpi = 1.75;
    s.estMpki = 12.5;
    s.estApki = 40.125;
    s.fullCpi = 1.7;
    s.fullMpki = 12.2;
    s.fullApki = 40.0;
    for (int i = 0; i < 2; ++i) {
        SweepPoint p;
        p.workload = "PLSA";
        p.nCores = 2;
        p.llcSize = (4ull << 20) << i;
        p.lineSize = 64;
        p.llcAccesses = 100000 + i;
        p.llcMisses = 1234 - i;
        p.insts = 98765432;
        cell.points.push_back(p);
    }
    cell.guestExecutions = 1;
    cell.hasDigest = true;
    cell.streamTxns = 424242;
    cell.streamDigest = 0xfedcba9876543210ull;
    cell.replayTxns = 424242;
    cell.replayBytes = 1u << 20;
    cell.replaySeconds = 0.125;
    Sample sample;
    sample.timeUs = 500.0;
    sample.insts = 4000;
    sample.cycles = 500000;
    sample.accesses = 77;
    sample.misses = 7;
    cell.cbSamples = {sample, sample};

    const std::string prefix = "cell/RoundTrip/sampled/";
    obs::StatsRegistry& registry = obs::StatsRegistry::global();
    stats::Group& fsb = registry.makeGroup(prefix + "fsb");
    fsb.add("txns", [] { return 424242.0; });
    fsb.add("batches", [] { return 104.0; });
    registry.makeGroup(prefix + "dragonhead0")
        .add("mpki", [] { return 1.0 / 3.0; });

    const std::string first = renderCellArtifact(cell, prefix);
    registry.removePrefix(prefix);
    CellOutput parsed;
    std::string error;
    ASSERT_TRUE(parseCellArtifact(first, &parsed, &error)) << error;
    EXPECT_EQ(renderCellArtifact(parsed, prefix), first);
    EXPECT_EQ(parsed.streamDigest, cell.streamDigest);
    ASSERT_NE(registry.find(prefix + "dragonhead0"), nullptr);
    registry.removePrefix(prefix);
}

} // namespace
} // namespace cosim
