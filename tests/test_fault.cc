/**
 * @file
 * Robustness suite: deterministic fault injection (base/fault.hh),
 * atomic artifact writes (base/atomic_file.hh), SPSC queue poisoning,
 * worker-failure containment in the AsyncEmulatorBank, sweep-cell
 * containment (--keep-going / --retry-cells) and the post-mortem a
 * failed cell leaves.
 *
 * The invariants under test: an injected failure never hangs the run,
 * never half-writes an artifact, surfaces exactly one clean error, and
 * with --keep-going leaves every healthy cell bit-identical to a
 * fault-free run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/atomic_file.hh"
#include "base/csv.hh"
#include "base/fault.hh"
#include "base/spsc_queue.hh"
#include "base/units.hh"
#include "core/emulator_bank.hh"
#include "core/experiment.hh"
#include "core/results.hh"
#include "harness/report.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_registry.hh"
#include "trace/fsb_capture.hh"

namespace cosim {
namespace {

bool
fileExists(const std::string& path)
{
    std::ifstream in(path);
    return in.good();
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return body;
}

// ---------------------------------------------------------------------
// FaultPlan parsing.
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesNthAndProbabilityTriggers)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse(
        "emu.worker.crash:nth=3,io.write.fail:p=0.25", &plan, &error))
        << error;
    ASSERT_EQ(plan.sites.size(), 2u);
    EXPECT_EQ(plan.sites[0].site, "emu.worker.crash");
    EXPECT_EQ(plan.sites[0].trigger.kind, FaultTrigger::Kind::Nth);
    EXPECT_EQ(plan.sites[0].trigger.nth, 3u);
    EXPECT_EQ(plan.sites[1].site, "io.write.fail");
    EXPECT_EQ(plan.sites[1].trigger.kind,
              FaultTrigger::Kind::Probability);
    EXPECT_DOUBLE_EQ(plan.sites[1].trigger.probability, 0.25);
}

TEST(FaultPlan, ParsePreservesCallerSeed)
{
    FaultPlan plan;
    plan.seed = 777;
    std::string error;
    ASSERT_TRUE(FaultPlan::parse("x:nth=1", &plan, &error)) << error;
    EXPECT_EQ(plan.seed, 777u);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    for (const char* spec :
         {"", "site", "site:", ":nth=1", "site:wat=1", "site:nth=0",
          "site:nth=x", "site:p=1.5", "site:p=-0.1", "site:p=x",
          "a:nth=1,,b:nth=2"}) {
        FaultPlan plan;
        std::string error;
        EXPECT_FALSE(FaultPlan::parse(spec, &plan, &error)) << spec;
        EXPECT_FALSE(error.empty()) << spec;
    }
}

// ---------------------------------------------------------------------
// FaultInjector semantics.
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledIsTheDefaultAndAfterScope)
{
    EXPECT_FALSE(FaultInjector::enabled());
    {
        ScopedFaultPlan plan("x:nth=1");
        EXPECT_TRUE(FaultInjector::enabled());
    }
    EXPECT_FALSE(FaultInjector::enabled());
    EXPECT_FALSE(faultPending("x"));
}

TEST(FaultInjectorTest, NthFiresExactlyOnceOnTheNthHit)
{
    ScopedFaultPlan plan("x:nth=3");
    FaultInjector& inj = FaultInjector::global();
    EXPECT_FALSE(inj.shouldFail("x"));
    EXPECT_FALSE(inj.shouldFail("x"));
    EXPECT_TRUE(inj.shouldFail("x"));  // 3rd hit
    EXPECT_FALSE(inj.shouldFail("x")); // once only
    EXPECT_EQ(inj.hits("x"), 4u);
    EXPECT_EQ(inj.fired("x"), 1u);
}

TEST(FaultInjectorTest, HitThrowsFaultInjectedWithSiteAndCount)
{
    ScopedFaultPlan plan("boom:nth=2");
    COSIM_FAULT_POINT("boom");
    try {
        COSIM_FAULT_POINT("boom");
        FAIL() << "second hit must throw";
    } catch (const FaultInjected& e) {
        EXPECT_EQ(e.site(), "boom");
        EXPECT_EQ(e.hit(), 2u);
        EXPECT_NE(std::string(e.what()).find("boom"),
                  std::string::npos);
    }
}

TEST(FaultInjectorTest, UnarmedSitesCountButNeverFire)
{
    ScopedFaultPlan plan("armed:nth=1");
    FaultInjector& inj = FaultInjector::global();
    EXPECT_FALSE(inj.shouldFail("other"));
    EXPECT_FALSE(inj.shouldFail("other"));
    EXPECT_EQ(inj.hits("other"), 2u);
    EXPECT_EQ(inj.fired("other"), 0u);
}

TEST(FaultInjectorTest, ProbabilityScheduleReplaysWithTheSeed)
{
    auto schedule = [](std::uint64_t seed) {
        ScopedFaultPlan plan("p.site:p=0.5", seed);
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(faultPending("p.site"));
        return fires;
    };
    std::vector<bool> a = schedule(42);
    std::vector<bool> b = schedule(42);
    EXPECT_EQ(a, b);
    std::size_t fired = 0;
    for (bool f : a)
        fired += f ? 1u : 0u;
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, a.size());
    // A different seed draws a different schedule.
    EXPECT_NE(schedule(43), a);
}

// ---------------------------------------------------------------------
// AtomicFile.
// ---------------------------------------------------------------------

TEST(AtomicFile, CommitPublishesAndRemovesTemp)
{
    const std::string path = testing::TempDir() + "atomic_commit.txt";
    std::remove(path.c_str());
    {
        AtomicFile file(path);
        file.write("hello ");
        file.stream() << "world";
        file.commit();
    }
    EXPECT_EQ(readFile(path), "hello world");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicFile, UncommittedWriteLeavesNothingBehind)
{
    const std::string path = testing::TempDir() + "atomic_aborted.txt";
    std::remove(path.c_str());
    {
        AtomicFile file(path);
        file.write("half-written");
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(AtomicFile, FailedCommitPreservesThePreviousFile)
{
    const std::string path = testing::TempDir() + "atomic_prev.txt";
    writeFileAtomic(path, "version 1");
    {
        ScopedFaultPlan plan("io.write.fail:nth=1");
        EXPECT_THROW(writeFileAtomic(path, "version 2"), IoError);
    }
    EXPECT_EQ(readFile(path), "version 1");
    EXPECT_FALSE(fileExists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST(AtomicFile, MissingDirectoryThrowsIoErrorNamingThePath)
{
    try {
        AtomicFile file("/nonexistent-dir/sub/x.json");
        FAIL() << "constructor must throw";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/sub/"),
                  std::string::npos)
            << e.what();
    }
}

TEST(AtomicFile, InjectedWriteFaultNamesThePath)
{
    const std::string path = testing::TempDir() + "atomic_fault.txt";
    ScopedFaultPlan plan("io.write.fail:nth=1");
    try {
        writeFileAtomic(path, "body");
        FAIL() << "commit must throw";
    } catch (const IoError& e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

// ---------------------------------------------------------------------
// SPSC queue poisoning (names start with SpscQueue so the TSan CI job
// picks these up).
// ---------------------------------------------------------------------

TEST(SpscQueuePoison, PoisonReleasesABlockedProducer)
{
    SpscQueue<int> q(1);
    EXPECT_TRUE(q.push(1)); // fills the queue
    std::thread killer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        q.poison();
    });
    // Would deadlock forever without the poison wakeup.
    EXPECT_FALSE(q.push(2));
    killer.join();
    EXPECT_TRUE(q.poisoned());
    // Later pushes fail immediately.
    EXPECT_FALSE(q.push(3));
}

TEST(SpscQueuePoison, PopFailsOncePoisoned)
{
    SpscQueue<int> q(4);
    EXPECT_TRUE(q.push(1));
    q.poison();
    int out = 0;
    EXPECT_FALSE(q.pop(out));
}

// ---------------------------------------------------------------------
// Worker-failure containment and sweep-cell isolation. (Suite name
// FaultInjection* is matched by the TSan and fault-injection CI jobs.)
// ---------------------------------------------------------------------

DragonheadParams
llc(std::uint64_t size)
{
    DragonheadParams dh;
    dh.llc = {"llc", size, 64, 4};
    dh.nSlices = 4;
    return dh;
}

/** A config that stacks with no llc(), so the bank runs two workers. */
DragonheadParams
llc128(std::uint64_t size)
{
    DragonheadParams dh = llc(size);
    dh.llc.lineSize = 128;
    return dh;
}

std::vector<BusTransaction>
syntheticTxns(std::size_t n)
{
    std::vector<BusTransaction> txns(n);
    for (std::size_t i = 0; i < n; ++i) {
        txns[i].addr = 0x1000 + 64 * i;
        txns[i].size = 64;
        txns[i].kind = TxnKind::ReadLine;
        txns[i].core = static_cast<CoreId>(i % 2);
    }
    return txns;
}

TEST(FaultInjection, WorkerCrashSurfacesOneCleanErrorAtSync)
{
    ScopedFaultPlan plan("emu.worker.crash:nth=1");

    EmulatorBankParams params;
    params.emulators = {llc(8 * KiB), llc(64 * KiB), llc128(64 * KiB)};
    params.nThreads = 2;
    params.chunkTxns = 64;
    params.queueChunks = 2; // tiny: the producer WILL hit a full queue
    AsyncEmulatorBank bank(params);
    ASSERT_EQ(bank.nThreads(), 2u);

    // Push far more chunks than the dead worker's queue holds: without
    // poisoning, the producer would deadlock right here.
    const std::vector<BusTransaction> txns = syntheticTxns(64 * 64);
    bank.observeBatch(txns.data(), txns.size());

    try {
        bank.sync();
        FAIL() << "sync() must rethrow the worker's exception";
    } catch (const FaultInjected& e) {
        EXPECT_EQ(e.site(), "emu.worker.crash");
    }
    EXPECT_EQ(bank.failedWorkers(), 1u);
    // The bank stays poisoned: the error is not silently forgotten.
    EXPECT_THROW(bank.sync(), FaultInjected);
}

/** The miniature two-workload sweep the isolation tests run. */
BenchOptions
sweepOpts()
{
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA", "FIMI"};
    return opts;
}

TEST(FaultInjection, KeepGoingIsolatesThePoisonedCell)
{
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    FigureData baseline =
        SweepRunner(sweepOpts()).runCacheSizeFigure("FigBase", platform);

    BenchOptions opts = sweepOpts();
    opts.keepGoing = true;
    FigureData faulted = [&] {
        // Each combined cell hits "cell.throw" once, in workload
        // order: hit 2 is FIMI's cell.
        ScopedFaultPlan plan("cell.throw:nth=2");
        return SweepRunner(opts).runCacheSizeFigure("FigFault",
                                                    platform);
    }();

    EXPECT_EQ(faulted.status("PLSA"), "ok");
    EXPECT_EQ(faulted.status("FIMI"), "failed");
    EXPECT_TRUE(faulted.series("FIMI").empty());
    // The healthy cell is bit-identical to the fault-free run.
    EXPECT_EQ(faulted.series("PLSA"), baseline.series("PLSA"));
    const auto& bp = baseline.points("PLSA");
    const auto& fp = faulted.points("PLSA");
    ASSERT_EQ(bp.size(), fp.size());
    for (std::size_t i = 0; i < bp.size(); ++i) {
        EXPECT_EQ(bp[i].llcAccesses, fp[i].llcAccesses);
        EXPECT_EQ(bp[i].llcMisses, fp[i].llcMisses);
        EXPECT_EQ(bp[i].insts, fp[i].insts);
    }
}

TEST(FaultInjection, RetriedCellMatchesTheBaseline)
{
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    FigureData baseline =
        SweepRunner(sweepOpts()).runCacheSizeFigure("FigBase2", platform);

    BenchOptions opts = sweepOpts();
    opts.retryCells = 1;
    FigureData retried = [&] {
        // First attempt of the first cell dies; the retry (hit 2, nth
        // already fired) succeeds on a fresh rig.
        ScopedFaultPlan plan("cell.throw:nth=1");
        return SweepRunner(opts).runCacheSizeFigure("FigRetry",
                                                    platform);
    }();

    EXPECT_EQ(retried.status("PLSA"), "retried");
    EXPECT_EQ(retried.status("FIMI"), "ok");
    EXPECT_EQ(retried.series("PLSA"), baseline.series("PLSA"));
    EXPECT_EQ(retried.series("FIMI"), baseline.series("FIMI"));
}

/** A fresh scratch output directory under the gtest temp root. */
std::string
makeOutDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + name;
    ensureOutputDir(dir);
    for (const char* file : {"/postmortem.json", "/run.json"})
        std::remove((dir + file).c_str());
    return dir;
}

TEST(FaultInjection, CleanSweepLeavesNoPostmortem)
{
    BenchOptions opts = sweepOpts();
    opts.workloads = {"PLSA"};
    opts.outDir = makeOutDir("fault_clean_out");
    FigureData fig = SweepRunner(opts).runCacheSizeFigure(
        "FigClean", presets::cmpPlatform("tiny", 2));

    EXPECT_EQ(fig.status("PLSA"), "ok");
    EXPECT_FALSE(fileExists(opts.outDir + "/postmortem.json"));
}

TEST(FaultInjection, FailedCellLeavesAPostmortemNamingCellAndSite)
{
    BenchOptions opts = sweepOpts();
    opts.workloads = {"PLSA"};
    opts.outDir = makeOutDir("fault_postmortem_out");
    opts.keepGoing = true;
    FigureData fig = [&] {
        ScopedFaultPlan plan("cell.throw:nth=1");
        return SweepRunner(opts).runCacheSizeFigure(
            "FigThrow", presets::cmpPlatform("tiny", 2));
    }();

    EXPECT_EQ(fig.status("PLSA"), "failed");
    const std::string path = opts.outDir + "/postmortem.json";
    ASSERT_TRUE(fileExists(path));
    obs::json::Value pm;
    ASSERT_TRUE(obs::json::parse(readFile(path), pm));
    ASSERT_NE(pm.find("cell"), nullptr);
    EXPECT_EQ(pm.find("cell")->str, "PLSA");
    ASSERT_NE(pm.find("error"), nullptr);
    EXPECT_NE(pm.find("error")->str.find("cell.throw"), std::string::npos);
}

TEST(FaultInjection, InjectedWriteFaultFailsTheCaptureCleanly)
{
    const std::string path = testing::TempDir() + "fault_capture.fsb";
    std::remove(path.c_str());

    FsbStreamMeta meta;
    meta.workload = "testwl";
    const std::vector<BusTransaction> txns = syntheticTxns(100);
    FsbStreamWriter writer(meta, 32);
    writer.appendBatch(txns.data(), txns.size());

    ScopedFaultPlan plan("io.write.fail:nth=1");
    EXPECT_THROW(writer.writeFile(path), IoError);
    EXPECT_FALSE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".tmp"));
}

TEST(FaultInjectionDeathTest, FailedCellWithoutKeepGoingExitsNonzero)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ScopedFaultPlan plan("cell.throw:nth=1");
            BenchOptions opts = sweepOpts();
            opts.workloads = {"PLSA"};
            SweepRunner(opts).runCacheSizeFigure(
                "FigDie", presets::cmpPlatform("tiny", 2));
        },
        "cell failed.*keep-going");
}

TEST(FaultInjectionDeathTest, FailedTraceWriteLeavesNoManifest)
{
    // run.json is the last artifact a sweep publishes, so a failed
    // trace write exits before it. Without --stats, --digest or plans
    // the trace is the sweep's first artifact write: hit 1.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BenchOptions opts = sweepOpts();
    opts.workloads = {"PLSA"};
    opts.outDir = makeOutDir("fault_trace_out");
    opts.traceFile = opts.outDir + "/t.json";
    opts.manifestFile = opts.outDir + "/run.json";
    EXPECT_EXIT(
        {
            ScopedFaultPlan plan("io.write.fail:nth=1");
            SweepRunner(opts).runCacheSizeFigure(
                "FigTraceFail", presets::cmpPlatform("tiny", 2));
        },
        ::testing::ExitedWithCode(1), "trace:.*t\\.json");
    EXPECT_FALSE(fileExists(opts.manifestFile));
}

// ---------------------------------------------------------------------
// Top-level artifact writers convert IoError to fatal() -- a failed
// write must exit nonzero and name the path.
// ---------------------------------------------------------------------

TEST(ArtifactWriterDeathTest, StatsWriteFailureIsFatalAndNamesThePath)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    obs::StatsRegistry registry;
    EXPECT_DEATH(registry.writeFile("/nonexistent-dir/stats.json"),
                 "stats:.*nonexistent-dir");
}

TEST(ArtifactWriterDeathTest, ManifestWriteFailureIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    obs::RunManifest manifest;
    EXPECT_DEATH(manifest.writeJson("/nonexistent-dir/run.json"),
                 "manifest:.*nonexistent-dir");
}

TEST(ArtifactWriterDeathTest, CsvOpenFailureIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(CsvWriter("/nonexistent-dir/x.csv"),
                 "csv:.*nonexistent-dir");
}

} // namespace
} // namespace cosim
