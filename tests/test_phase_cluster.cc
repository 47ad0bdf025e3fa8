/**
 * @file
 * Phase clustering and sampled-simulation suite.
 *
 * The tentpole property: a sampling plan is a pure function of the CB
 * sample series and the seed -- the same inputs produce byte-identical
 * plan JSON on every run and on every thread -- and a --cells=sampled
 * sweep built from such a plan reproduces the full run's figures within
 * the accuracy gate's tolerance, deterministically (same plan + seed
 * means byte-identical figure CSVs).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/atomic_file.hh"
#include "core/experiment.hh"
#include "core/results.hh"
#include "harness/sweep_runner.hh"
#include "trace/phase_cluster.hh"
#include "test_util.hh"

namespace cosim {
namespace {

/** One CB window with round numbers derived from a phase shape. */
Sample
window(std::size_t index, std::uint64_t insts, std::uint64_t accesses,
       std::uint64_t misses)
{
    Sample s;
    s.timeUs = 500.0 * static_cast<double>(index + 1);
    s.insts = insts;
    s.cycles = 2 * insts;
    s.accesses = accesses;
    s.misses = misses;
    return s;
}

/**
 * A three-phase synthetic series: a streaming prefix (high MPKI), a
 * compute body (low MPKI, higher IPC) and a mixed tail, 30 windows.
 */
std::vector<Sample>
threePhaseSeries()
{
    std::vector<Sample> s;
    for (std::size_t i = 0; i < 10; ++i)
        s.push_back(window(s.size(), 10000, 900, 600));
    for (std::size_t i = 0; i < 15; ++i)
        s.push_back(window(s.size(), 40000, 400, 20));
    for (std::size_t i = 0; i < 5; ++i)
        s.push_back(window(s.size(), 20000, 700, 250));
    return s;
}

PhaseClusterParams
defaultParams()
{
    PhaseClusterParams p;
    p.maxPhases = 4;
    p.seed = 42;
    p.warmupWindows = 2;
    return p;
}

// ---------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------

TEST(PhaseCluster, SameSeriesAndSeedYieldByteIdenticalPlans)
{
    const std::vector<Sample> series = threePhaseSeries();
    const std::string a =
        clusterPhases(series, "synth", defaultParams()).toJson();
    const std::string b =
        clusterPhases(series, "synth", defaultParams()).toJson();
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
}

TEST(PhaseCluster, DeterministicAcrossHostThreads)
{
    // Interval selection must not depend on host scheduling: the same
    // clustering run concurrently on several threads produces the same
    // bytes as the serial reference.
    const std::vector<Sample> series = threePhaseSeries();
    const std::string reference =
        clusterPhases(series, "synth", defaultParams()).toJson();

    std::vector<std::string> produced(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < produced.size(); ++t) {
        threads.emplace_back([&, t] {
            produced[t] =
                clusterPhases(series, "synth", defaultParams()).toJson();
        });
    }
    for (std::thread& th : threads)
        th.join();
    for (const std::string& p : produced)
        EXPECT_EQ(p, reference);
}

TEST(PhaseCluster, SeedSelectsTheClustering)
{
    const std::vector<Sample> series = threePhaseSeries();
    PhaseClusterParams a = defaultParams();
    PhaseClusterParams b = defaultParams();
    b.seed = 43;
    // Different seeds may legitimately converge to the same optimum;
    // what matters is that the seed is recorded so the plan's
    // provenance is reproducible.
    EXPECT_EQ(clusterPhases(series, "synth", a).seed, 42u);
    EXPECT_EQ(clusterPhases(series, "synth", b).seed, 43u);
}

// ---------------------------------------------------------------------
// Plan structure.
// ---------------------------------------------------------------------

TEST(PhaseCluster, EmptySeriesYieldsEmptyValidPlan)
{
    SamplingPlan plan =
        clusterPhases({}, "empty", defaultParams());
    EXPECT_TRUE(plan.intervals.empty());
    EXPECT_EQ(plan.totalWindows, 0u);
    EXPECT_EQ(plan.coverage(), 0.0);
    EXPECT_TRUE(plan.validate().empty()) << plan.validate();
}

TEST(PhaseCluster, AllIdenticalSeriesIsOnePhaseWithWeightOne)
{
    std::vector<Sample> flat;
    for (std::size_t i = 0; i < 20; ++i)
        flat.push_back(window(i, 10000, 500, 100));
    SamplingPlan plan = clusterPhases(flat, "flat", defaultParams());
    ASSERT_EQ(plan.intervals.size(), 1u);
    EXPECT_EQ(plan.intervals[0].windows, 20u);
    EXPECT_DOUBLE_EQ(plan.intervals[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(plan.intervals[0].instWeight, 1.0);
    EXPECT_TRUE(plan.validate().empty()) << plan.validate();
}

TEST(PhaseCluster, WeightsAndInstWeightsSumToOne)
{
    SamplingPlan plan =
        clusterPhases(threePhaseSeries(), "synth", defaultParams());
    ASSERT_GE(plan.intervals.size(), 2u);
    double weight_sum = 0.0;
    double inst_sum = 0.0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
        const PlanInterval& iv = plan.intervals[i];
        EXPECT_LT(iv.window, plan.totalWindows);
        if (i > 0) {
            EXPECT_GT(iv.window, prev);
        }
        prev = iv.window;
        EXPECT_EQ(iv.phase, i); // dense ids in window order
        weight_sum += iv.weight;
        inst_sum += iv.instWeight;
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-12);
    EXPECT_NEAR(inst_sum, 1.0, 1e-12);
    EXPECT_TRUE(plan.validate().empty()) << plan.validate();
}

TEST(PhaseCluster, InstWeightTracksWorkNotTime)
{
    // The compute body retires 4x the instructions of the streaming
    // prefix per window; its interval's instWeight must exceed its
    // window-count weight (CB windows are equal time, not equal work).
    SamplingPlan plan =
        clusterPhases(threePhaseSeries(), "synth", defaultParams());
    bool saw_compute = false;
    for (const PlanInterval& iv : plan.intervals) {
        if (iv.window >= 10 && iv.window < 25) {
            EXPECT_GT(iv.instWeight, iv.weight);
            saw_compute = true;
        }
    }
    EXPECT_TRUE(saw_compute);
}

TEST(PhaseCluster, CoverageMergesOverlappingWarmupRanges)
{
    // Two intervals whose warm-up prefixes overlap: windows 2 and 3
    // with 2 warm-up windows each cover the union [0, 3], four
    // windows -- not 3 + 3 = 6.
    SamplingPlan plan;
    plan.workload = "hand";
    plan.totalWindows = 10;
    plan.warmupWindows = 2;
    PlanInterval a;
    a.window = 2;
    a.phase = 0;
    a.windows = 5;
    a.weight = 0.5;
    a.instWeight = 0.5;
    PlanInterval b = a;
    b.window = 3;
    b.phase = 1;
    plan.intervals = {a, b};
    EXPECT_DOUBLE_EQ(plan.coverage(), 0.4);

    // Disjoint ranges add; warm-up clamps at window 0.
    plan.intervals[1].window = 8; // [6, 8] after [0, 2]
    EXPECT_DOUBLE_EQ(plan.coverage(), 0.6);
    EXPECT_TRUE(plan.validate().empty()) << plan.validate();
}

// ---------------------------------------------------------------------
// Serialization.
// ---------------------------------------------------------------------

TEST(SamplingPlanJson, RoundTripIsByteIdentical)
{
    SamplingPlan plan =
        clusterPhases(threePhaseSeries(), "synth", defaultParams());
    const std::string text = plan.toJson();

    SamplingPlan parsed;
    std::string error;
    ASSERT_TRUE(SamplingPlan::parse(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.toJson(), text);
    EXPECT_EQ(parsed.workload, plan.workload);
    EXPECT_EQ(parsed.intervals.size(), plan.intervals.size());
}

TEST(SamplingPlanJson, ParseRejectsDefects)
{
    SamplingPlan plan =
        clusterPhases(threePhaseSeries(), "synth", defaultParams());
    SamplingPlan out;
    std::string error;

    // Wrong schema.
    std::string text = plan.toJson();
    std::size_t pos = text.find("cosim-plan/1");
    ASSERT_NE(pos, std::string::npos);
    std::string bad = text;
    bad.replace(pos, 12, "cosim-plan/9");
    EXPECT_FALSE(SamplingPlan::parse(bad, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    // Weights that no longer sum to 1.
    SamplingPlan tampered = plan;
    tampered.intervals[0].weight += 0.25;
    EXPECT_FALSE(
        SamplingPlan::parse(tampered.toJson(), out, &error));
    EXPECT_NE(error.find("sum"), std::string::npos) << error;

    // A window outside the profiled series.
    tampered = plan;
    tampered.intervals.back().window = tampered.totalWindows + 3;
    EXPECT_FALSE(
        SamplingPlan::parse(tampered.toJson(), out, &error));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    // Out-of-order windows.
    tampered = plan;
    std::swap(tampered.intervals.front().window,
              tampered.intervals.back().window);
    EXPECT_FALSE(
        SamplingPlan::parse(tampered.toJson(), out, &error));
    EXPECT_NE(error.find("ascending"), std::string::npos) << error;

    EXPECT_FALSE(SamplingPlan::parse("not json", out, &error));
}

TEST(SamplingPlanIo, WriteFileLoadRoundTripAndErrors)
{
    SamplingPlan plan =
        clusterPhases(threePhaseSeries(), "synth", defaultParams());
    const std::string path =
        planPath(testing::TempDir() + "phase_cluster_io", "synth");
    plan.writeFile(path);

    SamplingPlan loaded;
    std::string error;
    ASSERT_TRUE(SamplingPlan::load(path, loaded, &error)) << error;
    EXPECT_EQ(loaded.toJson(), plan.toJson());
    std::remove(path.c_str());

    // A bad directory throws IoError (isolatable under --keep-going).
    EXPECT_THROW(plan.writeFile("/nonexistent-dir/x.plan.json"),
                 IoError);
    // load() reports unreadable paths instead of throwing.
    EXPECT_FALSE(SamplingPlan::load("/nonexistent/x.plan.json", loaded,
                                    &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(SamplingPlanIo, PlanPathMirrorsStreamPathConvention)
{
    EXPECT_EQ(planPath("results/fig4.plan.json", "PLSA"),
              "results/fig4.PLSA.plan.json");
    EXPECT_EQ(planPath("results/fig4", "PLSA"),
              "results/fig4.PLSA.plan.json");
}

// ---------------------------------------------------------------------
// End to end: sampled sweep vs the full run.
// ---------------------------------------------------------------------

FigureData
runSweep(CellMode cells, const std::string& plan_out = "",
         const std::string& plan = "", unsigned jobs = 1)
{
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA", "FIMI"};
    opts.cells = cells;
    opts.planOutBase = plan_out;
    opts.planBase = plan;
    opts.jobs = jobs;

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    return SweepRunner(opts).runLineSizeFigure("FigSampledTest",
                                               platform);
}

TEST(SampledSweep, MatchesFullRunWithinToleranceAndRecordsError)
{
    FigureData full = runSweep(CellMode::Combined);
    FigureData sampled = runSweep(CellMode::Sampled);
    ASSERT_EQ(full.seriesNames(), sampled.seriesNames());

    // The accuracy gate's default bound: every per-configuration MPKI
    // estimate within 5% of the full run's measurement.
    for (const std::string& name : full.seriesNames()) {
        const std::vector<double>& ref = full.series(name);
        const std::vector<double>& est = sampled.series(name);
        ASSERT_EQ(ref.size(), est.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const double denom = ref[i] != 0.0 ? std::abs(ref[i]) : 1.0;
            EXPECT_LE(std::abs(est[i] - ref[i]) / denom, 0.05)
                << name << " config " << i << ": full " << ref[i]
                << " vs sampled " << est[i];
        }
        // The sweep measured its own error against the in-cell
        // reference and recorded it for the CSV's sampling_err column.
        EXPECT_GE(sampled.samplingError(name), 0.0) << name;
        EXPECT_LE(sampled.samplingError(name), 0.05) << name;
        EXPECT_LT(full.samplingError(name), 0.0) << name;
    }
}

TEST(SampledSweep, SamePlanAndSeedYieldByteIdenticalCsvs)
{
    const std::string plan_base =
        testing::TempDir() + "sampled_det.plan.json";
    FigureData first = runSweep(CellMode::Sampled, plan_base);
    FigureData second =
        runSweep(CellMode::Sampled, "", plan_base);
    // Cells on two host threads, clustering their own plans.
    FigureData parallel = runSweep(CellMode::Sampled, "", "", 2);

    auto csv_bytes = [](const FigureData& fig, const std::string& tag) {
        const std::string path =
            testing::TempDir() + "sampled_det_" + tag + ".csv";
        fig.writeCsv(path);
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        std::remove(path.c_str());
        return buf.str();
    };
    const std::string a = csv_bytes(first, "a");
    const std::string b = csv_bytes(second, "b");
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, csv_bytes(parallel, "jobs2"));

    for (const std::string& w : {std::string("PLSA"),
                                 std::string("FIMI")})
        std::remove(planPath(plan_base, w).c_str());
}

} // namespace
} // namespace cosim
