/**
 * @file
 * Tests for the eight data-mining workloads: correctness of the mined
 * results against references, determinism, thread scaling, and the
 * memory-structure properties the figures rely on.
 */

#include <gtest/gtest.h>

#include "base/str.hh"
#include "base/units.hh"
#include "softsdv/virtual_platform.hh"
#include "workloads/fimi.hh"
#include "workloads/mds.hh"
#include "workloads/plsa.hh"
#include "workloads/rsearch.hh"
#include "workloads/shot.hh"
#include "workloads/snp.hh"
#include "workloads/svm_rfe.hh"
#include "workloads/viewtype.hh"
#include "workloads/workload_factory.hh"

namespace cosim {
namespace {

constexpr double testScale = 0.02;

PlatformParams
testPlatform(unsigned cores)
{
    PlatformParams p;
    p.name = "wl-test";
    p.nCores = cores;
    p.cpu.baseCpi = 1.0;
    p.cpu.caches.l1 = {"l1", 8 * KiB, 64, 4};
    p.cpu.caches.hasL2 = false;
    p.cpu.useDramLatency = false;
    p.cpu.beyondLatency = 50;
    p.cpu.emitFsbTraffic = false;
    p.dex.quantumInsts = 20000;
    return p;
}

RunResult
runWorkload(const std::string& name, unsigned threads,
            double scale = testScale, std::uint64_t seed = 42)
{
    VirtualPlatform vp(testPlatform(threads));
    auto wl = createWorkload(name, scale);
    WorkloadConfig cfg;
    cfg.nThreads = threads;
    cfg.scale = scale;
    cfg.seed = seed;
    return vp.run(*wl, cfg);
}

// ------------------------------------------------------------- factory

TEST(WorkloadFactory, CatalogHasAllEight)
{
    EXPECT_EQ(workloadCatalog().size(), 8u);
    EXPECT_EQ(workloadNames().size(), 8u);
    for (const auto& info : workloadCatalog()) {
        EXPECT_FALSE(info.paperInput.empty());
        EXPECT_FALSE(info.substitution.empty());
        auto wl = createWorkload(info.name, testScale);
        EXPECT_EQ(wl->name(), info.name);
        EXPECT_FALSE(wl->description().empty());
    }
}

TEST(WorkloadFactory, EveryWorkloadConstructsAtEveryScale)
{
    // Every --scale must yield parameters the workload itself accepts;
    // a rejected geometry aborts the whole sweep.
    for (double scale : {0.05, 0.1, 0.2, 0.25, 0.5, 0.7, 1.0}) {
        for (const std::string& name : workloadNames())
            EXPECT_EQ(createWorkload(name, scale)->name(), name) << scale;
    }
}

TEST(WorkloadFactory, NamesAreCaseInsensitive)
{
    EXPECT_EQ(createWorkload("fimi", testScale)->name(), "FIMI");
    EXPECT_EQ(createWorkload("SVM-RFE", testScale)->name(), "SVM-RFE");
    EXPECT_EQ(createWorkload("svm_rfe", testScale)->name(), "SVM-RFE");
}

TEST(WorkloadFactory, CanonicalNameIsTheCatalogSpelling)
{
    for (const std::string& name : workloadNames()) {
        EXPECT_EQ(canonicalWorkloadName(name), name);
        EXPECT_EQ(canonicalWorkloadName(toLower(name)), name);
        EXPECT_EQ(createWorkload(toLower(name), testScale)->name(), name);
    }
    EXPECT_EQ(canonicalWorkloadName("svmrfe"), "SVM-RFE");
    EXPECT_EQ(canonicalWorkloadName("Nope"), "Nope");
}

// -------------------------------------------------- every workload runs

class AllWorkloads : public ::testing::TestWithParam<std::string>
{};

TEST_P(AllWorkloads, SingleThreadRunsAndVerifies)
{
    RunResult r = runWorkload(GetParam(), 1);
    EXPECT_TRUE(r.verified) << GetParam();
    EXPECT_GT(r.totalInsts, 10000u);
    EXPECT_GT(r.memInsts, 0u);
    EXPECT_GT(r.l1.accesses, 0u);
}

TEST_P(AllWorkloads, FourThreadsRunAndVerify)
{
    RunResult r = runWorkload(GetParam(), 4);
    EXPECT_TRUE(r.verified) << GetParam();
    EXPECT_EQ(r.nThreads, 4u);
}

TEST_P(AllWorkloads, DeterministicAcrossRuns)
{
    RunResult a = runWorkload(GetParam(), 2);
    RunResult b = runWorkload(GetParam(), 2);
    EXPECT_EQ(a.totalInsts, b.totalInsts) << GetParam();
    EXPECT_EQ(a.l1.misses, b.l1.misses) << GetParam();
    EXPECT_EQ(a.maxCoreCycles, b.maxCoreCycles) << GetParam();
}

TEST_P(AllWorkloads, MemoryInstructionShareIsPlausible)
{
    RunResult r = runWorkload(GetParam(), 1);
    // Table 2 reports 42-83%; allow generous slack for scaled inputs.
    EXPECT_GT(r.memInstPercent(), 25.0) << GetParam();
    EXPECT_LT(r.memInstPercent(), 95.0) << GetParam();
    // Reads dominate in every data-mining workload.
    EXPECT_GT(r.loads, r.stores) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, AllWorkloads,
    ::testing::Values("SNP", "SVM-RFE", "MDS", "SHOT", "FIMI", "VIEWTYPE",
                      "PLSA", "RSEARCH"),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string n = info.param;
        for (char& c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ----------------------------------------------------------- scale grid

/** One workload at one --scale, run at every grid seed and core count. */
class ScaleGrid
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{};

TEST_P(ScaleGrid, RunsAndVerifiesAtEverySeedAndCoreCount)
{
    const auto& [name, scale] = GetParam();
    for (std::uint64_t seed : {1ull, 42ull}) {
        for (unsigned cores : {1u, 8u}) {
            RunResult r = runWorkload(name, cores, scale, seed);
            EXPECT_TRUE(r.verified) << name << " at scale " << scale
                                    << ", seed " << seed << ", " << cores
                                    << " cores";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScaleGrid,
    ::testing::Combine(::testing::Values("SNP", "SVM-RFE", "MDS", "SHOT",
                                         "FIMI", "VIEWTYPE", "PLSA",
                                         "RSEARCH"),
                       ::testing::Values(0.01, 0.07, 0.15)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, double>>&
           info) {
        std::string n = std::get<0>(info.param) + "_scale" +
                        strFormat("%.2f", std::get<1>(info.param));
        for (char& c : n)
            if (c == '-' || c == '.')
                c = '_';
        return n;
    });

// ----------------------------------------------------------------- SNP

TEST(SnpWorkload, ChainEdgesScoreHigherThanRandomPairs)
{
    SnpParams p = SnpParams::scaled(testScale);
    SnpWorkload wl(p);
    VirtualPlatform vp(testPlatform(2));
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    vp.run(wl, cfg); // verify() inside run already checks the margin
    double chain = wl.referenceScore(1, 0);
    double random_pair = wl.referenceScore(1, 40);
    EXPECT_GT(chain, 5.0 * (random_pair + 1.0));
}

TEST(SnpWorkload, FootprintMatchesConfiguredMatrix)
{
    SnpParams p = SnpParams::scaled(testScale);
    SnpWorkload wl(p);
    VirtualPlatform vp(testPlatform(1));
    WorkloadConfig cfg;
    cfg.nThreads = 1;
    RunResult r = vp.run(wl, cfg);
    EXPECT_GE(r.footprintBytes, p.genotypeBytes());
}

// ------------------------------------------------------------- SVM-RFE

TEST(SvmRfeWorkload, KeepsInformativeGenes)
{
    SvmRfeParams p = SvmRfeParams::scaled(testScale);
    SvmRfeWorkload wl(p);
    VirtualPlatform vp(testPlatform(4));
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_GT(wl.informativeSurvivalRate(), 0.4);
    EXPECT_GT(wl.trainingAccuracy(), 0.75);
}

// ------------------------------------------------------------- RSEARCH

TEST(RsearchWorkload, FindsPlantedHairpins)
{
    RsearchParams p = RsearchParams::scaled(testScale);
    RsearchWorkload wl(p);
    VirtualPlatform vp(testPlatform(2));
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);

    // Every even (hairpin-centred) window must be a hit.
    for (std::size_t w = 0; w < wl.totalWindows(); w += 2) {
        if (wl.windowScore(w) >= 0.0) {
            EXPECT_GE(wl.windowScore(w), p.scoreThreshold) << w;
        }
    }
}

TEST(RsearchWorkload, InstrumentedDpMatchesReference)
{
    RsearchParams p = RsearchParams::scaled(testScale);
    RsearchWorkload wl(p);
    VirtualPlatform vp(testPlatform(1));
    WorkloadConfig cfg;
    cfg.nThreads = 1;
    vp.run(wl, cfg);
    for (std::size_t w = 0; w < 4; ++w) {
        if (wl.windowScore(w) < 0.0)
            continue;
        EXPECT_NEAR(wl.windowScore(w),
                    wl.referenceFoldScore(wl.windowStart(w), p.window),
                    1e-3);
    }
}

// ---------------------------------------------------------------- PLSA

TEST(PlsaWorkload, WavefrontMatchesFullMatrixScore)
{
    PlsaParams p = PlsaParams::scaled(testScale);
    PlsaWorkload wl(p);
    VirtualPlatform vp(testPlatform(4));
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(wl.bestScore(), wl.referenceScore());
    EXPECT_GE(wl.bestScore(),
              p.matchScore * static_cast<int>(p.commonLen));
}

TEST(PlsaWorkload, ScoreIndependentOfThreadCount)
{
    PlsaParams p = PlsaParams::scaled(testScale);
    int score1, score4;
    {
        PlsaWorkload wl(p);
        VirtualPlatform vp(testPlatform(1));
        WorkloadConfig cfg;
        cfg.nThreads = 1;
        vp.run(wl, cfg);
        score1 = wl.bestScore();
    }
    {
        PlsaWorkload wl(p);
        VirtualPlatform vp(testPlatform(4));
        WorkloadConfig cfg;
        cfg.nThreads = 4;
        vp.run(wl, cfg);
        score4 = wl.bestScore();
    }
    EXPECT_EQ(score1, score4);
}

// ---------------------------------------------------------------- FIMI

TEST(FimiWorkload, MinedSupportsAreExact)
{
    FimiParams p = FimiParams::scaled(testScale);
    FimiWorkload wl(p);
    VirtualPlatform vp(testPlatform(4));
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    ASSERT_FALSE(wl.results().empty());

    // Exhaustive brute-force check of a sample of mined itemsets.
    std::size_t checks = std::min<std::size_t>(20, wl.results().size());
    for (std::size_t i = 0; i < checks; ++i) {
        const FrequentItemset& fs =
            wl.results()[i * 7919 % wl.results().size()];
        EXPECT_EQ(wl.referenceSupport(fs.items, fs.arity), fs.support);
    }
}

TEST(FimiWorkload, TreeSupportsMatchFirstScan)
{
    FimiParams p = FimiParams::scaled(testScale);
    FimiWorkload wl(p);
    VirtualPlatform vp(testPlatform(2));
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    vp.run(wl, cfg);
    EXPECT_GT(wl.tree().nodesUsed(), 100u);
    EXPECT_LT(wl.tree().nodesUsed(), wl.tree().capacity());
}

TEST(FimiWorkload, SameResultsRegardlessOfThreads)
{
    FimiParams p = FimiParams::scaled(testScale);
    auto mine = [&](unsigned threads) {
        FimiWorkload wl(p);
        VirtualPlatform vp(testPlatform(threads));
        WorkloadConfig cfg;
        cfg.nThreads = threads;
        vp.run(wl, cfg);
        std::vector<std::uint64_t> keys;
        for (const auto& fs : wl.results()) {
            std::uint64_t key = fs.arity;
            for (int k = 0; k < fs.arity; ++k)
                key = key * 65536 + fs.items[k];
            keys.push_back(key * 100000 + fs.support);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    };
    EXPECT_EQ(mine(1), mine(4));
}

// ----------------------------------------------------------------- MDS

TEST(MdsWorkload, RankMatchesReferenceAndSummaryDistinct)
{
    MdsParams p = MdsParams::scaled(testScale);
    MdsWorkload wl(p);
    VirtualPlatform vp(testPlatform(4));
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(wl.summary().size(), p.summaryLength);
}

TEST(MdsWorkload, MatrixBytesMatchParams)
{
    MdsParams p = MdsParams::scaled(1.0);
    EXPECT_NEAR(static_cast<double>(p.matrixBytes()),
                300.0 * 1024 * 1024, 16.0 * 1024 * 1024);
}

TEST(MdsWorkload, MatrixRegionKeepsPackedLayout)
{
    // The host holds only the weights, but the simulated matrix is 8-byte
    // packed pairs allocated first; these bases pin that layout.
    MdsParams p = MdsParams::scaled(0.05);
    MdsWorkload wl(p);
    SimAllocator alloc;
    WorkloadConfig cfg;
    cfg.scale = 0.05;
    wl.setUp(cfg, alloc);

    const std::vector<SimRegion>& regions = alloc.regions();
    ASSERT_EQ(regions.size(), 5u);
    EXPECT_EQ(regions[0].name, "mds.matrix");
    EXPECT_EQ(regions[0].base, SimAllocator::workloadBase);
    EXPECT_EQ(regions[0].size, p.matrixBytes());
    EXPECT_EQ(regions[0].size, 1024u * 896u * 8u);
    const std::pair<const char*, Addr> rest[] = {
        {"mds.rowptr", 0x1070'0000},
        {"mds.rank", 0x1070'1040},
        {"mds.rank-next", 0x1070'2040},
        {"mds.query-affinity", 0x1070'3040}};
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(regions[i + 1].name, rest[i].first);
        EXPECT_EQ(regions[i + 1].base, rest[i].second) << rest[i].first;
    }
}

// ---------------------------------------------------------------- SHOT

TEST(ShotWorkload, DetectsExactlyThePlantedCuts)
{
    ShotParams p = ShotParams::scaled(testScale);
    ShotWorkload wl(p);
    VirtualPlatform vp(testPlatform(2));
    WorkloadConfig cfg;
    cfg.nThreads = 2;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(wl.detectedCuts(), wl.expectedCuts());
    EXPECT_FALSE(wl.expectedCuts().empty());
}

TEST(ShotWorkload, WriteShareReflectsDecodeStage)
{
    RunResult r = runWorkload("SHOT", 1);
    // Decode writes whole frames: the store share must be substantial.
    double write_share = static_cast<double>(r.stores) /
                         static_cast<double>(r.memInsts);
    EXPECT_GT(write_share, 0.2);
    EXPECT_LT(write_share, 0.6);
}

// ------------------------------------------------------------ VIEWTYPE

TEST(ViewtypeWorkload, ClassifiesPlantedViews)
{
    ViewtypeParams p = ViewtypeParams::scaled(testScale);
    ViewtypeWorkload wl(p);
    VirtualPlatform vp(testPlatform(4));
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = vp.run(wl, cfg);
    EXPECT_TRUE(r.verified);
    EXPECT_GE(wl.accuracy(), 0.9);
    ASSERT_EQ(wl.classified().size(), p.nKeyframes);
}

TEST(ViewtypeWorkload, AllFourViewTypesAppear)
{
    ViewtypeParams p = ViewtypeParams::scaled(testScale);
    ViewtypeWorkload wl(p);
    VirtualPlatform vp(testPlatform(1));
    WorkloadConfig cfg;
    cfg.nThreads = 1;
    vp.run(wl, cfg);
    bool seen[4] = {false, false, false, false};
    for (auto v : wl.classified())
        seen[static_cast<int>(v)] = true;
    EXPECT_TRUE(seen[0] && seen[1] && seen[2] && seen[3]);
}

// --------------------------------------- working-set scaling categories

TEST(WorkingSets, ShotFootprintScalesWithThreads)
{
    RunResult r2 = runWorkload("SHOT", 2);
    RunResult r8 = runWorkload("SHOT", 8);
    EXPECT_GT(static_cast<double>(r8.footprintBytes),
              3.0 * static_cast<double>(r2.footprintBytes));
}

TEST(WorkingSets, SnpFootprintInsensitiveToThreads)
{
    RunResult r2 = runWorkload("SNP", 2);
    RunResult r8 = runWorkload("SNP", 8);
    EXPECT_NEAR(static_cast<double>(r8.footprintBytes),
                static_cast<double>(r2.footprintBytes),
                0.05 * static_cast<double>(r2.footprintBytes));
}

TEST(WorkingSets, FimiSharedTreeDominatesPrivateData)
{
    FimiParams p = FimiParams::scaled(testScale);
    FimiWorkload wl(p);
    VirtualPlatform vp(testPlatform(8));
    WorkloadConfig cfg;
    cfg.nThreads = 8;
    vp.run(wl, cfg);
    std::uint64_t tree_bytes = wl.tree().usedBytes();
    std::uint64_t private_bytes =
        8ull * p.condTreeCapacity * sizeof(FpNode);
    // Shared tree is the larger structure, but private data is not
    // negligible -- the 20-30% miss growth of Figures 5-6.
    EXPECT_GT(tree_bytes, 0u);
    EXPECT_GT(private_bytes, tree_bytes / 20);
}

} // namespace
} // namespace cosim
