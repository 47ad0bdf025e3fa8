/**
 * @file
 * Tests for the bench harness: option parsing, output dirs, and a tiny
 * end-to-end sweep through the SweepRunner path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sys/stat.h>

#include "base/fault.hh"
#include "base/units.hh"
#include "harness/report.hh"
#include "harness/sweep_cell.hh"
#include "harness/sweep_journal.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"
#include "test_util.hh"

namespace cosim {
namespace {

/** @p args behind a program name, as main() sees them (the pointers
 * stay valid while @p args lives). */
std::vector<char*>
argvOf(std::vector<std::string>& args)
{
    static std::string prog = "bench";
    std::vector<char*> argv{prog.data()};
    for (auto& a : args)
        argv.push_back(a.data());
    return argv;
}

BenchOptions
parse(std::vector<std::string> args)
{
    std::vector<char*> argv = argvOf(args);
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
}

TEST(BenchOptions, ScaleAndQuick)
{
    EXPECT_DOUBLE_EQ(parse({"--scale=0.25"}).scale, 0.25);
    // --quick is --scale=0.05 plus 50 us CB windows, which no other
    // flag sets: the same scale alone keeps the preset's window.
    const BenchOptions quick = parse({"--quick"});
    EXPECT_DOUBLE_EQ(quick.scale, 0.05);
    EXPECT_EQ(quick.samplePeriodUs, 50u);
    const BenchOptions scaled = parse({"--scale=0.05"});
    EXPECT_DOUBLE_EQ(scaled.scale, 0.05);
    EXPECT_EQ(scaled.samplePeriodUs, 0u);
    EXPECT_EQ(parse({}).samplePeriodUs, 0u);
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
    BenchOptions o = parse({"--workloads=plsa,svm_rfe,Fimi"});
    ASSERT_EQ(o.workloads.size(), 3u);
    EXPECT_EQ(o.workloads[0], "PLSA");
    EXPECT_EQ(o.workloads[1], "SVM-RFE");
    EXPECT_EQ(o.workloads[2], "FIMI");
}

TEST(BenchOptionsDeathTest, BadWorkloadListsAreFatalAndNameTheEntry)
{
    const std::pair<std::string, std::string> cases[] = {
        {"--workloads=MDS,FOO", "unknown workload 'FOO'"},
        {"--workloads=nope", "unknown workload 'nope'"},
        {"--workloads=", "--workloads needs at least one workload"},
        {"--workloads=MDS,,SHOT", "empty entry in 'MDS,,SHOT'"},
        {"--workloads=MDS,", "empty entry in 'MDS,'"},
        {"--workloads=MDS,MDS", "names 'MDS' more than once"},
        // Duplicates are judged after the catalog spelling.
        {"--workloads=MDS,mds", "names 'MDS' more than once"},
        {"--workloads=svm_rfe,SVM-RFE", "names 'SVM-RFE' more than once"},
    };
    for (const auto& [arg, error] : cases) {
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1), error)
            << arg;
    }
}

TEST(BenchOptionsDeathTest, RepeatedFlagsAreFatal)
{
    const std::vector<std::string> cases[] = {
        {"--jobs=2", "--jobs=3"},
        {"--jobs=2", "--jobs=2"},
        {"--quick", "--quick"},
        {"--keep-going", "--keep-going"},
        {"--workloads=MDS", "--workloads=SHOT"},
        // Bare and valued spellings are one flag.
        {"--journal", "--journal=/tmp/j.jsonl"},
        {"--journal=/tmp/j.jsonl", "--journal"},
    };
    for (const std::vector<std::string>& args : cases) {
        const std::string flag = args[1].substr(0, args[1].find('='));
        EXPECT_EXIT(parse(args), ::testing::ExitedWithCode(1),
                    "option " + flag + " given more than once")
            << args[0] << " " << args[1];
    }
}

TEST(BenchOptionsDeathTest, QuickWithScaleIsFatalInEitherOrder)
{
    EXPECT_EXIT(parse({"--quick", "--scale=0.5"}),
                ::testing::ExitedWithCode(1),
                "--quick and --scale are mutually exclusive");
    EXPECT_EXIT(parse({"--scale=0.5", "--quick"}),
                ::testing::ExitedWithCode(1),
                "--quick and --scale are mutually exclusive");
}

TEST(BenchOptions, SeedOutAndVerify)
{
    BenchOptions o = parse({"--seed=7", "--out=/tmp/x"});
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.outDir, "/tmp/x");
}

TEST(BenchOptions, RobustnessFlags)
{
    BenchOptions o = parse({"--keep-going"});
    EXPECT_TRUE(o.keepGoing);

    BenchOptions d = parse({});
    EXPECT_FALSE(d.keepGoing);
    EXPECT_TRUE(d.faults.empty());
}

TEST(BenchOptions, NumericFlagsTakeTheirWholeRange)
{
    EXPECT_EQ(parse({"--seed=0"}).seed, 0u);
    EXPECT_EQ(parse({"--seed=18446744073709551615"}).seed,
              18446744073709551615ull);
    EXPECT_EQ(parse({"--jobs=1"}).jobs, 1u);
    EXPECT_EQ(parse({"--emu-threads=0"}).emuThreads, 0u);
    EXPECT_DOUBLE_EQ(parse({"--scale=1e-3"}).scale, 1e-3);
    EXPECT_DOUBLE_EQ(parse({"--scale=1"}).scale, 1.0);
}

TEST(BenchOptionsDeathTest, MalformedNumericValuesAreFatalAndNameTheFlag)
{
    // Every numeric flag, with a value that overflows its type.
    const std::pair<std::string, std::string> flags[] = {
        {"--scale", "1e999"},
        {"--seed", "18446744073709551616"},
        {"--jobs", "4294967296"},
        {"--emu-threads", "4294967296"},
    };
    for (const auto& [flag, overflow] : flags) {
        for (const std::string& value :
             {std::string("7x"), std::string(""), std::string("-1"),
              overflow}) {
            const std::string arg = flag + "=" + value;
            EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1),
                        "bad " + flag + " value")
                << arg;
        }
    }
}

TEST(BenchOptionsDeathTest, OutOfRangeValuesAreFatal)
{
    for (const char* arg :
         {"--scale=0", "--scale=nan", "--scale= 1", "--scale=2",
          "--scale=1.0000001", "--seed=+7", "--jobs=0"}) {
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1), "bad --")
            << arg;
    }
}

TEST(BenchOptionsDeathTest, RemovedFlagsAreUnknownOptions)
{
    for (const char* arg :
         {"--dex-threads=2", "--degrade-serial", "--warmup-windows=2",
          "--no-warming", "--warm-stride=2", "--sample-period-us=50",
          "--max-phases=8", "--isolate-cells", "--cell-timeout=2",
          "--run-cell=PLSA", "--cell-result=/tmp/c.json",
          "--heartbeat-fd=3", "--self-destruct=segv", "--progress",
          "--progress-file=/tmp/p.jsonl", "--metrics=/tmp/m.om",
          "--retry-cells=1", "--no-verify"}) {
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1),
                    std::string("unknown option '") + arg + "'")
            << arg;
    }
}

TEST(BenchOptionsDeathTest, EmptyPathValuesAreFatalAndNameTheFlag)
{
    // An empty --out would put every artifact under "/".
    for (const char* flag :
         {"--out", "--trace", "--stats", "--manifest", "--capture",
          "--replay", "--plan", "--plan-out", "--digest", "--faults",
          "--journal", "--resume"}) {
        const std::string arg = std::string(flag) + "=";
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1),
                    flag + std::string(" needs a"))
            << arg;
    }
}

TEST(BenchOptionsDeathTest, OutputPathsInAMissingDirectoryAreFatal)
{
    // Each would otherwise fail its write only after the whole sweep.
    const std::string missing =
        ::testing::TempDir() + "cosim_missing_output_dir";
    rmdir(missing.c_str());
    const std::string out = "--out=" + ::testing::TempDir();
    for (const char* flag : {"--stats", "--trace", "--digest",
                             "--manifest", "--plan-out", "--capture"}) {
        const std::string arg = std::string(flag) + "=" + missing + "/f";
        EXPECT_EXIT(parse({arg, out}), ::testing::ExitedWithCode(1),
                    flag + std::string("=.*is not an existing directory"))
            << arg;
    }
    // The --out directory need not exist yet (the bench creates it
    // before its first write), however it is spelled.
    const BenchOptions o =
        parse({"--out=" + missing + "/", "--stats=" + missing + "/s.json",
               "--trace=" + missing + "/t.json"});
    EXPECT_EQ(o.statsFile, missing + "/s.json");
}

TEST(BenchOptionsDeathTest, StatsTakesOnlyAJsonPath)
{
    // The dump is JSON whatever the path says; a .txt or .csv path
    // used to pick another format.
    for (const char* path : {"s.txt", "s.csv", "s", "s.json.txt"}) {
        const std::string arg = std::string("--stats=") + path;
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1),
                    "--stats=.*give a path ending in \\.json")
            << arg;
    }
    EXPECT_EQ(parse({"--stats=s.json"}).statsFile, "s.json");
}

TEST(BenchOptionsDeathTest, SingleRunBenchesRefuseTheSweepFlags)
{
    // Every sweep flag is refused by name.
    auto check = [](std::vector<std::string> args) {
        std::vector<char*> argv = argvOf(args);
        requireOnlyFlags(static_cast<int>(argv.size()), argv.data(),
                         kSingleRunFlags);
    };
    for (const char* arg :
         {"--trace=t.json", "--stats=s.json", "--manifest=m.json",
          "--jobs=2", "--emu-threads=2", "--cells=exec", "--capture=c",
          "--replay=r", "--plan=p", "--plan-out=p", "--digest=d",
          "--keep-going", "--journal", "--resume=j"}) {
        const std::string a = arg;
        const std::string flag = a.substr(0, a.find('='));
        EXPECT_EXIT(check({"--quick", a}), ::testing::ExitedWithCode(1),
                    "option " + flag + " does not apply")
            << arg;
    }
    check({"--quick", "--seed=7", "--workloads=PLSA", "--out=x",
           "--faults=io.write.fail:nth=9"});
}

TEST(BenchOptionsDeathTest, ResumeWithJournalIsFatal)
{
    // A resume appends to the journal it resumes; a second journal
    // would start mid-sequence with no sweep_plan record, unreadable
    // by the next resume. Bare and valued --journal are both refused.
    const std::vector<std::string> cases[] = {
        {"--resume=/tmp/j.jsonl", "--journal=/tmp/k.jsonl"},
        {"--journal", "--resume=/tmp/j.jsonl"},
    };
    for (const std::vector<std::string>& args : cases) {
        EXPECT_EXIT(parse(args), ::testing::ExitedWithCode(1),
                    "--resume and --journal are mutually exclusive")
            << args[0] << " " << args[1];
    }
    // Alone, --resume journals into the file it resumes.
    EXPECT_EQ(parse({"--resume=/tmp/j.jsonl"}).journalFile,
              "/tmp/j.jsonl");
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

TEST(BenchOptions, FaultsFlagAcceptsEveryDeclaredSite)
{
    for (const char* site : {"cell.throw", "emu.worker.crash",
                             "io.write.fail", "journal.write.fail"}) {
        const std::string spec = std::string(site) + ":nth=1";
        EXPECT_EQ(parse({"--faults=" + spec}).faults, spec);
        FaultInjector::global().disarm();
    }
}

TEST(BenchOptionsDeathTest, FaultsRefusesUnknownSitesAndTriggers)
{
    // A misspelt site would arm a plan that never fires, and the run
    // would pass as a clean one.
    const std::pair<std::string, std::string> cases[] = {
        {"--faults=cell.thorw:nth=1", "unknown fault site 'cell.thorw'"},
        {"--faults=cell.throw:nth=1,x:nth=2", "unknown fault site 'x'"},
        {"--faults=cell.throw:p=0.5", "trigger 'p=0.5' is not nth=K"},
        // One site fails on one hit; a second entry would silently
        // replace the first.
        {"--faults=cell.throw:nth=1,cell.throw:nth=3",
         "fault site 'cell.throw' is named more than once"},
    };
    for (const auto& [arg, error] : cases) {
        EXPECT_EXIT(parse({arg}), ::testing::ExitedWithCode(1), error)
            << arg;
    }
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
                                   "--out=" + out,
                                   "--stats=" + out + "/case.json"});
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
        for (const stats::Group& g : test::readStatsDump(opts.statsFile)) {
            prefixed = prefixed || g.name.rfind("cell/PLSA/", 0) == 0;
            EXPECT_NE(g.name.rfind("cell/plsa", 0), 0u) << g.name;
        }
        EXPECT_TRUE(prefixed) << mode;
    }
}

TEST(SweepRunner, StatsDumpFollowsThePlanNotTheFinishOrder)
{
    // FIMI runs far longer than PLSA, so under --jobs=2 PLSA's cell
    // finishes first. The dump still lists FIMI's groups first, as a
    // serial run does, and so does a resumed run that loads both cells
    // from their artifacts.
    const std::string dir = ::testing::TempDir() + "cosim_stats_order";
    ensureOutputDir(dir);
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    const auto dump = [&](std::vector<std::string> args) {
        args.push_back("--quick");
        args.push_back("--workloads=FIMI,PLSA");
        args.push_back("--out=" + dir);
        args.push_back("--stats=" + dir + "/order.json");
        SweepRunner(parse(args)).runCacheSizeFigure("FigOrder", platform);
        std::vector<stats::Group> groups =
            test::readStatsDump(dir + "/order.json");
        // The host profile holds this process's timings.
        std::erase_if(groups,
                      [](const stats::Group& g) { return g.name == "host"; });
        return groups;
    };
    const std::vector<stats::Group> serial = dump({"--jobs=1"});
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial.front().name, "cell/FIMI/cpu0");
    EXPECT_EQ(dump({"--jobs=2"}), serial);
    dump({"--jobs=2", "--journal"});
    EXPECT_EQ(dump({"--jobs=1",
                    "--resume=" + dir + "/sweep.journal.jsonl"}),
              serial);
}

TEST(SweepRunner, HostProfileCoversOnlyItsSweep)
{
    // Two sweeps in one process, the first on two emulation workers,
    // the second serial. Each run.json and --stats dump profiles its
    // own sweep's cells, not everything the process ran before it.
    const std::string dir = ::testing::TempDir() + "cosim_host_profile";
    ensureOutputDir(dir);
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    struct Profile
    {
        /** The dump's host group, by stat. */
        std::map<std::string, double> dump;
        /** run.json's host block: phase names in order, their calls,
         * and the emulation threads. */
        std::vector<std::string> phases;
        std::map<std::string, double> calls;
        double emulationThreads = -1.0;
    };
    const auto sweep = [&](const std::string& tag,
                           std::vector<std::string> args) {
        const std::string base = dir + "/" + tag;
        args.push_back("--quick");
        args.push_back("--workloads=PLSA");
        args.push_back("--out=" + dir);
        args.push_back("--stats=" + base + ".json");
        args.push_back("--manifest=" + base + ".run.json");
        SweepRunner(parse(args)).runCacheSizeFigure("FigHost", platform);

        Profile p;
        for (const stats::Group& g : test::readStatsDump(base + ".json")) {
            if (g.name == "host")
                p.dump.insert(g.values.begin(), g.values.end());
        }
        std::ifstream in(base + ".run.json");
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        obs::json::Value doc;
        std::string error;
        EXPECT_TRUE(obs::json::parse(text, doc, &error)) << error;
        const obs::json::Value* host = doc.find("host");
        if (host == nullptr) {
            ADD_FAILURE() << tag << ": run.json has no host block";
            return p;
        }
        p.emulationThreads = host->find("emulation_threads")->num;
        for (const obs::json::Value& phase : host->find("phases")->arr) {
            p.phases.push_back(phase.find("name")->str);
            p.calls[phase.find("name")->str] = phase.find("calls")->num;
        }
        return p;
    };
    const Profile banked = sweep("banked", {"--emu-threads=2"});
    const Profile serial = sweep("serial", {});

    EXPECT_EQ(banked.phases,
              (std::vector<std::string>{"setup", "run", "run.drain"}));
    EXPECT_EQ(serial.phases, (std::vector<std::string>{"setup", "run"}));
    EXPECT_EQ(banked.emulationThreads, 2.0);
    EXPECT_EQ(serial.emulationThreads, 0.0);
    for (const Profile* p : {&banked, &serial}) {
        // One cell, one guest execution: every phase ran once.
        for (const auto& [name, calls] : p->calls) {
            EXPECT_EQ(calls, 1.0) << name;
            EXPECT_EQ(p->dump.at(name + ".calls"), calls) << name;
        }
        EXPECT_EQ(p->dump.at("emulation_threads"), p->emulationThreads);
    }
    EXPECT_EQ(serial.dump.count("run.drain.calls"), 0u);
    EXPECT_GT(banked.dump.at("sim_insts"), 0.0);
    EXPECT_EQ(serial.dump.at("sim_insts"), banked.dump.at("sim_insts"));
}

TEST(SweepRunner, HostPhasesAreDisjoint)
{
    // A capture cell encodes inside its guest's run window, and its run
    // phase leaves those seconds to capture.encode: the two add up to
    // no more than the window, and a serial sweep's phases to no more
    // than its wall time.
    const std::string dir = ::testing::TempDir() + "cosim_host_disjoint";
    ensureOutputDir(dir);
    const BenchOptions opts =
        parse({"--quick", "--workloads=MDS", "--cells=replay",
               "--out=" + dir, "--manifest=" + dir + "/run.json"});
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);

    const SweepFigure fig{opts, platform, {}, {}};
    const SweepPlan plan = planSweep(fig);
    const SweepCell& capture = plan.cells.at(plan.chains.at(0).at(0));
    ASSERT_TRUE(capture.capture);
    RigSlot slot;
    WorkloadStream ws = resolveStream(fig, 0);
    const CellOutput out =
        runCellBody(fig, capture, slot.acquire(fig, capture), ws);
    std::map<std::string, double> seconds;
    for (const obs::ManifestHostPhase& p : out.hostPhases)
        seconds[p.name] = p.seconds;
    ASSERT_EQ(seconds.count("run"), 1u);
    ASSERT_EQ(seconds.count("capture.encode"), 1u);
    EXPECT_GT(seconds["capture.encode"], 0.0);
    EXPECT_LE(seconds["run"] + seconds["capture.encode"],
              out.simSeconds + 1e-9);

    SweepRunner(opts).runCacheSizeFigure("FigDisjoint", platform);
    std::ifstream in(dir + "/run.json");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, doc, &error)) << error;
    const obs::json::Value* host = doc.find("host");
    ASSERT_NE(host, nullptr);
    double sum = 0.0;
    for (const obs::json::Value& phase : host->find("phases")->arr)
        sum += phase.find("seconds")->num;
    EXPECT_LE(sum, host->find("wall_seconds")->num);
}

TEST(SweepRunnerDeathTest, ResumeRefusesAJournalWithAnotherCbWindow)
{
    // --quick and --scale=0.05 run the same inputs but sample the CB
    // every 50 and 500 us, so their run.json series differ: a journal
    // of one must not resume the other.
    const std::string dir = ::testing::TempDir() + "cosim_resume_window";
    ensureOutputDir(dir);
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    const auto run = [&](std::vector<std::string> args) {
        args.push_back("--workloads=PLSA");
        args.push_back("--out=" + dir);
        SweepRunner runner(parse(args));
        return runner.runCacheSizeFigure("FigResume", platform);
    };
    run({"--quick", "--journal"});
    const std::string resume = "--resume=" + dir + "/sweep.journal.jsonl";
    EXPECT_EXIT(run({"--scale=0.05", resume}), ::testing::ExitedWithCode(1),
                "records a different sweep configuration");

    // The same flags resume, skipping the finished cell.
    run({"--quick", resume});
    std::ifstream in(dir + "/run.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    obs::json::Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, doc, &error)) << error;
    const obs::json::Value* resumed = doc.find("resume");
    ASSERT_NE(resumed, nullptr);
    EXPECT_EQ(resumed->find("skipped")->num, 1.0);
}

TEST(CellArtifact, RenderParseRenderIsByteIdentical)
{
    // The artifact is the journal's durable result, which --resume
    // loads in place of the cell, so every field must survive a round
    // trip: the manifest entry with its sampling block, the points, the
    // 64-bit stream digest, the CB samples, and the cell's stats groups.
    CellOutput cell;
    cell.mw.name = "PLSA";
    cell.mw.totalInsts = 123456789;
    cell.mw.hostSeconds = 0.1 + 0.2;
    cell.mw.simMips = 1.0 / 3.0;
    cell.mw.verified = true;
    // A cell runs once, but artifacts written by sweeps that retried
    // cells carry these values and must still load.
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

    stats::Group& fsb =
        cell.stats.emplace_back("cell/RoundTrip/sampled/fsb");
    fsb.add("txns", 424242.0);
    fsb.add("batches", 104.0);
    cell.stats.emplace_back("cell/RoundTrip/sampled/dragonhead0")
        .add("mpki", 1.0 / 3.0);

    const std::string first = renderCellArtifact(cell);
    CellOutput parsed;
    std::string error;
    ASSERT_TRUE(parseCellArtifact(first, &parsed, &error)) << error;
    EXPECT_EQ(renderCellArtifact(parsed), first);
    EXPECT_EQ(parsed.streamDigest, cell.streamDigest);
    EXPECT_EQ(parsed.stats, cell.stats);
}

} // namespace
} // namespace cosim
