/**
 * @file
 * Tests for the live sweep telemetry (obs/progress.hh) and its
 * integration with the sweep runner:
 *
 *  - HeartbeatSlot accumulation
 *  - ProgressStream / SweepProgress JSONL output: every line is one
 *    well-formed JSON object with densely increasing seq
 *  - telemetry on leaves the figure bit-identical, and a failed cell
 *    leaves postmortem.json naming the injected site
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "base/fault.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"
#include "obs/progress.hh"

namespace cosim {
namespace {

using obs::json::Value;

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

/** A scratch directory under the gtest temp root (shared per name). */
std::string
makeOutDir(const std::string& name)
{
    std::string dir = testing::TempDir() + name;
    ::mkdir(dir.c_str(), 0755);
    return dir;
}

/**
 * Parse @p path as JSONL: every line must be one well-formed JSON
 * object carrying "seq", "t_us", and "event", with seq densely
 * increasing from 0 -- the invariant `cosim_inspect progress` checks
 * in CI.
 */
std::vector<Value>
parseProgressJsonl(const std::string& path)
{
    std::vector<Value> events;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    while (std::getline(in, line)) {
        Value v;
        std::string error;
        EXPECT_TRUE(obs::json::parse(line, v, &error))
            << error << ": " << line;
        const Value* seq = v.find("seq");
        EXPECT_NE(seq, nullptr) << line;
        if (seq != nullptr) {
            EXPECT_DOUBLE_EQ(seq->num,
                             static_cast<double>(events.size()))
                << "seq must be dense: " << line;
        }
        EXPECT_NE(v.find("t_us"), nullptr) << line;
        EXPECT_NE(v.find("event"), nullptr) << line;
        events.push_back(std::move(v));
    }
    return events;
}

/** Those events whose "event" field equals @p name, in file order. */
std::vector<const Value*>
eventsNamed(const std::vector<Value>& events, const std::string& name)
{
    std::vector<const Value*> out;
    for (const Value& v : events) {
        const Value* e = v.find("event");
        if (e != nullptr && e->str == name)
            out.push_back(&v);
    }
    return out;
}

// -------------------------------------------------------- HeartbeatSlot

TEST(HeartbeatSlot, AccumulatesQuantaInstsAndSimTime)
{
    obs::HeartbeatSlot slot;
    slot.beat(2000, 1'000'000);
    slot.beat(2000, 1'000'000);
    slot.beat(1000, 500'000);
    EXPECT_EQ(slot.quanta(), 3u);
    EXPECT_EQ(slot.insts(), 5000u);
    EXPECT_EQ(slot.simNs(), 2'500'000u);

    slot.noteQueueDepth(3);
    slot.noteQueueDepth(7);
    slot.noteQueueDepth(5);
    EXPECT_EQ(slot.queuePeak(), 7u); // a running maximum, not the last
}

// ------------------------------------------------------- ProgressStream

TEST(ProgressStream, EmitsWellFormedDenselyNumberedJsonl)
{
    const std::string path =
        testing::TempDir() + "progress_stream_unit.jsonl";
    std::remove(path.c_str());
    {
        obs::ProgressStream stream(path);
        stream.emit("sweep_start", "\"figure\":\"Fig\",\"cells\":2");
        stream.emit("cell_start", "\"cell\":\"PLSA\",\"attempt\":1");
        stream.emit("cell_finish",
                    "\"cell\":\"PLSA\",\"status\":\"ok\","
                    "\"wall_s\":0.25");
    }
    std::vector<Value> events = parseProgressJsonl(path);
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].find("event")->str, "sweep_start");
    EXPECT_EQ(events[0].find("figure")->str, "Fig");
    EXPECT_EQ(events[2].find("status")->str, "ok");
    // Timestamps ride the shared host clock: non-decreasing.
    EXPECT_LE(events[0].find("t_us")->num, events[2].find("t_us")->num);
    std::remove(path.c_str());
}

TEST(SweepProgress, LifecycleEventsReachTheFileInOrder)
{
    const std::string path =
        testing::TempDir() + "sweep_progress_unit.jsonl";
    std::remove(path.c_str());
    {
        obs::SweepProgress::Options popts;
        popts.file = path;
        obs::SweepProgress progress(popts);
        ASSERT_TRUE(progress.active());
        std::size_t idx = progress.addCell("PLSA");
        progress.event("sweep_start", "\"figure\":\"F\",\"cells\":1");
        progress.start();
        progress.cellStarted(idx, 1);
        progress.slot(idx)->beat(2000, 1'000'000);
        progress.cellFault(idx, "cell.throw", 1);
        progress.cellRetried(idx, 2, "injected");
        progress.cellStarted(idx, 2);
        progress.cellFinished(idx, true, 0.125, "");
        progress.event("sweep_finish", "\"ok\":1,\"failed\":0");
        progress.stop();
    }
    std::vector<Value> events = parseProgressJsonl(path);
    // Heartbeat samples may interleave; the lifecycle events must
    // appear exactly once each and in lifecycle order.
    std::vector<std::string> lifecycle;
    for (const Value& v : events) {
        const std::string& name = v.find("event")->str;
        if (name != "heartbeat")
            lifecycle.push_back(name);
    }
    EXPECT_EQ(lifecycle,
              (std::vector<std::string>{"sweep_start", "cell_start",
                                        "fault", "cell_retry",
                                        "cell_start", "cell_finish",
                                        "sweep_finish"}));
    const Value* fault = eventsNamed(events, "fault")[0];
    EXPECT_EQ(fault->find("site")->str, "cell.throw");
    EXPECT_EQ(fault->find("cell")->str, "PLSA");
    const Value* finish = eventsNamed(events, "cell_finish")[0];
    EXPECT_EQ(finish->find("status")->str, "ok");
    std::remove(path.c_str());
}

TEST(SweepProgress, ResumeSkipEventCarriesTheCell)
{
    const std::string path =
        testing::TempDir() + "sweep_progress_resume_unit.jsonl";
    std::remove(path.c_str());
    {
        obs::SweepProgress::Options popts;
        popts.file = path;
        obs::SweepProgress progress(popts);
        std::size_t a = progress.addCell("PLSA");
        std::size_t b = progress.addCell("SNP");
        progress.start();
        progress.cellResumeSkipped(a);
        progress.cellStarted(b, 1);
        progress.cellFinished(b, true, 0.25, "");
        progress.stop();
    }
    // parseProgressJsonl asserts seq density on load.
    std::vector<Value> events = parseProgressJsonl(path);
    const std::vector<const Value*> skips =
        eventsNamed(events, "resume_skip");
    ASSERT_EQ(skips.size(), 1u);
    EXPECT_EQ(skips[0]->find("cell")->str, "PLSA");
    std::remove(path.c_str());
}

TEST(SweepProgress, InactiveWithoutTtyOrFile)
{
    obs::SweepProgress::Options popts;
    obs::SweepProgress progress(popts);
    EXPECT_FALSE(progress.active());
    // start()/stop() are no-ops rather than errors.
    progress.start();
    progress.stop();
}

// ------------------------------------------ sweep integration (sweeps)

BenchOptions
sweepOpts()
{
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};
    return opts;
}

TEST(ProgressIntegration, TelemetryOnLeavesTheFigureBitIdentical)
{
    // Baseline without telemetry, for the bit-identical check.
    FigureData baseline = SweepRunner(sweepOpts())
                              .runCacheSizeFigure(
                                  "FigBeatBase",
                                  presets::cmpPlatform("tiny", 2));

    const std::string out_dir = makeOutDir("progress_beat_out");
    BenchOptions opts = sweepOpts();
    opts.outDir = out_dir;
    opts.progressFile = out_dir + "/progress.jsonl";
    FigureData fig = SweepRunner(opts).runCacheSizeFigure(
        "FigBeat", presets::cmpPlatform("tiny", 2));

    EXPECT_EQ(fig.status("PLSA"), "ok");
    EXPECT_EQ(fig.series("PLSA"), baseline.series("PLSA"));
    const auto& bp = baseline.points("PLSA");
    const auto& fp = fig.points("PLSA");
    ASSERT_EQ(bp.size(), fp.size());
    for (std::size_t i = 0; i < bp.size(); ++i) {
        EXPECT_EQ(bp[i].llcAccesses, fp[i].llcAccesses);
        EXPECT_EQ(bp[i].llcMisses, fp[i].llcMisses);
        EXPECT_EQ(bp[i].insts, fp[i].insts);
    }
    // No failure -> no postmortem.
    EXPECT_FALSE(fileExists(out_dir + "/postmortem.json"));

    std::vector<Value> events =
        parseProgressJsonl(opts.progressFile);
    ASSERT_EQ(eventsNamed(events, "sweep_start").size(), 1u);
    ASSERT_EQ(eventsNamed(events, "cell_finish").size(), 1u);
    EXPECT_EQ(eventsNamed(events, "cell_finish")[0]->find("status")->str,
              "ok");
    ASSERT_EQ(eventsNamed(events, "sweep_finish").size(), 1u);
    EXPECT_DOUBLE_EQ(
        eventsNamed(events, "sweep_finish")[0]->find("ok")->num, 1.0);
}

TEST(ProgressIntegration, InjectedThrowEmitsAFaultEventNamingTheSite)
{
    const std::string out_dir = makeOutDir("progress_throw_out");
    std::remove((out_dir + "/postmortem.json").c_str());

    BenchOptions opts = sweepOpts();
    opts.outDir = out_dir;
    opts.progressFile = out_dir + "/progress.jsonl";
    opts.keepGoing = true;
    ScopedFaultPlan plan("cell.throw:nth=1");
    FigureData fig = SweepRunner(opts).runCacheSizeFigure(
        "FigThrowEvent", presets::cmpPlatform("tiny", 2));

    EXPECT_EQ(fig.status("PLSA"), "failed");
    std::vector<Value> events =
        parseProgressJsonl(opts.progressFile);
    std::vector<const Value*> faults = eventsNamed(events, "fault");
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0]->find("cell")->str, "PLSA");
    EXPECT_EQ(faults[0]->find("site")->str, "cell.throw");
    EXPECT_DOUBLE_EQ(faults[0]->find("hit")->num, 1.0);

    Value pm;
    ASSERT_TRUE(fileExists(out_dir + "/postmortem.json"));
    ASSERT_TRUE(
        obs::json::parse(readFile(out_dir + "/postmortem.json"), pm));
    EXPECT_EQ(pm.find("cell")->str, "PLSA");
    EXPECT_NE(pm.find("error")->str.find("cell.throw"),
              std::string::npos);
}

} // namespace
} // namespace cosim
