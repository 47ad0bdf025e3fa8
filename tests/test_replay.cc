/**
 * @file
 * FSB replay determinism suite.
 *
 * The tentpole property: replaying a captured stream through any
 * emulator configuration is *bit-identical* to live snooping -- every
 * per-slice counter, per-core counter and ControlBlock 500 us
 * sample window -- in serial and in worker-thread emulation mode.
 * On top of that: replay provenance in RunResult, sweep cell-mode
 * equivalence (combined / exec / replay decompositions produce the same
 * figures), per-cell stats namespacing, and clean failure on corrupt
 * streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "core/results.hh"
#include "harness/sweep_cell.hh"
#include "harness/sweep_runner.hh"
#include "obs/json.hh"
#include "trace/fsb_capture.hh"
#include "trace/fsb_replay.hh"
#include "trace/phase_cluster.hh"
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

std::vector<DragonheadParams>
sweepConfigs()
{
    return {llc(8 * KiB), llc(64 * KiB), llc(256 * KiB)};
}

/** Emulator-side state, bit-exact (mirrors test_parallel.cc). */
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

/** A live run with the capture snooper attached. */
struct LiveCapture
{
    Fingerprint fingerprint;
    RunResult result;
    std::shared_ptr<const std::vector<std::uint8_t>> stream;
    std::uint64_t digest = 0;
    std::uint64_t txns = 0;
};

LiveCapture
runLiveWithCapture(unsigned emu_threads)
{
    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    params.emulationThreads = emu_threads;
    CoSimulation cosim(params);

    FsbStreamMeta meta;
    meta.workload = "loop";
    meta.platform = params.platform.name;
    meta.nCores = cores;
    FsbCaptureSnooper capture(meta, 256);
    cosim.platform().fsb().attach(&capture);

    test::LoopWorkload wl(16 * KiB, 4, true);
    WorkloadConfig cfg;
    cfg.nThreads = cores;

    LiveCapture live;
    live.result = cosim.run(wl, cfg);
    cosim.platform().fsb().detach(&capture);
    EXPECT_TRUE(live.result.verified);
    EXPECT_TRUE(live.result.replayedFrom.empty());

    capture.writer().setResult(live.result.totalInsts,
                               live.result.verified);
    live.digest = capture.writer().digest();
    live.txns = capture.writer().txnCount();
    live.stream = capture.writer().share();
    live.fingerprint = fingerprintOf(cosim, cores);
    return live;
}

/** Replay @p live through a fresh rig and fingerprint the emulators. */
Fingerprint
replayOnce(const LiveCapture& live, unsigned emu_threads,
           RunResult* out_result = nullptr)
{
    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    params.emulationThreads = emu_threads;
    CoSimulation cosim(params);

    FsbStreamReader reader;
    reader.openBuffer(live.stream);
    ReplayResult details;
    RunResult result = cosim.replay(reader, "memory:loop", &details);
    EXPECT_EQ(details.txns, live.txns);
    EXPECT_EQ(details.digest, live.digest);
    if (out_result)
        *out_result = result;
    return fingerprintOf(cosim, cores);
}

TEST(FsbReplay, BitIdenticalToLiveSnooping)
{
    LiveCapture live = runLiveWithCapture(0);
    ASSERT_FALSE(live.fingerprint.counters.empty());
    ASSERT_FALSE(live.fingerprint.samples.empty());
    ASSERT_GT(live.txns, 0u);

    EXPECT_EQ(replayOnce(live, 0), live.fingerprint);
}

TEST(FsbReplay, BitIdenticalUnderWorkerThreadEmulation)
{
    LiveCapture live = runLiveWithCapture(0);
    for (unsigned threads : {1u, 2u, 4u}) {
        EXPECT_EQ(replayOnce(live, threads), live.fingerprint)
            << "emu threads = " << threads;
    }
}

TEST(FsbReplay, CaptureUnderParallelEmulationMatchesSerialCapture)
{
    // The capture snooper rides the batched bus in parallel mode; the
    // encoded stream must still be the exact issue-order sequence.
    LiveCapture serial = runLiveWithCapture(0);
    LiveCapture parallel = runLiveWithCapture(2);
    EXPECT_EQ(parallel.digest, serial.digest);
    EXPECT_EQ(parallel.txns, serial.txns);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
}

TEST(FsbReplay, ResultCarriesProvenanceAndCapturedOutcome)
{
    LiveCapture live = runLiveWithCapture(0);
    RunResult replayed;
    replayOnce(live, 0, &replayed);

    EXPECT_EQ(replayed.replayedFrom, "memory:loop");
    EXPECT_EQ(replayed.workload, "loop");
    EXPECT_EQ(replayed.totalInsts, live.result.totalInsts);
    EXPECT_EQ(replayed.verified, live.result.verified);
    EXPECT_EQ(replayed.nThreads, 4u);
    // The guest did not execute: CPU-side counters stay zero.
    EXPECT_EQ(replayed.totalCycles, 0u);
    EXPECT_EQ(replayed.l1.accesses, 0u);
}

TEST(FsbReplay, FileRoundTripIsIdenticalToBufferReplay)
{
    LiveCapture live = runLiveWithCapture(0);
    std::string path = testing::TempDir() + "replay_roundtrip.fsb";
    {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(live.stream->data()),
                  static_cast<std::streamsize>(live.stream->size()));
    }

    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    CoSimulation cosim(params);
    FsbStreamReader reader;
    ASSERT_TRUE(reader.openFile(path));
    ReplayResult details;
    RunResult result = cosim.replay(reader, "file:" + path, &details);
    EXPECT_EQ(result.replayedFrom, "file:" + path);
    EXPECT_EQ(details.digest, live.digest);
    EXPECT_EQ(fingerprintOf(cosim, cores), live.fingerprint);
    std::remove(path.c_str());
}

TEST(FsbReplay, RigIsReusableAfterReplay)
{
    // replay -> live -> replay on one rig: each pass resets emulators,
    // so results must be independent of what ran before.
    LiveCapture live = runLiveWithCapture(0);

    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    CoSimulation cosim(params);

    FsbStreamReader first_reader;
    first_reader.openBuffer(live.stream);
    cosim.replay(first_reader, "memory:loop");
    Fingerprint first = fingerprintOf(cosim, cores);

    test::LoopWorkload wl(16 * KiB, 4, true);
    WorkloadConfig cfg;
    cfg.nThreads = cores;
    cosim.run(wl, cfg);
    EXPECT_EQ(fingerprintOf(cosim, cores), live.fingerprint);

    FsbStreamReader second_reader;
    second_reader.openBuffer(live.stream);
    cosim.replay(second_reader, "memory:loop");
    EXPECT_EQ(fingerprintOf(cosim, cores), first);
    EXPECT_EQ(first, live.fingerprint);
}

TEST(FsbReplay, SampledReplayIsDeterministic)
{
    // Two sampled replays of one capture, each through a fresh rig,
    // must leave every emulator in the same state.
    LiveCapture live = runLiveWithCapture(0);

    const unsigned cores = 4;
    CoSimParams params;
    params.platform = smallCmp(cores);
    params.emulators = sweepConfigs();
    // Short CB windows give the small loop enough of them to sample.
    for (DragonheadParams& dh : params.emulators)
        dh.cb.samplePeriodUs = 2;

    SamplingPlan plan;
    {
        CoSimulation cosim(params);
        FsbStreamReader reader;
        reader.openBuffer(live.stream);
        cosim.replay(reader, "memory:loop");
        PhaseClusterParams pc;
        pc.warmupWindows = 2;
        plan = clusterPhases(cosim.emulator(0).samples(), "loop", pc);
        plan.samplePeriodUs =
            static_cast<double>(params.emulators[0].cb.samplePeriodUs);
        plan.coreFreqGhz = params.emulators[0].cb.coreFreqGhz;
    }
    ASSERT_FALSE(plan.intervals.empty());
    ASSERT_LT(plan.coverage(), 1.0);

    std::vector<Fingerprint> passes;
    for (int pass = 0; pass < 2; ++pass) {
        CoSimulation cosim(params);
        FsbStreamReader reader;
        reader.openBuffer(live.stream);
        cosim.replaySampled(reader, "memory:loop", plan);
        passes.push_back(fingerprintOf(cosim, cores));
    }
    ASSERT_FALSE(passes[0].counters.empty());
    EXPECT_EQ(passes[1], passes[0]);
}

TEST(FsbReplay, CorruptStreamReportsErrorThroughDriver)
{
    LiveCapture live = runLiveWithCapture(0);
    auto corrupt = std::make_shared<std::vector<std::uint8_t>>(
        live.stream->begin(), live.stream->end());
    (*corrupt)[corrupt->size() - 1] ^= 0xff; // trailer digest byte

    FrontSideBus bus;
    FsbStreamReader reader;
    reader.openBuffer(corrupt);
    ReplayDriver driver;
    ReplayResult rr = driver.replay(reader, bus);
    EXPECT_FALSE(rr.ok);
    EXPECT_NE(rr.error.find("digest mismatch"), std::string::npos)
        << rr.error;

    // A reader that was never opened delivers nothing and says so.
    FsbStreamReader unopened;
    ReplayResult none = driver.replay(unopened, bus);
    EXPECT_FALSE(none.ok);
    EXPECT_EQ(none.txns, 0u);
    EXPECT_NE(none.error.find("never opened"), std::string::npos)
        << none.error;
}

TEST(FsbReplay, CoSimulationRefusesCorruptStream)
{
    // Throws (instead of the old fatal()) so a sweep cell replaying a
    // bad capture can be isolated under --keep-going.
    CoSimParams params;
    params.platform = smallCmp(2);
    params.emulators = {llc(8 * KiB)};
    CoSimulation cosim(params);
    FsbStreamReader reader;
    EXPECT_FALSE(reader.openFile("/nonexistent/stream.fsb"));
    try {
        cosim.replay(reader, "file:/nonexistent/stream.fsb");
        FAIL() << "replay must throw on an unreadable stream";
    } catch (const std::runtime_error& e) {
        // The error names the source and the reader's open failure.
        EXPECT_NE(std::string(e.what()).find(
                      "cannot replay FSB stream (file:/nonexistent/"
                      "stream.fsb): cannot open FSB stream file"),
                  std::string::npos)
            << e.what();
    }
}

// --- sweep cell modes ----------------------------------------------------

FigureData
runSweep(CellMode cells, unsigned jobs, unsigned emu_threads,
         const std::string& capture_base = "",
         const std::string& replay_base = "",
         const std::string& digest_file = "",
         const std::string& manifest_file = "",
         const std::string& stats_file = "")
{
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA"};
    opts.cells = cells;
    opts.jobs = jobs;
    opts.emuThreads = emu_threads;
    opts.captureBase = capture_base;
    opts.replayBase = replay_base;
    opts.digestFile = digest_file;
    opts.manifestFile = manifest_file;
    opts.statsFile = stats_file;

    PlatformParams platform = presets::cmpPlatform("tiny", 2);
    return SweepRunner(opts).runLineSizeFigure("FigReplayTest", platform);
}

void
expectSameFigure(const FigureData& a, const FigureData& b)
{
    ASSERT_EQ(a.seriesNames(), b.seriesNames());
    for (const std::string& name : a.seriesNames()) {
        EXPECT_EQ(a.series(name), b.series(name)) << name;
        const auto& ap = a.points(name);
        const auto& bp = b.points(name);
        ASSERT_EQ(ap.size(), bp.size());
        for (std::size_t i = 0; i < ap.size(); ++i) {
            EXPECT_EQ(ap[i].llcAccesses, bp[i].llcAccesses) << i;
            EXPECT_EQ(ap[i].llcMisses, bp[i].llcMisses) << i;
            EXPECT_EQ(ap[i].insts, bp[i].insts) << i;
        }
    }
}

TEST(SweepCellModes, ExecAndReplayMatchCombined)
{
    FigureData combined = runSweep(CellMode::Combined, 1, 0);
    FigureData exec = runSweep(CellMode::Exec, 1, 0);
    FigureData replay = runSweep(CellMode::Replay, 1, 0);
    expectSameFigure(combined, exec);
    expectSameFigure(combined, replay);
}

TEST(SweepCellModes, ReplayCellsMatchUnderJobsAndEmuThreads)
{
    FigureData serial = runSweep(CellMode::Combined, 1, 0);
    FigureData parallel = runSweep(CellMode::Replay, 4, 2);
    expectSameFigure(serial, parallel);
}

TEST(SweepCellModes, CaptureThenFileReplayMatchesLive)
{
    std::string base = testing::TempDir() + "sweep_replay_test";
    std::string digest_live = testing::TempDir() + "sweep_live.digest";
    std::string digest_replay = testing::TempDir() + "sweep_replay.digest";

    FigureData live =
        runSweep(CellMode::Combined, 1, 0, base, "", digest_live);
    FigureData replayed =
        runSweep(CellMode::Combined, 1, 0, "", base, digest_replay);
    expectSameFigure(live, replayed);

    // The stream digest is invariant across capture and replay.
    DigestManifest a, b;
    std::string error;
    ASSERT_TRUE(DigestManifest::load(digest_live, a, &error)) << error;
    ASSERT_TRUE(DigestManifest::load(digest_replay, b, &error)) << error;
    std::string report;
    EXPECT_TRUE(DigestManifest::compare(a, b, report)) << report;
    ASSERT_EQ(a.entries.size(), 1u);
    EXPECT_EQ(a.entries[0].workload, "PLSA");
    EXPECT_GT(a.entries[0].txns, 0u);

    std::remove((base + ".PLSA.fsb").c_str());
    std::remove(digest_live.c_str());
    std::remove(digest_replay.c_str());
}

/** Every "group.stat" key of the --stats dump at @p path but the host
 * profile's, sorted. */
std::vector<std::string>
statKeys(const std::string& path)
{
    std::vector<std::string> keys;
    for (const stats::Group& g : test::readStatsDump(path)) {
        if (g.name == "host")
            continue;
        for (const auto& [stat, value] : g.values)
            keys.push_back(g.name + "." + stat);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

SweepFigure
planFigure(const BenchOptions& opts)
{
    std::vector<std::string> ticks;
    for (std::uint32_t line : presets::lineSizeSweep())
        ticks.push_back(formatSize(line));
    return {opts, presets::cmpPlatform("tiny", 2),
            presets::lineSizeSweepEmulators(), ticks};
}

TEST(SweepCellModes, ReplayPlansACaptureAndABroadcastCellPerWorkload)
{
    BenchOptions opts;
    opts.workloads = {"PLSA", "MDS"};
    opts.cells = CellMode::Replay;
    const SweepPlan plan = planSweep(planFigure(opts));

    ASSERT_EQ(plan.cells.size(), 4u);
    ASSERT_EQ(plan.chains.size(), 2u);
    for (std::size_t w = 0; w < 2; ++w) {
        const SweepPlan::Chain& chain = plan.chains[w];
        ASSERT_EQ(chain.size(), 2u);
        const SweepCell& capture = plan.cells[chain[0]];
        const SweepCell& replay = plan.cells[chain[1]];
        EXPECT_EQ(capture.label, opts.workloads[w] + "/capture");
        EXPECT_EQ(capture.workload, w);
        EXPECT_EQ(capture.source, StreamSource::Guest);
        EXPECT_EQ(capture.group, EmulatorGroup::None);
        EXPECT_TRUE(capture.capture);
        EXPECT_TRUE(capture.phase1);
        EXPECT_EQ(replay.label, opts.workloads[w] + "/replay");
        EXPECT_EQ(replay.workload, w);
        EXPECT_EQ(replay.source, StreamSource::Capture);
        EXPECT_EQ(replay.group, EmulatorGroup::All);
        EXPECT_FALSE(replay.phase1);
    }
}

TEST(SweepCellModes, FileReplayPlansCombinedCells)
{
    BenchOptions opts;
    opts.workloads = {"PLSA", "MDS"};
    opts.replayBase = "streams/fig7";
    BenchOptions replay_opts = opts;
    replay_opts.cells = CellMode::Replay;
    const SweepPlan combined = planSweep(planFigure(opts));
    const SweepPlan replay = planSweep(planFigure(replay_opts));

    ASSERT_EQ(replay.cells.size(), 2u);
    ASSERT_EQ(replay.cells.size(), combined.cells.size());
    EXPECT_EQ(replay.chains, combined.chains);
    for (std::size_t i = 0; i < replay.cells.size(); ++i) {
        const SweepCell& a = replay.cells[i];
        const SweepCell& b = combined.cells[i];
        EXPECT_EQ(a.label, opts.workloads[i]);
        EXPECT_EQ(a.label, b.label);
        EXPECT_EQ(a.source, StreamSource::Capture);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.group, EmulatorGroup::All);
        EXPECT_EQ(a.group, b.group);
        EXPECT_EQ(a.digest, b.digest);
        EXPECT_EQ(a.phase1, b.phase1);
    }
}

TEST(SweepCellModes, ReplayDecodesEachStreamOnce)
{
    const std::string manifest = testing::TempDir() + "replay_once.json";
    runSweep(CellMode::Replay, 1, 0, "", "", "", manifest);
    std::ifstream in(manifest);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    obs::json::Value root;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, root, &error)) << error;
    const obs::json::Value* stream = root.find("stream");
    ASSERT_NE(stream, nullptr);
    const obs::json::Value* capture = stream->find("capture");
    const obs::json::Value* replay = stream->find("replay");
    ASSERT_NE(capture, nullptr);
    ASSERT_NE(replay, nullptr);
    EXPECT_GT(capture->find("txns")->num, 0.0);
    EXPECT_EQ(replay->find("txns")->num, capture->find("txns")->num);
    EXPECT_EQ(replay->find("bytes")->num, capture->find("bytes")->num);
    // One chain for the one workload, every config on one rig.
    EXPECT_EQ(root.find("host")->find("jobs")->num, 1.0);
    std::remove(manifest.c_str());
}

TEST(SweepCellModes, FileReplayCellsMatchCombinedFileReplay)
{
    const std::string base = testing::TempDir() + "replay_cells_test";
    const std::string digest_combined =
        testing::TempDir() + "replay_cells_combined.digest";
    const std::string digest_replay =
        testing::TempDir() + "replay_cells_replay.digest";
    const std::string dump = testing::TempDir() + "replay_cells.json";
    runSweep(CellMode::Combined, 1, 0, base);

    FigureData combined = runSweep(CellMode::Combined, 1, 0, "", base,
                                   digest_combined, "", dump);
    const std::vector<std::string> combined_keys = statKeys(dump);
    FigureData replay = runSweep(CellMode::Replay, 1, 0, "", base,
                                 digest_replay, "", dump);
    const std::vector<std::string> replay_keys = statKeys(dump);

    expectSameFigure(combined, replay);
    EXPECT_FALSE(combined_keys.empty());
    EXPECT_EQ(replay_keys, combined_keys);
    DigestManifest a, b;
    std::string error;
    ASSERT_TRUE(DigestManifest::load(digest_combined, a, &error)) << error;
    ASSERT_TRUE(DigestManifest::load(digest_replay, b, &error)) << error;
    std::string report;
    EXPECT_TRUE(DigestManifest::compare(a, b, report)) << report;
    ASSERT_EQ(b.entries.size(), 1u);

    std::remove((base + ".PLSA.fsb").c_str());
    std::remove(digest_combined.c_str());
    std::remove(digest_replay.c_str());
    std::remove(dump.c_str());
}

TEST(SweepCellModes, BadReplayFileFailsOnlyItsCell)
{
    // Each replay cell reads its own file when it runs, so a corrupt or
    // missing one fails that workload alone under --keep-going.
    const std::string base = testing::TempDir() + "replay_bad_file_test";
    const std::string fimi = base + ".FIMI.fsb";
    const PlatformParams platform = presets::cmpPlatform("tiny", 2);
    BenchOptions opts;
    opts.scale = 0.02;
    opts.workloads = {"PLSA", "FIMI"};
    opts.captureBase = base;
    FigureData live =
        SweepRunner(opts).runLineSizeFigure("FigBadLive", platform);

    opts.captureBase.clear();
    opts.replayBase = base;
    opts.cells = CellMode::Replay;
    opts.keepGoing = true;
    std::vector<char> bytes;
    {
        std::ifstream in(fimi, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(bytes.empty());
    bytes.back() ^= 0x5a; // trailer digest byte
    {
        std::ofstream out(fimi, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    for (const char* damage : {"corrupt", "missing"}) {
        FigureData fig =
            SweepRunner(opts).runLineSizeFigure("FigBadReplay", platform);
        EXPECT_EQ(fig.status("FIMI"), "failed") << damage;
        EXPECT_TRUE(fig.series("FIMI").empty()) << damage;
        EXPECT_EQ(fig.status("PLSA"), "ok") << damage;
        EXPECT_EQ(fig.series("PLSA"), live.series("PLSA")) << damage;
        std::remove(fimi.c_str());
    }
    std::remove((base + ".PLSA.fsb").c_str());
}

TEST(SweepCellModes, PerCellStatsAreNamespaced)
{
    const std::string dump = testing::TempDir() + "per_cell_stats.json";
    std::vector<std::string> names;
    const auto run = [&](CellMode mode, unsigned jobs) {
        runSweep(mode, jobs, 0, "", "", "", "", dump);
        names.clear();
        for (const stats::Group& g : test::readStatsDump(dump))
            names.push_back(g.name);
    };
    const auto has = [&names](const std::string& group) {
        return std::find(names.begin(), names.end(), group) != names.end();
    };
    run(CellMode::Combined, 1);
    EXPECT_TRUE(has("cell/PLSA/fsb"));
    EXPECT_TRUE(has("cell/PLSA/dragonhead0"));

    run(CellMode::Replay, 2);
    // Replay mode: a capture namespace plus one broadcast replay cell
    // holding every configuration's emulator.
    EXPECT_TRUE(has("cell/PLSA/capture/fsb"));
    EXPECT_FALSE(has("cell/PLSA/capture/dragonhead0"));
    EXPECT_TRUE(has("cell/PLSA/replay/fsb"));
    for (int i = 0; i < 7; ++i) {
        const std::string group =
            "cell/PLSA/replay/dragonhead" + std::to_string(i);
        EXPECT_TRUE(has(group)) << group;
    }
    EXPECT_FALSE(has("cell/PLSA/replay/dragonhead7"));
    EXPECT_FALSE(has("cell/PLSA/64B/dragonhead0"));
    // The aggregate replay counters are published too.
    EXPECT_TRUE(has("replay"));
    std::remove(dump.c_str());
}

} // namespace
} // namespace cosim
