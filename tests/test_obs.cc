/**
 * @file
 * Unit and integration tests for the observability layer: JSON
 * utilities, the stats dump, trace session (including the Chrome-trace
 * round trip), host profiler, and run manifest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/units.hh"
#include "core/cosim.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/trace_session.hh"
#include "test_util.hh"

namespace cosim {
namespace {

using obs::json::Value;

// ------------------------------------------------------------------ json

TEST(Json, QuoteEscapes)
{
    EXPECT_EQ(obs::json::quote("plain"), "\"plain\"");
    EXPECT_EQ(obs::json::quote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(obs::json::quote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(obs::json::quote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(obs::json::quote(std::string("a\x01") + "b"),
              "\"a\\u0001b\"");
}

TEST(Json, NumberFormatting)
{
    EXPECT_EQ(obs::json::number(0.0), "0");
    EXPECT_EQ(obs::json::number(42.0), "42");
    EXPECT_EQ(obs::json::number(-3.0), "-3");
    // Non-integral values round-trip through strtod.
    Value v;
    ASSERT_TRUE(obs::json::parse(obs::json::number(2.5), v));
    EXPECT_DOUBLE_EQ(v.num, 2.5);
    ASSERT_TRUE(obs::json::parse(obs::json::number(1.0 / 3.0), v));
    EXPECT_DOUBLE_EQ(v.num, 1.0 / 3.0);
}

TEST(Json, ParsesScalars)
{
    Value v;
    ASSERT_TRUE(obs::json::parse("true", v));
    EXPECT_TRUE(v.isBool());
    EXPECT_TRUE(v.boolean);
    ASSERT_TRUE(obs::json::parse("null", v));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(obs::json::parse("-12.5e2", v));
    EXPECT_TRUE(v.isNumber());
    EXPECT_DOUBLE_EQ(v.num, -1250.0);
    ASSERT_TRUE(obs::json::parse("\"hi\\tthere\"", v));
    EXPECT_TRUE(v.isString());
    EXPECT_EQ(v.str, "hi\tthere");
}

TEST(Json, ParsesNestedStructure)
{
    Value v;
    ASSERT_TRUE(obs::json::parse(
        "{\"a\": [1, 2, {\"b\": false}], \"c\": {\"d\": \"e\"}}", v));
    ASSERT_TRUE(v.isObject());
    const Value* a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->size(), 3u);
    EXPECT_DOUBLE_EQ(a->arr[0].num, 1.0);
    const Value* b = a->arr[2].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_FALSE(b->boolean);
    const Value* c = v.find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("d")->str, "e");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    Value v;
    std::string error;
    EXPECT_FALSE(obs::json::parse("", v, &error));
    EXPECT_FALSE(obs::json::parse("{", v, &error));
    EXPECT_FALSE(obs::json::parse("[1, 2", v, &error));
    EXPECT_FALSE(obs::json::parse("{\"a\" 1}", v, &error));
    EXPECT_FALSE(obs::json::parse("tru", v, &error));
    EXPECT_FALSE(obs::json::parse("\"unterminated", v, &error));
    EXPECT_FALSE(obs::json::parse("{} trailing", v, &error));
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ stats dump

TEST(StatsFile, JsonKeepsGroupAndStatOrder)
{
    // Groups and stats are written in the order given, never sorted:
    // a sweep's dump follows its plan.
    std::vector<stats::Group> groups{stats::Group("b"), stats::Group("a"),
                                     stats::Group("c")};
    groups[0].add("z", 4.0);
    groups[0].add("y", 0.5);
    groups[1].add("v", 2.0);
    EXPECT_EQ(obs::json::statsDump(groups),
              "{\n  \"b\": {\n    \"z\": 4,\n    \"y\": 0.5\n  },"
              "\n  \"a\": {\n    \"v\": 2\n  },"
              "\n  \"c\": {\n  }\n}\n");
    EXPECT_EQ(obs::json::statsDump({}), "{\n}\n");
}

TEST(StatsFile, JsonDumpParses)
{
    stats::Group g("cpu0.l1");
    g.add("misses", 41.0);
    g.add("rate \"q\"", 0.25); // name needing escaping

    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(obs::json::statsDump({g}), doc, &error))
        << error;
    const Value* group = doc.find("cpu0.l1");
    ASSERT_NE(group, nullptr);
    EXPECT_DOUBLE_EQ(group->find("misses")->num, 41.0);
    EXPECT_DOUBLE_EQ(group->find("rate \"q\"")->num, 0.25);
}

// --------------------------------------------------------- trace session

class TraceSessionTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::TraceSession::global().stop();
        obs::TraceSession::global().clear();
    }

    void TearDown() override
    {
        obs::TraceSession::global().stop();
        obs::TraceSession::global().clear();
    }
};

TEST_F(TraceSessionTest, InactiveSessionRecordsNothing)
{
    obs::TraceSession& s = obs::TraceSession::global();
    EXPECT_FALSE(s.active());
    s.recordCounter(obs::TraceDomain::Host, "x", 1.0, 2.0);
    {
        TRACE_SPAN("test", "scope");
        TRACE_COUNTER("c", 1);
        TRACE_INSTANT("test", "marker");
    }
    EXPECT_EQ(s.eventCount(), 0u);
}

TEST_F(TraceSessionTest, MacrosRecordWhileActive)
{
    obs::TraceSession& s = obs::TraceSession::global();
    s.start();
    {
        TRACE_SPAN("test", "scope");
        TRACE_COUNTER("gauge", 5);
        TRACE_INSTANT("test", "marker");
    }
    s.stop();
    EXPECT_EQ(s.eventCount(), 3u);

    bool saw_span = false, saw_counter = false, saw_instant = false;
    for (const obs::TraceEvent& e : s.events()) {
        switch (e.phase) {
          case obs::TraceEvent::Phase::Complete:
            saw_span = e.name == "scope" && e.durUs >= 0.0;
            break;
          case obs::TraceEvent::Phase::Counter:
            saw_counter = e.name == "gauge" && e.value == 5.0;
            break;
          case obs::TraceEvent::Phase::Instant:
            saw_instant = e.name == "marker";
            break;
        }
    }
    EXPECT_TRUE(saw_span);
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_instant);
}

TEST_F(TraceSessionTest, StartClearsPreviousEvents)
{
    obs::TraceSession& s = obs::TraceSession::global();
    s.start();
    s.recordCounter(obs::TraceDomain::Host, "x", 1.0, 1.0);
    s.stop();
    EXPECT_EQ(s.eventCount(), 1u);
    s.start();
    EXPECT_EQ(s.eventCount(), 0u);
}

TEST_F(TraceSessionTest, ExportRoundTripsThroughJsonParser)
{
    obs::TraceSession& s = obs::TraceSession::global();
    s.start();
    // Record simulated-domain events deliberately out of time order;
    // the exporter must order each process's events by timestamp.
    s.recordComplete(obs::TraceDomain::Simulated, 2, "dex", "quantum",
                     300.0, 50.0, 1000.0, true);
    s.recordComplete(obs::TraceDomain::Simulated, 0, "dex", "quantum",
                     100.0, 40.0, 900.0, true);
    s.recordCounter(obs::TraceDomain::Simulated, "llc.mpki", 500.0, 3.5);
    s.recordInstant(obs::TraceDomain::Host, 0, "sweep", "start", 1.0);
    s.stop();

    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(s.exportJson(), doc, &error)) << error;

    const Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    // 2 process-name metadata + 4 recorded events.
    ASSERT_EQ(events->size(), 6u);

    // Timestamps must be monotonically non-decreasing within each pid.
    std::map<double, double> last_ts;
    for (const Value& e : events->arr) {
        if (e.find("ph")->str == "M")
            continue;
        double pid = e.find("pid")->num;
        double ts = e.find("ts")->num;
        if (last_ts.count(pid)) {
            EXPECT_GE(ts, last_ts[pid]);
        }
        last_ts[pid] = ts;
    }

    // Spot-check the counter event's shape.
    bool found_counter = false;
    for (const Value& e : events->arr) {
        if (e.find("ph")->str != "C")
            continue;
        found_counter = true;
        EXPECT_EQ(e.find("name")->str, "llc.mpki");
        EXPECT_DOUBLE_EQ(e.find("ts")->num, 500.0);
        EXPECT_DOUBLE_EQ(e.find("args")->find("value")->num, 3.5);
    }
    EXPECT_TRUE(found_counter);
}

TEST_F(TraceSessionTest, CoSimulationRunEmitsQuantumSpansAndCbCounters)
{
    PlatformParams p;
    p.nCores = 4;
    p.cpu.baseCpi = 1.0;
    p.cpu.caches.l1 = {"l1", 1 * KiB, 64, 2};
    p.cpu.caches.hasL2 = false;
    p.cpu.useDramLatency = false;
    p.cpu.emitFsbTraffic = true;
    p.dex.quantumInsts = 2000;

    CoSimParams params;
    params.platform = p;
    DragonheadParams dh;
    dh.llc = {"llc", 64 * KiB, 64, 4};
    dh.nSlices = 4;
    // 1 GHz, 500 us windows -> one window per 500k emulated cycles.
    dh.cb.coreFreqGhz = 1.0;
    params.emulators = {dh};
    CoSimulation cosim(params);

    obs::TraceSession& s = obs::TraceSession::global();
    s.start();
    test::LoopWorkload wl(64 * KiB, 8);
    WorkloadConfig cfg;
    cfg.nThreads = 4;
    RunResult r = cosim.run(wl, cfg);
    s.stop();
    EXPECT_TRUE(r.verified);

    // Every virtual core must contribute at least one DEX quantum span,
    // and the spans must carry positive durations on the simulated axis.
    std::map<std::uint32_t, std::uint64_t> spans_per_core;
    std::size_t cb_counters = 0;
    for (const obs::TraceEvent& e : s.events()) {
        if (e.phase == obs::TraceEvent::Phase::Complete &&
            e.category == "dex") {
            EXPECT_EQ(e.domain, obs::TraceDomain::Simulated);
            EXPECT_GE(e.durUs, 0.0);
            ++spans_per_core[e.tid];
        }
        if (e.phase == obs::TraceEvent::Phase::Counter &&
            e.name.find(".mpki") != std::string::npos)
            ++cb_counters;
    }
    EXPECT_EQ(spans_per_core.size(), 4u);
    for (const auto& [core, n] : spans_per_core) {
        EXPECT_GE(n, 1u) << "core " << core;
    }

    // One counter sample per closed CB window (incl. the flushed tail).
    EXPECT_EQ(cb_counters, cosim.emulator(0).samples().size());
    EXPECT_GT(cb_counters, 0u);

    // And the whole trace must still be valid, ordered JSON.
    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(s.exportJson(), doc, &error)) << error;
}

TEST_F(TraceSessionTest, HostTimestampsDoNotRezeroAcrossRestart)
{
    obs::TraceSession& s = obs::TraceSession::global();
    s.start();
    double t0 = s.hostNowUs();
    s.stop();
    s.start();
    // A restart used to re-capture the origin, re-zeroing host spans
    // against everything stamped with the process-wide clock.
    double t1 = s.hostNowUs();
    s.stop();
    EXPECT_GE(t1, t0);
}

// ----------------------------------------------------------- run manifest

TEST(RunManifest, JsonRoundTrip)
{
    obs::RunManifest m;
    m.figureId = "Figure 4 (SCMP)";
    m.platform = "SCMP";
    m.nCores = 8;
    m.scale = 0.05;
    m.seed = 42;
    m.seedSource = "cli";
    m.configTicks = {"4MB", "8MB"};
    m.hostSimMips = 33.5;
    m.hostPhases.push_back({"run", 1.25, 8});

    obs::ManifestWorkload w;
    w.name = "FIMI";
    w.totalInsts = 123456789;
    w.hostSeconds = 3.5;
    w.simMips = 35.3;
    w.verified = true;
    w.mpkiPerConfig = {4.5, 1.25};
    w.seriesTimeUs = {500.0, 1000.0};
    w.seriesMpki = {5.0, 4.0};
    m.workloads.push_back(w);

    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(m.toJson(), doc, &error)) << error;

    EXPECT_EQ(doc.find("schema")->str, obs::kManifestSchema);
    EXPECT_FALSE(doc.find("git")->str.empty());
    EXPECT_EQ(doc.find("figure")->str, "Figure 4 (SCMP)");
    EXPECT_DOUBLE_EQ(doc.find("platform")->find("cores")->num, 8.0);
    EXPECT_DOUBLE_EQ(doc.find("config")->find("scale")->num, 0.05);
    EXPECT_DOUBLE_EQ(doc.find("config")->find("seed")->num, 42.0);
    EXPECT_EQ(doc.find("config")->find("seed_source")->str, "cli");
    ASSERT_EQ(doc.find("config")->find("ticks")->size(), 2u);

    const Value* workloads = doc.find("workloads");
    ASSERT_EQ(workloads->size(), 1u);
    const Value& wl = workloads->arr[0];
    EXPECT_EQ(wl.find("name")->str, "FIMI");
    EXPECT_DOUBLE_EQ(wl.find("insts")->num, 123456789.0);
    EXPECT_TRUE(wl.find("verified")->boolean);
    ASSERT_EQ(wl.find("mpki_per_config")->size(), 2u);
    EXPECT_DOUBLE_EQ(wl.find("mpki_per_config")->arr[1].num, 1.25);
    const Value* series = wl.find("mpki_series");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->find("time_us")->size(), 2u);
    EXPECT_DOUBLE_EQ(series->find("mpki")->arr[0].num, 5.0);

    const Value* host = doc.find("host");
    EXPECT_DOUBLE_EQ(host->find("sim_mips")->num, 33.5);
    ASSERT_EQ(host->find("phases")->size(), 1u);
    EXPECT_EQ(host->find("phases")->arr[0].find("name")->str, "run");
}

TEST(RunManifest, HostPhasesSumByNameInFirstUseOrder)
{
    // A sweep folds its cells' phases into one list: a name's first
    // use fixes its place, later uses add seconds and calls.
    std::vector<obs::ManifestHostPhase> phases;
    obs::addHostPhase(phases, "setup", 0.5);
    obs::addHostPhase(phases, "run", 2.0);
    obs::addHostPhase(phases, "setup", 0.25);
    obs::addHostPhase(phases, "run.drain", 0.125, 3);
    obs::addHostPhase(phases, "run", 1.0, 2);

    ASSERT_EQ(phases.size(), 3u);
    EXPECT_EQ(phases[0].name, "setup");
    EXPECT_DOUBLE_EQ(phases[0].seconds, 0.75);
    EXPECT_EQ(phases[0].calls, 2u);
    EXPECT_EQ(phases[1].name, "run");
    EXPECT_DOUBLE_EQ(phases[1].seconds, 3.0);
    EXPECT_EQ(phases[1].calls, 3u);
    EXPECT_EQ(phases[2].name, "run.drain");
    EXPECT_DOUBLE_EQ(phases[2].seconds, 0.125);
    EXPECT_EQ(phases[2].calls, 3u);
}

TEST(RunManifest, WritesFile)
{
    obs::RunManifest m;
    m.figureId = "test";
    std::string path = ::testing::TempDir() + "cosim_manifest_test.json";
    m.writeJson(path);

    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    buf[n] = '\0';

    Value doc;
    ASSERT_TRUE(obs::json::parse(buf, doc));
    EXPECT_EQ(doc.find("figure")->str, "test");
}

} // namespace
} // namespace cosim
