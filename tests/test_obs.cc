/**
 * @file
 * Unit and integration tests for the observability layer: JSON
 * utilities, stats registry, trace session (including the Chrome-trace
 * round trip), host profiler, and run manifest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/units.hh"
#include "core/cosim.hh"
#include "obs/host_profiler.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_registry.hh"
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

// -------------------------------------------------------- stats registry

TEST(StatsRegistry, RegistersAndDumpsText)
{
    obs::StatsRegistry registry;
    stats::Counter hits;
    hits += 7;

    stats::Group g("llc");
    g.add("hits", &hits);
    g.add("ratio", [] { return 0.5; });
    registry.add(std::move(g));

    EXPECT_EQ(registry.size(), 1u);
    std::string text = registry.dumpText();
    EXPECT_NE(text.find("llc.hits 7"), std::string::npos);
    EXPECT_NE(text.find("llc.ratio 0.5"), std::string::npos);
}

TEST(StatsRegistry, ReplacesGroupsByName)
{
    obs::StatsRegistry registry;
    registry.makeGroup("a").add("x", [] { return 1.0; });
    registry.makeGroup("b").add("y", [] { return 2.0; });
    // Re-registering "a" replaces the old group instead of duplicating.
    registry.makeGroup("a").add("x", [] { return 3.0; });

    EXPECT_EQ(registry.size(), 2u);
    std::string text = registry.dumpText();
    EXPECT_EQ(text.find("a.x 1"), std::string::npos);
    EXPECT_NE(text.find("a.x 3"), std::string::npos);
    ASSERT_NE(registry.find("b"), nullptr);
    EXPECT_EQ(registry.find("zzz"), nullptr);
}

TEST(StatsRegistry, JsonDumpParses)
{
    obs::StatsRegistry registry;
    stats::Group g("cpu0.l1");
    g.add("misses", [] { return 41.0; });
    g.add("rate \"q\"", [] { return 0.25; }); // name needing escaping
    registry.add(std::move(g));

    Value doc;
    std::string error;
    ASSERT_TRUE(obs::json::parse(registry.dumpJson(), doc, &error))
        << error;
    const Value* group = doc.find("cpu0.l1");
    ASSERT_NE(group, nullptr);
    EXPECT_DOUBLE_EQ(group->find("misses")->num, 41.0);
    EXPECT_DOUBLE_EQ(group->find("rate \"q\"")->num, 0.25);
}

TEST(StatsRegistry, CsvDump)
{
    obs::StatsRegistry registry;
    registry.makeGroup("dex").add("rounds", [] { return 12.0; });
    std::string csv = registry.dumpCsv();
    EXPECT_NE(csv.find("stat,value\n"), std::string::npos);
    EXPECT_NE(csv.find("dex.rounds,12"), std::string::npos);
}

void
addValued(obs::StatsRegistry& registry, const std::string& name, double v)
{
    registry.makeGroup(name).add("v", [v] { return v; });
}

TEST(StatsRegistry, DumpsInRegistrationOrderAndReplacementKeepsItsPlace)
{
    // Registration order differs from sort order on purpose.
    obs::StatsRegistry registry;
    addValued(registry, "b", 1.0);
    addValued(registry, "a", 2.0);
    addValued(registry, "c", 3.0);
    addValued(registry, "b", 4.0);

    EXPECT_EQ(registry.size(), 3u);
    EXPECT_EQ(registry.groupNames(),
              (std::vector<std::string>{"b", "a", "c"}));
    EXPECT_EQ(registry.dumpText(), "b.v 4\na.v 2\nc.v 3\n");
    EXPECT_EQ(registry.dumpCsv(), "stat,value\nb.v,4\na.v,2\nc.v,3\n");
    EXPECT_EQ(registry.dumpJson(),
              "{\n  \"b\": {\n    \"v\": 4\n  },"
              "\n  \"a\": {\n    \"v\": 2\n  },"
              "\n  \"c\": {\n    \"v\": 3\n  }\n}\n");

    // A registry can snapshot itself; the copies follow in source order.
    registry.addSnapshotOf(registry, "copy/");
    EXPECT_EQ(registry.groupNames(),
              (std::vector<std::string>{"b", "a", "c", "copy/b", "copy/a",
                                        "copy/c"}));
    ASSERT_NE(registry.find("copy/b"), nullptr);
    EXPECT_EQ(registry.find("copy/b")->collect().at(0).second, 4.0);
}

TEST(StatsRegistry, RemovePrefixRemovesExactlyThatNamespace)
{
    obs::StatsRegistry registry;
    addValued(registry, "cell/x/a", 1.0);
    addValued(registry, "cell/xy/a", 2.0);
    addValued(registry, "cell/x", 3.0);
    addValued(registry, "cell/x/b/c", 4.0);
    addValued(registry, "other", 5.0);

    EXPECT_EQ(registry.removePrefix("cell/x/"), 2u);
    EXPECT_EQ(registry.groupNames(),
              (std::vector<std::string>{"cell/xy/a", "cell/x", "other"}));
    EXPECT_EQ(registry.find("cell/x/a"), nullptr);
    EXPECT_EQ(registry.removePrefix("cell/x/"), 0u);
    EXPECT_EQ(registry.size(), 3u);
}

TEST(StatsRegistry, ConcurrentAddsKeepEachThreadsOrder)
{
    constexpr unsigned kThreads = 8;
    constexpr unsigned kGroups = 200;
    obs::StatsRegistry registry;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, t] {
            const std::string prefix = "t" + std::to_string(t) + "/";
            for (unsigned i = 0; i < kGroups; ++i) {
                addValued(registry, prefix + "g" + std::to_string(i), i);
                // Re-add an earlier group: it must keep its place.
                if (i % 10 == 9) {
                    addValued(registry,
                              prefix + "g" + std::to_string(i - 5),
                              1000.0 + i);
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();

    EXPECT_EQ(registry.size(), kThreads * kGroups);
    const std::string text = registry.dumpText();
    for (unsigned t = 0; t < kThreads; ++t) {
        const std::string prefix = "t" + std::to_string(t) + "/";
        std::vector<std::string> names;
        for (const std::string& name : registry.groupNames()) {
            if (name.compare(0, prefix.size(), prefix) == 0)
                names.push_back(name);
        }
        std::vector<std::string> expected;
        std::string expected_lines;
        for (unsigned i = 0; i < kGroups; ++i) {
            expected.push_back(prefix + "g" + std::to_string(i));
            const unsigned v = i % 10 == 4 ? 1005 + i : i;
            expected_lines += prefix + "g" + std::to_string(i) + ".v " +
                              std::to_string(v) + "\n";
        }
        EXPECT_EQ(names, expected) << prefix;

        std::string lines;
        std::size_t at = 0;
        while ((at = text.find(prefix, at)) != std::string::npos) {
            const std::size_t end = text.find('\n', at) + 1;
            lines += text.substr(at, end - at);
            at = end;
        }
        EXPECT_EQ(lines, expected_lines) << prefix;
    }
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

// ---------------------------------------------------------- host profiler

TEST(HostProfiler, AccumulatesPhasesAndMips)
{
    obs::HostProfiler prof;
    prof.accumulate("setup", 0.5);
    prof.accumulate("setup", 0.25);
    prof.accumulate("report", 1.0);
    prof.addSimulated(30'000'000, 1.5);

    EXPECT_DOUBLE_EQ(prof.seconds("setup"), 0.75);
    EXPECT_EQ(prof.calls("setup"), 2u);
    EXPECT_DOUBLE_EQ(prof.seconds("report"), 1.0);
    EXPECT_DOUBLE_EQ(prof.seconds("missing"), 0.0);
    EXPECT_DOUBLE_EQ(prof.simulatedMips(), 20.0);

    stats::Group g = prof.statsGroup("host");
    std::string dump = g.dump();
    EXPECT_NE(dump.find("host.setup.seconds 0.75"), std::string::npos);
    EXPECT_NE(dump.find("host.sim_mips 20"), std::string::npos);

    prof.reset();
    EXPECT_EQ(prof.calls("setup"), 0u);
    EXPECT_DOUBLE_EQ(prof.simulatedMips(), 0.0);
}

TEST(HostProfiler, ScopeMeasuresWallClock)
{
    obs::HostProfiler prof;
    {
        obs::ProfileScope scope("busy", prof);
    }
    EXPECT_EQ(prof.calls("busy"), 1u);
    EXPECT_GE(prof.seconds("busy"), 0.0);
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
