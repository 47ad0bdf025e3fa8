/**
 * @file
 * The benchmark's in-process probe. It composes each benchmark
 * workload's sweep cells from the library's public calls, so it can time
 * what the bench binaries cannot report about themselves:
 *
 *   perfbench_probe setup <workload> [--seed=N] [--scale=F]
 *       Builds every rig the workload's bench cells build and generates
 *       every paper workload's inputs, timing only those calls: the
 *       set-up a user pays on every bench run.
 *
 *   perfbench_probe trace <workload> --spans=<file> [--seed=N] [--scale=F]
 *       Runs the cells once with a span around every layer crossing
 *       (forwarding Workload and BusSnooper wrappers, the replay reader,
 *       the emulator bank's drain), writes the spans as Chrome
 *       trace-event JSON, and prints the layer counters plus the
 *       simulated results the untraced bench must reproduce.
 *
 * Both modes print one JSON object on stdout. <workload> is one of
 * fig4_serial, fig4_emu3, fig7_replay and table2_p4 (see run.py).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "base/units.hh"
#include "core/cosim.hh"
#include "core/emulator_bank.hh"
#include "core/experiment.hh"
#include "obs/json.hh"
#include "trace/fsb_capture.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

namespace {

using Clock = std::chrono::steady_clock;

/** The bus chunk the parallel emulation path uses; every traced layer
 * pays one clock-read pair per chunk of this many transactions. */
constexpr std::size_t kChunkTxns = 4096;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Benchmark workloads: the cells each bench invocation in run.py runs.

enum class Cells
{
    Combined, ///< one execution per paper workload, every config attached
    Replay,   ///< capture once per paper workload, replay per config
    Table2,   ///< single-thread P4 platform, no LLC emulation
};

struct BenchWorkload
{
    std::string name;
    Cells cells = Cells::Combined;
    unsigned emuThreads = 0;
    PlatformParams platform;
    std::vector<DragonheadParams> emulators;
    std::vector<std::string> ticks;
    std::vector<std::string> paper;
};

/** The Table 2 platform, as bench/table2_characteristics.cc builds it. */
PlatformParams
pentium4Platform()
{
    PlatformParams platform;
    platform.name = "P4";
    platform.nCores = 1;
    platform.cpu = presets::pentium4Cpu();
    platform.dram.baseLatency = 350;
    platform.dex.quantumInsts = 100000;
    return platform;
}

bool
lookupWorkload(const std::string& name, BenchWorkload& out)
{
    out.name = name;
    if (name == "fig4_serial" || name == "fig4_emu3") {
        out.cells = Cells::Combined;
        out.emuThreads = name == "fig4_emu3" ? 3 : 0;
        out.platform = presets::scmp();
        out.emulators = presets::llcSizeSweepEmulators();
        for (std::uint64_t size : presets::llcSizeSweep())
            out.ticks.push_back(formatSize(size));
        out.paper = {"MDS", "SHOT"};
        return true;
    }
    if (name == "fig7_replay") {
        out.cells = Cells::Replay;
        out.platform = presets::lcmp();
        out.emulators = presets::lineSizeSweepEmulators();
        for (std::uint32_t line : presets::lineSizeSweep())
            out.ticks.push_back(formatSize(line));
        out.paper = {"MDS", "SHOT"};
        return true;
    }
    if (name == "table2_p4") {
        out.cells = Cells::Table2;
        out.platform = pentium4Platform();
        out.paper = {"SVM-RFE", "MDS",  "SHOT",   "FIMI",
                     "VIEWTYPE", "PLSA", "RSEARCH"};
        return true;
    }
    return false;
}

struct Options
{
    std::string mode;
    BenchWorkload workload;
    std::uint64_t seed = 42;
    double scale = 1.0;
    std::string spansFile;
};

WorkloadConfig
workloadConfig(const Options& o, unsigned n_threads)
{
    WorkloadConfig cfg;
    cfg.nThreads = n_threads;
    cfg.scale = o.scale;
    cfg.seed = o.seed;
    return cfg;
}

// ---------------------------------------------------------------------
// Spans: kept in memory, written once at exit.

struct Span
{
    const char* name;
    int config; ///< index into BenchWorkload::ticks, -1 when none
    int parent; ///< index into the span list, -1 for the root
    Clock::time_point start;
    Clock::time_point end;
};

/** Single-threaded span recorder: every traced crossing happens on the
 * thread that runs the guest, so a stack gives each span its parent. */
class Tracer
{
  public:
    Tracer() { spans_.reserve(1 << 17); }

    int
    begin(const char* name, int config)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, config, parent, Clock::now(), {}});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = Clock::now();
        open_.pop_back();
    }

    double
    seconds(int id) const
    {
        const Span& s = spans_[static_cast<std::size_t>(id)];
        return std::chrono::duration<double>(s.end - s.start).count();
    }

    /** Chrome trace-event JSON; args carry the span tree and config. */
    std::string
    chromeJson(const std::vector<std::string>& ticks) const
    {
        std::string out = "{\"traceEvents\":[\n";
        const Clock::time_point origin =
            spans_.empty() ? Clock::time_point{} : spans_.front().start;
        auto us = [origin](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin)
                .count();
        };
        char buf[160];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "{\"name\":\"%s\",\"cat\":\"perfbench\","
                          "\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,",
                          s.name, us(s.start), us(s.end) - us(s.start));
            out += buf;
            std::snprintf(buf, sizeof(buf),
                          "\"args\":{\"id\":%zu,\"parent\":%d", i,
                          s.parent);
            out += buf;
            if (s.config >= 0) {
                out += ",\"config\":" +
                       obs::json::quote(
                           ticks[static_cast<std::size_t>(s.config)]);
            }
            out += i + 1 < spans_.size() ? "}},\n" : "}}\n";
        }
        out += "]}\n";
        return out;
    }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

class SpanScope
{
  public:
    SpanScope(Tracer& tracer, const char* name, int config = -1)
        : tracer_(tracer), id_(tracer.begin(name, config))
    {
    }
    ~SpanScope() { tracer_.end(id_); }

    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer& tracer_;
    int id_;
};

/** Times every chunk the bus hands to @p inner. */
class TimedSnooper : public BusSnooper
{
  public:
    TimedSnooper(BusSnooper& inner, Tracer& tracer, const char* span,
                 int config)
        : inner_(inner), tracer_(tracer), span_(span), config_(config)
    {
    }

    void observe(const BusTransaction& txn) override
    {
        observeBatch(&txn, 1);
    }

    void
    observeBatch(const BusTransaction* txns, std::size_t n) override
    {
        SpanScope s(tracer_, span_, config_);
        inner_.observeBatch(txns, n);
    }

  private:
    BusSnooper& inner_;
    Tracer& tracer_;
    const char* span_;
    int config_;
};

/** Times the workload's input generation inside VirtualPlatform::run. */
class TimedWorkload : public Workload
{
  public:
    TimedWorkload(const std::string& name, double scale, Tracer& tracer)
        : tracer_(tracer)
    {
        SpanScope s(tracer_, "workloads.setup");
        inner_ = createWorkload(name, scale);
    }

    std::string name() const override { return inner_->name(); }
    std::string description() const override
    {
        return inner_->description();
    }

    void
    setUp(const WorkloadConfig& cfg, SimAllocator& alloc) override
    {
        SpanScope s(tracer_, "workloads.setup");
        inner_->setUp(cfg, alloc);
    }

    std::unique_ptr<ThreadTask> createThread(unsigned tid) override
    {
        return inner_->createThread(tid);
    }
    bool verify() override { return inner_->verify(); }
    void tearDown() override { inner_->tearDown(); }

  private:
    Tracer& tracer_;
    std::unique_ptr<Workload> inner_;
};

// ---------------------------------------------------------------------
// Traced composition.

/** Layer counters summed over the pass's paper workloads. */
struct Counts
{
    std::uint64_t insts = 0;
    std::uint64_t slices = 0;
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t fsbTxns = 0;
    std::uint64_t fsbChunks = 0;
    std::uint64_t footprintMaxBytes = 0;
    std::uint64_t emulatedTxns = 0; ///< sum over configs
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t afObserved = 0;
    std::uint64_t afForwarded = 0;
    std::uint64_t cbSamples = 0;
    std::uint64_t streamBytes = 0;
    std::uint64_t streamTxns = 0;
    std::uint64_t queuePeak = 0;
    std::uint64_t failedWorkers = 0;
};

/** One paper workload's simulated results, in bench CSV column order. */
struct PaperResult
{
    std::string name;
    std::vector<double> values;
};

void
addRun(const RunResult& r, const FrontSideBus& fsb, Counts& c)
{
    if (!r.verified)
        throw std::runtime_error(r.workload + " failed self-verification");
    c.insts += r.totalInsts;
    c.slices += r.schedulerSlices;
    c.l1Accesses += r.l1.accesses;
    c.l1Misses += r.l1.misses;
    c.l2Accesses += r.l2.accesses;
    c.l2Misses += r.l2.misses;
    c.fsbTxns += fsb.txnCount();
    c.fsbChunks += fsb.batchCount();
    c.footprintMaxBytes = std::max(c.footprintMaxBytes, r.footprintBytes);
}

void
addEmulator(const Dragonhead& dh, bool first, Counts& c)
{
    const LlcResults llc = dh.results();
    c.llcAccesses += llc.accesses;
    c.llcMisses += llc.misses;
    c.afObserved += dh.addressFilter().stats().observed;
    c.afForwarded += dh.addressFilter().stats().forwarded;
    if (first)
        c.cbSamples += dh.samples().size();
}

/** Figure 4's combined cell: the guest runs once per paper workload with
 * every configuration attached, inline or behind the emulator bank. */
void
traceCombined(const Options& o, Tracer& t, Counts& c,
              std::vector<PaperResult>& results)
{
    const BenchWorkload& b = o.workload;
    VirtualPlatform vp(b.platform);
    FrontSideBus& fsb = vp.fsb();

    std::vector<std::unique_ptr<Dragonhead>> inline_emus;
    std::unique_ptr<AsyncEmulatorBank> bank;
    {
        SpanScope s(t, "dragonhead.build");
        if (b.emuThreads > 0) {
            EmulatorBankParams bp;
            bp.emulators = b.emulators;
            bp.nThreads = b.emuThreads;
            bp.chunkTxns = kChunkTxns;
            bank = std::make_unique<AsyncEmulatorBank>(bp);
        } else {
            for (const DragonheadParams& p : b.emulators)
                inline_emus.push_back(std::make_unique<Dragonhead>(p));
        }
    }
    auto emulator = [&](unsigned i) -> const Dragonhead& {
        return bank ? bank->emulator(i) : *inline_emus[i];
    };

    std::vector<std::unique_ptr<TimedSnooper>> taps;
    if (bank) {
        taps.push_back(
            std::make_unique<TimedSnooper>(*bank, t, "core.handoff", -1));
    } else {
        for (std::size_t i = 0; i < inline_emus.size(); ++i) {
            taps.push_back(std::make_unique<TimedSnooper>(
                *inline_emus[i], t, "dragonhead.emulate",
                static_cast<int>(i)));
        }
    }
    for (auto& tap : taps)
        fsb.attach(tap.get());
    fsb.setBatchCapacity(kChunkTxns);

    for (const std::string& name : b.paper) {
        {
            // The modelled LLCs start empty for every paper workload.
            SpanScope s(t, "dragonhead.build");
            if (bank)
                bank->reset();
            for (auto& dh : inline_emus)
                dh->reset();
        }
        TimedWorkload wl(name, o.scale, t);
        RunResult r;
        {
            SpanScope s(t, "softsdv.run");
            r = vp.run(wl, workloadConfig(o, b.platform.nCores));
        }
        if (bank) {
            SpanScope s(t, "core.drain");
            bank->sync();
        }
        addRun(r, fsb, c);

        PaperResult pr{wl.name(), {}};
        for (unsigned i = 0; i < b.emulators.size(); ++i) {
            const Dragonhead& dh = emulator(i);
            addEmulator(dh, i == 0, c);
            pr.values.push_back(dh.results().mpki());
            c.emulatedTxns += fsb.txnCount();
            if (bank) {
                c.queuePeak = std::max<std::uint64_t>(c.queuePeak,
                                                      bank->queuePeak(i));
            }
        }
        results.push_back(pr);
    }
    if (bank)
        c.failedWorkers = bank->failedWorkers();
    for (auto& tap : taps)
        fsb.detach(tap.get());
}

/** Figure 7's replay cells: capture each paper workload's bus stream
 * once, then decode it into one fresh emulator per configuration. */
void
traceReplay(const Options& o, Tracer& t, Counts& c,
            std::vector<PaperResult>& results)
{
    const BenchWorkload& b = o.workload;
    for (const std::string& name : b.paper) {
        VirtualPlatform vp(b.platform);
        FsbStreamMeta meta;
        meta.workload = name;
        meta.platform = b.platform.name;
        meta.nCores = b.platform.nCores;
        meta.seed = o.seed;
        meta.scale = o.scale;
        FsbCaptureSnooper capture(meta);
        TimedSnooper tap(capture, t, "trace.encode", -1);
        vp.fsb().attach(&tap);
        vp.fsb().setBatchCapacity(kChunkTxns);

        TimedWorkload wl(name, o.scale, t);
        RunResult r;
        {
            SpanScope s(t, "softsdv.run");
            r = vp.run(wl, workloadConfig(o, b.platform.nCores));
        }
        vp.fsb().detach(&tap);
        addRun(r, vp.fsb(), c);

        std::shared_ptr<const std::vector<std::uint8_t>> stream;
        {
            SpanScope s(t, "trace.encode");
            capture.writer().setResult(r.totalInsts, r.verified);
            stream = capture.writer().share();
        }
        c.streamBytes += stream->size();
        c.streamTxns += capture.writer().txnCount();

        PaperResult pr{wl.name(), {}};
        std::vector<BusTransaction> chunk;
        for (std::size_t i = 0; i < b.emulators.size(); ++i) {
            const int cfg = static_cast<int>(i);
            std::unique_ptr<Dragonhead> dh;
            {
                SpanScope s(t, "dragonhead.build", cfg);
                dh = std::make_unique<Dragonhead>(b.emulators[i]);
            }
            FsbStreamReader reader;
            std::string error;
            bool more = false;
            {
                SpanScope s(t, "trace.decode", cfg);
                if (!reader.openBuffer(stream, &error))
                    throw std::runtime_error(name + ": " + error);
                more = reader.nextChunk(chunk);
            }
            while (more) {
                {
                    SpanScope s(t, "dragonhead.emulate", cfg);
                    dh->observeBatch(chunk.data(), chunk.size());
                }
                SpanScope s(t, "trace.decode", cfg);
                more = reader.nextChunk(chunk);
            }
            if (!reader.ok() || !reader.atEnd()) {
                throw std::runtime_error(name + ": replay stopped early: " +
                                         reader.error());
            }
            c.emulatedTxns += reader.txnsDecoded();
            addEmulator(*dh, i == 0, c);
            pr.values.push_back(dh->results().mpki());
        }
        results.push_back(pr);
    }
}

/** Table 2: each paper workload on one P4 core; no LLC emulation. */
void
traceTable2(const Options& o, Tracer& t, Counts& c,
            std::vector<PaperResult>& results)
{
    const BenchWorkload& b = o.workload;
    VirtualPlatform vp(b.platform);
    for (const std::string& name : b.paper) {
        TimedWorkload wl(name, o.scale, t);
        RunResult r;
        {
            SpanScope s(t, "softsdv.run");
            r = vp.run(wl, workloadConfig(o, 1));
        }
        addRun(r, vp.fsb(), c);
        results.push_back({wl.name(),
                           {r.ipc(), static_cast<double>(r.totalInsts),
                            r.memInstPercent(), r.memReadPercent(),
                            r.l1AccessesPerKiloInst(),
                            r.l1MissesPerKiloInst(),
                            r.l2MissesPerKiloInst()}});
    }
}

std::string
jsonCounts(const Counts& c)
{
    auto field = [](const char* key, std::uint64_t v) {
        return obs::json::quote(key) + ":" + std::to_string(v);
    };
    return "{" + field("insts", c.insts) + "," +
           field("slices", c.slices) + "," +
           field("l1_accesses", c.l1Accesses) + "," +
           field("l1_misses", c.l1Misses) + "," +
           field("l2_accesses", c.l2Accesses) + "," +
           field("l2_misses", c.l2Misses) + "," +
           field("fsb_txns", c.fsbTxns) + "," +
           field("fsb_chunks", c.fsbChunks) + "," +
           field("footprint_max_bytes", c.footprintMaxBytes) + "," +
           field("emulated_txns", c.emulatedTxns) + "," +
           field("llc_accesses", c.llcAccesses) + "," +
           field("llc_misses", c.llcMisses) + "," +
           field("af_observed", c.afObserved) + "," +
           field("af_forwarded", c.afForwarded) + "," +
           field("cb_samples", c.cbSamples) + "," +
           field("stream_bytes", c.streamBytes) + "," +
           field("stream_txns", c.streamTxns) + "," +
           field("queue_peak", c.queuePeak) + "," +
           field("failed_workers", c.failedWorkers) + "}";
}

int
runTrace(const Options& o)
{
    Tracer tracer;
    Counts counts;
    std::vector<PaperResult> results;
    // The root span: its self time is the composition's own bookkeeping.
    const int pass = tracer.begin("pass", -1);
    switch (o.workload.cells) {
      case Cells::Combined:
        traceCombined(o, tracer, counts, results);
        break;
      case Cells::Replay:
        traceReplay(o, tracer, counts, results);
        break;
      case Cells::Table2:
        traceTable2(o, tracer, counts, results);
        break;
    }
    tracer.end(pass);
    const double wall = tracer.seconds(pass);

    writeFileAtomic(o.spansFile, tracer.chromeJson(o.workload.ticks));

    std::string out = "{\"workload\":" + obs::json::quote(o.workload.name) +
                      ",\"seed\":" + std::to_string(o.seed) +
                      ",\"scale\":" + obs::json::number(o.scale) +
                      ",\"wall_s\":" + obs::json::number(wall) +
                      ",\"configs\":" +
                      std::to_string(o.workload.emulators.size()) +
                      ",\"ticks\":[";
    for (std::size_t i = 0; i < o.workload.ticks.size(); ++i) {
        out += (i ? "," : "") + obs::json::quote(o.workload.ticks[i]);
    }
    out += "],\"counts\":" + jsonCounts(counts) + ",\"results\":{";
    for (std::size_t i = 0; i < results.size(); ++i) {
        out += (i ? "," : "") + obs::json::quote(results[i].name) + ":[";
        for (std::size_t j = 0; j < results[i].values.size(); ++j) {
            out += (j ? "," : "") +
                   obs::json::number(results[i].values[j]);
        }
        out += "]";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Set-up timing.

struct SetupTimes
{
    double rig = 0.0;
    double inputs = 0.0;
    unsigned rigs = 0;
    unsigned inputSets = 0;
};

/** Generate @p name's inputs into @p alloc, timing only generation. */
void
timeInputs(const Options& o, const std::string& name, unsigned n_threads,
           SimAllocator& alloc, SetupTimes& st)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> wl = createWorkload(name, o.scale);
    alloc.reset();
    wl->setUp(workloadConfig(o, n_threads), alloc);
    st.inputs += secondsSince(t0);
    ++st.inputSets;
    wl->tearDown();
}

std::unique_ptr<CoSimulation>
timeRig(const CoSimParams& params, SetupTimes& st)
{
    const Clock::time_point t0 = Clock::now();
    auto rig = std::make_unique<CoSimulation>(params);
    st.rig += secondsSince(t0);
    ++st.rigs;
    return rig;
}

int
runSetup(const Options& o)
{
    const BenchWorkload& b = o.workload;
    SetupTimes st;
    CoSimParams params;
    params.platform = b.platform;
    switch (b.cells) {
      case Cells::Combined: {
        // One rig serves every paper workload (harness/sweep_runner.cc).
        params.emulators = b.emulators;
        params.emulationThreads = b.emuThreads;
        auto rig = timeRig(params, st);
        for (const std::string& name : b.paper) {
            timeInputs(o, name, b.platform.nCores,
                       rig->platform().allocator(), st);
        }
        break;
      }
      case Cells::Replay:
        // A capture rig per paper workload, then a one-config rig per
        // replay cell.
        for (const std::string& name : b.paper) {
            {
                auto capture = timeRig(params, st);
                timeInputs(o, name, b.platform.nCores,
                           capture->platform().allocator(), st);
            }
            for (const DragonheadParams& emu : b.emulators) {
                CoSimParams cell = params;
                cell.emulators = {emu};
                timeRig(cell, st);
            }
        }
        break;
      case Cells::Table2: {
        const Clock::time_point t0 = Clock::now();
        VirtualPlatform vp(b.platform);
        st.rig += secondsSince(t0);
        ++st.rigs;
        for (const std::string& name : b.paper)
            timeInputs(o, name, 1, vp.allocator(), st);
        break;
      }
    }
    std::printf("{\"workload\":%s,\"setup_s\":%s,\"rig_s\":%s,"
                "\"inputs_s\":%s,\"rigs\":%u,\"input_sets\":%u}\n",
                obs::json::quote(b.name).c_str(),
                obs::json::number(st.rig + st.inputs).c_str(),
                obs::json::number(st.rig).c_str(),
                obs::json::number(st.inputs).c_str(), st.rigs,
                st.inputSets);
    return 0;
}

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_probe: %s\n"
                 "usage: perfbench_probe setup|trace <workload> "
                 "[--seed=N] [--scale=F] [--spans=FILE]\n"
                 "workloads: fig4_serial fig4_emu3 fig7_replay "
                 "table2_p4\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    if (argc < 3)
        usage("missing mode or workload");
    Options o;
    o.mode = argv[1];
    if (o.mode != "setup" && o.mode != "trace")
        usage("mode must be setup or trace");
    if (!lookupWorkload(argv[2], o.workload))
        usage("unknown workload");
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char* flag) -> const char* {
            const std::size_t n = std::strlen(flag);
            return arg.compare(0, n, flag) == 0 ? arg.c_str() + n
                                                : nullptr;
        };
        char* end = nullptr;
        if (const char* v = value("--seed=")) {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage("--seed needs an unsigned integer");
        } else if (const char* v = value("--scale=")) {
            o.scale = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(o.scale > 0.0) ||
                o.scale > 1.0)
                usage("--scale needs a number in (0, 1]");
        } else if (const char* v = value("--spans=")) {
            o.spansFile = v;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.mode == "trace" && o.spansFile.empty())
        usage("trace needs --spans=FILE");
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    try {
        return o.mode == "setup" ? runSetup(o) : runTrace(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_probe %s %s: %s\n", o.mode.c_str(),
                     o.workload.name.c_str(), e.what());
        return 1;
    }
}
