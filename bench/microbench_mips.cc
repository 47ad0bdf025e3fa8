/**
 * @file
 * Google-benchmark microbenchmarks of the co-simulation's own speed,
 * mirroring the paper's headline claim that HW/SW co-simulation runs at
 * 30-50 MIPS (vs KIPS for detailed software simulators). Reports
 * simulated instructions per second for the platform alone and with
 * increasing numbers of passive Dragonhead emulators attached, serial
 * and host-parallel.
 *
 * In addition to the google-benchmark tables, the binary always runs one
 * serial-vs-parallel 7-emulator sweep comparison and writes it as
 * machine-readable JSON (BENCH_mips.json, or $COSIM_BENCH_MIPS_JSON) so
 * future revisions can track throughput regressions; the comparison also
 * cross-checks that both modes produced bit-identical emulator results.
 * Pass --benchmark_filter=NONE to skip the tables and only emit the JSON.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/mutex.hh"
#include "base/thread_pool.hh"
#include "base/units.hh"
#include "core/cosim.hh"
#include "core/experiment.hh"
#include "obs/json.hh"
#include "obs/run_manifest.hh"
#include "obs/stats_registry.hh"
#include "trace/fsb_capture.hh"
#include "trace/phase_cluster.hh"
#include "test_workload_loop.hh"

using namespace cosim;

namespace json = cosim::obs::json;

namespace {

PlatformParams
smallPlatform(unsigned cores)
{
    PlatformParams p;
    p.nCores = cores;
    p.cpu.baseCpi = 0.85;
    p.cpu.caches.l1 = {"l1", 32 * KiB, 64, 8, ReplPolicy::LRU};
    p.cpu.caches.hasL2 = false;
    p.cpu.useDramLatency = false;
    p.cpu.emitFsbTraffic = true;
    p.dex.quantumInsts = 50000;
    return p;
}

/** The Figure-4-shaped sweep: 7 LLC sizes from 4 MB up. */
std::vector<DragonheadParams>
sweepEmulators(unsigned n_emus)
{
    std::vector<DragonheadParams> emus;
    for (unsigned e = 0; e < n_emus; ++e) {
        DragonheadParams dh;
        dh.llc = {"llc", (4ull << e) * MiB, 64, 16, ReplPolicy::LRU};
        emus.push_back(dh);
    }
    return emus;
}

void
reportMips(benchmark::State& state, std::uint64_t insts_per_iter)
{
    state.counters["MIPS"] = benchmark::Counter(
        static_cast<double>(insts_per_iter) * state.iterations() / 1e6,
        benchmark::Counter::kIsRate);
}

void
BM_PlatformOnly(benchmark::State& state)
{
    unsigned cores = static_cast<unsigned>(state.range(0));
    VirtualPlatform vp(smallPlatform(cores));
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bench::LoopWorkload wl(64 * KiB, 4);
        WorkloadConfig cfg;
        cfg.nThreads = cores;
        RunResult r = vp.run(wl, cfg);
        insts = r.totalInsts;
    }
    reportMips(state, insts);
}
BENCHMARK(BM_PlatformOnly)->Arg(1)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void
BM_CoSimWithEmulators(benchmark::State& state)
{
    unsigned n_emus = static_cast<unsigned>(state.range(0));
    CoSimParams params;
    params.platform = smallPlatform(8);
    params.emulators = sweepEmulators(n_emus);
    CoSimulation cosim(params);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bench::LoopWorkload wl(256 * KiB, 2);
        WorkloadConfig cfg;
        cfg.nThreads = 8;
        RunResult r = cosim.run(wl, cfg);
        insts = r.totalInsts;
    }
    reportMips(state, insts);
}
BENCHMARK(BM_CoSimWithEmulators)->Arg(1)->Arg(4)->Arg(7)
    ->Unit(benchmark::kMillisecond);

void
BM_CoSimParallelEmulators(benchmark::State& state)
{
    unsigned n_emus = static_cast<unsigned>(state.range(0));
    CoSimParams params;
    params.platform = smallPlatform(8);
    params.emulators = sweepEmulators(n_emus);
    params.emulationThreads = ThreadPool::hardwareThreads();
    CoSimulation cosim(params);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        bench::LoopWorkload wl(256 * KiB, 2);
        WorkloadConfig cfg;
        cfg.nThreads = 8;
        RunResult r = cosim.run(wl, cfg);
        insts = r.totalInsts;
    }
    reportMips(state, insts);
}
BENCHMARK(BM_CoSimParallelEmulators)->Arg(1)->Arg(4)->Arg(7)
    ->Unit(benchmark::kMillisecond);

void
BM_CacheAccessThroughput(benchmark::State& state)
{
    CacheParams p{"llc", 32 * MiB, 64, 16, ReplPolicy::LRU};
    Cache cache(p);
    Addr a = 0;
    for (auto _ : state) {
        cache.access(a, false);
        a += 64;
        if (a >= 64 * MiB)
            a = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccessThroughput);

/**
 * Before/after of the de-virtualized hit path: the same resident-line
 * access stream through the full access() path vs tryHitFast().
 */
void
BM_CacheHitFullPath(benchmark::State& state)
{
    CacheParams p{"l1", 32 * KiB, 64, 8, ReplPolicy::LRU};
    Cache cache(p);
    for (Addr a = 0; a < 32 * KiB; a += 64)
        cache.access(a, false); // warm: every line resident
    Addr a = 0;
    for (auto _ : state) {
        cache.access(a, false);
        a += 64;
        if (a >= 32 * KiB)
            a = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitFullPath);

void
BM_CacheHitFastPath(benchmark::State& state)
{
    CacheParams p{"l1", 32 * KiB, 64, 8, ReplPolicy::LRU};
    Cache cache(p);
    for (Addr a = 0; a < 32 * KiB; a += 64)
        cache.access(a, false);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.tryHitFast(a, false));
        a += 64;
        if (a >= 32 * KiB)
            a = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitFastPath);

void
BM_DragonheadObserve(benchmark::State& state)
{
    DragonheadParams dp;
    dp.llc = {"llc", 32 * MiB, 64, 16, ReplPolicy::LRU};
    Dragonhead dh(dp);
    dh.observe(msg::encode(msg::Type::StartEmulation, 0));
    BusTransaction txn;
    txn.size = 64;
    txn.kind = TxnKind::ReadLine;
    Addr a = 0;
    for (auto _ : state) {
        txn.addr = a;
        dh.observe(txn);
        a += 64;
        if (a >= 64 * MiB)
            a = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DragonheadObserve);

/**
 * Stats-registration contention: every parallel sweep cell snapshots
 * its rig into the global registry, so registration throughput under
 * --jobs matters. Each benchmark thread registers (and then removes)
 * its own namespace of groups against one shared registry.
 */
void
BM_StatsRegistration(benchmark::State& state)
{
    static obs::StatsRegistry registry;
    const std::string prefix =
        "cell/bm" + std::to_string(state.thread_index()) + "/";
    std::uint64_t n = 0;
    for (auto _ : state) {
        stats::Group g(prefix + "grp" + std::to_string(n++ % 64));
        g.add("a", [] { return 1.0; });
        g.add("b", [] { return 2.0; });
        registry.add(std::move(g));
    }
    registry.removePrefix(prefix);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsRegistration)->Threads(1)->Threads(8);

/**
 * The tracked registry number for BENCH_mips.json: group
 * registrations per second with every hardware thread hammering one
 * registry. @p serialize wraps each add() in one shared mutex,
 * emulating the pre-sharding single-lock registry so the JSON carries
 * a measured before/after on the same machine.
 */
double
measureRegistryOps(bool serialize)
{
    static Mutex single_lock;
    const unsigned n_threads = ThreadPool::hardwareThreads();
    const unsigned per_thread = 4000;
    obs::StatsRegistry registry;

    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (unsigned t = 0; t < n_threads; ++t) {
        threads.emplace_back([&registry, serialize, t] {
            const std::string prefix =
                "cell/w" + std::to_string(t) + "/";
            for (unsigned i = 0; i < per_thread; ++i) {
                stats::Group g(prefix + "grp" + std::to_string(i % 128));
                g.add("a", [] { return 1.0; });
                g.add("b", [] { return 2.0; });
                if (serialize) {
                    LockGuard lock(single_lock);
                    registry.add(std::move(g));
                } else {
                    registry.add(std::move(g));
                }
            }
        });
    }
    for (std::thread& th : threads)
        th.join();
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    return secs > 0.0
        ? static_cast<double>(n_threads) * per_thread / secs
        : 0.0;
}

/** One mode of the tracked serial-vs-parallel comparison. */
struct ModeResult
{
    double hostSeconds = 0.0;
    double simMips = 0.0;
    std::uint64_t totalInsts = 0;
    std::uint64_t totalCycles = 0;
    std::vector<double> mpkis;
    std::vector<std::uint64_t> misses;
};

ModeResult
runSweepOnce(unsigned emulation_threads)
{
    CoSimParams params;
    params.platform = smallPlatform(8);
    params.emulators = sweepEmulators(7);
    params.emulationThreads = emulation_threads;
    CoSimulation cosim(params);

    bench::LoopWorkload wl(1 * MiB, 3);
    WorkloadConfig cfg;
    cfg.nThreads = 8;
    RunResult r = cosim.run(wl, cfg);

    ModeResult out;
    out.hostSeconds = r.hostSeconds;
    out.simMips = r.simMips();
    out.totalInsts = r.totalInsts;
    out.totalCycles = r.totalCycles;
    out.mpkis = cosim.mpkis();
    for (unsigned e = 0; e < cosim.nEmulators(); ++e)
        out.misses.push_back(cosim.emulator(e).results().misses);
    return out;
}

/** Everything the guest run must reproduce bit-identically. */
bool
identicalResults(const ModeResult& a, const ModeResult& b)
{
    return a.totalInsts == b.totalInsts &&
           a.totalCycles == b.totalCycles && a.mpkis == b.mpkis &&
           a.misses == b.misses;
}

std::string
modeJson(const ModeResult& m, unsigned emulation_threads)
{
    std::string out = "{\"host_seconds\": " + json::number(m.hostSeconds) +
                      ", \"sim_mips\": " + json::number(m.simMips) +
                      ", \"emulation_threads\": " +
                      json::number(emulation_threads) + ", \"mpki\": [";
    for (std::size_t i = 0; i < m.mpkis.size(); ++i)
        out += (i ? "," : "") + json::number(m.mpkis[i]);
    out += "]}";
    return out;
}

/** The tracked sampled-replay comparison (full vs plan-gated replay). */
struct SampledResult
{
    double fullSeconds = 0.0;
    double fullMips = 0.0;
    double sampledSeconds = 0.0;
    double sampledMips = 0.0;
    double speedup = 0.0;
    double coverage = 0.0;
    std::uint64_t intervals = 0;
    double mpkiFull = 0.0;
    double mpkiEst = 0.0;
    double mpkiErr = 0.0;
    bool deterministic = false;
};

/** Instruction-weighted estimate over the plan's representative
 * windows (the sweep runner's estimator, restated for the bench). */
double
estimateMpki(const SamplingPlan& plan, const std::vector<Sample>& samples)
{
    double est = 0.0;
    double wsum = 0.0;
    for (const PlanInterval& iv : plan.intervals) {
        if (iv.window >= samples.size() ||
            samples[iv.window].insts == 0) {
            continue;
        }
        const double w =
            iv.instWeight > 0.0 ? iv.instWeight : iv.weight;
        est += w * samples[iv.window].mpki();
        wsum += w;
    }
    return wsum > 0.0 && wsum < 1.0 ? est / wsum : est;
}

/**
 * Capture the 7-emulator sweep's bus stream once, cluster a sampling
 * plan from the first emulator's CB series, then time a full replay
 * against a plan-gated sampled replay through identical rigs. The
 * tracked numbers: replay MIPS both ways, the speedup, and the MPKI
 * estimation error; the sampled pass is also run twice to check the
 * emulator state it leaves is deterministic.
 */
SampledResult
runSampledComparison()
{
    CoSimParams params;
    params.platform = smallPlatform(8);
    params.emulators = sweepEmulators(7);

    // Capture pass (live guest, snooper riding the bus).
    FsbStreamMeta meta;
    meta.workload = "loop";
    meta.platform = params.platform.name;
    meta.nCores = 8;
    std::shared_ptr<const std::vector<std::uint8_t>> stream;
    SamplingPlan plan;
    {
        CoSimulation cosim(params);
        FsbCaptureSnooper capture(meta, 4096);
        cosim.platform().fsb().attach(&capture);
        bench::LoopWorkload wl(1 * MiB, 3);
        WorkloadConfig cfg;
        cfg.nThreads = 8;
        RunResult r = cosim.run(wl, cfg);
        cosim.platform().fsb().detach(&capture);
        capture.writer().setResult(r.totalInsts, r.verified);
        stream = capture.writer().share();

        PhaseClusterParams pc;
        pc.warmupWindows = 2;
        plan = clusterPhases(cosim.emulator(0).samples(), meta.workload,
                             pc);
        plan.samplePeriodUs = static_cast<double>(
            params.emulators[0].cb.samplePeriodUs);
        plan.coreFreqGhz = params.emulators[0].cb.coreFreqGhz;
    }

    SampledResult out;
    out.intervals = plan.intervals.size();
    out.coverage = plan.coverage();

    // Full replay reference.
    {
        CoSimulation cosim(params);
        FsbStreamReader reader;
        reader.openBuffer(stream);
        RunResult r = cosim.replay(reader, "memory:loop");
        out.fullSeconds = r.hostSeconds;
        out.fullMips = r.simMips();
        out.mpkiFull = cosim.emulator(0).results().mpki();
    }

    // Sampled replay, twice (the second pass checks determinism).
    std::vector<std::uint64_t> first_misses;
    for (int pass = 0; pass < 2; ++pass) {
        CoSimulation cosim(params);
        FsbStreamReader reader;
        reader.openBuffer(stream);
        RunResult r = cosim.replaySampled(reader, "memory:loop", plan);
        std::vector<std::uint64_t> misses;
        for (unsigned e = 0; e < cosim.nEmulators(); ++e)
            misses.push_back(cosim.emulator(e).results().misses);
        if (pass == 0) {
            out.sampledSeconds = r.hostSeconds;
            out.sampledMips = r.simMips();
            out.mpkiEst =
                estimateMpki(plan, cosim.emulator(0).samples());
            first_misses = std::move(misses);
        } else {
            out.deterministic = misses == first_misses;
        }
    }

    out.speedup = out.sampledSeconds > 0.0
        ? out.fullSeconds / out.sampledSeconds
        : 0.0;
    out.mpkiErr = out.mpkiFull != 0.0
        ? std::abs(out.mpkiEst - out.mpkiFull) / out.mpkiFull
        : std::abs(out.mpkiEst);
    return out;
}

/** The tracked comparison: 7-emulator sweep, serial vs parallel. */
void
writeMipsJson()
{
    const char* env = std::getenv("COSIM_BENCH_MIPS_JSON");
    std::string path = env != nullptr ? env : "BENCH_mips.json";

    // Report the host honestly: hardware_concurrency() as the kernel
    // sees it, not a clamped pool size. An emulation "speedup" on a
    // box with fewer cores than requested threads is noise, and the
    // JSON must say so rather than flatter the run.
    const unsigned host_cores = std::thread::hardware_concurrency();
    const unsigned host_threads = ThreadPool::hardwareThreads();
    ModeResult serial = runSweepOnce(0);
    ModeResult parallel = runSweepOnce(host_threads);

    bool identical = identicalResults(serial, parallel);
    double speedup = parallel.hostSeconds > 0.0
        ? serial.hostSeconds / parallel.hostSeconds
        : 0.0;

    const double reg_single = measureRegistryOps(/*serialize=*/true);
    const double reg_sharded = measureRegistryOps(/*serialize=*/false);
    const double reg_speedup =
        reg_single > 0.0 ? reg_sharded / reg_single : 0.0;

    const SampledResult sampled = runSampledComparison();

    std::string out = "{\n";
    out += "  \"schema\": \"cosim-bench-mips/4\",\n";
    out += "  \"git\": " + json::quote(obs::buildRevision()) + ",\n";
    out += "  \"host_cores\": " + json::number(host_cores) + ",\n";
    out += "  \"host_threads\": " + json::number(host_threads) + ",\n";
    out += "  \"emulators\": 7,\n";
    out += "  \"serial\": " + modeJson(serial, 0) + ",\n";
    out += "  \"parallel\": " + modeJson(parallel, host_threads) + ",\n";
    out += "  \"speedup\": " + json::number(speedup) + ",\n";
    out += std::string("  \"identical_results\": ") +
           (identical ? "true" : "false") + ",\n";
    out += "  \"stats_registration\": {\"single_lock_ops_per_s\": " +
           json::number(reg_single) + ", \"sharded_ops_per_s\": " +
           json::number(reg_sharded) + ", \"speedup\": " +
           json::number(reg_speedup) + "},\n";
    // The sampled-replay column: sim_mips is the sampled pass's
    // throughput so compare-mips gates it like serial/parallel.
    out += "  \"sampled\": {\"sim_mips\": " +
           json::number(sampled.sampledMips) + ", \"host_seconds\": " +
           json::number(sampled.sampledSeconds) +
           ",\n    \"full_mips\": " + json::number(sampled.fullMips) +
           ", \"full_seconds\": " + json::number(sampled.fullSeconds) +
           ", \"speedup\": " + json::number(sampled.speedup) +
           ",\n    \"intervals\": " +
           json::number(static_cast<double>(sampled.intervals)) +
           ", \"coverage\": " + json::number(sampled.coverage) +
           ", \"mpki_full\": " + json::number(sampled.mpkiFull) +
           ", \"mpki_est\": " + json::number(sampled.mpkiEst) +
           ", \"mpki_err\": " + json::number(sampled.mpkiErr) +
           ",\n    \"deterministic\": " +
           (sampled.deterministic ? "true" : "false") + "},\n";
    out += "  \"notes\": " +
           json::quote("stats_registration compares group add() "
                       "throughput with every hardware thread "
                       "registering concurrently: single_lock wraps "
                       "the sharded registry in one global mutex "
                       "(the pre-sharding behaviour), sharded is the "
                       "16-way lock-striped registry as shipped.") +
           "\n";
    out += "}\n";

    std::ofstream file(path);
    if (!file || !(file << out)) {
        std::fprintf(stderr, "microbench_mips: cannot write %s\n",
                     path.c_str());
        std::exit(1);
    }
    std::printf("serial %.1f MIPS, parallel(%u) %.1f MIPS, speedup "
                "%.2fx, identical=%s -> %s\n", serial.simMips,
                host_threads, parallel.simMips, speedup,
                identical ? "yes" : "NO", path.c_str());
    std::printf("stats registration: single-lock %.0f ops/s, sharded "
                "%.0f ops/s (%.2fx)\n", reg_single, reg_sharded,
                reg_speedup);
    std::printf("sampled replay: full %.1f MIPS, sampled %.1f MIPS "
                "(%.2fx, %llu intervals, %.1f%% coverage), mpki err "
                "%.2f%%, deterministic=%s\n", sampled.fullMips,
                sampled.sampledMips, sampled.speedup,
                static_cast<unsigned long long>(sampled.intervals),
                100.0 * sampled.coverage, 100.0 * sampled.mpkiErr,
                sampled.deterministic ? "yes" : "NO");
    if (!identical) {
        std::fprintf(stderr, "microbench_mips: parallel emulation "
                     "diverged from serial!\n");
        std::exit(1);
    }
    if (!sampled.deterministic) {
        std::fprintf(stderr, "microbench_mips: sampled replay left "
                     "different emulator state across two passes!\n");
        std::exit(1);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeMipsJson();
    return 0;
}
