/**
 * @file
 * Table 2: single-threaded workload characteristics on a Pentium 4-like
 * core (8 KB DL1, 512 KB L2): IPC, instruction count, memory-instruction
 * shares, and DL1/DL2 accesses and misses per kilo-instruction.
 */

#include <cstdio>
#include <map>

#include "base/csv.hh"
#include "base/logging.hh"
#include "base/str.hh"
#include "base/table.hh"
#include "core/experiment.hh"
#include "harness/report.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

namespace {

/** The paper's Table 2, for side-by-side comparison. */
struct PaperRow
{
    double ipc;
    double instBillions;
    double memPct;
    double readPct;
    double dl1Mpki;
    double dl2Mpki;
};

const std::map<std::string, PaperRow> paperTable2 = {
    {"SNP", {0.12, 71.26, 50.75, 37.41, 12.01, 7.77}},
    {"SVM-RFE", {0.87, 37.02, 45.14, 43.64, 61.40, 2.96}},
    {"MDS", {0.06, 217.8, 49.34, 43.46, 51.00, 18.95}},
    {"SHOT", {0.61, 15.01, 53.85, 30.66, 18.86, 4.07}},
    {"FIMI", {0.51, 50.28, 47.10, 35.74, 15.99, 3.76}},
    {"VIEWTYPE", {0.49, 33.61, 49.02, 36.86, 31.77, 3.56}},
    {"PLSA", {1.08, 356.8, 83.10, 46.66, 4.60, 0.18}},
    {"RSEARCH", {0.62, 53.9, 42.3, 33.2, 10.65, 0.72}},
};

} // namespace

int
main(int argc, char** argv)
{
    BenchOptions opts = parseBenchArgs(
        argc, argv,
        "Table 2: single-thread workload characteristics (P4-like core)");
    requireOnlyFlags(argc, argv, kSingleRunFlags);
    printBanner("Table 2: Workload characteristics", opts);
    ensureOutputDir(opts.outDir);

    PlatformParams platform;
    platform.name = "P4";
    platform.nCores = 1;
    platform.cpu = presets::pentium4Cpu();
    platform.dram.baseLatency = 350; // NetBurst-era memory round trip
    platform.dex.quantumInsts = 100000;
    VirtualPlatform vp(platform);

    TableWriter table(
        "Table 2 -- measured (this reproduction) | paper in [brackets]");
    table.setHeader({"Workload", "IPC", "Insts (M)", "%Mem", "%MemRead",
                     "DL1 acc/1k", "DL1 miss/1k", "DL2 miss/1k",
                     "verified"});

    CsvWriter csv(opts.outDir + "/table2.csv");
    csv.writeRow({"workload", "ipc", "insts", "mem_pct", "read_pct",
                  "dl1_apki", "dl1_mpki", "dl2_mpki", "paper_ipc",
                  "paper_dl1_mpki", "paper_dl2_mpki"});

    for (const std::string& name : opts.workloads) {
        auto wl = createWorkload(name, opts.scale);
        WorkloadConfig cfg;
        cfg.nThreads = 1;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;
        RunResult r = vp.run(*wl, cfg);
        if (!r.verified)
            fatal("%s failed self-verification", name.c_str());

        const PaperRow& p = paperTable2.at(wl->name());
        table.addRow({
            wl->name(),
            strFormat("%.2f [%.2f]", r.ipc(), p.ipc),
            strFormat("%.1f [%gB]",
                      static_cast<double>(r.totalInsts) / 1e6,
                      p.instBillions),
            strFormat("%.1f%% [%.1f%%]", r.memInstPercent(), p.memPct),
            strFormat("%.1f%% [%.1f%%]", r.memReadPercent(), p.readPct),
            strFormat("%.0f", r.l1AccessesPerKiloInst()),
            strFormat("%.2f [%.2f]", r.l1MissesPerKiloInst(), p.dl1Mpki),
            strFormat("%.2f [%.2f]", r.l2MissesPerKiloInst(), p.dl2Mpki),
            r.verified ? "yes" : "NO",
        });
        csv.writeNumericRow(
            wl->name(),
            {r.ipc(), static_cast<double>(r.totalInsts),
             r.memInstPercent(), r.memReadPercent(),
             r.l1AccessesPerKiloInst(), r.l1MissesPerKiloInst(),
             r.l2MissesPerKiloInst(), p.ipc, p.dl1Mpki, p.dl2Mpki});
    }

    std::printf("%s\n", table.renderAscii().c_str());
    std::printf("Notes: instruction counts are scaled inputs (the paper "
                "ran 15-357 *billion*\ninstructions on real hardware); "
                "compare shapes, not absolutes. CSV: %s\n",
                (opts.outDir + "/table2.csv").c_str());
    return 0;
}
