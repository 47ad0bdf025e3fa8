/**
 * @file
 * Table 1: input parameters and datasets -- the paper's originals next
 * to this reproduction's synthetic substitutions.
 */

#include <cstdio>

#include "base/table.hh"
#include "harness/report.hh"
#include "mem/address_space.hh"
#include "workloads/workload_factory.hh"

using namespace cosim;

int
main(int argc, char** argv)
{
    BenchOptions opts = parseBenchArgs(
        argc, argv, "Table 1: workload inputs and substitutions");
    // Sizes every workload's inputs and writes nothing.
    requireOnlyFlags(argc, argv, {"--scale", "--quick", "--seed"});
    printBanner("Table 1: Input parameters and datasets", opts);

    TableWriter table("Table 1 (paper inputs vs. this reproduction)");
    table.setHeader({"Workload", "Paper parameters", "Paper input",
                     "Synthetic substitution", "Footprint here"});

    for (const WorkloadInfo& info : workloadCatalog()) {
        auto wl = createWorkload(info.name, opts.scale);
        SimAllocator alloc;
        WorkloadConfig cfg;
        cfg.nThreads = 8;
        cfg.scale = opts.scale;
        cfg.seed = opts.seed;
        wl->setUp(cfg, alloc);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1fMB",
                      static_cast<double>(alloc.footprint()) / (1 << 20));
        table.addRow({info.name, info.paperParameters, info.paperInput,
                      info.substitution, buf});
        wl->tearDown();
    }
    std::printf("%s\n", table.renderAscii().c_str());
    std::printf("(footprints at --scale=%.3g with 8 threads; private\n"
                " structures are counted once per thread)\n", opts.scale);
    return 0;
}
